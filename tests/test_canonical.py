"""Laws of the symbolic calculus on random operators.

Every operation returns a canonical operator: TensorOperator.canonical,
GeneratorImageTable.set and scale rely on this, they take their inputs as
canonical and do not canonicalise them again.  Window evaluation at fixed
q agrees with symbolic application, and the structural deviation bound
bounds it.  The adjoint is an involution and composition is associative,
and a composition's monomial expansion follows from the expansion of its
right factor alone.
All of these run on the process-wide caches of the per-slot calculus,
so they also check that earlier examples leave no stale hits behind.
"""

import functools
import itertools

import numpy as np
from hypothesis import example, given, settings, strategies as st

from bqdim import growth, qoperators as qo, repsoq, weylb
from bqdim.repsoq import RepSpec

from test_acceptance import SAMPLE_WORDS

EDGES = st.sampled_from(sorted(repsoq.EDGE_OPERATORS)).map(
    lambda tag: qo.elementary_tensor([repsoq.EDGE_OPERATORS[tag]]))
SCALARS = st.sampled_from([0, -1, 0.5, 2, 1j, -0.25 + 0.5j])


def _combinations(base):
    return st.recursive(base, lambda sub: st.one_of(
        st.builds(qo.add, sub, sub),
        st.builds(qo.scale, SCALARS, sub),
        st.builds(qo.compose, sub, sub),
        st.builds(qo.adjoint, sub)), max_leaves=6)


ONE_SLOT = _combinations(EDGES)
TWO_SLOT = _combinations(st.builds(qo.tensor, ONE_SLOT, ONE_SLOT))
# a circle slot next to bare unilateral shifts, whose coefficients do not
# vanish at the boundary: only the k < d mask keeps e_0 off e_{-1}
CIRCLE = _combinations(st.builds(
    lambda z, u: qo.elementary_tensor([z, u]),
    st.sampled_from([qo.shift_down("Z"), qo.shift_up("Z")]),
    st.sampled_from([qo.shift_down(), qo.shift_up(), qo.identity_shift()])))


def _is_canonical(op):
    factors = [f for _, fs in op.summands for f in fs]
    return op.canonical() == op and all(f.canonical() == f for f in factors)


@settings(max_examples=150, deadline=None)
@given(st.one_of(ONE_SLOT, TWO_SLOT))
def test_calculus_returns_canonical_operators(op):
    assert _is_canonical(op)


def test_rep_table_entries_are_canonical():
    for n, words in SAMPLE_WORDS.items():
        for word in words:
            table = repsoq.rep_table(RepSpec(n, word))
            for (k, l), op in table.images.items():
                assert _is_canonical(op), (n, word, k, l)


def _applied(op, k, q):
    try:
        return qo.apply_operator(op, qo.basis_vector(op.signature, k),
                                 q).entries
    except qo.QDomainError:
        return None


@settings(max_examples=150, deadline=None)
@given(st.one_of(ONE_SLOT, TWO_SLOT, CIRCLE))
# the calculus never leaves the radical domain; this operator does at N < 2
@example(qo.elementary_tensor([qo.product(qo.shift_up(),
                                          qo.sqrt_radical(1, -2))]))
def test_window_profiles_agree_with_apply_operator(op):
    cutoff, q = 4, 0.5
    windows = [range(-cutoff, cutoff + 1) if kind == qo.BILATERAL
               else range(cutoff + 1) for kind in op.signature]
    images = {k: _applied(op, k, q) for k in itertools.product(*windows)}
    try:
        profiles = qo.window_profiles(op, cutoff, q)
    except qo.QDomainError:
        assert None in images.values()
        return
    assert None not in images.values()
    for k, image in images.items():
        pos = tuple(i - w.start for i, w in zip(k, windows))
        values = {tuple(i - e for i, e in zip(k, d)): arr[pos]
                  for d, arr in profiles.items()}
        scale = max(map(abs, [*image.values(), *values.values()]), default=0)
        # a target e_{k-d} off the unilateral range has no image entry
        for target in set(image) | set(values):
            assert abs(values.get(target, 0) - image.get(target, 0)) \
                <= 1e-12 * scale, (k, target)


@settings(max_examples=150, deadline=None)
@given(st.one_of(ONE_SLOT, TWO_SLOT, CIRCLE))
def test_deviation_bound_bounds_the_window(op):
    # the relation checks report the structural bound in place of the
    # dense window whenever it is below tolerance
    cutoff, q = 4, 0.5
    assert qo.window_magnitude(op, cutoff, q) \
        <= qo.window_deviation_bound(op, cutoff, q) * (1 + 1e-12)


def _values(op):
    """Every factor of op and every coefficient of those factors, each with
    a fresh copy that shares no object with it."""
    factors = [f for _, fs in op.summands for f in fs]
    coeffs = [c for f in factors for _, c in f.terms]
    return (factors + [qo.WeightedShiftSum(f.space, tuple(
                (d, qo.Coefficient(c.const, c.qa, c.qb, c.h, c.radicals))
                for d, c in f.terms)) for f in factors],
            coeffs + [c.scaled(1) for c in coeffs])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([ONE_SLOT, TWO_SLOT, CIRCLE]).flatmap(
    lambda ops: st.tuples(ops, ops)))
def test_equality_is_exact_key_equality(ops):
    # the caches key on these values, so == must mean equal exact keys
    factors, coeffs = map(list, zip(*map(_values, ops)))
    for group in (factors[0] + factors[1], coeffs[0] + coeffs[1]):
        for a, b in itertools.product(group, repeat=2):
            assert (a == b) == (a.exact_key == b.exact_key)
            if a == b:
                assert hash(a) == hash(b)


@settings(max_examples=150, deadline=None)
@given(st.one_of(ONE_SLOT, TWO_SLOT, CIRCLE))
def test_factors_are_interned(op):
    # one object per canonical factor value: the caches and the summand
    # keys of TensorOperator.canonical hit on identity
    factors = [f for _, fs in op.summands for f in fs]
    copies = _values(op)[0][len(factors):]
    for f, copy in zip(factors, copies):
        assert f.canonical() is f
        assert copy.canonical() is f
    again = [f for _, fs in qo.add(op).summands for f in fs]
    assert len(again) == len(factors)
    assert all(a is f for a, f in zip(again, factors))


@settings(max_examples=150, deadline=None)
@given(st.one_of(ONE_SLOT, TWO_SLOT, CIRCLE))
def test_add_of_a_canonical_operator_is_itself(op):
    # what lets a relation be summed by one add over all its terms: bit for
    # bit, so the scalars keep their reprs, signs of zero parts included
    again = qo.add(op)
    assert [(repr(s), fs) for s, fs in again.summands] \
        == [(repr(s), fs) for s, fs in op.summands]


@settings(max_examples=150, deadline=None)
@given(st.one_of(ONE_SLOT, TWO_SLOT, CIRCLE))
def test_adjoint_is_an_involution(op):
    assert qo.adjoint(qo.adjoint(op)) == op


def _close(x, y, rel=1e-12):
    scale = max(map(abs, [*x.values(), *y.values()]), default=0)
    return all(abs(x.get(k, 0) - y.get(k, 0)) <= rel * scale
               for k in set(x) | set(y))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([ONE_SLOT, TWO_SLOT, CIRCLE]).flatmap(
    lambda ops: st.tuples(ops, ops, ops)))
def test_compose_is_associative(ops):
    a, b, c = ops
    q = 0.5
    left = qo.monomial_decomposition(qo.compose(qo.compose(a, b), c), q)
    right = qo.monomial_decomposition(qo.compose(a, qo.compose(b, c)), q)
    assert _close(left, right)


@functools.lru_cache(maxsize=None)
def _homogeneous_generators(n, m):
    w = weylb.longest_quotient_element(
        n, weylb.ParabolicSubset.homogeneous(n, m))
    return growth.homogeneous_generators(growth.homogeneous_rep(n, m, w), n, m)


@st.composite
def _word_and_letter(draw):
    """Generators of a homogeneous space: a word x of length <= 3 as a list,
    with x's first letter applied first, and one more letter g."""
    gens = _homogeneous_generators(
        *draw(st.sampled_from([(1, 1), (2, 2), (2, 1)])))
    letter = st.sampled_from(gens)
    return draw(st.lists(letter, max_size=3)), draw(letter)


@settings(max_examples=100, deadline=None)
@given(_word_and_letter(), st.sampled_from([0.5, 0.3]))
def test_expansion_step_equals_expanded_composition(case, q):
    """The expansion of g o x computed from the expansion of x alone equals
    the expansion of the composed operator g o x."""
    word, g = case
    x = qo.identity_operator(g.signature)
    for letter in word:
        x = qo.compose(letter, x)
    step = qo.monomial_decomposition(g, q, qo.monomial_decomposition(x, q))
    assert _close(step, qo.monomial_decomposition(qo.compose(g, x), q))


def test_monomial_memo_is_keyed_on_q():
    op = qo.elementary_tensor([qo.q_power(1, 1)])
    coeff = op.summands[0][1][0].terms[0][1]
    for q in (0.5, 0.3, 0.5):
        assert qo.monomial_decomposition(op, q) == {((0, 1, ()),): q}
        assert coeff.monomials(q) == (((1, ()), q),)


def test_coefficient_row_memo_is_keyed_on_q_and_window():
    # sqrt(1 - q^(N+1)) + q^N on a circle slot: the radicand vanishes at
    # N = -1 and is negative below it
    op = qo.elementary_tensor([qo.sqrt_radical(1, 1, "Z").add(
        qo.q_power(1, 0, "Z"))])
    combos = [c for _, fs in op.summands
              for c in itertools.product(*(f.terms for f in fs))]
    for q, ks in ((0.5, range(0, 7)), (0.3, range(0, 7)),
                  (0.5, range(-3, 4)), (0.5, range(0, 7))):
        table = qo.compile_table([op], q, ks)
        for c, combo in enumerate(combos):
            for s, (_, coeff) in enumerate(combo):
                row = table.coefficients[table.term[c, s]]
                expected = [qo._evaluate_or_nan(coeff, k, q) for k in ks]
                assert [repr(v) for v in row.tolist()] \
                    == [repr(v) for v in expected], (q, ks, coeff)
        if ks.start < 0:
            radical = table.coefficients[table.term[0, 0]]
            assert np.isnan(radical[:2]).all() and radical[2] == 0
        # a later table reads the cache, not this array
        table.coefficients[:] = 7


def test_window_bound_memo_is_keyed_on_slot_cutoff_and_q():
    # q^N peaks at the lowest window index: 0 on an N slot, -cutoff on Z
    for space, cutoff, q, peak in (("N", 4, 0.5, 1.0), ("Z", 4, 0.5, 16.0),
                                   ("Z", 6, 0.5, 64.0), ("Z", 4, 0.25, 256.0),
                                   ("Z", 4, 0.5, 16.0)):
        op = qo.elementary_tensor([qo.q_power(1, 0, space)])
        assert qo.window_deviation_bound(op, cutoff, q) == peak


def test_constants_carry_no_signed_zero():
    # complex == conflates -0.0 with 0.0 and the caches key on ==, so the
    # constants drop the sign of a zero part: equal values, equal products
    plus, minus = qo.constant(-1 + 0j), qo.constant(complex(-1.0, -0.0))
    assert plus == minus and hash(plus) == hash(minus)
    first = qo.constant(-1 + 0j)
    consts = [repr(first.compose(f).terms[0][1].const) for f in (plus, minus)]
    assert consts == ["(1+0j)", "(1+0j)"]
