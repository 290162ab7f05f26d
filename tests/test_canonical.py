"""Laws of the symbolic calculus on random operators.

Every operation returns a canonical operator: TensorOperator.canonical,
GeneratorImageTable.set and scale rely on this, they take their inputs as
canonical and do not canonicalise them again.  Window evaluation at fixed
q agrees with symbolic application, and the structural deviation bound
bounds it.  The adjoint is an involution and composition is associative.
All of these run on the process-wide caches of the per-slot calculus,
so they also check that earlier examples leave no stale hits behind.
"""

import itertools

from hypothesis import example, given, settings, strategies as st

from bqdim import qoperators as qo, repsoq
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
    return (op.canonical().key() == op.key()
            and all(f.canonical().key() == f.key() for f in factors))


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
def test_add_of_a_canonical_operator_is_itself(op):
    # what lets a relation be summed by one add over all its terms: the
    # factors keep their exact keys, the scalars their values (a zero part
    # may change sign, which no magnitude sees)
    again = qo.add(op)
    assert [(s, tuple(f.exact_key for f in fs)) for s, fs in again.summands] \
        == [(s, tuple(f.exact_key for f in fs)) for s, fs in op.summands]


@settings(max_examples=150, deadline=None)
@given(st.one_of(ONE_SLOT, TWO_SLOT, CIRCLE))
def test_adjoint_is_an_involution(op):
    assert qo.adjoint(qo.adjoint(op)).key() == op.key()


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


def test_monomial_memo_is_keyed_on_q():
    op = qo.elementary_tensor([qo.q_power(1, 1)])
    coeff = op.summands[0][1][0].terms[0][1]
    for q in (0.5, 0.3, 0.5):
        assert qo.monomial_decomposition(op, q) == {((0, 1, ()),): q}
        assert coeff.monomials(q) == (((1, ()), q),)


def test_window_bound_memo_is_keyed_on_slot_cutoff_and_q():
    # q^N peaks at the lowest window index: 0 on an N slot, -cutoff on Z
    for space, cutoff, q, peak in (("N", 4, 0.5, 1.0), ("Z", 4, 0.5, 16.0),
                                   ("Z", 6, 0.5, 64.0), ("Z", 4, 0.25, 256.0),
                                   ("Z", 4, 0.5, 16.0)):
        op = qo.elementary_tensor([qo.q_power(1, 0, space)])
        assert qo.window_deviation_bound(op, cutoff, q) == peak


def test_memo_tells_signed_zeros_apart():
    # complex == conflates -0.0 with 0.0; the products do not, so neither
    # may the factors, on which the caches are keyed
    plus, minus = qo.constant(complex(-1.0, 0.0)), qo.constant(complex(-1.0, -0.0))
    assert plus != minus
    first = qo.constant(complex(-1.0, 0.0))
    consts = [repr(first.compose(f).terms[0][1].const) for f in (plus, minus)]
    assert consts == ["(1-0j)", "(1+0j)"]
