"""The compiled kernels against symbolic expansion.

growth.ModuleKernel.batches expands a frontier by gather and scatter-add over
qoperators.compile_table; qoperators.apply_operator is the oracle, entry
by entry, including amplitudes many decades below an image's largest,
which both keep (only exact zeros go).  The module
series runs it on single vectors over N slots, the homogeneous probe series
on stacks of probe images over Z (circle) and N slots.  growth.MonomialKernel
runs the same expansion on monomial expansions of operator words, for the
structural series and the witness walk; qoperators.monomial_decomposition is
its oracle, entry for entry and bit for bit, each image's keys ascending,
whether its keys are dense codes or interned ids of slot-group codes.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bqdim import growth, qoperators as qo, repsoq, weylb
from bqdim.repsoq import RepSpec

from test_acceptance import MODULE_WORDS

Q = 0.5
R_MAX = 4
WORDS = [(2, word) for word in MODULE_WORDS] + [(3, (1, 2, 3, 2, 1))]


# plain shifts, whose coefficients do not vanish at the boundary: only the
# shift mask keeps their images off negative indices
BARE = [qo.elementary_tensor([a, b]) for a, b in (
    (qo.shift_down(), qo.identity_shift()),
    (qo.identity_shift(), qo.shift_down()),
    (qo.shift_up(), qo.product(qo.shift_down(), qo.shift_down())),
    (qo.shift_down().add(qo.q_power(1, 0)), qo.shift_up()))]
CASES = WORDS + ["bare shifts"]
# amplitude mantissas: signed reals, the kernels being real
SIGNED = st.floats(0.5, 2.0) | st.floats(-2.0, -0.5)


@pytest.fixture(scope="module")
def kernels():
    """Generators and kernel per case."""
    out = {"bare shifts": (BARE, growth.ModuleKernel(BARE, Q, R_MAX))}
    for n, word in WORDS:
        gens = growth.module_generators(repsoq.rep_table(RepSpec(n, word)))
        out[n, word] = gens, growth.ModuleKernel(gens, Q, R_MAX)
    return out


def _vectors(kernel):
    """Frontiers of sparse vectors whose images stay in the window.

    Amplitudes span 20 decades, so many images hold entries far below
    their largest, which both sides must keep."""
    index = st.tuples(*(st.integers(0, d * (R_MAX - 1))
                        for d in kernel.shift_bounds))
    amp = st.builds(lambda e, x: 10.0 ** -e * x,
                    st.sampled_from([0, 6, 13, 20]), SIGNED)
    sig = (qo.UNILATERAL,) * len(kernel.radices)
    vec = st.dictionaries(index, amp, min_size=1, max_size=50).map(
        lambda entries: qo.SparseVector(sig, entries))
    return st.lists(vec, min_size=1, max_size=3)


def _decoded(kernel, keys, amps) -> dict:
    """An element keyed by index, or by (probe, index) for a stack."""
    probe, rest = np.divmod(keys, kernel.size)
    digits = np.array(np.unravel_index(rest, kernel.radices)).T
    index = (digits + np.array(kernel.lows, dtype=np.int64)).tolist()
    if kernel.probes == 1:
        return dict(zip(map(tuple, index), amps.tolist()))
    return dict(zip(zip(probe.tolist(), map(tuple, index)), amps.tolist()))


def _images(kernel, frontier) -> list:
    """(keys, amplitudes) of every image in the kernel's batches, in
    (element, generator) order."""
    return [(keys[a:b], amps[a:b])
            for bounds, keys, amps in kernel.batches(frontier)
            for a, b in zip(bounds[:-1], bounds[1:])]


@pytest.mark.parametrize("case", CASES, ids=str)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_kernel_candidates_equal_apply_operator(kernels, case, data):
    gens, kernel = kernels[case]
    frontier = data.draw(_vectors(kernel))
    candidates = _images(kernel, [kernel.encode(v) for v in frontier])
    assert len(candidates) == len(frontier) * len(gens)
    expected = [qo.apply_operator(g, v, Q).entries
                for v in frontier for g in gens]
    for want, (keys, amps) in zip(expected, candidates):
        got = _decoded(kernel, keys, amps)
        assert list(got) == list(want)      # same entries, same order
        scale = max((abs(a) for a in want.values()), default=0.0)
        for key, a in want.items():
            assert abs(got[key] - a) <= 1e-12 * scale


HOMOGENEOUS = [(1, 1), (2, 2), (2, 1)]
REACH, STACK = 2, 3


@pytest.fixture(scope="module")
def probe_kernels():
    """Homogeneous generators and their kernel for stacks of STACK vectors."""
    out = {}
    for n, m in HOMOGENEOUS:
        w = weylb.longest_quotient_element(
            n, weylb.ParabolicSubset.homogeneous(n, m))
        gens = growth.homogeneous_generators(growth.homogeneous_rep(n, m, w),
                                             n, m)
        out[n, m] = gens, growth.ModuleKernel(gens, Q, R_MAX, reach=REACH,
                                              probes=STACK)
    return out


def _stacks(kernel):
    """Frontiers of stacks whose images stay in the window, with negative
    indices on the Z slots.

    Each vector of a stack has its own scale, 0, 10 or 20 decades down, on
    top of entries spread over 13 decades, so a probe's image may sit far
    below the rest of its stack and still keep every entry."""
    index = st.tuples(*(st.integers(lo + d if z else 0, lo + b - 1 - d)
                        for lo, b, d, z in zip(kernel.lows, kernel.radices,
                                               kernel.shift_bounds,
                                               kernel.circle)))
    amp = st.builds(lambda e, x: 10.0 ** -e * x,
                    st.sampled_from([0, 6, 13]), SIGNED)
    vec = st.builds(
        lambda entries, e: qo.SparseVector(
            kernel.signature, {k: a * 10.0 ** -e for k, a in entries.items()}),
        st.dictionaries(index, amp, min_size=1, max_size=20),
        st.sampled_from([0, 10, 20]))
    stack = st.lists(vec, min_size=STACK, max_size=STACK)
    return st.lists(stack, min_size=1, max_size=2)


@pytest.mark.parametrize("case", HOMOGENEOUS, ids=str)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_kernel_stacks_equal_apply_operator_per_probe(probe_kernels, case,
                                                      data):
    gens, kernel = probe_kernels[case]
    frontier = data.draw(_stacks(kernel))
    candidates = _images(kernel, [kernel.encode(*stack)
                                  for stack in frontier])
    assert len(candidates) == len(frontier) * len(gens)
    expected = [{(i, index): a for i, v in enumerate(stack)
                 for index, a in qo.apply_operator(g, v, Q).entries.items()}
                for stack in frontier for g in gens]
    for want, (keys, amps) in zip(expected, candidates):
        # same entries, same order, same values
        assert list(_decoded(kernel, keys, amps).items()) == \
            list(want.items())


def test_kernel_raises_where_evaluate_raises():
    # sqrt(1 - q^(N-2)) has a negative radicand at N = 0, 1 and vanishes at 2
    op = qo.elementary_tensor([qo.product(qo.shift_up(),
                                          qo.sqrt_radical(1, -2))])
    kernel = growth.ModuleKernel([op], Q, 4)
    for index in [(0,), (1,)]:
        vec = qo.basis_vector(("N",), index)
        with pytest.raises(qo.QDomainError):
            qo.apply_operator(op, vec, Q)
        with pytest.raises(qo.QDomainError):
            _images(kernel, [kernel.encode(vec)])
    vec = qo.SparseVector(("N",), {(2,): 1.0 + 0j, (3,): 0.5})
    [(keys, amps)] = _images(kernel, [kernel.encode(vec)])
    assert _decoded(kernel, keys, amps) == \
        qo.apply_operator(op, vec, Q).entries


def test_kernel_refuses_complex_values():
    """The kernels are real: a table at a non-trivial torus point carries
    complex scalars, and it is refused rather than truncated, as is a
    complex amplitude."""
    twisted = repsoq.rep_table(RepSpec(2, (1, 2), t=(1j, -1.0)))
    with pytest.raises(ValueError, match="imaginary"):
        growth.ModuleKernel(growth.module_generators(twisted), Q, 2)
    kernel = growth.ModuleKernel(BARE, Q, 2)
    with pytest.raises(ValueError, match="imaginary"):
        kernel.encode(qo.SparseVector(kernel.signature, {(0, 0): 0.5j}))


def test_kernel_refuses_an_index_space_beyond_int64(monkeypatch):
    # refused before any table is evaluated or allocated
    def no_table(*args):
        raise AssertionError("a table was compiled")

    monkeypatch.setattr(growth.qo, "compile_table", no_table)
    # 9^30 indices on 30 slots at r_max = 8
    op = qo.elementary_tensor([qo.shift_up()] * 30)
    with pytest.raises(ValueError, match="int64"):
        growth.ModuleKernel([op], Q, 8)
    # 9^13 indices fit alone, but not as a stack of 1000 probe images
    op = qo.elementary_tensor([qo.shift_up()] * 13)
    with pytest.raises(ValueError, match="int64"):
        growth.ModuleKernel([op], Q, 8, probes=1000)
    # a single probe passes the guard and goes on to the table
    with pytest.raises(AssertionError, match="compiled"):
        growth.ModuleKernel([op], Q, 8, probes=1)


def test_kernel_refuses_an_index_outside_the_window():
    # at r_max = 2 the window is 0..2 and only 0..1 may be expanded
    gens = growth.module_generators(repsoq.rep_table(RepSpec(2, (1,))))
    kernel = growth.ModuleKernel(gens, Q, 2)
    with pytest.raises(ValueError, match="window"):
        kernel.encode(qo.basis_vector(("N",), (3,)))
    last = kernel.encode(qo.basis_vector(("N",), (2,)))
    with pytest.raises(ValueError, match="window"):
        _images(kernel, [last])


def test_kernel_refuses_circle_indices_outside_the_window():
    # one Z slot, D = 1, reach 1, r_max = 3: the window is -3..4 and only
    # -2..3 may be expanded
    op = qo.elementary_tensor([qo.shift_up(qo.BILATERAL)
                               .add(qo.shift_down(qo.BILATERAL))])
    kernel = growth.ModuleKernel([op], Q, 3, reach=1)
    assert (kernel.lows, kernel.radices) == ([-3], [8])
    for k in (-4, 5):
        with pytest.raises(ValueError, match="window"):
            kernel.encode(qo.basis_vector(("Z",), (k,)))
    for k in (-3, 4):
        edge = kernel.encode(qo.basis_vector(("Z",), (k,)))
        with pytest.raises(ValueError, match="window"):
            _images(kernel, [edge])
    for k in (-2, 3):
        vec = qo.basis_vector(("Z",), (k,))
        [(keys, amps)] = _images(kernel, [kernel.encode(vec)])
        assert _decoded(kernel, keys, amps) == \
            qo.apply_operator(op, vec, Q).entries


def test_kernel_encode_checks_the_signature():
    gens = growth.module_generators(repsoq.rep_table(RepSpec(2, (1,))))
    kernel = growth.ModuleKernel(gens, Q, 2)
    with pytest.raises(ValueError, match="signature"):
        kernel.encode(qo.vacuum(("N", "N")))


# (n, m, r_max): the (2, 1) generators have 4-term summands, whose radical
# pairs give slot terms several outputs
MONOMIAL = [(1, 1, 3), (2, 2, 2), (2, 1, 2)]


@pytest.fixture(scope="module")
def monomial_kernels():
    """Per (n, m, r_max, q, kind, keys): the operators and their monomial
    kernel, the homogeneous generators for a series, the witness letters
    for a walk; keys dense, interned ids of one slot group, or a chain of
    groups of at most 64 codes."""
    cache = {}

    def get(case):
        if case not in cache:
            n, m, r_max, q, kind, keys = case
            w = weylb.longest_quotient_element(
                n, weylb.ParabolicSubset.homogeneous(n, m))
            if kind == "series":
                ops = growth.homogeneous_generators(
                    growth.homogeneous_rep(n, m, w), n, m)
            else:
                ops = [op for op, _, _ in growth.homogeneous_witnesses(n, m, w)]
            with mock.patch.object(growth, "_DENSE_KEYS",
                                   growth._DENSE_KEYS if keys == "dense"
                                   else 0), \
                    mock.patch.object(growth, "_GROUP_CODES",
                                      growth._GROUP_CODES if keys != "chain"
                                      else 64):
                cache[case] = ops, growth.MonomialKernel(ops, q, r_max)
        return cache[case]
    return get


def _expansions(kernel):
    """Frontiers of expansions over the slot keys words shorter than r_max
    reach, amplitudes spanning 20 decades."""
    key = st.tuples(*(st.sampled_from([k for k, inside in zip(keys, slot.inside)
                                       if inside])
                      for keys, slot in zip(kernel.slot_keys, kernel._slots)))
    amp = st.builds(lambda e, x: 10.0 ** -e * x,
                    st.sampled_from([0, 6, 13, 20]), SIGNED)
    return st.lists(st.dictionaries(key, amp, min_size=1, max_size=30),
                    min_size=1, max_size=3)


def _monomials(kernel, keys, amps) -> dict:
    digits = np.array(kernel._digits(kernel._codes(keys))).T.tolist()
    return {tuple(slot[d] for slot, d in zip(kernel.slot_keys, row)): a
            for row, a in zip(digits, amps.tolist())}


@pytest.mark.parametrize("case", [(n, m, r_max, q, kind, "dense")
                                  for n, m, r_max in MONOMIAL
                                  for q in (0.5, 0.3)
                                  for kind in ("series", "walk")]
                         + [(n, m, r_max, Q, kind, keys)
                            for n, m, r_max in MONOMIAL
                            for kind in ("series", "walk")
                            for keys in ("interned", "chain")], ids=str)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_monomial_kernel_images_equal_monomial_decomposition(
        monomial_kernels, case, data):
    """Also with a block's terms summed a short run at a time."""
    ops, kernel = monomial_kernels(case)
    q, kind = case[3:5]
    frontier = data.draw(_expansions(kernel))
    run = data.draw(st.sampled_from([growth._EXPAND_TERMS, 1, 37]))
    if kind == "series":
        pairs = [(x, g) for x in frontier for g in range(len(ops))]
        batches = kernel.batches([kernel.encode(x) for x in frontier])
    else:
        pairs = [(x, data.draw(st.integers(0, len(ops) - 1)))
                 for x in frontier]
        batches = kernel.batches([kernel.encode(x) for x, _ in pairs],
                                 [g for _, g in pairs])
    with mock.patch.object(growth, "_EXPAND_TERMS", run):
        images = [(keys[a:b], amps[a:b]) for bounds, keys, amps in batches
                  for a, b in zip(bounds[:-1], bounds[1:])]
    assert len(images) == len(pairs)
    for (x, g), (keys, amps) in zip(pairs, images):
        # the same entries, equal under ==, keys ascending
        assert _monomials(kernel, keys, amps) == \
            qo.monomial_decomposition(ops[g], q, x)
        assert (np.diff(keys) > 0).all()


def test_monomial_kernel_refuses_keys_outside_the_window():
    w = weylb.longest_quotient_element(1, weylb.ParabolicSubset.homogeneous(1, 1))
    gens = growth.homogeneous_generators(growth.homogeneous_rep(1, 1, w), 1, 1)
    kernel = growth.MonomialKernel(gens, Q, 1)
    with pytest.raises(ValueError, match="window"):
        kernel.encode({((5, 0, ()), (0, 0, ())): 1.0 + 0j})
    # the start's images are reached by one letter and expand no further
    [(bounds, keys, amps)] = kernel.batches([kernel.start])
    with pytest.raises(ValueError, match="window"):
        list(kernel.batches([(keys[bounds[1]:bounds[2]],
                              amps[bounds[1]:bounds[2]])]))


@pytest.mark.parametrize("n,m", [(4, 2), (4, 1)])
def test_monomial_kernels_past_int64_intern_their_keys(n, m):
    """At r_max = 2 the slot keys of the (4, 2) and (4, 1) generators span
    1.2e17 and 8.9e18 keys, past dense int64 block keys (their witness
    letters span 5.2e22 and 9.7e24); the kernels intern the keys they
    reach, and the identity expands under every generator, or under one
    letter each, to monomial_decomposition."""
    w = weylb.longest_quotient_element(n, weylb.ParabolicSubset.homogeneous(n, m))
    gens = growth.homogeneous_generators(growth.homogeneous_rep(n, m, w), n, m)
    kernel = growth.MonomialKernel(gens, Q, 2)
    assert not kernel.dense
    x = {((0, 0, ()),) * len(kernel.radices): 1.0 + 0j}
    want = [qo.monomial_decomposition(g, Q, x) for g in gens]
    assert [_monomials(kernel, *image)
            for image in _images(kernel, [kernel.start])] == want
    letters = [0, len(gens) - 1, 1]
    walked = [(keys[a:b], amps[a:b]) for bounds, keys, amps
              in kernel.batches([kernel.start] * 3, letters)
              for a, b in zip(bounds[:-1], bounds[1:])]
    assert [_monomials(kernel, *image) for image in walked] == \
        [want[g] for g in letters]


@pytest.mark.parametrize("n,m,r_max", [(4, 3, 2), (3, 1, 3)])
def test_witness_walks_past_int64_intern_their_keys(n, m, r_max):
    """The slot keys of the (4, 3) witness letters at r_max = 2 and of the
    (3, 1) ones at r_max = 3 span 4.7e17 and 3.2e17 keys, past dense int64
    block keys, although their series kernels fit; the walk kernels intern
    the keys they reach.  The walk's first level, and the first patterns of
    its second, each expanded from its parent under its last letter, equal
    monomial_decomposition."""
    w = weylb.longest_quotient_element(n, weylb.ParabolicSubset.homogeneous(n, m))
    letters = growth.homogeneous_witnesses(n, m, w)
    kernel = growth.MonomialKernel([op for op, _, _ in letters], Q, r_max)
    assert not kernel.dense
    values = [kernel.start]
    for level in growth._witness_levels(letters, kernel.signature, 2):
        level = level[:len(letters)]
        parents = [values[parent] for _, _, parent, _ in level]
        walked = [(keys[a:b], amps[a:b]) for bounds, keys, amps
                  in kernel.batches(parents, [last for *_, last in level])
                  for a, b in zip(bounds[:-1], bounds[1:])]
        assert [_monomials(kernel, *image) for image in walked] == \
            [qo.monomial_decomposition(letters[last][0], Q,
                                       _monomials(kernel, *parent))
             for (*_, last), parent in zip(level, parents)]
        values = walked


def test_ids_number_codes_as_first_seen():
    """Ids follow first sight, the fresh codes of one call in code order;
    find interns nothing, and interning past _IDS ids is refused."""
    ids = growth._Ids()
    assert ids.find(np.array([3])).tolist() == [-1]
    assert ids(np.array([30, 10, 30, 20])).tolist() == [2, 0, 2, 1]
    assert ids(np.array([5, 20, 40])).tolist() == [3, 1, 4]
    assert ids.find(np.array([40, 7, 10, 99])).tolist() == [4, -1, 0, -1]
    assert ids.codes.tolist() == [10, 20, 30, 5, 40]
    with mock.patch.object(growth, "_IDS", 6):
        assert ids(np.array([1, 40])).tolist() == [5, 4]
        with pytest.raises(ValueError, match="too many"):
            ids(np.array([2, 3]))
    assert ids.codes.tolist() == [10, 20, 30, 5, 40, 1]


@pytest.mark.parametrize("kind", ["module series", "probe series",
                                  "structural series", "walk",
                                  "walk under a zero letter"])
def test_blocks_hold_a_bounded_number_of_candidates(kind):
    """Blocks are cut by their (entry, combination) cells, and a candidate
    costs at least a generator's mean number of summands, so each block
    holds at most max(n_gens, _BLOCK_CELLS // that) candidates, the bound
    the dense keys are sized by.  A letter missing from its table is the
    zero operator, which has no combinations: without the floor its 20,000
    candidates would make one block."""
    w = weylb.longest_quotient_element(2, weylb.ParabolicSubset.homogeneous(2, 2))
    ops = growth.homogeneous_generators(growth.homogeneous_rep(2, 2, w), 2, 2)
    letters = None
    if kind == "module series":
        ops = growth.module_generators(repsoq.rep_table(RepSpec(2, (1, 2, 1, 2))))
        kernel = growth.ModuleKernel(ops, Q, R_MAX)
        frontier = [kernel.encode(qo.vacuum(kernel.signature))] * 3000
    elif kind == "probe series":
        kernel = growth.ModuleKernel(ops, Q, R_MAX, reach=REACH, probes=STACK)
        frontier = [kernel.encode(*[qo.vacuum(kernel.signature)] * STACK)
                    ] * 1000
    elif kind == "structural series":
        kernel = growth.MonomialKernel(ops, Q, 3)
        frontier = [kernel.start] * 1000
    else:
        ops = [op for op, _, _ in growth.homogeneous_witnesses(2, 2, w)]
        if kind == "walk under a zero letter":
            ops.append(qo.zero_operator(ops[0].signature))
        kernel = growth.MonomialKernel(ops, Q, 3)
        frontier = [kernel.start] * 20000
        letters = [i % len(ops) if kind == "walk" else len(ops) - 1
                   for i in range(len(frontier))]
    least = max(1, sum(len(op.summands) for op in ops) // len(ops))
    bound = max(len(ops), growth._BLOCK_CELLS // least)
    assert kernel.dense == (bound * kernel.probes * kernel.size
                            <= growth._DENSE_KEYS)
    candidates = [len(bounds) - 1
                  for bounds, _, _ in kernel.batches(frontier, letters)]
    assert sum(candidates) == len(frontier) * (1 if letters else len(ops))
    assert max(candidates) <= bound


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(0, 12), max_size=30),
       limit=st.integers(0, 30))
def test_groups_cut_maximal_bounded_runs(sizes, limit):
    """_groups cuts kernel blocks, expansion runs, sweeps and subtractions:
    consecutive runs covering every item once, each summing to at most
    limit or holding one item, each ending where the next item would pass
    limit."""
    runs = list(growth._groups(np.array(sizes, dtype=np.int64), limit))
    assert [i for a, b in runs for i in range(a, b)] == list(range(len(sizes)))
    for a, b in runs:
        assert b > a
        assert sum(sizes[a:b]) <= limit or b - a == 1
        if b < len(sizes):
            assert sum(sizes[a:b + 1]) > limit
