"""The chunked weight-class eliminator against Echelon.add.

elimination.WeightEchelon reduces a kernel's batches of images a chunk at a
time, class by class; Echelon.add, one image at a time over a dict, is the
reference.  Both take one candidate stream, level by level, and must give
the same accepted images, in order, and the same stored rows under ==, a
missing entry counting as 0, whatever the chunk budget: one row per sweep,
a random one, or a whole level.  At small q both sides still overcount
(ROADMAP item 1); they must agree there too.
"""

import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bqdim import elimination, growth, qoperators as qo, repsoq, weylb
from bqdim.repsoq import RepSpec

from test_acceptance import MODULE_WORDS
from test_kernel import BARE

Q = 0.5
# one row per sweep, and each level in one sweep
ONE_ROW, WHOLE = 1, 1 << 40
BUDGETS = st.just(WHOLE) | st.integers(64, 1 << 16)


def _fingerprint(keys, amps) -> dict:
    return dict(zip(keys.tolist(), amps.tolist()))


def _reference(kernel, start, r_max):
    """Echelon.add on the stream of the series from start: per level, the
    batches and the images it accepts; and its stored rows."""
    ech = growth.Echelon()
    levels = []
    batches = [(np.array([0, len(start[0])]), *start)]
    for r in range(r_max + 1):
        accepted = []
        for bounds, keys, amps in batches:
            for a, b in zip(bounds[:-1], bounds[1:]):
                fp = _fingerprint(keys[a:b], amps[a:b])
                if fp and ech.add(fp) is not None:
                    accepted.append((keys[a:b], amps[a:b]))
        levels.append((batches, accepted))
        if r < r_max:
            batches = list(kernel.batches(accepted))
    return levels, ech.pivots


def _rows(elim) -> dict:
    """The stored rows of a WeightEchelon, keyed like Echelon.pivots."""
    rows = {}
    for start, length in zip(elim._row_start[:elim.rank].tolist(),
                             elim._row_len[:elim.rank].tolist()):
        keys = elim._keys[elim._col[start:start + length]].tolist()
        values = (elim._re[start:start + length]
                  + 1j * elim._im[start:start + length]).tolist()
        rows[keys[0]] = dict(zip(keys, values))
    return rows


def _assert_law(kernel, start, reference, budget):
    levels, pivots = reference
    with mock.patch.object(elimination, "_CHUNK_CELLS", budget):
        elim = elimination.WeightEchelon(kernel, start)
        for batches, accepted in levels:
            got = list(elim.independent(batches))
            assert len(got) == len(accepted)
            for (k1, a1), (k2, a2) in zip(got, accepted):
                assert k1.tolist() == k2.tolist()
                assert a1.tolist() == a2.tolist()
    assert len(elim) == len(pivots)
    rows = _rows(elim)
    assert rows.keys() == pivots.keys()
    for key, row in pivots.items():
        for k in row.keys() | rows[key].keys():
            assert rows[key].get(k, 0) == row.get(k, 0), (key, k)


def _from_vacuum(kernel):
    return kernel, kernel.encode(qo.vacuum(kernel.signature))


def _module(n, word, r_max, q=Q, torus=None):
    return _from_vacuum(growth.ModuleKernel(growth.module_generators(
        repsoq.rep_table(RepSpec(n, word, torus))), q, r_max))


def _probes(n, m, r_max, cutoff):
    w = weylb.longest_quotient_element(
        n, weylb.ParabolicSubset.homogeneous(n, m))
    gens = growth.homogeneous_generators(growth.homogeneous_rep(n, m, w),
                                         n, m)
    sig = gens[0].signature
    probes = [qo.basis_vector(sig, p) for p in sorted(
        p for t in range(cutoff + 1)
        for p in growth._compositions(len(sig), t))]
    kernel = growth.ModuleKernel(gens, Q, r_max, reach=cutoff,
                                 probes=len(probes))
    return kernel, kernel.encode(*probes)


def _torus(n):
    return tuple(cmath.exp(0.7j * (i + 1)) for i in range(n))


W0 = weylb.normal_form(weylb.longest_quotient_element(
    3, weylb.ParabolicSubset(3, frozenset()))).word()
CASES = {
    **{f"module {word} torus": (lambda word=word: _module(
        2, word, 5, torus=_torus(2)), 5) for word in MODULE_WORDS},
    "12321": (lambda: _module(3, (1, 2, 3, 2, 1), 4), 4),
    "w0": (lambda: _module(3, W0, 2), 2),
    "bare shifts": (lambda: _from_vacuum(growth.ModuleKernel(BARE, Q, 5)), 5),
    "empty word": (lambda: _module(2, (), 3), 3),
    "probes (1,1)": (lambda: _probes(1, 1, 3, 3), 3),
    "probes (2,2)": (lambda: _probes(2, 2, 2, 3), 2),
    "1212 q=0.1": (lambda: _module(2, (1, 2, 1, 2), 6, q=0.1), 6),
    "121 q=0.05": (lambda: _module(2, (1, 2, 1), 6, q=0.05), 6),
    "12321 q=0.05": (lambda: _module(3, (1, 2, 3, 2, 1), 4, q=0.05), 4),
}


@pytest.fixture(scope="module")
def references():
    cache = {}

    def get(case):
        if case not in cache:
            build, r_max = CASES[case]
            kernel, start = build()
            cache[case] = kernel, start, _reference(kernel, start, r_max)
        return cache[case]
    return get


@pytest.mark.parametrize("case", list(CASES))
@settings(max_examples=3, deadline=None)
@given(budget=BUDGETS)
def test_eliminator_equals_echelon(references, case, budget):
    kernel, start, reference = references(case)
    _assert_law(kernel, start, reference, budget)


# the longest stream, swept one row at a time, would take seconds
@pytest.mark.parametrize("case", [case for case in CASES
                                  if case != "1212 q=0.1"])
@pytest.mark.parametrize("budget", [ONE_ROW, WHOLE])
def test_eliminator_equals_echelon_at_both_extremes(references, case, budget):
    kernel, start, reference = references(case)
    _assert_law(kernel, start, reference, budget)


REACH = 1


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_eliminator_equals_echelon_from_any_start(data):
    """Starts with several entries, in different classes of the generators'
    lattice alone, and several probes."""
    n, word = data.draw(st.sampled_from([(2, (1, 2, 1, 2)), (2, (2, 1, 2)),
                                         (3, (1, 2, 3, 2, 1))]))
    gens = growth.module_generators(repsoq.rep_table(RepSpec(n, word)))
    probes = data.draw(st.integers(1, 2))
    kernel = growth.ModuleKernel(gens, Q, 2, reach=REACH, probes=probes)
    index = st.tuples(*(st.integers(0, REACH) for _ in kernel.radices))
    amp = st.builds(lambda e, phase: 10.0 ** -e * cmath.exp(1j * phase),
                    st.sampled_from([0, 3, 9]), st.floats(-3.2, 3.2))
    vec = st.dictionaries(index, amp, min_size=1, max_size=3).map(
        lambda entries: qo.SparseVector(kernel.signature, entries))
    start = kernel.encode(*data.draw(st.lists(vec, min_size=probes,
                                              max_size=probes)))
    _assert_law(kernel, start, _reference(kernel, start, 2),
                data.draw(st.just(ONE_ROW) | BUDGETS))


def test_a_start_in_two_classes_joins_them():
    # e_0 + e_(1,0,0,0) of 1212: the generators' lattice alone puts the two
    # entries in different classes, so the start's own support must join them
    kernel = growth.ModuleKernel(growth.module_generators(
        repsoq.rep_table(RepSpec(2, (1, 2, 1, 2)))), Q, 4, reach=1)
    start = kernel.encode(qo.SparseVector(
        kernel.signature, {(0, 0, 0, 0): 1.0 + 0j, (1, 0, 0, 0): 0.5j}))
    alone = elimination.WeightEchelon(kernel, kernel.encode(
        qo.vacuum(kernel.signature)))._projection
    joined = elimination.WeightEchelon(kernel, start)._projection
    assert (alone @ [1, 0, 0, 0]).any() and not (joined @ [1, 0, 0, 0]).any()
    _assert_law(kernel, start, _reference(kernel, start, 4), WHOLE)


def test_an_entry_at_its_floor_is_dropped():
    """|z| is the floor REL_TOL * 1.0 exactly, as Python's abs (hypot)
    measures it; numpy's complex abs can read one bit more, and such a z
    is preferred.  Echelon pops z first and drops it, so the start's pivot
    is its entry 1.0."""
    floor = growth.Echelon.REL_TOL
    at_floor = np.array([z for z in (cmath.rect(floor, 0.01 * i)
                                     for i in range(1000))
                         if math.hypot(z.real, z.imag) == floor])
    z = complex(next(iter(at_floor[np.abs(at_floor) > floor]), at_floor[0]))
    kernel = growth.ModuleKernel(BARE, Q, 2, reach=1)
    start = kernel.encode(qo.SparseVector(
        kernel.signature, {(1, 1): z, (0, 0): 1.0 + 0j}))
    reference = _reference(kernel, start, 2)
    assert next(iter(reference[1])) == start[0][1]
    _assert_law(kernel, start, reference, WHOLE)
