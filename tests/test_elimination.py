"""The chunked weight-class eliminator against Echelon.add.

elimination.WeightEchelon reduces a kernel's batches of images a chunk at a
time, class by class; Echelon.add, one image at a time over a dict, is the
reference.  Both take one candidate stream, level by level, and must give
the same accepted images, in order, and the same stored rows under ==, a
missing entry counting as 0, whatever the chunk budget: one row per sweep,
a random one, or a whole level.  The streams are module and probe series,
structural series of monomial expansions, and a witness walk, each also
with its blocks cut to at most two candidates.  At small q both sides
still overcount (ROADMAP item 1); they must agree there too.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bqdim import elimination, growth, qoperators as qo, repsoq, weylb
from bqdim.repsoq import RepSpec

from test_acceptance import MODULE_WORDS
from test_kernel import BARE, _cut


class Echelon:
    """Row echelon over sparse vectors keyed by a canonical index order.

    Pivots are maximal keys under tuple comparison; a candidate whose
    residual drops below REL_TOL times its own scale is dependent.
    """

    REL_TOL = elimination.REL_TOL

    def __init__(self):
        self.pivots: dict = {}

    def __len__(self) -> int:
        return len(self.pivots)

    def add(self, vec: dict) -> dict | None:
        """Reduce vec against the pivots; if a residual survives, store it
        normalised to a leading 1 and return it, else return None."""
        vec = dict(vec)
        floor = self.REL_TOL * max((abs(v) for v in vec.values()), default=0.0)
        while vec:
            key = max(vec)
            amp = vec.pop(key)
            if abs(amp) <= floor:
                continue
            pivot = self.pivots.get(key)
            if pivot is None:
                vec[key] = amp
                normal = self.pivots[key] = {k: v / amp for k, v in vec.items()}
                return normal
            for k, v in pivot.items():
                if k == key:
                    continue
                nv = vec.get(k, 0j) - amp * v
                if nv == 0:
                    vec.pop(k, None)
                else:
                    vec[k] = nv
        return None

    def independent(self, batches):
        """Yield, in order, the batches' candidates that join the span."""
        return (vec for batch in batches for vec in batch
                if self.add(vec) is not None)


Q = 0.5
# one row per sweep, and each level in one sweep
ONE_ROW, WHOLE = 1, 1 << 40
BUDGETS = st.just(WHOLE) | st.integers(64, 1 << 16)


def _fingerprint(keys, amps) -> dict:
    return dict(zip(keys.tolist(), amps.tolist()))


def _reference(kernel, start, r_max, walk=None):
    """Echelon.add on the stream of the series from start, or of the walk
    whose next level's batches walk(r, batches) gives: per level, the
    batches and the images it accepts; and its stored rows."""
    ech = Echelon()
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
            batches = list(kernel.batches(accepted) if walk is None
                           else walk(r, batches))
    return levels, ech.pivots


def _rows(elim) -> dict:
    """The stored rows of a WeightEchelon, keyed like Echelon.pivots."""
    rows = {}
    for start, length in zip(elim._row_start[:elim.rank].tolist(),
                             elim._row_len[:elim.rank].tolist()):
        keys = elim._ids.codes[elim._col[start:start + length]].tolist()
        values = elim._val[start:start + length].tolist()
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


def _module(n, word, r_max, q=Q):
    return _from_vacuum(growth.ModuleKernel(growth.module_generators(
        repsoq.rep_table(RepSpec(n, word))), q, r_max))


def _probes(n, m, r_max, cutoff):
    gens = growth.homogeneous_generators(
        growth.homogeneous_rep(n, m, _quotient(n, m)), n, m)
    sig = gens[0].signature
    probes = [qo.basis_vector(sig, p) for p in sorted(
        p for t in range(cutoff + 1)
        for p in growth._compositions(len(sig), t))]
    kernel = growth.ModuleKernel(gens, Q, r_max, reach=cutoff,
                                 probes=len(probes))
    return kernel, kernel.encode(*probes)


def _structural(n, m, r_max, q=Q):
    gens = growth.homogeneous_generators(
        growth.homogeneous_rep(n, m, _quotient(n, m)), n, m)
    kernel = growth.MonomialKernel(gens, q, r_max)
    return kernel, kernel.start


def _cut_blocks(build, *args):
    """build(*args) with its kernel's blocks cut to at most two candidates,
    a series element in pieces of two generators."""
    kernel, *rest = build(*args)
    return (_cut(kernel), *rest)


def _walk(n, m, r_max):
    """The witness walk's stream: level r + 1 expands every pattern of
    level r's images, accepted or not, under one letter each."""
    letters = growth.homogeneous_witnesses(n, m, _quotient(n, m))
    kernel = growth.MonomialKernel([op for op, _, _ in letters], Q, r_max)
    levels = list(growth._witness_levels(letters, kernel.signature, r_max))

    def walk(r, batches):
        values = [(keys[a:b], amps[a:b]) for bounds, keys, amps in batches
                  for a, b in zip(bounds[:-1], bounds[1:])]
        return kernel.batches([values[parent] for _, _, parent, _
                               in levels[r]], [last for *_, last in levels[r]])
    return kernel, kernel.start, walk


def _quotient(n, m):
    return weylb.longest_quotient_element(
        n, weylb.ParabolicSubset.homogeneous(n, m))


W0 = weylb.normal_form(weylb.longest_quotient_element(
    3, weylb.ParabolicSubset(3, frozenset()))).word()
CASES = {
    **{f"module {word}": (lambda word=word: _module(2, word, 5), 5)
       for word in MODULE_WORDS},
    "12321": (lambda: _module(3, (1, 2, 3, 2, 1), 4), 4),
    "w0": (lambda: _module(3, W0, 2), 2),
    "bare shifts": (lambda: _from_vacuum(growth.ModuleKernel(BARE, Q, 5)), 5),
    "empty word": (lambda: _module(2, (), 3), 3),
    "probes (1,1)": (lambda: _probes(1, 1, 3, 3), 3),
    "probes (2,2)": (lambda: _probes(2, 2, 2, 3), 2),
    "module (1, 2, 1, 2) cut blocks": (
        lambda: _cut_blocks(_module, 2, (1, 2, 1, 2), 5), 5),
    "probes (2,2) cut blocks": (
        lambda: _cut_blocks(_probes, 2, 2, 2, 3), 2),
    "1212 q=0.1": (lambda: _module(2, (1, 2, 1, 2), 6, q=0.1), 6),
    "121 q=0.05": (lambda: _module(2, (1, 2, 1), 6, q=0.05), 6),
    "12321 q=0.05": (lambda: _module(3, (1, 2, 3, 2, 1), 4, q=0.05), 4),
    "structural (2,2)": (lambda: _structural(2, 2, 2), 2),
    "structural (2,1) q=0.3": (lambda: _structural(2, 1, 2, q=0.3), 2),
    "walk (2,1)": (lambda: _walk(2, 1, 3), 3),
    "structural (2,1) cut blocks": (
        lambda: _cut_blocks(_structural, 2, 1, 2), 2),
    "walk (2,1) cut blocks": (lambda: _cut_blocks(_walk, 2, 1, 3), 3),
}


@pytest.fixture(scope="module")
def references():
    cache = {}

    def get(case):
        if case not in cache:
            build, r_max = CASES[case]
            kernel, start, *walk = build()
            cache[case] = kernel, start, _reference(kernel, start, r_max,
                                                    *walk)
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
    amp = st.builds(lambda e, x: 10.0 ** -e * x, st.sampled_from([0, 3, 9]),
                    st.floats(0.5, 2.0) | st.floats(-2.0, -0.5))
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
        kernel.signature, {(0, 0, 0, 0): 1.0 + 0j, (1, 0, 0, 0): 0.5}))
    alone = elimination.WeightEchelon(kernel, kernel.encode(
        qo.vacuum(kernel.signature)))._projection
    joined = elimination.WeightEchelon(kernel, start)._projection
    assert (alone @ [1, 0, 0, 0]).any() and not (joined @ [1, 0, 0, 0]).any()
    _assert_law(kernel, start, _reference(kernel, start, 4), WHOLE)


def test_an_entry_at_its_floor_is_dropped():
    """|z| is the floor REL_TOL * 1.0 exactly.  Echelon pops z first and
    drops it, so the start's pivot is its entry 1.0."""
    z = elimination.REL_TOL
    kernel = growth.ModuleKernel(BARE, Q, 2, reach=1)
    start = kernel.encode(qo.SparseVector(
        kernel.signature, {(1, 1): z, (0, 0): 1.0 + 0j}))
    reference = _reference(kernel, start, 2)
    assert next(iter(reference[1])) == start[0][1]
    _assert_law(kernel, start, reference, WHOLE)


def _closed_from(elim) -> list[int]:
    """Per class, the first column from which every column has a pivot,
    walking back from the class's last column."""
    closed = []
    for start, width in zip(elim._class_start.tolist(),
                            elim._class_width.tolist()):
        while width and elim._pivot[elim._id_at[start + width - 1]] >= 0:
            width -= 1
        closed.append(width)
    return closed


def _swept_rows(kernel, start, reference) -> int:
    """The rows the eliminator sweeps on the reference's stream, checking
    after every level its images and its closed-from columns."""
    swept = []
    real = elimination.WeightEchelon._sweep

    def sweep(self, cls, *args):
        swept.append(len(cls))
        return real(self, cls, *args)

    with mock.patch.object(elimination.WeightEchelon, "_sweep", sweep):
        elim = elimination.WeightEchelon(kernel, start)
        for batches, accepted in reference[0]:
            got = list(elim.independent(batches))
            assert [k.tolist() for k, _ in got] \
                == [k.tolist() for k, _ in accepted]
            assert elim._closed.tolist() == _closed_from(elim)
    return sum(swept)


@pytest.mark.parametrize("case", list(CASES))
def test_closed_from_columns_follow_the_pivots(references, case):
    kernel, start, reference = references(case)
    _swept_rows(kernel, start, reference)


def test_closed_images_are_not_swept(references):
    """Most images of a 1212 stream are closed before their sweep starts:
    the echelon has a pivot on every column of their class from their
    first on, so they are dropped unswept."""
    kernel, start, reference = references("module (1, 2, 1, 2)")
    candidates = sum(np.count_nonzero(np.diff(bounds))
                     for batches, _ in reference[0]
                     for bounds, _, _ in batches)
    assert _swept_rows(kernel, start, reference) < candidates
