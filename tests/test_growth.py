"""Growth engine: span series against dense oracles, estimates, witness
families, lower/upper bounds, and the homogeneous realisation."""

import math

import pytest

from bqdim import growth, qoperators as qo, repsoq, weylb
from bqdim.growth import GrowthSeries
from bqdim.repsoq import RepSpec

from conftest import dense_span_dimension

Q = 0.5


def brute_module_dims(spec, r_max):
    """Independent oracle: apply every generator word, rank via dense SVD."""
    T = repsoq.rep_table(spec)
    gens = [op for _, op in sorted(T.images.items())]
    vecs = [qo.vacuum(T.signature)]
    frontier = list(vecs)
    dims = [1]
    for _ in range(1, r_max + 1):
        new = []
        for v in frontier:
            for g in gens:
                out = qo.apply_operator(g, v, Q)
                if out.entries:
                    new.append(out)
        vecs.extend(new)
        frontier = new
        dims.append(dense_span_dimension([v.entries for v in vecs]))
    return dims


@pytest.mark.parametrize("word,n", [((1,), 2), ((2,), 2), ((1, 2), 2),
                                    ((2, 1, 2), 2), ((1,), 1)])
def test_module_growth_matches_dense_oracle(word, n):
    spec = RepSpec(n, word)
    expected = brute_module_dims(spec, 3)
    series = growth.module_growth(spec, 3, Q)
    assert series.dims() == expected


def test_module_growth_trivial_word():
    series = growth.module_growth(RepSpec(2, ()), 5, Q)
    assert series.dims() == [1] * 6


def test_module_growth_single_low_letter():
    series = growth.module_growth(RepSpec(2, (1,)), 8, Q)
    assert series.dims() == list(range(1, 10))


def test_module_growth_monotone_and_bounded():
    series, cert = growth.module_certificate(RepSpec(2, (1, 2)), 6, Q)
    dims = series.dims()
    assert all(a <= b for a, b in zip(dims, dims[1:]))
    assert all(row["d"] <= row["upper"] for row in cert.rows)


def test_module_growth_budget():
    with pytest.raises(growth.BudgetExceeded):
        growth.module_growth(RepSpec(2, (1, 2)), 6, Q, basis_cap=10)


def test_exponent_estimate_synthetic():
    const = GrowthSeries({}, [(r, 1) for r in range(9)])
    est = growth.exponent_estimate(const)
    assert est["log_ratio"] == 0.0 and est["slope"] == 0.0

    linear = GrowthSeries({}, [(r, r + 1) for r in range(17)])
    est = growth.exponent_estimate(linear)
    assert 0.9 <= est["log_ratio"] <= 1.1
    assert 0.9 <= est["slope"] <= 1.1

    # frozen from direct arithmetic on the synthetic series:
    # log2(153/45) = 1.76553..., least squares over r >= 8 gives 1.76750...
    quad = GrowthSeries({}, [(r, (r + 1) * (r + 2) // 2) for r in range(17)])
    est = growth.exponent_estimate(quad)
    assert est["log_ratio"] == pytest.approx(1.765534, abs=1e-5)
    assert est["slope"] == pytest.approx(1.767504, abs=1e-5)

    with pytest.raises(ValueError):
        growth.exponent_estimate(GrowthSeries({}, [(0, 1), (1, 2)]))


def test_upper_bound_check_rows():
    _, cert = growth.module_certificate(RepSpec(2, (2,)), 4, Q)
    assert [row["upper"] for row in cert.rows] == [2 * r + 1 for r in range(5)]
    assert cert.rows[3]["upper"] == 7
    assert all(row["d"] <= row["upper"] for row in cert.rows)


@pytest.mark.parametrize("word,upper", [
    ((1,), lambda r: r + 1),
    ((1, 2), lambda r: (r + 1) * (2 * r + 1))])
def test_module_upper_reads_shift_bounds_off_table(word, upper):
    # upper = prod_s (D_s r + 1) with D_s the largest shift on slot s:
    # D = 1 on a low-letter slot, 2 on a middle-letter slot
    _, cert = growth.module_certificate(RepSpec(2, word), 5, Q)
    assert [row["upper"] for row in cert.rows] == [upper(r) for r in range(6)]


def _applied(q):
    return lambda op, vec: qo.apply_operator(op, vec, q)


def _landings(letters, budget):
    """The witness images of a module chain, by exponent pattern."""
    sig = ("N",) * len(letters)
    return {exps: vec for exps, _, vec in growth._witness_walk(
        letters, sig, budget, qo.vacuum(sig), _applied(Q))}


def test_witness_last_part_single_letters():
    # depth-two raising letter of the one-letter element
    letters = growth.witness_chain(weylb.from_word((1,), 2), 2)
    assert len(letters) == 1
    op, slot, step = letters[-1]
    assert (slot, step) == (0, 1)
    images = _landings(letters, 3)
    for z in range(1, 4):
        assert set(images[(z,)].entries) == {(z,)}


def test_witness_case_split_with_middle_letter():
    # the one-letter rank-one element needs the single-raising column
    letters = growth.witness_chain(weylb.from_word((1,), 1), 1)
    table = repsoq.rep_table(RepSpec(1, (1,)))
    assert [(op.key(), slot, step) for op, slot, step in letters] == \
        [(table.entry(3, 2).key(), 0, 1)]
    assert set(_landings(letters, 3)[(3,)].entries) == {(3,)}


def test_witness_long_part_permutation():
    # length-3 part at rank 2: reversal permutation on the middle range,
    # letters in descending column order of row 5
    w = weylb.from_word((1, 2, 1), 2)
    letters = growth.witness_chain(w, 2)
    assert [slot for _, slot, _ in letters] == [0, 1, 2]
    table = repsoq.rep_table(RepSpec(2, weylb.normal_form(w).word()))
    assert [op.key() for op, _, _ in letters] == \
        [table.entry(5, l).key() for l in (4, 3, 2)]


def test_verify_witnesses_flags_shifted_slot():
    # negative control: a letter that claims the wrong slot must fail
    letters = growth.witness_chain(weylb.from_word((1, 2), 2), 2)
    assert growth.verify_witnesses(letters, ("N", "N"), Q, budget=2)["ok"]
    (op, slot, step), *rest = letters
    rep = growth.verify_witnesses([(op, (slot + 1) % 2, step)] + rest,
                                  ("N", "N"), Q, budget=2)
    assert not rep["ok"]
    assert rep["failures"]


@pytest.mark.parametrize("word,n", [((1,), 2), ((2,), 2), ((1, 2), 2),
                                    ((2, 1, 2), 2), ((1, 2, 1, 2), 2),
                                    ((1, 2, 3, 2, 1), 3)])
def test_witness_chain_vacuum_patterns(word, n):
    w = weylb.from_word(word, n)
    rep = growth.verify_witness_chain(w, n, Q, budget=4)
    assert rep["ok"], rep["failures"][:3]


def test_witness_chain_every_rank_two_element():
    from conftest import all_elements
    for w in all_elements(2):
        if weylb.length(w) == 0:
            continue
        rep = growth.verify_witness_chain(w, 2, Q, budget=4)
        assert rep["ok"], (w.images, rep["failures"][:2])


def test_witness_chain_rank_three_sweep():
    """Exercises every part-shape combination up to the middle lengths."""
    from conftest import all_elements
    checked = 0
    for w in all_elements(3):
        if not 1 <= weylb.length(w) <= 6:
            continue
        rep = growth.verify_witness_chain(w, 3, Q, budget=3)
        assert rep["ok"], (w.images, rep["failures"][:2])
        checked += 1
    assert checked == 38


def test_embedded_operators_act_on_own_part():
    w = weylb.from_word((2, 1, 2), 2)
    # on vacuum tails the depth-one raising operator acts inside the first
    # part only
    op, slot, _ = growth.witness_chain(w, 2)[0]
    assert slot == 0
    sig = ("N", "N", "N")
    for a in range(3):
        probe = qo.basis_vector(sig, (a, 0, 0))
        out = qo.apply_operator(op, probe, Q)
        for key in out.entries:
            assert key[1:] == (0, 0)


def test_lower_bound_certificate_counts():
    # witnesses of total <= r reach binom(r + l, l) basis vectors with
    # words of length <= r, a bound of the full degree l
    _, cert = growth.module_certificate(RepSpec(2, (1, 2)), 3, Q)
    assert cert.rows[3]["lower"] == math.comb(5, 2) == 10
    assert all(row["ok"] for row in cert.rows)
    _, cert = growth.module_certificate(RepSpec(2, (1, 2, 1, 2)), 2, Q)
    assert cert.rows[2]["lower"] == math.comb(6, 4) == 15
    assert cert.rows[0]["lower"] == 1
    assert all(row["ok"] for row in cert.rows)


@pytest.mark.parametrize("word", [(1,), (2,), (1, 2), (2, 1, 2), (1, 2, 1, 2)])
def test_module_certificate_sandwich(word):
    series, cert = growth.module_certificate(RepSpec(2, word), 6, Q)
    assert cert.target == len(word)
    assert cert.ok
    for row in cert.rows:
        assert row["lower"] <= row["d"] <= row["upper"]


def test_module_certificate_rejects_nonreduced():
    with pytest.raises(ValueError):
        growth.module_certificate(RepSpec(2, (1, 1)), 4, Q)


def test_module_certificate_rank_three_longest_element():
    # w0 of B_3, length 9; the series was computed on the symbolic
    # apply_operator path before the compiled kernel replaced it
    series, cert = growth.module_certificate(
        RepSpec(3, (3, 2, 3, 2, 1, 2, 3, 2, 1)), 4, Q)
    assert cert.target == 9
    assert cert.ok
    assert series.dims() == [1, 19, 173, 1030, 4651]


def test_module_certificate_rank_three_word():
    series, cert = growth.module_certificate(RepSpec(3, (1, 2, 3, 2, 1)), 5, Q)
    assert cert.target == 5
    assert cert.ok
    assert series.dims() == [1, 7, 27, 77, 182, 378]


# ---------------------------------------------------------------------------
# homogeneous side
# ---------------------------------------------------------------------------

def test_zeta_rows():
    assert growth.zeta_rows(1, 1) == [1, 2, 3]
    assert growth.zeta_rows(2, 2) == [1, 4, 5]
    assert growth.zeta_rows(2, 1) == [1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        growth.zeta_rows(2, 3)


def test_homogeneous_rep_structure():
    w = weylb.from_word((1,), 1)
    eta = growth.homogeneous_rep(1, 1, w)
    assert eta.signature == ("Z", "N")
    # the central row has an identity circle factor
    op = eta.entry(2, 2)
    _, factors = op.summands[0]
    assert factors[0].key() == qo.identity_shift("Z").key()
    # the top row shifts the circle slot up, the bottom row down
    top = eta.entry(3, 1)
    assert top.summands[0][1][0].key() == qo.shift_up("Z").key()
    bottom = eta.entry(1, 3)
    assert bottom.summands[0][1][0].key() == qo.shift_down("Z").key()


def test_homogeneous_rep_rejects_non_quotient_element():
    with pytest.raises(ValueError):
        growth.homogeneous_rep(2, 2, weylb.from_word((2,), 2))


def test_homogeneous_rep_restricted_rows():
    w = weylb.longest_quotient_element(2, weylb.ParabolicSubset.homogeneous(2, 2))
    eta = growth.homogeneous_rep(2, 2, w)
    assert {k for k, _ in eta.images} <= {1, 4, 5}


@pytest.mark.parametrize("n,m,word", [(1, 1, (1,)), (2, 2, (1, 2, 1))])
def test_homogeneous_witness_patterns(n, m, word):
    w = weylb.from_word(word, n)
    letters = growth.homogeneous_witnesses(n, m, w)
    sig = growth.homogeneous_rep(n, m, w).signature
    rep = growth.verify_witnesses(letters, sig, Q, budget=4)
    assert rep["ok"], rep["failures"][:3]
    assert rep["patterns"] > 1


def test_homogeneous_witness_independence_fingerprints():
    w = weylb.from_word((1,), 1)
    letters = growth.homogeneous_witnesses(1, 1, w)
    sig = growth.homogeneous_rep(1, 1, w).signature
    ech = growth.Echelon()
    added = n_patterns = 0
    for _, _, op in growth._witness_walk(letters, sig, 3,
                                         qo.identity_operator(sig), qo.compose):
        n_patterns += 1
        fp = qo.monomial_decomposition(op, Q)
        if fp and ech.add(fp) is not None:
            added += 1
    # distinct patterns are linearly independent operator words
    assert added == n_patterns


def _exact(op):
    """Summand scalars by repr and factors by exact key: equal means equal
    bits."""
    return [(repr(s), tuple(f.exact_key for f in fs)) for s, fs in op.summands]


def _walk_letters(case):
    kind, n, arg = case
    if kind == "module":
        return growth.witness_chain(weylb.from_word(arg, n), n)
    w = weylb.longest_quotient_element(
        n, weylb.ParabolicSubset.homogeneous(n, arg))
    return growth.homogeneous_witnesses(n, arg, w)


@pytest.mark.parametrize("case,counts", [
    (("module", 2, (1, 2, 1, 2)), [1, 4, 10, 20]),
    (("module", 3, (1, 2, 3, 2, 1)), [1, 5, 15, 35]),
    (("homogeneous", 2, 1), [1, 6, 25]),
    (("homogeneous", 2, 2), [1, 4, 13, 32])])
def test_witness_walk_equals_words_replayed(case, counts):
    """Each walk value, computed from its parent, equals the pattern's word
    applied letter by letter from scratch: the same apply_operator entries
    bit for bit, and compose products with equal exact keys."""
    letters = _walk_letters(case)
    sig = letters[0][0].signature
    budget = len(counts) - 1
    vacuum, ident = qo.vacuum(sig), qo.identity_operator(sig)
    walked = list(growth._witness_walk(letters, sig, budget, vacuum,
                                       _applied(Q)))
    composed = list(growth._witness_walk(letters, sig, budget, ident,
                                         qo.compose))
    assert [p[:2] for p in walked] == [p[:2] for p in composed]
    assert [sum(sum(p[0]) == t for p in walked) for t in range(budget + 1)] \
        == counts
    for (exps, _, vec), (_, _, op) in zip(walked, composed):
        word = [g for (g, _, _), e in zip(letters, exps) for _ in range(e)]
        replayed, product = vacuum, ident
        for g in word:
            replayed = qo.apply_operator(g, replayed, Q)
            product = qo.compose(g, product)
        assert {k: repr(v) for k, v in vec.entries.items()} == \
            {k: repr(v) for k, v in replayed.entries.items()}, exps
        assert list(vec.entries) == list(replayed.entries), exps
        assert _exact(op) == _exact(product), exps


def test_witness_walk_refuses_a_lowering_letter_first():
    # (1, 1) lands on e_0, but its parent (1, 0) lowers the vacuum
    letters = [(qo.elementary_tensor([qo.shift_down()]), 0, -1),
               (qo.elementary_tensor([qo.shift_up()]), 0, 1)]
    walk = growth._witness_walk(letters, ("N",), 2, qo.vacuum(("N",)),
                                _applied(Q))
    with pytest.raises(ValueError, match=r"\(1, 1\)"):
        list(walk)


def brute_algebra_dims(n, m, w, r_max, trunc=9):
    """Dense oracle: truncate to a finite window, enumerate all words."""
    import numpy as np
    eta = growth.homogeneous_rep(n, m, w)
    gens = []
    for _, op in sorted(eta.images.items()):
        gens.append(op)
        gens.append(qo.adjoint(op))
    sig = eta.signature
    # index grid: circle slots -trunc..trunc, shift slots 0..trunc
    margin = 2 * r_max + 1

    def grid(slot_kind):
        if slot_kind == "Z":
            return range(-trunc, trunc + 1)
        return range(0, trunc + 1)

    import itertools
    inputs = [idx for idx in itertools.product(*(grid(s) for s in sig))
              if all(abs(v) <= trunc - margin for v in idx)]
    mats = []
    from conftest import dense_span_dimension

    def materialise(op):
        cols = {}
        for idx in inputs:
            out = qo.apply_operator(op, qo.basis_vector(sig, idx), Q)
            for key, amp in out.entries.items():
                cols[(idx, key)] = amp
        return cols

    words = [[qo.identity_operator(sig)]]
    dims = []
    all_ops = [qo.identity_operator(sig)]
    for r in range(r_max + 1):
        if r:
            nxt = [qo.compose(g, wop) for wop in words[-1] for g in gens]
            words.append(nxt)
            all_ops.extend(nxt)
        dims.append(dense_span_dimension([materialise(op) for op in all_ops]))
    return dims


def test_algebra_growth_matches_dense_oracle():
    w = weylb.from_word((1,), 1)
    series = growth.algebra_growth(1, 1, w, 2, Q, probe_cutoff=4)
    expected = brute_algebra_dims(1, 1, w, 2)
    assert series.dims() == expected


def test_algebra_growth_small_values():
    w = weylb.from_word((1,), 1)
    series = growth.algebra_growth(1, 1, w, 3, Q, probe_cutoff=4)
    assert series.dims()[0] == 1
    # 18 generators plus the identity span a 10-dimensional degree-1 slice
    assert series.dims()[1] == 10
    assert series.dims() == [1, 10, 35, 84]
    assert not series.flags
    # probe ranks can never exceed the structural ranks
    for (r, d), (rp, dp) in zip(series.values, series.context["probe_values"]):
        assert dp <= d


def test_algebra_growth_cubic_shape():
    # quantum rotation-group case: the series is the degree-3 lattice count
    w = weylb.from_word((1,), 1)
    series = growth.algebra_growth(1, 1, w, 5, Q, probe_cutoff=3)
    assert series.dims() == [(r + 1) * (2 * r + 1) * (2 * r + 3) // 3
                             for r in range(6)]


def test_homogeneous_certificate_targets():
    _, cert = growth.homogeneous_certificate(1, 1, 3, Q, probe_cutoff=3)
    assert cert.target == 3
    assert cert.ok
    assert cert.target == weylb.classical_dimensions(1, 1)["quotient_dim"]


def test_homogeneous_certificate_n2():
    _, cert = growth.homogeneous_certificate(2, 2, 2, Q, probe_cutoff=2)
    assert cert.target == 7
    assert cert.ok
    assert cert.target == weylb.classical_dimensions(2, 2)["quotient_dim"]
    # the r = 2 row ranks at least 14 independent witness words
    assert cert.rows[2]["witness_rank"] >= 14


def test_homogeneous_multi_family_chain():
    """The trivial-stabiliser quotient needs two witness families, the
    lower one acting through the embedded depth-one operators."""
    R = weylb.ParabolicSubset.homogeneous(2, 1)
    w = weylb.longest_quotient_element(2, R)
    letters = growth.homogeneous_witnesses(2, 1, w)
    sig = growth.homogeneous_rep(2, 1, w).signature
    assert sig == ("Z", "Z", "N", "N", "N", "N")
    # the h0 letters come first: depth one drives circle slot 1, depth two 0
    assert [slot for _, slot, _ in letters if sig[slot] == "Z"] == [1, 0]
    # raising letters per part: part 1 owns shift slot 2, part 2 slots 3..5
    raising = [slot for _, slot, step in letters
               if step == 1 and sig[slot] == "N"]
    assert [sum(s < 3 for s in raising), sum(s >= 3 for s in raising)] == \
        [1, 3]
    rep = growth.verify_witnesses(letters, sig, Q, budget=3)
    assert rep["ok"], rep["failures"][:3]


def test_homogeneous_certificate_full_flag():
    _, cert = growth.homogeneous_certificate(2, 1, 2, Q, probe_cutoff=2)
    assert cert.target == 10
    assert cert.target == weylb.classical_dimensions(2, 1)["quotient_dim"]
    assert cert.ok


def test_module_growth_torus_independent():
    """The torus point scales amplitudes by unit phases only, so the
    dimension series does not feel it."""
    plain = growth.module_growth(RepSpec(2, (1, 2)), 5, Q)
    twisted = growth.module_growth(RepSpec(2, (1, 2), t=(1j, -1.0)), 5, Q)
    assert plain.dims() == twisted.dims()


@pytest.mark.parametrize("q", [0.3, 0.7])
def test_growth_series_structural_in_q(q):
    """Dimension series and witness patterns are q-independent facts."""
    s = growth.module_growth(RepSpec(2, (2, 1, 2)), 4, q)
    assert s.dims() == [1, 7, 22, 50, 95]
    rep = growth.verify_witness_chain(weylb.from_word((2, 1, 2), 2), 2, q,
                                      budget=3)
    assert rep["ok"]
    a = growth.algebra_growth(1, 1, weylb.from_word((1,), 1), 2, q,
                              probe_cutoff=3)
    assert a.dims() == [1, 10, 35]


def test_container_bound_degrees():
    w = weylb.from_word((1,), 1)
    assert growth.algebra_container_bound(1, 1, w, 2) == 125  # (2r+1)^3
    w2 = weylb.from_word((1, 2, 1), 2)
    assert growth.algebra_container_bound(2, 2, w2, 1) == 3 * 4 * 9 * 4


def test_generating_sets():
    table = repsoq.rep_table(RepSpec(2, (1,)))
    assert len(growth.module_generators(table)) == len(table.images)

    w = weylb.from_word((1,), 1)
    eta = growth.homogeneous_rep(1, 1, w)
    hgens = growth.homogeneous_generators(eta, 1, 1)
    # one image and one involute per nonzero entry
    assert len(hgens) == 2 * len(eta.images)
    # first-step span bound: d(1) <= |F| + 1, the unit counted apart
    series = growth.algebra_growth(1, 1, w, 1, Q, probe_cutoff=2)
    assert series.dims()[1] <= len(hgens) + 1

    # rows outside the restricted row set are refused
    w21 = weylb.longest_quotient_element(
        2, weylb.ParabolicSubset.homogeneous(2, 1))
    with pytest.raises(ValueError):
        growth.homogeneous_generators(growth.homogeneous_rep(2, 1, w21), 2, 2)


def test_probe_and_witness_rank_series():
    """Probe rank series and witness rank of the quantum rotation-group
    case, pinned at probe cutoff 3."""
    w = weylb.from_word((1,), 1)
    series = growth.algebra_growth(1, 1, w, 3, Q, probe_cutoff=3)
    assert series.context["probe_values"] == [(0, 1), (1, 10), (2, 34),
                                              (3, 74)]
    _, cert = growth.homogeneous_certificate(1, 1, 3, Q, probe_cutoff=3)
    assert [row["witness_rank"] for row in cert.rows] == [1, 3, 7, 13]


@pytest.mark.parametrize("n,m,r_max,cutoff,values", [
    (2, 2, 3, 3, [(0, 1), (1, 21), (2, 209), (3, 1133)]),
    (2, 1, 2, 2, [(0, 1), (1, 26), (2, 311)])])
def test_probe_rank_series_of_rank_two(n, m, r_max, cutoff, values):
    """The probe series of algebra_growth on the rank-two spaces, pinned at
    the ranks that per-probe apply_operator images give."""
    w = weylb.longest_quotient_element(
        n, weylb.ParabolicSubset.homogeneous(n, m))
    gens = growth.homogeneous_generators(growth.homogeneous_rep(n, m, w), n, m)
    assert growth._probe_rank_series(gens, Q, r_max, cutoff, 20000, {}) == \
        values


@pytest.mark.parametrize("n,m,r_max,lower", [(1, 1, 3, [1, 3, 7, 13]),
                                             (2, 2, 3, [1, 5, 18, 50]),
                                             (2, 1, 2, [1, 7, 32])])
def test_homogeneous_lower_counts_witness_patterns(n, m, r_max, lower):
    """The row lower bound is the number of admissible witness patterns of
    total <= r, a count of degree target, and every row ranks them all."""
    _, cert = growth.homogeneous_certificate(n, m, r_max, Q, probe_cutoff=1)
    assert [row["lower"] for row in cert.rows] == lower
    assert [row["witness_rank"] for row in cert.rows] == lower
    assert cert.ok


def test_homogeneous_certificate_reports_witness_failure(
        shifted_homogeneous_witness):
    _, cert = growth.homogeneous_certificate(1, 1, 1, Q, probe_cutoff=1)
    assert cert.witness_ok is False
    assert cert.ok is False
