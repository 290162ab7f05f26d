"""Representation tables: entry values, convolution, orthogonality,
star structure and the reduced-word comparison."""

import cmath
import collections
import math

import pytest

from bqdim import qoperators as qo
from bqdim import repsoq
from bqdim.repsoq import RepSpec, convolve, elementary_table, rep_table, torus_table

Q = 0.5


def _wss(op: qo.TensorOperator) -> qo.WeightedShiftSum:
    assert len(op.summands) == 1
    scalar, factors = op.summands[0]
    assert len(factors) == 1
    return factors[0].scaled(scalar)


def test_elementary_entries_low_block():
    t = elementary_table(1, 2)
    expected = qo.product(qo.sqrt_radical(4, 4), qo.shift_down())
    assert _wss(t.entry(1, 1)) == expected
    # off-pattern entry is zero
    assert t.entry(1, 3).is_zero()
    assert t.entry(3, 1).is_zero()
    # untouched node carries the identity
    assert _wss(t.entry(3, 3)) == qo.identity_shift()
    # raising off-diagonal carries the minus sign
    assert _wss(t.entry(1, 2)) == qo.q_power(2, 2).scaled(-1)
    assert _wss(t.entry(2, 1)) == qo.q_power(2, 0)
    assert _wss(t.entry(4, 5)) == qo.q_power(2, 2)
    assert _wss(t.entry(5, 4)) == qo.q_power(2, 0).scaled(-1)


def test_elementary_entries_middle_block():
    t = elementary_table(2, 2)
    mid = qo.identity_shift().add(
        qo.product(qo.sqrt_one_plus_q2(2), qo.q_power(2, 0)).scaled(-1))
    assert _wss(t.entry(3, 3)) == mid
    two_dn = qo.product(qo.sqrt_radical(2, 2), qo.sqrt_radical(2, 4),
                        qo.shift_down(), qo.shift_down())
    assert _wss(t.entry(2, 2)) == two_dn
    assert _wss(t.entry(2, 4)) == qo.q_power(2, 2)
    assert _wss(t.entry(4, 2)) == qo.q_power(2, 0)
    with pytest.raises(ValueError):
        elementary_table(3, 2)


def test_torus_table():
    n = 2
    t = torus_table((1.0, 1.0), n)
    for k in range(1, 6):
        assert t.entry(k, k).summands[0][0] == 1.0
    t = torus_table((1j, -1.0), n)
    assert t.entry(5, 5).summands[0][0] == 1j       # topmost node carries t_1
    assert t.entry(1, 1).summands[0][0] == -1j      # conjugate at the bottom
    assert t.entry(3, 3).summands[0][0] == 1.0
    with pytest.raises(ValueError):
        torus_table((2.0, 1.0), n)


@pytest.mark.parametrize("z", [complex(math.nan, 0), complex(math.inf, 0),
                               complex(0, math.nan)])
def test_non_finite_torus_entries_are_refused(z):
    # abs(abs(z) - 1) > tol is False for NaN, which the check must not read
    # as unit modulus
    with pytest.raises(ValueError, match="not unit modulus"):
        torus_table((z, 1.0), 2)
    with pytest.raises(ValueError, match="not unit modulus"):
        RepSpec(2, (1,), (1.0, z))


def test_torus_unit_convolution():
    n = 2
    unit = torus_table((1.0, 1.0), n)
    t = elementary_table(1, n)
    conv = convolve(unit, t)
    assert conv.signature == ("N",)
    for k in range(1, 6):
        for l in range(1, 6):
            assert qo.max_window_deviation(conv.entry(k, l), t.entry(k, l),
                                           5, Q) < 1e-12


def test_rep_table_fold_consistency():
    spec = RepSpec(2, (1, 2))
    stepwise = convolve(convolve(torus_table((1, 1), 2), elementary_table(1, 2)),
                        elementary_table(2, 2))
    folded = rep_table(spec)
    ok, dev = repsoq.tables_equal(folded, stepwise, 4, Q)
    assert ok, dev


def test_five_letter_word_diagonal_entry():
    """The middle diagonal image for the five-letter palindromic word."""
    T = rep_table(RepSpec(3, (1, 2, 3, 2, 1)))
    mid = qo.identity_shift().add(
        qo.product(qo.sqrt_one_plus_q2(2), qo.q_power(2, 0)).scaled(-1))
    ident = qo.identity_shift()
    expected = qo.elementary_tensor([ident, ident, mid, ident, ident])
    assert T.entry(4, 4) == expected
    assert qo.max_window_deviation(T.entry(4, 4), expected, 3, Q) < 1e-10


def test_five_letter_word_two_path_entry():
    """The (1,3) image is the two-term sum read off the layered graph."""
    T = rep_table(RepSpec(3, (1, 2, 3, 2, 1)))
    ident = qo.identity_shift()
    q2n2 = qo.q_power(2, 2)
    a_dn = qo.product(qo.sqrt_radical(4, 4), qo.shift_down())
    a_up = qo.product(qo.shift_up(), qo.sqrt_radical(4, 4))
    two_dn = qo.product(qo.sqrt_radical(2, 2), qo.sqrt_radical(2, 4),
                        qo.shift_down(), qo.shift_down())
    term1 = qo.elementary_tensor([q2n2, q2n2, two_dn, a_up, ident])
    term2 = qo.elementary_tensor([q2n2, a_dn, ident, q2n2, ident])
    expected = qo.add(term1, term2)
    assert T.entry(1, 3) == expected
    assert qo.max_window_deviation(T.entry(1, 3), expected, 3, Q) < 1e-10
    # adjoint consistency: the involute image is proportional to the
    # mirrored entry, with ratio q^4
    mirrored = T.entry(7, 5)
    assert qo.max_window_deviation(qo.adjoint(T.entry(1, 3)),
                                   qo.scale(Q ** 4, mirrored), 3, Q) < 1e-10


@pytest.mark.parametrize("n,i", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_orthogonality_elementary(n, i):
    rep = repsoq.verify_orthogonality(elementary_table(i, n), 6, Q)
    assert rep.max_deviation < 1e-8, rep.worst


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
def test_orthogonality_any_deformation_parameter(q):
    for i in (1, 2):
        rep = repsoq.verify_orthogonality(elementary_table(i, 2), 5, q)
        assert rep.max_deviation < 1e-8
    table = rep_table(RepSpec(2, (1, 2, 1)))
    rep = repsoq.verify_orthogonality(table, 4, q)
    assert rep.max_deviation < 1e-8


def test_orthogonality_torus_exact():
    rep = repsoq.verify_orthogonality(torus_table((1j, -1.0), 2), 4, Q)
    assert rep.max_deviation == 0.0


def test_orthogonality_catches_corrupted_table():
    # negative control: flipping one off-diagonal sign must break the
    # relations loudly, so a passing report carries real information
    t = elementary_table(2, 2)
    t.set(2, 3, qo.scale(-1.0, t.entry(2, 3)))
    rep = repsoq.verify_orthogonality(t, 4, Q)
    assert rep.max_deviation > 1e-3
    t2 = elementary_table(1, 2)
    t2.set(1, 2, qo.scale(-1.0, t2.entry(1, 2)))
    rep = repsoq.verify_orthogonality(t2, 4, Q)
    assert rep.max_deviation > 1e-3
    # a relation whose partner image is absent is measured all the same
    t3 = elementary_table(1, 2)
    del t3.images[(1, 2)]
    rep = repsoq.verify_orthogonality(t3, 4, Q)
    assert rep.max_deviation > 1e-3


def test_r_matrix_entries():
    for n in (1, 2):
        size = 2 * n + 1
        R = repsoq.r_matrix_entries(n, Q)
        assert len(R) == size ** 2 + size * (size - 1)
        assert list(R) == sorted(R)
        # diagonal block q^{delta_ij - delta_{i+j,N+1}}
        assert R[(1, 1, 1, 1)] == pytest.approx(Q)
        assert R[(1, size, 1, size)] == pytest.approx(1 / Q)
        assert R[(n + 1, n + 1, n + 1, n + 1)] == pytest.approx(1.0)
        assert R[(1, 2, 1, 2)] == pytest.approx(1.0)
        # below the diagonal: q - 1/q, and -(q - 1/q) q^{-rho_i - rho_m}
        assert R[(2, 1, 1, 2)] == pytest.approx(Q - 1 / Q)
        assert R[(size, size, 1, 1)] == pytest.approx(1 / Q - Q)
        assert (1, 2, 2, 1) not in R and (1, 1, 2, 2) not in R
    # rho = (1/2, 0, -1/2) at n = 1 and (3/2, 1/2, 0, -1/2, -3/2) at n = 2
    assert repsoq.r_matrix_entries(1, Q)[(2, 2, 1, 1)] == \
        pytest.approx(1.5 * 2 ** 0.5)
    assert repsoq.r_matrix_entries(2, Q)[(2, 2, 1, 1)] == pytest.approx(6.0)


def test_orthogonality_convolved_word():
    spec = RepSpec(2, (2, 1, 2), t=(1j, 1.0))
    rep = repsoq.verify_orthogonality(rep_table(spec), 4, Q)
    assert rep.max_deviation < 1e-8


def test_star_image():
    t = elementary_table(1, 2)
    adj = qo.adjoint(t.entry(1, 1))
    expected = qo.elementary_tensor(
        [qo.product(qo.shift_up(), qo.sqrt_radical(4, 4))])
    assert qo.max_window_deviation(adj, expected, 5, Q) < 1e-12
    # involution
    again = qo.adjoint(adj)
    assert qo.max_window_deviation(again, t.entry(1, 1), 5, Q) < 1e-12


def test_star_of_convolution_is_convolution_of_stars():
    a = elementary_table(1, 2)
    b = elementary_table(2, 2)
    conv = convolve(a, b)
    for k in range(1, 6):
        for l in range(1, 6):
            terms = []
            for j in range(1, 6):
                x, y = a.entry(k, j), b.entry(j, l)
                if x.is_zero() or y.is_zero():
                    continue
                terms.append(qo.tensor(qo.adjoint(x), qo.adjoint(y)))
            direct = qo.add(*terms) if terms else qo.zero_operator(("N", "N"))
            assert qo.max_window_deviation(qo.adjoint(conv.entry(k, l)),
                                           direct, 4, Q) < 1e-10


def test_vacuum_vanishing_matches_sparsity():
    T = rep_table(RepSpec(2, (1, 2)))
    vac = qo.vacuum(T.signature)
    for k in range(1, 6):
        for l in range(1, 6):
            img = qo.apply_operator(T.entry(k, l), vac, Q)
            if (k, l) not in T.images:
                assert img.entries == {}


def test_braid_comparison_reports_inequality():
    """Tables of distinct reduced words of one element are equivalent but
    not equal; the checker must report the honest numerical difference."""
    ok, dev = repsoq.verify_braid_independence(
        RepSpec(3, (1, 2, 1)), RepSpec(3, (2, 1, 2)), 6, Q)
    assert not ok
    assert dev > 0.1
    ok, dev = repsoq.verify_braid_independence(
        RepSpec(2, (1, 2, 1, 2)), RepSpec(2, (2, 1, 2, 1)), 6, Q)
    assert not ok
    assert dev > 0.1
    ok, dev = repsoq.verify_braid_independence(
        RepSpec(2, (1,)), RepSpec(2, (1,)), 6, Q)
    assert ok and dev < 1e-12


def test_braid_comparison_rejects_distinct_elements():
    with pytest.raises(ValueError):
        repsoq.verify_braid_independence(RepSpec(2, (1,)), RepSpec(2, (2,)),
                                         4, Q)


def test_frt_diagnostic_reports():
    rep = repsoq.verify_frt(elementary_table(1, 2), 4, Q)
    assert rep.max_deviation >= 0.0
    assert rep.worst is not None
    # the torus-only table satisfies the exchange relations exactly
    rep = repsoq.verify_frt(torus_table((1.0,), 1), 4, Q)
    assert rep.max_deviation < 1e-12


@pytest.mark.parametrize("check", [repsoq.verify_frt,
                                   repsoq.verify_orthogonality],
                         ids=lambda check: check.__name__)
def test_relation_checks_compose_each_pair_of_images_once(monkeypatch, check):
    """Orthogonality's family 1 at i = j and family 2 at i + j = N + 1 pair
    the same images, and the exchange relations reuse their pairs."""
    table = rep_table(RepSpec(2, (1, 2)))
    composed = collections.Counter()
    compose = qo.compose

    def counting(a, b):
        composed[id(a), id(b)] += 1
        return compose(a, b)

    monkeypatch.setattr(qo, "compose", counting)
    check(table, 4, Q)
    assert composed and max(composed.values()) == 1


@pytest.mark.parametrize("n,word", [(1, (1,)), (2, (1, 2)), (2, (2, 1, 2)),
                                    (3, (1, 2, 3, 2, 1))])
def test_torus_rescales_generator_rows(n, word):
    """The table at a torus point t is the table at t = 1 with row k
    multiplied by the unit scalar torus_scalars(t)[k]: the premise on
    which growth builds every module series at t = 1."""
    t = tuple(cmath.exp(0.7j * (i + 1)) for i in range(n))
    plain = rep_table(RepSpec(n, word))
    scalars = repsoq.torus_scalars(t, n)
    scaled = repsoq.GeneratorImageTable(n, plain.signature, {
        (k, l): qo.scale(scalars[k - 1], op)
        for (k, l), op in plain.images.items()})
    ok, dev = repsoq.tables_equal(rep_table(RepSpec(n, word, t)), scaled,
                                  3, Q)
    assert ok, dev


def test_convolution_associativity():
    a = elementary_table(1, 2)
    b = elementary_table(2, 2)
    c = elementary_table(1, 2)
    left = convolve(convolve(a, b), c)
    right = convolve(a, convolve(b, c))
    ok, dev = repsoq.tables_equal(left, right, 3, Q)
    assert ok, dev
