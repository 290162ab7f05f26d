"""Contracts of the weighted-shift calculus: evaluation, composition,
adjoints, tensor products, window comparison and q-arithmetic."""

import math
import random

import pytest

from bqdim import qoperators as qo

Q = 0.5


def test_coefficient_evaluation_examples():
    c = qo.Coefficient(qa=2, qb=2)
    assert c.evaluate(0, Q) == pytest.approx(0.25)
    r = qo.Coefficient(radicals=((4, 4),))
    assert r.evaluate(0, Q) == pytest.approx(math.sqrt(1 - 0.0625))
    assert qo.ONE.evaluate(7, Q) == 1


def test_coefficient_zero_short_circuits_negative_radicand():
    # one factor vanishes exactly where the other would go negative
    c = qo.Coefficient(radicals=((2, -2), (2, 0)))
    assert c.evaluate(0, Q) == 0
    assert c.evaluate(1, Q) == 0  # (2, -2) exponent vanishes at k = 1
    assert c.evaluate(2, Q) != 0


def test_coefficient_negative_radicand_raises():
    c = qo.Coefficient(radicals=((2, -2),))
    with pytest.raises(qo.QDomainError):
        c.evaluate(0, Q)


def test_shift_annihilates_vacuum():
    op = qo.elementary_tensor([qo.product(qo.sqrt_radical(4, 4), qo.shift_down())])
    v = qo.apply_operator(op, qo.vacuum(["N"]), Q)
    assert v.entries == {}


def test_adjoint_shift_on_vacuum():
    op = qo.elementary_tensor([qo.product(qo.shift_up(), qo.sqrt_radical(4, 4))])
    v = qo.apply_operator(op, qo.vacuum(["N"]), Q)
    assert set(v.entries) == {(1,)}
    assert v.entries[(1,)] == pytest.approx(math.sqrt(1 - Q ** 4))


def test_identity_on_vacuum():
    op = qo.identity_operator(["N", "Z"])
    v = qo.apply_operator(op, qo.vacuum(["N", "Z"]), Q)
    assert v.entries == {(0, 0): 1}


def test_compose_matches_sequential_application():
    rng = random.Random(7)
    a = qo.elementary_tensor([qo.product(qo.sqrt_radical(2, 2), qo.shift_down())])
    b = qo.elementary_tensor([qo.product(qo.shift_up(), qo.q_power(1, 0))])
    ab = qo.compose(a, b)
    for _ in range(10):
        k = rng.randrange(0, 6)
        v = qo.basis_vector(["N"], (k,))
        lhs = qo.apply_operator(ab, v, Q)
        rhs = qo.apply_operator(a, qo.apply_operator(b, v, Q), Q)
        assert set(lhs.entries) == set(rhs.entries)
        for key in lhs.entries:
            assert lhs.entries[key] == pytest.approx(rhs.entries[key])


def test_shift_commutation_identity():
    # q^{N+1} S = S q^N as operators; the pair (q^N S, S q^N) differs.
    lhs = qo.elementary_tensor([qo.product(qo.q_power(1, 1), qo.shift_down())])
    rhs = qo.elementary_tensor([qo.product(qo.shift_down(), qo.q_power(1, 0))])
    assert qo.max_window_deviation(lhs, rhs, 5, Q) < 1e-8
    bad = qo.elementary_tensor([qo.product(qo.q_power(1, 0), qo.shift_down())])
    assert qo.max_window_deviation(bad, rhs, 5, Q) > 1e-8


def test_window_deviation_reflexive_and_shift_mismatch():
    s = qo.elementary_tensor([qo.shift_down()])
    sstar = qo.elementary_tensor([qo.shift_up()])
    assert qo.max_window_deviation(s, s, 3, Q) < 1e-8
    assert qo.max_window_deviation(s, sstar, 3, Q) > 1e-8


def test_window_magnitude_raises_outside_the_radical_domain():
    # sqrt(1 - q^(N-2)) has a negative radicand at N = 0, 1
    op = qo.elementary_tensor([qo.product(qo.shift_up(),
                                          qo.sqrt_radical(1, -2))])
    with pytest.raises(qo.QDomainError):
        qo.window_magnitude(op, 4, Q)


def _inner(u, v):
    """Hermitian inner product, conjugate-linear in the first argument."""
    return sum(a.conjugate() * v.entries.get(k, 0j) for k, a in u.entries.items())


def test_adjoint_inner_product_contract():
    rng = random.Random(11)
    ops = [
        qo.elementary_tensor([qo.product(qo.sqrt_radical(4, 4), qo.shift_down()),
                              qo.q_power(2, 0)]),
        qo.add(qo.identity_operator(["N", "N"]),
               qo.elementary_tensor([qo.shift_up(), qo.product(
                   qo.q_power(1, 1), qo.shift_down())], scalar=-0.5)),
    ]
    sig = ("N", "N")
    for op in ops:
        adj = qo.adjoint(op)
        for _ in range(12):
            u = qo.SparseVector(sig, {
                (rng.randrange(5), rng.randrange(5)):
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for _ in range(3)})
            v = qo.SparseVector(sig, {
                (rng.randrange(5), rng.randrange(5)):
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for _ in range(3)})
            lhs = _inner(qo.apply_operator(op, u, Q), v)
            rhs = _inner(u, qo.apply_operator(adj, v, Q))
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_adjoint_is_involutive():
    op = qo.elementary_tensor([qo.product(qo.sqrt_radical(2, 2), qo.shift_down()),
                               qo.shift_up()], scalar=2 - 1j)
    assert qo.adjoint(qo.adjoint(op)).key() == op.canonical().key()


def test_adjoint_of_weighted_shift():
    a_dn = qo.product(qo.sqrt_radical(4, 4), qo.shift_down())
    a_up = qo.product(qo.shift_up(), qo.sqrt_radical(4, 4))
    assert a_dn.adjoint().key() == a_up.key()
    diag = qo.q_power(1, 0)
    assert diag.adjoint().key() == diag.key()


def test_linearity_of_apply():
    rng = random.Random(3)
    op = qo.add(
        qo.elementary_tensor([qo.product(qo.sqrt_radical(2, 2), qo.shift_down())]),
        qo.elementary_tensor([qo.q_power(2, 0)], scalar=0.25),
    )
    for _ in range(8):
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        u = qo.SparseVector(("N",), {(rng.randrange(6),): 1.0})
        v = qo.SparseVector(("N",), {(rng.randrange(6),): 1.0})
        combo = qo.SparseVector(("N",), {})
        for k, val in u.entries.items():
            combo.entries[k] = combo.entries.get(k, 0j) + a * val
        for k, val in v.entries.items():
            combo.entries[k] = combo.entries.get(k, 0j) + b * val
        lhs = qo.apply_operator(op, combo, Q)
        ru = qo.apply_operator(op, u, Q)
        rv = qo.apply_operator(op, v, Q)
        for key in set(lhs.entries) | set(ru.entries) | set(rv.entries):
            assert lhs.entries.get(key, 0j) == pytest.approx(
                a * ru.entries.get(key, 0j) + b * rv.entries.get(key, 0j),
                abs=1e-10)


def test_composition_associativity_on_window():
    t1 = qo.elementary_tensor([qo.product(qo.sqrt_radical(2, 2), qo.shift_down())])
    t2 = qo.elementary_tensor([qo.product(qo.shift_up(), qo.q_power(1, 0))])
    t3 = qo.add(qo.identity_operator(["N"]),
                qo.elementary_tensor([qo.q_power(2, 0)], scalar=-1.25))
    lhs = qo.compose(qo.compose(t1, t2), t3)
    rhs = qo.compose(t1, qo.compose(t2, t3))
    assert qo.max_window_deviation(lhs, rhs, 6, Q) < 1e-8


def test_unilateral_annihilation_of_positive_shift():
    op = qo.elementary_tensor([qo.shift_down(), qo.identity_shift()])
    v = qo.apply_operator(op, qo.vacuum(["N", "N"]), Q)
    assert v.entries == {}


def test_bilateral_shift_is_invertible():
    s = qo.elementary_tensor([qo.shift_down("Z")])
    sstar = qo.elementary_tensor([qo.shift_up("Z")])
    identity = qo.identity_operator(["Z"])
    assert qo.max_window_deviation(qo.compose(s, sstar), identity, 4, Q) < 1e-8
    assert qo.max_window_deviation(qo.compose(sstar, s), identity, 4, Q) < 1e-8


def test_render_is_readable():
    a_dn = qo.product(qo.sqrt_radical(4, 4), qo.shift_down())
    assert a_dn.render() == "sqrt(1-q^{4N+4})*S"
    a_up = qo.product(qo.shift_up(), qo.sqrt_radical(4, 4))
    assert a_up.render() == "S**sqrt(1-q^{4N+4})"
    mid = qo.identity_shift().add(
        qo.product(qo.sqrt_one_plus_q2(2), qo.q_power(2, 0)).scaled(-1))
    assert "1+q^2" in mid.render()
