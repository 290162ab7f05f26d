"""Exhaustive checks of the signed-permutation Weyl group at small rank."""

import itertools

import pytest

from bqdim import weylb
from bqdim.weylb import (
    NormalForm,
    ParabolicSubset,
    classical_dimensions,
    expand_psi,
    from_word,
    identity,
    in_quotient,
    length,
    longest_element,
    longest_parabolic_element,
    longest_quotient_element,
    normal_form,
    parabolic_decompose,
    parts,
    simple_reflection,
)

from conftest import all_elements, bfs_lengths, subgroup_elements


def test_simple_reflection_images():
    assert simple_reflection(1, 2).images == (2, 1)
    assert simple_reflection(2, 2).images == (1, -2)
    assert simple_reflection(2, 3).images == (1, 3, 2)


def test_simple_reflection_rejects_bad_index():
    with pytest.raises(ValueError):
        simple_reflection(0, 2)
    with pytest.raises(ValueError):
        simple_reflection(4, 3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_braid_relations(n):
    e = identity(n)
    s = {i: simple_reflection(i, n) for i in range(1, n + 1)}
    for i in range(1, n + 1):
        assert s[i] * s[i] == e
    for i, j in itertools.combinations(range(1, n + 1), 2):
        if j - i >= 2:
            prod = s[i] * s[j]
            assert prod * prod == e
        elif j < n:
            prod = s[i] * s[j]
            assert prod * prod * prod == e
        else:
            prod = s[i] * s[j]
            assert prod * prod * prod * prod == e


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_length_matches_bfs(n):
    dist = bfs_lengths(n)
    assert len(dist) == 2 ** n * _factorial(n)
    for images, d in dist.items():
        assert length(weylb.SignedPermutation(images)) == d


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_length_trivial_cases():
    assert length(identity(3)) == 0
    assert length(longest_element(2)) == 4
    assert length(from_word((1, 2, 3, 2, 1), 3)) == 5


def test_word_evaluation_is_letterwise_composition():
    word = (2, 1, 2, 1)
    w = identity(2)
    for i in word:
        w = w * simple_reflection(i, 2)
    assert from_word(word, 2) == w
    assert from_word(word, 2) == longest_element(2)


@pytest.mark.parametrize("n", [2, 3])
def test_word_length_bound(n):
    """length(element) <= word length, with equality exactly when reduced."""
    import itertools
    for k in range(4):
        for word in itertools.product(range(1, n + 1), repeat=k):
            w = from_word(word, n)
            assert length(w) <= len(word)
            reduced = length(w) == len(word)
            assert reduced == (weylb.normal_form(w).word() == word
                               or length(w) == len(word))
            if any(a == b for a, b in zip(word, word[1:])):
                assert not reduced


@pytest.mark.parametrize("n", [1, 2, 3])
def test_normal_form_enumeration_is_a_bijection(n):
    """Expanding every admissible (eps, k) tuple hits each element once."""
    seen = {}
    all_parts = []
    for rho in range(1, n + 1):
        all_parts.append(weylb._psi_candidates(rho, n))
    # part r uses psi index rho = n - r + 1; product runs over parts 1..n
    for combo in itertools.product(*reversed(all_parts)):
        nf = NormalForm(n, tuple(combo))
        w = nf.element()
        assert w.images not in seen, "duplicate normal form"
        seen[w.images] = nf
        # every expansion must be reduced
        assert length(w) == len(nf.word())
    assert len(seen) == 2 ** n * _factorial(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_normal_form_round_trip(n):
    for w in all_elements(n):
        nf = normal_form(w)
        assert nf.element() == w
        assert len(nf.word()) == length(w)
        for r, (eps, k) in enumerate(nf.parts):
            rho = n - r
            assert rho <= k <= n
            assert eps in (0, 1, 2)
            assert (eps == 0) == (len(expand_psi(rho, k, eps, n)) == 0)


def test_normal_form_examples():
    nf = normal_form(identity(3))
    assert all(eps == 0 for eps, _ in nf.parts)

    nf = normal_form(from_word((1, 2, 3, 2, 1), 3))
    assert nf.parts[0][0] == 0 and nf.parts[1][0] == 0
    assert nf.parts[2] == (2, 1)

    for n in (2, 3):
        nf = normal_form(longest_element(n))
        assert nf.parts == tuple((2, n - r) for r in range(n))
        assert len(nf.word()) == n * n


def test_parts_examples():
    assert parts(identity(3)) == [(), (), ()]
    assert parts(from_word((1, 2, 3, 2, 1), 3)) == [(), (), (1, 2, 3, 2, 1)]
    w0_parts = parts(longest_element(2))
    assert w0_parts == [(2,), (1, 2, 1)]
    assert sum(len(p) for p in w0_parts) == 4


@pytest.mark.parametrize("n", [2, 3])
def test_parts_prefix_membership(n):
    for w in all_elements(n):
        ws = parts(w)
        acc = identity(n)
        elems = []
        for pw in ws:
            acc = acc * from_word(pw, n)
            elems.append(acc)
        assert elems[-1] == w
        for k in range(1, n + 1):
            R = ParabolicSubset.chain(n, k)
            prefix = elems[k - 1]
            assert all(i in R.indices for p in ws[:k] for i in p)
            prefix_inverse = from_word(
                tuple(i for p in ws[:k] for i in p)[::-1], n)
            tail = prefix_inverse * w
            assert in_quotient(tail, R)
            assert length(prefix) + length(tail) == length(w)


@pytest.mark.parametrize("n", [2, 3])
def test_parabolic_decompose_unique_and_additive(n):
    elements = all_elements(n)
    subsets = [ParabolicSubset.chain(n, k) for k in range(0, n + 1)]
    subsets += [ParabolicSubset.homogeneous(n, m) for m in range(1, n + 1)]
    for R in subsets:
        sub = subgroup_elements(R)
        quot = [w for w in elements if in_quotient(w, R)]
        assert len(sub) * len(quot) == len(elements)
        for w in elements:
            w1, w2 = parabolic_decompose(w, R)
            assert w1 * w2 == w
            assert length(w1) + length(w2) == length(w)
            assert w1 in sub
            assert in_quotient(w2, R)
            matches = [(u, v) for u in sub for v in quot if u * v == w]
            assert matches == [(w1, w2)]


def test_parabolic_decompose_examples():
    R = ParabolicSubset(2, frozenset({2}))
    e = identity(2)
    assert parabolic_decompose(e, R) == (e, e)
    w = from_word((2, 1, 2), 2)
    w1, w2 = parabolic_decompose(w, R)
    assert w1 == simple_reflection(2, 2)
    assert w2 == from_word((1, 2), 2)
    s1 = simple_reflection(1, 2)
    assert parabolic_decompose(s1, R) == (e, s1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_longest_quotient_element(n):
    full = ParabolicSubset.chain(n, n)
    assert longest_quotient_element(n, full) == identity(n)
    empty = ParabolicSubset(n, frozenset())
    assert longest_quotient_element(n, empty) == longest_element(n)
    assert length(longest_element(n)) == n * n
    for k in range(0, n + 1):
        R = ParabolicSubset.chain(n, k)
        wq = longest_quotient_element(n, R)
        best = max((w for w in all_elements(n) if in_quotient(w, R)), key=length)
        assert length(wq) == length(best)
        assert length(longest_parabolic_element(R)) + length(wq) == n * n


def test_longest_quotient_chain_example():
    R = ParabolicSubset(2, frozenset({2}))
    assert length(longest_quotient_element(2, R)) == 3


def test_normal_form_higher_ranks():
    import random
    rng = random.Random(42)
    for n in (4, 5):
        for _ in range(60):
            word = tuple(rng.randrange(1, n + 1)
                         for _ in range(rng.randrange(0, 3 * n)))
            w = from_word(word, n)
            nf = normal_form(w)
            assert nf.element() == w
            assert len(nf.word()) == length(w)


def test_classical_dimensions():
    d = classical_dimensions(2, 2)
    assert d["group_dim"] == 10
    assert d["subgroup_dim"] == 3
    assert d["quotient_dim"] == 7
    d = classical_dimensions(1, 1)
    assert d["group_dim"] == 3
    assert d["quotient_dim"] == 3
    d = classical_dimensions(3, 1)
    assert d["group_dim"] == 21
    assert d["quotient_dim"] == 21  # trivial stabiliser for m = 1
    with pytest.raises(ValueError):
        classical_dimensions(2, 3)
