"""Hyperoctahedral (type B_n) Weyl group machinery.

Elements are signed permutations of {1, ..., n}.  The generator s_i for
i < n swaps positions i and i+1; s_n flips the sign at position n.  A word
(i_1, ..., i_k) denotes the product s_{i_1} s_{i_2} ... s_{i_k}, composed as
functions applied right to left, so the last letter acts first.

Besides the group arithmetic this module provides the canonical normal form
built from nested strings

    psi(rho, k, 1) = (rho, rho+1, ..., k-1)
    psi(rho, k, 2) = (rho, ..., k-1, k, ..., n, n-1, ..., k)

the induced factorisation of an element into n parts, parabolic
decompositions, longest quotient elements and the classical dimension
counts derived from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

Word = tuple[int, ...]


def _check_rank(n: int) -> None:
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")


@dataclass(frozen=True)
class SignedPermutation:
    """A signed permutation, stored as the tuple of images of 1..n."""

    images: tuple[int, ...]

    def __post_init__(self):
        absimg = sorted(abs(v) for v in self.images)
        if absimg != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a signed permutation: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def act(self, j: int) -> int:
        """Image of the signed index j (j in {-n..-1, 1..n})."""
        if j > 0:
            return self.images[j - 1]
        return -self.images[-j - 1]

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return SignedPermutation(tuple(self.act(other.act(i))
                                       for i in range(1, self.n + 1)))

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, self.n + 1))


def identity(n: int) -> SignedPermutation:
    _check_rank(n)
    return SignedPermutation(tuple(range(1, n + 1)))


def simple_reflection(i: int, n: int) -> SignedPermutation:
    """s_i: adjacent transposition for i < n, sign flip at n for i = n."""
    _check_rank(n)
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range 1..{n}")
    img = list(range(1, n + 1))
    if i < n:
        img[i - 1], img[i] = img[i], img[i - 1]
    else:
        img[n - 1] = -n
    return SignedPermutation(tuple(img))


def from_word(word: Word | list[int], n: int) -> SignedPermutation:
    """Evaluate a word of generator indices (last letter applied first)."""
    w = identity(n)
    for i in word:
        w = w * simple_reflection(i, n)
    return w


def length(w: SignedPermutation) -> int:
    """Coxeter length by the type-B inversion count: one for each i with
    w(i) < 0, and for each pair i < j one more when |w(j)| < |w(i)|, two
    more when |w(i)| < |w(j)| and w(i) < 0."""
    count = sum(1 for a in w.images if a < 0)
    for i, a in enumerate(w.images):
        for b in w.images[i + 1:]:
            if abs(b) < abs(a):
                count += 1
            elif a < 0:
                count += 2
    return count


def longest_element(n: int) -> SignedPermutation:
    _check_rank(n)
    return SignedPermutation(tuple(-i for i in range(1, n + 1)))


@dataclass(frozen=True)
class ParabolicSubset:
    """A set of simple-root indices inside {1, ..., n}."""

    n: int
    indices: frozenset[int]

    def __post_init__(self):
        if not all(1 <= i <= self.n for i in self.indices):
            raise ValueError(f"indices {set(self.indices)} out of range for rank {self.n}")

    @staticmethod
    def chain(n: int, k: int) -> "ParabolicSubset":
        """The subset {n-k+1, ..., n} driving the k-th step of the part chain."""
        if not 0 <= k <= n:
            raise ValueError(f"chain index {k} out of range 0..{n}")
        return ParabolicSubset(n, frozenset(range(n - k + 1, n + 1)))

    @staticmethod
    def homogeneous(n: int, m: int) -> "ParabolicSubset":
        """The subset attached to the m-th homogeneous space: empty for m=1,
        {n-m+2, ..., n} for 2 <= m <= n."""
        if not 1 <= m <= n:
            raise ValueError(f"m={m} out of range 1..{n}")
        return ParabolicSubset(n, frozenset(range(n - m + 2, n + 1)))


def in_quotient(w: SignedPermutation, R: ParabolicSubset) -> bool:
    """Membership in the minimal-coset-representative set W^R: no generator
    of R shortens w when multiplied on the left."""
    lw = length(w)
    for i in R.indices:
        if length(simple_reflection(i, w.n) * w) < lw:
            return False
    return True


def parabolic_decompose(w: SignedPermutation, R: ParabolicSubset
                        ) -> tuple[SignedPermutation, SignedPermutation]:
    """Unique factorisation w = w1 * w2 with w1 in the parabolic subgroup
    generated by R and w2 in W^R; lengths add."""
    if w.n != R.n:
        raise ValueError("rank mismatch")
    w1 = identity(w.n)
    w2 = w
    lw = length(w2)
    changed = True
    while changed:
        changed = False
        for i in sorted(R.indices):
            s = simple_reflection(i, w.n)
            cand = s * w2
            lc = length(cand)
            if lc < lw:
                w2 = cand
                lw = lc
                w1 = w1 * s
                changed = True
                break
    return w1, w2


def longest_parabolic_element(R: ParabolicSubset) -> SignedPermutation:
    """Longest element of the subgroup generated by R."""
    w1, _ = parabolic_decompose(longest_element(R.n), R)
    return w1


def longest_quotient_element(n: int, R: ParabolicSubset) -> SignedPermutation:
    """Longest element of the quotient set W^R."""
    _, w2 = parabolic_decompose(longest_element(n), R)
    return w2


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

def expand_psi(rho: int, k: int, eps: int, n: int) -> Word:
    """Letters of the string psi(rho, k, eps) at rank n."""
    if not rho <= k <= n:
        raise ValueError(f"need {rho} <= k <= {n}, got k={k}")
    if eps == 0:
        return ()
    if eps == 1:
        return tuple(range(rho, k))
    if eps == 2:
        return tuple(range(rho, n + 1)) + tuple(range(n - 1, k - 1, -1))
    raise ValueError(f"eps must be 0, 1 or 2, got {eps}")


def _psi_candidates(rho: int, n: int) -> list[tuple[int, int]]:
    """All (eps, k) with a distinct nonredundant string psi(rho, k, eps)."""
    cands = [(0, rho)]
    cands += [(1, k) for k in range(rho + 1, n + 1)]
    cands += [(2, k) for k in range(rho, n + 1)]
    return cands


@dataclass(frozen=True)
class NormalForm:
    """Canonical factorisation of an element into n parts.

    parts[r-1] = (eps, k) describes the r-th part, the string
    psi(n-r+1, k, eps); the element is the left-to-right product of the
    part words.
    """

    n: int
    parts: tuple[tuple[int, int], ...]

    def part_words(self) -> list[Word]:
        return [expand_psi(self.n - r, k, eps, self.n)
                for r, (eps, k) in enumerate(self.parts)]

    def word(self) -> Word:
        out: tuple[int, ...] = ()
        for pw in self.part_words():
            out += pw
        return out

    def element(self) -> SignedPermutation:
        return from_word(self.word(), self.n)


def normal_form(w: SignedPermutation) -> NormalForm:
    """Extract the normal form by peeling quotient factors off the right."""
    n = w.n
    rev_parts: list[tuple[int, int]] = []
    current = w
    for rho in range(1, n + 1):
        # split off the rightmost factor over the subgroup <s_{rho+1},...,s_n>
        R = ParabolicSubset(n, frozenset(range(rho + 1, n + 1)))
        current, tail = parabolic_decompose(current, R)
        for eps, k in _psi_candidates(rho, n):
            if from_word(expand_psi(rho, k, eps, n), n) == tail:
                rev_parts.append((eps, k))
                break
        else:
            raise AssertionError(f"no psi string matches quotient factor {tail.images}")
    if not current.is_identity():
        raise AssertionError("normal-form peeling left a nontrivial residue")
    return NormalForm(n, tuple(reversed(rev_parts)))


def parts(w: SignedPermutation) -> list[Word]:
    """The n part words w_1, ..., w_n of the normal form."""
    return normal_form(w).part_words()


# ---------------------------------------------------------------------------
# dimension bookkeeping
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _longest_lengths(n: int, m: int) -> tuple[int, int]:
    R = ParabolicSubset.homogeneous(n, m)
    sub = length(longest_parabolic_element(R))
    quot = length(longest_quotient_element(n, R))
    return sub, quot


def classical_dimensions(n: int, m: int) -> dict[str, int]:
    """Manifold dimensions of the group, the m-th subgroup and the quotient.

    group_dim  = 2*length(longest) + n = n(2n+1)
    quotient_dim = 2*length(longest quotient element) + n - m + 1
    """
    _check_rank(n)
    if not 1 <= m <= n:
        raise ValueError(f"m={m} out of range 1..{n}")
    sub_len, quot_len = _longest_lengths(n, m)
    group_dim = 2 * (sub_len + quot_len) + n
    subgroup_dim = 2 * sub_len + m - 1
    quotient_dim = 2 * quot_len + n - m + 1
    assert group_dim == n * (2 * n + 1)
    assert quotient_dim == group_dim - subgroup_dim
    return {"group_dim": group_dim,
            "subgroup_dim": subgroup_dim,
            "quotient_dim": quotient_dim,
            "quotient_longest_length": quot_len}
