"""Weighted-shift operator calculus on sequence spaces.

Operators act on finitely supported sequences indexed by N ("N" slots) or
Z ("Z" slots).  A single term maps e_k to c(k) * e_{k-d}, where d is the
shift degree (so the plain left shift S has degree +1 and its adjoint
degree -1) and c is a symbolic coefficient

    c = const * (1+q^2)^(h/2) * q^(a*N+b) * prod_i sqrt(1 - q^(a_i*N+b_i)).

Coefficients stay symbolic under composition (the number operator is
shifted by the accumulated degree), so products of table operators remain
exactly representable.  On an N slot a term vanishes on e_k whenever
k - d < 0; a radical whose exponent vanishes makes the whole coefficient
zero before any negativity check, which is what keeps compositions of the
boundary-vanishing shifts exact.

apply_operator applies an operator symbolically, term by term, and lists
every nonzero entry of the image in index order: only exact zeros go, so
an amplitude many decades below the image's largest stays (float noise is
judged once, by elimination.REL_TOL).  Every evaluation at fixed q goes
through compile_table instead: it expands operators into term
combinations and evaluates each distinct coefficient once over an index
range.  The module growth kernel and the window evaluation behind the
relation checks (window_profiles) both run on it.

The per-slot symbolic calculus is cached for the life of the process,
because relation checks take the same few slot factors into tens of
thousands of tensor products.  Every coefficient constant and every
canonical summand scalar is stored as a complex without a signed zero
(z + 0j turns -0.0 into 0.0), so constants that == calls equal are the
same bits: no -0.0 against 0.0, no int against complex.
Coefficient and WeightedShiftSum compare, hash and sort by one exact_key,
the integers and the constant's repr: equal values mean bit-identical
arithmetic, so typed functools caches keyed on them return what
recomputing would: slot compose, the per-monomial factor expansions
(slot_monomials) of monomial_decomposition and of growth's monomial
kernel, the slot window maxima of window_deviation_bound, the factor
normalisation of TensorOperator.canonical and compile_table's row of each
coefficient over (q, index range).  q lies in (0, 1), where float ==
means equal bits.  Cached values are tuples, floats and frozen objects.
Canonical factors are interned: WeightedShiftSum.canonical and the
normalised factors of TensorOperator.canonical return one process-wide
object per exact_key, which hashes once, so cache lookups and summand
keys match on identity; a copy that was never interned still compares
by exact_key.  Both canonical forms merge exactly and drop only exact
zeros: the symbolic calculus has no tolerance.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

UNILATERAL = "N"
BILATERAL = "Z"


class QDomainError(ValueError):
    """A radical 1 - q^(a k + b) was evaluated where it is negative."""


@dataclass(frozen=True, eq=False)
class Coefficient:
    """Symbolic product coefficient; see the module docstring."""

    const: complex = 1.0 + 0j
    qa: int = 0
    qb: int = 0
    h: int = 0
    radicals: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "const", complex(self.const) + 0j)

    def shifted(self, s: int) -> "Coefficient":
        """Substitute N -> N + s."""
        if s == 0:
            return self
        return Coefficient(self.const, self.qa, self.qb + self.qa * s, self.h,
                           tuple(sorted((a, b + a * s) for a, b in self.radicals)))

    def conjugate(self) -> "Coefficient":
        return Coefficient(self.const.conjugate(), self.qa, self.qb, self.h,
                           self.radicals)

    def times(self, other: "Coefficient") -> "Coefficient":
        return Coefficient(self.const * other.const,
                           self.qa + other.qa, self.qb + other.qb,
                           self.h + other.h,
                           tuple(sorted(self.radicals + other.radicals)))

    def scaled(self, z: complex) -> "Coefficient":
        return Coefficient(self.const * z, self.qa, self.qb, self.h, self.radicals)

    def evaluate(self, k: int, q: float) -> complex:
        # exact integer test first: a vanishing radicand short-circuits to 0
        # before any negative radicand can raise
        exps = [a * k + b for a, b in self.radicals]
        if any(m == 0 for m in exps):
            return 0j
        if any(m < 0 for m in exps):
            raise QDomainError(
                f"negative radicand exponent at index {k}: {self.radicals}")
        value = self.const * q ** (self.qa * k + self.qb)
        if self.h:
            value *= (1.0 + q * q) ** (self.h / 2.0)
        for m in exps:
            value *= math.sqrt(1.0 - q ** m)
        return value

    def structure_key(self):
        return (self.qa, self.qb, self.h, self.radicals)

    @functools.cached_property
    def exact_key(self) -> tuple:
        """The fields, the constant as its repr: equal keys, equal arithmetic."""
        return self.structure_key() + (repr(self.const),)

    def __eq__(self, other):
        return (isinstance(other, Coefficient)
                and self.exact_key == other.exact_key)

    def __hash__(self):
        return hash(self.exact_key)

    def monomials(self, q: float) -> tuple[tuple[tuple, complex], ...]:
        """Expansion into structurally independent monomials at fixed q.

        Repeated radical atoms are expanded via r^2 = 1 - q^(aN+b), so each
        returned structure key (qa, odd-multiplicity radical tuple) carries
        squarefree radical content only; such monomials are linearly
        independent functions of the index.  Constant factors (q^qb and the
        sqrt(1+q^2) power) are folded into the value.
        """
        base = self.const * (1.0 + q * q) ** (self.h / 2.0) * q ** self.qb
        counts: dict[tuple[int, int], int] = {}
        for atom in self.radicals:
            counts[atom] = counts.get(atom, 0) + 1
        expanded: list[tuple[int, list, complex]] = [(self.qa, [], base)]
        for (a, b), mult in sorted(counts.items()):
            pairs, odd = divmod(mult, 2)
            if odd:
                expanded = [(qa, rads + [(a, b)], val)
                            for qa, rads, val in expanded]
            for _ in range(pairs):
                nxt = []
                for qa, rads, val in expanded:
                    nxt.append((qa, rads, val))
                    nxt.append((qa + a, rads, -val * q ** b))
                expanded = nxt
        out: dict[tuple, complex] = {}
        for qa, rads, val in expanded:
            key = (qa, tuple(sorted(rads)))
            out[key] = out.get(key, 0j) + val
        return tuple((k, v) for k, v in sorted(out.items(), key=lambda kv: kv[0])
                     if v != 0)

    def render(self) -> str:
        bits = []
        c = self.const
        if c != 1:
            bits.append(_fmt_complex(c))
        if self.h:
            bits.append(f"(1+q^2)^{{{self.h}/2}}" if self.h != 2 else "(1+q^2)")
        if self.qa or self.qb:
            bits.append(f"q^{{{_fmt_linear(self.qa, self.qb)}}}")
        for a, b in self.radicals:
            bits.append(f"sqrt(1-q^{{{_fmt_linear(a, b)}}})")
        return "*".join(bits) if bits else "1"


def _fmt_linear(a: int, b: int) -> str:
    if a == 0:
        return str(b)
    head = "N" if a == 1 else f"{a}N"
    if b == 0:
        return head
    return f"{head}{b:+d}"


def _fmt_complex(z: complex) -> str:
    if z.imag == 0:
        v = z.real
        if v == int(v):
            return str(int(v))
        return repr(v)
    return repr(z)


ONE = Coefficient()


@dataclass(frozen=True, eq=False)
class WeightedShiftSum:
    """A finite sum of shift terms on one sequence-space slot."""

    space: str
    terms: tuple[tuple[int, Coefficient], ...] = ()

    def __post_init__(self):
        if self.space not in (UNILATERAL, BILATERAL):
            raise ValueError(f"unknown space kind {self.space!r}")

    def canonical(self) -> "WeightedShiftSum":
        merged: dict[tuple, tuple[int, Coefficient]] = {}
        for d, c in self.terms:
            key = (d, c.structure_key())
            if key in merged:
                prev = merged[key][1]
                merged[key] = (d, Coefficient(prev.const + c.const, c.qa, c.qb,
                                              c.h, c.radicals))
            else:
                merged[key] = (d, c)
        kept = [(d, c) for _, (d, c) in sorted(merged.items()) if c.const != 0]
        return WeightedShiftSum(self.space, tuple(kept))._interned()

    def _interned(self) -> "WeightedShiftSum":
        """The process-wide object of this value."""
        return _INTERNED.setdefault(self.exact_key, self)

    def is_zero(self) -> bool:
        return not self.terms

    @functools.cached_property
    def exact_key(self) -> tuple:
        return (self.space,) + tuple((d, c.exact_key) for d, c in self.terms)

    @functools.cached_property
    def _hash(self) -> int:
        return hash(self.exact_key)

    def __eq__(self, other):
        return self is other or (isinstance(other, WeightedShiftSum)
                                 and self.exact_key == other.exact_key)

    def __hash__(self):
        return self._hash

    @functools.lru_cache(maxsize=None, typed=True)
    def compose(self, other: "WeightedShiftSum") -> "WeightedShiftSum":
        """Operator product self o other (other applied first)."""
        if self.space != other.space:
            raise ValueError("space mismatch")
        terms = []
        for d2, c2 in other.terms:
            for d1, c1 in self.terms:
                terms.append((d1 + d2, c2.times(c1.shifted(-d2))))
        return WeightedShiftSum(self.space, tuple(terms)).canonical()

    def add(self, other: "WeightedShiftSum") -> "WeightedShiftSum":
        if self.space != other.space:
            raise ValueError("space mismatch")
        return WeightedShiftSum(self.space, self.terms + other.terms).canonical()

    def adjoint(self) -> "WeightedShiftSum":
        terms = tuple((-d, c.conjugate().shifted(d)) for d, c in self.terms)
        return WeightedShiftSum(self.space, terms).canonical()

    def scaled(self, z: complex) -> "WeightedShiftSum":
        return WeightedShiftSum(self.space,
                                tuple((d, c.scaled(z)) for d, c in self.terms)
                                ).canonical()

    def apply_index(self, k: int, q: float) -> list[tuple[int, complex]]:
        """Images of e_k: list of (target index, amplitude)."""
        out = []
        for d, c in self.terms:
            tgt = k - d
            if self.space == UNILATERAL and tgt < 0:
                continue
            amp = c.evaluate(k, q)
            if amp != 0:
                out.append((tgt, amp))
        return out

    def render(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for d, c in self.terms:
            if d > 0:
                head = c.shifted(d).render()
                shift = "S" if d == 1 else f"S^{d}"
                bits.append(f"{head}*{shift}" if head != "1" else shift)
            elif d < 0:
                shift = "S*" if d == -1 else f"S*^{-d}"
                tail = c.render()
                bits.append(f"{shift}*{tail}" if tail != "1" else shift)
            else:
                bits.append(c.render() if c.render() != "1" else "I")
        return " + ".join(bits)


_INTERNED: dict[tuple, WeightedShiftSum] = {}


def identity_shift(space: str = UNILATERAL) -> WeightedShiftSum:
    return WeightedShiftSum(space, ((0, ONE),))


def shift_down(space: str = UNILATERAL) -> WeightedShiftSum:
    """The left shift S: e_k -> e_{k-1}."""
    return WeightedShiftSum(space, ((1, ONE),))


def shift_up(space: str = UNILATERAL) -> WeightedShiftSum:
    """The adjoint shift: e_k -> e_{k+1}."""
    return WeightedShiftSum(space, ((-1, ONE),))


def q_power(a: int, b: int, space: str = UNILATERAL) -> WeightedShiftSum:
    """Diagonal operator q^(aN+b)."""
    return WeightedShiftSum(space, ((0, Coefficient(qa=a, qb=b)),))


def sqrt_radical(a: int, b: int, space: str = UNILATERAL) -> WeightedShiftSum:
    """Diagonal operator sqrt(1 - q^(aN+b))."""
    return WeightedShiftSum(space, ((0, Coefficient(radicals=((a, b),))),))


def sqrt_one_plus_q2(power: int = 1, space: str = UNILATERAL) -> WeightedShiftSum:
    """Diagonal scalar (1+q^2)^(power/2)."""
    return WeightedShiftSum(space, ((0, Coefficient(h=power)),))


def constant(z: complex, space: str = UNILATERAL) -> WeightedShiftSum:
    return WeightedShiftSum(space, ((0, Coefficient(const=z)),))


def product(*factors: WeightedShiftSum) -> WeightedShiftSum:
    """Operator product in written order (rightmost factor applied first)."""
    out = factors[0]
    for f in factors[1:]:
        out = out.compose(f)
    return out


# ---------------------------------------------------------------------------
# tensor operators and sparse vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TensorOperator:
    """Finite sum of scaled elementary tensors of weighted-shift sums."""

    signature: tuple[str, ...]
    summands: tuple[tuple[complex, tuple[WeightedShiftSum, ...]], ...] = ()

    def canonical(self) -> "TensorOperator":
        """Merge equal summands exactly; the factors must already be canonical,
        as every WeightedShiftSum method and elementary_tensor returns them."""
        collected: dict[tuple, tuple[complex, tuple[WeightedShiftSum, ...]]] = {}
        for scalar, factors in self.summands:
            if len(factors) != len(self.signature):
                raise ValueError("factor count does not match signature")
            if any(f.is_zero() for f in factors):
                continue
            norm_factors = []
            for f in factors:
                const, f = _normalised(f)
                scalar *= const
                norm_factors.append(f)
            key = tuple(norm_factors)
            if key in collected:
                scalar += collected[key]
            collected[key] = scalar
        kept = sorted(((s + 0j, fs) for fs, s in collected.items() if s != 0),
                      key=lambda sf: tuple(f.exact_key for f in sf[1]))
        return TensorOperator(self.signature, tuple(kept))

    def is_zero(self) -> bool:
        return not self.summands

    def render(self) -> str:
        if not self.summands:
            return "0"
        bits = []
        for scalar, factors in self.summands:
            leg = " (x) ".join(_bracket(f.render()) for f in factors) or "1"
            if scalar == 1:
                bits.append(leg)
            elif scalar == -1:
                bits.append(f"-{leg}")
            else:
                bits.append(f"{_fmt_complex(scalar)}*{leg}")
        return " + ".join(bits)


@functools.lru_cache(maxsize=None, typed=True)
def _normalised(f: WeightedShiftSum) -> tuple:
    """(constant, factor) of a nonzero factor in canonical summands: a single
    term gives up its constant, a longer factor stays as it is and gives 1
    (a product with 1 can only change the sign of a zero part)."""
    if len(f.terms) != 1:
        return 1, f._interned()
    d, c = f.terms[0]
    return c.const, WeightedShiftSum(
        f.space, ((d, c.scaled(1.0 / c.const)),))._interned()


def _bracket(s: str) -> str:
    return f"({s})" if " + " in s else s


def zero_operator(signature: Iterable[str]) -> TensorOperator:
    return TensorOperator(tuple(signature), ())


def identity_operator(signature: Iterable[str]) -> TensorOperator:
    sig = tuple(signature)
    return TensorOperator(sig, ((1.0 + 0j, tuple(identity_shift(s) for s in sig)),))


def elementary_tensor(factors: Iterable[WeightedShiftSum],
                      scalar: complex = 1.0) -> TensorOperator:
    """Canonical scalar * (f_1 (x) ... (x) f_m) of arbitrary factors."""
    fs = tuple(f.canonical() for f in factors)
    return TensorOperator(tuple(f.space for f in fs),
                          ((complex(scalar), fs),)).canonical()


def add(*ops: TensorOperator) -> TensorOperator:
    sig = ops[0].signature
    summands = []
    for op in ops:
        if op.signature != sig:
            raise ValueError("signature mismatch")
        summands.extend(op.summands)
    return TensorOperator(sig, tuple(summands)).canonical()


def scale(z: complex, op: TensorOperator) -> TensorOperator:
    """z * op; a nonzero multiple of a canonical operator is canonical."""
    if z == 0:
        return zero_operator(op.signature)
    return TensorOperator(op.signature,
                          tuple((s * z + 0j, fs) for s, fs in op.summands))


def tensor(a: TensorOperator, b: TensorOperator) -> TensorOperator:
    summands = []
    for s1, f1 in a.summands:
        for s2, f2 in b.summands:
            summands.append((s1 * s2, f1 + f2))
    return TensorOperator(a.signature + b.signature, tuple(summands)).canonical()


def compose(a: TensorOperator, b: TensorOperator) -> TensorOperator:
    """Operator product a o b (b applied first)."""
    if a.signature != b.signature:
        raise ValueError("signature mismatch")
    summands = []
    for s1, f1 in a.summands:
        for s2, f2 in b.summands:
            summands.append((s1 * s2, tuple(x.compose(y)
                                            for x, y in zip(f1, f2))))
    return TensorOperator(a.signature, tuple(summands)).canonical()


def adjoint(op: TensorOperator) -> TensorOperator:
    summands = tuple((s.conjugate(), tuple(f.adjoint() for f in fs))
                     for s, fs in op.summands)
    return TensorOperator(op.signature, summands).canonical()


@dataclass
class SparseVector:
    """Finitely supported vector on a tensor product of sequence spaces."""

    signature: tuple[str, ...]
    entries: dict[tuple[int, ...], complex] = field(default_factory=dict)


def vacuum(signature: Iterable[str]) -> SparseVector:
    sig = tuple(signature)
    return SparseVector(sig, {tuple(0 for _ in sig): 1.0 + 0j})


def basis_vector(signature: Iterable[str], index: Iterable[int]) -> SparseVector:
    sig = tuple(signature)
    idx = tuple(index)
    for s, i in zip(sig, idx):
        if s == UNILATERAL and i < 0:
            raise ValueError(f"negative index {i} on a unilateral slot")
    return SparseVector(sig, {idx: 1.0 + 0j})


def apply_operator(op: TensorOperator, vec: SparseVector, q: float) -> SparseVector:
    if op.signature != vec.signature:
        raise ValueError("signature mismatch")
    out: dict[tuple[int, ...], complex] = {}
    for idx, amp in vec.entries.items():
        for scalar, factors in op.summands:
            # per-slot images, then the cartesian product across slots
            slot_images = []
            dead = False
            for slot, f in enumerate(factors):
                imgs = f.apply_index(idx[slot], q)
                if not imgs:
                    dead = True
                    break
                slot_images.append(imgs)
            if dead:
                continue
            partial = [((), amp * scalar)]
            for imgs in slot_images:
                partial = [(t + (j,), a * c) for t, a in partial for j, c in imgs]
            for t, a in partial:
                out[t] = out.get(t, 0j) + a
    return SparseVector(vec.signature,
                        {k: v for k, v in sorted(out.items()) if v != 0})


# ---------------------------------------------------------------------------
# compiled operator tables
# ---------------------------------------------------------------------------

def shift_bounds(ops: list[TensorOperator]) -> tuple[int, ...]:
    """Per slot, the largest |shift degree| of any term of the operators."""
    bounds = [0] * len(ops[0].signature)
    for op in ops:
        for _, factors in op.summands:
            for slot, f in enumerate(factors):
                for d, _ in f.terms:
                    bounds[slot] = max(bounds[slot], abs(d))
    return tuple(bounds)


@dataclass(frozen=True, eq=False)
class CompiledTable:
    """Operators expanded into term combinations at a fixed q, with every
    coefficient evaluated once over an index range ks.

    A combination picks one term per slot of one summand of operator
    `operator[c]`; it sends e_k to

        scalar[c] * prod_s coefficients[term[c, s], k_s - ks.start]
        * e_{k - shift[c]}

    for k_s in ks.  On a Z slot every index is a target.  On an N slot a
    combination contributes only where k_s - shift[c, s] >= 0; the table
    does not apply this mask, its users do.  Combinations follow
    apply_operator's order: operators, then summands, then the cartesian
    product of slot terms with slot 0 outermost.  NaN marks an index where
    Coefficient.evaluate raises QDomainError.
    """

    operator: np.ndarray       # (C,) int
    scalar: np.ndarray         # (C,) complex
    shift: np.ndarray          # (C, slots) int
    term: np.ndarray           # (C, slots) int, rows of coefficients
    coefficients: np.ndarray   # (distinct coefficients, len(ks)) complex


def _evaluate_or_nan(c: Coefficient, k: int, q: float) -> complex:
    try:
        return c.evaluate(k, q)
    except QDomainError:
        return complex(math.nan, math.nan)


@functools.lru_cache(maxsize=None, typed=True)
def _coefficient_row(c: Coefficient, q: float, ks: range) -> tuple:
    return tuple(_evaluate_or_nan(c, k, q) for k in ks)


def compile_table(ops: list[TensorOperator], q: float,
                  ks: range) -> CompiledTable:
    """The term combinations of ops, coefficients over the indices ks."""
    rows: dict[Coefficient, int] = {}
    operator, scalar, shift, term = [], [], [], []
    for g, op in enumerate(ops):
        for s, factors in op.summands:
            for combo in itertools.product(*(f.terms for f in factors)):
                operator.append(g)
                scalar.append(s)
                shift.append([d for d, _ in combo])
                term.append([rows.setdefault(c, len(rows)) for _, c in combo])
    coefficients = np.zeros((len(rows), len(ks)), dtype=complex)
    for c, row in rows.items():
        coefficients[row] = _coefficient_row(c, q, ks)
    shape = (len(operator), len(ops[0].signature))
    return CompiledTable(np.array(operator, dtype=np.int64),
                         np.array(scalar, dtype=complex),
                         np.array(shift, dtype=np.int64).reshape(shape),
                         np.array(term, dtype=np.int64).reshape(shape),
                         coefficients)


# ---------------------------------------------------------------------------
# window evaluation
# ---------------------------------------------------------------------------

def window_profiles(op: TensorOperator, cutoff: int, q: float
                    ) -> dict[tuple[int, ...], np.ndarray]:
    """Dense action on the index window, grouped by shift pattern.

    Returns a map from shift vectors (d_1, ..., d_m) to arrays A with
    A[k_1, ..., k_m] = amplitude of e_{k-d} in op(e_k).  Window indices on a
    bilateral slot run from -cutoff to cutoff (array offset +cutoff), on a
    unilateral slot from 0 to cutoff.  Raises QDomainError where a
    coefficient is evaluated outside its domain at a live index.
    """
    lo = -cutoff if BILATERAL in op.signature else 0
    table = compile_table([op], q, range(lo, cutoff + 1))
    groups: dict[tuple[int, ...], list[int]] = {}
    for c, shifts in enumerate(map(tuple, table.shift.tolist())):
        groups.setdefault(shifts, []).append(c)
    out: dict[tuple[int, ...], np.ndarray] = {}
    for shifts, combos in groups.items():
        scalars = table.scalar[combos]
        profiles = []
        for s, kind in enumerate(op.signature):
            prof = table.coefficients[table.term[combos, s]]
            if kind == UNILATERAL:
                prof = prof[:, -lo:]
                prof[:, :max(shifts[s], 0)] = 0     # no target e_{k-d}
            if np.isnan(prof).any():
                raise QDomainError(
                    f"negative radicand exponent on slot {s} in the window")
            profiles.append(prof if s else prof * scalars[:, None])
        letters = "abcdefghijklmnop"[:len(shifts)]
        spec = ",".join(f"z{ch}" for ch in letters) + "->" + letters
        # a signature-free operator is the sum of its scalars
        out[shifts] = np.einsum(spec, *profiles) if profiles else scalars.sum()
    return out


def max_window_deviation(a: TensorOperator, b: TensorOperator, cutoff: int,
                         q: float) -> float:
    """max over window basis vectors e_k of ||(a-b) e_k||_inf."""
    if a.signature != b.signature:
        raise ValueError("signature mismatch")
    pa = window_profiles(a, cutoff, q)
    pb = window_profiles(b, cutoff, q)
    dev = 0.0
    for shifts in set(pa) | set(pb):
        diff = np.abs(pa.get(shifts, 0) - pb.get(shifts, 0))
        if diff.size:
            dev = max(dev, float(diff.max()))
    return dev


def window_magnitude(op: TensorOperator, cutoff: int, q: float) -> float:
    """max over window basis vectors e_k of ||op e_k||_inf."""
    return max((float(np.abs(a).max())
                for a in window_profiles(op, cutoff, q).values() if a.size),
               default=0.0)


# ---------------------------------------------------------------------------
# structural monomial expansion
# ---------------------------------------------------------------------------

def monomial_decomposition(op: TensorOperator, q: float,
                           start: dict | None = None) -> dict:
    """Expansion of op o x over structurally independent monomials, where
    start is the expansion of x (by default the identity's, so op's own).

    A monomial key is a per-slot tuple (shift degree, q-power slope,
    squarefree radical content); see Coefficient.monomials.  Within one
    slot all radical atoms share one leading coefficient (each slot is
    driven by a single alphabet letter), so distinct keys are linearly
    independent as operators: an operator vanishes iff every returned
    coefficient does, and ranks of expansions equal ranks of operators.
    Expansion is linear, so op o x expands from start key by key and slot
    by slot: operator words expand letter by letter, never composed.
    growth.MonomialKernel compiles this expansion; this is its reference.
    """
    if start is None:
        start = {((0, 0, ()),) * len(op.signature): 1.0 + 0j}
    flat: dict[tuple, complex] = {}
    for base, coeff in start.items():
        for scalar, factors in op.summands:
            stack: list[tuple[tuple, complex]] = [((), coeff * scalar)]
            for f, slot_key in zip(factors, base):
                stack = [(key + (slot,), amp * val)
                         for slot, val in slot_monomials(f, slot_key, q)
                         for key, amp in stack]
            for key, amp in stack:
                flat[key] = flat.get(key, 0j) + amp
    return {k: v for k, v in flat.items() if v != 0}


@functools.lru_cache(maxsize=None, typed=True)
def slot_monomials(f: WeightedShiftSum, slot_key: tuple, q: float) -> tuple:
    """(shift degree, q-power slope, radicals) keys, with their values, of
    one factor composed with the slot monomial slot_key, terms in order."""
    shift, qa, radicals = slot_key
    m = Coefficient(qa=qa, radicals=radicals)
    return tuple(((d + shift,) + struct, val) for d, c in f.terms
                 for struct, val in m.times(c.shifted(-shift)).monomials(q))


@functools.lru_cache(maxsize=None, typed=True)
def _monomial_window_max(slot_key: tuple, space: str, cutoff: int,
                         q: float) -> float:
    d, qa, radicals = slot_key
    c = Coefficient(qa=qa, radicals=radicals)
    lo = max(d, 0) if space == UNILATERAL else -cutoff
    values = [abs(_evaluate_or_nan(c, k, q)) for k in range(lo, cutoff + 1)]
    return max([0.0] + [v for v in values if not math.isnan(v)])


def window_deviation_bound(op: TensorOperator, cutoff: int, q: float) -> float:
    """Upper bound on the window magnitude via the monomial expansion.

    Sharp for functionally zero operators (their expansion collapses), so
    relation checks can skip the dense window evaluation when this bound
    is already below tolerance."""
    total = 0.0
    for key, coeff in monomial_decomposition(op, q).items():
        prod = abs(coeff)
        for slot_key, space in zip(key, op.signature):
            prod *= _monomial_window_max(slot_key, space, cutoff, q)
            if prod == 0.0:
                break
        total += prod
    return total

