"""Generator-image tables for the odd orthogonal quantized function algebra.

A table maps a generator position (k, l) (k the upper index, l the lower)
to the operator image of v_l^k under a representation.  Elementary tables
attach weighted shifts to one sequence-space slot; the torus table is
scalar; arbitrary representations are built by convolving tables through
the matrix coproduct

    (A * B)(k, l) = sum_j A(k, j) (x) B(j, l).

Numerical verifiers check the quadratic orthogonality relations (with the
antidiagonal metric fixed below), the reflection-equation relations as a
diagnostic, and equality of tables built from different words.  Every
relation is built from the nonzero images only, and one evaluator measures
them all: the structural monomial bound first, the dense window where the
bound does not clear the tolerance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from . import qoperators as qo, weylb
from .qoperators import TensorOperator, WeightedShiftSum

Word = tuple[int, ...]


def _check_unit_modulus(t: tuple[complex, ...]) -> None:
    """Refuse a torus point off the unit circle (NaN and inf included)."""
    for z in t:
        if not abs(abs(z) - 1.0) <= 1e-12:
            raise ValueError(f"torus entry {z} is not unit modulus")


@dataclass(frozen=True)
class RepSpec:
    """Data selecting one of the standard irreducible modules."""

    n: int
    word: Word
    t: tuple[complex, ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("rank must be >= 1")
        for i in self.word:
            if not 1 <= i <= self.n:
                raise ValueError(f"word letter {i} out of range 1..{self.n}")
        if self.t is not None:
            if len(self.t) != self.n:
                raise ValueError("torus point must have n entries")
            _check_unit_modulus(self.t)

    @property
    def torus(self) -> tuple[complex, ...]:
        return self.t if self.t is not None else tuple([1.0 + 0j] * self.n)


@dataclass
class GeneratorImageTable:
    """Sparse map (k, l) -> operator image of v_l^k; absent entries are 0."""

    n: int
    signature: tuple[str, ...]
    images: dict[tuple[int, int], TensorOperator] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return 2 * self.n + 1

    def entry(self, k: int, l: int) -> TensorOperator:
        if not (1 <= k <= self.size and 1 <= l <= self.size):
            raise ValueError(f"index ({k},{l}) out of range 1..{self.size}")
        op = self.images.get((k, l))
        if op is None:
            return qo.zero_operator(self.signature)
        return op

    def row(self, k: int) -> list[tuple[int, TensorOperator]]:
        return [(l, op) for (kk, l), op in sorted(self.images.items()) if kk == k]

    def set(self, k: int, l: int, op: TensorOperator) -> None:
        """Store a canonical operator; the zero operator is left out."""
        if not op.is_zero():
            self.images[(k, l)] = op


# ---------------------------------------------------------------------------
# elementary and torus tables
# ---------------------------------------------------------------------------

def _edge_operators() -> dict[str, WeightedShiftSum]:
    """Operator of every edge tag of the elementary tables."""
    q2n, q2n2 = qo.q_power(2, 0), qo.q_power(2, 2)
    rad44, rad22, rad24 = (qo.sqrt_radical(4, 4), qo.sqrt_radical(2, 2),
                           qo.sqrt_radical(2, 4))
    sq = qo.sqrt_one_plus_q2(1)
    dn, up = qo.shift_down(), qo.shift_up()
    return {
        "id": qo.identity_shift(),
        # lower blocks (letters i < n)
        "alpha_dn": qo.product(rad44, dn),
        "alpha_up": qo.product(up, rad44),
        "q2n": q2n,
        "neg_q2n": q2n.scaled(-1),
        "q2n2": q2n2,
        "neg_q2n2": q2n2.scaled(-1),
        # central three-node block (letter i = n); its corners reuse q2n2
        # and q2n under their own tags, because diagrams draws them
        # differently
        "alpha2_dn": qo.product(rad22, rad24, dn, dn),
        "alpha2_up": qo.product(up, up, rad24, rad22),
        "mid": qo.identity_shift().add(
            qo.product(qo.sqrt_one_plus_q2(2), q2n).scaled(-1)),
        "beta_dn_lo": qo.product(qo.q_power(1, 0), sq, rad22, dn),
        "beta_dn_hi": qo.product(qo.q_power(1, 1), sq, rad22, dn).scaled(-1),
        "beta_up_lo": qo.product(up, sq, rad22, qo.q_power(1, 0)),
        "beta_up_hi": qo.product(up, sq, rad22, qo.q_power(1, 1)).scaled(-1),
        "q2n2_block": q2n2,
        "q2n_block": q2n,
    }


EDGE_OPERATORS: dict[str, WeightedShiftSum] = _edge_operators()


def elementary_layout(i: int, n: int) -> list[tuple[int, int, str]]:
    """(k, l, edge tag) of every nonzero entry of the i-th elementary table.

    The two off-diagonal entries of the middle block that raise the node
    index carry a minus sign; this is the sign choice under which the
    orthogonality relations hold exactly (see verify_orthogonality).
    """
    if not 1 <= i <= n:
        raise ValueError(f"reflection index {i} out of range 1..{n}")
    if i < n:
        lo, hi = i, 2 * n - i + 1
        block = [(lo, lo, "alpha_dn"), (lo, lo + 1, "neg_q2n2"),
                 (lo + 1, lo, "q2n"), (lo + 1, lo + 1, "alpha_up"),
                 (hi, hi, "alpha_dn"), (hi, hi + 1, "q2n2"),
                 (hi + 1, hi, "neg_q2n"), (hi + 1, hi + 1, "alpha_up")]
    else:
        block = [(n, n, "alpha2_dn"), (n, n + 1, "beta_dn_hi"),
                 (n, n + 2, "q2n2_block"), (n + 1, n, "beta_dn_lo"),
                 (n + 1, n + 1, "mid"), (n + 1, n + 2, "beta_up_hi"),
                 (n + 2, n, "q2n_block"), (n + 2, n + 1, "beta_up_lo"),
                 (n + 2, n + 2, "alpha2_up")]
    active = {k for k, _, _ in block}
    return block + [(k, k, "id") for k in range(1, 2 * n + 2)
                    if k not in active]


def elementary_table(i: int, n: int) -> GeneratorImageTable:
    """Image table of the representation attached to the i-th reflection."""
    table = GeneratorImageTable(n, ("N",))
    for k, l, tag in elementary_layout(i, n):
        table.set(k, l, qo.elementary_tensor([EDGE_OPERATORS[tag]]))
    return table


def torus_scalars(t: tuple[complex, ...], n: int) -> list[complex]:
    """Diagonal scalars of the torus character at nodes 1..2n+1."""
    out = []
    for k in range(1, 2 * n + 2):
        if k < n + 1:
            out.append(complex(t[k - 1]).conjugate())
        elif k == n + 1:
            out.append(1.0 + 0j)
        else:
            out.append(complex(t[2 * n + 2 - k - 1]))
    return out


def torus_table(t: tuple[complex, ...], n: int) -> GeneratorImageTable:
    """One-dimensional table: node k carries a unit scalar."""
    _check_unit_modulus(t)
    table = GeneratorImageTable(n, ())
    for k, c in enumerate(torus_scalars(tuple(t), n), start=1):
        table.set(k, k, qo.scale(c, qo.identity_operator(())))
    return table


def convolve(a: GeneratorImageTable, b: GeneratorImageTable) -> GeneratorImageTable:
    """Matrix coproduct of tables: (a*b)(k,l) = sum_j a(k,j) (x) b(j,l)."""
    if a.n != b.n:
        raise ValueError("rank mismatch")
    out = GeneratorImageTable(a.n, a.signature + b.signature)
    rows_b: dict[int, list[tuple[int, TensorOperator]]] = {}
    for (j, l), op in b.images.items():
        rows_b.setdefault(j, []).append((l, op))
    acc: dict[tuple[int, int], list[TensorOperator]] = {}
    for (k, j), op_a in a.images.items():
        for l, op_b in rows_b.get(j, ()):
            acc.setdefault((k, l), []).append(qo.tensor(op_a, op_b))
    for (k, l), terms in acc.items():
        out.set(k, l, qo.add(*terms))
    return out


def rep_table(spec: RepSpec) -> GeneratorImageTable:
    """Fold of the torus table with the elementary tables of the word."""
    table = torus_table(spec.torus, spec.n)
    for i in spec.word:
        table = convolve(table, elementary_table(i, spec.n))
    return table


# ---------------------------------------------------------------------------
# relation verification
# ---------------------------------------------------------------------------

def metric_weights(n: int, q: float) -> list[complex]:
    """Weights of the antidiagonal pairing: node k carries eps_k q^{e_k} with
    e = (0, 2, ..., 2n-2, 2n-1, 2n, ..., 4n-2) and eps = -1 at the middle
    node only."""
    out: list[complex] = []
    for k in range(1, 2 * n + 2):
        if k <= n:
            e, eps = 2 * (k - 1), 1.0
        elif k == n + 1:
            e, eps = 2 * n - 1, -1.0
        else:
            e, eps = 2 * (k - 2), 1.0
        out.append(eps * q ** e)
    return out


MAX_REPORT = 10     # offending quadruples a verify_frt report lists


@dataclass
class RelationReport:
    max_deviation: float
    worst: tuple | None = None
    details: list = field(default_factory=list)

    def ok(self, tol: float) -> bool:
        return self.max_deviation < tol


def _measure(report: RelationReport, tag: tuple, terms: list[TensorOperator],
             rhs: complex, sig: tuple[str, ...], cutoff: int, q: float,
             tol: float) -> float:
    """Window deviation of the relation sum(terms) = rhs * I; the report
    keeps the largest deviation and its tag."""
    rel = qo.add(*terms, qo.scale(-rhs, qo.identity_operator(sig)))
    # the cheap structural bound is sharp for vanishing relations; fall back
    # to the dense window otherwise
    dev = qo.window_deviation_bound(rel, cutoff, q)
    if dev >= tol:
        dev = qo.window_magnitude(rel, cutoff, q)
    if dev > report.max_deviation:
        report.max_deviation, report.worst = dev, tag
    return dev


def _products(table: GeneratorImageTable):
    """The images at positions a and b composed, product(a, b), each
    ordered pair once per check."""
    @functools.cache
    def product(a: tuple[int, int], b: tuple[int, int]) -> TensorOperator:
        return qo.compose(table.images[a], table.images[b])
    return product


def verify_orthogonality(table: GeneratorImageTable, cutoff: int, q: float,
                         tol: float = 1e-8) -> RelationReport:
    """Evaluate both families of quadratic orthogonality relations.

    With c the metric weights, N = 2n+1 and k' = N+1-k, the families are

        sum_k c_k  v_k^i  v_{k'}^{j'}  =  c_i delta_{ij}
        sum_k c_k  v_i^k  v_j^{k'}    =  c_i delta_{i'j}

    entrywise as operators.  Returns the maximal window deviation over all
    (i, j) and both families.
    """
    size = table.size
    c = metric_weights(table.n, q)
    # the positions of the nonzero images by row, {k: {l: (k, l)}}, and by
    # column, {l: {k: (k, l)}}; family 1 at i = j and family 2 at
    # i + j = N + 1 compose the same pairs
    rows: dict[int, dict[int, tuple[int, int]]] = {}
    cols: dict[int, dict[int, tuple[int, int]]] = {}
    for k, l in sorted(table.images):
        rows.setdefault(k, {})[l] = cols.setdefault(l, {})[k] = (k, l)
    product = _products(table)
    report = RelationReport(0.0)
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            # family 1 pairs row i with row j', family 2 column i with
            # column j, at mirrored positions k and k'
            for fam, first, second, delta in (
                    (1, rows.get(i, {}), rows.get(size + 1 - j, {}), i == j),
                    (2, cols.get(i, {}), cols.get(j, {}), i + j == size + 1)):
                terms = [qo.scale(c[k - 1], product(a, second[size + 1 - k]))
                         for k, a in first.items() if size + 1 - k in second]
                _measure(report, (fam, i, j), terms, c[i - 1] if delta else 0.0,
                         table.signature, cutoff, q, tol)
    return report


def r_matrix_entries(n: int, q: float) -> dict[tuple[int, int, int, int], float]:
    """Nonzero entries R^{ij}_{mn} of the literal two-case reflection matrix,
    in lexicographic order: R^{ij}_{ij} = q^{delta_ij - delta_{i+j,N+1}}, and
    for i > m, R^{im}_{mi} = q - q^{-1} and
    R^{ii}_{mm} = -(q - q^{-1}) q^{-rho_i - rho_m}, with the half-integer
    weights rho = (N/2 - 1, ..., 1/2, 0, -1/2, ..., 1 - N/2).

    Shipped for the diagnostic check only; the transcription in circulation
    is suspect, so nothing gates on it.
    """
    size = 2 * n + 1
    rho = [size / 2 - i if i <= n else 0.0 if i == n + 1 else size / 2 + 1 - i
           for i in range(1, size + 1)]
    ent = {(i, j, i, j): q ** (int(i == j) - int(i + j == size + 1))
           for i in range(1, size + 1) for j in range(1, size + 1)}
    for i in range(1, size + 1):
        for m in range(1, i):
            ent[(i, m, m, i)] = q - 1.0 / q
            ent[(i, i, m, m)] = (q - 1.0 / q) * -q ** (-rho[i - 1] - rho[m - 1])
    return dict(sorted(ent.items()))


def verify_frt(table: GeneratorImageTable, cutoff: int, q: float,
               tol: float = 1e-8) -> RelationReport:
    """Diagnostic evaluation of the quadratic exchange relations.

    For each (i, j, s, t) forms sum_{k,l} [ R^{ji}_{kl} v_s^k v_t^l
    - R^{lk}_{st} v_k^i v_l^j ] and reports window deviations; the first
    MAX_REPORT offending quadruples are collected rather than gated on.
    """
    size = table.size
    by_upper: dict[tuple[int, int], list[tuple[int, int, float]]] = {}
    for (a, b, m, nn), val in r_matrix_entries(table.n, q).items():
        by_upper.setdefault((a, b), []).append((m, nn, val))
    product = _products(table)
    report = RelationReport(0.0)
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            # the terms of every (i, j, s, t) by (s, t), R^{ji}_{kl} first
            terms: dict[tuple[int, int], list[TensorOperator]] = {}
            for k, l, val in by_upper[(j, i)]:
                for s, _ in table.row(k):
                    for t, _ in table.row(l):
                        terms.setdefault((s, t), []).append(
                            qo.scale(val, product((k, s), (l, t))))
            for k, _ in table.row(i):
                for l, _ in table.row(j):
                    for s, t, val in by_upper[(l, k)]:
                        terms.setdefault((s, t), []).append(
                            qo.scale(-val, product((i, k), (j, l))))
            for (s, t), quad_terms in sorted(terms.items()):
                dev = _measure(report, (i, j, s, t), quad_terms, 0.0,
                               table.signature, cutoff, q, tol)
                if dev > tol and len(report.details) < MAX_REPORT:
                    report.details.append(((i, j, s, t), dev))
    return report


def tables_equal(a: GeneratorImageTable, b: GeneratorImageTable, cutoff: int,
                 q: float, tol: float = 1e-8) -> tuple[bool, float]:
    """Entrywise window comparison of two tables of equal signature, over the
    positions where either table has a nonzero image."""
    if a.n != b.n or a.signature != b.signature:
        raise ValueError("tables are not comparable")
    zero = qo.zero_operator(a.signature)
    worst = 0.0
    for kl in sorted(set(a.images) | set(b.images)):
        dev = qo.max_window_deviation(a.images.get(kl, zero),
                                      b.images.get(kl, zero), cutoff, q)
        worst = max(worst, dev)
    return worst < tol, worst


def verify_braid_independence(spec1: RepSpec, spec2: RepSpec, cutoff: int,
                              q: float, tol: float = 1e-8) -> tuple[bool, float]:
    """Compare the tables of two words required to define the same element."""
    if spec1.n != spec2.n:
        raise ValueError("rank mismatch")
    w1 = weylb.from_word(spec1.word, spec1.n)
    w2 = weylb.from_word(spec2.word, spec2.n)
    if w1 != w2:
        raise ValueError("words evaluate to different group elements")
    if len(spec1.word) != len(spec2.word):
        raise ValueError("words have different lengths")
    return tables_equal(rep_table(spec1), rep_table(spec2), cutoff, q, tol)
