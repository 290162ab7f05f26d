"""Span-growth engine and growth certificates.

Module growth iterates a frontier: every generator image is applied to the
newest basis vectors of the span of words applied to the vacuum, and the
results are rank-reduced by sparse Gaussian elimination with a canonical
pivot order.  Algebra growth runs the same frontier over operator words
kept in closed symbolic form; their rank is exact because each word
expands over structurally independent monomials.  An action-window rank
at a configurable probe cutoff is recorded alongside as a lower-bound
cross-check.

Lower bounds are certified by explicit witness words: single generator
images that raise one tensor slot at a time, recovered part by part
through the embedding maps.  Upper bounds come from the window-size count
(module case) and a per-slot container count (algebra case).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import diagrams, qoperators as qo, repsoq, weylb
from .qoperators import SparseVector, TensorOperator
from .repsoq import GeneratorImageTable, RepSpec
from .weylb import ParabolicSubset, SignedPermutation


class BudgetExceeded(RuntimeError):
    """The basis grew past the configured cap; carries the partial series."""

    def __init__(self, message: str, partial: "GrowthSeries | None" = None):
        super().__init__(message)
        self.partial = partial


class CertificateFailure(RuntimeError):
    """A witness product missed its predicted basis vector."""


# ---------------------------------------------------------------------------
# deterministic sparse rank maintenance
# ---------------------------------------------------------------------------

class Echelon:
    """Row echelon over sparse vectors keyed by a canonical index order.

    Pivots are maximal keys under tuple comparison; a candidate whose
    residual drops below rel_tol times its own scale is dependent.
    """

    def __init__(self, rel_tol: float = 1e-8):
        self.rel_tol = rel_tol
        self.pivots: dict = {}

    def __len__(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict) -> dict:
        vec = dict(vec)
        scale = max((abs(v) for v in vec.values()), default=0.0)
        if scale == 0.0:
            return {}
        floor = self.rel_tol * scale
        while vec:
            key = max(vec)
            amp = vec.pop(key)
            if abs(amp) <= floor:
                continue
            pivot = self.pivots.get(key)
            if pivot is None:
                vec[key] = amp
                return vec
            for k, v in pivot.items():
                if k == key:
                    continue
                nv = vec.get(k, 0j) - amp * v
                if nv == 0:
                    vec.pop(k, None)
                else:
                    vec[k] = nv
        return {}

    def add(self, vec: dict) -> dict | None:
        """Insert if independent; returns the reduced vector or None."""
        red = self.reduce(vec)
        if not red:
            return None
        key = max(red)
        lead = red[key]
        normal = {k: v / lead for k, v in red.items()}
        self.pivots[key] = normal
        return normal


# ---------------------------------------------------------------------------
# growth series
# ---------------------------------------------------------------------------

@dataclass
class GrowthSeries:
    context: dict
    values: list[tuple[int, int]]
    flags: list[str] = field(default_factory=list)

    def dims(self) -> list[int]:
        return [d for _, d in self.values]


@dataclass
class GeneratingSet:
    """Named generators of a span computation; always contains the unit."""

    kind: str                       # "module" or "homogeneous"
    operators: list[tuple[str, TensorOperator]]

    def __post_init__(self):
        if self.kind not in ("module", "homogeneous"):
            raise ValueError(f"unknown generating-set kind {self.kind!r}")
        if not any(name == "1" for name, _ in self.operators):
            raise ValueError("generating set must contain the unit")

    def nontrivial(self) -> list[TensorOperator]:
        return [op for name, op in self.operators if name != "1"]


def module_generating_set(table: GeneratorImageTable) -> GeneratingSet:
    """All nonzero generator images plus the unit."""
    ops: list[tuple[str, TensorOperator]] = [
        ("1", qo.identity_operator(table.signature))]
    for (k, l), op in sorted(table.images.items()):
        ops.append((f"v[{k},{l}]", op))
    return GeneratingSet("module", ops)


def homogeneous_generating_set(eta: GeneratorImageTable, n: int, m: int
                               ) -> GeneratingSet:
    """Images of the restricted row set and their involutes, plus the unit."""
    rows = set(zeta_rows(n, m))
    ops: list[tuple[str, TensorOperator]] = [
        ("1", qo.identity_operator(eta.signature))]
    for (k, l), op in sorted(eta.images.items()):
        if k not in rows:
            raise ValueError(f"row {k} is outside the restricted row set")
        ops.append((f"v[{k},{l}]", op))
        ops.append((f"v[{k},{l}]*", qo.adjoint(op)))
    return GeneratingSet("homogeneous", ops)


def module_growth(spec: RepSpec, r_max: int, q: float,
                  basis_cap: int = 20000) -> GrowthSeries:
    """Dimension series of span{words of length <= r applied to the vacuum}."""
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    table = repsoq.rep_table(spec)
    gens = module_generating_set(table).nontrivial()
    sig = table.signature
    ech = Echelon()
    vac = qo.vacuum(sig)
    ech.add(dict(vac.entries))
    frontier = [vac]
    values = [(0, len(ech))]
    for r in range(1, r_max + 1):
        new_frontier = []
        for out in (qo.apply_operator(g, v, q) for v in frontier for g in gens):
            if not out.entries:
                continue
            if ech.add(dict(out.entries)) is not None:
                new_frontier.append(out)
                if len(ech) > basis_cap:
                    partial = GrowthSeries(
                        {"kind": "module", "n": spec.n,
                         "word": list(spec.word)},
                        values, [f"budget exceeded at step {r}"])
                    raise BudgetExceeded(
                        f"basis size exceeded {basis_cap} at step {r}",
                        partial)
        frontier = new_frontier
        values.append((r, len(ech)))
    return GrowthSeries({"kind": "module", "n": spec.n, "word": list(spec.word)},
                        values)


def exponent_estimate(series: GrowthSeries) -> dict:
    """Log-ratio and top-half regression slope of the dimension series."""
    values = series.values
    if len(values) < 4:
        raise ValueError("need at least 4 sample points")
    r_max = values[-1][0]
    d = dict(values)
    half = (r_max + 1) // 2
    log_ratio = 0.0
    if d[r_max] > 0 and d[half] > 0:
        log_ratio = math.log(d[r_max] / d[half]) / math.log(2.0)
    pts = [(math.log(r), math.log(dr)) for r, dr in values
           if r >= max(half, 1) and dr > 0]
    slope = 0.0
    if len(pts) >= 2:
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        var = sum((x - mx) ** 2 for x, _ in pts)
        if var > 0:
            slope = sum((x - mx) * (y - my) for x, y in pts) / var
    return {"log_ratio": log_ratio, "slope": slope}


SHIFT_EXPONENT_BOUND = 2   # no table entry moves one slot index by more


# ---------------------------------------------------------------------------
# witness families (module case)
# ---------------------------------------------------------------------------

@dataclass
class WitnessFamily:
    """Single-generator raising words for one part of the factorised word.

    operators[j-1] raises slot sigma(j) of the part when applied to vectors
    whose later slots of the part still hold the vacuum; applying in the
    order j = r, r-1, ..., 1 steers the part to an arbitrary lattice point.
    """

    part_index: int
    slot_offset: int
    operators: list[TensorOperator]
    sigma: list[int]
    columns: list[tuple[int, int]]
    degree: int = 1


def _part_witness_columns(r: int, i: int) -> tuple[list[int], list[int]]:
    """Column indices (row 2i+1) and slot permutation for a depth-i part."""
    if r < 1:
        return [], []
    if r >= i:
        k = 2 * i - r
        cols = [2 * i - j + 2 if j <= k - 1 else j + 1 for j in range(1, r + 1)]
        sigma = [2 * i - j if k <= j <= r else j for j in range(1, r + 1)]
    else:
        cols = [2 * i - j + 2 for j in range(1, r + 1)]
        sigma = list(range(1, r + 1))
    return cols, sigma


def witness_families(w: SignedPermutation, table_entry, n: int
                     ) -> list[WitnessFamily]:
    """Raising families for every nonempty part of w.

    table_entry(row, col) must return the image operator of the ambient
    representation; for a plain module this is the word table, for the
    homogeneous realisation the eta table.  The depth-i family uses row
    n+i+1 and the embedding-map relabeling of the depth-i columns.
    """
    part_words = weylb.parts(w)
    fams = []
    offset = 0
    for i in range(1, n + 1):
        r = len(part_words[i - 1])
        if r == 0:
            continue
        cols, sigma = _part_witness_columns(r, i)
        lam = diagrams.embedding_chain(w, i)
        shift = n - i
        ops = [table_entry(n + i + 1, lam(c + shift)) for c in cols]
        fams.append(WitnessFamily(i, offset,
                                  ops, sigma,
                                  [(n + i + 1, lam(c + shift)) for c in cols]))
        offset += r
    return fams


def witness_chain(w: SignedPermutation, n: int) -> list[WitnessFamily]:
    """Raising families for all nonempty parts of w, on the word table."""
    table = repsoq.rep_table(RepSpec(n, weylb.normal_form(w).word()))
    return witness_families(w, table.entry, n)


def _apply_power(op: TensorOperator, vec: SparseVector, power: int,
                 q: float) -> SparseVector:
    for _ in range(power):
        vec = qo.apply_operator(op, vec, q)
    return vec


def apply_witness_pattern(families: list[WitnessFamily],
                          exponents: list[list[int]], start: SparseVector,
                          q: float) -> SparseVector:
    """Apply the family products for the given per-part exponent lists.

    Parts act in ascending order; inside a part the operators act in
    descending index order, operator j repeated exponents[sigma(j)] times.
    """
    vec = start
    for fam, exps in zip(families, exponents):
        if len(exps) != len(fam.operators):
            raise ValueError("exponent count does not match family size")
        for j in range(len(fam.operators), 0, -1):
            vec = _apply_power(fam.operators[j - 1], vec,
                               exps[fam.sigma[j - 1] - 1], q)
    return vec


def _single_support(vec: SparseVector, tol: float = 1e-8
                    ) -> tuple[tuple[int, ...] | None, complex]:
    """Support of a vector that should be one basis vector up to noise.

    The concentration test is relative: witness amplitudes are products of
    many q-power weights and can be very small while exactly nonzero."""
    if not vec.entries:
        return None, 0j
    key, amp = max(vec.entries.items(), key=lambda kv: abs(kv[1]))
    mass = sum(abs(v) ** 2 for v in vec.entries.values())
    if abs(amp) ** 2 < (1.0 - tol) * mass:
        return None, amp
    return key, amp


def verify_witness_chain(w: SignedPermutation, n: int, q: float,
                         budget: int = 4, tol: float = 1e-8) -> dict:
    """Check that every exponent pattern of total <= budget lands on the
    predicted basis vector with full relative mass."""
    families = witness_chain(w, n)
    sizes = [len(f.operators) for f in families]
    total_slots = sum(sizes)
    sig = tuple("N" for _ in range(total_slots))
    report = {"patterns": 0, "failures": [], "max_off_mass": 0.0}
    for flat in _compositions_up_to(total_slots, budget):
        exponents = []
        pos = 0
        for s in sizes:
            exponents.append(list(flat[pos:pos + s]))
            pos += s
        out = apply_witness_pattern(families, exponents, qo.vacuum(sig), q)
        key, amp = _single_support(out, tol)
        expected = tuple(flat)
        report["patterns"] += 1
        if key != expected or amp == 0:
            report["failures"].append({"pattern": expected,
                                       "support": key})
    report["ok"] = not report["failures"]
    return report


def _compositions_up_to(slots: int, budget: int):
    """All tuples of `slots` naturals with sum <= budget."""
    if slots == 0:
        yield ()
        return
    def rec(remaining, left):
        if left == 1:
            for v in range(remaining + 1):
                yield (v,)
            return
        for v in range(remaining + 1):
            for rest in rec(remaining - v, left - 1):
                yield (v,) + rest
    yield from rec(budget, slots)


def _compositions_exact(slots: int, total: int):
    if slots == 0:
        if total == 0:
            yield ()
        return
    def rec(remaining, left):
        if left == 1:
            yield (remaining,)
            return
        for v in range(remaining + 1):
            for rest in rec(remaining - v, left - 1):
                yield (v,) + rest
    yield from rec(total, slots)


def lower_bound_certificate(w: SignedPermutation, n: int, r: int, q: float,
                            tol: float = 1e-8) -> dict:
    """Verify that the whole lattice shell of total degree r is reachable.

    Every basis vector e_beta with |beta| = r is produced by an explicit
    word of A*r generator applications (A = 1: each witness is a single
    generator image), so the count binom(r + l - 1, r) bounds d(A r) from
    below by distinct-basis independence.
    """
    families = witness_chain(w, n)
    sizes = [len(f.operators) for f in families]
    total_slots = sum(sizes)
    if total_slots == 0:
        return {"count": 1 if r == 0 else 0, "r": r, "A": 0, "ok": r == 0,
                "word_length": 0}
    A = max(f.degree for f in families)
    sig = tuple("N" for _ in range(total_slots))
    reached = set()
    for flat in _compositions_exact(total_slots, r):
        exponents = []
        pos = 0
        for s in sizes:
            exponents.append(list(flat[pos:pos + s]))
            pos += s
        out = apply_witness_pattern(families, exponents, qo.vacuum(sig), q)
        key, amp = _single_support(out, tol)
        if key != tuple(flat) or amp == 0:
            raise CertificateFailure(f"witness missed pattern {flat}")
        reached.add(key)
    expected = math.comb(r + total_slots - 1, r)
    return {"count": len(reached), "r": r, "A": A,
            "word_length": A * r, "ok": len(reached) == expected}


@dataclass
class GrowthCertificate:
    target: int
    rows: list[dict]
    witness_ok: bool
    estimate: dict

    @property
    def ok(self) -> bool:
        return self.witness_ok and all(row["ok"] for row in self.rows)


def module_certificate(spec: RepSpec, r_max: int, q: float,
                       basis_cap: int = 20000,
                       witness_budget: int = 4) -> tuple[GrowthSeries, GrowthCertificate]:
    """Sandwich certificate for the module growth of one element.

    The series and the witnesses are both computed on the canonical
    reduced word of the element, so the raising families line up with the
    tensor slots."""
    n = spec.n
    w = weylb.from_word(spec.word, n)
    lw = weylb.length(w)
    if lw != len(spec.word):
        raise ValueError("word is not reduced; certificate needs a reduced word")
    canonical = RepSpec(n, weylb.normal_form(w).word(), spec.t)
    series = module_growth(canonical, r_max, q, basis_cap=basis_cap)
    series.context["input_word"] = list(spec.word)
    wit = verify_witness_chain(w, n, q, budget=witness_budget) if lw else {"ok": True}
    d = dict(series.values)
    rows = []
    for r in range(0, r_max + 1):
        lower = math.comb(r + lw - 1, r) if lw else 1
        upper = (SHIFT_EXPONENT_BOUND * r + 1) ** lw
        cert = lower_bound_certificate(w, n, r, q) if lw else {"ok": True,
                                                               "count": 1}
        ok = cert["ok"] and lower <= d[r] <= upper
        rows.append({"r": r, "d": d[r], "lower": lower, "upper": upper,
                     "ok": ok})
    est = exponent_estimate(series) if r_max >= 3 else {"log_ratio": 0.0,
                                                        "slope": 0.0}
    return series, GrowthCertificate(lw, rows, bool(wit["ok"]), est)


# ---------------------------------------------------------------------------
# homogeneous realisation
# ---------------------------------------------------------------------------

def zeta_rows(n: int, m: int) -> list[int]:
    """Rows of the generating set for the m-th homogeneous space."""
    if not 1 <= m <= n:
        raise ValueError(f"m={m} out of range 1..{n}")
    return list(range(1, n - m + 2)) + list(range(n + m, 2 * n + 2))


def _bilateral_factor(k: int, n: int, m: int) -> list[qo.WeightedShiftSum]:
    """Circle-slot factors of the scalar-character realisation of row k."""
    slots = n - m + 1
    factors = [qo.identity_shift("Z") for _ in range(slots)]
    if k <= n - m + 1:
        factors[k - 1] = qo.shift_down("Z")
    elif k >= n + m + 1:
        factors[2 * n + 2 - k - 1] = qo.shift_up("Z")
    return factors


def homogeneous_rep(n: int, m: int, w: SignedPermutation) -> GeneratorImageTable:
    """Image table of the homogeneous-space realisation on rows zeta_m.

    The signature is n-m+1 circle slots followed by length(w) shift slots;
    row k acts by its character shift tensored with the word image.
    """
    R = ParabolicSubset.homogeneous(n, m)
    if not weylb.in_quotient(w, R):
        raise ValueError("element is not a minimal coset representative")
    word = weylb.normal_form(w).word()
    pi = repsoq.rep_table(RepSpec(n, word))
    sig = tuple(["Z"] * (n - m + 1)) + pi.signature
    out = GeneratorImageTable(n, sig)
    for k in zeta_rows(n, m):
        bil = qo.elementary_tensor(_bilateral_factor(k, n, m))
        for l, op in pi.row(k):
            out.set(k, l, qo.tensor(bil, op))
    return out


def homogeneous_witnesses(n: int, m: int, w: SignedPermutation, q: float
                          ) -> list[dict]:
    """Raising/lowering families of the homogeneous realisation.

    For each depth i from m to n the family holds h0 (drives the circle
    slot n-i+1), and for each nonempty part slot the pair (h_j, h_j*)
    built from the adjoint of h0 composed with the raising witness.
    """
    R = ParabolicSubset.homogeneous(n, m)
    if not weylb.in_quotient(w, R):
        raise ValueError("element is not a minimal coset representative")
    eta = homogeneous_rep(n, m, w)
    part_words = weylb.parts(w)
    families = []
    offset = 0
    for i in range(1, n + 1):
        r = len(part_words[i - 1])
        if i < m and r:
            raise AssertionError("quotient element has a low nonempty part")
        if i < m:
            continue
        shift = n - i
        lam = diagrams.embedding_chain(w, i)
        # locate the diagonal column of the depth-i row: the unique column
        # whose rank-i image is a pure diagonal
        rank_word = tuple(letter - shift for pw in part_words[:i] for letter in pw)
        rank_table = repsoq.rep_table(RepSpec(i, rank_word))
        diag_cols = []
        for l in range(1, 2 * i + 2):
            op = rank_table.entry(2 * i + 1, l)
            if op.is_zero():
                continue
            if all(d == 0 for _, factors in op.summands
                   for f in factors for d, _ in f.terms):
                diag_cols.append(l)
        if len(diag_cols) != 1:
            raise AssertionError(f"expected one diagonal column, got {diag_cols}")
        l0 = diag_cols[0]
        h0 = eta.entry(n + i + 1, lam(l0 + shift))
        cols, sigma = _part_witness_columns(r, i)
        h0_star = qo.adjoint(h0)
        hs = [qo.compose(h0_star, eta.entry(n + i + 1, lam(c + shift)))
              for c in cols]
        families.append({
            "part_index": i,
            "slot_offset": offset,
            "circle_slot": n - i + 1,
            "h0": h0,
            "h": hs,
            "h_star": [qo.adjoint(h) for h in hs],
            "sigma": sigma,
            "degrees": {"h0": 1, "h": 2, "h_star": 2},
        })
        offset += r
    return families


def apply_homogeneous_pattern(families: list[dict], pattern: dict,
                              signature: tuple[str, ...], q: float
                              ) -> SparseVector:
    """Apply the h-word of one exponent pattern to the vacuum.

    pattern = {i: (r0, [(r_j, p_j), ...])} keyed by part index.  The h0
    block acts first (parts ascending), then each part's pairs in
    descending slot order: h_j to the power r, then its adjoint to the
    power p.
    """
    vec = qo.vacuum(signature)
    for fam in families:
        r0, _ = pattern[fam["part_index"]]
        vec = _apply_power(fam["h0"], vec, r0, q)
    for fam in families:
        _, pairs = pattern[fam["part_index"]]
        sigma = fam["sigma"]
        for j in range(len(pairs), 0, -1):
            r_e, p_e = pairs[sigma[j - 1] - 1]
            vec = _apply_power(fam["h"][j - 1], vec, r_e, q)
            vec = _apply_power(fam["h_star"][j - 1], vec, p_e, q)
    return vec


def _homogeneous_patterns(families: list[dict], total: int):
    """All exponent patterns (r0 per family, (r, p) with r >= p per slot)
    with the stated total."""
    per_family = [(1 + 2 * len(f["h"])) for f in families]
    slots = sum(per_family)
    for flat in _compositions_exact(slots, total):
        pattern = {}
        pos = 0
        valid = True
        for fam, width in zip(families, per_family):
            r0 = flat[pos]
            pairs = []
            for s in range((width - 1) // 2):
                r_e = flat[pos + 1 + 2 * s]
                p_e = flat[pos + 2 + 2 * s]
                if p_e > r_e:
                    valid = False
                pairs.append((r_e, p_e))
            pattern[fam["part_index"]] = (r0, pairs)
            pos += width
        if valid:
            yield pattern


def predicted_homogeneous_index(families: list[dict], pattern: dict,
                                signature: tuple[str, ...]) -> tuple[int, ...]:
    n_circle = sum(1 for s in signature if s == "Z")
    idx = [0] * len(signature)
    for fam in families:
        r0, pairs = pattern[fam["part_index"]]
        idx[fam["circle_slot"] - 1] = r0
        for s, (r_e, p_e) in enumerate(pairs):
            idx[n_circle + fam["slot_offset"] + s] = r_e - p_e
    return tuple(idx)


def verify_homogeneous_witnesses(n: int, m: int, w: SignedPermutation,
                                 q: float, budget: int = 4,
                                 tol: float = 1e-8) -> dict:
    """Check the single-basis-vector pattern of every witness word with
    total exponent <= budget."""
    families = homogeneous_witnesses(n, m, w, q)
    eta = homogeneous_rep(n, m, w)
    sig = eta.signature
    report = {"patterns": 0, "failures": []}
    for total in range(budget + 1):
        for pattern in _homogeneous_patterns(families, total):
            out = apply_homogeneous_pattern(families, pattern, sig, q)
            key, amp = _single_support(out, tol)
            expected = predicted_homogeneous_index(families, pattern, sig)
            report["patterns"] += 1
            if key != expected or amp == 0:
                report["failures"].append({"pattern": repr(pattern),
                                           "support": key})
    report["ok"] = not report["failures"]
    return report


# ---------------------------------------------------------------------------
# algebra growth by exact structural fingerprints
# ---------------------------------------------------------------------------

def _probe_rank_series(gens: list[TensorOperator], signature: tuple[str, ...],
                       r_max: int, q: float, cutoff: int,
                       basis_cap: int) -> list[tuple[int, int]]:
    """Action-window rank series: a lower-bound cross-check of the exact
    structural rank, using probe vectors with index sum <= cutoff."""
    probes = sorted(_compositions_up_to(len(signature), cutoff))
    base = [qo.basis_vector(signature, p) for p in probes]
    ech = Echelon()

    def fingerprint(outputs):
        flat = {}
        for p_idx, out in enumerate(outputs):
            for key, amp in out.entries.items():
                flat[(p_idx, key)] = amp
        return flat

    ident = base
    ech.add(fingerprint(ident))
    frontier = [ident]
    values = [(0, len(ech))]
    for r in range(1, r_max + 1):
        new_frontier = []
        for word in frontier:
            for g in gens:
                outs = [qo.apply_operator(g, v, q) for v in word]
                fp = fingerprint(outs)
                if fp and ech.add(fp) is not None:
                    new_frontier.append(outs)
                    if len(ech) > basis_cap:
                        raise BudgetExceeded("probe basis exceeded cap")
        frontier = new_frontier
        values.append((r, len(ech)))
    return values


def algebra_growth(n: int, m: int, w: SignedPermutation, r_max: int, q: float,
                   probe_cutoff: int = 4, basis_cap: int = 20000
                   ) -> GrowthSeries:
    """Rank series of the span of operator words of length <= r.

    The rank is computed exactly from the structural monomial expansion of
    each word (the calculus keeps compositions in closed form, so operator
    equality is decidable).  An action-window rank at the given probe
    cutoff is recorded as a consistency lower bound.
    """
    eta = homogeneous_rep(n, m, w)
    gens = homogeneous_generating_set(eta, n, m).nontrivial()

    ech = Echelon()
    ident = qo.identity_operator(eta.signature)
    ech.add(qo.monomial_decomposition(ident, q))
    frontier = [ident]
    values = [(0, len(ech))]
    for r in range(1, r_max + 1):
        new_frontier = []
        for cand in (qo.compose(g, word) for word in frontier for g in gens):
            fp = qo.monomial_decomposition(cand, q)
            if not fp:
                continue
            if ech.add(fp) is not None:
                new_frontier.append(cand)
                if len(ech) > basis_cap:
                    partial = GrowthSeries(
                        {"kind": "homogeneous", "n": n, "m": m},
                        values, [f"budget exceeded at step {r}"])
                    raise BudgetExceeded(
                        f"operator basis exceeded {basis_cap}", partial)
        frontier = new_frontier
        values.append((r, len(ech)))

    flags = []
    probe_values = _probe_rank_series(gens, eta.signature, r_max, q,
                                      probe_cutoff, basis_cap)
    for (r, d), (rp, dp) in zip(values, probe_values):
        if dp > d:
            flags.append(f"probe rank {dp} exceeds structural rank {d} at r={r}")
    series = GrowthSeries({"kind": "homogeneous", "n": n, "m": m,
                           "word": list(weylb.normal_form(w).word()),
                           "probe_cutoff": probe_cutoff,
                           "probe_values": probe_values},
                          values, flags)
    return series


def algebra_container_bound(n: int, m: int, w: SignedPermutation, r: int) -> int:
    """Per-slot container count: each circle slot contributes 2r+1 shift
    powers; a shift slot driven by a low letter contributes (r+1)^2
    normal-ordered monomials, a middle-letter slot (2r+1)^2."""
    word = weylb.normal_form(w).word()
    count = (2 * r + 1) ** (n - m + 1)
    for letter in word:
        if letter < n:
            count *= (r + 1) ** 2
        else:
            count *= (2 * r + 1) ** 2
    return count


def homogeneous_certificate(n: int, m: int, r_max: int, q: float,
                            probe_cutoff: int = 4, basis_cap: int = 20000,
                            witness_budget: int = 4
                            ) -> tuple[GrowthSeries, GrowthCertificate]:
    """Witness/rank certificate for the homogeneous-space growth.

    The target exponent is the classical quotient dimension
    2*length + n - m + 1.  For each sampled r the certificate checks the
    witness-rank lower bound binom(r + target - 1, r)/2 within word length
    A r, and the container upper bound on the measured series.
    """
    R = ParabolicSubset.homogeneous(n, m)
    w = weylb.longest_quotient_element(n, R)
    lw = weylb.length(w)
    target = 2 * lw + n - m + 1
    dims = weylb.classical_dimensions(n, m)
    if target != dims["quotient_dim"]:
        raise AssertionError("target exponent disagrees with the dimension count")

    wit = verify_homogeneous_witnesses(n, m, w, q, budget=witness_budget)
    if not wit["ok"]:
        raise CertificateFailure(f"witness verification failed: {wit['failures'][:3]}")

    families = homogeneous_witnesses(n, m, w, q)
    A = 2 if any(f["h"] for f in families) else 1

    series = algebra_growth(n, m, w, r_max, q, probe_cutoff=probe_cutoff,
                            basis_cap=basis_cap)
    d = dict(series.values)

    rows = []
    ech = Echelon()
    count = 0
    eta_sig = homogeneous_rep(n, m, w).signature
    for r in range(0, r_max + 1):
        # witness words with total exponent <= r have length <= A r;
        # their structural rank lower-bounds the span of words of that length
        for pattern in _homogeneous_patterns(families, r):
            word_op = _pattern_word_operator(families, pattern, eta_sig)
            fp = qo.monomial_decomposition(word_op, q)
            if fp and ech.add(fp) is not None:
                count += 1
        needed = math.ceil(math.comb(r + target - 1, r) / 2)
        container = algebra_container_bound(n, m, w, r)
        ok = count >= needed and d[r] <= container
        rows.append({"r": r, "d": d[r], "lower": needed, "witness_rank": count,
                     "upper": container, "ok": ok})
    est = exponent_estimate(series) if r_max >= 3 else {"log_ratio": 0.0,
                                                        "slope": 0.0}
    cert = GrowthCertificate(target, rows, True, est)
    return series, cert


def _pattern_word_operator(families: list[dict], pattern: dict,
                           signature: tuple[str, ...]) -> TensorOperator:
    """The composed operator of one witness pattern (innermost first)."""
    word = []
    for fam in families:
        r0, _ = pattern[fam["part_index"]]
        word.extend([fam["h0"]] * r0)
    for fam in families:
        _, pairs = pattern[fam["part_index"]]
        sigma = fam["sigma"]
        for j in range(len(pairs), 0, -1):
            r_e, p_e = pairs[sigma[j - 1] - 1]
            word.extend([fam["h"][j - 1]] * r_e)
            word.extend([fam["h_star"][j - 1]] * p_e)
    op = qo.identity_operator(signature)
    for g in word:
        op = qo.compose(g, op)
    return op
