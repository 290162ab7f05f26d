"""Span-growth engine and growth certificates.

One span engine computes every series.  It iterates a frontier: every
generator acts on the newest basis elements of the span of words applied
to a start element, and the results are rank-reduced by sparse Gaussian
elimination with a canonical pivot order.  Module growth runs it on
vectors, from the vacuum, through a kernel compiled once per run at fixed
q: basis indices are flat integers, every coefficient is evaluated once,
and a block of frontier vectors is expanded by gather and scatter-add,
with the rounding, the index order and the exact-zero drop of
apply_operator.  elimination.WeightEchelon reduces the kernel's images a
chunk at a time, split by torus-weight class, with exactly Echelon's float
operations; Echelon's REL_TOL is the one place that judges float noise.
Algebra growth runs it on the monomial expansions of operator words, each
expanded from its parent's, one letter shorter, and never composed; their
rank under Echelon is exact because the monomials are structurally
independent.  It runs once more on the action of the words on the probe
vectors, on the same kernel and eliminator: circle slots take negative
indices, and one frontier element stacks a word's images of all probes.
That rank is a lower bound on the structural one, checked row by row.

Lower bounds are certified by explicit witness words.  A witness system is
a list of letters (operator, slot, step) that raise or lower one tensor
slot each: single generator images, recovered part by part through the
embedding maps, in the module case; the circle driver h0 and the pairs
h_j = h0* g, h_j* in the homogeneous case.  One walk enumerates the
exponent patterns with their predicted basis index and computes each
pattern's word from its parent, one letter shorter.  verify_witnesses walks
with symbolic apply_operator from the vacuum, independent of the kernel,
and checks that each word's image is supported on exactly its index; the
patterns are counted (the lower bound) and, in the homogeneous case,
walked on monomial expansions and ranked.  Upper bounds come from the
window read off the table, prod_s (D_s r + 1) with D_s the largest shift
on slot s (module case), and a per-slot container count (algebra case).
Both certificates build their rows in one place, and a failing row names
its failed checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import diagrams, qoperators as qo, repsoq, weylb
from .qoperators import SparseVector, TensorOperator
from .repsoq import GeneratorImageTable, RepSpec
from .weylb import ParabolicSubset, SignedPermutation


class BudgetExceeded(RuntimeError):
    """The basis grew past the configured cap; carries the partial series."""

    def __init__(self, message: str, partial: "GrowthSeries | None" = None):
        super().__init__(message)
        self.partial = partial


# ---------------------------------------------------------------------------
# deterministic sparse rank maintenance
# ---------------------------------------------------------------------------

class Echelon:
    """Row echelon over sparse vectors keyed by a canonical index order.

    Pivots are maximal keys under tuple comparison; a candidate whose
    residual drops below REL_TOL times its own scale is dependent.
    """

    REL_TOL = 1e-8

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


def _span_series(first, expand, independent, r_max: int, basis_cap: int,
                 context: dict) -> GrowthSeries:
    """Rank series of the span of words of length <= r applied to a start.

    first is a batch holding the start alone.  expand(frontier) yields, in
    batches, the image of every frontier element under every generator, in
    (element, generator) order; independent(batches) reduces their
    candidates in that order against the span so far and yields the ones
    that join it, in order: the next frontier.  Past basis_cap the series up
    to the previous step rides on the BudgetExceeded error.
    """
    frontier = list(independent([first]))
    rank = len(frontier)
    values = [(0, rank)]
    for r in range(1, r_max + 1):
        new_frontier = []
        for out in independent(expand(frontier)):
            new_frontier.append(out)
            if rank + len(new_frontier) > basis_cap:
                raise BudgetExceeded(
                    f"basis size exceeded {basis_cap} at step {r}",
                    GrowthSeries(context, values,
                                 [f"budget exceeded at step {r}"]))
        frontier = new_frontier
        rank += len(frontier)
        values.append((r, rank))
    return GrowthSeries(context, values)


def module_generators(table: GeneratorImageTable) -> list[TensorOperator]:
    """All nonzero generator images, in (row, column) order."""
    return [op for _, op in sorted(table.images.items())]


def homogeneous_generators(eta: GeneratorImageTable, n: int, m: int
                           ) -> list[TensorOperator]:
    """Images of the restricted row set, each followed by its involute."""
    rows = set(zeta_rows(n, m))
    gens = []
    for (k, l), op in sorted(eta.images.items()):
        if k not in rows:
            raise ValueError(f"row {k} is outside the restricted row set")
        gens += [op, qo.adjoint(op)]
    return gens


# (frontier entry, term combination) cells per numpy pass: bounds the
# temporaries while keeping the per-pass overhead small
_BLOCK_CELLS = 8192


class ModuleKernel:
    """The generators of a module at fixed q, compiled for the span series.

    Slot s of a basis index reached from indices in 0..reach by words of
    length <= r_max lies in lo_s..hi_s, with hi_s = reach + D_s r_max and
    D_s the largest shift the generators make there; lo_s is -D_s r_max on
    a Z (circle) slot and 0 on an N slot.  The index is encoded as one
    integer in mixed radix hi_s - lo_s + 1 on the digits k_s - lo_s, slot 0
    most significant, so integer order is tuple order and Echelon pivots as
    it does on tuples.  A frontier element is a pair (keys, amplitudes) of
    arrays holding a stack of `probes` vectors, probe i offset by i times
    the window size; a module series stacks one vector, the vacuum, with
    reach 0.  batches applies every generator to a block of elements at once
    by gather, shift and scatter-add over the compiled table and returns the
    block's images as one batch (bounds, keys, amplitudes), image i being
    keys[bounds[i]:bounds[i+1]]; WeightEchelon reduces them batch by batch.
    Each stacked image equals apply_operator's images of the stacked
    vectors: the same nonzero entries in index order, rounded the same way;
    only exact zeros are dropped.
    """

    def __init__(self, gens: list[TensorOperator], q: float, r_max: int,
                 reach: int = 0, probes: int = 1):
        self.signature = gens[0].signature
        self.shift_bounds = qo.shift_bounds(gens)
        self.circle = [kind == qo.BILATERAL for kind in self.signature]
        self.lows = [-d * r_max if z else 0
                     for d, z in zip(self.shift_bounds, self.circle)]
        self.radices = [reach + d * r_max - lo + 1
                        for d, lo in zip(self.shift_bounds, self.lows)]
        self.size = math.prod(self.radices)
        self.probes = probes
        self.n_gens = len(gens)
        # block composite keys (candidate, probe, index) must fit in int64;
        # a block holds at most _BLOCK_CELLS elements
        if _BLOCK_CELLS * self.n_gens * probes * self.size > \
                np.iinfo(np.int64).max:
            raise ValueError(
                f"{probes} stacked index spaces of {self.size} keys are too "
                f"large for int64 block keys at r_max={r_max}")
        self.strides = [math.prod(self.radices[s + 1:])
                        for s in range(len(self.radices))]
        ks = range(min(self.lows, default=0),
                   max((lo + b for lo, b in zip(self.lows, self.radices)),
                       default=1))
        self.table = qo.compile_table(gens, q, ks)
        # coefficient column of digit 0 on each slot
        self._columns = [lo - ks.start for lo in self.lows]
        self._shift_key = self.table.shift @ np.array(self.strides,
                                                      dtype=np.int64)
        self._block_entries = max(1, _BLOCK_CELLS // len(self._shift_key))
        self._has_nan = bool(np.isnan(self.table.coefficients).any())

    def encode(self, *vectors: SparseVector) -> tuple[np.ndarray, np.ndarray]:
        """The frontier element of a stack of vectors inside the window."""
        if len(vectors) != self.probes:
            raise ValueError(f"expected a stack of {self.probes} vectors, "
                             f"got {len(vectors)}")
        keys, amps = [], []
        for i, vec in enumerate(vectors):
            if vec.signature != self.signature:
                raise ValueError("signature mismatch")
            for index, amp in vec.entries.items():
                digits = [k - lo for k, lo in zip(index, self.lows)]
                if not all(0 <= d < b for d, b in zip(digits, self.radices)):
                    raise ValueError(f"index {index} is outside the window "
                                     f"from {self.lows} of {self.radices}")
                keys.append(i * self.size
                            + sum(d * st for d, st in zip(digits, self.strides)))
                amps.append(amp)
        return np.array(keys, dtype=np.int64), np.array(amps, dtype=complex)

    def _digits(self, keys: np.ndarray) -> list[np.ndarray]:
        return [keys // stride % radix
                for stride, radix in zip(self.strides, self.radices)]

    def indices(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The probe and the basis index (one row each) of stacked keys."""
        digits = np.array(self._digits(keys), dtype=np.int64)
        return (keys // self.size,
                digits.reshape(len(self.radices), len(keys)).T
                + np.array(self.lows, dtype=np.int64))

    def batches(self, frontier):
        """Yield the images of every frontier element under every
        generator, in (element, generator) order, one batch per block."""
        block, entries = [], 0
        for x in frontier:
            if block and entries + len(x[0]) > self._block_entries:
                yield self._expand_block(block)
                block, entries = [], 0
            block.append(x)
            entries += len(x[0])
        if block:
            yield self._expand_block(block)

    def _expand_block(self, block):
        t = self.table
        keys = np.concatenate([k for k, _ in block])
        amps = np.concatenate([a for _, a in block])
        owner = np.repeat(np.arange(len(block)), [len(k) for k, _ in block])
        digits = self._digits(keys)
        for k, radix, d, z in zip(digits, self.radices, self.shift_bounds,
                                  self.circle):
            if (k >= radix - d).any() or (z and (k < d).any()):
                raise ValueError("a frontier index has images outside the "
                                 "window; expand only words of length < "
                                 "r_max")
        columns = [k + off if off else k
                   for k, off in zip(digits, self._columns)]
        # (entry, combination) cells whose target index exists on every
        # slot; on a Z slot every target exists
        live = np.ones((len(keys), len(t.scalar)), dtype=bool)
        for s, (k, col, z) in enumerate(zip(digits, columns, self.circle)):
            reached = True if z else k[:, None] >= t.shift[:, s]
            # apply_operator evaluates every coefficient whose slot target
            # exists, so a NaN there is a domain error
            if self._has_nan and np.isnan(
                    t.coefficients[t.term[:, s], col[:, None]][reached]).any():
                raise qo.QDomainError(
                    f"negative radicand exponent on slot {s} in the window")
            live &= reached
        e, c = np.nonzero(live)
        # products in apply_operator's order, in real arithmetic, which
        # rounds as Python's complex product does; as in apply_index, a path
        # through a vanishing coefficient adds nothing
        a_re, a_im, s_re, s_im = (amps.real[e], amps.imag[e],
                                  t.scalar.real[c], t.scalar.imag[c])
        re, im = a_re * s_re - a_im * s_im, a_re * s_im + a_im * s_re
        nonzero = np.ones(len(e), dtype=bool)
        for s, col in enumerate(columns):
            rows, cols = t.term[c, s], col[e]
            c_re = t.coefficients.real[rows, cols]
            c_im = t.coefficients.imag[rows, cols]
            nonzero &= (c_re != 0) | (c_im != 0)
            re, im = re * c_re - im * c_im, re * c_im + im * c_re
        e, c, re, im = e[nonzero], c[nonzero], re[nonzero], im[nonzero]
        # scatter-add per (candidate, probe, target), each target's terms in
        # input order like a dict; key order is index order within an image,
        # as apply_operator returns it; the probe offset rides in the keys
        stack = self.probes * self.size
        cand = owner[e] * self.n_gens + t.operator[c]
        uniq, inv = np.unique(cand * stack + keys[e] - self._shift_key[c],
                              return_inverse=True)
        sums = np.bincount(inv, weights=re, minlength=len(uniq)) + 0j
        sums.imag = np.bincount(inv, weights=im, minlength=len(uniq))
        # only exact zeros go, as in apply_operator
        keep = sums != 0
        uniq, sums = uniq[keep], sums[keep]
        bounds = np.searchsorted(
            uniq, np.arange(len(block) * self.n_gens + 1) * stack)
        return bounds, uniq % stack, sums


def _kernel_span_series(kernel: ModuleKernel, start, r_max: int,
                        basis_cap: int, context: dict) -> GrowthSeries:
    """_span_series of the frontier element start on the kernel."""
    # imported on first use: runs without a kernel series never compile it
    from .elimination import WeightEchelon
    keys, amps = start
    return _span_series((np.array([0, len(keys)]), keys, amps),
                        kernel.batches, WeightEchelon(kernel, start).independent,
                        r_max, basis_cap, context)


def _module_series(spec: RepSpec, r_max: int, q: float, basis_cap: int
                   ) -> tuple[ModuleKernel, GrowthSeries]:
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    kernel = ModuleKernel(module_generators(repsoq.rep_table(spec)), q, r_max)
    return kernel, _kernel_span_series(
        kernel, kernel.encode(qo.vacuum(kernel.signature)), r_max, basis_cap,
        {"kind": "module", "n": spec.n, "word": list(spec.word)})


def module_growth(spec: RepSpec, r_max: int, q: float,
                  basis_cap: int = 20000) -> GrowthSeries:
    """Dimension series of span{words of length <= r applied to the vacuum}."""
    return _module_series(spec, r_max, q, basis_cap)[1]


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


# ---------------------------------------------------------------------------
# witness letters: one pattern walk, one verifier
# ---------------------------------------------------------------------------

# A witness letter (operator, slot, step) moves the index of one tensor slot
# by step: +1 raising, -1 lowering.  A witness system is a list of letters
# in application order.
Letter = tuple[TensorOperator, int, int]


def _part_witness_columns(r: int, i: int) -> tuple[list[int], list[int]]:
    """Column indices (row 2i+1) and slot permutation for a depth-i part."""
    if r >= i:
        k = 2 * i - r
        cols = [2 * i - j + 2 if j <= k - 1 else j + 1 for j in range(1, r + 1)]
        sigma = [2 * i - j if k <= j <= r else j for j in range(1, r + 1)]
    else:
        cols = [2 * i - j + 2 for j in range(1, r + 1)]
        sigma = list(range(1, r + 1))
    return cols, sigma


def witness_chain(w: SignedPermutation, n: int) -> list[Letter]:
    """Raising letters for all nonempty parts of w, on the word table.

    The depth-i part uses row n+i+1 and the embedding-map relabeling of
    the depth-i columns.  Parts go in ascending order; within a part the
    letters go in descending column order, letter j raising slot sigma(j)
    while the later slots of the part still hold the vacuum, which steers
    the part to an arbitrary lattice point.
    """
    table = repsoq.rep_table(RepSpec(n, weylb.normal_form(w).word()))
    letters, offset = [], 0
    for i, part in enumerate(weylb.parts(w), start=1):
        if not part:
            continue
        cols, sigma = _part_witness_columns(len(part), i)
        lam = diagrams.embedding_chain(w, i)
        for j in range(len(part), 0, -1):
            letters.append((table.entry(n + i + 1, lam(cols[j - 1] + n - i)),
                            offset + sigma[j - 1] - 1, 1))
        offset += len(part)
    return letters


def _compositions(slots: int, total: int):
    """All tuples of `slots` naturals with the given sum, lexicographic."""
    if slots <= 1:
        if slots == 1 or total == 0:
            yield (total,) * slots
        return
    for v in range(total + 1):
        for rest in _compositions(slots - 1, total - v):
            yield (v,) + rest


def _witness_walk(letters: list[Letter], signature: tuple[str, ...],
                  budget: int, start, act):
    """Yield (exponents, predicted index, value) for every exponent pattern
    of total <= budget whose predicted index is >= 0 on every N slot, totals
    ascending, lexicographic within a total.

    Letter e acts exponents[e] times, letters in order, and adds step times
    its exponent to the predicted index of its slot.  The empty pattern's
    value is start; any other is act(op, value of its parent), the pattern
    with one use fewer of its last letter, whose operator is op.  A parent
    is admissible when each lowering letter follows its slot's raising
    letter; a missing one raises ValueError.
    """
    previous = {(0,) * len(letters): start}
    yield (0,) * len(letters), (0,) * len(signature), start
    for total in range(1, budget + 1):
        current = {}
        for exps in _compositions(len(letters), total):
            index = [0] * len(signature)
            for (_, slot, step), e in zip(letters, exps):
                index[slot] += step * e
            if any(v < 0 for v, kind in zip(index, signature) if kind == "N"):
                continue
            last = max(e for e, x in enumerate(exps) if x)
            parent = exps[:last] + (exps[last] - 1,) + exps[last + 1:]
            if parent not in previous:
                raise ValueError(f"witness pattern {exps} has no "
                                 f"admissible parent {parent}")
            current[exps] = act(letters[last][0], previous[parent])
            yield exps, tuple(index), current[exps]
        previous = current


def _lifted(vec: SparseVector) -> SparseVector:
    """vec times the power of two that brings its largest real or imaginary
    part up into [1, 2) when it is below 1: exact, so no support changes."""
    top = max((max(abs(a.real), abs(a.imag)) for a in vec.entries.values()),
              default=1.0)
    if top >= 1.0:
        return vec
    scale = math.ldexp(1.0, 1 - math.frexp(top)[1])
    return SparseVector(vec.signature,
                        {k: a * scale for k, a in vec.entries.items()})


def verify_witnesses(letters: list[Letter], signature: tuple[str, ...],
                     q: float, budget: int = 4) -> dict:
    """Check that every witness pattern of total <= budget lands on its
    predicted basis vector: the image's support is that one index, with no
    other entry however small, on images _lifted so that none underflows.
    A failure records the image's indices."""
    report = {"patterns": 0, "failures": []}
    for exps, index, vec in _witness_walk(
            letters, signature, budget, qo.vacuum(signature),
            lambda op, v: _lifted(qo.apply_operator(op, v, q))):
        report["patterns"] += 1
        if list(vec.entries) != [index]:
            report["failures"].append({"exponents": exps, "index": index,
                                       "support": list(vec.entries)})
    report["ok"] = not report["failures"]
    return report


@dataclass
class GrowthCertificate:
    target: int
    rows: list[dict]
    witness_ok: bool
    estimate: dict

    @property
    def ok(self) -> bool:
        return self.witness_ok and all(row["ok"] for row in self.rows)


# witness patterns of total <= this land in every certificate, whatever r_max
_WITNESS_BUDGET = 4


def _certificate(series: GrowthSeries, target: int, letters: list[Letter],
                 signature: tuple[str, ...], q: float, row
                 ) -> GrowthCertificate:
    """The certificate of series: row r holds r, d and the columns of
    row(r, d), and is ok when row(r, d)'s named checks hold and every
    witness pattern of total <= r lands (`landing`); a failing row lists
    its failed checks under `why`."""
    r_max = series.values[-1][0]
    report = verify_witnesses(letters, signature, q,
                              max(r_max, _WITNESS_BUDGET))
    first_failure = min((sum(f["exponents"]) for f in report["failures"]),
                        default=math.inf)
    rows = []
    for r, d in series.values:
        columns, checks = row(r, d)
        why = [name for name, ok in
               {"landing": first_failure > r, **checks}.items() if not ok]
        rows.append({"r": r, "d": d, **columns, "ok": not why,
                     **({"why": why} if why else {})})
    est = exponent_estimate(series) if r_max >= 3 else {"log_ratio": 0.0,
                                                        "slope": 0.0}
    return GrowthCertificate(target, rows, first_failure > _WITNESS_BUDGET,
                             est)


def module_certificate(spec: RepSpec, r_max: int, q: float,
                       basis_cap: int = 20000
                       ) -> tuple[GrowthSeries, GrowthCertificate]:
    """Sandwich certificate for the module growth of one element.

    The series and the witnesses are both computed on the canonical
    reduced word of the element, so the raising letters line up with the
    tensor slots.  Each witness of total s is a word of s generator images
    (A = 1), so the patterns of total <= r put binom(r + l, l) distinct
    basis vectors into the span of words of length <= r.  The r = 0 row
    alone pins no growth degree, so r_max must be >= 1.
    """
    if r_max < 1:
        raise ValueError(f"a certificate needs r_max >= 1, got {r_max}")
    n = spec.n
    w = weylb.from_word(spec.word, n)
    lw = weylb.length(w)
    if lw != len(spec.word):
        raise ValueError("word is not reduced; certificate needs a reduced word")
    canonical = RepSpec(n, weylb.normal_form(w).word(), spec.t)
    kernel, series = _module_series(canonical, r_max, q, basis_cap)
    series.context["input_word"] = list(spec.word)

    def row(r, d):
        lower = math.comb(r + lw, lw)
        upper = math.prod(s * r + 1 for s in kernel.shift_bounds)
        return ({"lower": lower, "upper": upper},
                {"lower": lower <= d, "upper": d <= upper})

    return series, _certificate(series, lw, witness_chain(w, n), ("N",) * lw,
                                q, row)


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


def homogeneous_witnesses(n: int, m: int, w: SignedPermutation) -> list[Letter]:
    """Raising/lowering letters of the homogeneous realisation.

    For each depth i from m to n, h0 raises the circle slot n-i+1; all h0
    letters come first.  Then, part by part in descending column order,
    each part slot gets h_j = h0* composed with its raising image, followed
    by the lowering letter h_j*.
    """
    eta = homogeneous_rep(n, m, w)
    part_words = weylb.parts(w)
    circle, pairs, offset = [], [], n - m + 1
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
        diag_cols = [l for l, op in rank_table.row(2 * i + 1)
                     if all(d == 0 for _, factors in op.summands
                            for f in factors for d, _ in f.terms)]
        if len(diag_cols) != 1:
            raise AssertionError(f"expected one diagonal column, got {diag_cols}")
        h0 = eta.entry(n + i + 1, lam(diag_cols[0] + shift))
        circle.append((h0, n - i, 1))
        cols, sigma = _part_witness_columns(r, i)
        h0_star = qo.adjoint(h0)
        for j in range(r, 0, -1):
            h = qo.compose(h0_star,
                           eta.entry(n + i + 1, lam(cols[j - 1] + shift)))
            slot = offset + sigma[j - 1] - 1
            pairs += [(h, slot, 1), (qo.adjoint(h), slot, -1)]
        offset += r
    return circle + pairs


# ---------------------------------------------------------------------------
# algebra growth by exact structural fingerprints
# ---------------------------------------------------------------------------

def _probe_rank_series(gens: list[TensorOperator], q: float, r_max: int,
                       probe_cutoff: int, basis_cap: int, context: dict
                       ) -> list[tuple[int, int]]:
    """Rank series of the words' action on the probe vectors e_p, p >= 0
    with index sum <= probe_cutoff.  A word's element stacks its images of
    all probes in the kernel, probe-major, so its fingerprint is keyed by
    (probe, index)."""
    sig = gens[0].signature
    probes = [qo.basis_vector(sig, p) for p in sorted(
        p for t in range(probe_cutoff + 1) for p in _compositions(len(sig), t))]
    kernel = ModuleKernel(gens, q, r_max, reach=probe_cutoff,
                          probes=len(probes))
    return _kernel_span_series(kernel, kernel.encode(*probes), r_max,
                               basis_cap, context).values


def algebra_growth(n: int, m: int, w: SignedPermutation, r_max: int, q: float,
                   probe_cutoff: int = 4, basis_cap: int = 20000
                   ) -> GrowthSeries:
    """Rank series of the span of operator words of length <= r.

    The rank is computed exactly from the structural monomial expansion of
    each word, expanded from its parent's, one letter shorter, without
    composing operators.  The rank of the words' action on the probe
    vectors with index sum <= probe_cutoff is recorded as a consistency
    lower bound; past basis_cap it keeps its completed steps and a flag.
    """
    eta = homogeneous_rep(n, m, w)
    gens = homogeneous_generators(eta, n, m)
    context = {"kind": "homogeneous", "n": n, "m": m}
    values = _span_series(
        [qo.monomial_decomposition(qo.identity_operator(eta.signature), q)],
        lambda frontier: ([qo.monomial_decomposition(g, q, x) for g in gens]
                          for x in frontier),
        Echelon().independent, r_max, basis_cap, context).values
    try:
        probe_values, flags = _probe_rank_series(
            gens, q, r_max, probe_cutoff, basis_cap, context), []
    except BudgetExceeded as exc:
        probe_values, flags = exc.partial.values, [f"probe {exc}"]
    context.update(word=list(weylb.normal_form(w).word()),
                   probe_cutoff=probe_cutoff, probe_values=probe_values)
    return GrowthSeries(context, values, flags)


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
                            probe_cutoff: int = 4, basis_cap: int = 20000
                            ) -> tuple[GrowthSeries, GrowthCertificate]:
    """Witness/rank certificate for the homogeneous-space growth.

    The target exponent is the classical quotient dimension
    2*length + n - m + 1, the number of witness letters.  Each witness of
    total s is a word of at most 2s generators (h_j = h0* g), so the
    admissible patterns of total <= r, once their words are independent,
    put that many independent words of length <= 2r into the span: a lower
    bound of degree target.  Row r checks that the witness rank equals that
    count and that d lies between the probe rank and the container bound
    (`probe` fails where the probe series stopped at the cap).
    """
    if r_max < 1:
        raise ValueError(f"a certificate needs r_max >= 1, got {r_max}")
    w = weylb.longest_quotient_element(n, ParabolicSubset.homogeneous(n, m))
    lw = weylb.length(w)
    target = 2 * lw + n - m + 1
    if target != weylb.classical_dimensions(n, m)["quotient_dim"]:
        raise AssertionError("target exponent disagrees with the dimension count")

    series = algebra_growth(n, m, w, r_max, q, probe_cutoff=probe_cutoff,
                            basis_cap=basis_cap)
    letters = homogeneous_witnesses(n, m, w)
    sig = letters[0][0].signature
    probe = dict(series.context["probe_values"])
    # totals ascend: a total's last pattern sees every pattern up to it
    ech, lower, rank = Echelon(), {}, {}
    for count, (exps, _, fp) in enumerate(_witness_walk(
            letters, sig, r_max,
            qo.monomial_decomposition(qo.identity_operator(sig), q),
            lambda op, x: qo.monomial_decomposition(op, q, x)), start=1):
        ech.add(fp)
        lower[sum(exps)], rank[sum(exps)] = count, len(ech)

    def row(r, d):
        upper = algebra_container_bound(n, m, w, r)
        return ({"lower": lower[r], "witness_rank": rank[r], "upper": upper},
                {"upper": d <= upper, "witness_rank": rank[r] == lower[r],
                 "probe": r in probe and probe[r] <= d})

    return series, _certificate(series, target, letters, sig, q, row)
