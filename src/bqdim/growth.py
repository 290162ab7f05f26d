"""Span-growth engine and growth certificates.

One span engine computes every series.  It iterates a frontier: every
generator acts on the newest basis elements of the span of words applied
to a start element, and the results are rank-reduced with a canonical
pivot order.  The generators are compiled once per run at fixed q into
per-slot transition tables over integer slot digits, and one routine
expands a block of frontier elements by gather and scatter-add, each
image's keys ascending.  A key packs its slot digits in mixed radix where
block keys of the whole index space fit int64; past that (as for the
(4, 2) and (4, 1) series at r_max = 2, and the witness walks of (4, 3)
at r_max = 2 and (3, 1) at r_max = 3) it is an interned id of the packed
digits of slot groups.  Module
growth runs it on vectors from the vacuum (ModuleKernel): a slot term is
one term of a factor, with one output, its coefficient evaluated once per
index; the images carry the rounding, the index order and the exact-zero
drop of apply_operator.  Algebra growth runs it on the monomial
expansions of operator words from the identity's (MonomialKernel): a slot
term is a whole factor, whose outputs are the monomials of its product
with the slot key; each word expands from its parent's, one letter
shorter, never composed, bit for bit as monomial_decomposition expands it.
elimination.WeightEchelon reduces the images a chunk at a time, split by
torus-weight class, and its REL_TOL is the one place that judges float
noise, so every rank is a float rank.  Both run in real float64 and
refuse a complex value: a torus point only rescales generator rows by
unit scalars, so every module series is built at t = 1.  Algebra growth
runs the span once more on the action of the words on the probe vectors, on the module
kernel: circle slots take negative indices, and one frontier element
stacks a word's images of all probes.  That rank is a lower bound on the
structural one, checked row by row.

Lower bounds are certified by explicit witness words.  A witness system is
a list of letters (operator, slot, step) that raise or lower one tensor
slot each: single generator images, recovered part by part through the
embedding maps, in the module case; the circle driver h0 and the pairs
h_j = h0* g, h_j* in the homogeneous case.  _witness_levels enumerates
the exponent patterns, total by total, with their predicted basis index
and their parent, one letter shorter, from whose word each pattern's word
is computed.  verify_witnesses computes the words' images with symbolic
apply_operator from the vacuum, independent of the kernels, and checks
that each is supported on exactly its index; the patterns are counted
(the lower bound) and, in the homogeneous case, walked on a monomial
kernel of the letters and ranked.  Upper bounds come from the window read
off the table, prod_s (D_s r + 1) with D_s the largest shift on slot s
(module case), and a per-slot container count (algebra case).  Both
certificates build their rows in one place, and a failing row names its
failed checks.
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
# growth series
# ---------------------------------------------------------------------------

@dataclass
class GrowthSeries:
    context: dict
    values: list[tuple[int, int]]
    flags: list[str] = field(default_factory=list)

    def dims(self) -> list[int]:
        return [d for _, d in self.values]


def _span_series(kernel: _SlotKernel, start, r_max: int, basis_cap: int,
                 context: dict) -> GrowthSeries:
    """Rank series of the span of words of length <= r applied to start.

    start is one frontier element of the kernel.  Each step expands the
    newest basis elements under every generator and reduces the images in
    (element, generator) order against the span so far; the ones that join
    it are the next frontier.  Past basis_cap the series up to the previous
    step rides on the BudgetExceeded error.
    """
    # imported on first use: runs without a series never compile it
    from .elimination import WeightEchelon
    independent = WeightEchelon(kernel, start).independent
    frontier = list(independent([(np.array([0, len(start[0])]), *start)]))
    rank = len(frontier)
    values = [(0, rank)]
    for r in range(1, r_max + 1):
        new_frontier = []
        for out in independent(kernel.batches(frontier)):
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


# (frontier entry, term combination) cells per numpy pass, and terms per
# run of a block's expansion: bound the temporaries while keeping the
# per-pass overhead small
_BLOCK_CELLS = 8192
_EXPAND_TERMS = 1 << 19
# block keys (candidate, probe, key) at most this large hold the whole
# index space; past it a kernel interns the keys it reaches, chaining the
# codes of slot groups of at most _GROUP_CODES keys through ids below
# _IDS, so that id * codes + code and a block key candidate * _IDS + id
# still fit int64
_DENSE_KEYS = np.iinfo(np.int64).max
_GROUP_CODES = 1 << 32
_IDS = 1 << 31


def _ranges(starts: np.ndarray | int, lengths: np.ndarray) -> np.ndarray:
    """The concatenation of range(s, s + n) over starts and lengths."""
    ends = np.cumsum(lengths)
    total = ends[-1] if len(ends) else 0
    return np.repeat(starts - ends + lengths, lengths) + np.arange(total)


def _groups(sizes: np.ndarray, limit: int):
    """Yield (start, stop) of consecutive runs of sizes that sum to at most
    limit, or hold one item."""
    ends = np.cumsum(sizes)
    i = 0
    while i < len(ends):
        j = max(i + 1, int(np.searchsorted(
            ends, (ends[i - 1] if i else 0) + limit, "right")))
        yield i, j
        i = j


class _Ids:
    """Ids of int64 codes, numbered as they are first seen (codes first
    seen in one call in code order); codes[i] is the code of id i."""

    def __init__(self):
        self.codes = np.zeros(0, dtype=np.int64)
        self._sorted = np.zeros(0, dtype=np.int64)
        self._order = np.zeros(0, dtype=np.int64)

    def find(self, codes: np.ndarray) -> np.ndarray:
        """The ids of codes, -1 for a code never seen; interns nothing."""
        at = np.searchsorted(self._sorted, codes)
        seen = at < len(self._sorted)
        seen[seen] = self._sorted[at[seen]] == codes[seen]
        ids = np.full(len(codes), -1, dtype=np.int64)
        ids[seen] = self._order[at[seen]]
        return ids

    def __call__(self, codes: np.ndarray) -> np.ndarray:
        """The ids of codes, new ones interned."""
        ids = self.find(codes)
        unseen = ids < 0
        if unseen.any():
            # a bare np.unique imports numpy.ma (numpy 2.4); test_cli bars it
            fresh = np.unique(codes[unseen], return_inverse=True)[0]
            n = len(self.codes)
            if n + len(fresh) > _IDS:
                raise ValueError(f"more than {_IDS} interned keys are too "
                                 f"many for int64 block keys")
            self.codes = np.concatenate([self.codes, fresh])
            at = np.searchsorted(self._sorted, fresh)
            self._sorted = np.insert(self._sorted, at, fresh)
            self._order = np.insert(self._order, at,
                                    np.arange(n, n + len(fresh)))
            ids[unseen] = self._order[np.searchsorted(self._sorted,
                                                      codes[unseen])]
        return ids


class _SlotTable:
    """One slot's transitions at fixed q, from dense (term, digit) counts and
    (term, digit, output) target digits and real values.  Cell t * digits + k
    holds slot term t on digit k: count[cell] outputs, output j at
    cell * width + j, which moves the slot's group code by step and
    multiplies by value.  offset holds each combination's term at digit
    0, inside marks the digits whose outputs all lie in the window, bad the
    cells where Coefficient.evaluate raises although the target exists
    (None for no such cell), and index maps a digit to its torus index."""

    def __init__(self, term, count, target, value, inside, bad, index,
                 stride: int):
        digits = len(inside)
        self.offset = np.asarray(term, dtype=np.int64) * digits
        self.count = count.ravel()
        self.width = value.shape[2]
        self.step = ((target - np.arange(digits)[None, :, None])
                     * stride).ravel()
        self.value = _real(value).ravel()
        self.inside = inside
        self.bad = bad.ravel() if bad is not None and bad.any() else None
        self.index = np.asarray(index, dtype=np.int64)


def _real(values) -> np.ndarray:
    """values as float64, refusing a nonzero imaginary part rather than
    truncating it; NaN, the mark of a domain error, passes."""
    values = np.asarray(values)
    if (np.abs(values.imag) > 0).any():
        raise ValueError("a kernel value has a nonzero imaginary part")
    return np.asarray(values.real, dtype=float)


def _lattice(gens: list[TensorOperator], slots: int) -> np.ndarray:
    """Integer rows spanning the differences between the shift vectors of
    the term combinations of each generator."""
    rows = []
    for op in gens:
        leads = [[f.terms[0][0] for f in fs] for _, fs in op.summands]
        for lead, (_, fs) in zip(leads, op.summands):
            rows.append([a - b for a, b in zip(lead, leads[0])])
            rows += [[d - lead[s] if t == s else 0 for t in range(slots)]
                     for s, f in enumerate(fs) for d, _ in f.terms[1:]]
    return np.array(rows, dtype=np.int64).reshape(len(rows), slots)


class _SlotKernel:
    """Generators at fixed q, compiled once into per-slot transition tables.

    Slots fall into consecutive groups, and a group's code holds one digit
    per slot in mixed radix, the first slot most significant; digit order
    is the order of what the digits stand for, so code order is tuple
    order.  A key is dense, the one group's code, when block keys of the
    whole stacked index space fit int64, and otherwise an interned id of
    its group codes, ordered by sort_keys; elimination pivots on that
    order as on tuples.  A frontier element is a pair (keys, amplitudes)
    of arrays holding a stack of `probes` elements, probe i offset by i
    times the size.  A term combination c of generator operator[c] picks
    one slot term per slot and sends a key to the cartesian product of its
    slot terms' outputs, slot 0 fastest, each with amplitude times
    scalar[c], then times the outputs' values in slot order.  batches
    cuts the frontier into blocks of at most _BLOCK_CELLS (entry,
    combination) cells, at least _least (a generator's mean summands) a
    candidate, so at most max(n_gens, _BLOCK_CELLS // _least) candidates,
    and expands each block by gather and scatter-add into one batch
    (bounds, keys, amplitudes), image i being keys[bounds[i]:bounds[i+1]],
    keys ascending; elimination.WeightEchelon reduces them batch by batch.
    Each target sums its terms in (entry, combination, output) order, as a
    dict would, and only exact zeros are dropped.
    """

    def __init__(self, gens: list[TensorOperator], radices: list[int],
                 probes: int):
        self.signature = gens[0].signature
        self.n_gens = len(gens)
        self.radices = radices
        self.size = math.prod(radices)
        self.probes = probes
        self.lattice = _lattice(gens, len(radices))
        self._least = max(1, sum(len(g.summands) for g in gens) // self.n_gens)
        self.dense = (max(self.n_gens, _BLOCK_CELLS // self._least) * probes
                      * self.size <= _DENSE_KEYS)
        ends, codes = [], 1
        for s, radix in enumerate(radices):
            if not self.dense and s and codes * radix > _GROUP_CODES:
                ends.append(s)
                codes = 1
            codes *= radix
        ends.append(len(radices))
        self._group = [sum(s >= e for e in ends) for s in range(len(radices))]
        self._codes_per_group = [math.prod(radices[a:b]) for a, b
                                 in zip([0] + ends[:-1], ends)]
        self.strides = [math.prod(radices[s + 1:ends[g]])
                        for s, g in enumerate(self._group)]
        # keys per probe, and the interned ids of each group's chain code
        self._span = self.size if self.dense else _IDS
        self._ids = None if self.dense else [_Ids() for _ in ends]

    def _compiled(self, operator, scalar, slots: list[_SlotTable]):
        self.operator = np.array(operator, dtype=np.int64)
        self.scalar = _real(scalar)
        # the combinations of generator g are first[g]:first[g + 1]
        self._first = np.searchsorted(self.operator,
                                      np.arange(self.n_gens + 1))
        self._slots = slots

    def _codes(self, keys: np.ndarray) -> list[np.ndarray]:
        """The group codes of keys (of a dense key, with its probe offset)."""
        if self.dense:
            return [keys]
        chain, codes = self._ids[-1].codes[keys], []
        for ids, size in zip(self._ids[-2::-1], self._codes_per_group[:0:-1]):
            chain, code = np.divmod(chain, size)
            codes.append(code)
            chain = ids.codes[chain]
        return [chain] + codes[::-1]

    def _key(self, codes: list[np.ndarray]) -> np.ndarray:
        """The keys of group codes: the code itself, or the id of the chain
        ((id(code_0) * size_1 + code_1) ...), new ones interned."""
        if self.dense:
            return codes[0]
        chain = codes[0]
        for ids, code, size in zip(self._ids, codes[1:],
                                   self._codes_per_group[1:]):
            chain = ids(chain) * size + code
        return self._ids[-1](chain)

    def _digits(self, codes: list[np.ndarray]) -> list[np.ndarray]:
        return [codes[g] // stride % radix for g, stride, radix
                in zip(self._group, self.strides, self.radices)]

    def sort_keys(self, keys: np.ndarray) -> np.ndarray:
        """Integers in the tuple order of distinct keys."""
        if self.dense:
            return keys
        rank = np.empty(len(keys), dtype=np.int64)
        rank[np.lexsort(self._codes(keys)[::-1])] = np.arange(len(keys))
        return rank

    def indices(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The probe and the torus index (one row each) of stacked keys."""
        index = np.array([slot.index[k] for slot, k in
                          zip(self._slots, self._digits(self._codes(keys)))],
                         dtype=np.int64)
        return (keys // self._span,
                index.reshape(len(self.radices), len(keys)).T)

    def batches(self, frontier, letters=None):
        """Yield the images of every frontier element under every generator,
        in (element, generator) order, one batch per block; with letters
        (a walk), element i goes under generator letters[i] alone."""
        lo = (np.zeros(len(frontier), dtype=np.int64) if letters is None
              else np.asarray(letters, dtype=np.int64))
        hi = lo + (self.n_gens if letters is None else 1)
        # (entry, combination) cells, at least _least per candidate
        cost = (np.array([max(1, len(k)) for k, _ in frontier], dtype=np.int64)
                * np.maximum(self._first[hi] - self._first[lo],
                             (hi - lo) * self._least))
        for a, b in _groups(cost, _BLOCK_CELLS):
            yield self._expand_block(frontier[a:b], lo[a:b], hi[a:b])

    def _expand_block(self, block, lo: np.ndarray, hi: np.ndarray):
        """The images of the block, element i under generators lo[i] up to
        hi[i], each image's keys ascending."""
        keys = np.concatenate([k for k, _ in block])
        amps = np.concatenate([a for _, a in block])
        owner = np.repeat(np.arange(len(block)), [len(k) for k, _ in block])
        codes = self._codes(keys)
        digits = self._digits(codes)
        if not all(slot.inside[k].all()
                   for slot, k in zip(self._slots, digits)):
            raise ValueError("a frontier index has images outside the "
                             "window; expand only words of length < r_max")
        # (entry, combination) pairs, entry-major: the combinations of the
        # entry's generators
        n = (self._first[hi] - self._first[lo])[owner]
        e = np.repeat(np.arange(len(keys)), n)
        c = _ranges(self._first[lo][owner], n)
        cells = [slot.offset[c] + k[e] for slot, k in zip(self._slots, digits)]
        live = np.ones(len(e), dtype=bool)
        for s, (slot, cell) in enumerate(zip(self._slots, cells)):
            # apply_operator evaluates every coefficient whose slot target
            # exists, so a NaN there is a domain error
            if slot.bad is not None and slot.bad[cell].any():
                raise qo.QDomainError(
                    f"negative radicand exponent on slot {s} in the window")
            live &= slot.count[cell] > 0
        e, c = e[live], c[live]
        cells = [cell[live] for cell in cells]
        terms = np.ones(len(e), dtype=np.int64)
        for slot, cell in zip(self._slots, cells):
            if slot.width > 1:
                terms *= slot.count[cell]
        # element i under generator g is candidate base[i] + g: the
        # candidates of the elements before it, then g - lo[i]
        base = np.cumsum(hi - lo) - (hi - lo) - lo
        # scatter-add per (candidate, probe, target), the probe offset
        # riding in the keys; a bounded run of pairs at a time, each run's
        # sums starting from those of the runs before it, so every target
        # sums its terms in (entry, combination, output) order
        stack = self.probes * self._span
        found, sums = np.zeros(0, dtype=np.int64), np.zeros(0)
        for a, b in _groups(terms, _EXPAND_TERMS):
            value, target, pair = self._terms(codes, amps, e[a:b], c[a:b],
                                              [cell[a:b] for cell in cells])
            cand = base[owner[e[a:b][pair]]] + self.operator[c[a:b][pair]]
            found, inv = np.unique(
                np.concatenate([found, cand * stack + self._key(target)]),
                return_inverse=True)
            sums = np.bincount(inv, weights=np.concatenate([sums, value]),
                               minlength=len(found))
        # only exact zeros go
        keep = sums != 0
        found, sums = found[keep], sums[keep]
        bounds = np.searchsorted(found,
                                 np.arange(int((hi - lo).sum()) + 1) * stack)
        return bounds, found % stack, sums

    def _terms(self, codes, amps, e, c, cells):
        """The terms of the (entry, combination) pairs (e, c) in order, as
        values, target group codes and the pair of each: the amplitude times
        the scalar, then slot by slot, each slot's outputs outermost over
        the products so far."""
        value = amps[e] * self.scalar[c]
        target = [code[e] for code in codes]
        # per term, its pair (a slice while there is one per pair); per
        # pair, its number of terms
        pair, size = slice(None), np.ones(len(e), dtype=np.int64)
        for slot, g, cell in zip(self._slots, self._group, cells):
            if slot.width == 1:
                out = cell[pair]
            else:
                grown = size * slot.count[cell]
                new = np.repeat(np.arange(len(grown)), grown)
                j, i = np.divmod(_ranges(0, grown), size[new])
                source = np.repeat(np.cumsum(size) - size, grown) + i
                value = value[source]
                target = [t[source] for t in target]
                out = cell[new] * slot.width + j
                pair, size = new, grown
            value = value * slot.value[out]
            target[g] = target[g] + slot.step[out]
        return value, target, pair


class ModuleKernel(_SlotKernel):
    """The generators of a module at fixed q, compiled for the span series.

    Slot s of a basis index reached from indices in 0..reach by words of
    length <= r_max lies in lo_s..hi_s, with hi_s = reach + D_s r_max and
    D_s the largest shift the generators make there; lo_s is -D_s r_max on
    a Z (circle) slot and 0 on an N slot.  The digit of index k_s is
    k_s - lo_s.  A slot term is one term (d, c) of a factor, with one
    output: the target k - d, where it exists (on an N slot, k >= d), and
    the value c(k), evaluated once per digit by compile_table; a vanishing
    value gives none.  A module series stacks one vector, the vacuum, with
    reach 0.  Each stacked image equals apply_operator's images of the
    stacked vectors: the same nonzero entries in index order, rounded the
    same way.
    """

    def __init__(self, gens: list[TensorOperator], q: float, r_max: int,
                 reach: int = 0, probes: int = 1):
        self.shift_bounds = qo.shift_bounds(gens)
        self.circle = [kind == qo.BILATERAL for kind in gens[0].signature]
        self.lows = [-d * r_max if z else 0
                     for d, z in zip(self.shift_bounds, self.circle)]
        super().__init__(
            gens, [reach + d * r_max - lo + 1
                   for d, lo in zip(self.shift_bounds, self.lows)], probes)
        if not self.dense:
            raise ValueError(
                f"{probes} stacked index spaces of {self.size} keys are too "
                f"large for int64 block keys at r_max={r_max}")
        ks = range(min(self.lows, default=0),
                   max((lo + b for lo, b in zip(self.lows, self.radices)),
                       default=1))
        t = qo.compile_table(gens, q, ks)
        slots = []
        for s, (lo, radix, bound, z) in enumerate(zip(
                self.lows, self.radices, self.shift_bounds, self.circle)):
            terms, term = np.unique(np.stack([t.shift[:, s], t.term[:, s]], 1),
                                    axis=0, return_inverse=True)
            k, shift = np.arange(radix), terms[:, :1]
            value = t.coefficients[terms[:, 1]][:, k + lo - ks.start]
            reached = z | (k >= shift)
            nan = np.isnan(value)
            slots.append(_SlotTable(
                term.reshape(-1), reached & ~nan & (value != 0),
                (k - shift)[:, :, None], value[:, :, None],
                (k < radix - bound) & (~z | (k >= bound)), reached & nan,
                k + lo, self.strides[s]))
        self._compiled(t.operator, t.scalar, slots)

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
        return np.array(keys, dtype=np.int64), _real(amps)


def _slot_closure(factors: list[qo.WeightedShiftSum], q: float, r_max: int):
    """The slot keys that words of r_max factors reach from the identity's
    (0, 0, ()), sorted, and each factor's outputs on the keys that shorter
    words reach."""
    seen, level, outputs = {(0, 0, ())}, {(0, 0, ())}, {}
    for _ in range(r_max):
        for key in level:
            outputs[key] = [qo.slot_monomials(f, key, q) for f in factors]
        level = {out for key in level for images in outputs[key]
                 for out, _ in images} - seen
        seen |= level
    return sorted(seen), outputs


class MonomialKernel(_SlotKernel):
    """Operator words at fixed q as monomial expansions, compiled for the
    structural span series and the witness walk.

    An element is the expansion of a word over monomial_decomposition's keys;
    the digit of a slot key (shift, q-slope, radicals) is its rank among the
    sorted slot keys that r_max factors reach, so code order is the tuple
    order of the keys.  A combination is one summand of a generator and its
    slot terms are the summand's factors, each with the outputs of
    slot_monomials; the torus index of a slot key is its shift, which adds
    up like a module index.  Each image equals monomial_decomposition(g, q,
    x) of the element x it expands: the same entries with the same values
    bit for bit, both summing in the entry order of x.
    """

    def __init__(self, gens: list[TensorOperator], q: float, r_max: int):
        factors = [{} for _ in gens[0].signature]
        operator, scalar, terms = [], [], []
        for g, op in enumerate(gens):
            for z, fs in op.summands:
                operator.append(g)
                scalar.append(z)
                terms.append([ids.setdefault(f, len(ids))
                              for ids, f in zip(factors, fs)])
        closures = [_slot_closure(list(ids), q, r_max) for ids in factors]
        super().__init__(gens, [len(keys) for keys, _ in closures], 1)
        self.slot_keys = [keys for keys, _ in closures]
        self._digit = [{key: k for k, key in enumerate(keys)}
                       for keys in self.slot_keys]
        slots = []
        for s, ((keys, outputs), digit) in enumerate(zip(closures,
                                                         self._digit)):
            width = max([len(images) for found in outputs.values()
                         for images in found] + [1])
            shape = (len(factors[s]), len(keys))
            count = np.zeros(shape, dtype=np.int64)
            target = np.zeros(shape + (width,), dtype=np.int64)
            value = np.zeros(shape + (width,), dtype=complex)
            for key, found in outputs.items():
                for t, images in enumerate(found):
                    count[t, digit[key]] = len(images)
                    for j, (out, v) in enumerate(images):
                        target[t, digit[key], j] = digit[out]
                        value[t, digit[key], j] = v
            slots.append(_SlotTable(
                [row[s] for row in terms], count, target, value,
                np.array([key in outputs for key in keys]), None,
                [key[0] for key in keys], self.strides[s]))
        self._compiled(operator, scalar, slots)
        # the identity's expansion
        self.start = self.encode({((0, 0, ()),) * len(slots): 1.0 + 0j})

    def encode(self, expansion: dict) -> tuple[np.ndarray, np.ndarray]:
        """The frontier element of an expansion over reached slot keys,
        entries in the expansion's order."""
        codes = [np.zeros(len(expansion), dtype=np.int64)
                 for _ in self._codes_per_group]
        for i, key in enumerate(expansion):
            if not all(k in digit for k, digit in zip(key, self._digit)):
                raise ValueError(f"monomial {key} is outside the window")
            for k, digit, g, stride in zip(key, self._digit, self._group,
                                           self.strides):
                codes[g][i] += digit[k] * stride
        return self._key(codes), _real(list(expansion.values()))


def _module_series(spec: RepSpec, r_max: int, q: float, basis_cap: int
                   ) -> tuple[ModuleKernel, GrowthSeries]:
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    # built at t = 1: spec.t multiplies each generator row by a unit scalar,
    # so each word's image of the vacuum only by a unit, and no span moves
    gens = module_generators(repsoq.rep_table(RepSpec(spec.n, spec.word)))
    kernel = ModuleKernel(gens, q, r_max)
    return kernel, _span_series(
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
# witness letters: one pattern enumeration, one verifier
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


def _witness_levels(letters: list[Letter], signature: tuple[str, ...],
                    budget: int):
    """Yield, for each total from 1 to budget, the exponent patterns of that
    total whose predicted index is >= 0 on every N slot, lexicographic, as
    (exponents, predicted index, parent, letter).

    Letter e acts exponents[e] times, letters in order, and adds step times
    its exponent to the predicted index of its slot.  The parent is the
    position, among the previous total's patterns (the empty pattern at
    total 0), of the pattern with one use fewer of its last letter, which
    is `letter`.  A parent is admissible when each lowering letter follows
    its slot's raising letter; a missing one raises ValueError.
    """
    previous = {(0,) * len(letters): 0}
    for total in range(1, budget + 1):
        current, level = {}, []
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
            current[exps] = len(level)
            level.append((exps, tuple(index), previous[parent], last))
        previous = current
        yield level


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
    values = [qo.vacuum(signature)]
    landed = [((0,) * len(letters), (0,) * len(signature),
               list(values[0].entries))]
    for level in _witness_levels(letters, signature, budget):
        values = [_lifted(qo.apply_operator(letters[last][0], values[parent],
                                            q))
                  for _, _, parent, last in level]
        landed += [(exps, index, list(vec.entries))
                   for (exps, index, _, _), vec in zip(level, values)]
    failures = [{"exponents": exps, "index": index, "support": support}
                for exps, index, support in landed if support != [index]]
    return {"patterns": len(landed), "failures": failures, "ok": not failures}


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
    canonical = RepSpec(n, weylb.normal_form(w).word())
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
    return _span_series(kernel, kernel.encode(*probes), r_max, basis_cap,
                        context).values


def algebra_growth(n: int, m: int, w: SignedPermutation, r_max: int, q: float,
                   probe_cutoff: int = 4, basis_cap: int = 20000
                   ) -> GrowthSeries:
    """Rank series of the span of operator words of length <= r.

    The rank is that of the words' structural monomial expansions, each
    expanded from its parent's, one letter shorter, on a MonomialKernel,
    without composing operators.  It is a float rank: elimination.REL_TOL
    judges which residuals are noise, so a small q can overcount it.  The
    rank of the words' action on the probe vectors with index sum <=
    probe_cutoff is recorded as a consistency lower bound; past basis_cap
    it keeps its completed steps and a flag.
    """
    gens = homogeneous_generators(homogeneous_rep(n, m, w), n, m)
    context = {"kind": "homogeneous", "n": n, "m": m}
    kernel = MonomialKernel(gens, q, r_max)
    values = _span_series(kernel, kernel.start, r_max, basis_cap,
                          context).values
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
    # each total's patterns expand from their parents, one letter each;
    # totals ascend, so a total's rank counts every pattern up to it
    from .elimination import WeightEchelon
    kernel = MonomialKernel([op for op, _, _ in letters], q, r_max)
    elim, values = WeightEchelon(kernel, kernel.start), [kernel.start]
    list(elim.independent([(np.array([0, 1]), *kernel.start)]))
    lower, rank = {0: 1}, {0: len(elim)}
    for total, level in enumerate(_witness_levels(letters, sig, r_max),
                                  start=1):
        batches = list(kernel.batches([values[parent] for _, _, parent, _
                                       in level], [last for *_, last in level]))
        values = [(keys[a:b], amps[a:b]) for bounds, keys, amps in batches
                  for a, b in zip(bounds[:-1], bounds[1:])]
        list(elim.independent(batches))
        lower[total], rank[total] = lower[total - 1] + len(level), len(elim)

    def row(r, d):
        upper = algebra_container_bound(n, m, w, r)
        return ({"lower": lower[r], "witness_rank": rank[r], "upper": upper},
                {"upper": d <= upper, "witness_rank": rank[r] == lower[r],
                 "probe": r in probe and probe[r] <= d})

    return series, _certificate(series, target, letters, sig, q, row)
