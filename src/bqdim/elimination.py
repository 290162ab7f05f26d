"""Elimination of the growth kernels' images by torus-weight class.

WeightEchelon reduces a kernel's batches of images, a chunk of them at a
time in numpy, with the float operations of a row echelon over sparse
dicts that pivots on the largest key and reduces one image at a time: the
reference of its law test, which keeps that echelon.  Every growth series
and the witness rank run on it, in real float64 (growth builds every
module series at t = 1: a torus point only rescales generator rows by
unit scalars).  REL_TOL is the one place in growth that judges float
noise.
"""

from __future__ import annotations

import math

import numpy as np

from .growth import _groups, _Ids, _ranges

# a candidate's residual entry at or below REL_TOL times its largest
# initial |entry| is noise
REL_TOL = 1e-8


def _annihilator(vectors: list[tuple[int, ...]], dim: int) -> np.ndarray:
    """Integer rows spanning the vectors orthogonal to all of vectors, by
    fraction-free Gauss-Jordan elimination."""
    rows = [list(v) for v in vectors if any(v)]
    pivots = []
    for col in range(dim):
        r = len(pivots)
        top = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if top is None:
            continue
        rows[r], rows[top] = rows[top], rows[r]
        top = rows[r]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                row = [top[col] * x - row[col] * y for x, y in zip(row, top)]
                g = math.gcd(*row)
                rows[i] = [x // g for x in row] if g else row
        pivots.append(col)
    basis = []
    for free in range(dim):
        if free in pivots:
            continue
        scale = math.lcm(*(row[col] for row, col in zip(rows, pivots)))
        y = [0] * dim
        y[free] = scale
        for row, col in zip(rows, pivots):
            y[col] = -(scale // row[col]) * row[free]
        basis.append(y)
    return np.array(basis, dtype=np.int64).reshape(len(basis), dim)


def _grown(a: np.ndarray, size: int) -> np.ndarray:
    """a, or a zero-padded copy at least twice as long, holding size."""
    if size <= len(a):
        return a
    out = np.zeros(max(size, 2 * len(a)), dtype=a.dtype)
    out[:len(a)] = a
    return out


# image entries per chunk, and cells (rows times their class width) per
# sweep: bound the dense rows while keeping the per-column overhead small
_CHUNK_CELLS = 1 << 14


class WeightEchelon:
    """A sparse row echelon over a kernel's batches, a chunk of images at a
    time, with the outcome of reducing one image at a time.

    The reference reduces each image, in order, against the pivot rows,
    taking its largest remaining key each step: an entry at or below the
    floor (REL_TOL times the image's largest initial |entry|) is dropped,
    an entry on a pivot subtracts amp times that pivot row, and any other
    entry makes the rest of the image a new pivot row, divided by it.

    The combinations of a generator move the torus index of a key by
    vectors that differ by the kernel's lattice L.  With the differences
    within each probe's start support added to L, and P an integer basis of
    its annihilator, every stacked image of a word lies in one weight class
    P (k - s_i), s_i a support point of probe i.  A pivot row lies in the
    class of the image that made it, so classes never meet.  Keys get an id
    on first sight, from the growth kernels' _Ids; the layout lists each
    class's known keys in descending order (kernel.sort_keys), the order in
    which the reference takes them, and grows with each chunk.

    Batches join a chunk until it holds _CHUNK_CELLS entries.  It is swept
    in dense rows over the columns of their classes, all rows at one column
    at a time.  A row whose entry there is at or below its floor drops it.
    Otherwise the first such row of a class without a pivot there becomes
    the pivot, divided by that entry, and stops; every other such row
    subtracts amp times the pivot row.  Within each class these are the
    reference's float operations in its order, so the accepted images and
    the stored rows are the reference's.

    An image is closed when every column of its class from its first on
    has a pivot: the reference only visits those columns, subtracts at
    each, and finds it dependent.  Per class the echelon keeps the column
    from which all have pivots (set with the layout, walked back after
    each chunk), and drops closed images unswept.  The rest are sorted
    once, widest class first and each class's rows in candidate order,
    then cut into sweeps; the accepted ones come out in candidate order.
    """

    def __init__(self, kernel, start):
        self.kernel = kernel
        probe, index = kernel.indices(start[0])
        # any support point of a probe will do as its base: the
        # differences within the support join L
        self._base = np.zeros((kernel.probes, len(kernel.radices)),
                              dtype=np.int64)
        self._base[probe] = index
        lattice = np.concatenate([kernel.lattice, index - self._base[probe]])
        self._projection = _annihilator(
            sorted(set(map(tuple, lattice.tolist()))), len(kernel.radices))
        self.rank = 0
        # class numbers by weight, in order of first sight; the ids of the
        # keys seen; per key id: its class and its pivot row, -1 for none
        self._classes = {}
        self._ids = _Ids()
        self._class = np.zeros(0, dtype=np.int32)
        self._pivot = np.zeros(0, dtype=np.int64)
        self._layout()
        # pivot rows over key ids, grown in amortised segments; the first
        # entry of a row is its pivot
        self._row_start = np.zeros(64, dtype=np.int64)
        self._row_len = np.zeros(64, dtype=np.int64)
        self._col = np.zeros(1024, dtype=np.int32)
        self._val = np.zeros(1024)
        self._used = 0

    def __len__(self) -> int:
        return self.rank

    def independent(self, batches):
        """Reduce the images of the batches in order against the span and
        yield, in order, the ones that join it."""
        chunk, entries = [], 0
        for batch in batches:
            chunk.append(batch)
            entries += len(batch[1])
            if entries >= _CHUNK_CELLS:
                yield from self._reduce(chunk)
                chunk, entries = [], 0
        if chunk:
            yield from self._reduce(chunk)

    def _classify(self, keys: np.ndarray) -> np.ndarray:
        """The class of each key, by its weight P (k - s_i)."""
        probe, index = self.kernel.indices(keys)
        weight = (index - self._base[probe]) @ self._projection.T
        return np.array([self._classes.setdefault(w, len(self._classes))
                         for w in map(tuple, weight.tolist())],
                        dtype=np.int32)

    def _layout(self):
        """The column of every known key: its rank in its class, in
        descending key order; classes lie in class order."""
        n = len(self._class)
        self._id_at = np.lexsort((-self.kernel.sort_keys(self._ids.codes),
                                  self._class))
        self._class_width = np.bincount(self._class,
                                        minlength=len(self._classes))
        self._class_start = np.cumsum(self._class_width) - self._class_width
        self._column = np.empty(n, dtype=np.int32)
        self._column[self._id_at] = (
            np.arange(n) - self._class_start[self._class[self._id_at]])
        # per class, the first column from which every column has a pivot:
        # one past the last key without one, in layout order
        free = np.flatnonzero(self._pivot[self._id_at] < 0)
        last = np.concatenate([[-1], free])[np.searchsorted(
            free, self._class_start + self._class_width)]
        self._closed = np.maximum(last + 1 - self._class_start, 0)

    def _identify(self, keys: np.ndarray) -> np.ndarray:
        """The ids of keys; unseen keys get new ids and the layout grows."""
        ids = self._ids(keys)
        fresh = self._ids.codes[len(self._class):]
        if len(fresh):
            self._class = np.concatenate([self._class, self._classify(fresh)])
            self._pivot = np.concatenate(
                [self._pivot, np.full(len(fresh), -1, dtype=np.int64)])
            self._layout()
        return ids

    def _reduce(self, chunk):
        """Reduce the images of a chunk of batches, a sweep at a time, and
        yield the ones that join the span."""
        ids = self._identify(np.concatenate([k for _, k, _ in chunk]))
        amps = np.concatenate([a for _, _, a in chunk])
        offsets = np.cumsum([0] + [len(k) for _, k, _ in chunk])
        bounds = np.concatenate(
            [[0]] + [b[1:] + o for (b, _, _), o in zip(chunk, offsets)])
        chunk.clear()
        lengths = np.diff(bounds)
        # an empty image is dependent
        rows = np.flatnonzero(lengths)
        if not len(rows):
            return
        cls = self._class[ids[bounds[rows]]]
        if (self._class[ids] != np.repeat(cls, lengths[rows])).any():
            raise AssertionError("an image spans two weight classes")
        floor = REL_TOL * np.maximum.reduceat(np.abs(amps), bounds[rows])
        # a closed image is dependent too: every column of its class from
        # its first on has a pivot; the rest are swept widest class first,
        # the rows of a class together in candidate order
        first = np.minimum.reduceat(self._column[ids], bounds[rows])
        swept = np.flatnonzero(first < self._closed[cls])
        swept = swept[np.lexsort((cls[swept],
                                  -self._class_width[cls[swept]]))]
        accepted = np.zeros(len(rows), dtype=bool)
        for i, j in _groups(self._class_width[cls[swept]], _CHUNK_CELLS):
            sweep = swept[i:j]
            accepted[sweep] = self._sweep(cls[sweep], floor[sweep],
                                          bounds[rows[sweep]],
                                          lengths[rows[sweep]], ids, amps)
        # a class that gained pivots closes back over those just before it
        # (a set: a bare np.unique imports numpy.ma, which test_cli bars)
        for c in set(cls[accepted].tolist()):
            closed, start = int(self._closed[c]), int(self._class_start[c])
            while closed and self._pivot[self._id_at[start + closed - 1]] >= 0:
                closed -= 1
            self._closed[c] = closed
        for c in rows[accepted]:
            a, b = bounds[c], bounds[c + 1]
            yield self._ids.codes[ids[a:b]], amps[a:b].copy()

    def _sweep(self, cls, floor, heads, lengths, ids, amps) -> np.ndarray:
        """Which rows join the span, each row's entries at [head, head +
        length) in ids and amps; rows widest class first (those inside
        their class at column t are a prefix), a class's rows together."""
        width = self._class_width[cls]
        lead = self._class_start[cls]
        # cells column by column: column t holds the first inside[t] rows
        inside = np.searchsorted(-width, -np.arange(width[0] + 1))
        at = np.cumsum(inside) - inside
        val = np.zeros(at[-1])
        entry = _ranges(heads, lengths)
        column = self._column[ids[entry]]
        cell = at[column] + np.repeat(np.arange(len(cls)), lengths)
        val[cell] = amps[entry]
        # columns where some row may hold an entry, and a stop past the end
        touched = np.zeros(width[0] + 1, dtype=bool)
        touched[column] = touched[-1] = True
        del entry, column, cell     # not kept through the column loop
        done = np.zeros(len(cls), dtype=bool)
        starts, ends = at.tolist(), (at + inside).tolist()
        t = int(touched.argmax())
        while t < width[0]:
            a, b = starts[t], ends[t]
            amp = val[a:b]
            hit = np.flatnonzero(np.abs(amp) > floor[:b - a])
            if len(hit):
                key = self._id_at[lead[hit] + t]
                pivot = self._pivot[key]
                fresh = np.flatnonzero(pivot < 0)
                if len(fresh):
                    # the first row of each class without a pivot here
                    fresh = fresh[np.flatnonzero(
                        np.diff(cls[hit[fresh]], prepend=-1))]
                    made = hit[fresh]
                    self._pivot[key[fresh]] = self._store(
                        val, at, made, t, width[made] - t, lead[made])
                    floor[made] = np.inf
                    done[made] = True
                    pivot = self._pivot[key]
                    rest = np.ones(len(hit), dtype=bool)
                    rest[fresh] = False
                    hit, pivot = hit[rest], pivot[rest]
                self._subtract(val, at, touched, hit, amp[hit], pivot)
            t += 1 + int(touched[t + 1:].argmax())
        return done

    def _store(self, val, at, rows, t, length, lead) -> np.ndarray:
        """Store the rows from column t on, divided by their entry there,
        as new pivot rows; return their numbers.  Cell (row, column) is
        at[column] + row, and a row's class starts at lead in the layout."""
        owner = np.repeat(np.arange(len(rows)), length)
        column = _ranges(np.full(len(rows), t), length)
        cell = at[column] + rows[owner]
        value = val[cell]
        nonzero = value != 0
        owner, column = owner[nonzero], column[nonzero]
        used = self._used + len(owner)
        self._col, self._val = (_grown(a, used) for a in (self._col, self._val))
        self._col[self._used:used] = self._id_at[lead[owner] + column]
        self._val[self._used:used] = value[nonzero] / val[at[t] + rows][owner]
        counts = np.bincount(owner, minlength=len(rows))
        numbers = np.arange(self.rank, self.rank + len(rows))
        self._row_start, self._row_len = (_grown(a, self.rank + len(rows))
                                          for a in (self._row_start,
                                                    self._row_len))
        self._row_start[numbers] = self._used + np.cumsum(counts) - counts
        self._row_len[numbers] = counts
        self._used = used
        self.rank += len(rows)
        return numbers

    def _subtract(self, val, at, touched, rows, amp, pivot):
        """Subtract amp times the pivot row, past its pivot, from each row,
        and mark the columns written as touched; a bounded run of rows at a
        time bounds the temporaries."""
        length = self._row_len[pivot] - 1
        for i, j in _groups(length, _CHUNK_CELLS // 8):
            n = length[i:j]
            entry = _ranges(self._row_start[pivot[i:j]] + 1, n)
            column = self._column[self._col[entry]]
            touched[column] = True
            cell = at[column] + np.repeat(rows[i:j], n)
            val[cell] -= np.repeat(amp[i:j], n) * self._val[entry]
