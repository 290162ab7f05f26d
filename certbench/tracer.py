"""Spans and counts around the public entry points of bqdim, from outside.

``Tracer.install()`` replaces module and class attributes of the already
imported ``bqdim`` modules with wrappers; ``uninstall()`` puts the
originals back.  Nothing in ``src/`` knows about it.

Each wrapped call is a span: name, start, end and the span that caused it.
Every thread keeps its own parent stack.  A call that ``growth._map_ordered``
hands to a pool thread gets the ``_map_ordered`` span of the submitting
thread as its parent, so the submitting span's self time excludes the
interval its pool children cover (their union, since they overlap).  With
the interpreter lock, overlapping pool spans each include time spent
waiting for the lock, so on a pooled workload the self times of all spans
can add up to more than the wall time.

Self time of a span is its duration minus the time its child spans cover.
``<name>.s`` totals count only the outermost span of a name or group, so
nested calls are not counted twice.
"""

from __future__ import annotations

import _thread
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict

# (module, owner attribute or None, attribute, span name, group)
ENTRY_POINTS = [
    ("cli", None, "main", "cli.main", None),
    ("growth", None, "module_certificate", "growth.module_certificate", None),
    ("growth", None, "homogeneous_certificate",
     "growth.homogeneous_certificate", None),
    ("growth", None, "module_growth", "growth.module_growth", None),
    ("growth", None, "algebra_growth", "growth.algebra_growth", None),
    ("growth", None, "_probe_rank_series", "growth._probe_rank_series", None),
    ("growth", None, "_map_ordered", "growth._map_ordered", None),
    ("growth", "Echelon", "add", "growth.Echelon.add", None),
    ("growth", None, "verify_witness_chain", "growth.verify_witness_chain",
     "growth.witness"),
    ("growth", None, "lower_bound_certificate",
     "growth.lower_bound_certificate", "growth.witness"),
    ("growth", None, "homogeneous_witnesses", "growth.homogeneous_witnesses",
     "growth.witness"),
    ("growth", None, "verify_homogeneous_witnesses",
     "growth.verify_homogeneous_witnesses", "growth.witness"),
    ("growth", None, "homogeneous_rep", "growth.homogeneous_rep", None),
    ("qoperators", None, "apply_operator", "qoperators.apply_operator", None),
    ("qoperators", None, "compose", "qoperators.compose", None),
    ("qoperators", None, "add", "qoperators.add", None),
    ("qoperators", None, "scale", "qoperators.add", None),
    ("qoperators", None, "tensor", "qoperators.tensor", None),
    ("qoperators", None, "adjoint", "qoperators.adjoint", None),
    ("qoperators", "TensorOperator", "canonical",
     "qoperators.TensorOperator.canonical", None),
    ("qoperators", None, "monomial_decomposition",
     "qoperators.monomial_decomposition", None),
    # bound at import time, so patching qoperators alone misses growth's calls
    ("growth", None, "monomial_fingerprint",
     "qoperators.monomial_decomposition", None),
    ("qoperators", None, "window_magnitude", "qoperators.window_magnitude",
     "qoperators.window"),
    ("qoperators", None, "window_deviation_bound",
     "qoperators.window_deviation_bound", "qoperators.window"),
    ("qoperators", None, "max_window_deviation",
     "qoperators.max_window_deviation", "qoperators.window"),
    ("repsoq", None, "rep_table", "repsoq.rep_table", None),
    ("repsoq", None, "convolve", "repsoq.convolve", None),
    ("repsoq", None, "elementary_table", "repsoq.elementary_table", None),
    ("repsoq", None, "verify_orthogonality", "repsoq.verify_orthogonality",
     None),
    ("repsoq", None, "verify_frt", "repsoq.verify_frt", None),
    ("repsoq", None, "verify_braid_independence",
     "repsoq.verify_braid_independence", None),
    ("repsoq", None, "tables_equal", "repsoq.tables_equal", None),
    ("diagrams", None, "embedding_chain", "diagrams.embedding_chain", None),
    ("weylb", None, "normal_form", "weylb.normal_form", None),
    ("weylb", None, "from_word", "weylb.from_word", None),
    ("weylb", None, "length", "weylb.length", None),
    ("weylb", None, "parts", "weylb.parts", None),
    ("weylb", None, "in_quotient", "weylb.in_quotient", None),
    ("weylb", None, "longest_quotient_element",
     "weylb.longest_quotient_element", None),
    ("weylb", None, "classical_dimensions", "weylb.classical_dimensions",
     None),
]

_GROUPS = defaultdict(set)
for _entry in ENTRY_POINTS:
    if _entry[4] is not None:
        _GROUPS[_entry[4]].add(_entry[3])

LAYERS = ("cli", "growth", "qoperators", "repsoq", "diagrams", "weylb")


class _Frame:
    __slots__ = ("span_id", "name", "keys", "tid", "start", "child_s",
                 "pooled")

    def __init__(self, span_id, name, keys, tid, start):
        self.span_id = span_id
        self.name = name
        self.keys = keys            # name and group, for outermost totals
        self.tid = tid
        self.start = start
        self.child_s = 0.0          # same-thread children (disjoint)
        self.pooled = []            # (start, end) of children in pool threads


class _ThreadState:
    def __init__(self, tid: int):
        self.tid = tid
        self.stack: list[_Frame] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.evaluated: set = set()
        self.spans: list[tuple] = []


def _union_length(intervals: list[tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


class Tracer:
    """Wraps bqdim's entry points; one instance per traced batch."""

    def __init__(self, package):
        self._package = package
        self._states: dict[int, _ThreadState] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._saved: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- per-thread state --------------------------------------------------

    def _state(self) -> _ThreadState:
        tid = _thread.get_ident()
        st = self._states.get(tid)
        if st is None:
            with self._lock:
                st = self._states.setdefault(tid, _ThreadState(len(self._states)))
        return st

    # -- spans -------------------------------------------------------------

    def _push(self, name: str, keys: tuple[str, ...]) -> _Frame:
        st = self._state()
        for key in keys:
            st.depth[key] += 1
        frame = _Frame(next(self._ids), name, keys, st.tid, time.perf_counter())
        st.stack.append(frame)
        return frame

    def _pop(self, frame: _Frame) -> None:
        end = time.perf_counter()
        st = self._state()
        st.stack.pop()
        duration = end - frame.start
        pooled = _union_length(frame.pooled) if frame.pooled else 0.0
        st.calls[frame.name] += 1
        st.self_s[frame.name] += duration - frame.child_s - pooled
        for key in frame.keys:
            st.depth[key] -= 1
            if st.depth[key] == 0:
                st.total_s[key] += duration
        parent = st.stack[-1] if st.stack else None
        if parent is not None:
            if parent.tid == st.tid:
                parent.child_s += duration
            else:
                parent.pooled.append((frame.start, end))
        st.spans.append((frame.span_id, parent.span_id if parent else 0,
                         frame.name, st.tid, frame.start - self._t0,
                         end - self._t0))

    def _wrap(self, fn, name: str, group: str | None):
        keys = (name,) if group is None else (name, group)
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._push(name, keys)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._pop(frame)
        traced.__wrapped__ = fn
        return traced

    # -- counters on specific entry points --------------------------------

    def _wrap_apply_operator(self, fn):
        tracer = self

        def apply_operator(op, vec, q):
            out = fn(op, vec, q)
            counts = tracer._state().counts
            counts["entries_in"] += len(vec.entries)
            counts["entries_out"] += len(out.entries)
            return out
        return apply_operator

    def _wrap_echelon_add(self, fn):
        tracer = self

        def add(ech, vec):
            red = fn(ech, vec)
            if red is not None:
                tracer._state().counts["accepted"] += 1
            return red
        return add

    def _wrap_evaluate(self, fn):
        tracer = self

        def evaluate(coeff, k, q):
            st = tracer._state()
            st.counts["evaluate"] += 1
            st.evaluated.add((coeff, k, q))
            return fn(coeff, k, q)
        return evaluate

    def _wrap_map_ordered(self, fn):
        """Give the pool threads the submitting span as their parent."""
        tracer = self

        def _map_ordered(work, items, threads):
            stack = tracer._state().stack
            parent = stack[-1] if stack else None

            def linked(item):
                st = tracer._state()
                if st.stack or parent is None:   # ran inline
                    return work(item)
                st.stack.append(parent)
                try:
                    return work(item)
                finally:
                    st.stack.pop()
            return fn(linked, items, threads)
        return _map_ordered

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every entry point that this version of bqdim has."""
        mods = {name: getattr(self._package, name, None) for name in LAYERS}
        q = mods["qoperators"]
        if "evaluate" in vars(getattr(q, "Coefficient", object)):
            self._patch(q.Coefficient, "evaluate",
                        self._wrap_evaluate(q.Coefficient.evaluate))
        for mod_name, owner_name, attr, name, group in ENTRY_POINTS:
            owner = mods[mod_name]
            if owner is not None and owner_name is not None:
                owner = getattr(owner, owner_name, None)
            if owner is None or attr not in vars(owner):
                continue
            fn = vars(owner)[attr]
            if name == "qoperators.apply_operator":
                fn = self._wrap_apply_operator(fn)
            elif name == "growth.Echelon.add":
                fn = self._wrap_echelon_add(fn)
            elif name == "growth._map_ordered":
                fn = self._wrap_map_ordered(fn)
            self._patch(owner, attr, self._wrap(fn, name, group))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def _merged(self):
        calls, self_s, total_s, counts = (defaultdict(int), defaultdict(float),
                                          defaultdict(float), defaultdict(int))
        evaluated = set()
        for st in self._states.values():
            for src, dst in ((st.calls, calls), (st.self_s, self_s),
                             (st.total_s, total_s), (st.counts, counts)):
                for key, value in src.items():
                    dst[key] += value
            evaluated |= st.evaluated
        return calls, self_s, total_s, counts, len(evaluated)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        calls, self_s, total_s, counts, distinct = self._merged()
        adds = calls["growth.Echelon.add"]
        evaluations = counts["evaluate"]
        out = {
            "cli.main.calls": calls["cli.main"],
            "growth.Echelon.add.calls": adds,
            "growth.Echelon.add.accepted": counts["accepted"],
            "growth.Echelon.accept_ratio":
                counts["accepted"] / adds if adds else 0.0,
            "growth.Echelon.add.self_s": self_s["growth.Echelon.add"],
            "growth._probe_rank_series.s":
                total_s["growth._probe_rank_series"],
            "growth._map_ordered.s": total_s["growth._map_ordered"],
            "growth.witness.s": total_s["growth.witness"],
            "growth.homogeneous_rep.calls": calls["growth.homogeneous_rep"],
            "qoperators.apply_operator.calls":
                calls["qoperators.apply_operator"],
            "qoperators.apply_operator.self_s":
                self_s["qoperators.apply_operator"],
            "qoperators.apply_operator.entries_in": counts["entries_in"],
            "qoperators.apply_operator.entries_out": counts["entries_out"],
            "qoperators.Coefficient.evaluate.calls": evaluations,
            "qoperators.Coefficient.evaluate.distinct_ratio":
                distinct / evaluations if evaluations else 0.0,
            "qoperators.window.self_s": sum(
                self_s[name] for name in _GROUPS["qoperators.window"]),
            "repsoq.rep_table.s": total_s["repsoq.rep_table"],
            "repsoq.verify_orthogonality.s":
                total_s["repsoq.verify_orthogonality"],
            "repsoq.verify_frt.s": total_s["repsoq.verify_frt"],
            "repsoq.verify_braid_independence.s":
                total_s["repsoq.verify_braid_independence"],
        }
        for name in ("qoperators.compose", "qoperators.add",
                     "qoperators.TensorOperator.canonical",
                     "qoperators.monomial_decomposition"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in ("repsoq.rep_table", "repsoq.convolve",
                     "diagrams.embedding_chain", "weylb.normal_form"):
            out[f"{name}.calls"] = calls[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.startswith(layer + "."))
        return out

    def write_spans(self, path) -> int:
        """Write every span as one JSON line (gzip); returns the count."""
        spans = sorted(itertools.chain.from_iterable(
            st.spans for st in self._states.values()))
        with gzip.open(path, "wt") as fh:
            for span_id, parent, name, tid, start, end in spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "thread": tid,
                                     "start_s": round(start, 7),
                                     "end_s": round(end, 7)}) + "\n")
        return len(spans)
