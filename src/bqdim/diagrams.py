"""Layered-graph calculus for the generator-image tables.

A layer holds the edges of one elementary or torus table on 2n+1 nodes;
an edge from left node a to right node b carries a primitive operator tag
and represents the image of the generator with upper index a and lower
index b.  Concatenating layers identifies adjacent node columns, and an
image of a composite representation is recovered as the sum over directed
paths of the tensor products of the edge realizations.

Embedding maps relabel the node window of a shorter part chain into a
longer one; the four vacuum conditions they must satisfy are checked
numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import qoperators as qo
from . import repsoq
from . import weylb
from .qoperators import TensorOperator, WeightedShiftSum
from .weylb import Word

# edge tag -> (DOT style, DOT label); the operators are repsoq.EDGE_OPERATORS
_DOT_ATTRS: dict[str, tuple[str, str]] = {
    "id": ("solid", "I"),
    "alpha_dn": ("solid", "-"),
    "alpha_up": ("solid", "+"),
    "neg_q2n2": ("solid", "u+"),
    "q2n2": ("solid", "u-"),
    "q2n": ("solid", "d+"),
    "neg_q2n": ("solid", "d-"),
    "alpha2_dn": ("solid", "--"),
    "alpha2_up": ("solid", "++"),
    "mid": ("dashed", "m"),
    "beta_dn_lo": ("dotted", "b"),
    "beta_dn_hi": ("dashed", "b'"),
    "beta_up_lo": ("bold", "b*"),
    "beta_up_hi": ("bold", "b*'"),
    "q2n2_block": ("dotted", "w"),
    "q2n_block": ("solid", "d"),
}


@dataclass(frozen=True)
class EdgePrimitive:
    """One arrow type; torus edges carry their scalar."""

    tag: str
    scalar: complex = 1.0 + 0j

    def realize(self) -> WeightedShiftSum | complex:
        if self.tag == "torus":
            return self.scalar
        if self.tag not in repsoq.EDGE_OPERATORS:
            raise ValueError(f"unknown edge tag {self.tag!r}")
        return repsoq.EDGE_OPERATORS[self.tag]

    def dot_attrs(self) -> tuple[str, str]:
        if self.tag == "torus":
            return "solid", f"t={self.scalar:.3g}"
        return _DOT_ATTRS[self.tag]


@dataclass(frozen=True)
class DiagramLayer:
    """All edges of one table layer on nodes 1..2n+1."""

    n: int
    kind: str                       # "elementary" or "torus"
    edges: tuple[tuple[int, int, EdgePrimitive], ...]

    @property
    def size(self) -> int:
        return 2 * self.n + 1

    def out_edges(self, a: int) -> list[tuple[int, EdgePrimitive]]:
        return [(b, p) for (x, b, p) in self.edges if x == a]


def layer(kind, n: int) -> DiagramLayer:
    """Build a layer; kind is ("elementary", i) or ("torus", t)."""
    tag, data = kind
    edges: list[tuple[int, int, EdgePrimitive]] = []
    if tag == "torus":
        for a, c in enumerate(repsoq.torus_scalars(tuple(data), n), start=1):
            edges.append((a, a, EdgePrimitive("torus", c)))
        return DiagramLayer(n, "torus", tuple(edges))
    if tag != "elementary":
        raise ValueError(f"unknown layer kind {tag!r}")
    edges = sorted(((k, l, EdgePrimitive(edge_tag))
                    for k, l, edge_tag in repsoq.elementary_layout(data, n)),
                   key=lambda e: (e[0], e[1]))
    return DiagramLayer(n, "elementary", tuple(edges))


@dataclass(frozen=True)
class Diagram:
    layers: tuple[DiagramLayer, ...]

    @property
    def n(self) -> int:
        return self.layers[0].n

    @property
    def size(self) -> int:
        return 2 * self.n + 1

    def signature(self) -> tuple[str, ...]:
        return tuple("N" for ly in self.layers if ly.kind == "elementary")


def diagram_for(spec: repsoq.RepSpec) -> Diagram:
    layers = [layer(("torus", spec.torus), spec.n)]
    layers += [layer(("elementary", i), spec.n) for i in spec.word]
    return Diagram(tuple(layers))


def paths(diagram: Diagram, src: int, dst: int) -> list[tuple[int, ...]]:
    """All node sequences from left node src to right node dst."""
    size = diagram.size
    if not (1 <= src <= size and 1 <= dst <= size):
        raise ValueError(f"node out of range 1..{size}")
    fronts: list[tuple[int, ...]] = [(src,)]
    for ly in diagram.layers:
        nxt = []
        for path in fronts:
            for b, _ in ly.out_edges(path[-1]):
                nxt.append(path + (b,))
        fronts = nxt
    return [p for p in fronts if p[-1] == dst]


def path_sum(diagram: Diagram, src: int, dst: int) -> TensorOperator:
    """Sum over paths of the tensor of realized edge primitives."""
    sig = diagram.signature()
    total = qo.zero_operator(sig)
    for path in paths(diagram, src, dst):
        scalar = 1.0 + 0j
        factors: list[WeightedShiftSum] = []
        for step, ly in enumerate(diagram.layers):
            a, b = path[step], path[step + 1]
            prim = next(p for (x, y, p) in ly.edges if x == a and y == b)
            realized = prim.realize()
            if ly.kind == "torus":
                scalar *= realized
            else:
                factors.append(realized)
        total = qo.add(total, qo.elementary_tensor(factors, scalar=scalar))
    return total


# ---------------------------------------------------------------------------
# embedding maps
# ---------------------------------------------------------------------------

def node_window(n: int, k: int) -> range:
    """Node window of the depth-k part chain: n-k+1 .. n+k+1."""
    return range(n - k + 1, n + k + 2)


@dataclass(frozen=True)
class EmbeddingMap:
    """Relabeling of the depth-k node window into the depth-(k+l) one."""

    n: int
    k: int
    l: int
    mapping: dict[int, int] = field(hash=False, compare=False, default=None)

    def __call__(self, j: int) -> int:
        return self.mapping[j]


def embedding_step(part_words: list[Word], i: int, n: int) -> EmbeddingMap:
    """The one-step map from depth i to depth i+1.

    A window node j <= n moves down by one exactly when the letter j-1
    occurs once in the (i+1)-th part word; mirrored on the upper side; the
    centre is fixed.
    """
    if not 1 <= i < n:
        raise ValueError(f"part index {i} out of range 1..{n - 1}")
    word = part_words[i]          # the (i+1)-th part
    counts: dict[int, int] = {}
    for letter in word:
        counts[letter] = counts.get(letter, 0) + 1
    mapping = {}
    for j in node_window(n, i):
        if j <= n:
            mapping[j] = j - 1 if counts.get(j - 1, 0) == 1 else j
        elif j == n + 1:
            mapping[j] = n + 1
        else:
            mapping[j] = j + 1 if counts.get(2 * n - j + 1, 0) == 1 else j
    return EmbeddingMap(n, i, 1, mapping)


def compose_embeddings(maps: list[EmbeddingMap]) -> EmbeddingMap:
    """Function composition of consecutive one-step maps."""
    if not maps:
        raise ValueError("need at least one map")
    first = maps[0]
    k, n = first.k, first.n
    depth = k
    for m in maps:
        if m.k != depth or m.n != n:
            raise ValueError("maps are not consecutive")
        depth += m.l
    mapping = {}
    for j in node_window(n, k):
        v = j
        for m in maps:
            v = m(v)
        mapping[j] = v
    return EmbeddingMap(n, k, depth - k, mapping)


def embedding_chain(w: weylb.SignedPermutation, i: int) -> EmbeddingMap:
    """The composite map from depth i to depth n for the parts of w."""
    n = w.n
    pw = weylb.parts(w)
    if i == n:
        return EmbeddingMap(n, n, 0, {j: j for j in node_window(n, n)})
    steps = [embedding_step(pw, d, n) for d in range(i, n)]
    return compose_embeddings(steps)


@dataclass
class EmbeddingReport:
    ok: bool
    constants: dict[int, complex]
    max_violation: float
    failures: list = field(default_factory=list)


def verify_embedding(w: weylb.SignedPermutation, k: int, l: int,
                     emb: EmbeddingMap, q: float, tol: float = 1e-8
                     ) -> EmbeddingReport:
    """Check the four vacuum conditions of an embedding map.

    The tail word made of parts k+1 .. k+l must, on the vacuum, fix each
    relabeled diagonal image up to a nonzero constant and kill every
    off-diagonal image in the window; likewise for the involutes.
    """
    n = w.n
    pw = weylb.parts(w)
    tail: tuple[int, ...] = ()
    for part in pw[k:k + l]:
        tail += part
    table = repsoq.rep_table(repsoq.RepSpec(n, tail))
    vac = qo.vacuum(table.signature)
    window = list(node_window(n, k))
    constants: dict[int, complex] = {}
    failures = []
    max_violation = 0.0
    for i in window:
        target = emb(i)
        for j in window:
            for use_star in (False, True):
                op = table.entry(j, target)
                if use_star:
                    op = qo.adjoint(op)
                img = qo.apply_operator(op, vac, q)
                vac_amp = img.entries.get(tuple(0 for _ in table.signature), 0j)
                off_mass = max((abs(v) for key, v in img.entries.items()
                                if any(key)), default=0.0)
                if j == i:
                    if abs(vac_amp) <= tol:
                        failures.append(("zero-constant", i, j, use_star))
                    max_violation = max(max_violation, off_mass)
                    if not use_star:
                        constants[i] = vac_amp
                else:
                    mass = max(abs(vac_amp), off_mass)
                    max_violation = max(max_violation, mass)
                    if mass > tol:
                        failures.append(("nonzero-off", i, j, use_star))
    ok = not failures and max_violation < tol
    return EmbeddingReport(ok, constants, max_violation, failures)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_dot(diagram: Diagram) -> str:
    """Deterministic DOT text; nodes L{i}, M{layer}_{i}, R{i}."""
    lines = ["digraph diagram {", "  rankdir=LR;", "  node [shape=point];"]
    ncols = len(diagram.layers) + 1
    size = diagram.size

    def node_name(col: int, i: int) -> str:
        if col == 0:
            return f"L{i}"
        if col == ncols - 1:
            return f"R{i}"
        return f"M{col}_{i}"

    for col in range(ncols):
        for i in range(1, size + 1):
            lines.append(f"  {node_name(col, i)};")
    for col, ly in enumerate(diagram.layers):
        for a, b, prim in sorted(ly.edges, key=lambda e: (e[0], e[1], e[2].tag)):
            style, label = prim.dot_attrs()
            lines.append(
                f'  {node_name(col, a)} -> {node_name(col + 1, b)} '
                f'[style={style}, label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
