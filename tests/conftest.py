"""Shared oracles for the test suite.

The Weyl-group oracles here are deliberately independent of the library
implementation: lengths come from breadth-first search over the Cayley
graph, and spans over generator words come from dense linear algebra.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from bqdim import weylb


def bfs_lengths(n: int) -> dict[tuple[int, ...], int]:
    """Exact Coxeter lengths for every element, by BFS from the identity."""
    gens = [weylb.simple_reflection(i, n) for i in range(1, n + 1)]
    start = weylb.identity(n)
    dist = {start.images: 0}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for s in gens:
            nxt = w * s
            if nxt.images not in dist:
                dist[nxt.images] = dist[w.images] + 1
                queue.append(nxt)
    return dist


def all_elements(n: int) -> list[weylb.SignedPermutation]:
    return [weylb.SignedPermutation(img) for img in sorted(bfs_lengths(n))]


def subgroup_elements(R: weylb.ParabolicSubset) -> list[weylb.SignedPermutation]:
    """Closure of the generators indexed by R."""
    gens = [weylb.simple_reflection(i, R.n) for i in sorted(R.indices)]
    seen = {weylb.identity(R.n).images}
    queue = deque([weylb.identity(R.n)])
    while queue:
        w = queue.popleft()
        for s in gens:
            nxt = w * s
            if nxt.images not in seen:
                seen.add(nxt.images)
                queue.append(nxt)
    return [weylb.SignedPermutation(img) for img in sorted(seen)]


def dense_span_dimension(vectors: list[dict], tol: float = 1e-9) -> int:
    """Rank of a list of sparse vectors via dense SVD."""
    if not vectors:
        return 0
    keys = sorted({k for v in vectors for k in v})
    pos = {k: i for i, k in enumerate(keys)}
    mat = np.zeros((len(vectors), len(keys)), dtype=complex)
    for r, v in enumerate(vectors):
        for k, val in v.items():
            mat[r, pos[k]] = val
    if not mat.size:
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


@pytest.fixture(scope="session")
def w2_lengths():
    return bfs_lengths(2)


@pytest.fixture(scope="session")
def w3_lengths():
    return bfs_lengths(3)


@pytest.fixture
def shifted_homogeneous_witness(monkeypatch):
    """Negative control: growth.homogeneous_witnesses with its first letter
    (the h0 circle letter) claiming the next slot."""
    from bqdim import growth
    real = growth.homogeneous_witnesses

    def shifted(n, m, w):
        (op, slot, step), *rest = real(n, m, w)
        return [(op, slot + 1, step)] + rest

    monkeypatch.setattr(growth, "homogeneous_witnesses", shifted)
