"""Random graph sampling from vertex weights.

The main edge law connects vertices ``i`` and ``j`` independently with
probability ``w_i * w_j / (total + w_i * w_j)``; the Chung-Lu variant uses
``w_i * w_j / total`` and requires ``w_i**2 <= total`` for every vertex.
Graphs are stored as CSR adjacency (strictly sorted neighbor lists, no
self-loops) so the cycle census kernels can run directly on the arrays.

Sampling consumes exactly one uniform variate per vertex pair, visiting
pairs in lexicographic order, so a fixed seed pins the whole bit stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .weights import WeightVector

__all__ = [
    "GrgGraph",
    "edge_probability",
    "sample_grg",
    "sample_chung_lu",
    "cycle_probability",
]


@dataclass(frozen=True)
class GrgGraph:
    """Simple undirected graph over vertices ``0..n-1`` in CSR form."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: Optional[WeightVector] = None

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return int(self.indices.size // 2)

    def degree(self, i: int) -> int:
        return int(self.indptr[i + 1] - self.indptr[i])

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def has_edge(self, i: int, j: int) -> bool:
        row = self.neighbors(i)
        pos = int(np.searchsorted(row, j))
        return pos < row.size and int(row[pos]) == j

    def edge_array(self) -> np.ndarray:
        """Edges as an (m, 2) array with u < v, lexicographically sorted."""
        us = np.repeat(np.arange(self.n), np.diff(self.indptr))
        mask = us < self.indices
        return np.column_stack([us[mask], self.indices[mask]])

    # -- construction & text interop ---------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]],
                   weights: Optional[WeightVector] = None) -> "GrgGraph":
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        indptr, indices = _csr_from_pairs(n, pairs[:, 0], pairs[:, 1])
        return cls(n=n, indptr=indptr, indices=indices, weights=weights)

    @classmethod
    def complete(cls, n: int) -> "GrgGraph":
        from itertools import combinations
        return cls.from_edges(n, combinations(range(n), 2))

    def to_edge_text(self) -> str:
        """Whitespace edge list with an ``n m`` header, 1-based vertex ids."""
        lines = [f"{self.n} {self.m}"]
        for u, v in self.edge_array():
            lines.append(f"{u + 1} {v + 1}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_edge_text(cls, text: str) -> "GrgGraph":
        rows = [ln.split() for ln in text.splitlines() if ln.strip()]
        if not rows or len(rows[0]) != 2:
            raise ValueError("edge list must start with an 'n m' header")
        for name, field in zip("nm", rows[0]):
            if not (field.isascii() and field.isdigit()):
                raise ValueError(f"edge list header '{' '.join(rows[0])}': "
                                 f"{name} = {field!r} is not a nonnegative "
                                 "integer")
        n, m = (int(x) for x in rows[0])
        for ln in rows[1:]:
            if len(ln) != 2:
                raise ValueError(f"malformed edge line: {' '.join(ln)}")
        if len(rows) - 1 != m:
            raise ValueError(f"header declares {m} edges, found {len(rows) - 1}")
        pairs = np.array(rows[1:], dtype=np.int64).reshape(-1, 2)
        indptr, indices = _csr_from_pairs(n, pairs[:, 0] - 1, pairs[:, 1] - 1,
                                          base=1)
        return cls(n=n, indptr=indptr, indices=indices)


def edge_probability(w_i: float, w_j: float, total: float) -> float:
    """Connection probability of one vertex pair given the total weight."""
    if w_i <= 0 or w_j <= 0:
        raise ValueError("weights must be strictly positive")
    if total < w_i + w_j:
        raise ValueError("total weight is smaller than the pair's weights")
    prod = w_i * w_j
    return prod / (total + prod)


def _csr_from_pairs(n: int, us: np.ndarray, vs: np.ndarray,
                    base: int = 0) -> tuple:
    """CSR arrays of the simple graph with edges ``(us[t], vs[t])``.

    Rejects self-loops, endpoints outside ``0..n-1`` and repeated edges,
    naming the first offender with vertex ids shifted by ``base``.
    """
    loops = np.flatnonzero(us == vs)
    if loops.size:
        raise ValueError(f"self-loop at vertex {us[loops[0]] + base}")
    outside = np.flatnonzero((us < 0) | (us >= n) | (vs < 0) | (vs >= n))
    if outside.size:
        t = outside[0]
        raise ValueError(f"edge ({us[t] + base},{vs[t] + base}) outside "
                         f"{base}..{n - 1 + base}")
    rows = np.concatenate([us, vs])
    cols = np.concatenate([vs, us])
    order = np.lexsort((cols, rows))
    rows = rows[order]
    cols = cols[order]
    repeated = np.flatnonzero((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1]))
    if repeated.size:
        u, v = sorted((rows[repeated[0]], cols[repeated[0]]))
        raise ValueError(f"repeated edge ({u + base},{v + base})")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols


def _sample_pairwise(weights: WeightVector, seed, chung_lu: bool) -> GrgGraph:
    w = weights.values
    n = w.size
    if n < 2:
        raise ValueError("need at least two vertices")
    total = weights.total
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n - 1):
        u = rng.random(n - 1 - i)
        prod = w[i] * w[i + 1:]
        p = prod / total if chung_lu else prod / (total + prod)
        rows.append(np.nonzero(u < p)[0] + i + 1)
    heads = np.repeat(np.arange(n - 1), [row.size for row in rows])
    indptr, indices = _csr_from_pairs(n, heads, np.concatenate(rows))
    return GrgGraph(n=n, indptr=indptr, indices=indices, weights=weights)


def sample_grg(weights: WeightVector, seed) -> GrgGraph:
    """Sample the weighted graph under the main edge law."""
    return _sample_pairwise(weights, seed, chung_lu=False)


def sample_chung_lu(weights: WeightVector, seed) -> GrgGraph:
    """Sample the Chung-Lu variant (edge probability ``w_i w_j / total``)."""
    w = weights.values
    bad = np.nonzero(w * w > weights.total)[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"Chung-Lu requires W_i^2 <= total weight; vertex {i + 1} "
            f"(1-based) has W^2 = {w[i] * w[i]:g} > {weights.total:g}")
    return _sample_pairwise(weights, seed, chung_lu=True)


def cycle_probability(weights: WeightVector, cycle: Sequence[int]) -> float:
    """Probability that a given vertex cycle occurs, given the weights.

    Edges are conditionally independent, so this is the product of the edge
    probabilities along the cycle.
    """
    verts = [int(v) for v in cycle]
    if len(verts) < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    if len(set(verts)) != len(verts):
        raise ValueError("cycle contains a repeated vertex")
    w = weights.values
    if any(not 0 <= v < w.size for v in verts):
        raise ValueError("cycle vertex outside the weight vector")
    total = weights.total
    prob = 1.0
    for a, b in zip(verts, verts[1:] + verts[:1]):
        prob *= edge_probability(w[a], w[b], total)
    return prob
