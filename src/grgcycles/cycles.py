"""Exact counting and enumeration of fixed-length simple cycles.

A length-k cycle has 2k equivalent vertex sequences (k rotations times two
orientations).  The canonical representative starts at the smallest vertex
and runs toward the smaller of its two cycle-neighbors, i.e.
``v0 = min(vertices)`` and ``v1 < v[k-1]``.  Enumeration walks the
canonical representatives directly with a DFS, so no deduplication state
is needed and the total over the complete graph matches the
falling-factorial count ``(n)_k / (2k)`` exactly.

Triangles and 4-cycles have closed forms over wedges (paths ``y - x - z``):
a triangle is a wedge whose endpoints are adjacent, and a 4-cycle is a pair
of wedges with the same endpoints.  Longer cycles are counted by the DFS.

``brute_force_count`` is the test oracle: it enumerates every ordered tuple
of distinct vertices, checks all k edges, and divides by 2k.  It is guarded
to small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterator, Sequence

import numpy as np

from .graphs import GrgGraph

__all__ = [
    "CandidateCapError",
    "CycleCensus",
    "DEFAULT_CANDIDATE_CAP",
    "canonicalize",
    "is_canonical",
    "candidate_count",
    "count_k_cycles",
    "count_triangles",
    "brute_force_count",
    "enumerate_cycles",
]

DEFAULT_CANDIDATE_CAP = 200_000


class CandidateCapError(ValueError):
    """Candidate enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class CycleCensus:
    k: int
    count: int


def canonicalize(vertices: Sequence[int]) -> tuple:
    """Canonical representative of a cycle given as a vertex sequence."""
    verts = [int(v) for v in vertices]
    if len(verts) < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    if len(set(verts)) != len(verts):
        raise ValueError("cycle contains a repeated vertex")
    k = len(verts)
    start = verts.index(min(verts))
    rot = verts[start:] + verts[:start]
    if rot[1] > rot[-1]:
        rot = [rot[0]] + rot[:0:-1]
    return tuple(rot)


def is_canonical(vertices: Sequence[int]) -> bool:
    return tuple(int(v) for v in vertices) == canonicalize(vertices)


def _validate_k(n: int, k: int) -> None:
    if k < 3:
        raise ValueError("cycle length k must be at least 3")
    if k > n:
        raise ValueError(f"cycle length {k} exceeds vertex count {n}")


def candidate_count(n: int, k: int) -> int:
    """Number of potential k-cycles on n labeled vertices, exactly.

    Computed in exact integer arithmetic as n(n-1)...(n-k+1) / (2k); the
    division is checked to be exact.
    """
    _validate_k(n, k)
    falling = 1
    for i in range(k):
        falling *= n - i
    quotient, rem = divmod(falling, 2 * k)
    if rem:
        raise ArithmeticError("falling factorial not divisible by 2k")
    return quotient


def _row_pair_keys(indptr: np.ndarray, indices: np.ndarray,
                   n: int) -> np.ndarray:
    """Keys ``y * n + z`` of every pair ``y < z`` sharing a CSR row.

    Rows must be sorted.  Pairs are emitted by their distance within the
    row, so every step works only on the positions that still have a
    partner that far ahead and no per-pair index arrays are built.
    """
    ahead = (np.repeat(indptr[1:], np.diff(indptr))
             - np.arange(indices.size) - 1)
    by_ahead = np.argsort(-ahead, kind="stable")
    at_least = np.cumsum(np.bincount(ahead)[::-1])[::-1]
    keys = np.empty(int(ahead.sum()), dtype=np.int64)
    filled = 0
    for gap in range(1, at_least.size):
        pos = by_ahead[:at_least[gap]]
        keys[filled:filled + pos.size] = indices[pos] * n + indices[pos + gap]
        filled += pos.size
    return keys


def _count_triangles(graph: GrgGraph) -> int:
    """Forward algorithm (Chiba & Nishizeki 1985; Schank & Wagner 2005).

    Each edge points from its lower to its higher (degree, id) rank, so a
    triangle is exactly one wedge of out-edges at its lowest vertex whose
    endpoints are joined.  Ranking by degree keeps a hub's wedges few.
    """
    n = graph.n
    degree = np.diff(graph.indptr)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(degree, kind="stable")] = np.arange(n)
    tails = rank[np.repeat(np.arange(n), degree)]
    heads = rank[graph.indices]
    forward = tails < heads
    edges = tails[forward] * n + heads[forward]
    edges.sort()
    out_ptr = np.searchsorted(edges, np.arange(0, n * n + 1, n))
    wedges = _row_pair_keys(out_ptr, edges % n, n)
    if not wedges.size:
        return 0
    wedges.sort()     # ordered probes keep the lookup cache-friendly
    hit = np.minimum(np.searchsorted(edges, wedges), edges.size - 1)
    return int(np.count_nonzero(edges[hit] == wedges))


def _count_squares(graph: GrgGraph) -> int:
    """``sum over y < z of C(c_yz, 2) / 2``, with ``c_yz`` the common
    neighbors of y and z: each 4-cycle is two wedges on each diagonal."""
    keys = _row_pair_keys(graph.indptr, graph.indices, graph.n)
    keys.sort()
    # a run of c equal keys holds c - 1 adjacent repeats and C(c, 2) pairs
    repeats = np.flatnonzero(keys[1:] == keys[:-1])
    if not repeats.size:
        return 0
    breaks = np.flatnonzero(np.diff(repeats) != 1) + 1
    runs = np.diff(np.concatenate(([0], breaks, [repeats.size])))
    return int((runs * (runs + 1) // 2).sum()) // 2


def count_k_cycles(graph: GrgGraph, k: int) -> CycleCensus:
    """Exact census of length-k cycles.

    k = 3 and k = 4 use the wedge closed forms; longer cycles are counted
    by walking the canonical DFS.
    """
    _validate_k(graph.n, k)
    if k == 3:
        count = _count_triangles(graph)
    elif k == 4:
        count = _count_squares(graph)
    else:
        count = sum(1 for _ in _iter_present(graph, k))
    return CycleCensus(k=k, count=count)


def count_triangles(graph: GrgGraph) -> CycleCensus:
    """Triangle census; the k = 3 path of ``count_k_cycles``."""
    return count_k_cycles(graph, 3)


@lru_cache(maxsize=32)
def _permutation_array(n: int, k: int) -> np.ndarray:
    return np.array(list(permutations(range(n), k)), dtype=np.int64)


def brute_force_count(graph: GrgGraph, k: int) -> CycleCensus:
    """Oracle census: test all ordered k-tuples, divide hits by 2k."""
    if graph.n > 10:
        raise ValueError("brute force oracle is limited to n <= 10")
    _validate_k(graph.n, k)
    adj = np.zeros((graph.n, graph.n), dtype=bool)
    for u, v in graph.edge_array():
        adj[u, v] = adj[v, u] = True
    perms = _permutation_array(graph.n, k)
    ok = np.ones(len(perms), dtype=bool)
    for t in range(k):
        ok &= adj[perms[:, t], perms[:, (t + 1) % k]]
    hits = int(ok.sum())
    count, rem = divmod(hits, 2 * k)
    if rem:
        raise ArithmeticError("ordered-tuple hits not divisible by 2k")
    return CycleCensus(k=k, count=count)


def _iter_candidates(n: int, k: int) -> Iterator[tuple]:
    for combo in combinations(range(n), k):
        v0 = combo[0]
        for perm in permutations(combo[1:]):
            if perm[0] < perm[-1]:
                yield (v0,) + perm


def _iter_present(graph: GrgGraph, k: int) -> Iterator[tuple]:
    indptr, indices = graph.indptr, graph.indices
    n = graph.n
    adj = [indices[indptr[i]:indptr[i + 1]].tolist() for i in range(n)]
    adjset = [set(a) for a in adj]

    def extend(s, path, used, depth):
        last = path[-1]
        if depth == k - 2:
            v1 = path[1]
            for v in adj[last]:
                if v > v1 and v not in used and s in adjset[v]:
                    yield tuple(path) + (v,)
            return
        for v in adj[last]:
            if v <= s or v in used:
                continue
            path.append(v)
            used.add(v)
            yield from extend(s, path, used, depth + 1)
            used.discard(v)
            path.pop()

    for s in range(n):
        yield from extend(s, [s], {s}, 0)


def enumerate_cycles(graph: GrgGraph, k: int, mode: str = "present",
                     cap: int = DEFAULT_CANDIDATE_CAP) -> Iterator[tuple]:
    """Yield each canonical k-cycle exactly once.

    ``mode="present"`` walks the cycles realized in the graph;
    ``mode="candidates"`` walks every potential cycle on ``graph.n``
    vertices (refused if their number exceeds ``cap``).
    """
    _validate_k(graph.n, k)
    if mode == "candidates":
        total = candidate_count(graph.n, k)
        if total > cap:
            raise CandidateCapError(
                f"{total} candidate cycles exceed the cap {cap}")
        return _iter_candidates(graph.n, k)
    if mode == "present":
        return _iter_present(graph, k)
    raise ValueError(f"unknown enumeration mode {mode!r}")
