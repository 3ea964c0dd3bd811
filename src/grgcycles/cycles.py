"""Exact counts of fixed-length simple cycles.

A length-k cycle has 2k equivalent vertex sequences (k rotations times two
orientations).  The canonical representative starts at the smallest vertex
and runs toward the smaller of its two cycle-neighbors, i.e.
``v0 = min(vertices)`` and ``v1 < v[k-1]``.  The DFS walker visits the
canonical representatives directly, so no deduplication state is needed
and the total over the complete graph matches the falling-factorial count
``(n)_k / (2k)`` exactly.

Triangles and 4-cycles have closed forms over wedges (paths ``y - x - z``):
a triangle is a wedge whose endpoints are adjacent, and a 4-cycle is a pair
of wedges with the same endpoints.  Both run on one CSR of the graph with
every vertex renamed by its (degree, id) rank (Chiba & Nishizeki 1985), and
each cycle is counted once, at the wedges whose ends outrank their centre: a
triangle at its lowest-ranked vertex, a 4-cycle at its top-ranked vertex.
One generator emits the wedge keys ``y * n + z`` of both, in ``uint32`` when
n**2 <= 2**32 and in ``int64`` otherwise.  It holds the CSR positions it
works on in ``int32`` while the CSR has fewer than 2**31 entries (``int64``
otherwise) and frees each of its arrays once it is dead.  Longer cycles are
counted by the DFS.
The candidate rows (every canonical k-cycle on n vertices) feed the exact
bound sums of :mod:`.chen_stein`, at most ``DEFAULT_CANDIDATE_CAP`` of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, permutations
from math import comb
from typing import Iterator

import numpy as np

from .graphs import GrgGraph, _csr_keys, _index_dtype, _key_dtype

__all__ = [
    "CandidateCapError",
    "CycleCensus",
    "DEFAULT_CANDIDATE_CAP",
    "candidate_count",
    "count_k_cycles",
    "count_triangles",
]

DEFAULT_CANDIDATE_CAP = 200_000


class CandidateCapError(ValueError):
    """Candidate enumeration would exceed ``DEFAULT_CANDIDATE_CAP``."""


@dataclass(frozen=True)
class CycleCensus:
    k: int
    count: int


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


def _capped_count(n: int, k: int) -> int:
    """``candidate_count(n, k)``, refused past ``DEFAULT_CANDIDATE_CAP``."""
    total = candidate_count(n, k)
    if total > DEFAULT_CANDIDATE_CAP:
        raise CandidateCapError(
            f"{total} candidate {k}-cycles on n={n} exceed the cap of "
            f"{DEFAULT_CANDIDATE_CAP} (k = 3 bound terms need no candidates)")
    return total


def _ranked_csr(graph: GrgGraph) -> tuple:
    """The graph with each vertex renamed by its (degree, id) rank, as the
    row pointers and sorted keys of ``graphs._csr_keys``, the columns in
    the keys' type and each row's first position of a higher rank."""
    n = graph.n
    degree = np.diff(graph.indptr)
    # a stable sort of keys of 16 bits or fewer is a radix sort
    by_degree = np.argsort(
        degree.astype(np.min_scalar_type(degree.max(initial=0))),
        kind="stable")
    rank = np.empty(n, dtype=_key_dtype(n))
    rank[by_degree] = np.arange(n, dtype=rank.dtype)
    indptr, keys = _csr_keys(n, (np.repeat(rank, degree), rank[graph.indices]))
    cols = keys - keys // n * n     # faster than %, see _csr_from_pairs
    # row v's higher ranks start at its first key above v * n + v
    upper = keys.searchsorted(np.arange(n, dtype=keys.dtype) * (n + 1))
    return indptr, keys, cols, upper


def _pair_keys(indptr: np.ndarray, cols: np.ndarray, y_from: np.ndarray,
               z_from: np.ndarray) -> np.ndarray:
    """Keys ``cols[p] * n + cols[q]`` of every pair of positions p < q in
    one row v of a sorted CSR with ``p >= y_from[v]`` and
    ``q >= z_from[v]``, in the type of ``cols``.

    Step r pairs every position with its r-th partner, so each step works
    only on the positions that still have r partners, and no per-pair
    index arrays are built.  The per-position arrays hold CSR positions in
    ``graphs._index_dtype``, ``int32`` below 2**31 entries, and each is
    freed once it is dead, before the keys are made; only the steps'
    gather index is ``intp``, which NumPy would otherwise convert at every
    step.  On Pareto(9.5, 10, 1) graphs (a 2-CPU VM, NumPy 2.4) the
    ``tracemalloc`` peak of a census is 0.62 MB at k = 3 and 0.84 MB at
    k = 4 for n = 2000, and 2.48 and 3.35 MB for n = 8000; a k = 3 census
    takes 1.6 ms at n = 2000 and 6.4 ms at n = 8000, a k = 4 census 1.4 and
    6.9 ms.
    """
    n = y_from.size
    index = _index_dtype(int(indptr[-1]))
    lens = (indptr[1:] - y_from).astype(index)
    ends = np.cumsum(lens, dtype=index)
    # the positions p, row by row, and each one's first partner
    pos = np.arange(lens.sum(), dtype=index)
    pos += np.repeat((y_from - (ends - lens)).astype(index), lens)
    first_z = np.repeat(z_from.astype(index), lens)
    np.maximum(first_z, pos + 1, out=first_z)
    partners = np.repeat(indptr[1:].astype(index), lens)
    partners -= first_z
    most = int(partners.max(initial=0))
    # lack puts the positions with the most partners first; a stable sort
    # of keys of 16 bits or fewer is a radix sort
    lack = (most - partners).astype(np.min_scalar_type(most))
    del partners
    by_partners = np.argsort(lack, kind="stable")
    # at_least[r] positions have r partners or more
    at_least = lack[by_partners].searchsorted(
        np.arange(most, -1, -1, dtype=lack.dtype), "right")
    del lack
    by_partners = by_partners[:at_least[1] if most else 0]
    ys = pos.take(by_partners)
    zs = first_z.take(by_partners)
    del pos, first_z, by_partners
    ys = cols.take(ys) * n
    # an intp gather index is not converted again at every step
    zs = zs.astype(np.intp, copy=False)
    keys = np.empty(int(at_least[1:].sum()), dtype=cols.dtype)
    filled = 0
    for r in range(most):
        size = int(at_least[r + 1])
        step = keys[filled:filled + size]
        # every index is in range, so "wrap" moves none; unlike "raise" it
        # writes straight into out, with no buffer
        np.take(cols[r:], zs[:size], out=step, mode="wrap")
        step += ys[:size]
        filled += size
    return keys


def _count_triangles(indptr: np.ndarray, keys: np.ndarray, cols: np.ndarray,
                     upper: np.ndarray) -> int:
    """Forward algorithm (Chiba & Nishizeki 1985; Schank & Wagner 2005) on
    the ranked CSR: a triangle is exactly one pair of higher-ranked
    neighbors of its lowest-ranked vertex that are joined.  Ranking by
    degree keeps a hub's pairs few."""
    wedges = _pair_keys(indptr, cols, upper, upper)
    # a pair's c wedges and its edge, if it has one, sort into one run of
    # equal keys, which then holds c adjacent repeats, one per triangle;
    # the repeats of pairs that are not edges are dropped below.  Sorting
    # both beats a binary search for every wedge.
    both = np.concatenate((keys, wedges))
    del wedges
    both.sort()
    repeated = both[1:][both[1:] == both[:-1]]
    if not repeated.size:
        return 0
    hit = np.minimum(keys.searchsorted(repeated), keys.size - 1)
    return int(np.count_nonzero(keys[hit] == repeated))


def _count_squares(indptr: np.ndarray, cols: np.ndarray,
                   upper: np.ndarray) -> int:
    """``sum over y < z of C(c_yz, 2)`` on the ranked CSR, with ``c_yz``
    the common neighbors of y and z that z outranks: each 4-cycle is
    counted once, at its top-ranked vertex z and the vertex y opposite."""
    keys = _pair_keys(indptr, cols, indptr[:-1], upper)
    keys.sort()
    # a run of c equal keys holds c - 1 adjacent repeats and C(c, 2) pairs
    repeats = np.flatnonzero(keys[1:] == keys[:-1])
    if not repeats.size:
        return 0
    breaks = np.flatnonzero(np.diff(repeats) != 1) + 1
    runs = np.diff(np.concatenate(([0], breaks, [repeats.size])))
    return int((runs * (runs + 1) // 2).sum())


def count_k_cycles(graph: GrgGraph, k: int) -> CycleCensus:
    """Exact census of length-k cycles.

    k = 3 and k = 4 use the wedge closed forms; longer cycles are counted
    by walking the canonical DFS.
    """
    _validate_k(graph.n, k)
    if k > 4:
        return CycleCensus(k=k, count=sum(1 for _ in _iter_present(graph, k)))
    indptr, keys, cols, upper = _ranked_csr(graph)
    if k == 3:
        count = _count_triangles(indptr, keys, cols, upper)
    else:
        count = _count_squares(indptr, cols, upper)
    return CycleCensus(k=k, count=count)


def count_triangles(graph: GrgGraph) -> CycleCensus:
    """Triangle census; the k = 3 path of ``count_k_cycles``."""
    return count_k_cycles(graph, 3)


def _candidate_rows(n: int, k: int) -> np.ndarray:
    """Every canonical k-cycle on n vertices as one int64 row each.

    Vertex sets come in lexicographic order; within a set, its least vertex
    is followed by each order of the rest whose first is below its last, in
    the order of ``permutations``.  Refused past the cap.
    """
    total = _capped_count(n, k)
    combos = np.fromiter(chain.from_iterable(combinations(range(n), k)),
                         dtype=np.int64, count=comb(n, k) * k).reshape(-1, k)
    orders = [(0,) + order for order in permutations(range(1, k))
              if order[0] < order[-1]]
    return combos[:, orders].reshape(total, k)


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
