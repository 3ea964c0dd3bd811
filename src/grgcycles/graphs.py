"""Random graph sampling from vertex weights.

The main edge law connects vertices ``i`` and ``j`` independently with
probability ``w_i * w_j / (total + w_i * w_j)``; the Chung-Lu variant uses
``w_i * w_j / total`` and requires ``w_i**2 <= total`` for every vertex.
Graphs are stored as CSR adjacency (strictly sorted neighbor lists, no
self-loops) so the cycle census kernels can run directly on the arrays.

Sampling consumes exactly one uniform variate per vertex pair, visiting
pairs in lexicographic order, so a fixed seed pins the whole bit stream.
The uniforms are drawn in chunks of whole rows; PCG64 yields one double per
variate, so ``random(a)`` then ``random(b)`` equals ``random(a + b)`` and the
chunking does not move a draw.  A pre-filter bounds ``p_ij`` over each run of
columns by the edge law at the run's largest weight, times ``1 + 1e-12``;
only pairs whose uniform falls below that bound get the exact test
``u < p_ij``, with ``p_ij`` evaluated as ``prod / (total + prod)`` (or
``prod / total``) from ``prod = w_i * w_j``.  Both laws increase with the
product and rounding moves each value by a few ulps, far less than the
slack, so the bound never falls below ``p_ij`` and the pre-filter cannot
change an edge (for weights whose products and total stay finite).
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
        us, vs = (self.edge_array() + 1).T.tolist()
        return f"{self.n} {self.m}\n" + "".join(map("{} {}\n".format, us, vs))

    @classmethod
    def from_edge_text(cls, text: str) -> "GrgGraph":
        if not (text.isascii() and _two_fields_per_line(text)):
            _check_lines(text)
        tokens = text.split()
        n, m = _header(tokens[:2])
        if len(tokens) // 2 - 1 != m:
            raise ValueError(
                f"header declares {m} edges, found {len(tokens) // 2 - 1}")
        pairs = np.array(tokens[2:], dtype=np.int64).reshape(-1, 2)
        indptr, indices = _csr_from_pairs(n, pairs[:, 0] - 1, pairs[:, 1] - 1,
                                          base=1)
        return cls(n=n, indptr=indptr, indices=indices)


# ASCII codes that ``str.split()`` treats as whitespace, and those of them
# that ``str.splitlines()`` ends a line at.
_SPACE = np.zeros(128, dtype=bool)
_SPACE[list(b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f")] = True
_LINE_END = np.zeros(128, dtype=bool)
_LINE_END[list(b"\n\r\x0b\x0c\x1c\x1d\x1e")] = True


def _two_fields_per_line(text: str) -> bool:
    """Whether some line of the ASCII ``text`` has fields and every such
    line has exactly two."""
    codes = np.frombuffer((" " + text).encode("ascii"), dtype=np.uint8)
    space = _SPACE.take(codes)
    # a field starts after position j where a space meets a non-space;
    # its line number counts the line ends up to j
    starts = np.flatnonzero(space[:-1] > space[1:])
    line = np.flatnonzero(_LINE_END.take(codes)).searchsorted(starts, "right")
    return (line.size > 0 and line.size % 2 == 0
            and np.array_equal(line[0::2], line[1::2])
            and bool(np.all(line[1:-1:2] < line[2::2])))


def _header(fields) -> tuple:
    """``n`` and ``m`` from the two fields of an edge list header."""
    for name, field in zip("nm", fields):
        if not (field.isascii() and field.isdigit()):
            raise ValueError(f"edge list header '{' '.join(fields)}': "
                             f"{name} = {field!r} is not a nonnegative "
                             "integer")
    return int(fields[0]), int(fields[1])


def _check_lines(text: str) -> None:
    """Line by line: raise naming the header or the first edge line that
    does not hold exactly two fields."""
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not rows or len(rows[0]) != 2:
        raise ValueError("edge list must start with an 'n m' header")
    _header(rows[0])
    for ln in rows[1:]:
        if len(ln) != 2:
            raise ValueError(f"malformed edge line: {' '.join(ln)}")


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
    """CSR arrays of the simple graph with edges ``(us[t], vs[t])``, given
    as int64 arrays.

    Rejects self-loops, endpoints outside ``0..n-1`` and repeated edges,
    naming the first offender with vertex ids shifted by ``base``.
    """
    loops = (us == vs).nonzero()[0]
    if loops.size:
        raise ValueError(f"self-loop at vertex {us[loops[0]] + base}")
    # as unsigned integers, negative ids wrap round to values above n
    outside = (np.maximum(us.view(np.uint64), vs.view(np.uint64))
               >= n).nonzero()[0]
    if outside.size:
        t = outside[0]
        raise ValueError(f"edge ({us[t] + base},{vs[t] + base}) outside "
                         f"{base}..{n - 1 + base}")
    # key row * n + col for both directions of every edge, sorted
    keys = np.concatenate((us, vs))
    keys *= n
    keys += np.concatenate((vs, us))
    keys.sort()
    repeated = (keys[1:] == keys[:-1]).nonzero()[0]
    if repeated.size:
        u, v = sorted(divmod(int(keys[repeated[0]]), n))
        raise ValueError(f"repeated edge ({u + base},{v + base})")
    indptr = keys.searchsorted(np.arange(n + 1) * n)
    return indptr, keys % n


# Most uniforms drawn per ``rng.random`` call (512 kB of doubles), unless a
# single row is longer.
_PAIR_CHUNK = 1 << 16
# Columns that share one pre-filter bound within a row; the 2n/_BLOCK
# heaviest columns get a bound of their own.
_BLOCK = 128
# Relative slack that lifts each bound far above its rounding error.
_SLACK = 1.0 + 1e-12
# Chunks with fewer pairs test every pair exactly: there the pre-filter
# costs more than it saves.
_FILTER_MIN = 1024


def _column_segments(w: np.ndarray) -> tuple:
    """Edges of the pre-filter's column segments and each segment's largest
    weight: blocks of ``_BLOCK`` columns, with each of the ``2n/_BLOCK``
    heaviest columns cut out as a segment of its own, so that a hub does not
    loosen the bound of its block."""
    n = w.size
    cut = np.zeros(n + 1, dtype=bool)
    cut[::_BLOCK] = True
    cut[-1] = True
    hubs = w.argsort()[n - 2 * n // _BLOCK:]
    cut[hubs] = True
    cut[1:][hubs] = True
    edges = cut.nonzero()[0]
    return edges, np.maximum.reduceat(w, edges[:-1])


def _sample_pairwise(weights: WeightVector, seed, chung_lu: bool) -> GrgGraph:
    w = weights.values
    n = w.size
    if n < 2:
        raise ValueError("need at least two vertices")
    total = weights.total
    rng = np.random.default_rng(seed)
    # pair (i, j) sits at flat index starts[i] + j - i - 1 of the stream,
    # so adding col_shift[i] to a flat index of row i gives its column
    ids = np.arange(n + 1)
    starts = np.zeros(n, dtype=np.int64)
    np.add.accumulate(ids[n - 1:0:-1], out=starts[1:])
    col_shift = ids[1:] - starts
    npairs = n * (n - 1) // 2
    if npairs >= _FILTER_MIN:
        edges, seg_max = _column_segments(w)
    heads, tails = [], []
    i0 = 0
    while i0 < n - 1:
        # rows i0..i1-1, at most _PAIR_CHUNK pairs unless one row is longer
        a = int(starts[i0])
        i1 = int(starts.searchsorted(a + _PAIR_CHUNK, "right")) - 1
        i1 = max(i0 + 1, i1)
        u = rng.random(int(starts[i1]) - a)
        if u.size < _FILTER_MIN:
            cand = np.arange(u.size)
        else:
            # bound p_ij over row i's columns in segment k by the segment's
            # largest weight; segments left of the row get length 0
            k0 = int(edges.searchsorted(i0 + 1, "right")) - 1
            x = w[i0:i1, None] * seg_max[k0:]
            bound = (x / total if chung_lu else x / (total + x)) * _SLACK
            clipped = np.maximum(edges[k0:], ids[i0 + 1:i1 + 1, None])
            lens = clipped[:, 1:] - clipped[:, :-1]
            cand = (u < bound.ravel().repeat(lens.ravel())).nonzero()[0]
        # exact test of the candidates; row i0 + r holds candidates
        # firsts[r] up to firsts[r + 1]
        pos = cand + a
        firsts = pos.searchsorted(starts[i0:i1 + 1])
        rows = ids[i0:i1].repeat(firsts[1:] - firsts[:-1])
        cols = pos + col_shift[rows]
        prod = w[rows] * w[cols]
        p = prod / total if chung_lu else prod / (total + prod)
        keep = u[cand] < p
        heads.append(rows[keep])
        tails.append(cols[keep])
        i0 = i1
    if len(heads) > 1:
        heads, tails = [np.concatenate(heads)], [np.concatenate(tails)]
    indptr, indices = _csr_from_pairs(n, heads[0], tails[0])
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
