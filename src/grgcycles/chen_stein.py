"""Exact dependency-neighborhood bound terms for the cycle census.

For the candidate set of k-cycles, two cycles are dependent exactly when
they share an edge.  Over all candidates the module computes

* ``b1``: sum over pairs (a, b) with a shared edge (self pair included) of
  the product of their marginal occurrence probabilities;
* ``b2``: sum over distinct such pairs of the joint occurrence probability,
  i.e. the product of edge probabilities over the union of the two edge
  sets (edges are conditionally independent given the weights);
* the conditional mean of the census given the weights, either exactly or
  via the cheap plug-in upper bound ``((sum W^2)/(sum W))**k / (2k)``.

Two exact evaluation paths exist.  The generic one enumerates the candidate
set (guarded by a cap) and walks each candidate's dependency neighborhood
through an edge -> candidates index, never the full quadratic pair scan.
For triangles there is also a dense matrix path: with ``P`` the edge
probability matrix, ``Q = P * P`` elementwise and ``S = P @ P``,

    rate = sum(P * S) / 6
    b1   = sum((P * S)**2) / 2 - sum(Q * (Q @ Q)) / 3
    b2   = sum(P * (S**2 - Q @ Q)) / 2

which needs no enumeration and scales to thousands of vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import List, Sequence, Set, Tuple

import numpy as np

from .cycles import (DEFAULT_CANDIDATE_CAP, CandidateCapError, candidate_count,
                     canonicalize, _iter_candidates)
from .graphs import edge_probability
from .poisson import poisson_rate
from .weights import WeightSpec, WeightVector, analytic_moments, sample_weights

__all__ = [
    "BoundTerms",
    "BoundReport",
    "neighborhood",
    "pair_probability",
    "exact_bound_terms",
    "conditional_rate_exact",
    "conditional_rate_plugin",
    "bound_report",
]


@dataclass(frozen=True)
class BoundTerms:
    """The two dependency sums for one weight realization."""

    b1: float
    b2: float


@dataclass(frozen=True)
class BoundReport:
    """Aggregated bound quantities over weight replications.

    ``gap`` is the absolute difference between the mean conditional rate
    and the limiting rate; ``rhs`` is the reportable combination
    ``mean(b1) + mean(b2) + gap`` (the hidden multiplicative constant of
    the underlying bound is not invented).
    """

    b1: float
    b2: float
    conditional_mean: float
    target_rate: float
    gap: float
    mode: str
    replications: int

    def __post_init__(self):
        if min(self.b1, self.b2, self.conditional_mean, self.target_rate) < 0:
            raise ValueError("bound components must be nonnegative")

    @property
    def rhs(self) -> float:
        return self.b1 + self.b2 + self.gap

    def to_record(self) -> dict:
        return {
            "b1": self.b1,
            "b2": self.b2,
            "conditional_mean": self.conditional_mean,
            "target_rate": self.target_rate,
            "gap": self.gap,
            "rhs": self.rhs,
            "mode": self.mode,
            "replications": self.replications,
        }


def _cycle_edges(cycle: Sequence[int]) -> Set[Tuple[int, int]]:
    verts = list(cycle)
    edges = set()
    for a, b in zip(verts, verts[1:] + verts[:1]):
        edges.add((min(a, b), max(a, b)))
    return edges


def neighborhood(alpha: Sequence[int], k: int, n: int,
                 cap: int = DEFAULT_CANDIDATE_CAP) -> Set[tuple]:
    """All candidate k-cycles sharing at least one edge with ``alpha``.

    Includes ``alpha`` itself.  Built constructively: for each edge of
    ``alpha``, every candidate through that edge is a path of k-2 further
    vertices connecting its endpoints.
    """
    alpha = canonicalize(alpha)
    if len(alpha) != k:
        raise ValueError("alpha does not have length k")
    if max(alpha) >= n:
        raise ValueError("alpha vertex outside 0..n-1")
    per_edge = 1
    for i in range(k - 2):
        per_edge *= n - 2 - i
    if k * per_edge > cap:
        raise CandidateCapError(
            f"neighborhood enumeration of ~{k * per_edge} cycles exceeds cap {cap}")
    out: Set[tuple] = set()
    verts = set(range(n))
    for u, v in _cycle_edges(alpha):
        rest = sorted(verts - {u, v})
        for mid in permutations(rest, k - 2):
            out.add(canonicalize((u,) + mid + (v,)))
    return out


def pair_probability(weights: WeightVector, alpha: Sequence[int],
                     beta: Sequence[int]) -> float:
    """Joint occurrence probability of two cycles given the weights."""
    union = _cycle_edges(canonicalize(alpha)) | _cycle_edges(canonicalize(beta))
    w = weights.values
    prob = 1.0
    for u, v in union:
        prob *= edge_probability(w[u], w[v], weights.total)
    return prob


# ---------------------------------------------------------------------------
# Exact paths
# ---------------------------------------------------------------------------

def _edge_matrix(weights: WeightVector) -> np.ndarray:
    w = weights.values
    prod = np.outer(w, w)
    P = prod / (weights.total + prod)
    np.fill_diagonal(P, 0.0)
    return P


def _dense_triangle_terms(weights: WeightVector) -> Tuple[float, float, float]:
    P = _edge_matrix(weights)
    Q = P * P
    S = P @ P
    Q2 = Q @ Q
    T = P * S
    rate = float(T.sum()) / 6.0
    b1 = float((T * T).sum()) / 2.0 - float((Q * Q2).sum()) / 3.0
    b2 = float((P * (S * S - Q2)).sum()) / 2.0
    return b1, b2, rate


def _candidate_arrays(weights: WeightVector, k: int, cap: int):
    """Candidate edge-id rows, per-candidate probabilities and the
    edge -> candidates CSR index."""
    n = len(weights)
    total_cands = candidate_count(n, k)
    if total_cands > cap:
        raise CandidateCapError(
            f"{total_cands} candidate cycles exceed the cap {cap}")
    cands = np.fromiter(
        (v for cyc in _iter_candidates(n, k) for v in cyc),
        dtype=np.int64, count=total_cands * k).reshape(total_cands, k)
    heads = cands
    tails = np.roll(cands, -1, axis=1)
    lo = np.minimum(heads, tails)
    hi = np.maximum(heads, tails)
    raw_ids = lo * n + hi
    uniq, rows = np.unique(raw_ids, return_inverse=True)
    rows = np.sort(rows.reshape(total_cands, k), axis=1)
    w = weights.values
    us, vs = uniq // n, uniq % n
    prod = w[us] * w[vs]
    p_edge = prod / (weights.total + prod)
    p_cand = p_edge[rows].prod(axis=1)
    flat = rows.ravel()
    order = np.argsort(flat, kind="stable")
    cand_indices = np.repeat(np.arange(total_cands, dtype=np.int64), k)[order]
    cand_indptr = np.searchsorted(flat[order], np.arange(uniq.size + 1))
    return rows, p_cand, cand_indptr.astype(np.int64), cand_indices, p_edge


def _bound_terms(edge_rows, p_cand, cand_indptr, cand_indices,
                 p_edge) -> Tuple[float, float]:
    """b1 and b2 over the candidate set, vectorized over each candidate's
    dependency neighborhood.

    Inputs are ``_candidate_arrays``: sorted edge ids per candidate, the
    candidate probabilities, the edge -> candidates CSR index and the edge
    probabilities.  b1 sums p_a * p_b over pairs sharing an edge (self pair
    included); b2 sums p_ab = p_a * p_b / prod(shared edge probabilities)
    over distinct such pairs.
    """
    nc, k = edge_rows.shape
    b1 = 0.0
    b2 = 0.0
    for a in range(nc):
        segs = [cand_indices[cand_indptr[e]:cand_indptr[e + 1]]
                for e in edge_rows[a]]
        nbr = np.unique(np.concatenate(segs))
        pa = p_cand[a]
        b1 += pa * float(p_cand[nbr].sum())
        others = nbr[nbr != a]
        if others.size:
            rows = edge_rows[others]
            mask = (rows[:, :, None] == edge_rows[a][None, None, :]).any(axis=2)
            shared = np.where(mask, p_edge[rows], 1.0).prod(axis=1)
            b2 += float((pa * p_cand[others] / shared).sum())
    return float(b1), float(b2)


def exact_bound_terms(weights: WeightVector, k: int,
                      cap: int = DEFAULT_CANDIDATE_CAP,
                      method: str = "auto") -> BoundTerms:
    """Exact b1 and b2 over the full candidate set for one weight vector.

    ``method="auto"`` takes the dense matrix path for k=3 (no cap needed)
    and candidate enumeration otherwise; ``"candidates"`` and ``"dense"``
    force a path.
    """
    if method not in ("auto", "candidates", "dense"):
        raise ValueError(f"unknown method {method!r}")
    if method == "dense" and k != 3:
        raise ValueError("the dense path only covers k = 3")
    if k == 3 and method != "candidates":
        b1, b2, _ = _dense_triangle_terms(weights)
        return BoundTerms(b1=b1, b2=b2)
    rows, p_cand, indptr, indices, p_edge = _candidate_arrays(weights, k, cap)
    b1, b2 = _bound_terms(rows, p_cand, indptr, indices, p_edge)
    return BoundTerms(b1=b1, b2=b2)


def conditional_rate_exact(weights: WeightVector, k: int,
                           cap: int = DEFAULT_CANDIDATE_CAP) -> float:
    """Exact conditional census mean: sum of all candidate probabilities."""
    n = len(weights)
    if n < k:
        return 0.0
    if k == 3:
        return _dense_triangle_terms(weights)[2]
    _, p_cand, _, _, _ = _candidate_arrays(weights, k, cap)
    return float(p_cand.sum())


def conditional_rate_plugin(weights: WeightVector, k: int) -> float:
    """Plug-in upper bound ``((sum W^2)/(sum W))**k / (2k)``."""
    w = weights.values
    return float((w @ w / w.sum()) ** k / (2 * k))


def bound_report(spec: WeightSpec, n: int, k: int, replications: int, seed,
                 cap: int = DEFAULT_CANDIDATE_CAP,
                 rate_mode: str = "auto") -> Tuple[BoundReport, List[dict]]:
    """Monte Carlo bound study over weight replications.

    b1 and b2 are exact per replication: dense path for triangles, capped
    candidate enumeration otherwise (beyond the cap there is no surrogate,
    so that raises).  The conditional rate is exact by default;
    ``rate_mode="plugin"`` switches it to the plug-in upper bound.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    if rate_mode not in ("auto", "exact", "plugin"):
        raise ValueError(f"unknown rate_mode {rate_mode!r}")
    if k != 3 and candidate_count(n, k) > cap:
        # b1/b2 have no plug-in surrogate; only the rate does
        raise CandidateCapError(
            f"{candidate_count(n, k)} candidates exceed cap {cap}; "
            "bound terms need the candidate set (or k = 3)")
    use_exact = rate_mode != "plugin"
    mode = "exact" if use_exact else "plugin"
    target = poisson_rate(analytic_moments(spec).ratio, k).lam
    rows = []
    b1s = np.empty(replications)
    b2s = np.empty(replications)
    rates = np.empty(replications)
    for rep in range(replications):
        wseed = np.random.SeedSequence(seed, spawn_key=(rep, 0))
        weights = sample_weights(spec, n, wseed)
        if k == 3:
            b1, b2, dense_rate = _dense_triangle_terms(weights)
            rate = dense_rate if use_exact else conditional_rate_plugin(weights, k)
        else:
            arrays = _candidate_arrays(weights, k, cap)
            b1, b2 = _bound_terms(*arrays)
            rate = (float(arrays[1].sum()) if use_exact
                    else conditional_rate_plugin(weights, k))
        b1s[rep] = b1
        b2s[rep] = b2
        rates[rep] = rate
        rows.append({"replication": rep, "b1": b1, "b2": b2,
                     "conditional_mean": rate, "mode": mode})
    report = BoundReport(
        b1=float(b1s.mean()),
        b2=float(b2s.mean()),
        conditional_mean=float(rates.mean()),
        target_rate=target,
        gap=abs(float(rates.mean()) - target),
        mode=mode,
        replications=replications,
    )
    return report, rows
