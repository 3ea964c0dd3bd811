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
set (guarded by a cap) but never a pair of candidates.  With ``s_F`` and
``q_F`` the sums of ``p_a`` and ``p_a**2`` over the candidates ``a`` whose
edge set contains a nonempty edge set ``F``, Mobius inversion over the
subsets of each pair's shared edges gives

    b1 = sum_F (-1)**(|F|+1) s_F**2
    b2 = sum_F [prod_{e in F} (1/p_e - 1) + (-1)**(|F|+1)] (s_F**2 - q_F)

where F runs over the 2**k - 1 nonempty subsets of each candidate's edges.
For triangles there is also a dense matrix path: with ``P`` the edge
probability matrix, ``Q = P * P`` elementwise, ``S = P @ P`` and
``Q2 = Q @ Q``,

    rate = sum(P * S) / 6
    b1   = sum((P * S)**2) / 2 - sum(Q * Q2) / 3
    b2   = sum(P * (S**2 - Q2)) / 2

which needs no enumeration and scales to thousands of vertices.  Both
products are symmetric and computed as ``X @ X.T``, which NumPy hands to
BLAS syrk at half the flops of a general product.  The two products are
independent, so the path runs as two halves that each hold at most two
n x n arrays: the S-half returns ``rate``, ``sum(P**2 * S**2)`` and
``sum(P * S**2)``; the Q-half returns ``sum(Q * Q2)`` and ``sum(P * Q2)``.
``bound_report`` maps the halves of every replication as separate units of
the replication map, so two workers share one replication; in-process the
halves run one after the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations, permutations
from math import comb, perm
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from .cycles import (DEFAULT_CANDIDATE_CAP, CandidateCapError, candidate_count,
                     canonicalize)
from .graphs import edge_probability
from .poisson import poisson_rate
from .replication import map_replications, replication_seed
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
    per_edge = perm(n - 2, k - 2)
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
    """Edge probability matrix ``1 / (1 + c_i c_j)`` with
    ``c = sqrt(total) / w``, built in one n x n array; exactly symmetric."""
    c = np.sqrt(weights.total) / weights.values
    P = np.empty((c.size, c.size))
    np.copyto(P, c)
    P *= c[:, None]
    P += 1.0
    np.divide(1.0, P, out=P)
    np.fill_diagonal(P, 0.0)
    return P


def _dense_s_half(weights: WeightVector) -> Tuple[float, float, float]:
    """``rate``, ``sum(P**2 * S**2)`` and ``sum(P * S**2)`` from P and S."""
    P = _edge_matrix(weights)
    S = P @ P.T
    rate = float(np.vdot(P, S)) / 6.0
    S *= S
    return (rate, float(np.einsum("ij,ij,ij->", P, P, S)),
            float(np.vdot(P, S)))


def _dense_q_half(weights: WeightVector) -> Tuple[float, float]:
    """``sum(Q * Q2)`` and ``sum(P * Q2)`` from Q and Q2; P comes back from
    Q in place, since ``sqrt(p * p) == p`` in binary floating point unless
    ``p * p`` underflows."""
    Q = _edge_matrix(weights)
    Q *= Q
    Q2 = Q @ Q.T
    qq = float(np.vdot(Q, Q2))
    return qq, float(np.vdot(np.sqrt(Q, out=Q), Q2))


def _dense_terms(s_half, q_half) -> Tuple[float, float, float]:
    """b1, b2 and the rate from the two halves' sums."""
    rate, e1, e2 = s_half
    qq, pq = q_half
    return e1 / 2.0 - qq / 3.0, (e2 - pq) / 2.0, rate


def _candidate_arrays(weights: WeightVector, k: int, cap: int):
    """Sorted edge-id rows of the candidates, their probabilities and the
    edge probabilities."""
    n = len(weights)
    total_cands = candidate_count(n, k)
    if total_cands > cap:
        raise CandidateCapError(
            f"{total_cands} candidate cycles exceed the cap {cap}")
    combos = np.fromiter(chain.from_iterable(combinations(range(n), k)),
                         dtype=np.int64, count=comb(n, k) * k).reshape(-1, k)
    # each vertex set in the order of cycles._iter_candidates: its least
    # vertex, then the orders of the rest whose first is below its last
    orders = [(0,) + order for order in permutations(range(1, k))
              if order[0] < order[-1]]
    cands = combos[:, orders].reshape(total_cands, k)
    tails = np.roll(cands, -1, axis=1)
    raw_ids = np.minimum(cands, tails) * n + np.maximum(cands, tails)
    uniq, rows = np.unique(raw_ids, return_inverse=True)
    rows = np.sort(rows.reshape(total_cands, k), axis=1)
    w = weights.values
    prod = w[uniq // n] * w[uniq % n]
    p_edge = prod / (weights.total + prod)
    p_cand = p_edge[rows].prod(axis=1)
    return rows, p_cand, p_edge


def _bound_terms(edge_rows, p_cand, p_edge) -> Tuple[float, float]:
    """b1 and b2 over the candidate set by the inclusion-exclusion identity
    of the module docstring; ``- q_F`` drops the self pairs, so a lone cycle
    has b2 = 0 exactly.  Inputs are ``_candidate_arrays``.  The edge sets F
    are grouped by size and keyed by their sorted edge ids as base-m digits.
    """
    nc, k = edge_rows.shape
    base = p_edge.size
    if base ** k > np.iinfo(np.int64).max:
        raise ValueError(f"edge-set keys of {k} digits in base {base} "
                         "overflow int64")
    odds = 1.0 / p_edge - 1.0
    b1 = 0.0
    b2 = 0.0
    for size in range(1, k + 1):
        subsets = list(combinations(range(k), size))
        powers = base ** np.arange(size - 1, -1, -1, dtype=np.int64)
        keys = np.concatenate([edge_rows[:, cols] @ powers for cols in subsets])
        uniq, inverse = np.unique(keys, return_inverse=True)
        s = np.bincount(inverse, np.tile(p_cand, len(subsets)), uniq.size)
        q = np.bincount(inverse, np.tile(p_cand ** 2, len(subsets)), uniq.size)
        odds_prod = odds[uniq[:, None] // powers % base].prod(axis=1)
        sign = 1.0 if size % 2 else -1.0
        s *= s
        b1 += sign * float(s.sum())
        s -= q
        b2 += float(np.vdot(odds_prod + sign, s))
    return b1, b2


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
        return BoundTerms(*_dense_terms(_dense_s_half(weights),
                                        _dense_q_half(weights))[:2])
    return BoundTerms(*_bound_terms(*_candidate_arrays(weights, k, cap)))


def conditional_rate_exact(weights: WeightVector, k: int,
                           cap: int = DEFAULT_CANDIDATE_CAP) -> float:
    """Exact conditional census mean: sum of all candidate probabilities."""
    n = len(weights)
    if n < k:
        return 0.0
    if k == 3:
        return _dense_s_half(weights)[0]
    return float(_candidate_arrays(weights, k, cap)[1].sum())


def conditional_rate_plugin(weights: WeightVector, k: int) -> float:
    """Plug-in upper bound ``((sum W^2)/(sum W))**k / (2k)``."""
    w = weights.values
    return float((w @ w / w.sum()) ** k / (2 * k))


def _bound_unit(spec: WeightSpec, n: int, k: int, seed, cap: int,
                plugin: bool, unit: Tuple[int, Optional[str]]) -> tuple:
    """One unit of ``bound_report``: ``(rep, "s")`` or ``(rep, "q")`` is a
    half of a dense replication, ``(rep, None)`` a whole candidate one.
    Every unit draws the replication's weights itself."""
    rep, half = unit
    weights = sample_weights(spec, n, replication_seed(seed, rep, 0))
    if half == "q":
        return _dense_q_half(weights)
    if half == "s":
        out = _dense_s_half(weights)
    else:
        arrays = _candidate_arrays(weights, k, cap)
        out = (float(arrays[1].sum()), *_bound_terms(*arrays))
    if plugin:
        out = (conditional_rate_plugin(weights, k),) + out[1:]
    return out


def bound_report(spec: WeightSpec, n: int, k: int, replications: int, seed,
                 cap: int = DEFAULT_CANDIDATE_CAP, rate_mode: str = "auto",
                 workers: int = 1) -> Tuple[BoundReport, List[dict]]:
    """Monte Carlo bound study over weight replications.

    b1 and b2 are exact per replication: dense path for triangles, capped
    candidate enumeration otherwise (beyond the cap there is no surrogate,
    so that raises).  The conditional rate is exact by default;
    ``rate_mode="plugin"`` switches it to the plug-in upper bound.  The
    units (the two dense halves of each replication, or each candidate
    replication) run on ``workers`` processes; the result does not depend
    on their number.
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
    halves = ("s", "q") if k == 3 else (None,)
    job = partial(_bound_unit, spec, n, k, seed, cap, not use_exact)
    results = map_replications(
        job, [(rep, half) for rep in range(replications) for half in halves],
        workers)
    rows = []
    for rep in range(replications):
        if k == 3:
            b1, b2, rate = _dense_terms(results[2 * rep], results[2 * rep + 1])
        else:
            rate, b1, b2 = results[rep]
        rows.append({"replication": rep, "b1": b1, "b2": b2,
                     "conditional_mean": rate, "mode": mode})
    b1, b2, rate = (float(np.mean([row[key] for row in rows]))
                    for key in ("b1", "b2", "conditional_mean"))
    report = BoundReport(b1=b1, b2=b2, conditional_mean=rate,
                         target_rate=target, gap=abs(rate - target),
                         mode=mode, replications=replications)
    return report, rows
