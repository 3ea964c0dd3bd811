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
``bound_report`` draws each replication's weights once and maps each half,
with those weights, as a unit of the replication map, so two workers share
one replication; in-process the halves run one after the other.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from itertools import combinations, permutations
from math import perm
from typing import List, Sequence, Set, Tuple

import numpy as np

from .cycles import (DEFAULT_CANDIDATE_CAP, CandidateCapError, _candidate_rows,
                     candidate_count, canonicalize)
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
        return {**asdict(self), "rhs": self.rhs}


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


def _candidate_arrays(weights: WeightVector, k: int, cap: int):
    """Sorted edge-id rows of the candidates, their probabilities and the
    edge probabilities."""
    n = len(weights)
    cands = _candidate_rows(n, k, cap)
    tails = np.roll(cands, -1, axis=1)
    raw_ids = np.minimum(cands, tails) * n + np.maximum(cands, tails)
    uniq, rows = np.unique(raw_ids, return_inverse=True)
    rows = np.sort(rows.reshape(cands.shape), axis=1)
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


def _parts(k: int, method: str = "auto") -> Tuple[str, ...]:
    """A replication's units: the two dense halves, or the candidate path."""
    return ("s", "q") if k == 3 and method != "candidates" else ("c",)


def _part(k: int, cap: int, unit: Tuple[WeightVector, str]) -> tuple:
    """One unit ``(weights, part)``: the dense ``"s"`` or ``"q"`` half, or
    the candidate path ``"c"``, which returns (rate, b1, b2) whole."""
    weights, part = unit
    if part == "s":
        return _dense_s_half(weights)
    if part == "q":
        return _dense_q_half(weights)
    arrays = _candidate_arrays(weights, k, cap)
    return (float(arrays[1].sum()), *_bound_terms(*arrays))


def _assemble(parts: Sequence[tuple]) -> Tuple[float, float, float]:
    """The exact (rate, b1, b2) of one replication from its units' results."""
    if len(parts) == 1:
        return parts[0]
    (rate, e1, e2), (qq, pq) = parts
    return rate, e1 / 2.0 - qq / 3.0, (e2 - pq) / 2.0


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
    _, b1, b2 = _assemble([_part(k, cap, (weights, part))
                           for part in _parts(k, method)])
    return BoundTerms(b1, b2)


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


def bound_report(spec: WeightSpec, n: int, k: int, replications: int, seed,
                 cap: int = DEFAULT_CANDIDATE_CAP, rate_mode: str = "auto",
                 workers: int = 1) -> Tuple[BoundReport, List[dict]]:
    """Monte Carlo bound study over weight replications.

    b1 and b2 are exact per replication: dense path for triangles, capped
    candidate enumeration otherwise (beyond the cap there is no surrogate,
    so that raises).  The conditional rate is exact by default;
    ``rate_mode="plugin"`` switches it to the plug-in upper bound.  Each
    replication's weights are drawn once, here; its units (the two dense
    halves, or the one candidate unit) run on ``workers`` processes, and the
    result does not depend on their number.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    if rate_mode not in ("auto", "exact", "plugin"):
        raise ValueError(f"unknown rate_mode {rate_mode!r}")
    if cap < 1:
        raise ValueError(f"candidate_cap={cap} is below 1")
    if k != 3 and candidate_count(n, k) > cap:
        # b1/b2 have no plug-in surrogate; only the rate does
        raise CandidateCapError(
            f"{candidate_count(n, k)} candidates exceed cap {cap}; "
            "bound terms need the candidate set (or k = 3)")
    mode = "plugin" if rate_mode == "plugin" else "exact"
    target = poisson_rate(analytic_moments(spec).ratio, k).lam
    draws = [sample_weights(spec, n, replication_seed(seed, rep, 0))
             for rep in range(replications)]
    parts = _parts(k)
    results = map_replications(partial(_part, k, cap),
                               [(w, part) for w in draws for part in parts],
                               workers)
    rows = []
    outs = iter(results)
    for rep, weights in enumerate(draws):
        rate, b1, b2 = _assemble([next(outs) for _ in parts])
        if mode == "plugin":
            rate = conditional_rate_plugin(weights, k)
        rows.append({"replication": rep, "b1": b1, "b2": b2,
                     "conditional_mean": rate, "mode": mode})
    b1, b2, rate = (float(np.mean([row[key] for row in rows]))
                    for key in ("b1", "b2", "conditional_mean"))
    report = BoundReport(b1=b1, b2=b2, conditional_mean=rate,
                         target_rate=target, gap=abs(rate - target),
                         mode=mode, replications=replications)
    return report, rows
