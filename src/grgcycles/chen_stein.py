"""Exact dependency-neighborhood bound terms for the cycle census.

For the candidate set of k-cycles, two cycles are dependent exactly when
they share an edge.  Over all candidates the module computes

* ``b1``: sum over pairs (a, b) with a shared edge (self pair included) of
  the product of their marginal occurrence probabilities;
* ``b2``: sum over distinct such pairs of the joint occurrence probability,
  i.e. the product of edge probabilities over the union of the two edge
  sets (edges are conditionally independent given the weights);
* the exact conditional mean of the census given the weights
  (``conditional_rate_plugin`` gives the cheap upper bound
  ``((sum W^2)/(sum W))**k / (2k)``).

The three travel as one record, ``BoundTerms(b1, b2, conditional_mean)``:
every exact path returns it, ``exact_bound_terms`` and ``bound_report``
hand it on whole, and its fields, in order, are the value columns of the
bounds CSV.  ``BoundReport`` starts with their means over replications.

Three exact evaluation paths exist.  The generic one enumerates the
candidate set (at most ``cycles.DEFAULT_CANDIDATE_CAP`` cycles) but never a
pair of candidates.  With ``s_F`` and ``q_F`` the sums of ``p_a`` and
``p_a**2`` over the candidates ``a`` whose edge set contains a nonempty
edge set ``F``, Mobius inversion over the subsets of each pair's shared
edges gives

    b1 = sum_F (-1)**(|F|+1) s_F**2
    b2 = sum_F [prod_{e in F} (1/p_e - 1) + (-1)**(|F|+1)] (s_F**2 - q_F)

where F runs over the 2**k - 1 nonempty subsets of each candidate's edges.
For triangles, with ``P`` the edge probability matrix, ``Q = P * P``
elementwise, ``S = P @ P`` and ``Q2 = Q @ Q``,

    rate = sum(P * S) / 6 = tr(P**3) / 6
    b1   = sum((P * S)**2) / 2 - sum(Q * Q2) / 3
    b2   = sum(P * (S**2 - Q2)) / 2

which needs no enumeration.  The dense path evaluates it on n x n arrays
in O(n**3) time and O(n**2) memory; it is the test oracle only.

The series kernel, which ``method="auto"`` takes for k = 3, holds no n x n
array.  With ``a = w / sqrt(total)`` and ``x = a_i a_j``, off the diagonal

    p_ij = x / (1 + x)       = sum_{m>=1} (-1)**(m+1) x**m
    p_ij**2 = x**2 / (1+x)**2 = sum_{m>=2} (-1)**m (m-1) x**m

so P and Q are ``U D U^T - diag(d)`` with ``U[:, m] = a**m`` (n x R), D
the coefficients and d the diagonal of ``U D U^T``.  ``tr(P**3)``,
``tr(Q**3)`` and ``sum(P * Q2) = tr(Q Q P)`` reduce to n x R and R x R
products; S is ``V L V^T`` plus a diagonal with ``V = [U, d U]``; and each
Hadamard sum ``sum N * S**2`` (N = P or Q) is
``sum_m D_m tr((L V^T diag(a**m) V)**2)``, less its diagonal terms.  The
whole kernel costs O(n R**3).  Heavy vertices, ``a_i > 1/2``, leave the
series: every pair that touches one comes from the exact n x h block
``P[:, heavy]``, carried as 2h more columns of the same low-rank form, so
light pairs have ``x <= 1/4``.  When every vertex is heavy the block is
the whole matrix.  R is the fewest terms with
``R x**(R-1) (1+x)**2 <= 2**-53`` at the largest light x, the alternating
tail bound of the Q series (which also bounds the P tail
``x**R (1+x)``): every light entry carries a relative error below 2**-53,
and R <= 31.  On two-point (1, 2, 1/2) weights at n = 2000 the kernel's
rate is 7.4e-15 off the exact one and the dense oracle's 1.2e-12: against
that oracle, weights with few distinct values need a tolerance of 1e-11.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .cycles import _candidate_rows, _capped_count
from .poisson import poisson_rate
from .replication import replication_seed
from .weights import WeightSpec, WeightVector, analytic_moments, sample_weights

__all__ = [
    "BoundTerms",
    "BoundReport",
    "exact_bound_terms",
    "conditional_rate_exact",
    "conditional_rate_plugin",
    "bound_report",
]


class BoundTerms(NamedTuple):
    """The bound record of one weight realization, from the kernel that
    computes it to its row of the bounds CSV, whose columns follow these
    fields."""

    b1: float
    b2: float
    conditional_mean: float


@dataclass(frozen=True)
class BoundReport:
    """Aggregated bound quantities over weight replications; the first
    three fields are the means of the replications' ``BoundTerms``.

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
    replications: int

    def __post_init__(self):
        if min(self.b1, self.b2, self.conditional_mean, self.target_rate) < 0:
            raise ValueError("bound components must be nonnegative")

    @property
    def rhs(self) -> float:
        return self.b1 + self.b2 + self.gap

    def to_record(self) -> dict:
        return {**asdict(self), "rhs": self.rhs}


# ---------------------------------------------------------------------------
# Exact paths
# ---------------------------------------------------------------------------

_HEAVY = 0.5          # a_i above this: every pair of the vertex is exact
_TAIL = 2.0 ** -53    # relative truncation error allowed per edge term


class _Form(NamedTuple):
    """An n x n edge matrix ``W K W^T - diag(d)`` with a zero diagonal."""

    W: np.ndarray
    K: np.ndarray
    d: np.ndarray
    coef: np.ndarray    # series coefficients of the light basis a**m
    rows: np.ndarray    # the exact rows of the heavy vertices


def _series_length(x: float) -> int:
    """Fewest series terms R >= 2 with ``R x**(R-1) (1+x)**2 <= 2**-53``.

    That is the relative tail bound of the ``P * P`` series at its largest
    argument x; it also bounds the tail ``x**R (1+x)`` of the P series.
    """
    terms = 2
    while terms * x ** (terms - 1) * (1.0 + x) ** 2 > _TAIL:
        terms += 1
    return terms


def _edge_forms(weights: WeightVector,
                powers: Sequence[int]) -> Tuple[np.ndarray, List[_Form]]:
    """The heavy vertices and the form of ``P ** power`` (elementwise) for
    each power, 1 or 2.

    W stacks the light basis ``a**m`` (zero on heavy rows), the exact
    columns ``B = P[:, heavy] ** power`` and the heavy indicator columns E;
    K holds the series coefficients and ``B E^T + E B^T - E B[heavy] E^T``,
    which is exact on every pair that touches a heavy vertex.
    """
    a = weights.values / np.sqrt(weights.total)
    heavy = np.flatnonzero(a > _HEAVY)
    h = heavy.size
    light = np.delete(a, heavy)
    terms = _series_length(float(light.max()) ** 2 if light.size else 0.0)
    m = np.arange(1, terms + 1)
    basis = a[:, None] ** m
    basis[heavy] = 0.0
    c = np.sqrt(weights.total) / weights.values
    p_heavy = 1.0 / (1.0 + c[:, None] * c[heavy])
    p_heavy[heavy, np.arange(h)] = 0.0
    indicator = np.zeros_like(p_heavy)
    indicator[heavy, np.arange(h)] = 1.0
    forms = []
    for power in powers:
        coef = (-1.0) ** (m + 1) if power == 1 else (-1.0) ** m * (m - 1)
        block = p_heavy ** power
        W = np.hstack([basis, block, indicator])
        K = np.zeros((terms + 2 * h,) * 2)
        K[:terms, :terms] = np.diag(coef)
        K[terms:terms + h, terms + h:] = np.eye(h)
        K[terms + h:, terms:terms + h] = np.eye(h)
        K[terms + h:, terms + h:] = -block[heavy]
        d = np.einsum("ia,ia->i", W @ K, W)
        forms.append(_Form(W, K, d, coef, block.T))
    return heavy, forms


def _apply(form: _Form, M: np.ndarray) -> np.ndarray:
    """The form's matrix times the n x c array M, in O(n r c)."""
    return form.W @ (form.K @ (form.W.T @ M)) - form.d[:, None] * M


def _trace3(X: _Form, Y: _Form, Z: _Form) -> float:
    """``tr(XYZ) = tr(XY W K W^T) - sum_i (XY)_ii d_i`` with Z = (W, K, d),
    where ``(XY)_ii = (X W_Y K_Y W_Y^T)_ii`` because X_ii = 0."""
    xy_diag = np.einsum("ia,ia->i", _apply(X, Y.W @ Y.K), Y.W)
    return float(np.vdot(Z.W @ Z.K, _apply(X, _apply(Y, Z.W)))
                 - Z.d @ xy_diag)


def _series_terms(weights: WeightVector) -> BoundTerms:
    """Exact bound terms for k = 3 from the forms of P and Q = P * P.

    Off the diagonal, ``S = P @ P`` is ``V L V^T`` with ``V = [W, d W]``.
    The Hadamard sum ``sum N * S**2`` (N = P or Q) is the light series
    ``sum_m coef_m tr((L X_m)**2)`` with ``X_m = V^T diag(a**m) V``, less
    its diagonal terms, plus the pairs that touch a heavy vertex.
    """
    heavy, (P, Q) = _edge_forms(weights, (1, 2))
    V = np.hstack([P.W, P.d[:, None] * P.W])
    L = np.block([[P.K @ (P.W.T @ P.W) @ P.K, -P.K],
                  [-P.K, np.zeros_like(P.K)]])
    VL = V @ L
    series = np.empty(P.coef.size)
    for m, u in enumerate(P.W[:, :P.coef.size].T):    # u = a**(m+1), light
        LX = (VL.T * u) @ V
        series[m] = np.vdot(LX, LX.T)
    s_diag = np.einsum("ia,ia->i", VL, V)
    s_heavy = np.square(VL[heavy] @ V.T)      # S[heavy, :]**2, off-diagonal

    def hadamard(N: _Form) -> float:
        cross = (2.0 * np.vdot(N.rows, s_heavy)
                 - np.vdot(N.rows[:, heavy], s_heavy[:, heavy]))
        return float(N.coef @ series - N.d @ np.square(s_diag) + cross)

    pss, qss = hadamard(P), hadamard(Q)
    pqq = _trace3(Q, Q, P)
    # b2 is a difference of two positive sums; within their rounding it is
    # zero, as for a lone triangle (n = 3), which has no dependent pair
    b2 = (pss - pqq) / 2.0 if pss - pqq > 2.0 ** -40 * pss else 0.0
    return BoundTerms(qss / 2.0 - _trace3(Q, Q, Q) / 3.0, b2,
                      _trace3(P, P, P) / 6.0)


def _dense_terms(weights: WeightVector) -> Tuple[float, float, float]:
    """The dense oracle: (rate, b1, b2) by the matrix formula of the module
    docstring, in two halves that each hold at most two n x n arrays.  Q is
    P squared in place, and P comes back from it in place, since
    ``sqrt(p * p) == p`` in binary floating point unless ``p * p``
    underflows."""
    P = _edge_matrix(weights)
    S = P @ P.T
    rate = float(np.vdot(P, S)) / 6.0
    S *= S
    pps, ps = float(np.einsum("ij,ij,ij->", P, P, S)), float(np.vdot(P, S))
    del S
    Q = P
    Q *= Q
    Q2 = Q @ Q.T
    qq = float(np.vdot(Q, Q2))
    pq = float(np.vdot(np.sqrt(Q, out=Q), Q2))
    return rate, pps / 2.0 - qq / 3.0, (ps - pq) / 2.0


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


def _candidate_arrays(weights: WeightVector, k: int):
    """Sorted edge-id rows of the candidates, their probabilities and the
    edge probabilities.  Every vertex pair is an edge of some candidate, so
    the edge ids number the pairs (u, v), u < v, in row-major order."""
    n = len(weights)
    cands = _candidate_rows(n, k)
    tails = np.roll(cands, -1, axis=1)
    u, v = np.minimum(cands, tails), np.maximum(cands, tails)
    rows = np.sort(u * (2 * n - u - 1) // 2 + v - u - 1, axis=1)
    w = weights.values
    first, second = np.triu_indices(n, 1)
    prod = w[first] * w[second]
    p_edge = prod / (weights.total + prod)
    p_cand = p_edge[rows].prod(axis=1)
    return rows, p_cand, p_edge


def _bound_terms(edge_rows, p_cand, p_edge) -> Tuple[float, float]:
    """b1 and b2 over the candidate set by the inclusion-exclusion identity
    of the module docstring; ``- q_F`` drops the self pairs, so a lone cycle
    has b2 = 0 exactly.  Inputs are ``_candidate_arrays``.

    Any k - 1 edges of a k-cycle fix it, so an edge set F of k - 1 or k
    edges lies in one candidate alone: ``s_F = p_a`` and ``s_F**2 = q_F``,
    and those sizes add ``(-1)**k (k - 1) sum_a p_a**2`` to b1 and nothing
    to b2.  The sizes below are keyed by their sorted edge ids as base-m
    digits, and the sums grouped by key.  The keys that occur come from
    ``np.unique``, or, where there are no more possible keys than keys (as
    for single edges, whose keys are their ids), from one bin per possible
    key without a sort: the same keys in the same order either way, so the
    grouped sums keep their bits.
    """
    nc, k = edge_rows.shape
    base = p_edge.size
    if base ** (k - 2) > np.iinfo(np.int64).max:
        raise ValueError(f"edge-set keys of {k - 2} digits in base {base} "
                         "overflow int64")
    odds = 1.0 / p_edge - 1.0
    squares = p_cand ** 2
    b1 = (-1) ** k * (k - 1) * float(squares.sum())
    b2 = 0.0
    for size in range(1, k - 1):
        subsets = list(combinations(range(k), size))
        powers = base ** np.arange(size - 1, -1, -1, dtype=np.int64)
        keys = np.concatenate([edge_rows[:, cols] @ powers for cols in subsets])
        if base ** size <= keys.size:
            occurs = np.bincount(keys, minlength=base ** size) > 0
            uniq = np.flatnonzero(occurs)
            inverse = (np.cumsum(occurs) - 1)[keys]
        else:
            uniq, inverse = np.unique(keys, return_inverse=True)
        s = np.bincount(inverse, np.tile(p_cand, len(subsets)), uniq.size)
        q = np.bincount(inverse, np.tile(squares, len(subsets)), uniq.size)
        odds_prod = odds[uniq[:, None] // powers % base].prod(axis=1)
        sign = 1.0 if size % 2 else -1.0
        s *= s
        b1 += sign * float(s.sum())
        s -= q
        b2 += float(np.vdot(odds_prod + sign, s))
    return b1, b2


def exact_bound_terms(weights: WeightVector, k: int,
                      method: str = "auto") -> BoundTerms:
    """Exact b1, b2 and conditional mean over the full candidate set for
    one weight vector; all zero when it has fewer than k vertices.

    ``method="auto"`` takes the series kernel for k=3 (no cap needed) and
    candidate enumeration otherwise; ``"candidates"`` forces enumeration
    and ``"dense"`` the O(n**3) matrix oracle (k = 3 only).
    """
    if method not in ("auto", "candidates", "dense"):
        raise ValueError(f"unknown method {method!r}")
    if method == "dense" and k != 3:
        raise ValueError("the dense path only covers k = 3")
    if k < 3:
        raise ValueError("cycle length k must be at least 3")
    if len(weights) < k:
        return BoundTerms(0.0, 0.0, 0.0)
    if method == "dense":
        rate, b1, b2 = _dense_terms(weights)
        return BoundTerms(b1, b2, rate)
    if k == 3 and method == "auto":
        return _series_terms(weights)
    arrays = _candidate_arrays(weights, k)
    return BoundTerms(*_bound_terms(*arrays), float(arrays[1].sum()))


def conditional_rate_exact(weights: WeightVector, k: int) -> float:
    """Exact conditional census mean: sum of all candidate probabilities
    (for k = 3, ``tr(P**3) / 6`` from the series form of P alone); zero
    when there are fewer than k vertices, as in ``exact_bound_terms``."""
    if k < 3:
        raise ValueError("cycle length k must be at least 3")
    if len(weights) < k:
        return 0.0
    if k == 3:
        _, (P,) = _edge_forms(weights, (1,))
        return _trace3(P, P, P) / 6.0
    return float(_candidate_arrays(weights, k)[1].sum())


def conditional_rate_plugin(weights: WeightVector, k: int) -> float:
    """Plug-in upper bound ``((sum W^2)/(sum W))**k / (2k)``."""
    w = weights.values
    return float((w @ w / w.sum()) ** k / (2 * k))


def _refuse_past_cap(n: int, k: int) -> None:
    """Refuse a bound study of k-cycles on n vertices whose candidates run
    past ``cycles.DEFAULT_CANDIDATE_CAP``; k = 3 bound terms, and fewer
    than k vertices, need no candidates."""
    if k != 3 and n >= k:
        _capped_count(n, k)


def bound_report(spec: WeightSpec, n: int, k: int, replications: int,
                 seed) -> Tuple[BoundReport, List[BoundTerms]]:
    """Monte Carlo bound study over weight replications: the report and
    each replication's terms, in replication order.

    b1 and b2 are exact per replication: the series kernel for triangles,
    capped candidate enumeration otherwise (beyond the cap there is no
    surrogate, so that raises before any weight is drawn), and so is the
    conditional rate.  The replications run in this process, one at a
    time: each draws its stream-0 weights and computes their terms before
    the next draws, so one weight vector is live at a time.
    """
    _refuse_past_cap(n, k)    # before any draw
    target = poisson_rate(analytic_moments(spec).ratio, k).lam
    if replications < 1:
        raise ValueError("replications must be at least 1")
    terms = [exact_bound_terms(
                 sample_weights(spec, n, replication_seed(seed, rep, 0)), k)
             for rep in range(replications)]
    mean = BoundTerms(*(float(np.mean(column)) for column in zip(*terms)))
    report = BoundReport(*mean, target_rate=target,
                         gap=abs(mean.conditional_mean - target),
                         replications=replications)
    return report, terms
