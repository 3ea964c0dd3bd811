"""Ratio statistics of i.i.d. positive samples and convergence-rate fits.

For a positive sample ``x_1..x_n`` the two statistics are

    t = (x_1^2 + ... + x_n^2) / (x_1 + ... + x_n)
    r = t**p * max(x)**2 / (x_1 + ... + x_n)        (integer p >= 2)

``t`` converges to EX^2/EX; ``E t**p`` converges to its p-th power exactly
when the tail of X decays faster than x**-(p+1), and ``E r`` vanishes at a
rate governed by the tail.  The module provides Monte Carlo estimators with
standard errors, exact finite-n values for two-point laws (the outcome of
``t`` depends only on how many draws hit the larger atom, so a single
binomial sum is exact for any n), an exponential lower-tail bound for sums
of independent nonnegative variables, and least-squares rate fitting on
log-log error points.

A Monte Carlo estimate is cut into chunks of whole replications, and the
chunk that starts at replication ``start`` rebuilds the generator from the
seed and advances it past the ``start * n`` variates before it.  Every
weight family draws exactly one PCG64 output per variate, so each chunk
sees the same draws as one sequentially consumed generator would.  The
chunks run on the replication map and their sums are added in chunk order,
so an estimate is bit-identical for any worker count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from math import comb
from typing import Optional, Sequence, Tuple

import numpy as np

from .replication import map_replications
from .weights import WeightSpec, analytic_moments, draw

__all__ = [
    "MCEstimate",
    "RateFit",
    "RegimeWarning",
    "TailBoundCheck",
    "t_statistic",
    "r_statistic",
    "exact_t_moment",
    "exact_t_moment_bruteforce",
    "estimate_t_moment",
    "estimate_r_moment",
    "lower_tail_bound",
    "check_lower_tail",
    "rate_fit",
]

_CHUNK_BUDGET = 262_144  # variates per Monte Carlo chunk: 2 MB, stays in cache


class RegimeWarning(UserWarning):
    """The weight law violates the assumptions of the requested regime."""


@dataclass(frozen=True)
class MCEstimate:
    value: float
    std_error: float
    replications: int


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log n, log error)."""

    points: tuple
    slope: float
    intercept: float
    r_squared: float
    excluded: tuple = ()


@dataclass(frozen=True)
class TailBoundCheck:
    """One certificate row: a lower-tail probability against its bound."""

    lambda_frac: float
    n: int
    bound_value: float
    probability: float

    def __post_init__(self):
        if not 0 < self.bound_value <= 1:
            raise ValueError("bound must lie in (0, 1]")

    @property
    def holds(self) -> bool:
        return self.probability <= self.bound_value


def _as_positive_array(xs) -> np.ndarray:
    arr = np.asarray(xs, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("need a nonempty 1-d sample")
    if not np.all(arr > 0):
        raise ValueError("all entries must be strictly positive")
    return arr


def t_statistic(xs) -> float:
    """Sum of squares over sum."""
    arr = _as_positive_array(xs)
    return float(arr @ arr / arr.sum())


def r_statistic(xs, p: int) -> float:
    """``t**p * max**2 / sum`` for integer p >= 2."""
    if p < 2:
        raise ValueError("p must be an integer >= 2")
    arr = _as_positive_array(xs)
    s = arr.sum()
    t = float(arr @ arr / s)
    return t ** p * float(arr.max()) ** 2 / float(s)


# ---------------------------------------------------------------------------
# Exact finite-n values for two-point laws
# ---------------------------------------------------------------------------

def exact_t_moment(spec: WeightSpec, n: int, p: int) -> float:
    """Exact ``E t**p`` for a two-point (or constant) law.

    Exchangeability reduces the 2^n outcomes to a binomial sum over the
    count of draws hitting the second atom; evaluated in exact rational
    arithmetic.
    """
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive")
    if spec.family == "constant":
        return spec.value ** p
    if spec.family != "two_point":
        raise ValueError("exact evaluation covers two_point and constant laws")
    x1 = Fraction(spec.x1)
    x2 = Fraction(spec.x2)
    q = 1 - Fraction(spec.p1)        # probability of the x2 atom
    total = Fraction(0)
    for j in range(n + 1):
        weight = comb(n, j) * q ** j * (1 - q) ** (n - j)
        t = (j * x2 * x2 + (n - j) * x1 * x1) / (j * x2 + (n - j) * x1)
        total += weight * t ** p
    return float(total)


def exact_t_moment_bruteforce(spec: WeightSpec, n: int, p: int) -> float:
    """Second-tier oracle: full 2^n enumeration, guarded to n <= 12."""
    if spec.family != "two_point":
        raise ValueError("brute force covers two_point laws only")
    if n > 12:
        raise ValueError("brute force enumeration is limited to n <= 12")
    atoms = ((Fraction(spec.x1), Fraction(spec.p1)),
             (Fraction(spec.x2), 1 - Fraction(spec.p1)))
    total = Fraction(0)
    for outcome in product(atoms, repeat=n):
        prob = Fraction(1)
        ssum = Fraction(0)
        sq = Fraction(0)
        for x, pr in outcome:
            prob *= pr
            ssum += x
            sq += x * x
        total += prob * (sq / ssum) ** p
    return float(total)


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

def _chunk_sums(spec: WeightSpec, n: int, p: int, seed, statistic: str,
                unit: Tuple[int, int]) -> Tuple[float, float]:
    """Sums of the statistic and of its square over the ``size``
    replications of the chunk ``unit = (start, size)``."""
    start, size = unit
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(start * n)
    x = draw(spec, rng, (size, n))
    s = x.sum(axis=1)
    mx = x.max(axis=1)
    x *= x                      # in place: one chunk-sized array, not two
    v = (x.sum(axis=1) / s) ** p
    if statistic == "r":
        v = v * mx * mx / s
    return float(v.sum()), float((v * v).sum())


def _mc_estimate(spec: WeightSpec, n: int, p: int, replications: int, seed,
                 statistic: str, workers: int) -> MCEstimate:
    """Mean and standard error of the statistic over chunked replications."""
    if isinstance(seed, (np.random.Generator, np.random.BitGenerator)):
        raise TypeError("seed must be an int or a SeedSequence: each chunk "
                        "rebuilds its generator from it")
    chunk = max(1, _CHUNK_BUDGET // max(n, 1))
    units = [(start, min(chunk, replications - start))
             for start in range(0, replications, chunk)]
    job = partial(_chunk_sums, spec, n, p, seed, statistic)
    acc1 = acc2 = 0.0
    for sum1, sum2 in map_replications(job, units, workers):
        acc1 += sum1
        acc2 += sum2
    return _finish(acc1, acc2, replications)


def _finish(acc1: float, acc2: float, replications: int) -> MCEstimate:
    mean = acc1 / replications
    var = max(acc2 / replications - mean * mean, 0.0)
    return MCEstimate(value=mean,
                      std_error=math.sqrt(var / replications),
                      replications=replications)


def estimate_t_moment(spec: WeightSpec, n: int, p: int, replications: int,
                      seed, workers: int = 1) -> MCEstimate:
    """Monte Carlo mean of ``t**p`` with standard error, its chunks run on
    ``workers`` processes."""
    if replications < 1000:
        raise ValueError("need at least 1000 replications")
    if p < 1:
        raise ValueError("p must be positive")
    analytic_moments(spec)   # rejects laws without a finite second moment
    return _mc_estimate(spec, n, p, replications, seed, "t", workers)


def _check_regime(spec: WeightSpec, p: int, regime: str) -> None:
    bounded = spec.family != "pareto_shifted"
    if regime == "sqrt":
        ok = bounded or spec.shape >= p + 3.5
        msg = "tail decay x**-(p+7/2) requires pareto shape >= p + 3.5"
    elif regime == "poly":
        ok = p > 8 and (bounded or spec.shape > p + 4)
        msg = "polynomial regime requires p > 8 and a finite (p+4)-th moment"
    elif regime == "log":
        ok = bounded
        msg = "log regime requires an exponential moment (bounded support)"
    else:
        raise ValueError(f"unknown regime {regime!r}; expected sqrt/poly/log")
    if not ok:
        warnings.warn(f"spec violates the {regime} regime: {msg}",
                      RegimeWarning, stacklevel=3)


def estimate_r_moment(spec: WeightSpec, n: int, p: int, replications: int,
                      seed, regime: Optional[str] = None,
                      workers: int = 1) -> MCEstimate:
    """Monte Carlo mean of ``r`` with standard error, its chunks run on
    ``workers`` processes.

    ``regime`` optionally names the targeted convergence regime
    (``"sqrt"``, ``"poly"`` or ``"log"``); a law violating its assumption
    draws a :class:`RegimeWarning`, not an error, since the point of the
    study is regime dependence.
    """
    if replications < 1000:
        raise ValueError("need at least 1000 replications")
    if p < 2:
        raise ValueError("p must be an integer >= 2")
    if regime is not None:
        _check_regime(spec, p, regime)
    return _mc_estimate(spec, n, p, replications, seed, "r", workers)


# ---------------------------------------------------------------------------
# Exponential lower-tail bound and rate fitting
# ---------------------------------------------------------------------------

def lower_tail_bound(lambda_frac: float, variance: float, max_mean_sq: float,
                     n: int) -> float:
    """Bound on P(sum <= lambda_frac * n) for independent nonnegative terms
    normalized to mean total n.

    Inputs are the per-sum variance factor (Var(S_n) = variance * n) and the
    largest squared term mean; normalization is the caller's duty.
    """
    if not 0 < lambda_frac < 1:
        raise ValueError("lambda_frac must lie strictly inside (0, 1)")
    if variance < 0 or max_mean_sq < 0:
        raise ValueError("variance terms must be nonnegative")
    if n < 1:
        raise ValueError("n must be at least 1")
    denom = 2.0 * (variance + max_mean_sq)
    if denom == 0:
        return 0.0
    return math.exp(-(1.0 - lambda_frac) ** 2 * n / denom)


def check_lower_tail(lambda_frac: float, variance: float, max_mean_sq: float,
                     n: int, probability: float) -> TailBoundCheck:
    """Pair an exact (or empirical) lower-tail probability with its bound."""
    bound = lower_tail_bound(lambda_frac, variance, max_mean_sq, n)
    return TailBoundCheck(lambda_frac=lambda_frac, n=n, bound_value=bound,
                          probability=float(probability))


def rate_fit(points: Sequence[Tuple[float, float]]) -> RateFit:
    """Fit ``log error = slope * log n + intercept`` by least squares.

    Nonpositive errors are below the noise floor: they are excluded and
    reported, never logged.  At least four usable points are required.
    """
    kept = []
    excluded = []
    for n, err in points:
        if err > 0 and n > 0:
            kept.append((float(n), float(err)))
        else:
            excluded.append((float(n), float(err)))
    if len(kept) < 4:
        raise ValueError(
            f"rate fit needs at least 4 positive-error points, got {len(kept)}")
    x = np.log([p[0] for p in kept])
    y = np.log([p[1] for p in kept])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(points=tuple(kept), slope=float(slope),
                   intercept=float(intercept), r_squared=r2,
                   excluded=tuple(excluded))
