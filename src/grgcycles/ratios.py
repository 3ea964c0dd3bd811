"""Ratio statistics of i.i.d. positive samples and convergence-rate fits.

For a positive sample ``x_1..x_n`` the two statistics are

    t = (x_1^2 + ... + x_n^2) / (x_1 + ... + x_n)
    r = t**p * max(x)**2 / (x_1 + ... + x_n)        (integer p >= 2)

``t`` converges to EX^2/EX; ``E t**p`` converges to its p-th power exactly
when the tail of X decays faster than x**-(p+1), and ``E r`` vanishes at a
rate governed by the tail: ``regimes(spec, p)`` names the decay regimes
that the law's tail index (``WeightSpec.tail_index``) admits.  The module
provides Monte Carlo estimators with standard errors, finite-n values for
two-point laws (the outcome of ``t`` depends only on how many draws hit the
first atom, so a single binomial sum gives ``E t**p`` for any n), an
exponential lower-tail bound for sums of independent nonnegative variables,
and least-squares rate fitting on log-log error points.

Both statistics have one formula, ``_statistic``, a function of a sample's
sum, sum of squares and (for ``r``) largest value.  The value rows of a
Monte Carlo chunk (``_row_statistics``, which ``t_statistic`` and
``r_statistic`` run on a one-row copy), the atom counts of a two-point
chunk and the exact binomial sum all reach it.  The binomial weights come
from ``poisson._masses``, the rule of the Poisson support, so the exact
sum needs no log-gamma and is accurate to a few rounding units.

A Monte Carlo estimate is cut into chunks of whole replications, and
``replication._on_stream`` runs the chunks in parts on threads.  Every
weight family draws exactly one PCG64 output per variate, so each chunk sees
the same draws as one sequentially consumed generator would.  Each chunk's
sum and squared deviations about its own mean are merged in chunk order by
the pairwise update of Chan, Golub & LeVeque (1979): an estimate is
bit-identical for any CPU count, and its standard error keeps its digits.
Only that merge needs whole chunks.  A chunk is drawn in blocks of whole
rows, at most ``replication._DRAW_BLOCK`` draws (512 kB) unless one row is
longer, and each block's row statistics go to the chunk's value array, so
a part holds one block of draws, not a chunk, and no bit moves.

A two-point chunk draws the same uniforms but is reduced to atom counts:
per replication, the number of draws with ``u < p1`` (the ``x1`` hits,
decided as :func:`.weights.draw` decides them) gives the sums, the maximum
and so the statistic through ``_two_point_values``, which
``exact_t_moment`` evaluates over every count.  Where the atom sums are
exact in binary the estimate has the bytes of the value path
(``draw`` and ``_row_statistics``); otherwise it may differ in its last
bits, as a count times an atom rounds once and a pairwise sum of n terms
more often.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .poisson import _masses
from .replication import _DRAW_BLOCK, _on_stream
from .weights import WeightSpec, WeightVector, analytic_moments, draw

__all__ = [
    "MCEstimate",
    "RateFit",
    "TailBoundCheck",
    "t_statistic",
    "r_statistic",
    "exact_t_moment",
    "estimate_t_moment",
    "estimate_r_moment",
    "lower_tail_bound",
    "check_lower_tail",
    "rate_fit",
    "regimes",
]

# Variates per Monte Carlo chunk, the merge unit: the chunks of an estimate
# are cut from its replications, split among the parts and merged in order,
# so this number, not the CPU count, fixes the bytes of an estimate.
# A chunk is drawn in blocks of whole rows of at most ``_DRAW_BLOCK`` draws
# (one row if n is larger).  Each part draws its blocks into one buffer of
# that size, and a two-point part compares them into one bool buffer of as
# many entries, both allocated before the parts start; a fresh array per
# block leaves each helper thread's malloc arena holding the pages of its
# own block, which shows in the peak RSS.
_CHUNK_BUDGET = 262_144


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
        if not 0 <= self.bound_value <= 1:
            raise ValueError("bound must lie in [0, 1]")

    @property
    def holds(self) -> bool:
        return self.probability <= self.bound_value


def _statistic(s1, s2, mx, p: int):
    """``t**p`` of samples with sums ``s1`` and sums of squares ``s2``, or
    ``r`` if their maxima ``mx`` are given (None for ``t``): the one formula
    of both statistics, on numbers or on arrays of them."""
    v = (s2 / s1) ** p
    if mx is not None:
        v = v * mx * mx / s1
    return v


def _row_statistics(x: np.ndarray, p: int, statistic: str) -> np.ndarray:
    """``t**p`` (statistic ``"t"``) or ``r`` of every row of the 2-d array
    ``x``, which it overwrites: squaring in place keeps one array, not two."""
    s = x.sum(axis=1)
    mx = x.max(axis=1) if statistic == "r" else None
    x *= x
    return _statistic(s, x.sum(axis=1), mx, p)


def _one_sample(xs, p: int, statistic: str) -> float:
    """``_row_statistics`` of a positive 1-d sample, on a one-row copy;
    refused, naming the sample's largest value, if it overflows float64."""
    values = WeightVector.from_values(xs).values
    with np.errstate(over="ignore"):
        row = np.array(values, ndmin=2)
        value = float(_row_statistics(row, p, statistic)[0])
    if not math.isfinite(value):
        raise ValueError(f"{statistic} of a sample with values up to "
                         f"{float(values.max())!r} overflows float64")
    return value


def t_statistic(xs) -> float:
    """Sum of squares over sum."""
    return _one_sample(xs, 1, "t")


def r_statistic(xs, p: int) -> float:
    """``t**p * max**2 / sum`` for integer p >= 2."""
    if p < 2:
        raise ValueError("p must be an integer >= 2")
    return _one_sample(xs, p, "r")


def regimes(spec: WeightSpec, p: int) -> Tuple[str, ...]:
    """The decay regimes of ``E r`` that the law's tail admits, in the order
    sqrt, poly, log: ``sqrt`` needs tail decay x**-(p+7/2) (tail index at
    least p + 3.5), ``poly`` p > 8 and a finite (p+4)-th moment (index above
    p + 4), ``log`` an exponential moment (bounded support)."""
    index = spec.tail_index
    rules = (("sqrt", index >= p + 3.5), ("poly", p > 8 and index > p + 4),
             ("log", index == math.inf))
    return tuple(name for name, holds in rules if holds)


# ---------------------------------------------------------------------------
# Finite-n values for two-point laws
# ---------------------------------------------------------------------------

def _two_point_values(spec: WeightSpec, n: int, hits: np.ndarray, p: int,
                      statistic: str) -> np.ndarray:
    """``t**p`` (statistic ``"t"``) or ``r`` of two-point samples of ``n``
    draws, ``hits`` (an integer array) of which take ``x1`` and the rest
    ``x2``: ``_statistic`` of the sums of the drawn values, counted, as
    ``hits * x1 + misses * x2`` and the same over the squared atoms."""
    x1, x2 = spec.x1, spec.x2
    misses = n - hits
    # the larger atom that was hit
    mx = (np.where(hits == 0, x2, np.where(misses == 0, x1, max(x1, x2)))
          if statistic == "r" else None)
    return _statistic(hits * x1 + misses * x2,
                      hits * (x1 * x1) + misses * (x2 * x2), mx, p)


def exact_t_moment(spec: WeightSpec, n: int, p: int) -> float:
    """``E t**p`` for a two-point (or constant) law.

    Exchangeability reduces the 2^n outcomes to a binomial sum over the
    count of draws hitting the first atom.  Its weights come from
    ``poisson._masses``, the rule of the Poisson support: the ratios of
    neighbouring binomial masses multiplied out from the mode, then
    normalized.  Each count's ``t**p`` comes from ``_two_point_values``,
    the formula of the Monte Carlo estimator, and the products are summed
    by ``math.fsum`` (the exact rational sum is the test oracle
    ``oracles.exact_t_moment_fraction``).  A law whose ``t**p`` overflows
    float64 is refused, naming its largest atom, as ``t_statistic`` refuses
    a sample.
    """
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive")
    if spec.family == "constant":
        largest = spec.value
        try:
            moment = spec.value ** p
        except OverflowError:   # a float power out of range
            moment = math.inf
    elif spec.family == "two_point":
        largest = max(spec.x1, spec.x2)
        p1, p2 = spec.p1, 1.0 - spec.p1
        hits = np.arange(n + 1)
        mode = min(int((n + 1) * p1), n)
        # P(h) / P(h + 1) = (h + 1) p2 / ((n - h) p1) left of the mode,
        # P(h) / P(h - 1) = (n - h + 1) p1 / (h p2) right of it
        ratios = hits.astype(float)
        left, right = ratios[:mode], ratios[mode + 1:]
        ratios[:mode] = (left + 1) * p2 / ((n - left) * p1)
        ratios[mode + 1:] = (n + 1 - right) * p1 / (right * p2)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = _masses(ratios, mode) * _two_point_values(spec, n, hits,
                                                              p, "t")
        moment = math.fsum(terms.tolist())
    else:
        raise ValueError("exact evaluation covers two_point and constant laws")
    if not math.isfinite(moment):
        raise ValueError(f"E t**{p} of {spec.family} weights up to "
                         f"{largest!r} overflows float64")
    return moment


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

def _chunk_sums(spec: WeightSpec, n: int, p: int, rng: np.random.Generator,
                statistic: str, size: int, buf: np.ndarray,
                mask: np.ndarray) -> Tuple[float, float]:
    """Sums of the statistic and of its squared deviations about their mean
    over ``size`` replications of ``n`` draws from ``rng``.  The draws go to
    ``buf`` in blocks of as many whole rows as it holds (at least one row),
    and each row's statistic to the chunk's value array; a row's statistic
    depends on its own draws only, so the block size moves no bit.  A
    two-point block compares its uniforms into the front of ``mask`` (as
    many bools as ``buf``) and counts each row's hits."""
    rows = buf.size // n
    v = np.empty(size)
    for r0 in range(0, size, rows):
        m = min(rows, size - r0)
        out = buf[:m * n].reshape(m, n)
        if spec.family == "two_point":
            u = rng.random(out=out)
            below = np.less(u, spec.p1, out=mask[:m * n].reshape(m, n))
            # summing the mask's bytes in the narrowest type that holds n is
            # several times faster than count_nonzero along rows
            hits = np.add.reduce(below.view(np.uint8), axis=1,
                                 dtype=np.min_scalar_type(n))
            v[r0:r0 + m] = _two_point_values(spec, n, hits, p, statistic)
        else:
            v[r0:r0 + m] = _row_statistics(draw(spec, rng, (m, n), out), p,
                                           statistic)
    total = float(v.sum())
    v -= total / size
    return total, float(np.square(v, out=v).sum())


def _mc_estimate(spec: WeightSpec, n: int, p: int, replications: int, seed,
                 statistic: str) -> MCEstimate:
    """Mean and standard error of the statistic over chunked replications."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if replications < 1000:
        raise ValueError("need at least 1000 replications")
    chunk = max(1, _CHUNK_BUDGET // n)
    # chunk j takes replications starts[j]..starts[j + 1] - 1
    starts = np.append(np.arange(0, replications, chunk), replications)
    sizes = np.diff(starts).tolist()
    # a part's draw buffer: one block of whole rows, no longer than a chunk
    length = min(sizes[0], max(1, _DRAW_BLOCK // n)) * n

    def scratch():
        return (np.empty(length), np.empty(length, dtype=bool)
                if spec.family == "two_point" else None)

    def run_part(rng, first, stop, buf, mask):
        return [_chunk_sums(spec, n, p, rng, statistic, size, buf, mask)
                for size in sizes[first:stop]]

    chunk_sums = _on_stream(run_part, seed, starts * n, chunk * n, scratch)
    # merged in chunk order: the deviation sums add, plus the pairwise term
    # delta**2 n_a n_b / (n_a + n_b) of Chan, Golub & LeVeque
    count = total = dev2 = 0
    for size, (chunk_total, chunk_dev2) in zip(sizes, chunk_sums):
        if count:
            delta = chunk_total / size - total / count
            dev2 += delta * delta * (count * size / (count + size))
        dev2 += chunk_dev2
        total += chunk_total
        count += size
    return MCEstimate(value=total / replications,
                      std_error=math.sqrt(dev2 / replications / replications),
                      replications=replications)


def estimate_t_moment(spec: WeightSpec, n: int, p: int, replications: int,
                      seed) -> MCEstimate:
    """Monte Carlo mean of ``t**p`` with standard error, its chunks run in
    one part per CPU (see the module docstring)."""
    if p < 1:
        raise ValueError("p must be positive")
    analytic_moments(spec)   # rejects laws without a finite second moment
    return _mc_estimate(spec, n, p, replications, seed, "t")


def estimate_r_moment(spec: WeightSpec, n: int, p: int, replications: int,
                      seed) -> MCEstimate:
    """Monte Carlo mean of ``r`` with standard error, its chunks run in
    one part per CPU (see the module docstring)."""
    if p < 2:
        raise ValueError("p must be an integer >= 2")
    return _mc_estimate(spec, n, p, replications, seed, "r")


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
