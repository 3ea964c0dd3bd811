"""Reference Poisson laws, total-variation distance and Q-Q tables.

The limiting rate for the k-cycle count is ``(EW^2 / EW)**k / (2k)``; pmf
evaluation goes through log space so rates of order several thousand stay
accurate.  The total-variation distance is reported in the "sup over test
functions bounded by one" convention, i.e. the full l1 distance between
pmfs (twice the common half-l1 value).
Poisson supports are truncated once cumulative mass 1 - 1e-12 is reached
and the discarded tail is added to the distance as an upper-bound
correction.

Every law, a ``PoissonModel`` or an ``EmpiricalPmf``, gives one view,
``support``: its outcomes in ascending order, their masses and the mass
beyond the last outcome.  A model builds it once, on first use; an
empirical law sorts its counts once, on construction.  ``tv_distance``
reads any two laws through that view and sums ``|p - q|`` over the union of
both supports in ascending outcome order.  Each law's ``quantile`` answers
one level or an array of them with one ``searchsorted`` over its cdf, and
``qq_table`` asks both laws for all its levels at once.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "PoissonModel",
    "EmpiricalPmf",
    "QqTable",
    "poisson_rate",
    "mixed_poisson_pmf",
    "tv_distance",
    "qq_table",
]

_TAIL_MASS = 1e-12


def _pmf(lam: float, outcomes) -> np.ndarray:
    """The Poisson(lam) pmf at the nonnegative integer ``outcomes``, through
    log space; rate 0 is the point mass at 0."""
    outcomes = np.atleast_1d(outcomes)
    if lam == 0:
        return (outcomes == 0).astype(float)
    log_factorial = np.array([math.lgamma(m + 1) for m in outcomes.tolist()])
    return np.exp(-lam + outcomes * math.log(lam) - log_factorial)


def _levels(levels) -> np.ndarray:
    at = np.asarray(levels, dtype=float)
    if not np.all((0 < at) & (at < 1)):
        raise ValueError("quantile levels must lie strictly inside (0,1)")
    return at


@dataclass(frozen=True)
class PoissonModel:
    """Poisson reference law with rate ``lam``."""

    lam: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("Poisson rate must be nonnegative")

    @cached_property
    def support(self) -> Tuple[np.ndarray, np.ndarray, float]:
        """Outcomes 0..M, M the first with cdf(M) >= 1 - 1e-12, their pmf
        and the tail beyond M; built once per model, read-only."""
        bound = int(self.lam + 50.0 * math.sqrt(self.lam)) + 100
        pmf = _pmf(self.lam, np.arange(bound + 1))
        cdf = np.cumsum(pmf)
        cut = min(int(np.searchsorted(cdf, 1.0 - _TAIL_MASS)), bound)
        outcomes, pmf = np.arange(cut + 1), pmf[:cut + 1]
        outcomes.flags.writeable = pmf.flags.writeable = False
        return outcomes, pmf, max(0.0, 1.0 - float(cdf[cut]))

    def quantile(self, levels):
        """Smallest m with cdf(m) >= level (left-continuous inverse): an int
        for one level, a list for an array of them."""
        at = _levels(levels)
        return np.cumsum(self.support[1]).searchsorted(at).tolist()


class EmpiricalPmf:
    """Integer-outcome law built from occurrence counts, which are sorted
    once, here, into the ``support`` view: read them, do not change them."""

    def __init__(self, counts: dict):
        self.counts = {int(m): int(c) for m, c in counts.items() if c}
        if any(m < 0 for m in self.counts):
            raise ValueError("outcomes must be nonnegative integers")
        if any(c < 0 for c in self.counts.values()):
            raise ValueError("counts must be nonnegative")
        self.total = sum(self.counts.values())
        if self.total == 0:
            raise ValueError("empirical law needs at least one observation")
        outcomes = sorted(self.counts)
        self._sorted_counts = np.array([self.counts[m] for m in outcomes])
        # ascending outcomes, their frequencies, no tail
        self.support = (np.array(outcomes),
                        self._sorted_counts / self.total, 0.0)

    @classmethod
    def from_samples(cls, samples: Iterable[int]) -> "EmpiricalPmf":
        return cls(Counter(int(s) for s in samples))

    def pmf(self, m: int) -> float:
        return self.counts.get(int(m), 0) / self.total

    # mean and variance sum in the counts' own order, not the sorted one:
    # that order fixes the last digit of the census summary
    def mean(self) -> float:
        return sum(m * c for m, c in self.counts.items()) / self.total

    def variance(self) -> float:
        mu = self.mean()
        return sum(c * (m - mu) ** 2 for m, c in self.counts.items()) / self.total

    def quantile(self, levels):
        """The first outcome whose cumulative count reaches level * total,
        less 1e-9 * total: an int for one level, a list for an array."""
        at = _levels(levels)
        outcomes = self.support[0]
        hit = np.cumsum(self._sorted_counts).searchsorted(
            at * self.total - 1e-9 * self.total)
        return outcomes[np.minimum(hit, outcomes.size - 1)].tolist()

    def to_csv_rows(self) -> List[Tuple[int, int]]:
        return list(zip(self.support[0].tolist(),
                        self._sorted_counts.tolist()))


@dataclass(frozen=True)
class QqTable:
    """Rows of (probability level, empirical quantile, Poisson quantile)."""

    rows: tuple

    def empirical_column(self) -> List[int]:
        return [r[1] for r in self.rows]

    def poisson_column(self) -> List[int]:
        return [r[2] for r in self.rows]

    def correlation(self) -> float:
        emp = np.array(self.empirical_column(), dtype=float)
        ref = np.array(self.poisson_column(), dtype=float)
        if emp.std() == 0 or ref.std() == 0:
            return float("nan")
        return float(np.corrcoef(emp, ref)[0, 1])


def poisson_rate(moment_ratio: float, k: int) -> PoissonModel:
    """Limiting Poisson rate ``ratio**k / (2k)`` for the k-cycle count."""
    if moment_ratio <= 0:
        raise ValueError("moment ratio must be positive")
    if k < 3:
        raise ValueError("cycle length k must be at least 3")
    return PoissonModel(lam=moment_ratio ** k / (2 * k))


def mixed_poisson_pmf(rate_samples: Sequence[float], m: int) -> float:
    """Monte Carlo pmf of a mixed Poisson law from sampled rates."""
    arr = np.asarray(rate_samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one rate sample")
    if np.any(arr < 0):
        raise ValueError("rate samples must be nonnegative")
    if m < 0:
        raise ValueError("outcome must be nonnegative")
    return float(np.mean([_pmf(lam, m)[0] for lam in arr.tolist()]))


def tv_distance(p, q) -> float:
    """Total-variation distance between two integer laws.

    In the sup-over-bounded-test-functions convention (full l1 distance,
    maximum 2).  Truncated Poisson tails are added back so the result
    upper-bounds the untruncated distance.
    """
    at_p, mass_p, tail_p = p.support
    at_q, mass_q, tail_q = q.support
    # np.union1d would do, but its np.unique imports numpy.ma (about 1.3 MB)
    merged = np.sort(np.concatenate((at_p, at_q)))
    support = merged[np.append(True, merged[1:] != merged[:-1])]
    diff = np.zeros(support.size)
    diff[support.searchsorted(at_p)] = mass_p
    diff[support.searchsorted(at_q)] -= mass_q
    # a sequential sum in ascending outcome order, not numpy's pairwise one
    dist = float(np.add.accumulate(np.abs(diff))[-1])
    dist += tail_p + tail_q
    return min(dist, 2.0)


def qq_table(emp: EmpiricalPmf, model: PoissonModel,
             levels: Sequence[float]) -> QqTable:
    """Both laws' quantiles at each level, from one search per law."""
    at = np.asarray(list(levels), dtype=float)
    rows = zip(at.tolist(), emp.quantile(at), model.quantile(at))
    return QqTable(rows=tuple(rows))
