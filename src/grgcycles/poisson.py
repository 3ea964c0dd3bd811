"""Reference Poisson laws, total-variation distance and Q-Q tables.

The limiting rate for the k-cycle count is ``(EW^2 / EW)**k / (2k)``; pmf
evaluation goes through log space so rates of order several thousand stay
accurate.  The total-variation distance is reported in the "sup over test
functions bounded by one" convention, i.e. the full l1 distance between
pmfs (twice the common half-l1 value).
Poisson supports are truncated once cumulative mass 1 - 1e-12 is reached
and the discarded tail is added to the distance as an upper-bound
correction.

A ``PoissonModel`` builds its truncated pmf once, on first use, and
``quantile``, ``qq_table`` and ``tv_distance`` all read that copy; they
answer every level or outcome with array operations: the Q-Q
columns come from one ``searchsorted`` over each law's cdf, and the l1 sum
runs over the union of both supports in ascending outcome order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "PoissonModel",
    "EmpiricalPmf",
    "QqTable",
    "poisson_rate",
    "poisson_pmf",
    "mixed_poisson_pmf",
    "tv_distance",
    "qq_table",
]

_TAIL_MASS = 1e-12


@dataclass(frozen=True)
class PoissonModel:
    """Poisson reference law with rate ``lam``."""

    lam: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("Poisson rate must be nonnegative")

    def pmf(self, m: int) -> float:
        return poisson_pmf(self, m)

    def truncated_pmf(self) -> Tuple[np.ndarray, float]:
        """Pmf array over 0..M with cdf(M) >= 1 - 1e-12, plus the tail;
        built once per model, read-only."""
        return self._truncated

    @cached_property
    def _truncated(self) -> Tuple[np.ndarray, float]:
        pmf, tail = np.array([1.0]), 0.0
        if self.lam > 0:
            bound = int(self.lam + 50.0 * math.sqrt(self.lam)) + 100
            log_lam = math.log(self.lam)
            ms = np.arange(bound + 1)
            logs = -self.lam + ms * log_lam - np.array(
                [math.lgamma(m + 1) for m in range(bound + 1)])
            pmf = np.exp(logs)
            cdf = np.cumsum(pmf)
            cut = int(np.searchsorted(cdf, 1.0 - _TAIL_MASS))
            cut = min(cut, bound)
            tail = max(0.0, 1.0 - float(cdf[cut]))
            pmf = pmf[:cut + 1]
        pmf.flags.writeable = False
        return pmf, tail

    def quantile(self, level: float) -> int:
        """Smallest m with cdf(m) >= level (left-continuous inverse)."""
        if not 0 < level < 1:
            raise ValueError("quantile level must lie strictly inside (0,1)")
        pmf, _ = self.truncated_pmf()
        cdf = np.cumsum(pmf)
        return int(np.searchsorted(cdf, level))


class EmpiricalPmf:
    """Integer-outcome law built from occurrence counts."""

    def __init__(self, counts: dict):
        self.counts = {int(m): int(c) for m, c in counts.items() if c}
        if any(m < 0 for m in self.counts):
            raise ValueError("outcomes must be nonnegative integers")
        if any(c < 0 for c in self.counts.values()):
            raise ValueError("counts must be nonnegative")
        self.total = sum(self.counts.values())
        if self.total == 0:
            raise ValueError("empirical law needs at least one observation")

    @classmethod
    def from_samples(cls, samples: Iterable[int]) -> "EmpiricalPmf":
        return cls(Counter(int(s) for s in samples))

    def pmf(self, m: int) -> float:
        return self.counts.get(int(m), 0) / self.total

    def outcomes(self) -> List[int]:
        return sorted(self.counts)

    def mean(self) -> float:
        return sum(m * c for m, c in self.counts.items()) / self.total

    def variance(self) -> float:
        mu = self.mean()
        return sum(c * (m - mu) ** 2 for m, c in self.counts.items()) / self.total

    def quantile(self, level: float) -> int:
        if not 0 < level < 1:
            raise ValueError("quantile level must lie strictly inside (0,1)")
        acc = 0
        target = level * self.total
        for m in self.outcomes():
            acc += self.counts[m]
            if acc >= target - 1e-9 * self.total:
                return m
        return self.outcomes()[-1]

    def to_csv_rows(self) -> List[Tuple[int, int]]:
        return [(m, self.counts[m]) for m in self.outcomes()]


@dataclass(frozen=True)
class QqTable:
    """Rows of (probability level, empirical quantile, Poisson quantile)."""

    rows: tuple

    def levels(self) -> List[float]:
        return [r[0] for r in self.rows]

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


def poisson_pmf(model: Union[PoissonModel, float], m: int) -> float:
    """Poisson pmf evaluated in log space."""
    lam = model.lam if isinstance(model, PoissonModel) else float(model)
    if m < 0:
        raise ValueError("outcome must be nonnegative")
    if lam == 0:
        return 1.0 if m == 0 else 0.0
    return math.exp(-lam + m * math.log(lam) - math.lgamma(m + 1))


def mixed_poisson_pmf(rate_samples: Sequence[float], m: int) -> float:
    """Monte Carlo pmf of a mixed Poisson law from sampled rates."""
    arr = np.asarray(rate_samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one rate sample")
    if np.any(arr < 0):
        raise ValueError("rate samples must be nonnegative")
    if m < 0:
        raise ValueError("outcome must be nonnegative")
    out = np.zeros(arr.size)
    pos = arr > 0
    if np.any(pos):
        lam = arr[pos]
        out[pos] = np.exp(-lam + m * np.log(lam) - math.lgamma(m + 1))
    if m == 0:
        out[~pos] = 1.0
    return float(out.mean())


def _support_masses(law) -> Tuple[np.ndarray, np.ndarray, float]:
    """Ascending outcomes, their probabilities and any truncated-away
    tail mass."""
    if isinstance(law, PoissonModel):
        pmf, tail = law.truncated_pmf()
        return np.arange(pmf.size), pmf, tail
    if isinstance(law, EmpiricalPmf):
        outcomes = law.outcomes()
        counts = np.array([law.counts[m] for m in outcomes])
        return np.array(outcomes), counts / law.total, 0.0
    raise TypeError("law must be an EmpiricalPmf or a PoissonModel")


def tv_distance(p, q) -> float:
    """Total-variation distance between two integer laws.

    In the sup-over-bounded-test-functions convention (full l1 distance,
    maximum 2).  Truncated Poisson tails are added back so the result
    upper-bounds the untruncated distance.
    """
    at_p, mass_p, tail_p = _support_masses(p)
    at_q, mass_q, tail_q = _support_masses(q)
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
    """Left-continuous inverse CDF of both laws at each level.

    The columns equal ``emp.quantile`` and ``model.quantile`` level by
    level; each law's cdf is built once and searched for every level.
    """
    if not isinstance(emp, EmpiricalPmf):
        raise TypeError("first argument must be an EmpiricalPmf")
    levels = tuple(levels)
    if not all(0 < level < 1 for level in levels):
        raise ValueError("quantile levels must lie strictly inside (0,1)")
    at = np.array([float(level) for level in levels])
    pmf, _ = model.truncated_pmf()
    poisson_q = np.cumsum(pmf).searchsorted(at)
    outcomes = emp.outcomes()
    cum = np.cumsum([emp.counts[m] for m in outcomes])
    # the first outcome whose count reaches the target, as in emp.quantile
    hit = cum.searchsorted(at * emp.total - 1e-9 * emp.total)
    emp_q = np.array(outcomes)[np.minimum(hit, len(outcomes) - 1)]
    rows = zip(at.tolist(), emp_q.tolist(), poisson_q.tolist())
    return QqTable(rows=tuple(rows))
