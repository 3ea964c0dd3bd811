"""Reference Poisson laws, total-variation distance and Q-Q tables.

The limiting rate for the k-cycle count is ``(EW^2 / EW)**k / (2k)``.  The
total-variation distance is the full l1 distance between pmfs, the "sup over
test functions bounded by one" convention (twice the half-l1 value).

Every law gives one view, ``support``: its ascending outcomes, their masses
and the mass beyond the last one.  ``PoissonModel``, ``MixedPoisson`` and
``EmpiricalPmf`` build it; ``tv_distance`` and the one quantile rule (the
first outcome whose cumulative mass reaches the level less 1e-9) read nothing
else.  A Poisson support runs from 0 to ``lam + 50 sqrt(lam) + 100``, refused
past ``_MAX_OUTCOMES`` before it is allocated, and is cut where the cdf
reaches 1 - 1e-12.  Its masses come from ``_masses``, the package's one rule
for the masses of a law with one mode: the ratios ``p(m+1) = p(m) lam /
(m+1)`` and ``p(m-1) = p(m) m / lam`` multiplied out from the mode, one
``cumprod`` per side, then divided by their sum.  They lie about 1e-14 from
the exact pmf up to rate 1e5, where a log-space pmf with one ``lgamma`` per
outcome is off by about ``lam log(lam)`` rounding units, enough to move the
cut.  ``ratios.exact_t_moment`` builds its binomial weights by the same rule,
and a mixture averages its rates' supports.  An empirical law holds ascending
outcome and count arrays from a mapping of outcome to count; its mean and
variance are exact integer sums, each divided once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import List, Mapping, Sequence, Tuple

import numpy as np

__all__ = [
    "PoissonModel",
    "MixedPoisson",
    "EmpiricalPmf",
    "QqTable",
    "poisson_rate",
    "tv_distance",
    "qq_table",
]

_TAIL_MASS = 1e-12
_MAX_OUTCOMES = 10**7    # 80 MB a float64 array: rates up to about 9.8e6


def _masses(ratios: np.ndarray, mode: int) -> np.ndarray:
    """The masses of a law on 0..len(ratios) - 1 with its mode at ``mode``,
    built in place from ``ratios``: each entry the ratio of its mass to its
    neighbour's nearer the mode (the mode's own entry is not read).  One
    ``cumprod`` per side gives ``p(m) / p(mode)``; one division by their
    sum normalizes them."""
    ratios[mode] = 1.0
    for side in (ratios[mode::-1], ratios[mode:]):
        np.cumprod(side, out=side)
    ratios /= ratios.sum()
    return ratios


class _Law:
    """A law on the nonnegative integers, read through its ``support``."""

    def quantile(self, levels):
        """The first outcome whose cumulative mass reaches the level, less
        1e-9: an int for one level, a list for an array of them."""
        at = np.asarray(levels, dtype=float)
        if not np.all((0 < at) & (at < 1)):
            raise ValueError("quantile levels must lie strictly inside (0,1)")
        outcomes, masses, _ = self.support
        hit = np.cumsum(masses).searchsorted(at - 1e-9)
        return outcomes[np.minimum(hit, outcomes.size - 1)].tolist()


@dataclass(frozen=True)
class PoissonModel(_Law):
    """Poisson reference law with rate ``lam``."""

    lam: float

    def __post_init__(self):
        if not self.lam >= 0:    # nan too
            raise ValueError(f"Poisson rate must be nonnegative: {self.lam!r}")

    @cached_property
    def support(self) -> Tuple[np.ndarray, np.ndarray, float]:
        """Outcomes 0..M, M the first with cdf(M) >= 1 - 1e-12, their pmf
        and the tail beyond M; built once per model, read-only."""
        lam = self.lam
        bound = lam + 50.0 * math.sqrt(lam) + 100
        if not bound < _MAX_OUTCOMES:
            raise ValueError(f"Poisson rate {lam!r} is too large: its support "
                             f"would run to outcome {bound:.4g}, past the "
                             f"limit of {_MAX_OUTCOMES} outcomes")
        bound, mode = int(bound), int(lam)
        # p(m) / p(m + 1) = (m + 1) / lam left of the mode, p(m) / p(m - 1)
        # = lam / m right of it
        pmf = np.arange(bound + 1, dtype=float)
        pmf[:mode] = pmf[1:mode + 1] / lam
        np.divide(lam, pmf[mode + 1:], out=pmf[mode + 1:])
        pmf = _masses(pmf, mode)
        cdf = np.cumsum(pmf)
        cut = min(int(np.searchsorted(cdf, 1.0 - _TAIL_MASS)), bound)
        outcomes, pmf = np.arange(cut + 1), pmf[:cut + 1]
        outcomes.flags.writeable = pmf.flags.writeable = False
        return outcomes, pmf, max(0.0, 1.0 - float(cdf[cut]))


class MixedPoisson(_Law):
    """A rate drawn uniformly from ``rates``, then a Poisson count with it.
    The support runs to the largest cut of the rates' ``PoissonModel``s: the
    mean of their masses, each 0 past its own cut, and of their tails."""

    def __init__(self, rates: Sequence[float]):
        rates = np.asarray(rates, dtype=np.float64)
        if rates.size == 0:
            raise ValueError("need at least one rate sample")
        if not np.all(rates >= 0):    # nan too
            raise ValueError("rate samples must be nonnegative")
        pmf, tail = np.zeros(0), 0.0
        for lam in rates.tolist():
            _, masses, beyond = PoissonModel(lam).support
            pmf = np.pad(pmf, (0, max(0, masses.size - pmf.size)))
            pmf[:masses.size] += masses
            tail += beyond
        pmf /= rates.size
        outcomes = np.arange(pmf.size)
        outcomes.flags.writeable = pmf.flags.writeable = False
        self.support = (outcomes, pmf, tail / rates.size)


class EmpiricalPmf(_Law):
    """Integer-outcome law of occurrence counts, held as ascending outcome
    and count arrays: read its ``support``, do not change it."""

    def __init__(self, counts: Mapping[int, int]):
        """The law of ``counts``, outcome -> count, such as a ``Counter``."""
        for m, c in counts.items():
            if not all(isinstance(x, numbers.Integral) and x >= 0
                       for x in (m, c)):
                raise ValueError(f"outcomes and counts must be nonnegative "
                                 f"integers: outcome {m!r} has count {c!r}")
        pairs = np.array(sorted(counts.items()), dtype=np.int64).reshape(-1, 2)
        outcomes, counts = pairs[pairs[:, 1] != 0].T
        self.total = int(counts.sum())
        if self.total == 0:
            raise ValueError("empirical law needs at least one observation")
        outcomes.flags.writeable = counts.flags.writeable = False
        self._counts = counts
        # ascending outcomes, their frequencies, no tail
        self.support = (outcomes, counts / self.total, 0.0)

    def mean(self) -> float:
        return sum(c * m for m, c in self.to_csv_rows()) / self.total

    def variance(self) -> float:
        rows, total = self.to_csv_rows(), self.total
        first = sum(c * m for m, c in rows)
        second = sum(c * m * m for m, c in rows)
        return (total * second - first * first) / total ** 2

    def to_csv_rows(self) -> List[Tuple[int, int]]:
        return list(zip(self.support[0].tolist(), self._counts.tolist()))


@dataclass(frozen=True)
class QqTable:
    """Rows of (probability level, one law's quantile, the other's)."""

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


def tv_distance(p: _Law, q: _Law) -> float:
    """Total-variation distance between any two laws, the full l1 (at most
    2), plus both tails: an upper bound on the untruncated one."""
    at_p, mass_p, tail_p = p.support
    at_q, mass_q, tail_q = q.support
    # np.union1d would do, but its np.unique imports numpy.ma (about 1.3 MB)
    merged = np.sort(np.concatenate((at_p, at_q)))
    support = merged[np.append(True, merged[1:] != merged[:-1])]
    diff = np.zeros(support.size)
    diff[support.searchsorted(at_p)] = mass_p
    diff[support.searchsorted(at_q)] -= mass_q
    # a sequential sum in ascending outcome order, not numpy's pairwise one
    dist = float(np.add.accumulate(np.abs(diff))[-1]) + (tail_p + tail_q)
    return min(dist, 2.0)


def qq_table(p: _Law, q: _Law, levels: Sequence[float]) -> QqTable:
    """Both laws' quantiles at each level, from one search per law: ``p``'s
    in the empirical column, ``q``'s in the Poisson one."""
    at = np.asarray(list(levels), dtype=float)
    rows = zip(at.tolist(), p.quantile(at), q.quantile(at))
    return QqTable(rows=tuple(rows))
