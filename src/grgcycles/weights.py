"""Vertex-weight laws: parametric families, sampling, closed-form moments.

A :class:`WeightSpec` describes one of four positive weight families:

* ``constant(s)`` -- degenerate at ``s``;
* ``pareto_shifted(shape, scale, loc)`` -- ``W = scale * Y + loc`` with
  ``Y`` a unit-minimum Pareto variable, ``P(Y > y) = y**-shape`` for
  ``y >= 1``;
* ``two_point(x1, x2, p1)`` -- takes ``x1`` with probability ``p1``;
* ``empirical(values, probs)`` -- finite support with given probabilities.

Sampling is deterministic per ``(spec, n, seed)``: the Pareto family uses
the inverse transform ``Y = U ** (-1/shape)`` with ``U`` drawn away from
zero, so the draw is exact and branch-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Mapping

import numpy as np

__all__ = [
    "WeightSpecError",
    "InfiniteMomentError",
    "WeightSpec",
    "WeightVector",
    "MomentSummary",
    "draw",
    "sample_weights",
    "moment",
    "analytic_moments",
    "tail_condition_holds",
]


class WeightSpecError(ValueError):
    """Invalid weight-family parameters."""


class InfiniteMomentError(ValueError):
    """A requested moment does not exist for the given family."""


_FAMILIES = ("constant", "pareto_shifted", "two_point", "empirical")


@dataclass(frozen=True)
class WeightSpec:
    """Parametric description of a positive vertex-weight law."""

    family: str
    value: float = 0.0                      # constant
    shape: float = 0.0                      # pareto_shifted
    scale: float = 0.0
    loc: float = 0.0
    x1: float = 0.0                         # two_point
    x2: float = 0.0
    p1: float = 0.0
    values: tuple = field(default=())       # empirical
    probs: tuple = field(default=())

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise WeightSpecError(f"unknown weight family {self.family!r}")
        if self.family == "constant":
            if self.value <= 0:
                raise WeightSpecError("constant weight must be positive")
        elif self.family == "pareto_shifted":
            if self.shape <= 0:
                raise WeightSpecError("pareto shape must be positive")
            if self.scale <= 0:
                raise WeightSpecError("pareto scale must be positive")
            if self.loc < 0:
                raise WeightSpecError("pareto loc must be nonnegative")
        elif self.family == "two_point":
            if self.x1 <= 0 or self.x2 <= 0:
                raise WeightSpecError("two_point support must be positive")
            if self.x1 == self.x2:
                raise WeightSpecError("two_point values must differ")
            if not 0 < self.p1 < 1:
                raise WeightSpecError("two_point probability must lie in (0,1)")
        else:
            vals = tuple(float(v) for v in self.values)
            prb = tuple(float(p) for p in self.probs)
            if not vals or len(vals) != len(prb):
                raise WeightSpecError("empirical family needs matching values/probs")
            if any(v <= 0 for v in vals):
                raise WeightSpecError("empirical support must be positive")
            if any(p < 0 for p in prb):
                raise WeightSpecError("empirical probabilities must be nonnegative")
            total = sum(prb)
            if abs(total - 1.0) > 1e-12:
                # renormalize on construction; reject only a degenerate total
                if total <= 0:
                    raise WeightSpecError("empirical probabilities sum to zero")
                prb = tuple(p / total for p in prb)
            object.__setattr__(self, "values", vals)
            object.__setattr__(self, "probs", prb)

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "WeightSpec":
        return cls(family="constant", value=float(value))

    @classmethod
    def pareto_shifted(cls, shape: float, scale: float, loc: float) -> "WeightSpec":
        return cls(family="pareto_shifted", shape=float(shape),
                   scale=float(scale), loc=float(loc))

    @classmethod
    def two_point(cls, x1: float, x2: float, p1: float) -> "WeightSpec":
        return cls(family="two_point", x1=float(x1), x2=float(x2), p1=float(p1))

    @classmethod
    def empirical(cls, values, probs) -> "WeightSpec":
        return cls(family="empirical", values=tuple(values), probs=tuple(probs))

    # -- serialization ------------------------------------------------------

    def to_mapping(self) -> dict:
        """Named-parameter form used by configuration files."""
        if self.family == "constant":
            return {"family": "constant", "value": repr(self.value)}
        if self.family == "pareto_shifted":
            return {"family": "pareto_shifted", "shape": repr(self.shape),
                    "scale": repr(self.scale), "loc": repr(self.loc)}
        if self.family == "two_point":
            return {"family": "two_point", "x1": repr(self.x1),
                    "x2": repr(self.x2), "p1": repr(self.p1)}
        return {"family": "empirical",
                "values": ",".join(repr(v) for v in self.values),
                "probs": ",".join(repr(p) for p in self.probs)}

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> "WeightSpec":
        try:
            family = mapping["family"].strip()
        except KeyError:
            raise WeightSpecError("weight block is missing 'family'") from None
        if family == "constant":
            return cls.constant(float(mapping["value"]))
        if family == "pareto_shifted":
            return cls.pareto_shifted(float(mapping["shape"]),
                                      float(mapping["scale"]),
                                      float(mapping["loc"]))
        if family == "two_point":
            return cls.two_point(float(mapping["x1"]), float(mapping["x2"]),
                                 float(mapping["p1"]))
        if family == "empirical":
            values = [float(v) for v in mapping["values"].split(",")]
            probs = [float(p) for p in mapping["probs"].split(",")]
            return cls.empirical(values, probs)
        raise WeightSpecError(f"unknown weight family {family!r}")


@dataclass(frozen=True)
class WeightVector:
    """A sampled positive weight sequence and its total."""

    values: np.ndarray
    total: float

    @classmethod
    def from_values(cls, values) -> "WeightVector":
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("weight vector must be a nonempty 1-d array")
        if not np.all(arr > 0):
            raise ValueError("all weights must be strictly positive")
        return cls(values=arr, total=float(arr.sum()))

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class MomentSummary:
    """First two moments of a weight law plus finiteness flags per order."""

    mean: float
    second_moment: float
    ratio: float
    finite: dict

    def __post_init__(self):
        # Jensen: EW^2 >= (EW)^2, hence ratio >= mean
        if self.second_moment < self.mean ** 2 * (1 - 1e-12):
            raise ValueError(
                f"second moment {self.second_moment} is below the squared "
                f"mean {self.mean ** 2}, which violates Jensen's inequality")


def draw(spec: WeightSpec, rng: np.random.Generator, size) -> np.ndarray:
    """Draw i.i.d. variates of any shape from an existing generator.

    Every family but ``constant`` consumes exactly one double, one PCG64
    output, per variate; the chunked Monte Carlo estimators of
    :mod:`.ratios` rely on this to skip ahead with ``advance``.
    """
    if spec.family == "constant":
        return np.full(size, spec.value, dtype=np.float64)
    if spec.family == "pareto_shifted":
        u = 1.0 - rng.random(size)       # in (0, 1], keeps the transform finite
        return spec.scale * u ** (-1.0 / spec.shape) + spec.loc
    if spec.family == "two_point":
        # select between the atoms' bit patterns without a branch:
        # x2 ^ ((u < p1) * (x1 ^ x2)), written over u's own buffer
        u = rng.random(size)
        x1, x2 = np.array([spec.x1, spec.x2]).view(np.int64)
        bits = u.view(np.int64)
        np.multiply(u < spec.p1, x1 ^ x2, out=bits)
        bits ^= x2
        return u
    return rng.choice(np.asarray(spec.values), size=size,
                      p=np.asarray(spec.probs))


def sample_weights(spec: WeightSpec, n: int, seed) -> WeightVector:
    """Draw ``n`` i.i.d. weights; bitwise reproducible for fixed inputs."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    return WeightVector.from_values(draw(spec, rng, n))


def _moment_finite(spec: WeightSpec, order: int) -> bool:
    if spec.family == "pareto_shifted":
        return spec.shape > order
    return True  # bounded support otherwise


def moment(spec: WeightSpec, order: int) -> float:
    """Exact E W**order; raises :class:`InfiniteMomentError` if it diverges."""
    if order < 1:
        raise ValueError("moment order must be a positive integer")
    if not _moment_finite(spec, order):
        raise InfiniteMomentError(
            f"moment of order {order} is infinite for shape {spec.shape}")
    if spec.family == "constant":
        return spec.value ** order
    if spec.family == "two_point":
        return spec.p1 * spec.x1 ** order + (1 - spec.p1) * spec.x2 ** order
    if spec.family == "empirical":
        return sum(p * v ** order for v, p in zip(spec.values, spec.probs))
    # shifted Pareto: binomial expansion over E Y**j = shape / (shape - j)
    a, s, c = spec.shape, spec.scale, spec.loc
    return sum(comb(order, j) * s ** j * c ** (order - j) * a / (a - j)
               for j in range(order + 1))


def analytic_moments(spec: WeightSpec, max_order: int = 2) -> MomentSummary:
    """Closed-form mean, second moment and their ratio.

    The summary itself needs the first two moments, so those being infinite
    is an error rather than a flag; higher orders up to ``max_order`` are
    only flagged.
    """
    if max_order < 2:
        raise ValueError("max_order must be at least 2")
    mean = moment(spec, 1)
    second = moment(spec, 2)
    finite = {q: _moment_finite(spec, q) for q in range(1, max_order + 1)}
    return MomentSummary(mean=mean, second_moment=second,
                         ratio=second / mean, finite=finite)


def tail_condition_holds(spec: WeightSpec, k: int) -> bool:
    """Whether P(W > x) decays faster than x**-(2k+1).

    True for every bounded-support family; for the shifted Pareto family the
    tail exponent equals ``shape``, so the condition is ``shape > 2k + 1``
    (strict: equality gives an exact power tail, not an o() bound).
    """
    if k < 3:
        raise ValueError("cycle length k must be at least 3")
    if spec.family == "pareto_shifted":
        return spec.shape > 2 * k + 1
    return True
