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

``WeightSpec.tail_index`` is the one place that says how heavy a law's tail
is: ``P(W > x)`` decays like ``x**-tail_index``, so the Pareto shape, and
infinity for the bounded families.  ``moment`` (finite below the index),
``tail_condition_holds`` (index above 2k + 1) and ``ratios.regimes`` (the
decay regimes of the ratio statistic r) all compare against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, inf, isfinite
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


# each family's parameters, in the order its constructor takes them, with
# what each one means: the one list of the config keys of a weight law
_PARAMETERS = {
    "constant": {"value": "constant weight value"},
    "pareto_shifted": {"shape": "pareto shape", "scale": "pareto scale",
                       "loc": "pareto location"},
    "two_point": {"x1": "two-point first atom",
                  "x2": "two-point second atom",
                  "p1": "two-point first-atom probability"},
    "empirical": {"values": "empirical support (comma separated)",
                  "probs": "empirical probabilities (comma separated)"},
}


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
        if self.family not in _PARAMETERS:
            raise WeightSpecError(f"unknown weight family {self.family!r}")
        # every range check below compares false for nan: refuse it first
        for key in _PARAMETERS[self.family]:
            value = getattr(self, key)
            entries = [float(v) for v in (
                value if self.family == "empirical" else (value,))]
            if not all(map(isfinite, entries)):
                raise WeightSpecError(
                    f"{self.family} weights: {key} = "
                    f"{','.join(map(repr, entries))} is not finite")
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

    @property
    def tail_index(self) -> float:
        """The exponent of ``P(W > x) ~ x**-tail_index``: the Pareto shape,
        infinite for bounded support."""
        return self.shape if self.family == "pareto_shifted" else inf

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
        mapping = {"family": self.family}
        for key in _PARAMETERS[self.family]:
            value = getattr(self, key)
            mapping[key] = (",".join(repr(v) for v in value)
                            if self.family == "empirical" else repr(value))
        return mapping

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> "WeightSpec":
        try:
            family = mapping["family"].strip()
        except KeyError:
            raise WeightSpecError("weight block is missing 'family'") from None
        if family not in _PARAMETERS:
            raise WeightSpecError(f"unknown weight family {family!r}")
        listed = family == "empirical"
        args = []
        for key in _PARAMETERS[family]:
            if key not in mapping:
                raise WeightSpecError(f"{family} weights need {key!r}")
            text = mapping[key]
            try:
                args.append([float(v) for v in text.split(",")] if listed
                            else float(text))
            except ValueError:
                kind = ("a comma separated list of numbers" if listed
                        else "a number")
                raise WeightSpecError(f"{family} weights: {key} = {text!r} "
                                      f"is not {kind}") from None
        return getattr(cls, family)(*args)


@dataclass(frozen=True)
class WeightVector:
    """A sampled positive weight sequence and its total; ``from_values``
    refuses a weight or a total that is not finite."""

    values: np.ndarray
    total: float

    @classmethod
    def from_values(cls, values) -> "WeightVector":
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("weight vector must be a nonempty 1-d array")
        finite = np.isfinite(arr)
        if not finite.all():
            bad = int(finite.argmin())
            raise ValueError(f"weight {float(arr[bad])} at index {bad} is "
                             f"not finite")
        if not np.all(arr > 0):
            raise ValueError("all weights must be strictly positive")
        with np.errstate(over="ignore"):
            total = float(arr.sum())
        if not isfinite(total):
            raise ValueError(f"the total of {arr.size} weights up to "
                             f"{float(arr.max())!r} overflows float64")
        return cls(values=arr, total=total)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class MomentSummary:
    """First two moments of a weight law and their ratio."""

    mean: float
    second_moment: float
    ratio: float

    def __post_init__(self):
        # Jensen: EW^2 >= (EW)^2, hence ratio >= mean
        if self.second_moment < self.mean ** 2 * (1 - 1e-12):
            raise ValueError(
                f"second moment {self.second_moment} is below the squared "
                f"mean {self.mean ** 2}, which violates Jensen's inequality")


def draw(spec: WeightSpec, rng: np.random.Generator, size,
         out: np.ndarray = None) -> np.ndarray:
    """Draw i.i.d. variates of any shape from an existing generator.

    Every family but ``constant`` consumes exactly one double, one PCG64
    output, per variate; ``replication._on_stream`` relies on this to start
    each part of a Monte Carlo estimate of :mod:`.ratios` past the draws
    before it with ``advance``.  Given ``out``, a float64 array of shape
    ``size``, the variates are written into it and it is returned; they
    are the same bytes either way.
    """
    if out is None:
        out = np.empty(size)
    elif out.dtype != np.float64 or out.shape != (
            (size,) if np.ndim(size) == 0 else tuple(size)):
        raise ValueError(f"out must be a float64 array of shape {size}")
    if spec.family == "constant":
        out.fill(spec.value)
    elif spec.family == "pareto_shifted":
        u = rng.random(out=out)
        np.subtract(1.0, u, out=u)    # in (0, 1], keeps the transform finite
        u **= -1.0 / spec.shape
        u *= spec.scale
        u += spec.loc
    elif spec.family == "two_point":
        first = rng.random(out=out) < spec.p1
        out.fill(spec.x2)
        out[first] = spec.x1
    else:
        out[...] = rng.choice(np.asarray(spec.values), size=size,
                              p=np.asarray(spec.probs))
    return out


def sample_weights(spec: WeightSpec, n: int, seed) -> WeightVector:
    """Draw ``n`` i.i.d. weights; bitwise reproducible for fixed inputs."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    return WeightVector.from_values(draw(spec, rng, n))


def moment(spec: WeightSpec, order: int) -> float:
    """Exact E W**order; raises :class:`InfiniteMomentError` if it diverges
    and ``ValueError`` if it is finite but out of float64's range."""
    if order < 1:
        raise ValueError("moment order must be a positive integer")
    if order >= spec.tail_index:
        raise InfiniteMomentError(
            f"moment of order {order} is infinite for shape {spec.shape}")
    try:
        value = _moment(spec, order)
    except OverflowError:   # a float power out of range
        value = inf
    if not isfinite(value):
        params = ", ".join(f"{key} = {text}" for key, text
                           in spec.to_mapping().items() if key != "family")
        raise ValueError(f"moment of order {order} overflows float64 for "
                         f"{spec.family} weights with {params}")
    return value


def _moment(spec: WeightSpec, order: int) -> float:
    """E W**order of a law whose moment of that order is finite."""
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


def analytic_moments(spec: WeightSpec) -> MomentSummary:
    """Closed-form mean, second moment and their ratio; raises
    :class:`InfiniteMomentError` if either moment diverges."""
    mean = moment(spec, 1)
    second = moment(spec, 2)
    return MomentSummary(mean=mean, second_moment=second, ratio=second / mean)


def tail_condition_holds(spec: WeightSpec, k: int) -> bool:
    """Whether P(W > x) decays faster than x**-(2k+1): a tail index above
    2k + 1 (strict: equality gives an exact power tail, not an o() bound).
    """
    if k < 3:
        raise ValueError("cycle length k must be at least 3")
    return spec.tail_index > 2 * k + 1
