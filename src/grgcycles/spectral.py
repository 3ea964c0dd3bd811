"""Adjacency spectral radius, its triangle-based lower bound and the
epidemic threshold.

The lower bound uses only vertex, edge and triangle counts:

    radius >= (6*T + sqrt(36*T^2 + 32*e^3 / n)) / (4*e)

and is tight on complete graphs.  The threshold is the reciprocal of the
spectral radius: an infection-to-recovery ratio below it dies out, above
it survives.  Power iteration uses the norm-ratio estimate, which also
converges on bipartite graphs where the Rayleigh quotient would oscillate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .cycles import count_triangles
from .graphs import GrgGraph

__all__ = [
    "ThresholdReport",
    "spectral_lower_bound",
    "epidemic_threshold",
    "power_iteration_radius",
    "threshold_report",
]

POWER_TOLERANCE = 1e-10     # relative change of the estimate at convergence
POWER_MAX_ITERS = 10_000


@dataclass(frozen=True)
class ThresholdReport:
    """Counts, spectral bound/estimate and the thresholds they imply."""

    n: int
    edges: int
    triangles: int
    radius_lower_bound: float
    radius_estimate: float
    threshold_estimate: float
    threshold_upper_bound: float

    def __post_init__(self):
        if self.radius_lower_bound > self.radius_estimate + 1e-6:
            raise ValueError(
                f"spectral lower bound {self.radius_lower_bound} exceeds the "
                f"power-iteration estimate {self.radius_estimate}")

    def to_record(self) -> dict:
        return asdict(self)


def spectral_lower_bound(n: int, edges: int, triangles: int) -> float:
    """Lower bound on the adjacency spectral radius from local counts."""
    if edges < 1:
        raise ValueError("the bound needs at least one edge")
    if n < 1:
        raise ValueError("n must be positive")
    if triangles < 0:
        raise ValueError("triangle count must be nonnegative")
    disc = 36.0 * triangles * triangles + 32.0 * edges ** 3 / n
    return (6.0 * triangles + math.sqrt(disc)) / (4.0 * edges)


def epidemic_threshold(radius: float) -> float:
    """Critical infection-to-recovery ratio, the reciprocal radius."""
    if radius <= 0:
        raise ValueError("spectral radius must be positive")
    return 1.0 / radius


def power_iteration_radius(graph: GrgGraph) -> float:
    """Dominant adjacency eigenvalue by normalized repeated multiplication.

    The estimate is the norm growth factor per step, so graphs whose
    spectrum is symmetric (bipartite) still converge to the radius.  It
    must settle to ``POWER_TOLERANCE`` within ``POWER_MAX_ITERS`` steps.
    """
    if graph.n < 1:
        raise ValueError("graph must have at least one vertex")
    if graph.m == 0:
        return 0.0
    rows = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    x = np.ones(graph.n)
    x /= np.linalg.norm(x)
    estimate = 0.0
    for _ in range(POWER_MAX_ITERS):
        y = np.bincount(rows, weights=x[graph.indices], minlength=graph.n)
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0
        x = y / norm
        if abs(norm - estimate) <= POWER_TOLERANCE * max(1.0, norm):
            return norm
        estimate = norm
    raise RuntimeError(
        f"power iteration did not converge in {POWER_MAX_ITERS} iterations")


def threshold_report(graph: GrgGraph) -> ThresholdReport:
    """Evaluate counts, bound, estimate and thresholds for one graph."""
    triangles = count_triangles(graph).count if graph.n >= 3 else 0
    edges = graph.m
    if edges == 0:
        raise ValueError("threshold analysis needs at least one edge")
    bound = spectral_lower_bound(graph.n, edges, triangles)
    estimate = power_iteration_radius(graph)
    return ThresholdReport(
        n=graph.n,
        edges=edges,
        triangles=triangles,
        radius_lower_bound=bound,
        radius_estimate=estimate,
        threshold_estimate=epidemic_threshold(estimate),
        threshold_upper_bound=epidemic_threshold(bound),
    )
