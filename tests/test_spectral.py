"""Spectral radius estimation, its lower bound, epidemic thresholds."""

import math

import pytest

from grgcycles import spectral
from grgcycles.graphs import GrgGraph, sample_grg
from grgcycles.spectral import (ThresholdReport, epidemic_threshold,
                                power_iteration_radius, spectral_lower_bound,
                                threshold_report)
from grgcycles.weights import WeightSpec, sample_weights


def star_graph(leaves):
    return GrgGraph.from_edges(leaves + 1, [(0, i + 1) for i in range(leaves)])


def path_graph(n):
    return GrgGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestLowerBound:
    def test_tight_on_small_cliques(self):
        # K3: (6 + sqrt(36 + 288)) / 12 = 2, its exact top eigenvalue
        assert spectral_lower_bound(3, 3, 1) == pytest.approx(2.0, abs=1e-9)
        # K4: (24 + sqrt(2304)) / 24 = 3
        assert spectral_lower_bound(4, 6, 4) == pytest.approx(3.0, abs=1e-9)
        # single edge: sqrt(32/2) / 4 = 1
        assert spectral_lower_bound(2, 1, 0) == pytest.approx(1.0, abs=1e-9)

    def test_triangle_free_branch(self):
        # with no triangles the bound reduces to sqrt(2 e / n)
        n, e = 5, 4
        assert spectral_lower_bound(n, e, 0) == pytest.approx(
            math.sqrt(2 * e / n), rel=1e-12)

    def test_guards(self):
        with pytest.raises(ValueError):
            spectral_lower_bound(4, 0, 0)
        with pytest.raises(ValueError):
            spectral_lower_bound(4, 3, -1)


class TestThreshold:
    def test_reciprocal(self):
        assert epidemic_threshold(3.0) == pytest.approx(1 / 3)
        assert epidemic_threshold(1.0) == 1.0

    def test_monotone(self):
        assert epidemic_threshold(5.0) < epidemic_threshold(2.0)

    def test_guard(self):
        with pytest.raises(ValueError):
            epidemic_threshold(0.0)


class TestPowerIteration:
    def test_complete_graph(self):
        assert power_iteration_radius(GrgGraph.complete(4)) == pytest.approx(
            3.0, abs=1e-9)

    def test_cycle_graph(self):
        c5 = GrgGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert power_iteration_radius(c5) == pytest.approx(2.0, abs=1e-6)

    def test_star_graph(self):
        # K_{1,4} has radius sqrt(4) = 2 despite the +/- symmetric spectrum
        assert power_iteration_radius(star_graph(4)) == pytest.approx(2.0,
                                                                      abs=1e-6)

    def test_path_graph_known_value(self):
        n = 10
        expected = 2 * math.cos(math.pi / (n + 1))
        assert power_iteration_radius(path_graph(n)) == pytest.approx(
            expected, abs=1e-8)

    def test_isolated_vertices_are_harmless(self):
        graph = GrgGraph.from_edges(6, [(1, 2), (2, 3), (1, 3)])
        assert power_iteration_radius(graph) == pytest.approx(2.0, abs=1e-9)

    def test_empty_graph(self):
        assert power_iteration_radius(GrgGraph.from_edges(4, [])) == 0.0

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "POWER_TOLERANCE", 1e-15)
        monkeypatch.setattr(spectral, "POWER_MAX_ITERS", 3)
        with pytest.raises(RuntimeError, match="in 3 iterations"):
            power_iteration_radius(path_graph(10))


class TestThresholdReport:
    def test_complete_graph_report(self):
        report = threshold_report(GrgGraph.complete(4))
        assert report.edges == 6 and report.triangles == 4
        assert report.radius_lower_bound == pytest.approx(3.0, abs=1e-9)
        assert report.radius_estimate == pytest.approx(3.0, abs=1e-9)
        assert report.threshold_estimate == pytest.approx(1 / 3, abs=1e-9)
        assert report.threshold_upper_bound == pytest.approx(1 / 3, abs=1e-9)

    def test_triangle_free_graph_still_bounded(self):
        report = threshold_report(star_graph(4))
        assert report.triangles == 0
        assert report.radius_lower_bound <= report.radius_estimate + 1e-6

    def test_bound_below_estimate_on_sampled_graphs(self):
        spec = WeightSpec.pareto_shifted(9.5, 10, 1)
        for seed in range(8):
            wv = sample_weights(spec, 100, seed)
            graph = sample_grg(wv, 1000 + seed)
            if graph.m == 0:
                continue
            report = threshold_report(graph)
            assert report.radius_lower_bound <= report.radius_estimate + 1e-6

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            ThresholdReport(n=3, edges=3, triangles=1, radius_lower_bound=5.0,
                            radius_estimate=2.0, threshold_estimate=0.5,
                            threshold_upper_bound=0.2)

    def test_needs_an_edge(self):
        with pytest.raises(ValueError):
            threshold_report(GrgGraph.from_edges(3, []))


@pytest.mark.parametrize("call,match", [
    (lambda: spectral_lower_bound(0, 1, 0), "n must be positive"),
    (lambda: power_iteration_radius(GrgGraph.from_edges(0, [])),
     "graph must have at least one vertex"),
], ids=["bound_n", "empty_graph"])
def test_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()
