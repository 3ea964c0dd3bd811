"""Edge law, graph sampling and the adjacency representation."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from grgcycles.graphs import (GrgGraph, cycle_probability, edge_probability,
                              sample_chung_lu, sample_grg)
from grgcycles.weights import WeightSpec, WeightVector, sample_weights


def er_weight(n, lam):
    """Constant weight making every edge probability exactly lam/n."""
    return n * lam / (n - lam)


class TestEdgeProbability:
    def test_unit_pair(self):
        assert edge_probability(1, 1, 2) == pytest.approx(1 / 3)

    def test_er_special_case(self):
        # all-equal weights n*lam/(n-lam) give exactly lam/n
        for n, lam in ((10, 1.0), (100, 2.5), (57, 0.3)):
            w = er_weight(n, lam)
            assert edge_probability(w, w, n * w) == pytest.approx(lam / n,
                                                                  rel=1e-12)

    def test_small_weight_limit(self):
        assert edge_probability(1e-12, 1.0, 10.0) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            edge_probability(0, 1, 2)
        with pytest.raises(ValueError):
            edge_probability(1, -1, 2)

    @given(wi=st.floats(0.01, 50), wj=st.floats(0.01, 50),
           extra=st.floats(0.0, 500))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_in_unit_interval(self, wi, wj, extra):
        total = wi + wj + extra
        p = edge_probability(wi, wj, total)
        assert 0 < p < 1
        assert p == edge_probability(wj, wi, total)

    @given(wi=st.floats(0.01, 50), wj=st.floats(0.01, 50),
           bump=st.floats(0.01, 10))
    @settings(max_examples=100, deadline=None)
    def test_strictly_increasing_in_each_weight(self, wi, wj, bump):
        total = 200.0
        assert edge_probability(wi + bump, wj, total) > edge_probability(
            wi, wj, total)


class TestGraphRepresentation:
    def test_symmetry_and_no_self_loops(self):
        wv = sample_weights(WeightSpec.pareto_shifted(9.5, 10, 1), 40, seed=5)
        graph = sample_grg(wv, seed=6)
        for i in range(graph.n):
            for j in graph.neighbors(i):
                assert j != i
                assert graph.has_edge(int(j), i)
            row = graph.neighbors(i)
            assert np.all(np.diff(row) > 0)   # strictly sorted

    def test_edge_text_roundtrip(self):
        graph = GrgGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        text = graph.to_edge_text()
        assert text.splitlines()[0] == "5 5"
        back = GrgGraph.from_edge_text(text)
        assert back.n == 5 and back.m == 5
        assert np.array_equal(back.indptr, graph.indptr)
        assert np.array_equal(back.indices, graph.indices)

    def test_edge_text_is_one_based(self):
        graph = GrgGraph.from_edges(2, [(0, 1)])
        assert graph.to_edge_text() == "2 1\n1 2\n"

    @pytest.mark.parametrize("text", [
        "", "3\n", "2 1\n1 3\n", "2 2\n1 2\n", "2 1\n1 2 3\n",
        "2 2\n1 2\n2 1\n", "-1 0\n", "a b\n", "3 x\n", "3 -2\n",
    ])
    def test_malformed_edge_text(self, text):
        with pytest.raises(ValueError):
            GrgGraph.from_edge_text(text)

    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(ValueError):
            GrgGraph.from_edges(3, [(1, 1)])

    @pytest.mark.parametrize("edges,message", [
        ([(0, 1), (2, 2), (1, 1)], r"self-loop at vertex 2$"),
        ([(0, 1), (0, 5), (3, 1)], r"edge \(0,5\) outside 0\.\.2$"),
        ([(0, 1), (2, 1), (1, 2), (1, 0)], r"repeated edge \(0,1\)$"),
    ])
    def test_from_edges_names_first_offender(self, edges, message):
        with pytest.raises(ValueError, match=message):
            GrgGraph.from_edges(3, edges)

    def test_edge_text_names_one_based_edge(self):
        with pytest.raises(ValueError, match=r"repeated edge \(1,2\)"):
            GrgGraph.from_edge_text("2 2\n1 2\n2 1\n")
        with pytest.raises(ValueError, match=r"edge \(1,3\) outside 1\.\.2"):
            GrgGraph.from_edge_text("2 1\n1 3\n")

    def test_edge_text_names_bad_header_field(self):
        with pytest.raises(ValueError, match=r"header '-1 0': n = '-1'"):
            GrgGraph.from_edge_text("-1 0\n")
        with pytest.raises(ValueError, match=r"header '3 x': m = 'x'"):
            GrgGraph.from_edge_text("3 x\n")


class TestSampling:
    def test_two_vertex_frequency(self):
        # single pair with unit weights: presence probability 1/3
        wv = WeightVector.from_values([1.0, 1.0])
        trials = 10**5
        hits = sum(sample_grg(wv, seed).m for seed in range(trials))
        p = 1 / 3
        se = np.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) < 3 * se

    def test_er_mean_edge_count(self):
        n, lam = 100, 1.0
        wv = WeightVector.from_values(np.full(n, er_weight(n, lam)))
        reps = 3000
        counts = [sample_grg(wv, 1000 + s).m for s in range(reps)]
        pairs = n * (n - 1) / 2
        expected = pairs / n           # C(n,2) * lam/n with lam = 1
        var = pairs * (lam / n) * (1 - lam / n)
        se = np.sqrt(var / reps)
        assert abs(np.mean(counts) - expected) < 3 * se

    def test_heavy_vertex_dominates(self):
        wv = WeightVector.from_values([50.0] + [1.0] * 30)
        degs = np.zeros(31)
        for seed in range(200):
            graph = sample_grg(wv, seed)
            degs += [graph.degree(i) for i in range(31)]
        assert degs[0] > degs[1:].max()

    def test_pair_frequencies_match_edge_probability(self):
        wv = WeightVector.from_values([1.0, 2.0, 3.0, 4.0, 5.0])
        reps = 10**4
        hits = np.zeros((5, 5))
        for seed in range(reps):
            graph = sample_grg(wv, seed)
            for u, v in graph.edge_array():
                hits[u, v] += 1
        for u in range(5):
            for v in range(u + 1, 5):
                p = edge_probability(wv.values[u], wv.values[v], wv.total)
                se = np.sqrt(p * (1 - p) / reps)
                assert abs(hits[u, v] / reps - p) <= 4 * se

    def test_deterministic_per_seed(self):
        wv = sample_weights(WeightSpec.pareto_shifted(9.5, 10, 1), 60, seed=1)
        a = sample_grg(wv, seed=9)
        b = sample_grg(wv, seed=9)
        assert np.array_equal(a.indices, b.indices)

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            sample_grg(WeightVector.from_values([1.0]), seed=0)


class TestChungLu:
    def test_unit_pair(self):
        wv = WeightVector.from_values([1.0, 1.0])
        reps = 4000
        hits = sum(sample_chung_lu(wv, s).m for s in range(reps))
        se = np.sqrt(0.25 / reps)
        assert abs(hits / reps - 0.5) < 4 * se

    def test_small_probabilities(self):
        wv = WeightVector.from_values([2.0, 1.0, 1.0])
        reps = 10**4
        hits = np.zeros((3, 3))
        for seed in range(reps):
            for u, v in sample_chung_lu(wv, seed).edge_array():
                hits[u, v] += 1
        assert abs(hits[0, 1] / reps - 0.5) < 4 * np.sqrt(0.25 / reps)
        assert abs(hits[1, 2] / reps - 0.25) < 4 * np.sqrt(0.1875 / reps)

    def test_precondition_names_vertex(self):
        wv = WeightVector.from_values([3.0, 1.0])
        with pytest.raises(ValueError, match="vertex 1"):
            sample_chung_lu(wv, seed=0)


class TestCycleProbability:
    def test_unit_square_triangle(self):
        wv = WeightVector.from_values([1.0] * 4)
        assert cycle_probability(wv, (0, 1, 2)) == pytest.approx((1 / 5) ** 3)

    def test_er_case(self):
        n, lam, k = 12, 2.0, 4
        wv = WeightVector.from_values(np.full(n, er_weight(n, lam)))
        assert cycle_probability(wv, (0, 3, 7, 9)) == pytest.approx(
            (lam / n) ** k, rel=1e-12)

    def test_rejects_repeats_and_short(self):
        wv = WeightVector.from_values([1.0] * 4)
        with pytest.raises(ValueError):
            cycle_probability(wv, (0, 1, 1))
        with pytest.raises(ValueError):
            cycle_probability(wv, (0, 1))
