"""Cycle censuses: canonical counting, the brute force oracle, enumeration."""

import numpy as np
import pytest
from itertools import combinations, permutations
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from grgcycles.cycles import (CandidateCapError, _candidate_rows,
                              candidate_count, count_k_cycles,
                              count_triangles)
from grgcycles.graphs import GrgGraph
from grgcycles.weights import WeightSpec, sample_weights
from grgcycles.graphs import sample_grg
from oracles import (brute_force_count, canonicalize, enumerate_cycles,
                     is_canonical)


def cycle_graph(n):
    return GrgGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(n, seed):
    wv = sample_weights(WeightSpec.pareto_shifted(9.5, 10, 1), n, seed)
    return sample_grg(wv, seed + 7919)


class TestCandidateCount:
    @pytest.mark.parametrize("n,k,expected", [(4, 3, 4), (4, 4, 3), (5, 3, 10)])
    def test_small_values(self, n, k, expected):
        assert candidate_count(n, k) == expected

    def test_matches_factorial_formula(self):
        for n, k in ((10, 5), (30, 7), (100, 8)):
            falling = factorial(n) // factorial(n - k)
            assert candidate_count(n, k) == falling // (2 * k)

    def test_guards(self):
        with pytest.raises(ValueError):
            candidate_count(5, 2)
        with pytest.raises(ValueError):
            candidate_count(3, 4)


class TestCanonicalForm:
    def test_examples(self):
        assert canonicalize((3, 4, 1)) == (1, 3, 4)
        assert canonicalize((1, 4, 3)) == (1, 3, 4)
        # 2-0-1-3-2 visits 0 between 2 and 1, so the canonical walk is 0,1,3,2
        assert canonicalize((2, 0, 1, 3)) == (0, 1, 3, 2)

    def test_all_rotations_and_reflections_collapse(self):
        verts = (2, 5, 9, 7, 4)
        k = len(verts)
        images = set()
        for r in range(k):
            rot = verts[r:] + verts[:r]
            images.add(canonicalize(rot))
            images.add(canonicalize(rot[::-1]))
        assert len(images) == 1
        assert is_canonical(images.pop())

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            canonicalize((1, 2))
        with pytest.raises(ValueError):
            canonicalize((1, 2, 1))


class TestKnownCensuses:
    def test_complete_graph_triangles(self):
        k4 = GrgGraph.complete(4)
        assert count_k_cycles(k4, 3).count == 4
        assert count_k_cycles(k4, 4).count == 3
        assert count_triangles(k4).count == 4

    def test_five_cycle(self):
        c5 = cycle_graph(5)
        assert count_k_cycles(c5, 5).count == 1
        assert count_k_cycles(c5, 4).count == 0
        assert count_k_cycles(c5, 3).count == 0

    def test_empty_graph(self):
        empty = GrgGraph.from_edges(6, [])
        for k in (3, 4, 5, 6):
            assert count_k_cycles(empty, k).count == 0
        assert count_triangles(empty).count == 0

    def test_complete_graph_matches_candidate_count(self):
        k7 = GrgGraph.complete(7)
        for k in range(3, 8):
            assert count_k_cycles(k7, k).count == candidate_count(7, k)

    def test_k_guards(self):
        k4 = GrgGraph.complete(4)
        with pytest.raises(ValueError):
            count_k_cycles(k4, 2)
        with pytest.raises(ValueError):
            count_k_cycles(k4, 5)


class TestOracleAgreement:
    def test_brute_force_known(self):
        k4 = GrgGraph.complete(4)
        assert brute_force_count(k4, 3).count == 4
        assert brute_force_count(k4, 4).count == 3

    def test_brute_force_guard(self):
        with pytest.raises(ValueError):
            brute_force_count(GrgGraph.complete(11), 3)

    def test_random_graphs_all_k(self):
        rng = np.random.default_rng(50)
        for trial in range(50):
            n = int(rng.integers(3, 10))
            graph = random_graph(n, trial)
            for k in range(3, n + 1):
                assert count_k_cycles(graph, k).count == \
                    brute_force_count(graph, k).count

    def test_triangle_cross_implementation(self):
        for trial in range(40):
            graph = random_graph(9, 400 + trial)
            assert count_triangles(graph).count == \
                len(list(enumerate_cycles(graph, 3)))


class TestClosedForms:
    """The k = 3 and k = 4 wedge counts against the DFS walker, on graphs
    whose degree order differs from their vertex order."""

    @staticmethod
    def assert_walker_agrees(graph):
        for k in (3, 4):
            assert count_k_cycles(graph, k).count == \
                len(list(enumerate_cycles(graph, k)))

    @pytest.mark.parametrize("shape", [2.0, 3.0])
    def test_heavy_tailed_weights(self, shape):
        wv = sample_weights(WeightSpec.pareto_shifted(shape, 3, 1), 150, seed=5)
        graph = sample_grg(wv, seed=6)
        assert np.diff(graph.indptr).max() >= 15
        self.assert_walker_agrees(graph)

    def test_hub_joined_to_clique(self):
        # vertex 0 has the smallest id but the largest degree; with the
        # clique 1..8 it forms K9, the leaves 9..39 close no cycle
        clique = [(u, v) for u in range(1, 9) for v in range(u + 1, 9)]
        graph = GrgGraph.from_edges(40, clique + [(0, v) for v in range(1, 40)])
        assert count_k_cycles(graph, 3).count == candidate_count(9, 3)
        assert count_k_cycles(graph, 4).count == candidate_count(9, 4)
        self.assert_walker_agrees(graph)


class TestMonotonicity:
    @given(seed=st.integers(0, 10_000), pick=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_adding_edge_never_decreases_counts(self, seed, pick):
        graph = random_graph(8, seed)
        missing = [(u, v) for u in range(8) for v in range(u + 1, 8)
                   if not graph.has_edge(u, v)]
        if not missing:
            return
        extra = missing[pick % len(missing)]
        bigger = GrgGraph.from_edges(
            8, [tuple(e) for e in graph.edge_array()] + [extra])
        for k in range(3, 9):
            assert count_k_cycles(bigger, k).count >= \
                count_k_cycles(graph, k).count


class TestEnumeration:
    def test_candidate_triangles_on_four_vertices(self):
        got = set(enumerate_cycles(GrgGraph.complete(4), 3, mode="candidates"))
        assert got == {(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)}

    def test_five_cycle_single_representative(self):
        assert list(enumerate_cycles(cycle_graph(5), 5)) == [(0, 1, 2, 3, 4)]

    def test_stream_matches_census(self):
        for trial in range(30):
            n = 3 + trial % 7
            graph = random_graph(n, 900 + trial)
            for k in range(3, n + 1):
                stream = list(enumerate_cycles(graph, k))
                assert len(stream) == count_k_cycles(graph, k).count
                assert len(set(stream)) == len(stream)
                assert all(is_canonical(c) for c in stream)

    def test_candidate_stream_matches_candidate_count(self):
        graph = GrgGraph.from_edges(7, [])
        for k in (3, 4, 5):
            stream = list(enumerate_cycles(graph, k, mode="candidates"))
            assert len(stream) == candidate_count(7, k)
            assert len(set(stream)) == len(stream)
            assert all(is_canonical(c) for c in stream)

    @pytest.mark.parametrize("n,k", [(3, 3), (6, 4), (7, 5), (8, 6)])
    def test_candidate_rows_in_itertools_order(self, n, k):
        expected = [(combo[0],) + order
                    for combo in combinations(range(n), k)
                    for order in permutations(combo[1:])
                    if order[0] < order[-1]]
        rows = _candidate_rows(n, k)
        assert rows.dtype == np.int64
        assert list(map(tuple, rows.tolist())) == expected
        graph = GrgGraph.from_edges(n, [])
        assert list(enumerate_cycles(graph, k, mode="candidates")) == expected

    def test_candidate_cap(self):
        with pytest.raises(CandidateCapError):
            list(enumerate_cycles(GrgGraph.complete(30), 5,
                                  mode="candidates", cap=100))

    def test_candidate_rows_stop_at_the_fixed_cap(self):
        assert _candidate_rows(37, 4).shape == (198_135, 4)
        with pytest.raises(CandidateCapError,
                           match="221445 candidate 4-cycles on n=38"):
            _candidate_rows(38, 4)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            list(enumerate_cycles(GrgGraph.complete(4), 3, mode="nope"))
