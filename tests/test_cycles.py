"""Cycle censuses: canonical counting, the brute force oracle, enumeration."""

import time
import tracemalloc

import numpy as np
import pytest
from itertools import combinations, permutations
from math import factorial

from hypothesis import example, given, settings
from hypothesis import strategies as st

from grgcycles import cycles
from grgcycles.cycles import (CandidateCapError, _candidate_rows,
                              _pair_keys, _ranked_csr, candidate_count,
                              count_k_cycles, count_triangles)
from grgcycles.graphs import GrgGraph, _index_dtype, sample_grg
from grgcycles.weights import WeightSpec, sample_weights
from oracles import (brute_force_count, canonicalize, complete_graph,
                     enumerate_cycles, is_canonical)


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
        k4 = complete_graph(4)
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
        k7 = complete_graph(7)
        for k in range(3, 8):
            assert count_k_cycles(k7, k).count == candidate_count(7, k)

    def test_k_guards(self):
        k4 = complete_graph(4)
        with pytest.raises(ValueError):
            count_k_cycles(k4, 2)
        with pytest.raises(ValueError):
            count_k_cycles(k4, 5)


class TestOracleAgreement:
    def test_brute_force_known(self):
        k4 = complete_graph(4)
        assert brute_force_count(k4, 3).count == 4
        assert brute_force_count(k4, 4).count == 3

    def test_brute_force_guard(self):
        with pytest.raises(ValueError):
            brute_force_count(complete_graph(11), 3)

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

    @pytest.mark.parametrize("shape", [1.5, 2.0, 3.0])
    def test_heavy_tailed_weights(self, shape):
        wv = sample_weights(WeightSpec.pareto_shifted(shape, 3, 1), 150, seed=5)
        graph = sample_grg(wv, seed=6)
        assert np.diff(graph.indptr).max() >= 15
        self.assert_walker_agrees(graph)

    def assert_hub_joined_to_clique(self, n):
        # vertex 0 has the smallest id but the largest degree; with the
        # clique 1..8 it forms K9, the leaves 9..n-1 close no cycle
        clique = [(u, v) for u in range(1, 9) for v in range(u + 1, 9)]
        graph = GrgGraph.from_edges(n, clique + [(0, v) for v in range(1, n)])
        assert count_k_cycles(graph, 3).count == candidate_count(9, 3)
        assert count_k_cycles(graph, 4).count == candidate_count(9, 4)
        self.assert_walker_agrees(graph)

    def test_hub_joined_to_clique(self):
        self.assert_hub_joined_to_clique(40)

    def test_hub_of_degree_299_joined_to_clique(self):
        # the hub outranks all its 299 neighbors, so its row pairs none
        self.assert_hub_joined_to_clique(300)


def reference_pair_keys(indptr, cols, whole_rows):
    """Keys y * n + z of the pairs y < z of each ranked row v with z above
    v, and y above v too unless ``whole_rows``, from itertools."""
    n = indptr.size - 1
    keys = []
    for v in range(n):
        row = cols[indptr[v]:indptr[v + 1]].tolist()
        for y, z in combinations(row if whole_rows else
                                 [c for c in row if c > v], 2):
            if z > v:
                keys.append(y * n + z)
    return sorted(keys)


class TestPairKeys:
    """The one pair-key generator of both closed forms: y over the higher
    ranks of a row for triangles, over the whole row for 4-cycles."""

    @staticmethod
    def assert_both_modes(graph):
        indptr, keys, cols, upper = _ranked_csr(graph)
        assert keys.dtype == cols.dtype == np.uint32
        for whole_rows in (False, True):
            got = _pair_keys(indptr, cols,
                             indptr[:-1] if whole_rows else upper, upper)
            assert got.dtype == np.uint32
            assert sorted(got.tolist()) == \
                reference_pair_keys(indptr, cols, whole_rows)

    @given(n=st.integers(1, 12), picks=st.lists(st.booleans(), max_size=66))
    @example(n=1, picks=[])
    @example(n=6, picks=[])
    @example(n=7, picks=[True] * 3)
    @settings(max_examples=100, deadline=None)
    def test_matches_combinations(self, n, picks):
        # pick pairs in lexicographic order; later vertices stay isolated
        pairs = [pair for pair, pick in zip(combinations(range(n), 2), picks)
                 if pick]
        self.assert_both_modes(GrgGraph.from_edges(n, pairs))

    def test_row_of_300_positions(self):
        # row 0 holds 1..300, the other rows are empty: the first position
        # has 299 partners, which takes a 16-bit sort key
        n = 301
        cols = np.arange(1, n, dtype=np.uint32)
        indptr = np.full(n + 1, n - 1)
        indptr[0] = 0
        keys = _pair_keys(indptr, cols, indptr[:-1], indptr[:-1])
        assert keys.dtype == np.uint32
        assert sorted(keys.tolist()) == \
            [y * n + z for y, z in combinations(range(1, n), 2)]

    def test_int64_positions_give_the_same_keys(self, monkeypatch):
        # the positions of a CSR of 2**31 entries or more are int64; force
        # that path on a small graph
        monkeypatch.setattr(cycles, "_index_dtype", lambda size: np.int64)
        self.assert_both_modes(random_graph(60, 4))

    def test_ranking_prunes_heavy_tail_pairs(self):
        # Pareto shape 1.5: the 4-cycle pairs, whose larger end outranks
        # the row, are at most half of all sum C(d, 2) pairs of a row
        wv = sample_weights(WeightSpec.pareto_shifted(1.5, 10, 1), 2000,
                            seed=0)
        graph = sample_grg(wv, seed=1)
        degree = np.diff(graph.indptr)
        indptr, _, cols, upper = _ranked_csr(graph)
        kept = _pair_keys(indptr, cols, indptr[:-1], upper).size
        assert 2 * kept <= int((degree * (degree - 1) // 2).sum())


class TestKeyWidth:
    """Keys are uint32 while n**2 <= 2**32, int64 above: K5 and a separate
    4-cycle on the highest ids, on either side of n = 2**16."""

    @pytest.mark.parametrize("n,key_type", [(65536, np.uint32),
                                            (65537, np.int64)])
    def test_census_and_text_at_the_boundary(self, n, key_type):
        k5 = list(combinations(range(n - 5, n), 2))
        square = [(n - 9, n - 8), (n - 8, n - 7), (n - 7, n - 6),
                  (n - 6, n - 9)]
        graph = GrgGraph.from_edges(n, k5 + square)
        assert graph.indices.dtype == np.int64
        assert _ranked_csr(graph)[1].dtype == key_type
        assert count_k_cycles(graph, 3).count == candidate_count(5, 3) == \
            len(list(enumerate_cycles(graph, 3)))
        assert count_k_cycles(graph, 4).count == candidate_count(5, 4) + 1 \
            == len(list(enumerate_cycles(graph, 4)))
        back = GrgGraph.from_edge_text(graph.to_edge_text())
        assert back.n == n
        assert back.indices.dtype == np.int64
        assert np.array_equal(back.indptr, graph.indptr)
        assert np.array_equal(back.indices, graph.indices)


class TestIndexWidth:
    """Positions in a CSR are int32 up to 2**31 - 1 entries, int64 above."""

    def test_rule_at_the_boundary(self):
        assert _index_dtype(2 ** 31 - 1) is np.int32
        assert _index_dtype(2 ** 31) is np.int64

    @pytest.mark.parametrize("k,bound", [(3, 750_000), (4, 1_000_000)])
    def test_census_peak_at_n_2000(self, k, bound):
        # about 0.62 and 0.83 MB; with int64 positions kept to the end,
        # 0.96 and 1.72 MB, and at k = 4 1.17 MB with int64 positions freed
        # early and 1.13 MB with the keys made before the last positions
        # are freed
        graph = random_graph(2000, 0)
        count_k_cycles(graph, k)   # warm the imports
        began = time.perf_counter()
        tracemalloc.start()
        try:
            count_k_cycles(graph, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound
        assert time.perf_counter() - began < 1


class TestMonotonicity:
    @given(seed=st.integers(0, 10_000), pick=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_adding_edge_never_decreases_counts(self, seed, pick):
        graph = random_graph(8, seed)
        present = set(map(tuple, graph.edge_array().tolist()))
        missing = [(u, v) for u in range(8) for v in range(u + 1, 8)
                   if (u, v) not in present]
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
        got = set(enumerate_cycles(complete_graph(4), 3, mode="candidates"))
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
            list(enumerate_cycles(complete_graph(30), 5,
                                  mode="candidates", cap=100))

    def test_candidate_rows_stop_at_the_fixed_cap(self):
        assert _candidate_rows(37, 4).shape == (198_135, 4)
        with pytest.raises(CandidateCapError,
                           match="221445 candidate 4-cycles on n=38"):
            _candidate_rows(38, 4)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            list(enumerate_cycles(complete_graph(4), 3, mode="nope"))
