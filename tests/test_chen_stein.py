"""Dependency neighborhoods and the exact bound terms.

The oracle for b1/b2 is a literal double loop over all candidate cycles
using ``neighborhood`` and ``pair_probability``, evaluated before checking
the array kernels and the dense matrix path against it.
"""

from itertools import permutations

import numpy as np
import pytest

from grgcycles.chen_stein import (bound_report, conditional_rate_exact,
                                  conditional_rate_plugin, exact_bound_terms,
                                  neighborhood, pair_probability,
                                  _bound_terms)
from grgcycles.cycles import (CandidateCapError, candidate_count,
                              enumerate_cycles)
from grgcycles.graphs import GrgGraph, cycle_probability
from grgcycles.weights import WeightSpec, WeightVector, sample_weights


def all_candidates(n, k):
    return list(enumerate_cycles(GrgGraph.from_edges(n, []), k,
                                 mode="candidates"))


def oracle_bound_terms(weights, k):
    """Exhaustive b1/b2 straight from the definitions."""
    n = len(weights)
    b1 = 0.0
    b2 = 0.0
    for alpha in all_candidates(n, k):
        hood = neighborhood(alpha, k, n)
        pa = cycle_probability(weights, alpha)
        for beta in hood:
            b1 += pa * cycle_probability(weights, beta)
            if beta != alpha:
                b2 += pair_probability(weights, alpha, beta)
    return b1, b2


class TestNeighborhood:
    def test_four_vertices_all_triangles_share_an_edge(self):
        hood = neighborhood((0, 1, 2), 3, 4)
        assert hood == {(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)}

    def test_disjoint_triangles_not_neighbors(self):
        assert (3, 4, 5) not in neighborhood((0, 1, 2), 3, 6)

    def test_shared_vertex_without_edge_not_neighbor(self):
        assert (0, 3, 4) not in neighborhood((0, 1, 2), 3, 5)

    def test_includes_self(self):
        for alpha in ((0, 1, 2), (1, 3, 5, 4)):
            assert alpha in neighborhood(alpha, len(alpha), 7)

    def test_symmetry(self):
        n, k = 7, 4
        cands = all_candidates(n, k)
        hoods = {alpha: neighborhood(alpha, k, n) for alpha in cands}
        for alpha in cands:
            for beta in hoods[alpha]:
                assert alpha in hoods[beta]

    def test_cap(self):
        with pytest.raises(CandidateCapError):
            neighborhood((0, 1, 2, 3, 4), 5, 40, cap=10)


class TestPairProbability:
    def test_self_pair_is_cycle_probability(self):
        wv = sample_weights(WeightSpec.pareto_shifted(9.5, 10, 1), 6, seed=2)
        alpha = (0, 2, 4)
        assert pair_probability(wv, alpha, alpha) == pytest.approx(
            cycle_probability(wv, alpha), rel=1e-14)

    def test_disjoint_pair_factorizes(self):
        wv = sample_weights(WeightSpec.pareto_shifted(9.5, 10, 1), 8, seed=3)
        a, b = (0, 1, 2), (3, 4, 5)
        assert pair_probability(wv, a, b) == pytest.approx(
            cycle_probability(wv, a) * cycle_probability(wv, b), rel=1e-12)

    def test_shared_edge_five_edge_union(self):
        wv = WeightVector.from_values([1.0] * 4)
        assert pair_probability(wv, (0, 1, 2), (0, 1, 3)) == pytest.approx(
            (1 / 5) ** 5, rel=1e-14)

    def test_bracketing_inequalities(self):
        wv = sample_weights(WeightSpec.two_point(1, 4, 0.3), 7, seed=5)
        cands = all_candidates(7, 3)
        rng = np.random.default_rng(0)
        for _ in range(60):
            a, b = cands[rng.integers(len(cands))], cands[rng.integers(len(cands))]
            pa = cycle_probability(wv, a)
            pb = cycle_probability(wv, b)
            pab = pair_probability(wv, a, b)
            assert pab <= min(pa, pb) + 1e-15
            assert pab >= pa * pb - 1e-15


class TestExactBoundTerms:
    def test_unit_weights_four_vertices(self):
        wv = WeightVector.from_values([1.0] * 4)
        terms = exact_bound_terms(wv, 3)
        assert terms.b1 == pytest.approx(16 / 125 ** 2, rel=1e-12)   # 1.024e-3
        assert terms.b2 == pytest.approx(12 / 5 ** 5, rel=1e-12)     # 3.84e-3

    @pytest.mark.parametrize("n,k,seed", [(5, 3, 0), (6, 3, 1), (6, 4, 2),
                                          (7, 3, 3), (7, 4, 4), (7, 5, 5),
                                          (8, 4, 6)])
    def test_matches_exhaustive_oracle(self, n, k, seed):
        wv = sample_weights(WeightSpec.pareto_shifted(9.5, 10, 1), n, seed)
        b1_oracle, b2_oracle = oracle_bound_terms(wv, k)
        terms = exact_bound_terms(wv, k, method="candidates")
        assert terms.b1 == pytest.approx(b1_oracle, rel=1e-10)
        assert terms.b2 == pytest.approx(b2_oracle, rel=1e-10)
        if k == 3:
            dense = exact_bound_terms(wv, k, method="dense")
            assert dense.b1 == pytest.approx(b1_oracle, rel=1e-10)
            assert dense.b2 == pytest.approx(b2_oracle, rel=1e-10)

    def test_er_closed_form(self):
        # constant weights n*lam/(n-lam): p = lam/n exactly, so
        # b1 = |I|(3n-8)p^6, b2 = |I| 3(n-3) p^5
        for n, lam in ((10, 2.0), (20, 6.0)):
            wv = WeightVector.from_values(np.full(n, n * lam / (n - lam)))
            i3 = candidate_count(n, 3)
            p = lam / n
            for method in ("auto", "candidates"):
                terms = exact_bound_terms(wv, 3, method=method)
                assert terms.b1 == pytest.approx(i3 * (3 * n - 8) * p ** 6,
                                                 rel=1e-10)
                assert terms.b2 == pytest.approx(i3 * 3 * (n - 3) * p ** 5,
                                                 rel=1e-10)

    def test_single_triangle_has_exactly_zero_b2(self):
        wv = WeightVector.from_values([0.7, 2.0, 5.3])
        assert exact_bound_terms(wv, 3, method="candidates").b2 == 0.0

    def test_edge_set_key_overflow_raises(self):
        # 2**16 edges: keys of four base-2**16 digits would need 64 bits
        with pytest.raises(ValueError, match="overflow int64"):
            _bound_terms(np.arange(4).reshape(1, 4), np.array([0.5 ** 4]),
                         np.full(2 ** 16, 0.5))

    def test_candidates_match_dense_on_heavy_tail(self):
        wv = sample_weights(WeightSpec.pareto_shifted(2.5, 1, 0.5), 25, seed=4)
        dense = exact_bound_terms(wv, 3, method="dense")
        cands = exact_bound_terms(wv, 3, method="candidates")
        assert cands.b1 == pytest.approx(dense.b1, rel=1e-10)
        assert cands.b2 == pytest.approx(dense.b2, rel=1e-10)

    @pytest.mark.parametrize("shape", [9.5, 2.5])
    def test_dense_halves_match_three_array_formula(self, shape):
        wv = sample_weights(WeightSpec.pareto_shifted(shape, 10, 1), 60, 3)
        prod = np.outer(wv.values, wv.values)
        P = prod / (wv.total + prod)
        np.fill_diagonal(P, 0.0)
        Q = P * P
        S = P @ P
        Q2 = Q @ Q
        b1 = float(((P * S) ** 2).sum()) / 2 - float((Q * Q2).sum()) / 3
        b2 = float((P * (S * S - Q2)).sum()) / 2
        terms = exact_bound_terms(wv, 3, method="dense")
        assert terms.b1 == pytest.approx(b1, rel=1e-12)
        assert terms.b2 == pytest.approx(b2, rel=1e-12)
        assert conditional_rate_exact(wv, 3) == pytest.approx(
            float((P * S).sum()) / 6, rel=1e-12)

    def test_monotone_in_weights(self):
        small = WeightVector.from_values([0.5] * 6)
        large = WeightVector.from_values([1.5] * 6)
        ts = exact_bound_terms(small, 3)
        tl = exact_bound_terms(large, 3)
        assert ts.b1 < tl.b1 and ts.b2 < tl.b2

    def test_cap_enforced(self):
        wv = WeightVector.from_values(np.ones(30))
        with pytest.raises(CandidateCapError):
            exact_bound_terms(wv, 5, cap=100, method="candidates")


class TestConditionalRate:
    def test_unit_weights_four_vertices(self):
        wv = WeightVector.from_values([1.0] * 4)
        assert conditional_rate_exact(wv, 3) == pytest.approx(4 / 125, rel=1e-12)

    def test_er_candidates_equiprobable(self):
        n, lam, k = 10, 2.0, 4
        wv = WeightVector.from_values(np.full(n, n * lam / (n - lam)))
        expected = candidate_count(n, k) * (lam / n) ** k
        assert conditional_rate_exact(wv, k) == pytest.approx(expected, rel=1e-10)

    def test_fewer_vertices_than_k(self):
        wv = WeightVector.from_values([1.0, 2.0])
        assert conditional_rate_exact(wv, 4) == 0.0

    def test_matches_ordered_tuple_sum(self):
        # independent oracle: sum over all ordered k-tuples, divided by 2k
        wv = sample_weights(WeightSpec.pareto_shifted(9.5, 10, 1), 7, seed=9)
        k = 3
        total = 0.0
        for tup in permutations(range(7), k):
            total += cycle_probability(wv, tup)
        assert conditional_rate_exact(wv, k) == pytest.approx(
            total / (2 * k), rel=1e-10)

    def test_plugin_values(self):
        wv = WeightVector.from_values([1.0] * 4)
        assert conditional_rate_plugin(wv, 3) == pytest.approx(1 / 6, rel=1e-12)
        s = 2.5
        wvc = WeightVector.from_values(np.full(9, s))
        assert conditional_rate_plugin(wvc, 4) == pytest.approx(s ** 4 / 8,
                                                                rel=1e-12)

    def test_plugin_dominates_exact(self):
        rng = np.random.default_rng(12)
        for trial in range(100):
            n = int(rng.integers(3, 13))
            wv = sample_weights(WeightSpec.pareto_shifted(6.0, 2, 0.1), n, trial)
            assert conditional_rate_plugin(wv, 3) >= \
                conditional_rate_exact(wv, 3) - 1e-12


class TestBoundReport:
    def test_exact_mode_constant_weights(self):
        report, rows = bound_report(WeightSpec.constant(1.0), 4, 3,
                                    replications=3, seed=0)
        assert report.mode == "exact"
        assert report.b1 == pytest.approx(1.024e-3, rel=1e-10)
        assert report.b2 == pytest.approx(3.84e-3, rel=1e-10)
        assert report.conditional_mean == pytest.approx(0.032, rel=1e-10)
        assert len(rows) == 3
        assert report.rhs == pytest.approx(
            report.b1 + report.b2 + report.gap, rel=1e-12)

    def test_single_candidate_has_empty_b2(self):
        report, _ = bound_report(WeightSpec.constant(2.0), 3, 3,
                                 replications=1, seed=0)
        assert report.b2 == 0.0

    def test_plugin_rate_mode(self):
        report, rows = bound_report(WeightSpec.constant(1.0), 9, 4,
                                    replications=2, seed=1,
                                    rate_mode="plugin")
        assert report.mode == "plugin"
        # constant unit weights: plug-in rate is 1/(2k)
        assert report.conditional_mean == pytest.approx(1 / 8, rel=1e-12)
        assert report.b1 > 0 and report.b2 > 0   # terms stay exact

    def test_bound_terms_beyond_cap_raise(self):
        with pytest.raises(CandidateCapError):
            bound_report(WeightSpec.constant(1.0), 12, 4, replications=1,
                         seed=0, cap=5)

    @pytest.mark.parametrize("n,k,rate_mode", [(12, 3, "auto"),
                                               (12, 3, "plugin"),
                                               (7, 4, "auto")])
    def test_workers_do_not_change_report(self, n, k, rate_mode):
        spec = WeightSpec.pareto_shifted(9.5, 10, 1)
        one = bound_report(spec, n, k, 3, seed=5, rate_mode=rate_mode)
        two = bound_report(spec, n, k, 3, seed=5, rate_mode=rate_mode,
                           workers=2)
        assert repr(one) == repr(two)

    def test_deterministic(self):
        spec = WeightSpec.pareto_shifted(9.5, 10, 1)
        r1, rows1 = bound_report(spec, 12, 3, replications=4, seed=77)
        r2, rows2 = bound_report(spec, 12, 3, replications=4, seed=77)
        assert r1 == r2
        assert rows1 == rows2
