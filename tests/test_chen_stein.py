"""Dependency neighborhoods and the exact bound terms.

The oracle for b1/b2 is a literal double loop over all candidate cycles
using ``neighborhood`` and ``pair_probability``, evaluated before checking
the array kernels and the dense matrix path against it.  The power-series
kernel is checked against the dense path, and its rate at a size the dense
path cannot reach against the second-order expansion of the gap to the
plug-in rate.
"""

import re
import weakref
from fractions import Fraction
from functools import partial
from itertools import permutations, product

import numpy as np
import pytest

from grgcycles import chen_stein
from grgcycles.chen_stein import (BoundTerms, bound_report,
                                  conditional_rate_exact,
                                  conditional_rate_plugin, exact_bound_terms,
                                  _bound_terms, _dense_terms, _edge_forms,
                                  _series_length)
from grgcycles.cycles import CandidateCapError, candidate_count
from grgcycles.graphs import GrgGraph
from grgcycles.weights import (WeightSpec, WeightVector, moment,
                               sample_weights)
from oracles import (cycle_probability, enumerate_cycles, neighborhood,
                     pair_probability)


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
        # k = 5 at n = 21: 244,188 candidates, past the fixed cap
        wv = WeightVector.from_values(np.ones(21))
        with pytest.raises(CandidateCapError, match="244188 candidate"):
            exact_bound_terms(wv, 5, method="candidates")

    @pytest.mark.parametrize("n,k,method", [
        (2, 3, "auto"), (2, 3, "candidates"), (2, 3, "dense"),
        (2, 4, "auto"), (3, 4, "candidates"), (4, 5, "auto"),
    ])
    def test_fewer_vertices_than_k_give_zeros(self, n, k, method):
        wv = WeightVector.from_values(np.arange(1.0, n + 1))
        terms = exact_bound_terms(wv, k, method=method)
        assert terms == BoundTerms(0.0, 0.0, 0.0)
        assert conditional_rate_exact(wv, k) == terms.conditional_mean

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_k_below_three_rejected_at_any_size(self, n):
        wv = WeightVector.from_values(np.ones(n))
        for method in ("auto", "candidates"):
            with pytest.raises(ValueError, match="at least 3"):
                exact_bound_terms(wv, 2, method=method)
        with pytest.raises(ValueError, match="at least 3"):
            conditional_rate_exact(wv, 2)


def pareto_weights(shape, n):
    return sample_weights(WeightSpec.pareto_shifted(shape, 10, 1), n, 1)


def constant_weights(n, a):
    """n equal weights with a = w / sqrt(total) = sqrt(w / n)."""
    return WeightVector.from_values(np.full(n, n * a * a))


def er_weights(n, lam=6.0):
    """Criterion 5's calibration: every edge probability is lam / n."""
    return WeightVector.from_values(np.full(n, n * lam / (n - lam)))


SERIES_CASES = {
    **{f"pareto{shape}-n{n}": partial(pareto_weights, shape, n)
       for shape in (9.5, 3.5, 2.5, 1.5) for n in (25, 250, 2000)},
    **{f"two_point-n{n}": partial(sample_weights,
                                  WeightSpec.two_point(1, 2, 0.5), n, 2)
       for n in (25, 250)},
    "light_a0.499-n25": partial(constant_weights, 25, 0.499),
    "heavy_a0.501-n25": partial(constant_weights, 25, 0.501),
    "er-n10": partial(er_weights, 10),
    "er-n20": partial(er_weights, 20),
}


class TestSeriesKernel:
    @pytest.mark.parametrize("case", list(SERIES_CASES))
    def test_matches_dense_oracle(self, case):
        wv = SERIES_CASES[case]()
        terms = exact_bound_terms(wv, 3)
        series = (conditional_rate_exact(wv, 3), terms.b1, terms.b2)
        assert series == pytest.approx(_dense_terms(wv), rel=1e-12, abs=0)

    @pytest.mark.parametrize("shape", [9.5, 2.5])
    @pytest.mark.parametrize("n", [25, 250, 2000])
    def test_terms_carry_the_exact_conditional_mean(self, shape, n):
        wv = pareto_weights(shape, n)
        assert exact_bound_terms(wv, 3).conditional_mean == pytest.approx(
            conditional_rate_exact(wv, 3), rel=1e-14, abs=0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_at_most_one_triangle(self, n):
        # a lone triangle has b1 = its probability squared and b2 = 0
        # exactly; the dense path's b2 at n = 3 is rounding (about 2e-16)
        wv = pareto_weights(2.5, n)
        rate = conditional_rate_exact(wv, 3)
        terms = exact_bound_terms(wv, 3)
        assert rate == pytest.approx(_dense_terms(wv)[0], rel=1e-12, abs=0)
        assert terms.b1 == pytest.approx(rate ** 2, rel=1e-12, abs=0)
        assert terms.b2 == 0.0

    @pytest.mark.parametrize("case,low,high", [
        ("light_a0.499-n25", 0, 0), ("heavy_a0.501-n25", 25, 25),
        ("er-n10", 10, 10), ("er-n20", 20, 20),
        # heavy tails take the split: some vertices exact, the rest light
        ("pareto2.5-n250", 1, 249), ("pareto2.5-n2000", 1, 1999),
        ("pareto1.5-n250", 1, 249), ("pareto1.5-n2000", 1, 1999),
    ])
    def test_heavy_vertex_count(self, case, low, high):
        heavy, _ = _edge_forms(SERIES_CASES[case](), (1,))
        assert low <= heavy.size <= high

    @pytest.mark.parametrize("x", [0.0, 1e-6, 1e-3, 0.02, 0.1, 0.2, 0.2499,
                                   0.25])
    def test_series_length_meets_tail_bound(self, x):
        def tail(r):
            return r * x ** (r - 1) * (1 + x) ** 2

        terms = _series_length(x)
        assert tail(terms) <= 2.0 ** -53
        assert terms == 2 or tail(terms - 1) > 2.0 ** -53
        assert terms <= 31
        # the truncated series of P and P * P, exactly, within the bound
        fx = Fraction(x)
        p = sum((-1) ** (m + 1) * fx ** m for m in range(1, terms + 1))
        q = sum((-1) ** m * (m - 1) * fx ** m for m in range(2, terms + 1))
        if x:
            assert abs(p - fx / (1 + fx)) <= Fraction(2) ** -53 * fx / (1 + fx)
            assert (abs(q - (fx / (1 + fx)) ** 2)
                    <= Fraction(2) ** -53 * (fx / (1 + fx)) ** 2)

    @pytest.mark.parametrize("case", ["pareto9.5-n250", "pareto2.5-n250",
                                      "light_a0.499-n25"])
    def test_length_follows_largest_light_pair(self, case):
        wv = SERIES_CASES[case]()
        heavy, (form,) = _edge_forms(wv, (1,))
        a = np.delete(wv.values / np.sqrt(wv.total), heavy)
        assert form.coef.size == _series_length(float(a.max()) ** 2)

    def test_two_point_rate_matches_rational_sum(self):
        # two weight values: tr(P**3) over the 8 ordered type triples, in
        # exact rational arithmetic, at a size where the dense path's own
        # float sums are off by about 1e-12
        wv = sample_weights(WeightSpec.two_point(1, 2, 0.5), 2000, 3)
        counts = {v: int((wv.values == v).sum()) for v in (1.0, 2.0)}
        total = sum(Fraction(v) * c for v, c in counts.items())
        p = {(u, v): Fraction(u * v) / (total + Fraction(u * v))
             for u in counts for v in counts}
        trace = Fraction(0)
        for t in product(counts, repeat=3):
            left = dict(counts)
            ways = 1
            for v in t:
                ways *= left[v]
                left[v] -= 1
            trace += ways * p[t[0], t[1]] * p[t[1], t[2]] * p[t[2], t[0]]
        assert conditional_rate_exact(wv, 3) == pytest.approx(
            float(trace / 6), rel=1e-13)

    @pytest.mark.parametrize("spec,expected,tol", [
        (WeightSpec.pareto_shifted(9.5, 10, 1), 41.72, 0.19),
        (WeightSpec.two_point(1, 2, 0.5), 10.56, 0.021),
    ])
    def test_rate_gap_at_n_32000(self, spec, expected, tol):
        # n (1 - lambda_W / plug-in) -> c = 3 [EW^4 + (EW^3)^2 / EW] / (EW^2)^2;
        # the dense path would need 8 GB at this n.  tol is over 5 SE of the
        # mean of three draws (per-draw sd 0.065 and 0.007 over 30 draws)
        m1, m2, m3, m4 = (moment(spec, q) for q in (1, 2, 3, 4))
        c = 3 * (m4 + m3 ** 2 / m1) / m2 ** 2
        assert c == pytest.approx(expected, abs=5e-3)
        n = 32_000
        gaps = []
        for seed in range(3):
            wv = sample_weights(spec, n, seed)
            gaps.append(n * (1 - conditional_rate_exact(wv, 3)
                             / conditional_rate_plugin(wv, 3)))
        assert abs(np.mean(gaps) - c) <= tol


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

    def test_bound_terms_beyond_cap_raise(self):
        with pytest.raises(CandidateCapError, match="244188 candidate"):
            bound_report(WeightSpec.constant(1.0), 21, 5, replications=1,
                         seed=0)

    @pytest.mark.parametrize("k,n", [(3, 12), (4, 7)])
    def test_report_means_the_replication_terms(self, k, n):
        spec = WeightSpec.pareto_shifted(9.5, 10, 1)
        report, terms = bound_report(spec, n, k, replications=3, seed=4)
        assert [type(row) for row in terms] == [BoundTerms] * 3
        for field in BoundTerms._fields:
            assert getattr(report, field) == float(
                np.mean([getattr(row, field) for row in terms]))
        draw = sample_weights(spec, n, chen_stein.replication_seed(4, 2, 0))
        assert terms[2] == exact_bound_terms(draw, k)

    def test_deterministic(self):
        spec = WeightSpec.pareto_shifted(9.5, 10, 1)
        r1, rows1 = bound_report(spec, 12, 3, replications=4, seed=77)
        r2, rows2 = bound_report(spec, 12, 3, replications=4, seed=77)
        assert r1 == r2
        assert rows1 == rows2

    @pytest.mark.parametrize("k,n", [(3, 12), (4, 7)])
    def test_weights_drawn_once_per_replication(self, monkeypatch, k, n):
        calls = []

        def counting(*args):
            calls.append(args)
            return sample_weights(*args)

        monkeypatch.setattr(chen_stein, "sample_weights", counting)
        bound_report(WeightSpec.pareto_shifted(9.5, 10, 1), n, k,
                     replications=3, seed=5)
        assert len(calls) == 3

    @pytest.mark.parametrize("k,n", [(3, 250), (4, 7)])
    def test_one_weight_vector_at_a_time(self, monkeypatch, k, n):
        """Draws and terms alternate, and each replication's weights are
        freed before the next replication draws."""
        calls = []
        drawn = []

        def drawing(*args):
            assert [ref() for ref in drawn] == [None] * len(drawn)
            weights = sample_weights(*args)
            drawn.append(weakref.ref(weights))
            calls.append("draw")
            return weights

        def terms(weights, k):
            assert weights is drawn[-1]()
            calls.append("terms")
            return exact_bound_terms(weights, k)

        monkeypatch.setattr(chen_stein, "sample_weights", drawing)
        monkeypatch.setattr(chen_stein, "exact_bound_terms", terms)
        bound_report(WeightSpec.pareto_shifted(9.5, 10, 1), n, k,
                     replications=4, seed=5)
        assert calls == ["draw", "terms"] * 4

    @pytest.mark.parametrize("k", [3, 4])
    def test_fewer_vertices_than_k_give_zeros(self, k):
        report, terms = bound_report(WeightSpec.constant(1.0), 2, k,
                                     replications=2, seed=0)
        assert terms == [BoundTerms(0.0, 0.0, 0.0)] * 2
        assert (report.b1, report.b2, report.conditional_mean) == (0, 0, 0)

    def test_bad_cap_fails_before_weights(self, monkeypatch):
        # k = 4 at n = 38: 221,445 candidates, past the fixed cap
        monkeypatch.setattr(chen_stein, "sample_weights", None)
        with pytest.raises(CandidateCapError, match=re.escape(
                "221445 candidate 4-cycles on n=38 exceed the cap of 200000 "
                "(k = 3 bound terms need no candidates)")):
            bound_report(WeightSpec.constant(1.0), 38, 4, 1, 0)


UNIT = WeightVector.from_values(np.ones(6))


@pytest.mark.parametrize("call,match", [
    (lambda: bound_report(WeightSpec.constant(1.0), 6, 3, 0, 0),
     "replications must be at least 1"),
    (lambda: exact_bound_terms(UNIT, 3, method="both"),
     "unknown method 'both'"),
    (lambda: exact_bound_terms(UNIT, 4, method="dense"),
     "the dense path only covers k = 3"),
    (lambda: neighborhood((0, 1, 2, 3), 3, 6), "alpha does not have length k"),
    (lambda: neighborhood((0, 1, 6), 3, 6), r"alpha vertex outside 0\.\.n-1"),
], ids=["replications", "method", "dense_k4", "alpha_length",
        "alpha_vertex"])
def test_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()
