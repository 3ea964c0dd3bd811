"""Ratio statistics, exact oracles, Monte Carlo estimators, rate fits."""

import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from grgcycles.ratios import (RegimeWarning, TailBoundCheck, check_lower_tail,
                              estimate_r_moment, estimate_t_moment,
                              exact_t_moment, exact_t_moment_bruteforce,
                              lower_tail_bound, r_statistic, rate_fit,
                              t_statistic)
from grgcycles.weights import InfiniteMomentError, WeightSpec, draw

TWO_POINT = WeightSpec.two_point(1, 2, 0.5)

positive_lists = st.lists(st.floats(0.01, 100), min_size=1, max_size=30)


def binomial_lower_tail(n, cutoff):
    """Exact P(Binomial(n, 1/2) <= cutoff) as a Fraction."""
    return Fraction(sum(comb(n, j) for j in range(cutoff + 1)), 2 ** n)


class TestStatistics:
    def test_t_values(self):
        assert t_statistic([3.0] * 7) == pytest.approx(3.0)
        assert t_statistic([1, 2]) == pytest.approx(5 / 3)
        assert t_statistic([4.2]) == pytest.approx(4.2)

    def test_r_values(self):
        n = 16
        assert r_statistic([1.0] * n, 2) == pytest.approx(1 / n, rel=1e-12)
        assert r_statistic([1, 2], 2) == pytest.approx(100 / 27, rel=1e-12)
        assert r_statistic([3.0], 2) == pytest.approx(27.0, rel=1e-12)

    def test_input_validation(self):
        for bad in ([], [1.0, 0.0], [-1.0]):
            with pytest.raises(ValueError):
                t_statistic(bad)
        with pytest.raises(ValueError):
            r_statistic([1.0, 2.0], 1)

    @given(positive_lists)
    @settings(max_examples=80, deadline=None)
    def test_t_between_min_and_max(self, xs):
        t = t_statistic(xs)
        assert min(xs) - 1e-9 <= t <= max(xs) + 1e-9

    @given(positive_lists, st.floats(0.1, 10))
    @settings(max_examples=50, deadline=None)
    def test_scale_equivariance(self, xs, c):
        assert t_statistic([c * x for x in xs]) == pytest.approx(
            c * t_statistic(xs), rel=1e-9)
        assert r_statistic([c * x for x in xs], 2) == pytest.approx(
            c ** 3 * r_statistic(xs, 2), rel=1e-9)

    @given(positive_lists, st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, xs, rnd):
        shuffled = list(xs)
        rnd.shuffle(shuffled)
        assert t_statistic(shuffled) == pytest.approx(t_statistic(xs), rel=1e-12)
        assert r_statistic(shuffled, 3) == pytest.approx(r_statistic(xs, 3),
                                                         rel=1e-12)


class TestExactMoment:
    def test_enumerated_value_two_draws(self):
        # four equally likely outcomes: T in {1, 5/3, 5/3, 2}
        expected = Fraction(1, 4) * 1 + Fraction(1, 2) * Fraction(25, 9) \
            + Fraction(1, 4) * 4
        assert expected == Fraction(95, 36)
        assert exact_t_moment(TWO_POINT, 2, 2) == pytest.approx(float(expected),
                                                                rel=1e-14)

    def test_limit_value(self):
        # ratio of moments: 2.5/1.5, squared
        assert (2.5 / 1.5) ** 2 == pytest.approx(25 / 9)
        big = exact_t_moment(TWO_POINT, 4096, 2)
        assert big == pytest.approx(25 / 9, abs=1e-4)

    def test_constant_law(self):
        assert exact_t_moment(WeightSpec.constant(3.0), 17, 2) == 9.0

    def test_matches_bruteforce_oracle(self):
        for n in (2, 5, 10):
            for p in (2, 3):
                assert exact_t_moment(TWO_POINT, n, p) == pytest.approx(
                    exact_t_moment_bruteforce(TWO_POINT, n, p), rel=1e-12)

    def test_bruteforce_guard(self):
        with pytest.raises(ValueError):
            exact_t_moment_bruteforce(TWO_POINT, 13, 2)

    def test_family_guard(self):
        with pytest.raises(ValueError):
            exact_t_moment(WeightSpec.pareto_shifted(9.5, 10, 1), 4, 2)


class TestMonteCarloT:
    def test_matches_exact_within_tolerance(self):
        for n in (2, 5, 10):
            est = estimate_t_moment(TWO_POINT, n, 2, 20_000,
                                    np.random.SeedSequence(5, spawn_key=(n,)))
            exact = exact_t_moment(TWO_POINT, n, 2)
            assert abs(est.value - exact) <= 4 * est.std_error

    def test_constant_law_zero_variance(self):
        est = estimate_t_moment(WeightSpec.constant(2.0), 6, 2, 1000, seed=0)
        assert est.value == pytest.approx(4.0, rel=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-9)

    def test_pareto_estimates_approach_limit(self):
        spec = WeightSpec.pareto_shifted(9.5, 10, 1)
        limit = (150.019607843137 / 12.176470588235) ** 2
        small = estimate_t_moment(spec, 100, 2, 40_000, seed=21)
        large = estimate_t_moment(spec, 1600, 2, 40_000, seed=22)
        err_small = abs(small.value - limit)
        err_large = abs(large.value - limit)
        assert err_large < err_small
        assert err_large <= max(4 * large.std_error, 0.05)

    def test_replication_floor(self):
        with pytest.raises(ValueError):
            estimate_t_moment(TWO_POINT, 4, 2, 10, seed=0)

    def test_infinite_second_moment_rejected(self):
        with pytest.raises(InfiniteMomentError):
            estimate_t_moment(WeightSpec.pareto_shifted(1.5, 1, 0), 4, 2,
                              1000, seed=0)

    def test_chunking_invariant(self, monkeypatch):
        import grgcycles.ratios as ratios
        full = estimate_t_moment(TWO_POINT, 64, 2, 5000, seed=9)
        monkeypatch.setattr(ratios, "_CHUNK_BUDGET", 640)   # ten tiny chunks
        chunked = estimate_t_moment(TWO_POINT, 64, 2, 5000, seed=9)
        assert chunked.value == pytest.approx(full.value, rel=1e-12)


FAMILIES = [WeightSpec.constant(2.0), WeightSpec.pareto_shifted(3.5, 2, 1),
            TWO_POINT, WeightSpec.empirical([1, 2, 5], [0.2, 0.5, 0.3])]


class TestChunkedStreams:
    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.family)
    def test_advanced_chunks_equal_one_sequential_generator(self, spec):
        n, sizes = 7, (3, 5, 1, 4)
        rng = np.random.default_rng(np.random.SeedSequence(8))
        sequential = [draw(spec, rng, (size, n)) for size in sizes]
        start = 0
        for size, want in zip(sizes, sequential):
            chunk_rng = np.random.default_rng(np.random.SeedSequence(8))
            chunk_rng.bit_generator.advance(start * n)
            assert np.array_equal(draw(spec, chunk_rng, (size, n)), want)
            start += size

    @pytest.mark.parametrize("spec", FAMILIES[1:], ids=lambda s: s.family)
    def test_estimates_do_not_depend_on_workers(self, spec, monkeypatch):
        import grgcycles.ratios as ratios
        monkeypatch.setattr(ratios, "_CHUNK_BUDGET", 64 * 500)  # ten chunks
        seed = np.random.SeedSequence(6)
        one, two = (repr((estimate_t_moment(spec, 64, 2, 5000, seed, workers=w),
                          estimate_r_moment(spec, 64, 3, 5000, seed, workers=w)))
                    for w in (1, 2))
        assert one == two

    def test_generator_seed_rejected(self):
        with pytest.raises(TypeError, match="SeedSequence"):
            estimate_t_moment(TWO_POINT, 8, 2, 1000,
                              np.random.default_rng(0))


class TestMonteCarloR:
    def test_constant_law_exact(self):
        for n in (16, 64):
            est = estimate_r_moment(WeightSpec.constant(1.0), n, 3, 1000, seed=0)
            assert est.value == pytest.approx(1 / n, rel=1e-12)
            assert est.std_error == pytest.approx(0.0, abs=1e-12)

    def test_regime_warnings(self):
        heavy = WeightSpec.pareto_shifted(4.0, 1, 0)
        with pytest.warns(RegimeWarning):
            estimate_r_moment(heavy, 8, 2, 1000, seed=0, regime="sqrt")
        with pytest.warns(RegimeWarning):
            estimate_r_moment(heavy, 8, 2, 1000, seed=0, regime="log")
        with pytest.warns(RegimeWarning):
            estimate_r_moment(TWO_POINT, 8, 2, 1000, seed=0, regime="poly")

    def test_valid_regimes_silent(self):
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("error", RegimeWarning)
            estimate_r_moment(TWO_POINT, 8, 2, 1000, seed=0, regime="sqrt")
            estimate_r_moment(TWO_POINT, 8, 2, 1000, seed=0, regime="log")
            estimate_r_moment(WeightSpec.pareto_shifted(6.0, 1, 0), 8, 2,
                              1000, seed=0, regime="sqrt")

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            estimate_r_moment(TWO_POINT, 8, 2, 1000, seed=0, regime="warp")


class TestLowerTailBound:
    def test_reference_point(self):
        assert lower_tail_bound(0.5, 1.0, 1.0, 16) == pytest.approx(
            math.exp(-1), rel=1e-12)

    def test_doubled_bernoulli_certificate(self):
        # terms 2*Bernoulli(1/2): mean 1, variance 1, so the sum of n terms
        # is normalized; the exact tail is a binomial sum
        exact = binomial_lower_tail(16, 8 // 2)
        assert exact == Fraction(2517, 65536)
        assert float(exact) <= lower_tail_bound(0.5, 1.0, 1.0, 16)

    def test_certificate_grid(self):
        for n in (8, 16, 32, 64):
            for lam in (0.25, 0.5, 0.75):
                cutoff = math.floor(lam * n / 2)
                exact = float(binomial_lower_tail(n, cutoff))
                check = check_lower_tail(lam, 1.0, 1.0, n, exact)
                assert check.holds
                assert check.bound_value == lower_tail_bound(lam, 1.0, 1.0, n)

    def test_check_rejects_degenerate_bound(self):
        with pytest.raises(ValueError):
            TailBoundCheck(lambda_frac=0.5, n=4, bound_value=1.5,
                           probability=0.1)

    def test_limit_toward_one(self):
        assert lower_tail_bound(0.999999, 1.0, 1.0, 100) > 0.999

    def test_domain(self):
        for lam in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                lower_tail_bound(lam, 1.0, 1.0, 10)
        with pytest.raises(ValueError):
            lower_tail_bound(0.5, -1.0, 1.0, 10)


class TestRateFit:
    def test_exact_power_laws(self):
        ns = [10, 20, 40, 80, 160]
        fit1 = rate_fit([(n, 3.7 / n) for n in ns])
        assert fit1.slope == pytest.approx(-1.0, abs=1e-9)
        assert fit1.r_squared == pytest.approx(1.0, abs=1e-12)
        fit2 = rate_fit([(n, 0.2 / math.sqrt(n)) for n in ns])
        assert fit2.slope == pytest.approx(-0.5, abs=1e-9)

    def test_constant_r_statistic_identity(self):
        ns = [64, 128, 256, 512, 1024]
        points = [(n, r_statistic([1.0] * n, 3)) for n in ns]
        fit = rate_fit(points)
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)

    def test_nonpositive_errors_excluded(self):
        fit = rate_fit([(10, 1.0), (20, 0.5), (40, 0.25), (80, 0.125),
                        (160, 0.0), (320, -1.0)])
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)
        assert len(fit.excluded) == 2

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            rate_fit([(10, 1.0), (20, 0.5), (40, 0.25)])
        with pytest.raises(ValueError):
            rate_fit([(10, 1.0), (20, 0.5), (40, 0.25), (80, 0.0)])
