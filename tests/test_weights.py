"""Weight family construction, sampling, and closed-form moments."""

import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from grgcycles.weights import (InfiniteMomentError, MomentSummary,
                               WeightSpec, WeightSpecError, WeightVector,
                               analytic_moments, draw, moment, sample_weights,
                               tail_condition_holds)


def pareto_affine_moments(shape, scale, loc):
    """Independent oracle: moments of scale*Y + loc for unit-minimum Pareto.

    E Y^q = shape / (shape - q); affine transform expanded by hand for the
    first two orders.
    """
    a = Fraction(shape)
    s = Fraction(scale)
    c = Fraction(loc)
    ey = a / (a - 1)
    ey2 = a / (a - 2)
    mean = s * ey + c
    second = s * s * ey2 + 2 * s * c * ey + c * c
    return float(mean), float(second)


class TestSpecValidation:
    def test_families(self):
        WeightSpec.constant(2.0)
        WeightSpec.pareto_shifted(9.5, 10, 1)
        WeightSpec.two_point(1, 2, 0.5)
        WeightSpec.empirical([1, 2, 3], [0.2, 0.3, 0.5])

    @pytest.mark.parametrize("bad", [
        lambda: WeightSpec.constant(0.0),
        lambda: WeightSpec.constant(-1.0),
        lambda: WeightSpec.pareto_shifted(0, 10, 1),
        lambda: WeightSpec.pareto_shifted(9.5, 0, 1),
        lambda: WeightSpec.pareto_shifted(9.5, 10, -0.5),
        lambda: WeightSpec.two_point(1, 1, 0.5),
        lambda: WeightSpec.two_point(-1, 2, 0.5),
        lambda: WeightSpec.two_point(1, 2, 0.0),
        lambda: WeightSpec.two_point(1, 2, 1.0),
        lambda: WeightSpec.empirical([], []),
        lambda: WeightSpec.empirical([1, -2], [0.5, 0.5]),
        lambda: WeightSpec("nonsense"),
    ])
    def test_invalid_specs(self, bad):
        with pytest.raises(WeightSpecError):
            bad()

    def test_empirical_renormalizes(self):
        spec = WeightSpec.empirical([1, 2], [2, 6])
        assert spec.probs == (0.25, 0.75)
        assert abs(sum(spec.probs) - 1.0) <= 1e-12

    @pytest.mark.parametrize("spec", [
        WeightSpec.constant(3.5),
        WeightSpec.pareto_shifted(9.5, 10, 1),
        WeightSpec.two_point(1, 2, 0.5),
        WeightSpec.empirical([1, 2, 3], [0.2, 0.3, 0.5]),
    ])
    def test_mapping_roundtrip(self, spec):
        assert WeightSpec.from_mapping(spec.to_mapping()) == spec

    def test_from_mapping_rejects_unknown(self):
        with pytest.raises(WeightSpecError):
            WeightSpec.from_mapping({"family": "cauchy"})
        with pytest.raises(WeightSpecError):
            WeightSpec.from_mapping({})


class TestSampling:
    def test_constant_degenerate(self):
        wv = sample_weights(WeightSpec.constant(2.0), 3, seed=0)
        assert wv.values.tolist() == [2.0, 2.0, 2.0]
        assert wv.total == 6.0

    def test_pareto_support_floor(self):
        # Pareto support starts at 1, so scale*1 + loc is a hard floor
        wv = sample_weights(WeightSpec.pareto_shifted(9.5, 10, 1), 5000, seed=1)
        assert np.all(wv.values >= 11.0)

    def test_pareto_sample_mean(self):
        mean, _ = pareto_affine_moments(9.5, 10, 1)
        wv = sample_weights(WeightSpec.pareto_shifted(9.5, 10, 1), 10**5, seed=7)
        se = wv.values.std(ddof=1) / np.sqrt(wv.values.size)
        assert abs(wv.values.mean() - mean) < 3 * se

    def test_bitwise_reproducible(self):
        spec = WeightSpec.pareto_shifted(9.5, 10, 1)
        a = sample_weights(spec, 1000, seed=123)
        b = sample_weights(spec, 1000, seed=123)
        c = sample_weights(spec, 1000, seed=124)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_weights(WeightSpec.constant(1.0), 0, seed=0)

    @pytest.mark.parametrize("spec", [
        WeightSpec.constant(0.25),
        WeightSpec.pareto_shifted(2.5, 1, 0),
        WeightSpec.two_point(0.5, 4, 0.9),
        WeightSpec.empirical([0.1, 5], [0.5, 0.5]),
    ])
    def test_strict_positivity(self, spec):
        wv = sample_weights(spec, 4000, seed=11)
        assert np.all(wv.values > 0)

    @pytest.mark.parametrize("spec", [
        WeightSpec.constant(2.0),
        WeightSpec.pareto_shifted(9.5, 10, 1),
        WeightSpec.two_point(1, 2, 0.5),
        WeightSpec.empirical([1, 2, 4], [0.5, 0.25, 0.25]),
    ])
    def test_monte_carlo_matches_analytic(self, spec):
        # spot check of both moments at 2e4 replications, 4 standard errors
        wv = sample_weights(spec, 20_000, seed=3)
        summary = analytic_moments(spec)
        x = wv.values
        for sample, target in ((x, summary.mean), (x * x, summary.second_moment)):
            se = sample.std(ddof=1) / np.sqrt(sample.size)
            assert abs(sample.mean() - target) <= 4 * se + 1e-12

    @given(x1=st.floats(0.1, 10), gap=st.floats(0.1, 5),
           p1=st.floats(0.05, 0.95), seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_two_point_support(self, x1, gap, p1, seed):
        spec = WeightSpec.two_point(x1, x1 + gap, p1)
        wv = sample_weights(spec, 200, seed)
        assert set(np.unique(wv.values)) <= {x1, x1 + gap}


    @pytest.mark.parametrize("x1,x2,p1", [(1, 2, 0.5), (0.1, 0.7, 0.3),
                                          (1e-300, 3e200, 0.9)])
    def test_two_point_draw_is_the_branchy_select(self, x1, x2, p1):
        spec = WeightSpec.two_point(x1, x2, p1)
        u = np.random.default_rng(11).random((64, 100))
        want = np.where(u < p1, spec.x1, spec.x2)
        got = draw(spec, np.random.default_rng(11), (64, 100))
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestWeightVector:
    def test_total_is_sum(self):
        wv = WeightVector.from_values([1.5, 2.5, 3.0])
        assert wv.total == pytest.approx(7.0, abs=1e-12)
        assert len(wv) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WeightVector.from_values([1.0, 0.0])


class TestMoments:
    def test_constant(self):
        summary = analytic_moments(WeightSpec.constant(3.0))
        assert (summary.mean, summary.second_moment, summary.ratio) == (3, 9, 3)

    def test_two_point(self):
        summary = analytic_moments(WeightSpec.two_point(1, 2, 0.5))
        assert summary.mean == pytest.approx(1.5)
        assert summary.second_moment == pytest.approx(2.5)
        assert summary.ratio == pytest.approx(5 / 3)

    def test_pareto_closed_form(self):
        mean, second = pareto_affine_moments(9.5, 10, 1)
        summary = analytic_moments(WeightSpec.pareto_shifted(9.5, 10, 1))
        assert summary.mean == pytest.approx(mean, rel=1e-14)
        assert summary.second_moment == pytest.approx(second, rel=1e-14)
        assert summary.ratio == pytest.approx(second / mean, rel=1e-14)

    def test_infinite_moment_is_error(self):
        with pytest.raises(InfiniteMomentError):
            analytic_moments(WeightSpec.pareto_shifted(1.5, 1, 0))
        with pytest.raises(InfiniteMomentError):
            moment(WeightSpec.pareto_shifted(4.0, 1, 0), 4)
        # shape exactly at the order also diverges
        with pytest.raises(InfiniteMomentError):
            moment(WeightSpec.pareto_shifted(4.0, 1, 0), 4)

    def test_finite_flags(self):
        summary = analytic_moments(WeightSpec.pareto_shifted(4.5, 1, 0),
                                   max_order=6)
        assert summary.finite == {1: True, 2: True, 3: True, 4: True,
                                  5: False, 6: False}

    def test_jensen_ordering(self):
        for spec in (WeightSpec.two_point(1, 9, 0.7),
                     WeightSpec.pareto_shifted(5.0, 2, 0.5)):
            summary = analytic_moments(spec)
            assert summary.ratio >= summary.mean

    def test_jensen_violation_rejected(self):
        with pytest.raises(ValueError, match="Jensen"):
            MomentSummary(mean=2.0, second_moment=3.0, ratio=1.5,
                          finite={1: True, 2: True})


class TestTailCondition:
    def test_pareto_thresholds(self):
        spec = WeightSpec.pareto_shifted(9.5, 10, 1)
        assert tail_condition_holds(spec, 3)       # 9.5 > 7
        assert not tail_condition_holds(spec, 5)   # 9.5 < 11
        # equality is an exact power tail, not a small-o bound
        assert not tail_condition_holds(WeightSpec.pareto_shifted(7.0, 1, 0), 3)

    def test_bounded_families_always_hold(self):
        for spec in (WeightSpec.constant(5.0), WeightSpec.two_point(1, 2, 0.5),
                     WeightSpec.empirical([1, 2], [0.5, 0.5])):
            for k in (3, 5, 9):
                assert tail_condition_holds(spec, k)

    def test_k_guard(self):
        with pytest.raises(ValueError):
            tail_condition_holds(WeightSpec.constant(1.0), 2)
