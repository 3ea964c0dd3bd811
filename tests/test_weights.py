"""Weight family construction, sampling, and closed-form moments."""

import math
import re

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


# one finite setting of each family's parameters
FINITE = {
    "constant": {"value": "2"},
    "pareto_shifted": {"shape": "9.5", "scale": "10", "loc": "1"},
    "two_point": {"x1": "1", "x2": "3", "p1": "0.25"},
    "empirical": {"values": "1,2", "probs": "0.5,0.5"},
}


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

    @pytest.mark.parametrize("family,key,text,shown", [
        ("constant", "value", "nan", "nan"),
        ("constant", "value", "inf", "inf"),
        ("pareto_shifted", "shape", "nan", "nan"),
        ("pareto_shifted", "shape", "inf", "inf"),
        ("pareto_shifted", "scale", "nan", "nan"),
        ("pareto_shifted", "scale", "inf", "inf"),
        ("pareto_shifted", "loc", "nan", "nan"),
        ("pareto_shifted", "loc", "inf", "inf"),
        ("two_point", "x1", "nan", "nan"),
        ("two_point", "x2", "inf", "inf"),
        ("two_point", "p1", "nan", "nan"),
        ("empirical", "values", "1,nan", "1.0,nan"),
        ("empirical", "values", "inf,2", "inf,2.0"),
        ("empirical", "probs", "nan,0.5", "nan,0.5"),
        ("empirical", "probs", "0.5,inf", "0.5,inf"),
    ])
    def test_non_finite_parameter_named(self, family, key, text, shown):
        # every range check compares false for nan, and inf passes a
        # positivity check: each is refused by name first
        mapping = {**FINITE[family], "family": family, key: text}
        message = f"{family} weights: {key} = {shown} is not finite"
        with pytest.raises(WeightSpecError, match=f"^{re.escape(message)}$"):
            WeightSpec.from_mapping(mapping)

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

    @pytest.mark.parametrize("mapping,match", [
        ({"family": "pareto_shifted", "shape": "9.5", "loc": "1"},
         "pareto_shifted weights need 'scale'"),
        ({"family": "pareto_shifted", "shape": "abc", "scale": "10",
          "loc": "1"},
         "pareto_shifted weights: shape = 'abc' is not a number"),
        ({"family": "constant"}, "constant weights need 'value'"),
        ({"family": "empirical", "values": "1,2"},
         "empirical weights need 'probs'"),
        ({"family": "empirical", "probs": "0.5,0.5"},
         "empirical weights need 'values'"),
        ({"family": "empirical", "values": "1,x", "probs": "0.5,0.5"},
         "empirical weights: values = '1,x' is not a comma separated list"),
        ({"family": "empirical", "values": "1,2", "probs": "half,0.5"},
         "empirical weights: probs = 'half,0.5' is not a comma separated"),
    ])
    def test_from_mapping_names_family_and_key(self, mapping, match):
        with pytest.raises(WeightSpecError, match=match):
            WeightSpec.from_mapping(mapping)


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


    @pytest.mark.parametrize("shape", [1.0, 2.0, 3.5, 9.5])
    def test_pareto_draw_is_the_inverse_transform(self, shape):
        spec = WeightSpec.pareto_shifted(shape, 10, 1)
        u = np.random.default_rng(12).random((64, 100))
        want = 10 * (1.0 - u) ** (-1.0 / shape) + 1
        got = draw(spec, np.random.default_rng(12), (64, 100))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("spec", [
        WeightSpec.constant(2.0), WeightSpec.pareto_shifted(3.5, 2, 1),
        WeightSpec.two_point(1, 2, 0.5),
        WeightSpec.empirical([1, 2, 5], [0.2, 0.5, 0.3])],
        ids=lambda spec: spec.family)
    @pytest.mark.parametrize("size", [17, (6, 50)], ids=["1d", "2d"])
    def test_draw_into_out_is_the_allocating_draw(self, spec, size):
        rng = np.random.default_rng(13)
        want = draw(spec, rng, size)
        rng_out = np.random.default_rng(13)
        buf = np.full(size, np.nan)
        got = draw(spec, rng_out, size, out=buf)
        assert got is buf
        assert got.tobytes() == want.tobytes()
        assert rng_out.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("buf", [np.empty(16), np.empty((17, 1)),
                                     np.empty(17, dtype=np.float32)],
                             ids=["short", "2d", "float32"])
    def test_draw_refuses_a_mismatched_out(self, buf):
        with pytest.raises(ValueError, match="^out must be a float64 array "
                           "of shape 17$"):
            draw(WeightSpec.constant(2.0), np.random.default_rng(0), 17,
                 out=buf)


class TestWeightVector:
    def test_total_is_sum(self):
        wv = WeightVector.from_values([1.5, 2.5, 3.0])
        assert wv.total == pytest.approx(7.0, abs=1e-12)
        assert len(wv) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WeightVector.from_values([1.0, 0.0])

    @pytest.mark.parametrize("values,message", [
        ([math.inf, 1.0], "weight inf at index 0 is not finite"),
        ([1.0, 2.0, math.nan], "weight nan at index 2 is not finite"),
        ([1.0, -math.inf], "weight -inf at index 1 is not finite"),
        ([1e308, 1e308, 1.0, 2.0],
         "the total of 4 weights up to 1e\\+308 overflows float64"),
    ])
    def test_rejects_non_finite(self, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            WeightVector.from_values(values)


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

    @pytest.mark.parametrize("spec,order,params", [
        (WeightSpec.constant(1e200), 2, "value = 1e+200"),
        (WeightSpec.two_point(1, 1e160, 0.5), 2,
         "x1 = 1.0, x2 = 1e+160, p1 = 0.5"),
        (WeightSpec.empirical([1e100, 2.0], [0.5, 0.5]), 4,
         "values = 1e+100,2.0, probs = 0.5,0.5"),
        (WeightSpec.pareto_shifted(9.5, 1e200, 1), 2,
         "shape = 9.5, scale = 1e+200, loc = 1.0"),
        (WeightSpec.pareto_shifted(9.5, 3e102, 3e102), 3,
         "shape = 9.5, scale = 3e+102, loc = 3e+102"),
    ], ids=["constant", "two_point", "empirical", "pareto", "pareto_sum"])
    def test_overflowing_moment_is_named(self, spec, order, params):
        # a float power out of range raises OverflowError; in "pareto_sum"
        # every power is finite but their sum is inf; both are refused by
        # name
        message = (f"moment of order {order} overflows float64 for "
                   f"{spec.family} weights with {params}")
        with pytest.raises(ValueError,
                           match=f"^{re.escape(message)}$") as error:
            moment(spec, order)
        assert not isinstance(error.value, InfiniteMomentError)
        assert math.isfinite(moment(spec, 1))

    def test_jensen_ordering(self):
        for spec in (WeightSpec.two_point(1, 9, 0.7),
                     WeightSpec.pareto_shifted(5.0, 2, 0.5)):
            summary = analytic_moments(spec)
            assert summary.ratio >= summary.mean

    def test_jensen_violation_rejected(self):
        with pytest.raises(ValueError, match="Jensen"):
            MomentSummary(mean=2.0, second_moment=3.0, ratio=1.5)


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


BOUNDED = (WeightSpec.constant(5.0), WeightSpec.two_point(1, 2, 0.5),
           WeightSpec.empirical([1, 2], [0.5, 0.5]))


class TestTailIndex:
    def test_shape_or_infinity(self):
        assert WeightSpec.pareto_shifted(9.5, 10, 1).tail_index == 9.5
        for spec in BOUNDED:
            assert spec.tail_index == math.inf

    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_moment_boundary_at_shape_equal_order(self, order):
        with pytest.raises(InfiniteMomentError):
            moment(WeightSpec.pareto_shifted(order, 1, 0), order)
        above = WeightSpec.pareto_shifted(math.nextafter(order, 9), 1, 0)
        assert math.isfinite(moment(above, order))
        for spec in BOUNDED:
            assert math.isfinite(moment(spec, order))

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_tail_condition_boundary_at_shape_2k_plus_1(self, k):
        at = 2 * k + 1
        assert not tail_condition_holds(WeightSpec.pareto_shifted(at, 1, 0), k)
        above = WeightSpec.pareto_shifted(math.nextafter(at, 99), 1, 0)
        assert tail_condition_holds(above, k)


@pytest.mark.parametrize("call,match", [
    (lambda: WeightSpec.empirical([1, 2], [0.5, -0.5]),
     "empirical probabilities must be nonnegative"),
    (lambda: WeightSpec.empirical([1, 2], [0, 0]),
     "empirical probabilities sum to zero"),
    (lambda: WeightVector.from_values([[1.0, 2.0]]),
     "weight vector must be a nonempty 1-d array"),
    (lambda: moment(WeightSpec.constant(1.0), 0),
     "moment order must be a positive integer"),
], ids=["negative_probs", "zero_sum_probs", "two_d_vector", "moment_order"])
def test_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()
