"""Poisson reference laws, total variation and Q-Q tables."""

import math
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from grgcycles.experiments import DEFAULT_QQ_LEVELS
from grgcycles.poisson import (EmpiricalPmf, MixedPoisson, PoissonModel,
                               poisson_rate, qq_table, tv_distance)

from oracles import poisson_pmf

# Pareto(9.5, 10, 1) rates for k = 3 and 4, and small ones whose truncated
# support ends within a few outcomes
ORACLE_RATES = (0.0, 0.5, 311.69408, 2880.16)


def oracle_laws(lam):
    """Empirical laws inside, straddling and beyond the Poisson support."""
    rng = np.random.default_rng(int(lam * 100) + 7)
    top = PoissonModel(lam).support[0][-1]
    inside = rng.poisson(lam, 400).tolist()
    return [EmpiricalPmf(Counter(inside)),
            EmpiricalPmf(Counter(inside[:16] + [top + 1, top + 40])),
            EmpiricalPmf({top + 3: 2, 2 * top + 90: 1})]


def oracle_mixtures(lam):
    """Mixed laws of ``lam``: with a rate whose support runs further, and
    with one whose support ends first."""
    return [MixedPoisson([lam, 2 * lam + 3]), MixedPoisson([lam, lam / 3])]


def reference_tv(p, q):
    """The l1 distance from outcome->probability dicts, summed one outcome
    at a time in ascending order, plus the truncated tails."""
    def pairs(law):
        if isinstance(law, EmpiricalPmf):
            return {m: c / law.total for m, c in law.to_csv_rows()}, 0.0
        _, pmf, tail = law.support
        return {m: float(x) for m, x in enumerate(pmf)}, tail
    pmf_p, tail_p = pairs(p)
    pmf_q, tail_q = pairs(q)
    dist = 0
    for m in sorted(set(pmf_p) | set(pmf_q)):
        dist += abs(pmf_p.get(m, 0.0) - pmf_q.get(m, 0.0))
    return min(dist + (tail_p + tail_q), 2.0)


def reference_quantile(law, level):
    """The first outcome, in ascending order, whose cumulative count
    reaches ``level * total`` less ``1e-9 * total``, or for a law without
    counts whose cumulative mass, summed one outcome at a time, reaches
    ``level`` less 1e-9; one level at a time."""
    if isinstance(law, EmpiricalPmf):
        rows, scale = law.to_csv_rows(), law.total
    else:
        rows, scale = enumerate(law.support[1].tolist()), 1
    acc = 0
    for m, count in rows:
        acc += count
        if acc >= level * scale - 1e-9 * scale:
            return m
    return m


def pareto_ratio():
    """Second-to-first moment ratio of the heavy-tail weight family used in
    the reference experiments, from the closed-form affine Pareto moments."""
    a = Fraction(19, 2)
    mean = 10 * a / (a - 1) + 1
    second = 100 * a / (a - 2) + 20 * a / (a - 1) + 1
    return second / mean


class TestRate:
    def test_reference_rates(self):
        ratio = float(pareto_ratio())
        assert poisson_rate(ratio, 4).lam == pytest.approx(
            float(pareto_ratio() ** 4 / 8), rel=1e-12)
        assert poisson_rate(ratio, 4).lam == pytest.approx(2880.16, abs=0.01)
        assert poisson_rate(ratio, 3).lam == pytest.approx(
            float(pareto_ratio() ** 3 / 6), rel=1e-12)
        # direct evaluation: 311.694, not to be confused with 311.71
        assert poisson_rate(ratio, 3).lam == pytest.approx(311.69408, abs=1e-4)

    def test_constant_weights(self):
        for s, k in ((2.0, 3), (1.5, 5)):
            assert poisson_rate(s, k).lam == pytest.approx(s ** k / (2 * k))

    def test_monotone_in_ratio(self):
        rates = [poisson_rate(r, 4).lam for r in (1.0, 2.0, 5.0, 12.0)]
        assert rates == sorted(rates)
        assert len(set(rates)) == len(rates)

    def test_guards(self):
        with pytest.raises(ValueError):
            poisson_rate(0.0, 3)
        with pytest.raises(ValueError):
            poisson_rate(1.0, 2)


class TestPmf:
    def test_point_values(self):
        outcomes, pmf, tail = PoissonModel(0.0).support
        assert (outcomes.tolist(), pmf.tolist(), tail) == ([0], [1.0], 0.0)
        pmf = PoissonModel(1.0).support[1]
        assert pmf[0] == pytest.approx(math.exp(-1))
        assert pmf[3] == pytest.approx(math.exp(-1) / 6)

    @pytest.mark.parametrize("lam", [0.5, 3.0, 2880.16])
    def test_sums_to_one(self, lam):
        outcomes, pmf, _ = PoissonModel(lam).support
        assert outcomes.tolist() == list(range(pmf.size))
        assert abs(pmf.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("lam", [0.5, 3.0, 2880.16])
    def test_unimodal_with_mode_floor_lam(self, lam):
        pmf = PoissonModel(lam).support[1]
        mode = int(lam)
        lo = max(0, mode - 40)
        hi = mode + 40
        values = pmf[lo:hi]
        # integer rates tie the mode with its left neighbor, hence the slack
        assert pmf[mode] >= max(values) * (1 - 1e-12)
        diffs = np.diff(values)
        # increasing then decreasing: no second sign change
        signs = np.sign(diffs[np.nonzero(diffs)])
        flips = int((np.diff(signs) != 0).sum())
        assert flips <= 1

    def test_truncated_support(self):
        _, pmf, tail = PoissonModel(2880.16).support
        assert tail <= 1e-12
        assert abs(pmf.sum() + tail - 1.0) < 1e-9


class TestSupportOracle:
    """The recursion's support against the per-outcome lgamma pmf."""

    @pytest.mark.parametrize("lam", ORACLE_RATES + (1e4, 1e5))
    def test_matches_lgamma_pmf(self, lam):
        outcomes, pmf, tail = PoissonModel(lam).support
        ref = poisson_pmf(lam, np.arange(int(lam + 50 * math.sqrt(lam)) + 101))
        assert outcomes.tolist() == list(range(pmf.size))
        shown = ref[:pmf.size] > 1e-300
        assert np.allclose(pmf[shown], ref[:pmf.size][shown], rtol=1e-9,
                           atol=0)
        # beyond[m], the mass from m on, summed from the far end: 1 - cdf
        # through lgamma masses is off by more than 1e-12 at these rates,
        # and 1 - cdf through the support's own is good to about 1e-15
        beyond = np.cumsum(ref[::-1])[::-1]
        cut = pmf.size - 1
        assert tail == pytest.approx(beyond[cut + 1], abs=1e-14)
        assert beyond[cut + 1] <= 1e-12 + 1e-14
        assert cut == 0 or beyond[cut] > 1e-12 - 1e-14

    @pytest.mark.parametrize("lam", [1e300, math.inf])
    def test_too_large_a_rate_refused_before_allocating(self, lam):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                    f"^Poisson rate {re.escape(repr(lam))} is too large: its "
                    f"support would run to outcome")):
                PoissonModel(lam).support
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


class TestMixedPmf:
    """``MixedPoisson``'s support: the mean of its rates' supports."""

    def test_single_sample_equals_poisson(self):
        for lam in ORACLE_RATES + (2.5,):
            mixed = MixedPoisson([lam]).support
            single = PoissonModel(lam).support
            for got, want in zip(mixed[:2], single[:2]):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            assert mixed[2] == single[2]

    def test_zero_rate_point_mass(self):
        outcomes, pmf, tail = MixedPoisson([0.0]).support
        assert (outcomes.tolist(), pmf.tolist(), tail) == ([0], [1.0], 0.0)

    def test_two_point_mixture(self):
        expected = (math.exp(-1) + math.exp(-3)) / 2
        pmf = MixedPoisson([1.0, 3.0]).support[1]
        assert pmf[0] == pytest.approx(expected, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^need at least one rate sample$"):
            MixedPoisson([])

    def test_matches_the_lgamma_mixture(self):
        """Each rate's support masses, averaged: the log-space oracle pmf
        of each rate up to its support's cut, 0 past it, on 0 to the
        largest cut; and the mean of the rates' tails."""
        rates = [0.0, 0.5, 3.0, 40.0, 311.69408]
        supports = [PoissonModel(lam).support for lam in rates]
        cuts = [outcomes[-1] for outcomes, _, _ in supports]
        outcomes, pmf, tail = MixedPoisson(rates).support
        assert outcomes.tolist() == list(range(max(cuts) + 1))
        for m in outcomes.tolist():
            want = float(np.mean([poisson_pmf(lam, m)[0] if m <= cut else 0.0
                                  for lam, cut in zip(rates, cuts)]))
            if want > 1e-300:
                assert pmf[m] == pytest.approx(want, rel=1e-12, abs=0), m
            elif want == 0:
                assert pmf[m] == 0.0, m
        assert tail == sum(beyond for _, _, beyond in supports) / len(rates)

    @pytest.mark.parametrize("rates", [
        [0.0, 0.5, 3.0, 40.0, 311.69408], [2880.16, 311.69408, 1e5],
        np.random.default_rng(5).gamma(300.0, size=400)],
        ids=["lgamma_rates", "wide_rates", "gamma_rates"])
    def test_masses_and_tail_sum_to_one(self, rates):
        outcomes, pmf, tail = MixedPoisson(rates).support
        assert abs(pmf.sum() + tail - 1.0) <= 4 * np.finfo(float).eps
        with pytest.raises(ValueError):
            pmf[0] = 1.0
        with pytest.raises(ValueError):
            outcomes[0] = 1


class TestTvDistance:
    def test_identical_laws(self):
        emp = EmpiricalPmf({3: 5, 4: 5})
        assert tv_distance(emp, emp) == 0.0
        # each truncated side contributes its tail (<= 1e-12) as a correction
        assert tv_distance(PoissonModel(2.0), PoissonModel(2.0)) == \
            pytest.approx(0.0, abs=2.1e-12)

    def test_disjoint_point_masses(self):
        p0 = EmpiricalPmf({0: 1})
        p1 = EmpiricalPmf({1: 1})
        assert tv_distance(p0, p1) == 2.0
        assert tv_distance(p0, p1) / 2 == 1.0

    def test_point_mass_vs_poisson(self):
        # direct pmf summation: |1 - e^-1| + sum_{m>=1} e^-1/m! = 2(1 - e^-1)
        expected = 2 * (1 - math.exp(-1))
        got = tv_distance(EmpiricalPmf({0: 1}), PoissonModel(1.0))
        assert got == pytest.approx(expected, abs=1e-9)

    def test_symmetry_and_range(self):
        emp = EmpiricalPmf({0: 3, 2: 1, 5: 6})
        model = PoissonModel(4.0)
        d = tv_distance(emp, model)
        assert 0 <= d <= 2
        assert d == pytest.approx(tv_distance(model, emp), abs=1e-12)

    @pytest.mark.parametrize("lam", ORACLE_RATES)
    def test_equals_dict_reference(self, lam):
        model = PoissonModel(lam)
        laws = [model, PoissonModel(lam + 0.7), *oracle_mixtures(lam),
                *oracle_laws(lam)]
        for p in laws:
            for q in laws:
                assert tv_distance(p, q) == reference_tv(p, q)

    @pytest.mark.parametrize("lam,mu", [(0.0, 0.5), (0.5, 3.0),
                                        (311.69408, 320.0),
                                        (2880.16, 311.69408)])
    def test_two_models_equal_dict_reference(self, lam, mu):
        p, q = PoissonModel(lam), PoissonModel(mu)
        assert tv_distance(p, q) == reference_tv(p, q)
        assert tv_distance(q, p) == reference_tv(q, p)

    @given(st.lists(st.integers(0, 8), min_size=1, max_size=30),
           st.lists(st.integers(0, 8), min_size=1, max_size=30),
           st.lists(st.integers(0, 8), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        pa = EmpiricalPmf(Counter(a))
        pb = EmpiricalPmf(Counter(b))
        pc = EmpiricalPmf(Counter(c))
        assert tv_distance(pa, pc) <= \
            tv_distance(pa, pb) + tv_distance(pb, pc) + 1e-12


class TestEmpiricalPmf:
    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_moments_are_the_exact_sums_rounded_once(self, samples):
        emp = EmpiricalPmf(Counter(samples))
        size = len(samples)
        mean = Fraction(sum(samples), size)
        second = Fraction(sum(m * m for m in samples), size)
        assert emp.mean() == float(mean)
        assert emp.variance() == float(second - mean * mean)
        descending = dict(reversed(emp.to_csv_rows()))
        assert EmpiricalPmf(descending).variance() == emp.variance()

    def test_counts_and_moments(self):
        emp = EmpiricalPmf({1: 2, 3: 2})
        assert emp.total == 4
        assert emp.mean() == 2.0
        assert emp.variance() == 1.0
        assert emp.support[1].tolist() == [0.5, 0.5]
        assert emp.to_csv_rows() == [(1, 2), (3, 2)]

    def test_support_view_is_ascending(self):
        emp = EmpiricalPmf({9: 1, 2: 3, 5: 0, 4: 4})
        outcomes, masses, tail = emp.support
        assert outcomes.tolist() == [2, 4, 9]
        assert masses.tolist() == [3 / 8, 4 / 8, 1 / 8]
        assert tail == 0.0
        assert emp.to_csv_rows() == [(2, 3), (4, 4), (9, 1)]

    def test_quantile_of_one_level_or_many(self):
        emp = EmpiricalPmf({9: 1, 2: 3, 4: 4})
        model = PoissonModel(4.0)
        assert emp.quantile(0.5) == 4 and isinstance(emp.quantile(0.5), int)
        assert emp.quantile([0.1, 0.5, 0.99]) == [2, 4, 9]
        assert isinstance(model.quantile(0.5), int)
        assert model.quantile([0.1, 0.5]) == [model.quantile(0.1),
                                              model.quantile(0.5)]

    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalPmf({})
        with pytest.raises(ValueError):
            EmpiricalPmf({-1: 2})

    @pytest.mark.parametrize("counts,named", [
        ({2.5: 1}, "outcome 2.5 has count 1"),
        ({2: 1.5}, "outcome 2 has count 1.5"),
        ({1: 4, np.float64(2.0): 1}, "outcome np.float64(2.0) has count 1"),
        ({3: 1, 4: -2}, "outcome 4 has count -2"),
        ({-1: 2}, "outcome -1 has count 2"),
    ], ids=["float_outcome", "float_count", "numpy_float_outcome",
            "negative_count", "negative_outcome"])
    def test_refuses_an_entry_that_is_not_a_nonnegative_integer(self, counts,
                                                                named):
        with pytest.raises(ValueError, match=(
                "^outcomes and counts must be nonnegative integers: "
                + re.escape(named) + "$")):
            EmpiricalPmf(counts)

    def test_numpy_integers_are_integers(self):
        emp = EmpiricalPmf({np.int64(3): np.int32(2), 5: np.uint8(2)})
        assert emp.to_csv_rows() == [(3, 2), (5, 2)]


class TestQqTable:
    def test_degenerate_empirical(self):
        emp = EmpiricalPmf({7: 100})
        table = qq_table(emp, PoissonModel(3.0), [0.1, 0.5, 0.9])
        assert table.empirical_column() == [7, 7, 7]

    def test_synthetic_poisson_matches_itself(self):
        model = PoissonModel(6.0)
        _, pmf, _ = model.support
        counts = {m: int(round(p * 10**9)) for m, p in enumerate(pmf)}
        emp = EmpiricalPmf({m: c for m, c in counts.items() if c})
        levels = [0.123, 0.25, 0.5, 0.777, 0.93]
        table = qq_table(emp, model, levels)
        assert table.empirical_column() == table.poisson_column()

    def test_columns_nondecreasing(self):
        emp = EmpiricalPmf({1: 2, 2: 3, 3: 1, 5: 1, 8: 2, 13: 1})
        levels = [i / 20 for i in range(1, 20)]
        table = qq_table(emp, PoissonModel(4.0), levels)
        assert table.empirical_column() == sorted(table.empirical_column())
        assert table.poisson_column() == sorted(table.poisson_column())

    def test_level_validation(self):
        emp = EmpiricalPmf({1: 1})
        with pytest.raises(ValueError):
            qq_table(emp, PoissonModel(1.0), [0.0])
        with pytest.raises(ValueError):
            qq_table(emp, PoissonModel(1.0), [1.0])

    def test_empty_levels_give_empty_table(self):
        assert qq_table(EmpiricalPmf({1: 1}), PoissonModel(1.0), []).rows == ()

    @pytest.mark.parametrize("lam", ORACLE_RATES)
    def test_rows_equal_scalar_quantiles(self, lam):
        model = PoissonModel(lam)
        for emp in oracle_laws(lam):
            table = qq_table(emp, model, DEFAULT_QQ_LEVELS)
            assert table.rows == tuple(
                (level, reference_quantile(emp, level), model.quantile(level))
                for level in DEFAULT_QQ_LEVELS)
            assert [emp.quantile(level) for level in DEFAULT_QQ_LEVELS] == \
                table.empirical_column()

    @pytest.mark.parametrize("lam", ORACLE_RATES)
    def test_any_two_laws(self, lam):
        laws = [PoissonModel(lam), *oracle_mixtures(lam), *oracle_laws(lam)]
        columns = [[reference_quantile(law, level)
                    for level in DEFAULT_QQ_LEVELS] for law in laws]
        for p, p_column in zip(laws, columns):
            for q, q_column in zip(laws, columns):
                assert qq_table(p, q, DEFAULT_QQ_LEVELS).rows == tuple(
                    zip(DEFAULT_QQ_LEVELS, p_column, q_column))

    def test_levels_on_count_boundaries(self):
        # cumulative counts 1, 2, 3, 4 of 4: levels 0.25, 0.5 and 0.75 land
        # exactly on a boundary and pick the outcome that reaches it
        emp = EmpiricalPmf({2: 1, 5: 1, 9: 1, 40: 1})
        model = PoissonModel(311.69408)
        levels = (0.25, 0.5, 0.75)
        table = qq_table(emp, model, levels)
        assert table.empirical_column() == [2, 5, 9]
        assert table.rows == tuple(
            (level, reference_quantile(emp, level), model.quantile(level))
            for level in levels)

    def test_levels_on_poisson_cdf_values(self):
        # a level equal to cdf(m) has quantile m, not m + 1
        model = PoissonModel(3.0)
        _, pmf, _ = model.support
        levels = np.cumsum(pmf)[:6].tolist()
        table = qq_table(EmpiricalPmf({1: 1}), model, levels)
        assert table.poisson_column() == [0, 1, 2, 3, 4, 5]
        assert table.poisson_column() == [model.quantile(x) for x in levels]


class TestTruncatedPmfOnce:
    def test_built_once_and_read_only(self, monkeypatch):
        model = PoissonModel(311.69408)
        calls = []
        cumprod = np.cumprod
        monkeypatch.setattr(np, "cumprod", lambda *args, **kwargs:
                            calls.append(args) or cumprod(*args, **kwargs))
        _, pmf, _ = model.support
        built = len(calls)
        assert built > 0
        emp = EmpiricalPmf({300: 1, 310: 1, 320: 1})
        qq_table(emp, model, DEFAULT_QQ_LEVELS)
        tv_distance(emp, model)
        for level in (0.1, 0.5, 0.9):
            model.quantile(level)
        assert len(calls) == built
        assert model.support[1] is pmf
        with pytest.raises(ValueError):
            pmf[0] = 1.0
        with pytest.raises(ValueError):
            model.support[0][0] = 1


@pytest.mark.parametrize("call,match", [
    (lambda: PoissonModel(-1), "Poisson rate must be nonnegative"),
    (lambda: MixedPoisson([1.0, -0.5]), "rate samples must be nonnegative"),
    # every comparison with nan is false: it is refused by name, not taken
    # for a rate too large for its support, nor left to a component's
    # ``PoissonModel`` to refuse
    (lambda: PoissonModel(math.nan),
     "^Poisson rate must be nonnegative: nan$"),
    (lambda: MixedPoisson([1.0, math.nan]),
     "^rate samples must be nonnegative$"),
], ids=["negative_rate", "mixed_rates", "nan_rate", "mixed_nan_rate"])
def test_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()
