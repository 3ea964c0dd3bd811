"""Ratio statistics, exact oracles, Monte Carlo estimators, rate fits."""

import math
import re
import sys
import time
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from grgcycles import ratios
from grgcycles.ratios import (TailBoundCheck, _chunk_sums, _row_statistics,
                              check_lower_tail, estimate_r_moment,
                              estimate_t_moment, exact_t_moment,
                              lower_tail_bound, r_statistic, rate_fit,
                              regimes, t_statistic)
from grgcycles.replication import map_replications
from grgcycles.weights import InfiniteMomentError, WeightSpec, draw
from cpu_parts import force_parts
from oracles import (exact_r_moment_bruteforce, exact_t_moment_bruteforce,
                     exact_t_moment_fraction)

TWO_POINT = WeightSpec.two_point(1, 2, 0.5)

positive_lists = st.lists(st.floats(0.01, 100), min_size=1, max_size=30)


def chunk_pair(v):
    """A chunk's sum and squared deviation sum about its mean, as
    ``ratios._chunk_sums`` computes them from the statistics ``v``."""
    total = float(v.sum())
    return total, float(np.square(v - total / v.size).sum())


def positioned(seed, draws):
    """A generator seeded by ``seed`` and advanced past ``draws`` draws."""
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(draws)
    return rng


def chunk_buffers(size, n):
    """Draw and mask buffers for a chunk of ``size`` replications of n."""
    return np.empty(size * n), np.empty(size * n, dtype=bool)


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

    @pytest.mark.parametrize("call,message", [
        (lambda: t_statistic([1e308, 1e308, 1.0]),
         "the total of 3 weights up to 1e+308 overflows float64"),
        (lambda: t_statistic([1e200, 1.0]),
         "t of a sample with values up to 1e+200 overflows float64"),
        (lambda: r_statistic([1e200, 1.0], 2),
         "r of a sample with values up to 1e+200 overflows float64"),
        (lambda: r_statistic([1e100, 1e100], 4),
         "r of a sample with values up to 1e+100 overflows float64"),
    ], ids=["total", "t_square", "r_square", "r_power"])
    def test_overflow_is_named(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_one_sample_is_one_row_of_the_kernel(self):
        spec = WeightSpec.pareto_shifted(3.5, 2, 1)
        rows = draw(spec, np.random.default_rng(4), (6, 50))
        for p in (2, 3):
            want = _row_statistics(rows.copy(), p, "r")
            assert [r_statistic(row, p) for row in rows] == list(want)
            # the Monte Carlo chunk of these six replications
            assert _chunk_sums(spec, 50, p, np.random.default_rng(4), "r", 6,
                               *chunk_buffers(6, 50)) == chunk_pair(want)
        want = _row_statistics(rows.copy(), 1, "t")
        assert [t_statistic(row) for row in rows] == list(want)

    def test_input_left_unchanged(self):
        xs = np.array([1.0, 2.0, 4.0])
        t_statistic(xs)
        r_statistic(xs, 2)
        assert list(xs) == [1.0, 2.0, 4.0]

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

    @pytest.mark.parametrize("spec", [TWO_POINT,
                                      WeightSpec.two_point(1, 60, 0.9),
                                      WeightSpec.two_point(3, 0.5, 0.01)],
                             ids=["1-2", "1-60", "3-0.5"])
    def test_matches_fraction_oracle(self, spec):
        # tolerances from the log-space sum this replaced, whose error grew
        # with n through lgamma's magnitude; the ratio-built masses keep
        # every case within about a fifth of them
        for n, rel in ((1, 1e-15), (2, 1e-15), (5, 1e-14), (10, 1e-14),
                       (64, 1e-13), (200, 1e-12)):
            for p in (1, 3):
                assert exact_t_moment(spec, n, p) == pytest.approx(
                    exact_t_moment_fraction(spec, n, p), rel=rel, abs=0)

    @pytest.mark.parametrize("n", [1000, 4096])
    def test_large_n_to_the_last_bits(self, n):
        # the masses multiplied out from the mode and an fsum keep a few
        # rounding units where lgamma log-probabilities lost about 1e-12
        assert exact_t_moment(TWO_POINT, n, 3) == pytest.approx(
            exact_t_moment_fraction(TWO_POINT, n, 3), rel=1e-14, abs=0)

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

    @pytest.mark.parametrize("spec,message", [
        (WeightSpec.constant(1e200),
         "E t**2 of constant weights up to 1e+200 overflows float64"),
        (WeightSpec.two_point(1, 1e200, 0.5),
         "E t**2 of two_point weights up to 1e+200 overflows float64"),
    ], ids=["constant", "two_point"])
    def test_overflow_is_named(self, spec, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            exact_t_moment(spec, 3, 2)


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

    @pytest.mark.parametrize("rows", [4096, 100, 7])
    @pytest.mark.parametrize("gap", [1e-8, 1e-7])
    def test_standard_error_of_a_nearly_constant_statistic(
            self, monkeypatch, gap, rows):
        """t varies by about 6e-10 around 1 here: the standard error must
        keep its digits (a raw second moment less the squared mean leaves
        none at gap 1e-8), in one chunk or many, on 1 and on 3 CPUs."""
        monkeypatch.setattr(ratios, "_CHUNK_BUDGET", 64 * rows)
        spec = WeightSpec.two_point(1, 1 + gap, 0.5)
        # the two-pass standard error over the same uniforms
        v = _row_statistics(draw(spec, np.random.default_rng(3), (4000, 64)),
                            1, "t")
        oracle = float(np.sqrt(np.square(v - v.mean()).mean() / 4000))
        estimates = []
        for cpus in (1, 3):
            force_parts(monkeypatch, cpus)
            estimates.append(estimate_t_moment(spec, 64, 1, 4000, 3))
        assert estimates[0] == estimates[1]
        assert estimates[0].std_error == pytest.approx(oracle, rel=1e-6, abs=0)
        assert estimates[0].value == pytest.approx(v.mean(), rel=1e-13, abs=0)


FAMILIES = [WeightSpec.constant(2.0), WeightSpec.pareto_shifted(3.5, 2, 1),
            TWO_POINT, WeightSpec.empirical([1, 2, 5], [0.2, 0.5, 0.3])]


def two_estimates(unit):
    """A t and an r estimate seeded by ``unit``."""
    return (estimate_t_moment(TWO_POINT, 64, 2, 1000, unit),
            estimate_r_moment(TWO_POINT, 64, 3, 1000, unit))


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

    @pytest.mark.parametrize("cpus", [2, 3, 5])
    @pytest.mark.parametrize("rows", [7, 400])
    def test_estimates_do_not_depend_on_cpus(self, monkeypatch, rows, cpus):
        # chunks of 7 rows make 143 units, of 400 rows three: fewer than
        # five parts
        monkeypatch.setattr(ratios, "_CHUNK_BUDGET", 64 * rows)
        seed = np.random.SeedSequence(6)

        def estimates():
            return [(est.value.hex(), est.std_error.hex())
                    for spec in FAMILIES
                    for est in (estimate_t_moment(spec, 64, 2, 1000, seed),
                                estimate_r_moment(spec, 64, 3, 1000, seed))]

        assert force_parts(monkeypatch, 1) == []
        one = estimates()
        used = force_parts(monkeypatch, cpus)
        assert estimates() == one
        assert used == [min(cpus, -(-1000 // rows))] * 2 * len(FAMILIES)

    def test_estimates_do_not_depend_on_thread_switching(self, monkeypatch):
        # eight parts on fewer CPUs, switching threads every microsecond;
        # each part must draw into its own buffer only
        monkeypatch.setattr(ratios, "_CHUNK_BUDGET", 64 * 7)
        spec = WeightSpec.pareto_shifted(3.5, 2, 1)
        one = estimate_r_moment(spec, 64, 3, 1000, 4)
        used = force_parts(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = [estimate_r_moment(spec, 64, 3, 1000, 4) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert many == [one] * 3 and used == [8] * 3

    def test_unit_thread_runs_its_chunks_in_one_part(self, monkeypatch):
        # ten chunks per estimate, on five CPUs here
        monkeypatch.setattr(ratios, "_CHUNK_BUDGET", 64 * 100)
        used = force_parts(monkeypatch, 5)
        two_estimates(0)
        assert used == [5, 5]
        map_replications(two_estimates, range(2), workers=2)
        # two blocks, each on a CPU of its own: one part per estimate
        assert used == [5, 5, 2] + [1] * 4

    def test_unit_thread_estimates_equal_the_callers(self, monkeypatch):
        # one part on each unit thread, five on the caller: the same bytes
        monkeypatch.setattr(ratios, "_CHUNK_BUDGET", 64 * 100)
        force_parts(monkeypatch, 5)
        assert (map_replications(two_estimates, range(2), workers=2)
                == [two_estimates(0), two_estimates(1)])

    def test_helper_error_is_raised_in_the_caller(self, monkeypatch):
        used = force_parts(monkeypatch, 3)
        monkeypatch.setattr(ratios, "_CHUNK_BUDGET", 64 * 100)
        chunk_sums = ratios._chunk_sums

        def fail_late(*args):
            if args[5] == 50:      # the last unit, of 50 rows, in part 2
                raise KeyError(args[5])
            return chunk_sums(*args)

        monkeypatch.setattr(ratios, "_chunk_sums", fail_late)
        with pytest.raises(KeyError, match="50"):
            estimate_t_moment(TWO_POINT, 64, 2, 1050, 0)
        assert used == [3]

    def test_generator_seed_rejected(self):
        with pytest.raises(TypeError, match="SeedSequence"):
            estimate_t_moment(TWO_POINT, 8, 2, 1000,
                              np.random.default_rng(0))

    @pytest.mark.parametrize("estimate", [estimate_t_moment,
                                          estimate_r_moment])
    def test_negative_seed_is_named(self, estimate):
        with pytest.raises(ValueError, match="^seed=-1 is negative$"):
            estimate(TWO_POINT, 8, 2, 1000, -1)

    def test_seed_none_draws_its_entropy_once(self, monkeypatch):
        """Every part of one estimate rebuilds its generator from one
        ``SeedSequence``, so an unseeded estimate of many chunks sees one
        OS entropy, the stream of one sequential generator."""
        used = force_parts(monkeypatch, 3)
        monkeypatch.setattr(ratios, "_CHUNK_BUDGET", 64 * 100)
        default_rng = np.random.default_rng
        entropies = []

        def recording_rng(seed=None):
            rng = default_rng(seed)
            entropies.append(rng.bit_generator.seed_seq.entropy)
            return rng

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        estimate_t_moment(WeightSpec.pareto_shifted(9.5, 10, 1), 64, 2, 2000,
                          None)
        assert used == [3] and len(entropies) >= 3
        assert len(set(entropies)) == 1


def estimate_bytes(spec, n, seed):
    """``float.hex`` of the value and standard error of a t and an r
    estimate of 1000 replications."""
    return [(est.value.hex(), est.std_error.hex())
            for est in (estimate_t_moment(spec, n, 2, 1000, seed),
                        estimate_r_moment(spec, n, 3, 1000, seed))]


class TestDrawBlocks:
    """A chunk is drawn in blocks of whole rows of at most
    ``_DRAW_BLOCK`` draws, which move no bit of an estimate."""

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_block_size_moves_no_bit(self, monkeypatch, n, cpus):
        # chunks of 100 rows: ten units, split into 3 parts on 3 CPUs;
        # blocks of one row (1, n - 1 and n draws), of three rows with a
        # short last block (3n + 1) and the default, a whole chunk here
        monkeypatch.setattr(ratios, "_CHUNK_BUDGET", 100 * n)
        used = force_parts(monkeypatch, cpus)
        seed = np.random.SeedSequence(21, spawn_key=(n,))
        want = [estimate_bytes(spec, n, seed) for spec in FAMILIES]
        for block in (1, n - 1, n, 3 * n + 1):
            monkeypatch.setattr(ratios, "_DRAW_BLOCK", block)
            assert [estimate_bytes(spec, n, seed)
                    for spec in FAMILIES] == want, block
        # five block sizes, a t and an r estimate of each family
        assert used == [cpus] * 5 * 2 * len(FAMILIES)

    @pytest.mark.parametrize("spec,want", [
        (TWO_POINT, [("0x1.63931a6617e58p+1", "0x1.138725271040bp-11"),
                     ("0x1.da1154a95757bp-10", "0x1.139db348df62ap-23")]),
        (WeightSpec.pareto_shifted(9.5, 10, 1),
         [("0x1.2f95816c1b925p+7", "0x1.efe00b66f8d5bp-7"),
          ("0x1.1a9dd982ce213p+1", "0x1.f82704b6cec84p-7")]),
    ], ids=["two_point", "pareto"])
    def test_pinned_estimates_at_n_4096(self, spec, want):
        # recorded when each chunk was drawn whole, 64 rows at a time
        got = [(est.value.hex(), est.std_error.hex())
               for est in (estimate_t_moment(spec, 4096, 2, 2000, 11),
                           estimate_r_moment(spec, 4096, 2, 2000, 11))]
        assert got == want

    def test_one_part_peak_stays_near_one_block(self, monkeypatch):
        # one part draws 16 rows of 4096 at a time: a 512 kB buffer and a
        # 64 kB mask, where a whole chunk of 64 rows took 2.27 MB
        force_parts(monkeypatch, 1)
        estimate_t_moment(TWO_POINT, 4096, 2, 2000, 5)   # warm the imports
        began = time.perf_counter()
        tracemalloc.start()
        try:
            estimate_t_moment(TWO_POINT, 4096, 2, 2000, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000
        assert time.perf_counter() - began < 1


def value_path(spec, n, p, seed, statistic, unit):
    """The chunk's statistics from the drawn values themselves: ``draw``
    and ``_row_statistics`` on the chunk's uniforms, the oracle of the
    two-point count path."""
    start, size = unit
    rng = positioned(seed, start * n)
    return _row_statistics(draw(spec, rng, (size, n)), p, statistic)


STATISTIC_POWERS = [("t", 1), ("t", 2), ("t", 3), ("t", 9), ("r", 2),
                    ("r", 3), ("r", 9)]


class TestTwoPointCounts:
    """A two-point chunk is reduced to each replication's count of x1 hits;
    its sums must be those of the values it stands for."""

    # atom sums exact in binary; x1 < x2 and x1 > x2; p1 near 0 and near 1,
    # where whole rows hit one atom
    @pytest.mark.parametrize("spec", [
        TWO_POINT, WeightSpec.two_point(2, 1, 0.3),
        WeightSpec.two_point(3, 0.5, 0.01), WeightSpec.two_point(1, 2, 0.999),
        WeightSpec.two_point(1, 60, 0.9), WeightSpec.two_point(0.5, 4, 0.9),
    ], ids=["1-2", "2-1", "3-0.5-rare", "1-2-common", "1-60", "0.5-4"])
    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_dyadic_atoms_give_the_bytes_of_the_values(self, spec, n):
        seed = np.random.SeedSequence(12, spawn_key=(n,))
        # a buffer longer than one chunk: only its front is used
        buf, mask = np.empty(60 * n), np.empty(60 * n, dtype=bool)
        for unit in ((0, 50), (37, 50), (1000, 7)):
            for statistic, p in STATISTIC_POWERS:
                want = [x.hex() for x in chunk_pair(value_path(
                    spec, n, p, seed, statistic, unit))]
                got = _chunk_sums(spec, n, p, positioned(seed, unit[0] * n),
                                  statistic, unit[1], buf, mask)
                assert [x.hex() for x in got] == want, (unit, statistic, p)

    @pytest.mark.parametrize("spec", [WeightSpec.two_point(0.1, 0.3, 0.4),
                                      WeightSpec.two_point(0.7, 0.2, 0.55)],
                             ids=["0.1-0.3", "0.7-0.2"])
    @pytest.mark.parametrize("n", [1, 2, 10, 777])
    def test_other_atoms_move_in_the_last_bits(self, spec, n):
        # the count rounds once per atom sum, a pairwise sum of n terms more
        # often; a relative move of t or of the sum grows about linearly
        # with the power, so the bound is e = 1e-15 per power of the value.
        # Values moved by e relative move the deviation sum by at most
        # 2 e sum |v - mean| |v|, to first order
        for unit in ((0, 40), (13, 40)):
            for statistic, p in STATISTIC_POWERS:
                e = 1e-15 * (p if statistic == "t" else p + 1)
                got = _chunk_sums(spec, n, p, positioned(5, unit[0] * n),
                                  statistic, unit[1], *chunk_buffers(40, n))
                v = value_path(spec, n, p, 5, statistic, unit)
                total, dev2 = chunk_pair(v)
                assert got[0] == pytest.approx(total, rel=e, abs=0)
                spread = float(np.abs(v - total / v.size) @ v)
                assert got[1] == pytest.approx(dev2, rel=0, abs=2 * e * spread)


class TestMonteCarloR:
    def test_constant_law_exact(self):
        for n in (16, 64):
            est = estimate_r_moment(WeightSpec.constant(1.0), n, 3, 1000, seed=0)
            assert est.value == pytest.approx(1 / n, rel=1e-12)
            assert est.std_error == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("spec", [TWO_POINT,
                                      WeightSpec.two_point(3, 0.5, 0.3)],
                             ids=["1-2", "3-0.5"])
    def test_two_point_matches_bruteforce(self, spec):
        for n in (2, 5, 10):
            for p in (2, 3):
                seed = np.random.SeedSequence(7, spawn_key=(n, p))
                est = estimate_r_moment(spec, n, p, 20_000, seed)
                exact = exact_r_moment_bruteforce(spec, n, p)
                assert abs(est.value - exact) <= 4 * est.std_error, (n, p)

    def test_bruteforce_oracle(self):
        # one draw: r = x**(p + 1)
        spec = WeightSpec.two_point(3, 0.5, 0.3)
        assert exact_r_moment_bruteforce(spec, 1, 2) == pytest.approx(
            0.3 * 3 ** 3 + 0.7 * 0.5 ** 3, rel=1e-15)
        # two draws of (1, 2, 1/2): r in {1/2, 100/27, 100/27, 4} at p = 2
        assert exact_r_moment_bruteforce(TWO_POINT, 2, 2) == pytest.approx(
            float((Fraction(1, 2) + 2 * Fraction(100, 27) + 4) / 4), rel=1e-15)
        with pytest.raises(ValueError, match="n <= 12"):
            exact_r_moment_bruteforce(TWO_POINT, 13, 2)

    def test_count_formula_matches_bruteforce(self):
        # the binomial sum of the estimator's per-count r
        spec = WeightSpec.two_point(3, 0.5, 0.3)
        for n in (1, 2, 5, 10):
            for p in (2, 3):
                hits = np.arange(n + 1)
                pmf = np.array([comb(n, j) * 0.3 ** j * 0.7 ** (n - j)
                                for j in hits])
                values = ratios._two_point_values(spec, n, hits, p, "r")
                assert math.fsum(pmf * values) == pytest.approx(
                    exact_r_moment_bruteforce(spec, n, p), rel=1e-13)

    def test_tails_that_miss_a_regime(self):
        heavy = WeightSpec.pareto_shifted(4.0, 1, 0)
        assert "sqrt" not in regimes(heavy, 2)
        assert "log" not in regimes(heavy, 2)
        assert "poly" not in regimes(TWO_POINT, 2)

    def test_tails_that_meet_a_regime(self):
        assert regimes(TWO_POINT, 2) == ("sqrt", "log")
        assert regimes(TWO_POINT, 9) == ("sqrt", "poly", "log")
        assert regimes(WeightSpec.pareto_shifted(6.0, 1, 0), 2) == ("sqrt",)

    @pytest.mark.parametrize("regime,p,edge,holds_at_edge", [
        ("sqrt", 2, 5.5, True), ("sqrt", 9, 12.5, True),
        ("poly", 9, 13.0, False), ("poly", 12, 16.0, False),
    ])
    def test_regime_boundaries(self, regime, p, edge, holds_at_edge):
        # sqrt holds from shape p + 3.5 on; poly needs shape above p + 4
        def holds(shape):
            return regime in regimes(WeightSpec.pareto_shifted(shape, 1, 0), p)

        assert holds(edge) is holds_at_edge
        assert holds(math.nextafter(edge, 0)) is False
        assert holds(math.nextafter(edge, 99)) is True

    @pytest.mark.parametrize("regime", ["sqrt", "poly", "log"])
    def test_bounded_support_meets_every_tail_condition(self, regime):
        assert regime in regimes(TWO_POINT, 9)
        assert regime in regimes(WeightSpec.constant(2.0), 9)
        assert "log" not in regimes(WeightSpec.pareto_shifted(1e6, 1, 0), 9)

    def test_unknown_regime(self):
        # the regimes follow from the law; no argument names one
        with pytest.raises(TypeError, match="regime"):
            estimate_r_moment(TWO_POINT, 8, 2, 1000, seed=0, regime="log")


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
        with pytest.raises(ValueError):
            TailBoundCheck(lambda_frac=0.5, n=4, bound_value=-0.1,
                           probability=0.0)

    def test_check_accepts_the_zero_bound(self):
        # no variance and no mean square: the sum is n surely, so it never
        # falls to half of n, and the bound is 0
        assert lower_tail_bound(0.5, 0.0, 0.0, 8) == 0.0
        check = check_lower_tail(0.5, 0.0, 0.0, 8, 0.0)
        assert check.bound_value == 0.0
        assert check.holds
        assert not check_lower_tail(0.5, 0.0, 0.0, 8, 0.25).holds

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


@pytest.mark.parametrize("call,match", [
    (lambda: estimate_t_moment(TWO_POINT, 4, 0, 1000, 0), "p must be positive"),
    (lambda: estimate_r_moment(TWO_POINT, 4, 2, 999, 0),
     "need at least 1000 replications"),
    (lambda: estimate_r_moment(TWO_POINT, 4, 1, 1000, 0),
     "p must be an integer >= 2"),
    (lambda: estimate_t_moment(TWO_POINT, 0, 2, 1000, 0),
     "n must be at least 1, got 0"),
    (lambda: estimate_r_moment(TWO_POINT, 0, 2, 1000, 0),
     "n must be at least 1, got 0"),
    (lambda: estimate_t_moment(TWO_POINT, -3, 2, 1000, 0),
     "n must be at least 1, got -3"),
    (lambda: estimate_r_moment(WeightSpec.pareto_shifted(9.5, 10, 1), -1, 2,
                               1000, 0), "n must be at least 1, got -1"),
    (lambda: exact_t_moment(TWO_POINT, 0, 2), "n and p must be positive"),
    (lambda: exact_t_moment(TWO_POINT, 3, 0), "n and p must be positive"),
    (lambda: lower_tail_bound(0.5, 1.0, 1.0, 0), "n must be at least 1"),
], ids=["t_p", "r_replications", "r_p", "t_n0", "r_n0", "t_n_negative",
        "r_n_negative", "exact_n", "exact_p", "tail_n"])
def test_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()
