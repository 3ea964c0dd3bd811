"""Experiment harness: configuration, runners, CLI and determinism."""

import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from grgcycles import chen_stein, cli, experiments, graphs, ratios, replication
from grgcycles.chen_stein import BoundTerms, bound_report
from grgcycles.cycles import CandidateCapError, candidate_count
from grgcycles.experiments import (ExperimentConfig, er_constant_spec,
                                   load_config, map_replications,
                                   replication_seed, run_bounds, run_census,
                                   run_ratio_study, run_threshold)
from grgcycles.graphs import GrgGraph
from grgcycles.weights import InfiniteMomentError, WeightSpec, sample_weights
from cpu_parts import force_parts

PARETO = WeightSpec.pareto_shifted(9.5, 10, 1)

CONFIG_TEXT = """\
[census]
family = pareto_shifted
shape = 9.5
scale = 10
loc = 1
n = 40
k = 3
replications = 25
seed = 5

[ratio]
family = two_point
x1 = 1
x2 = 2
p1 = 0.5
p = 2
replications = 2000
seed = 3
n_grid = 8, 16, 32, 64
statistic = t

[bounds]
k = 3
replications = 2
seed = 9
n_grid = 10,20,40,80
er_lambda = 6.0
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "experiments.ini"
    path.write_text(CONFIG_TEXT)
    return path


class TestConfig:
    def test_load_section(self, config_file):
        cfg = load_config(config_file, "census")
        assert cfg.spec == PARETO
        assert (cfg.n, cfg.k, cfg.replications, cfg.seed) == (40, 3, 25, 5)

    def test_flag_overrides_win(self, config_file):
        cfg = load_config(config_file, "census",
                          {"n": "60", "seed": "11", "family": None})
        assert cfg.n == 60 and cfg.seed == 11
        assert cfg.spec == PARETO

    def test_grid_parsing(self, config_file):
        cfg = load_config(config_file, "ratio")
        assert cfg.n_grid == (8, 16, 32, 64)
        assert cfg.statistic == "t"

    def test_missing_family_rejected(self, config_file):
        match = r"section \[threshold\] does not define a weight family"
        with pytest.raises(ValueError, match=match):
            load_config(config_file, "threshold")

    @pytest.mark.parametrize("source", [{"edge_list": "g.txt"},
                                        {"er_lambda": "6"}])
    def test_graph_source_stands_in_for_family(self, source):
        command = "threshold" if "edge_list" in source else "bounds"
        cfg = load_config(None, command, source)
        assert cfg.spec is None
        # a study that draws weights still needs the family
        with pytest.raises(ValueError, match="does not define a weight family"):
            cfg.weight_spec()

    def test_unread_override_rejected(self):
        with pytest.raises(ValueError,
                           match="^unknown key 'p' for command census$"):
            load_config(None, "census", {"family": "constant", "value": "2",
                                         "n": "12", "p": "7"})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "nope.ini", "census")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "typo.ini"
        path.write_text(CONFIG_TEXT.replace("replications = 25",
                                            "replication = 400"))
        with pytest.raises(ValueError, match="'replication'"):
            load_config(path, "census")

    def test_validation(self):
        with pytest.raises(ValueError, match="n=2 holds a size below k=4"):
            run_census(ExperimentConfig(spec=PARETO, n=2, k=4))
        with pytest.raises(ValueError,
                           match="replications must be at least 1"):
            run_census(ExperimentConfig(spec=PARETO, n=10, replications=0))

    @pytest.mark.parametrize("key,value,kind", [
        ("n", "abc", "an integer"),
        ("n_grid", "10,x", "a comma separated list of integers"),
        # a space is not a comma: not the one size 64128
        ("n_grid", "64 128", "a comma separated list of integers"),
        ("n_grid", "8,,16", "a comma separated list of integers"),
        ("n_grid", "8,16,", "a comma separated list of integers"),
        ("er_lambda", "six", "a number"),
    ])
    def test_bad_value_names_its_key(self, tmp_path, capsys, key, value,
                                     kind):
        # the first command that reads the key; the value fails to convert
        # before the graph sources are counted
        command = next(command for command, keys
                       in experiments.COMMAND_KEYS.items() if key in keys)
        match = re.escape(f"{key} = {value!r} in [{command}] is not {kind}")
        path = tmp_path / "bad.ini"
        path.write_text(f"[{command}]\nfamily = constant\nvalue = 1\n"
                        f"{key} = {value}\n")
        with pytest.raises(ValueError, match=match):
            load_config(path, command)
        flag = "--" + key.replace("_", "-")
        assert cli.main([command, "--family", "constant", "--value", "1",
                         flag, value]) == 2
        assert re.search(match, capsys.readouterr().err)

    @pytest.mark.parametrize("text", ["8, 16", " 8 ,16 ", "8,\t16"])
    def test_grid_fields_may_carry_spaces(self, text):
        cfg = load_config(None, "ratio", {"family": "constant", "value": "1",
                                          "n_grid": text})
        assert cfg.n_grid == (8, 16)


# one valid setting per config key, with the weight keys its value needs
KEY_SETTINGS = {
    "family": {"family": "constant", "value": "2"},
    "value": {"family": "constant", "value": "2"},
    "shape": {"family": "pareto_shifted", "shape": "9.5", "scale": "10",
              "loc": "1"},
    "x1": {"family": "two_point", "x1": "1", "x2": "3", "p1": "0.25"},
    "values": {"family": "empirical", "values": "1,2", "probs": "1,3"},
    "n": {"n": "40"}, "k": {"k": "4"}, "p": {"p": "3"},
    "replications": {"replications": "7"}, "seed": {"seed": "11"},
    "workers": {"workers": "2"}, "output_dir": {"output_dir": "out"},
    "n_grid": {"n_grid": "8,16"},
    "statistic": {"statistic": "r"},
    "er_lambda": {"er_lambda": "1.5"}, "edge_list": {"edge_list": "g.txt"},
}
for _key in ("scale", "loc"):
    KEY_SETTINGS[_key] = KEY_SETTINGS["shape"]
for _key in ("x2", "p1"):
    KEY_SETTINGS[_key] = KEY_SETTINGS["x1"]
KEY_SETTINGS["probs"] = KEY_SETTINGS["values"]


class TestConfigKeys:
    """Every (command, key) pair of the command key table works as an INI
    key and as a flag, and each command reads exactly its keys."""

    @pytest.mark.parametrize("key", list(experiments.CONFIG_KEYS))
    def test_ini_key_and_flag_agree(self, tmp_path, monkeypatch, key):
        # er_lambda and edge_list are graph sources in place of the weights
        weights = ({} if key in ("er_lambda", "edge_list")
                   else {"family": "constant", "value": "2"})
        settings = {**weights, **KEY_SETTINGS[key]}
        commands = [command for command, keys
                    in experiments.COMMAND_KEYS.items() if key in keys]
        assert commands
        for command in commands:
            path = tmp_path / f"{command}.ini"
            path.write_text(f"[{command}]\n" + "".join(
                f"{k} = {v}\n" for k, v in settings.items()))
            flags = [command]
            for k, v in settings.items():
                flags += ["--" + k.replace("_", "-"), v]
            seen = []
            monkeypatch.setitem(cli._COMMANDS, command,
                                lambda cfg: seen.append(cfg) or ())
            assert cli.main(flags) == 0
            from_ini = load_config(path, command)
            assert seen == [from_ini], command
            if experiments.CONFIG_KEYS[key][0] is None:
                assert key in from_ini.spec.to_mapping()
            else:
                default = ExperimentConfig(spec=from_ini.spec)
                assert getattr(from_ini, key) != getattr(default, key)

    @pytest.mark.parametrize("command,settings,untaken", [
        ("moments", dict(spec=PARETO, k=4), set()),
        ("sample", dict(spec=PARETO, n=8, seed=1), set()),
        ("census", dict(spec=PARETO, n=10, replications=2), set()),
        ("bounds", dict(spec=PARETO, n_grid=(8,)), set()),
        ("bounds", dict(spec=None, n_grid=(8,), er_lambda=2.0), {"spec"}),
        ("ratio", dict(spec=PARETO, n_grid=(8, 16), replications=1000),
         set()),
        ("threshold", dict(spec=PARETO, n=8), set()),
        ("threshold", dict(spec=None, edge_list="EDGES"), {"spec", "n"}),
    ], ids=["moments", "sample", "census", "bounds-family", "bounds-er",
            "ratio", "threshold-sampled", "threshold-edge-list"])
    def test_each_command_reads_its_keys(self, tmp_path, command, settings,
                                         untaken):
        """The fields a command reads are its keys, with ``spec`` for the
        weight keys, less those of the graph source it did not take."""
        if settings.get("edge_list"):
            path = tmp_path / "k4.txt"
            path.write_text(GrgGraph.complete(4).to_edge_text())
            settings = {**settings, "edge_list": str(path)}
        read = set()

        class Recording(ExperimentConfig):
            def __getattribute__(self, name):
                read.add(name)
                return super().__getattribute__(name)

        cfg = Recording(**settings)
        read.clear()
        cli._COMMANDS[command](cfg)
        fields = {field.name for field in dataclasses.fields(cfg)}
        own = {key for key in experiments.COMMAND_KEYS[command]
               if experiments.CONFIG_KEYS[key][0] is not None}
        assert read & fields == (own | {"spec"}) - untaken


class TestSeeding:
    def test_replication_seed_is_stable(self):
        a = np.random.default_rng(replication_seed(5, 3, 0)).random(4)
        b = np.random.default_rng(replication_seed(5, 3, 0)).random(4)
        c = np.random.default_rng(replication_seed(5, 3, 1)).random(4)
        d = np.random.default_rng(replication_seed(5, 4, 0)).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_worker_resolution(self, monkeypatch, config_file, threads):
        """The workers key is the one channel: 1 unless it is set, and the
        GRGCYCLES_WORKERS environment variable is ignored."""
        monkeypatch.setenv("GRGCYCLES_WORKERS", "7")
        assert ExperimentConfig(spec=PARETO).workers == 1
        assert load_config(config_file, "census").workers == 1
        assert load_config(config_file, "census",
                           {"workers": "3"}).workers == 3
        run_census(ExperimentConfig(spec=PARETO, n=12, replications=3))
        # one block for the map, then one part for each graph's sampler
        assert threads == [1] * 4

    def test_bad_worker_env_named(self, monkeypatch, capsys):
        """A value the variable once rejected is not read at all."""
        for value in ("four", "-1", "0"):
            monkeypatch.setenv("GRGCYCLES_WORKERS", value)
            assert cli.main(["census", "--family", "constant", "--value",
                             "2", "--n", "12", "--replications", "3"]) == 0
            assert capsys.readouterr().err == ""

    def test_negative_workers_rejected(self, config_file):
        cfg = load_config(config_file, "census", {"workers": "-2"})
        with pytest.raises(ValueError, match="^workers=-2 is below 1$"):
            run_census(cfg)

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match="seed=-1 is negative"):
            replication_seed(-1, 0)
        with pytest.raises(ValueError, match="seed=-1 is negative"):
            ExperimentConfig(spec=PARETO, seed=-1)

    @pytest.mark.parametrize("command,key,value,message", [
        ("census", "seed", "-1", "seed=-1 is negative"),
        ("sample", "seed", "-1", "seed=-1 is negative"),
        ("threshold", "seed", "-1", "seed=-1 is negative"),
    ])
    def test_bad_seed_or_cap_named(self, tmp_path, capsys, command, key,
                                   value, message):
        settings = {"family": "constant", "value": "1", "n": "10", key: value}
        path = tmp_path / "bad.ini"
        path.write_text(f"[{command}]\n" + "".join(
            f"{k} = {v}\n" for k, v in settings.items()))
        with pytest.raises(ValueError, match=message):
            load_config(path, command)
        flags = [command]
        for k, v in settings.items():
            flags += ["--" + k.replace("_", "-"), v]
        assert cli.main(flags) == 2
        assert message in capsys.readouterr().err


@pytest.fixture()
def threads(monkeypatch):
    """The part count of every thread map run during the test, each run on
    this thread, starting no thread, by a stand-in for ``_on_threads``."""
    used = []

    def record(job, parts):
        used.append(parts)
        return [job(k) for k in range(parts)]

    monkeypatch.setattr(replication, "_on_threads", record)
    return used


class TestReplicationMap:
    def test_never_more_threads_than_units_or_cpus(self, threads,
                                                   monkeypatch):
        for cpus in (3, 1):
            monkeypatch.setattr(replication, "_cpus",
                                lambda: list(range(cpus)))
            assert map_replications(abs, [-1, -2], 64) == [1, 2]
            assert (map_replications(abs, range(-20, 0), 64)
                    == list(range(20, 0, -1)))
            assert (map_replications(abs, range(-20, 0), 2)
                    == list(range(20, 0, -1)))
        assert threads == [2, 3, 2, 1, 1, 1]

    def test_one_worker_or_one_unit_runs_in_process(self):
        """On the calling thread, which starts no other."""
        here = threading.get_ident()

        def thread(unit):
            return threading.get_ident()

        assert map_replications(thread, range(3), 1) == [here] * 3
        assert map_replications(thread, [0], 8) == [here]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_units_rejected(self, threads, workers):
        with pytest.raises(ValueError,
                           match="replications must be at least 1"):
            map_replications(abs, [], workers)
        assert threads == []

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, threads, workers):
        with pytest.raises(ValueError, match=f"^workers={workers} is below "
                                             "1$"):
            map_replications(abs, [-1, -2], workers)
        assert threads == []

    def test_pool_returns_unit_order(self, monkeypatch):
        """Blocks on helper threads of the thread pool come back in unit
        order, each placed on a (faked) CPU of its own."""
        used = force_parts(monkeypatch, 3)
        for workers in (2, 3):
            assert (map_replications(abs, range(-30, 0), workers)
                    == list(range(30, 0, -1)))
        assert used == [2, 3]

    def test_helper_error_is_raised_in_the_caller(self, monkeypatch):
        force_parts(monkeypatch, 2)
        ran = {}

        def job(unit):
            ran[unit] = threading.get_ident()
            if unit == 3:       # the last unit of block 1, on a helper
                raise KeyError(unit)
            return unit

        with pytest.raises(KeyError):
            map_replications(job, range(4), 2)
        assert ran[3] != threading.get_ident() == ran[0]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="the OS keeps no affinity masks")
    def test_each_block_runs_on_a_cpu_of_its_own(self, monkeypatch):
        """With the real masks: each block runs under one CPU of the
        caller's set alone, the two blocks on different CPUs, a graph
        sampled in a unit uses one part, and the caller's mask comes
        back."""
        before = os.sched_getaffinity(0)
        if len(before) < 2:
            pytest.skip("one CPU runs one block")
        monkeypatch.setattr(graphs, "_PAIR_CHUNK", 1000)
        on_threads = replication._on_threads
        parts = []

        def recording(job, count):
            parts.append(count)
            return on_threads(job, count)

        monkeypatch.setattr(replication, "_on_threads", recording)

        def job(unit):
            mask = frozenset(os.sched_getaffinity(0))
            experiments.draw_graph(PARETO, 120, 8, unit)
            return mask

        masks = map_replications(job, range(4), 2)
        assert os.sched_getaffinity(0) == before
        assert masks[0] == masks[1] != masks[2] == masks[3]
        assert all(len(mask) == 1 and mask <= before for mask in masks)
        # the map's two blocks, then one part for each unit's sampler
        assert parts == [2] + [1] * 4

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_census_loads_a_process_pool(self, workers):
        code = textwrap.dedent(f"""\
            import sys
            from grgcycles.experiments import ExperimentConfig, run_census
            from grgcycles.weights import WeightSpec
            run_census(ExperimentConfig(
                spec=WeightSpec.pareto_shifted(9.5, 10, 1), n=60, k=3,
                replications=3, workers={workers}))
            print("multiprocessing" in sys.modules,
                  "concurrent.futures.process" in sys.modules)
            """)
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False False\n"


class TestCensusRunner:
    def test_small_census(self, tmp_path):
        cfg = ExperimentConfig(spec=PARETO, n=40, k=3, replications=30,
                               seed=2, output_dir=str(tmp_path))
        result = run_census(cfg)
        assert result.pmf.total == 30
        assert len(result.counts) == 30
        # summary mean must equal the pmf's own mean exactly
        assert result.summary["mean"] == result.pmf.mean()
        counts_csv = tmp_path / "census_n40_k3_seed2_counts.csv"
        assert counts_csv.exists()
        rows = counts_csv.read_text().splitlines()
        assert rows[0] == "replication,k,count"
        assert len(rows) == 31
        summary = json.loads(
            (tmp_path / "census_n40_k3_seed2_summary.json").read_text())
        assert summary["replications"] == 30
        assert 0 <= summary["tv_sup"] <= 2

    def test_workers_do_not_change_results(self, tmp_path):
        base = ExperimentConfig(spec=PARETO, n=30, k=3, replications=16, seed=4)
        seq = run_census(base)
        par = run_census(ExperimentConfig(spec=PARETO, n=30, k=3,
                                          replications=16, seed=4, workers=3))
        assert seq.counts == par.counts
        assert seq.summary == par.summary

    def test_undefined_summary_values_are_json_null(self, tmp_path):
        # constant weights 0.5 close no 5-cycle on 12 vertices: the mean is
        # 0, so the dispersion and the Q-Q correlation are undefined
        cfg = ExperimentConfig(spec=WeightSpec.constant(0.5), n=12, k=5,
                               replications=5, output_dir=str(tmp_path))
        result = run_census(cfg)
        assert math.isnan(result.summary["dispersion"])
        assert math.isnan(result.summary["qq_correlation"])

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        text = (tmp_path / "census_n12_k5_seed0_summary.json").read_text()
        summary = json.loads(text, parse_constant=reject)
        assert summary["dispersion"] is None
        assert summary["qq_correlation"] is None
        assert summary["mean"] == 0.0

    def test_infinite_moment_fails_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a graph before the reference law")
        monkeypatch.setattr(experiments, "sample_grg", no_sampling)
        cfg = ExperimentConfig(spec=WeightSpec.pareto_shifted(1.8, 10, 1),
                               n=2000, k=3, replications=8)
        with pytest.raises(InfiniteMomentError, match="shape 1.8"):
            run_census(cfg)


class TestBoundsRunner:
    def test_er_grid_matches_closed_form(self, config_file, tmp_path):
        cfg = load_config(config_file, "bounds", {"output_dir": str(tmp_path)})
        result = run_bounds(cfg)
        for n, report in result.reports:
            i3 = candidate_count(n, 3)
            p = 6.0 / n
            assert report.b1 == pytest.approx(i3 * (3 * n - 8) * p ** 6,
                                              rel=1e-10)
            assert report.b2 == pytest.approx(i3 * 3 * (n - 3) * p ** 5,
                                              rel=1e-10)
        assert result.fit is not None
        assert -1.2 <= result.fit.slope <= -0.8
        terms = (tmp_path / "bounds_k3_seed9_terms.csv").read_text().splitlines()
        assert terms[0] == "n,replication,b1,b2,conditional_mean"
        assert len(terms) == 1 + 4 * 2

    def test_needs_grid(self):
        with pytest.raises(ValueError):
            run_bounds(ExperimentConfig(spec=PARETO))

    @pytest.mark.parametrize("k,grid", [(3, (12, 20)), (4, (7, 8))])
    def test_starts_no_process_pool(self, threads, k, grid):
        """The replications run on this thread, one at a time, and no
        thread map runs, also when the configuration carries a worker
        count for the census."""
        cfg = ExperimentConfig(spec=PARETO, k=k, n_grid=grid,
                               replications=3, seed=5, workers=2)
        assert len(run_bounds(cfg).rows) == 3 * len(grid)
        assert threads == []

    def test_csv_columns_are_the_bound_terms(self, tmp_path):
        cfg = ExperimentConfig(spec=PARETO, k=3, n_grid=(12, 20),
                               replications=2, seed=1,
                               output_dir=str(tmp_path))
        run_bounds(cfg)
        lines = (tmp_path / "bounds_k3_seed1_terms.csv").read_text()
        lines = lines.splitlines()
        assert lines[0].split(",") == ["n", "replication",
                                       *BoundTerms._fields]
        _, terms = bound_report(PARETO, 20, 3, 2, 1)
        assert lines[-1] == ",".join(["20", "1", *map(repr, terms[1])])

    def test_er_grid_needs_no_family(self, config_file):
        with_family = run_bounds(load_config(config_file, "bounds"))
        no_family = run_bounds(load_config(None, "bounds", {
            "k": "3", "replications": "2", "seed": "9",
            "n_grid": "10,20,40,80", "er_lambda": "6.0"}))
        assert no_family.summary == with_family.summary

    def test_er_spec_guard(self):
        with pytest.raises(ValueError, match=r"er_lambda=10\.0 is not below n=10"):
            er_constant_spec(10, 10.0)
        with pytest.raises(ValueError, match=r"er_lambda=0\.0 is not positive"):
            er_constant_spec(10, 0.0)

    @pytest.mark.parametrize("k,grid,named", [
        (3, (2,), "n_grid=2"), (4, (4, 3), "n_grid=4,3"),
        (5, (8, 4, 6), "n_grid=8,4,6"),
    ])
    def test_size_below_k_fails_before_any_bound(self, monkeypatch, k, grid,
                                                 named):
        def no_bounds(*args, **kwargs):
            raise AssertionError("a bound ran before the grid was checked")

        monkeypatch.setattr(experiments, "bound_report", no_bounds)
        cfg = ExperimentConfig(spec=PARETO, k=k, n_grid=grid, replications=1)
        with pytest.raises(ValueError, match=f"^{named} holds a size below "
                                             f"k={k}$"):
            run_bounds(cfg)

    def test_bad_er_lambda_fails_before_any_bound(self, monkeypatch):
        def no_bounds(*args, **kwargs):
            raise AssertionError("a bound ran before the grid was checked")

        monkeypatch.setattr(experiments, "bound_report", no_bounds)
        cfg = ExperimentConfig(spec=WeightSpec.constant(1.0), k=3,
                               replications=1, seed=0, n_grid=(80, 4),
                               er_lambda=6.0)
        with pytest.raises(ValueError, match=r"er_lambda=6\.0 is not below n=4"):
            run_bounds(cfg)

    def test_size_past_the_cap_fails_before_any_draw(self, monkeypatch):
        """Every size is checked against the candidate cap before the first
        bound: the last one, past it, stops the study before a weight is
        drawn."""
        drawn = []

        def counting(spec, n, seed):
            drawn.append(n)
            return sample_weights(spec, n, seed)

        monkeypatch.setattr(chen_stein, "sample_weights", counting)
        cfg = ExperimentConfig(spec=PARETO, k=4, n_grid=(8, 10, 12, 300),
                               replications=2, seed=1)
        with pytest.raises(CandidateCapError, match="^[0-9]+ candidate "
                           "4-cycles on n=300 exceed the cap"):
            run_bounds(cfg)
        assert drawn == []
        # the same study without its last size draws, and is counted
        run_bounds(dataclasses.replace(cfg, n_grid=(8, 10, 12)))
        assert drawn == [8, 8, 10, 10, 12, 12]


class TestRatioRunner:
    def test_t_study_with_exact_rows(self, config_file, tmp_path):
        cfg = load_config(config_file, "ratio", {"output_dir": str(tmp_path)})
        result = run_ratio_study(cfg)
        assert len(result.rows) == 4
        assert len(result.exact_rows) == 3      # two-point cross-check rows
        for n, exact, mc, se in result.exact_rows:
            assert abs(mc - exact) <= 5 * se
        files = {Path(f).name for f in result.files}
        assert "ratio_t_p2_seed3_estimates.csv" in files
        assert "ratio_t_p2_seed3_exact.csv" in files

    def test_starts_no_process_pool(self, config_file, monkeypatch):
        """The estimates run on this process's CPUs only, also when the
        configuration carries a worker count for the census: the thread
        maps do not change with it."""
        # chunks of 100 rows at n = 64: every estimate has several chunks
        monkeypatch.setattr(ratios, "_CHUNK_BUDGET", 64 * 100)
        maps = []
        for workers in (1, 2):
            used = force_parts(monkeypatch, 3)
            t_cfg = dataclasses.replace(load_config(config_file, "ratio"),
                                        workers=workers)
            r_cfg = dataclasses.replace(t_cfg, spec=PARETO, p=3,
                                        statistic="r")
            assert run_ratio_study(t_cfg).exact_rows
            assert run_ratio_study(r_cfg).summary["regimes"] == ["sqrt"]
            maps.append(used)
        assert maps[0] == maps[1] and max(maps[0]) == 3

    def test_constant_spec_reports_noise_floor(self):
        cfg = ExperimentConfig(spec=WeightSpec.constant(1.0), p=2,
                               replications=1000, seed=0,
                               n_grid=(8, 16, 32, 64), statistic="t")
        result = run_ratio_study(cfg)
        # all errors are numeric zero: no fit, every point floored
        assert result.fit is None
        assert result.summary["below_noise_floor"] == [8, 16, 32, 64]

    def test_r_study_constant_slope(self):
        cfg = ExperimentConfig(spec=WeightSpec.constant(1.0), p=3,
                               replications=1000, seed=0,
                               n_grid=(64, 128, 256, 512, 1024), statistic="r")
        result = run_ratio_study(cfg)
        assert result.fit is not None
        assert result.fit.slope == pytest.approx(-1.0, abs=1e-9)

    def test_statistic_validation(self):
        cfg = ExperimentConfig(spec=PARETO, n_grid=(8, 16), statistic="x")
        with pytest.raises(ValueError):
            run_ratio_study(cfg)

    @pytest.mark.parametrize("spec,p,listed", [
        (WeightSpec.constant(1.0), 3, ["sqrt", "log"]),
        (WeightSpec.two_point(1, 2, 0.5), 9, ["sqrt", "poly", "log"]),
        (PARETO, 3, ["sqrt"]),
        (WeightSpec.pareto_shifted(4.0, 1, 0), 3, []),
    ])
    def test_r_summary_lists_its_regimes(self, tmp_path, spec, p, listed):
        cfg = ExperimentConfig(spec=spec, p=p, replications=1000,
                               n_grid=(8, 16), statistic="r",
                               output_dir=str(tmp_path))
        result = run_ratio_study(cfg)
        assert result.summary["regimes"] == listed
        summary = json.loads(
            (tmp_path / f"ratio_r_p{p}_seed0_summary.json").read_text())
        assert summary["regimes"] == listed

    def test_t_summary_has_no_regimes(self):
        cfg = ExperimentConfig(spec=PARETO, p=2, replications=1000,
                               n_grid=(8, 16), statistic="t")
        assert set(run_ratio_study(cfg).summary) == {
            "subcommand", "statistic", "p", "replications", "seed", "n_grid",
            "limit", "slope", "intercept", "r_squared", "below_noise_floor",
            "fit_note"}

    def test_regime_is_not_an_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["ratio", "--family", "constant", "--value", "1",
                      "--statistic", "r", "--regime", "log"])
        assert exit_info.value.code == 2
        assert "--regime" in capsys.readouterr().err
        path = tmp_path / "ratio.ini"
        path.write_text("[ratio]\nfamily = constant\nvalue = 1\n"
                        "regime = log\n")
        with pytest.raises(ValueError, match="unknown key 'regime'"):
            load_config(path, "ratio")


class TestThresholdRunner:
    def test_edge_list_file(self, tmp_path):
        graph_path = tmp_path / "k4.txt"
        graph_path.write_text(GrgGraph.complete(4).to_edge_text())
        cfg = ExperimentConfig(spec=WeightSpec.constant(1.0),
                               edge_list=str(graph_path),
                               output_dir=str(tmp_path), seed=3)
        report, files = run_threshold(cfg)
        assert report.radius_estimate == pytest.approx(3.0, abs=1e-9)
        assert files == (str(tmp_path / "threshold_n4_seed3.json"),)
        assert Path(files[0]).exists()

    def test_sampled_graph(self):
        cfg = ExperimentConfig(spec=PARETO, n=60, seed=12)
        report, files = run_threshold(cfg)
        assert files == ()
        assert report.radius_lower_bound <= report.radius_estimate + 1e-6


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "grgcycles", *args],
                          capture_output=True, text=True)


BAD_CENSUS = ["census", "--family", "constant", "--value", "1",
              "--n", "2", "--k", "5"]


class TestCli:
    def test_moments_subcommand(self):
        proc = run_cli("moments", "--family", "pareto_shifted", "--shape",
                       "9.5", "--scale", "10", "--loc", "1", "--k", "5")
        assert proc.returncode == 0
        assert "ratio: 12.32045088566828" in proc.stdout
        assert "tail_condition_k5: False" in proc.stdout

    def test_sample_and_threshold_interop(self, tmp_path):
        proc = run_cli("sample", "--family", "constant", "--value", "8",
                       "--n", "12", "--seed", "4",
                       "--output-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        edge_file = tmp_path / "sample_n12_seed4_edges.txt"
        assert edge_file.exists()
        proc2 = run_cli("threshold", "--edge-list", str(edge_file))
        assert proc2.returncode == 0, proc2.stderr
        assert "radius_estimate" in proc2.stdout

    def test_non_ascii_edge_list_named(self, tmp_path, capsys):
        # a Latin-1 no-break space: not UTF-8, and not the reader's ASCII
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"3 1\n1\xa02\n")
        assert cli.main(["threshold", "--edge-list", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"grgcycles threshold: error: edge list {path}: line 2 "
                "holds the byte 0xa0, which is not ASCII\n")

    @pytest.mark.parametrize("command,message", [
        ("sample", "weights up to 1e+200 overflow float64 in the edge law: "
                   "the largest weight squared is not finite"),
        ("census", "moment of order 2 overflows float64 for constant "
                   "weights with value = 1e+200"),
    ])
    def test_overflowing_weights_named(self, command, message, tmp_path,
                                       capsys):
        assert cli.main([command, "--family", "constant", "--value", "1e200",
                         "--n", "6", "--seed", "0",
                         "--output-dir", str(tmp_path)]) == 2
        assert capsys.readouterr() == (
            "", f"grgcycles {command}: error: {message}\n")
        assert not any(tmp_path.iterdir())

    def test_too_large_a_rate_named(self, tmp_path, capsys):
        # rate 1e300 / 6: its Poisson support would not fit in memory
        assert cli.main(["census", "--family", "constant", "--value", "1e100",
                         "--n", "6", "--k", "3", "--replications", "2",
                         "--output-dir", str(tmp_path)]) == 2
        assert capsys.readouterr() == (
            "", "grgcycles census: error: Poisson rate "
                "1.6666666666666668e+299 is too large: its support would run "
                "to outcome 1.667e+299, past the limit of 10000000 outcomes\n")
        assert not any(tmp_path.iterdir())

    def test_sample_needs_family(self, capsys):
        assert cli.main(["sample", "--n", "12"]) == 2
        assert capsys.readouterr().err == (
            "grgcycles sample: error: section [sample] does not define a "
            "weight family\n")

    def test_census_subcommand(self, config_file, tmp_path):
        proc = run_cli("census", "--config", str(config_file),
                       "--replications", "10", "--output-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "census_n40_k3_seed5_counts.csv").exists()

    @pytest.mark.parametrize("section,extra", [
        ("census", ()),
        ("ratio", ("--n-grid", "64,4096")),
        ("ratio", ("--n-grid", "64,4096", "--statistic", "r", "--p", "3")),
    ])
    def test_outputs_do_not_depend_on_workers(self, config_file, tmp_path,
                                              monkeypatch, section, extra):
        """The same bytes on one census worker and on three; the ratio
        study takes no worker count, so it gives them on one CPU and on
        three."""
        outputs = []
        for count in ("1", "3"):
            outdir = tmp_path / f"w{count}"
            args = (section, "--config", str(config_file), *extra,
                    "--output-dir", str(outdir))
            if section == "ratio":
                used = force_parts(monkeypatch, int(count))
                assert cli.main(list(args)) == 0
                assert max(used) == int(count)
            else:
                proc = run_cli(*args, "--workers", count)
                assert proc.returncode == 0, proc.stderr
            outputs.append({p.name: p.read_bytes()
                            for p in sorted(outdir.iterdir())})
        assert len(outputs[0]) >= 2
        assert outputs[0] == outputs[1]

    def test_error_is_one_line_nonzero(self):
        proc = run_cli("census", "--family", "constant", "--value", "1",
                       "--n", "2", "--k", "5")
        assert proc.returncode != 0
        assert proc.stderr.count("\n") == 1
        assert "error" in proc.stderr

    @pytest.mark.parametrize("value", [None, "", "0"])
    def test_debug_off_prints_one_line(self, monkeypatch, capsys, value):
        if value is None:
            monkeypatch.delenv("GRGCYCLES_DEBUG", raising=False)
        else:
            monkeypatch.setenv("GRGCYCLES_DEBUG", value)
        assert cli.main(BAD_CENSUS) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "n=2 holds a size below k=5" in err

    def test_debug_on_reraises(self, monkeypatch):
        monkeypatch.setenv("GRGCYCLES_DEBUG", "1")
        with pytest.raises(ValueError, match="n=2 holds a size below k=5"):
            cli.main(BAD_CENSUS)

    def test_bad_debug_env_named(self, monkeypatch):
        monkeypatch.setenv("GRGCYCLES_DEBUG", "yes")
        with pytest.raises(ValueError, match="GRGCYCLES_DEBUG='yes'"):
            cli.main(BAD_CENSUS)

    @pytest.mark.parametrize("command", ["ratio", "bounds"])
    @pytest.mark.parametrize("flag,named", [
        ("--n-grid=0,8", "n_grid=0,8"), ("--n-grid=-4,8", "n_grid=-4,8"),
    ], ids=["zero", "negative"])
    def test_grid_sizes_below_one_named(self, capsys, command, flag, named):
        assert cli.main([command, "--family", "constant", "--value", "1",
                         flag, "--replications", "1000"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"grgcycles {command}: error: {named} holds a "
                           "size below 1\n")

    @pytest.mark.parametrize("flags,named", [
        (["--k", "3", "--n-grid", "2"], "n_grid=2 holds a size below k=3"),
        (["--k", "4", "--n-grid", "4,3"],
         "n_grid=4,3 holds a size below k=4"),
    ], ids=["k3", "k4"])
    def test_bounds_sizes_below_k_named(self, capsys, flags, named):
        assert cli.main(["bounds", "--family", "constant", "--value", "1",
                         *flags]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"grgcycles bounds: error: {named}\n"

    @pytest.mark.parametrize("size,flags,message", [
        ("2", ["--k", "3"], "=2 holds a size below k=3"),
        ("10", ["--replications", "0"], "replications must be at least 1"),
    ], ids=["n_below_k", "no_replications"])
    def test_census_and_bounds_share_input_rules(self, capsys, size, flags,
                                                 message):
        """The same text after the size key: census reads n, bounds
        n_grid."""
        errors = []
        for command, key in (("census", "n"), ("bounds", "n_grid")):
            assert cli.main([command, "--family", "constant", "--value", "1",
                             "--" + key.replace("_", "-"), size,
                             *flags]) == 2
            out = capsys.readouterr()
            assert out.out == ""
            errors.append(out.err.removeprefix(f"grgcycles {command}: error: ")
                          .removeprefix(key))
        assert errors == [f"{message}\n"] * 2

    def test_bounds_beyond_the_cap_named(self, capsys):
        assert cli.main(["bounds", "--family", "pareto_shifted", "--shape",
                         "9.5", "--scale", "10", "--loc", "1", "--n-grid",
                         "40", "--k", "4"]) == 2
        assert capsys.readouterr().err == (
            "grgcycles bounds: error: 274170 candidate 4-cycles on n=40 "
            "exceed the cap of 200000 (k = 3 bound terms need no "
            "candidates)\n")

    @pytest.mark.parametrize("argv,message", [
        (["ratio", "--family", "pareto_shifted", "--shape", "nan", "--scale",
          "1", "--loc", "1", "--statistic", "r", "--n-grid", "4,8",
          "--replications", "1000"],
         "pareto_shifted weights: shape = nan is not finite"),
        (["moments", "--family", "pareto_shifted", "--shape", "nan",
          "--scale", "10", "--loc", "1"],
         "pareto_shifted weights: shape = nan is not finite"),
        (["sample", "--family", "empirical", "--values", "1,2", "--probs",
          "nan,0.5", "--n", "5"],
         "empirical weights: probs = nan,0.5 is not finite"),
    ], ids=["ratio", "moments", "sample"])
    def test_non_finite_weight_parameter_named(self, capsys, argv, message):
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"grgcycles {argv[0]}: error: {message}\n"

    @pytest.mark.parametrize("command,flag", [("census", "--bogus"),
                                              ("bounds", "--candidate-cap")])
    def test_unknown_flag_is_one_line(self, capsys, command, flag):
        with pytest.raises(SystemExit) as stop:
            cli.main([command, "--family", "constant", "--value", "1",
                      flag, "500"])
        assert stop.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"grgcycles {command}: error: unrecognized "
                           f"arguments: {flag} 500\n")

    def test_candidate_cap_key_is_unknown(self, tmp_path, capsys):
        path = tmp_path / "cap.ini"
        path.write_text("[bounds]\nfamily = constant\nvalue = 1\n"
                        "candidate_cap = 500\n")
        assert cli.main(["bounds", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "grgcycles bounds: error: unknown key 'candidate_cap' in "
            f"section [bounds] of {path}\n")

    def test_moments_fails_before_printing(self):
        proc = run_cli("moments", "--family", "constant", "--value", "1",
                       "--k", "2")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("grgcycles moments: error: cycle length k "
                               "must be at least 3\n")

    def test_unknown_family_diagnostic(self):
        proc = run_cli("moments", "--family", "lognormal")
        assert proc.returncode == 2
        assert "lognormal" in proc.stderr

    def test_missing_weight_parameter_named(self, capsys):
        assert cli.main(["census", "--family", "pareto_shifted",
                         "--shape", "9.5", "--n", "40"]) == 2
        assert ("error: pareto_shifted weights need 'scale'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["sample", "threshold"])
    def test_two_vertices_ignore_default_k(self, capsys, command):
        assert cli.main([command, "--family", "constant", "--value", "8",
                         "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("2 1\n" if command == "sample" else "n: 2\n")

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_help_lists_every_flag(self, capsys, command):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        flags = re.findall(r"^  (--[a-z0-9-]+)", capsys.readouterr().out,
                           flags=re.M)
        study = ["--replications", "--seed", "--output-dir"]
        assert flags == [
            "--config", "--family", "--value", "--shape", "--scale", "--loc",
            "--x1", "--x2", "--p1", "--values", "--probs",
            *{"moments": ["--k"],
              "sample": ["--n", "--seed", "--output-dir"],
              "census": ["--n", "--k", "--replications", "--seed",
                         "--workers", "--output-dir"],
              "bounds": ["--k", *study, "--n-grid", "--er-lambda"],
              "ratio": ["--p", *study, "--n-grid", "--statistic"],
              "threshold": ["--n", "--seed", "--output-dir", "--edge-list"],
              }[command]]

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_unread_key_is_rejected(self, tmp_path, capsys, command):
        """The first key the command does not read fails as a flag and as
        an INI key: exit 2, one stderr line, nothing on stdout."""
        key = next(key for key in experiments.CONFIG_KEYS
                   if key not in experiments.COMMAND_KEYS[command])
        value = KEY_SETTINGS[key][key]
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as stop:
            cli.main([command, "--family", "constant", "--value", "1",
                      flag, value])
        assert stop.value.code == 2
        assert capsys.readouterr() == (
            "", f"grgcycles {command}: error: unrecognized arguments: "
                f"{flag} {value}\n")
        path = tmp_path / "unread.ini"
        path.write_text(f"[{command}]\nfamily = constant\nvalue = 1\n"
                        f"{key} = {value}\n")
        assert cli.main([command, "--config", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"grgcycles {command}: error: unknown key {key!r} in "
                f"section [{command}] of {path}\n")

    def test_default_section_keys_belong_to_every_section(self, tmp_path):
        path = tmp_path / "default.ini"
        path.write_text("[DEFAULT]\nseed = 3\n"
                        "[moments]\nfamily = constant\nvalue = 1\n"
                        "[sample]\nfamily = constant\nvalue = 1\n")
        assert load_config(path, "sample").seed == 3
        with pytest.raises(ValueError, match="unknown key 'seed' in section "
                                             r"\[moments\]"):
            load_config(path, "moments")

    @pytest.mark.parametrize("command,flags,named", [
        ("bounds", ["--family", "constant", "--value", "1", "--er-lambda",
                    "6", "--n-grid", "10,20"], "'family' and 'er_lambda'"),
        ("threshold", ["--family", "constant", "--value", "1",
                       "--edge-list", "g.txt"], "'family' and 'edge_list'"),
        ("threshold", ["--edge-list", "g.txt", "--n", "5"],
         "'n' and 'edge_list'"),
    ], ids=["bounds", "threshold-weights", "threshold-n"])
    def test_two_graph_sources_named(self, capsys, command, flags, named):
        assert cli.main([command, *flags]) == 2
        assert capsys.readouterr() == (
            "", f"grgcycles {command}: error: section [{command}] sets both "
                f"{named}: give one graph source\n")

    @pytest.mark.parametrize("command", ["bounds", "ratio"])
    def test_repeated_size_named(self, capsys, command):
        assert cli.main([command, "--family", "constant", "--value", "1",
                         "--n-grid", "10,10,20,40",
                         "--replications", "1000"]) == 2
        assert capsys.readouterr() == (
            "", f"grgcycles {command}: error: n_grid=10,10,20,40 repeats the "
                "size 10\n")

    @pytest.mark.parametrize("command,size", [("census", ["--n", "10"])])
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_named(self, capsys, command, size, workers):
        assert cli.main([command, "--family", "constant", "--value", "1",
                         *size, "--replications", "1000",
                         "--workers", workers]) == 2
        assert capsys.readouterr() == (
            "", f"grgcycles {command}: error: workers={workers} is below 1\n")

    def test_ratio_workers_flag_refused(self, capsys):
        """The ratio study runs on every CPU at any setting, so it reads no
        workers key."""
        with pytest.raises(SystemExit) as stop:
            cli.main(["ratio", "--family", "constant", "--value", "1",
                      "--n-grid", "10", "--replications", "1000",
                      "--workers", "2"])
        assert stop.value.code == 2
        assert capsys.readouterr() == (
            "", "grgcycles ratio: error: unrecognized arguments: "
                "--workers 2\n")

    def test_bounds_workers_flag_refused(self, capsys):
        """A bound study runs its replications in this process, so it reads
        no workers key."""
        with pytest.raises(SystemExit) as stop:
            cli.main(["bounds", "--family", "constant", "--value", "1",
                      "--n-grid", "10", "--workers", "2"])
        assert stop.value.code == 2
        assert capsys.readouterr() == (
            "", "grgcycles bounds: error: unrecognized arguments: "
                "--workers 2\n")

    def test_bounds_workers_ini_key_refused(self, tmp_path, capsys):
        path = tmp_path / "bounds.ini"
        path.write_text("[bounds]\nfamily = constant\nvalue = 1\n"
                        "n_grid = 10\nworkers = 2\n")
        assert cli.main(["bounds", "--config", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"grgcycles bounds: error: unknown key 'workers' in section "
                f"[bounds] of {path}\n")

    def test_ratio_workers_ini_key_refused(self, tmp_path, capsys):
        path = tmp_path / "ratio.ini"
        path.write_text("[ratio]\nfamily = constant\nvalue = 1\n"
                        "n_grid = 10\nreplications = 1000\nworkers = 2\n")
        assert cli.main(["ratio", "--config", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"grgcycles ratio: error: unknown key 'workers' in section "
                f"[ratio] of {path}\n")

    @pytest.mark.parametrize("args,names", [
        (["census", "--family", "constant", "--value", "2", "--n", "12",
          "--replications", "3", "--seed", "1"],
         ["census_n12_k3_seed1_counts.csv", "census_n12_k3_seed1_pmf.csv",
          "census_n12_k3_seed1_qq.csv", "census_n12_k3_seed1_summary.json"]),
        (["bounds", "--family", "constant", "--value", "1", "--n-grid", "8,12",
          "--seed", "2"],
         ["bounds_k3_seed2_summary.json", "bounds_k3_seed2_terms.csv"]),
        (["ratio", "--family", "two_point", "--x1", "1", "--x2", "2",
          "--p1", "0.5", "--n-grid", "8,16", "--replications", "1000"],
         ["ratio_t_p2_seed0_estimates.csv", "ratio_t_p2_seed0_exact.csv",
          "ratio_t_p2_seed0_summary.json"]),
        (["ratio", "--family", "constant", "--value", "1", "--n-grid", "8,16",
          "--statistic", "r", "--p", "3", "--replications", "1000"],
         ["ratio_r_p3_seed0_estimates.csv", "ratio_r_p3_seed0_summary.json"]),
        (["sample", "--family", "constant", "--value", "8", "--n", "12",
          "--seed", "4"],
         ["sample_n12_seed4_edges.txt"]),
        (["threshold", "--family", "constant", "--value", "8", "--n", "12",
          "--seed", "4"],
         ["threshold_n12_seed4.json"]),
    ])
    def test_output_file_names(self, tmp_path, capsys, args, names):
        outdir = tmp_path / "out"
        assert cli.main([*args, "--output-dir", str(outdir)]) == 0
        assert sorted(p.name for p in outdir.iterdir()) == names
        out = capsys.readouterr().out
        wrote = [line.split()[1] for line in out.splitlines()
                 if line.startswith("wrote ")]
        assert wrote == [str(outdir / name) for name in names]


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(lang):
    """The bodies of the README's fenced ``lang`` code blocks."""
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(),
                      re.M | re.S)


class TestReadme:
    """The README's examples stay in step with the command line."""

    def test_command_examples_parse(self):
        lines = "".join(readme_blocks("bash")).replace("\\\n", " ")
        examples = [shlex.split(line)[1:] for line in lines.splitlines()
                    if line.startswith("grgcycles ")]
        assert {argv[0] for argv in examples} == set(cli._COMMANDS)
        for argv in examples:
            _, unknown = cli.build_parser().parse_known_args(argv)
            assert unknown == [], argv

    def test_config_example_loads(self, tmp_path):
        (block,) = [b for b in readme_blocks("ini")
                    if b.startswith("# experiments.ini")]
        path = tmp_path / "experiments.ini"
        path.write_text(block)
        cfg = load_config(path, "census")
        assert (cfg.spec, cfg.n, cfg.replications) == (PARETO, 2000, 400)
