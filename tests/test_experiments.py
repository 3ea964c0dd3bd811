"""Experiment harness: configuration, runners, CLI and determinism."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grgcycles import replication
from grgcycles.cycles import candidate_count
from grgcycles.experiments import (ExperimentConfig, er_constant_spec,
                                   load_config, map_replications,
                                   replication_seed, resolve_workers,
                                   run_bounds, run_census, run_ratio_study,
                                   run_threshold)
from grgcycles.graphs import GrgGraph
from grgcycles.weights import WeightSpec

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
family = constant
value = 1
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
        with pytest.raises(ValueError):
            load_config(config_file, "threshold")

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
        with pytest.raises(ValueError):
            ExperimentConfig(spec=PARETO, n=2, k=4).validated()
        with pytest.raises(ValueError):
            ExperimentConfig(spec=PARETO, n=10, replications=0).validated()


class TestSeeding:
    def test_replication_seed_is_stable(self):
        a = np.random.default_rng(replication_seed(5, 3, 0)).random(4)
        b = np.random.default_rng(replication_seed(5, 3, 0)).random(4)
        c = np.random.default_rng(replication_seed(5, 3, 1)).random(4)
        d = np.random.default_rng(replication_seed(5, 4, 0)).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_worker_resolution(self, monkeypatch):
        monkeypatch.delenv("GRGCYCLES_WORKERS", raising=False)
        assert resolve_workers(0) == 1
        assert resolve_workers(3) == 3
        monkeypatch.setenv("GRGCYCLES_WORKERS", "7")
        assert resolve_workers(0) == 7
        assert resolve_workers(2) == 2

    def test_bad_worker_env_named(self, monkeypatch):
        monkeypatch.setenv("GRGCYCLES_WORKERS", "four")
        with pytest.raises(ValueError, match="GRGCYCLES_WORKERS='four'"):
            resolve_workers(0)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

    requests = []

    def __init__(self, max_workers):
        self.requests.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, job, units, chunksize=1):
        self.requests.append(("chunksize", chunksize))
        return map(job, units)


class TestReplicationMap:
    @pytest.fixture()
    def pool(self, monkeypatch):
        RecordingPool.requests = []
        monkeypatch.setattr(replication, "ProcessPoolExecutor", RecordingPool)
        return RecordingPool.requests

    def test_never_more_processes_than_units(self, pool):
        assert map_replications(abs, [-1, -2], 64) == [1, 2]
        assert map_replications(abs, range(-20, 0), 3) == list(range(20, 0, -1))
        assert pool == [2, ("chunksize", 1), 3, ("chunksize", 7)]

    def test_one_worker_or_one_unit_runs_in_process(self, pool):
        assert map_replications(abs, [-1, -2, -3], 1) == [1, 2, 3]
        assert map_replications(abs, [-4], 8) == [4]
        assert pool == []

    def test_pool_returns_unit_order(self):
        assert map_replications(abs, range(-30, 0), 2) == list(range(30, 0, -1))


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
            assert report.mode == "exact"
        assert result.fit is not None
        assert -1.2 <= result.fit.slope <= -0.8
        terms = (tmp_path / "bounds_k3_seed9_terms.csv").read_text().splitlines()
        assert terms[0] == "n,replication,b1,b2,conditional_mean,mode"
        assert len(terms) == 1 + 4 * 2

    def test_plugin_rate_mode(self):
        cfg = ExperimentConfig(spec=WeightSpec.constant(1.0), k=3,
                               replications=1, seed=0, n_grid=(8, 12),
                               rate_mode="plugin")
        result = run_bounds(cfg)
        for _, report in result.reports:
            assert report.mode == "plugin"
            assert report.conditional_mean == pytest.approx(1 / 6, rel=1e-12)

    def test_needs_grid(self):
        with pytest.raises(ValueError):
            run_bounds(ExperimentConfig(spec=PARETO))

    def test_er_spec_guard(self):
        with pytest.raises(ValueError):
            er_constant_spec(10, 10.0)


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


class TestThresholdRunner:
    def test_edge_list_file(self, tmp_path):
        graph_path = tmp_path / "k4.txt"
        graph_path.write_text(GrgGraph.complete(4).to_edge_text())
        cfg = ExperimentConfig(spec=WeightSpec.constant(1.0),
                               edge_list=str(graph_path),
                               output_dir=str(tmp_path), seed=3)
        report = run_threshold(cfg)
        assert report.radius_estimate == pytest.approx(3.0, abs=1e-9)
        assert (tmp_path / "threshold_n4_seed3.json").exists()

    def test_sampled_graph(self):
        cfg = ExperimentConfig(spec=PARETO, n=60, seed=12)
        report = run_threshold(cfg)
        assert report.radius_lower_bound <= report.radius_estimate + 1e-6


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "grgcycles", *args],
                          capture_output=True, text=True)


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
        proc2 = run_cli("threshold", "--family", "constant", "--value", "1",
                        "--edge-list", str(edge_file))
        assert proc2.returncode == 0, proc2.stderr
        assert "radius_estimate" in proc2.stdout

    def test_census_subcommand(self, config_file, tmp_path):
        proc = run_cli("census", "--config", str(config_file),
                       "--replications", "10", "--output-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "census_n40_k3_seed5_counts.csv").exists()

    @pytest.mark.parametrize("section,extra", [
        ("bounds", ()),
        ("ratio", ("--n-grid", "64,4096")),
        ("ratio", ("--n-grid", "64,4096", "--statistic", "r", "--p", "3")),
    ])
    def test_outputs_do_not_depend_on_workers(self, config_file, tmp_path,
                                              section, extra):
        outputs = []
        for workers in ("1", "3"):
            outdir = tmp_path / f"w{workers}"
            proc = run_cli(section, "--config", str(config_file), *extra,
                           "--workers", workers, "--output-dir", str(outdir))
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

    def test_unknown_family_diagnostic(self):
        proc = run_cli("moments", "--family", "lognormal")
        assert proc.returncode == 2
        assert "lognormal" in proc.stderr
