"""Experiment harness: configuration, studies and their output files.

The census, bound and ratio studies run on the one replication map of
:mod:`.replication`, which this module re-exports with ``replication_seed``
and ``resolve_workers``.
Reproducibility contract: every replication draws from generators seeded by
``SeedSequence(master_seed, spawn_key=(replication, stream))`` with stream 0
for weights and stream 1 for the graph.  The units a study maps are cut so
that no result depends on the process that computes it: one census
replication, one half of a dense bound replication (or a whole candidate
replication), one Monte Carlo chunk of a ratio estimate.  Results come back
in unit order and are aggregated in that order, so the outputs are
byte-identical for any worker count.

Output files embed the subcommand, size parameters and master seed in their
names; data goes to CSV, summaries to JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

from .chen_stein import bound_report
from .cycles import DEFAULT_CANDIDATE_CAP, count_k_cycles
from .graphs import GrgGraph, sample_grg
from .poisson import EmpiricalPmf, QqTable, poisson_rate, qq_table, tv_distance
from .ratios import estimate_r_moment, estimate_t_moment, exact_t_moment, rate_fit
from .replication import map_replications, replication_seed, resolve_workers
from .spectral import ThresholdReport, threshold_report
from .weights import WeightSpec, analytic_moments, sample_weights

__all__ = [
    "ExperimentConfig",
    "replication_seed",
    "resolve_workers",
    "map_replications",
    "load_config",
    "run_census",
    "run_bounds",
    "run_ratio_study",
    "run_threshold",
    "er_constant_spec",
    "CensusResult",
    "BoundsResult",
    "RatioStudyResult",
]

DEFAULT_QQ_LEVELS = tuple((i + 1) / 100 for i in range(99))
NOISE_FLOOR_FACTOR = 10.0


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's knobs; identical config + seed means identical output."""

    spec: WeightSpec
    n: int = 0
    k: int = 3
    p: int = 2
    replications: int = 1
    seed: int = 0
    output_dir: Optional[str] = None
    workers: int = 0
    candidate_cap: int = DEFAULT_CANDIDATE_CAP
    n_grid: tuple = ()
    statistic: str = "t"
    regime: Optional[str] = None
    er_lambda: Optional[float] = None
    rate_mode: str = "auto"
    edge_list: Optional[str] = None
    levels: tuple = DEFAULT_QQ_LEVELS

    def validated(self, need_n: bool = True) -> "ExperimentConfig":
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if need_n and self.n < max(2, self.k):
            raise ValueError(f"n={self.n} is too small for k={self.k}")
        if not self.levels:
            raise ValueError("need at least one quantile level")
        if not all(0 < level < 1 for level in self.levels):
            raise ValueError("quantile levels must lie strictly inside (0,1)")
        return self


# ---------------------------------------------------------------------------
# Configuration files: INI sections per subcommand, flag overrides win
# ---------------------------------------------------------------------------

_SPEC_KEYS = ("family", "value", "shape", "scale", "loc", "x1", "x2", "p1",
              "values", "probs")
_TYPED_KEYS = (("n", int), ("k", int), ("p", int), ("replications", int),
               ("seed", int), ("workers", int), ("candidate_cap", int),
               ("er_lambda", float))
_STRING_KEYS = ("output_dir", "statistic", "regime", "rate_mode", "edge_list")
_KNOWN_KEYS = frozenset(_SPEC_KEYS + tuple(key for key, _ in _TYPED_KEYS)
                        + _STRING_KEYS + ("n_grid",))


def _parse_grid(text: str) -> tuple:
    return tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)


def load_config(path, section: str,
                overrides: Optional[dict] = None) -> ExperimentConfig:
    """Read one subcommand section of an INI file, applying overrides."""
    import configparser

    merged: dict = {}
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise FileNotFoundError(f"cannot read config file {path}")
        if parser.has_section(section):
            merged.update({k: v for k, v in parser.items(section)})
        unknown = sorted(set(merged) - _KNOWN_KEYS)
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r} in section "
                             f"[{section}] of {path}")
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    spec_map = {k: str(merged[k]) for k in _SPEC_KEYS if k in merged}
    spec = WeightSpec.from_mapping(spec_map) if spec_map else None
    if spec is None:
        raise ValueError(f"section [{section}] does not define a weight family")
    kwargs = dict(spec=spec)
    for key, conv in _TYPED_KEYS:
        if key in merged:
            kwargs[key] = conv(merged[key])
    if "n_grid" in merged:
        kwargs["n_grid"] = (_parse_grid(merged["n_grid"])
                            if isinstance(merged["n_grid"], str)
                            else tuple(merged["n_grid"]))
    for key in _STRING_KEYS:
        if key in merged:
            kwargs[key] = merged[key]
    return ExperimentConfig(**kwargs)


def er_constant_spec(n: int, er_lambda: float) -> WeightSpec:
    """Constant weights calibrated so every edge probability is lambda/n."""
    if not 0 < er_lambda < n:
        raise ValueError("er_lambda must lie strictly between 0 and n")
    return WeightSpec.constant(n * er_lambda / (n - er_lambda))


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")


def _outdir(cfg: ExperimentConfig) -> Optional[Path]:
    if cfg.output_dir is None:
        return None
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Census study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CensusResult:
    pmf: EmpiricalPmf
    counts: tuple
    summary: dict
    qq: QqTable
    files: tuple = ()


def _census_replication(spec: WeightSpec, n: int, k: int, master_seed: int,
                        rep: int) -> int:
    weights = sample_weights(spec, n, replication_seed(master_seed, rep, 0))
    graph = sample_grg(weights, replication_seed(master_seed, rep, 1))
    return count_k_cycles(graph, k).count


def run_census(cfg: ExperimentConfig) -> CensusResult:
    """Sample weights and a graph per replication and census the k-cycles."""
    cfg = cfg.validated()
    # the reference law first: a spec without it fails before any sampling
    model = poisson_rate(analytic_moments(cfg.spec).ratio, cfg.k)
    job = partial(_census_replication, cfg.spec, cfg.n, cfg.k, cfg.seed)
    counts = tuple(map_replications(job, range(cfg.replications),
                                    resolve_workers(cfg.workers)))
    pmf = EmpiricalPmf.from_samples(counts)
    table = qq_table(pmf, model, cfg.levels)
    tv_sup = tv_distance(pmf, model)
    mean = pmf.mean()
    variance = pmf.variance()
    std_error = (variance / cfg.replications) ** 0.5
    summary = {
        "subcommand": "census",
        "n": cfg.n,
        "k": cfg.k,
        "replications": cfg.replications,
        "seed": cfg.seed,
        "mean": mean,
        "variance": variance,
        "dispersion": variance / mean if mean else float("nan"),
        "std_error_of_mean": std_error,
        "target_rate": model.lam,
        "mean_minus_target": mean - model.lam,
        "tv_sup": tv_sup,
        "tv_half": tv_sup / 2,
        "qq_correlation": table.correlation(),
    }
    files = []
    out = _outdir(cfg)
    if out is not None:
        stem = f"census_n{cfg.n}_k{cfg.k}_seed{cfg.seed}"
        paths = {
            "counts": out / f"{stem}_counts.csv",
            "pmf": out / f"{stem}_pmf.csv",
            "qq": out / f"{stem}_qq.csv",
            "summary": out / f"{stem}_summary.json",
        }
        write_csv(paths["counts"], ("replication", "k", "count"),
                  [(rep, cfg.k, c) for rep, c in enumerate(counts)])
        write_csv(paths["pmf"], ("outcome", "count"), pmf.to_csv_rows())
        write_csv(paths["qq"], ("level", "empirical_q", "poisson_q"), table.rows)
        write_json(paths["summary"], summary)
        files = sorted(str(p) for p in paths.values())
    return CensusResult(pmf=pmf, counts=counts, summary=summary, qq=table,
                        files=tuple(files))


# ---------------------------------------------------------------------------
# Bound study over an n grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundsResult:
    reports: tuple
    rows: tuple
    fit: Optional[object]
    summary: dict
    files: tuple = ()


def run_bounds(cfg: ExperimentConfig) -> BoundsResult:
    """Bound terms per grid size plus a decay-rate fit of their sum.

    With ``er_lambda`` set, each grid size uses constant weights calibrated
    to edge probability ``er_lambda / n`` (otherwise the configured weight
    spec is reused unchanged at every n).
    """
    grid = cfg.n_grid or ((cfg.n,) if cfg.n else ())
    if not grid:
        raise ValueError("bound study needs n or n_grid")
    workers = resolve_workers(cfg.workers)
    reports = []
    all_rows = []
    for n in grid:
        spec_n = (er_constant_spec(n, cfg.er_lambda)
                  if cfg.er_lambda is not None else cfg.spec)
        report, rows = bound_report(spec_n, n, cfg.k, cfg.replications,
                                    cfg.seed, cap=cfg.candidate_cap,
                                    rate_mode=cfg.rate_mode, workers=workers)
        reports.append((n, report))
        for row in rows:
            all_rows.append((n, row["replication"], row["b1"], row["b2"],
                             row["conditional_mean"], row["mode"]))
    fit = None
    if len(grid) >= 4:
        fit = rate_fit([(n, rep.b1 + rep.b2) for n, rep in reports])
    summary = {
        "subcommand": "bounds",
        "k": cfg.k,
        "replications": cfg.replications,
        "seed": cfg.seed,
        "n_grid": list(grid),
        "er_lambda": cfg.er_lambda,
        "per_n": {str(n): rep.to_record() for n, rep in reports},
        "sum_slope": None if fit is None else fit.slope,
        "sum_intercept": None if fit is None else fit.intercept,
        "sum_r_squared": None if fit is None else fit.r_squared,
    }
    files = []
    out = _outdir(cfg)
    if out is not None:
        stem = f"bounds_k{cfg.k}_seed{cfg.seed}"
        rows_path = out / f"{stem}_terms.csv"
        summary_path = out / f"{stem}_summary.json"
        write_csv(rows_path,
                  ("n", "replication", "b1", "b2", "conditional_mean", "mode"),
                  all_rows)
        write_json(summary_path, summary)
        files = sorted([str(rows_path), str(summary_path)])
    return BoundsResult(reports=tuple(reports), rows=tuple(all_rows), fit=fit,
                        summary=summary, files=tuple(files))


# ---------------------------------------------------------------------------
# Ratio statistic study over an n grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioStudyResult:
    rows: tuple
    exact_rows: tuple
    fit: Optional[object]
    summary: dict
    files: tuple = ()


def run_ratio_study(cfg: ExperimentConfig) -> RatioStudyResult:
    """Estimate the chosen ratio statistic over an n grid and fit its rate.

    Statistic ``"t"`` is compared against its analytic limit
    ``(EW^2/EW)**p``; statistic ``"r"`` decays to zero so its error is the
    estimate itself.  Points whose error falls below ten standard errors
    are below the Monte Carlo noise floor: excluded from the fit, reported.
    """
    grid = cfg.n_grid or ((cfg.n,) if cfg.n else ())
    if not grid:
        raise ValueError("ratio study needs n or n_grid")
    if cfg.statistic not in ("t", "r"):
        raise ValueError("statistic must be 't' or 'r'")
    if cfg.statistic == "t":
        limit = analytic_moments(cfg.spec).ratio ** cfg.p
    else:
        limit = 0.0
    workers = resolve_workers(cfg.workers)
    rows = []
    fit_points = []
    floored = []
    for idx, n in enumerate(grid):
        seed_n = replication_seed(cfg.seed, idx, 2)
        if cfg.statistic == "t":
            est = estimate_t_moment(cfg.spec, n, cfg.p, cfg.replications,
                                    seed_n, workers=workers)
        else:
            est = estimate_r_moment(cfg.spec, n, cfg.p, cfg.replications,
                                    seed_n, regime=cfg.regime,
                                    workers=workers)
        abs_error = abs(est.value - limit)
        rows.append((n, est.value, est.std_error, abs_error))
        if abs_error >= NOISE_FLOOR_FACTOR * est.std_error and abs_error > 0:
            fit_points.append((n, abs_error))
        else:
            floored.append(n)
    if len(fit_points) >= 4:
        fit = rate_fit(fit_points)
        fit_note = "ok"
    else:
        # noise-dominated study: fit everything rather than nothing, but say so
        usable = [(n, err) for n, _, _, err in rows if err > 0]
        fit = rate_fit(usable) if len(usable) >= 4 else None
        fit_note = ("noise floor waived (fit on all positive errors)"
                    if fit is not None
                    else "fewer than 4 positive-error points")
    exact_rows = []
    if cfg.statistic == "t" and cfg.spec.family == "two_point":
        for n in (2, 5, 10):
            est = estimate_t_moment(cfg.spec, n, cfg.p,
                                    max(cfg.replications, 1000),
                                    replication_seed(cfg.seed, n, 3),
                                    workers=workers)
            exact_rows.append((n, exact_t_moment(cfg.spec, n, cfg.p),
                               est.value, est.std_error))
    summary = {
        "subcommand": "ratio",
        "statistic": cfg.statistic,
        "p": cfg.p,
        "replications": cfg.replications,
        "seed": cfg.seed,
        "n_grid": list(grid),
        "limit": limit,
        "slope": None if fit is None else fit.slope,
        "intercept": None if fit is None else fit.intercept,
        "r_squared": None if fit is None else fit.r_squared,
        "below_noise_floor": floored,
        "fit_note": fit_note,
    }
    files = []
    out = _outdir(cfg)
    if out is not None:
        stem = f"ratio_{cfg.statistic}_p{cfg.p}_seed{cfg.seed}"
        rows_path = out / f"{stem}_estimates.csv"
        summary_path = out / f"{stem}_summary.json"
        write_csv(rows_path, ("n", "estimate", "std_error", "abs_error"), rows)
        files = [str(rows_path), str(summary_path)]
        if exact_rows:
            exact_path = out / f"{stem}_exact.csv"
            write_csv(exact_path,
                      ("n", "exact_value", "mc_value", "mc_std_error"),
                      exact_rows)
            files.append(str(exact_path))
        write_json(summary_path, summary)
        files.sort()
    return RatioStudyResult(rows=tuple(rows), exact_rows=tuple(exact_rows),
                            fit=fit, summary=summary, files=tuple(files))


# ---------------------------------------------------------------------------
# Threshold utility
# ---------------------------------------------------------------------------

def run_threshold(cfg: ExperimentConfig) -> ThresholdReport:
    """Threshold report for an edge-list file or one sampled graph."""
    if cfg.edge_list:
        graph = GrgGraph.from_edge_text(Path(cfg.edge_list).read_text())
    else:
        cfg = cfg.validated()
        weights = sample_weights(cfg.spec, cfg.n, replication_seed(cfg.seed, 0, 0))
        graph = sample_grg(weights, replication_seed(cfg.seed, 0, 1))
    report = threshold_report(graph)
    out = _outdir(cfg)
    if out is not None:
        stem = f"threshold_n{graph.n}_seed{cfg.seed}"
        write_json(out / f"{stem}.json", report.to_record())
    return report
