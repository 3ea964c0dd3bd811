"""Experiment harness: configuration, studies and their output files.

The census runs on the one replication map of :mod:`.replication`, which
this module re-exports with ``replication_seed``: at most ``workers``
threads and one per CPU, each on a CPU of its own.  Reproducibility
contract: every replication draws from generators seeded by
``SeedSequence(master_seed, spawn_key=(replication, stream))`` with stream 0
for weights and stream 1 for the graph.  A census unit is one replication,
whose count does not depend on the thread that computes it; the counts
come back in unit order and are aggregated in that order, so the outputs
are byte-identical for any worker count.  The bound and ratio studies take
no worker count.  A bound study runs its replications in this process,
one at a time (:func:`.chen_stein.bound_report`); each Monte Carlo
estimate of the ratio study runs its chunks on every CPU of this process
(:mod:`.ratios`), with the same bytes for any CPU count.

Every config key is listed once, in ``CONFIG_KEYS`` (the weight
parameters by ``weights._PARAMETERS``), and each command's keys once, in
``COMMAND_KEYS``: ``load_config`` reads and converts exactly those keys,
and the command line builds one ``--flag`` per key from them.
Every output file goes through ``write_outputs``; file names embed the
subcommand, size parameters and master seed, data goes to CSV and summaries
to JSON.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple

from .chen_stein import BoundTerms, _refuse_past_cap, bound_report
from .cycles import count_k_cycles
from .graphs import GrgGraph, sample_grg
from .poisson import EmpiricalPmf, QqTable, poisson_rate, qq_table, tv_distance
from .ratios import (estimate_r_moment, estimate_t_moment, exact_t_moment,
                     rate_fit, regimes)
from .replication import map_replications, replication_seed
from .spectral import ThresholdReport, threshold_report
from .weights import _PARAMETERS, WeightSpec, analytic_moments, sample_weights

__all__ = [
    "CONFIG_KEYS",
    "COMMAND_KEYS",
    "ExperimentConfig",
    "replication_seed",
    "map_replications",
    "load_config",
    "draw_graph",
    "write_outputs",
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
    """One experiment's knobs; identical config + seed means identical output.

    ``spec`` is None when no weight family is given; a study that draws
    weights asks for it through ``weight_spec``.
    """

    spec: Optional[WeightSpec]
    n: int = 0
    k: int = 3
    p: int = 2
    replications: int = 1
    seed: int = 0
    output_dir: Optional[str] = None
    workers: int = 1
    n_grid: tuple = ()
    statistic: str = "t"
    er_lambda: Optional[float] = None
    edge_list: Optional[str] = None

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} is negative")

    def weight_spec(self) -> WeightSpec:
        """The weight family, for a study that draws weights."""
        if self.spec is None:
            raise ValueError("the configuration does not define a weight "
                             "family")
        return self.spec


# ---------------------------------------------------------------------------
# Configuration files: INI sections per subcommand, flag overrides win
# ---------------------------------------------------------------------------

def _parse_grid(text: str) -> tuple:
    # int() strips the spaces around a comma field and refuses an empty one
    return tuple(int(field) for field in text.split(","))


# key -> (converter, or None for a weight parameter; --flag help), flag order
CONFIG_KEYS = {
    "family": (None, "weight family override"),
    **{key: (None, text) for parameters in _PARAMETERS.values()
       for key, text in parameters.items()},
    "n": (int, "vertex / sample count"),
    "k": (int, "cycle length"),
    "p": (int, "ratio statistic power"),
    "replications": (int, "number of replications"),
    "seed": (int, "master seed"),
    "workers": (int, "census worker threads (at least 1, at most one per "
                     "CPU)"),
    "output_dir": (str, "output directory"),
    "n_grid": (_parse_grid, "comma separated n grid for studies"),
    "statistic": (str, "ratio statistic: t or r"),
    "er_lambda": (float, "per-n constant-weight calibration for bounds"),
    "edge_list": (str, "edge-list file for the threshold subcommand"),
}
_STUDY_KEYS = ("replications", "seed", "output_dir")
# command -> the keys it reads, in flag order: every weight key, then its own
COMMAND_KEYS = {command: (*(key for key, (convert, _) in CONFIG_KEYS.items()
                            if convert is None), *own)
                for command, own in {
    "moments": ("k",),
    "sample": ("n", "seed", "output_dir"),
    "census": ("n", "k", "replications", "seed", "workers", "output_dir"),
    "bounds": ("k", *_STUDY_KEYS, "n_grid", "er_lambda"),
    "ratio": ("p", *_STUDY_KEYS, "n_grid", "statistic"),
    "threshold": ("n", "seed", "output_dir", "edge_list"),
}.items()}
_KINDS = {int: "an integer", float: "a number",
          _parse_grid: "a comma separated list of integers"}


def load_config(path, section: str,
                overrides: Optional[dict] = None) -> ExperimentConfig:
    """Read one command's INI section, applying flag overrides: only the
    command's keys (an INI key or override it does not read is an error),
    and exactly one graph source."""
    import configparser

    keys = COMMAND_KEYS[section]
    merged: dict = {}
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise FileNotFoundError(f"cannot read config file {path}")
        if parser.has_section(section):
            merged.update({k: v for k, v in parser.items(section)})
        unknown = sorted(set(merged) - set(keys))
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r} in section "
                             f"[{section}] of {path}")
    for key, value in (overrides or {}).items():
        if key not in keys:
            raise ValueError(f"unknown key {key!r} for command {section}")
        if value is not None:
            merged[key] = value
    kwargs = {}
    for key in keys:
        convert = CONFIG_KEYS[key][0]
        if convert is not None and key in merged:
            try:
                kwargs[key] = convert(merged[key])
            except ValueError:
                raise ValueError(f"{key} = {merged[key]!r} in [{section}] "
                                 f"is not {_KINDS[convert]}") from None
    spec_map = {key: str(merged[key]) for key in keys
                if CONFIG_KEYS[key][0] is None and key in merged}
    # exactly one graph source: weights (drawn on n vertices), the ER
    # calibration or an edge list
    sources = [key for key in ("er_lambda", "edge_list") if key in kwargs]
    if not (spec_map or sources):
        raise ValueError(f"section [{section}] does not define a weight family")
    sampled = [*spec_map, "n"] if "n" in kwargs else [*spec_map]
    sources = sampled[:1] + sources
    if len(sources) > 1:
        raise ValueError(f"section [{section}] sets both {sources[0]!r} and "
                         f"{sources[1]!r}: give one graph source")
    spec = WeightSpec.from_mapping(spec_map) if spec_map else None
    return ExperimentConfig(spec=spec, **kwargs)


def er_constant_spec(n: int, er_lambda: float) -> WeightSpec:
    """Constant weights calibrated so every edge probability is lambda/n."""
    if not er_lambda > 0:
        raise ValueError(f"er_lambda={er_lambda} is not positive")
    if not er_lambda < n:
        raise ValueError(f"er_lambda={er_lambda} is not below n={n}")
    return WeightSpec.constant(n * er_lambda / (n - er_lambda))


def draw_graph(spec: WeightSpec, n: int, master_seed: int,
               rep: int = 0) -> GrgGraph:
    """Replication ``rep``'s graph: weights from stream 0, edges from 1."""
    weights = sample_weights(spec, n, replication_seed(master_seed, rep, 0))
    return sample_grg(weights, replication_seed(master_seed, rep, 1))


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Comma separated lines; floats as their ``repr``."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def _json_safe(value):
    """``value`` with every non-finite float, which JSON cannot hold,
    replaced by None (``null``)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def json_text(record: dict) -> str:
    return json.dumps(_json_safe(record), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def write_outputs(output_dir: Optional[str], files: dict) -> tuple:
    """Write ``{name: text}`` into ``output_dir``, if set; sorted paths."""
    if output_dir is None:
        return ()
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in files.items():
        path = out / name
        path.write_text(text)
        paths.append(str(path))
    return tuple(sorted(paths))


def _fit_record(fit, prefix: str = "") -> dict:
    """A rate fit's slope, intercept and r_squared (``None`` without a fit)."""
    return {prefix + name: None if fit is None else getattr(fit, name)
            for name in ("slope", "intercept", "r_squared")}


def _grid(key: str, grid: tuple, k: int = 0) -> tuple:
    """The study's sizes ``grid``, read from ``key``: each at least 1, at
    least the cycle length ``k`` if one is given, and none twice."""
    if not grid:
        raise ValueError(f"{key} is empty")
    named = f"{key}={','.join(map(str, grid))}"
    if min(grid) < 1:
        raise ValueError(f"{named} holds a size below 1")
    if min(grid) < k:
        raise ValueError(f"{named} holds a size below k={k}")
    repeated = [n for i, n in enumerate(grid) if n in grid[:i]]
    if repeated:
        raise ValueError(f"{named} repeats the size {repeated[0]}")
    return grid


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


def run_census(cfg: ExperimentConfig) -> CensusResult:
    """Sample weights and a graph per replication and census the k-cycles."""
    _grid("n", (cfg.n,), cfg.k)
    # the reference law and its support first: a spec without the law, or a
    # rate too large for the support, fails before any sampling
    spec = cfg.weight_spec()
    model = poisson_rate(analytic_moments(spec).ratio, cfg.k)
    model.support

    def census(rep):
        return count_k_cycles(draw_graph(spec, cfg.n, cfg.seed, rep),
                              cfg.k).count

    counts = tuple(map_replications(census, range(cfg.replications),
                                    cfg.workers))
    pmf = EmpiricalPmf(Counter(counts))
    table = qq_table(pmf, model, DEFAULT_QQ_LEVELS)
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
    stem = f"census_n{cfg.n}_k{cfg.k}_seed{cfg.seed}"
    files = write_outputs(cfg.output_dir, {
        f"{stem}_counts.csv": csv_text(
            ("replication", "k", "count"),
            [(rep, cfg.k, c) for rep, c in enumerate(counts)]),
        f"{stem}_pmf.csv": csv_text(("outcome", "count"), pmf.to_csv_rows()),
        f"{stem}_qq.csv": csv_text(("level", "empirical_q", "poisson_q"),
                                   table.rows),
        f"{stem}_summary.json": json_text(summary),
    })
    return CensusResult(pmf=pmf, counts=counts, summary=summary, qq=table,
                        files=files)


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
    grid = _grid("n_grid", cfg.n_grid, cfg.k)
    # every n's calibration and candidate count first: a bad er_lambda, or
    # a size past the candidate cap, fails before any bound
    specs = [cfg.weight_spec() if cfg.er_lambda is None
             else er_constant_spec(n, cfg.er_lambda) for n in grid]
    for n in grid:
        _refuse_past_cap(n, cfg.k)
    reports = []
    all_rows = []
    for n, spec_n in zip(grid, specs):
        report, terms = bound_report(spec_n, n, cfg.k, cfg.replications,
                                     cfg.seed)
        reports.append((n, report))
        all_rows.extend((n, rep, *row) for rep, row in enumerate(terms))
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
        **_fit_record(fit, "sum_"),
    }
    stem = f"bounds_k{cfg.k}_seed{cfg.seed}"
    files = write_outputs(cfg.output_dir, {
        f"{stem}_terms.csv": csv_text(
            ("n", "replication", *BoundTerms._fields), all_rows),
        f"{stem}_summary.json": json_text(summary),
    })
    return BoundsResult(reports=tuple(reports), rows=tuple(all_rows), fit=fit,
                        summary=summary, files=files)


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
    estimate itself, and its summary lists the ``regimes`` of its decay
    that the law's tail admits (:func:`.ratios.regimes`).  Points whose
    error falls below ten standard errors are below the Monte Carlo noise
    floor: excluded from the fit, reported.
    """
    grid = _grid("n_grid", cfg.n_grid)
    if cfg.statistic not in ("t", "r"):
        raise ValueError("statistic must be 't' or 'r'")
    spec = cfg.weight_spec()
    # the one choice of statistic: its estimator, its limit, the sizes of
    # its exact two-point values and its own summary keys
    if cfg.statistic == "t":
        estimate, own = estimate_t_moment, {}
        limit = analytic_moments(spec).ratio ** cfg.p
        exact_grid = (2, 5, 10) if spec.family == "two_point" else ()
    else:
        estimate, limit, exact_grid = estimate_r_moment, 0.0, ()
        own = {"regimes": list(regimes(spec, cfg.p))}
    rows = []
    fit_points = []
    floored = []
    for idx, n in enumerate(grid):
        est = estimate(spec, n, cfg.p, cfg.replications,
                       replication_seed(cfg.seed, idx, 2))
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
    for n in exact_grid:
        est = estimate(spec, n, cfg.p, cfg.replications,
                       replication_seed(cfg.seed, n, 3))
        exact_rows.append((n, exact_t_moment(spec, n, cfg.p), est.value,
                           est.std_error))
    summary = {
        "subcommand": "ratio",
        "statistic": cfg.statistic,
        "p": cfg.p,
        "replications": cfg.replications,
        "seed": cfg.seed,
        "n_grid": list(grid),
        "limit": limit,
        **_fit_record(fit),
        "below_noise_floor": floored,
        "fit_note": fit_note,
        **own,
    }
    stem = f"ratio_{cfg.statistic}_p{cfg.p}_seed{cfg.seed}"
    texts = {
        f"{stem}_estimates.csv": csv_text(
            ("n", "estimate", "std_error", "abs_error"), rows),
        f"{stem}_summary.json": json_text(summary),
    }
    if exact_rows:
        texts[f"{stem}_exact.csv"] = csv_text(
            ("n", "exact_value", "mc_value", "mc_std_error"), exact_rows)
    return RatioStudyResult(rows=tuple(rows), exact_rows=tuple(exact_rows),
                            fit=fit, summary=summary,
                            files=write_outputs(cfg.output_dir, texts))


# ---------------------------------------------------------------------------
# Threshold utility
# ---------------------------------------------------------------------------

def _ascii_text(path: Path) -> str:
    """The text of an edge-list file, which holds ASCII only."""
    data = path.read_bytes()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        bad = exc.start
    line = data.count(b"\n", 0, bad) + 1
    raise ValueError(f"edge list {path}: line {line} holds the byte "
                     f"0x{data[bad]:02x}, which is not ASCII")


def run_threshold(cfg: ExperimentConfig) -> Tuple[ThresholdReport, tuple]:
    """Threshold report for an edge-list file or one sampled graph, and the
    files written."""
    if cfg.edge_list:
        graph = GrgGraph.from_edge_text(_ascii_text(Path(cfg.edge_list)))
    else:
        graph = draw_graph(cfg.weight_spec(), cfg.n, cfg.seed)
    report = threshold_report(graph)
    return report, write_outputs(cfg.output_dir, {
        f"threshold_n{graph.n}_seed{cfg.seed}.json":
            json_text(report.to_record())})
