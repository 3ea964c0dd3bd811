"""Command-line entry points.

Subcommands: moments, sample, census, bounds, ratio, threshold.  Each reads
one INI configuration file (section named after the subcommand) and accepts
flag overrides; flags win over file values.  Exit code 0 on success,
nonzero with a one-line diagnostic otherwise; with ``GRGCYCLES_DEBUG=1``
the error is re-raised with its traceback instead.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .experiments import (ExperimentConfig, load_config, replication_seed,
                          run_bounds, run_census, run_ratio_study,
                          run_threshold)
from .graphs import sample_grg
from .weights import analytic_moments, sample_weights, tail_condition_holds


DEBUG_ENV = "GRGCYCLES_DEBUG"


def _debug_requested() -> bool:
    """Whether GRGCYCLES_DEBUG asks for errors to be re-raised."""
    env = os.environ.get(DEBUG_ENV, "").strip()
    if env not in ("", "0", "1"):
        raise ValueError(f"{DEBUG_ENV}={env!r} is not 0 or 1")
    return env == "1"


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI configuration file")
    sub.add_argument("--family", help="weight family override")
    sub.add_argument("--value", help="constant weight value")
    sub.add_argument("--shape", help="pareto shape")
    sub.add_argument("--scale", help="pareto scale")
    sub.add_argument("--loc", help="pareto location")
    sub.add_argument("--x1", help="two-point first atom")
    sub.add_argument("--x2", help="two-point second atom")
    sub.add_argument("--p1", help="two-point first-atom probability")
    sub.add_argument("--values", help="empirical support (comma separated)")
    sub.add_argument("--probs", help="empirical probabilities (comma separated)")
    sub.add_argument("--n", help="vertex / sample count")
    sub.add_argument("--k", help="cycle length")
    sub.add_argument("--p", help="ratio statistic power")
    sub.add_argument("--replications", help="number of replications")
    sub.add_argument("--seed", help="master seed")
    sub.add_argument("--workers", help="worker count (0 = env/default)")
    sub.add_argument("--output-dir", dest="output_dir", help="output directory")
    sub.add_argument("--candidate-cap", dest="candidate_cap",
                     help="candidate cycle cap for exact bound sums")
    sub.add_argument("--n-grid", dest="n_grid",
                     help="comma separated n grid for studies")
    sub.add_argument("--statistic", help="ratio statistic: t or r")
    sub.add_argument("--regime", help="targeted ratio regime: sqrt/poly/log")
    sub.add_argument("--er-lambda", dest="er_lambda",
                     help="per-n constant-weight calibration for bounds")
    sub.add_argument("--rate-mode", dest="rate_mode",
                     help="conditional rate mode: auto/exact/plugin")
    sub.add_argument("--edge-list", dest="edge_list",
                     help="edge-list file for the threshold subcommand")


_OVERRIDE_KEYS = ("family", "value", "shape", "scale", "loc", "x1", "x2",
                  "p1", "values", "probs", "n", "k", "p", "replications",
                  "seed", "workers", "output_dir", "candidate_cap", "n_grid",
                  "statistic", "regime", "er_lambda", "rate_mode", "edge_list")


def _config_from_args(args: argparse.Namespace,
                      section: str) -> ExperimentConfig:
    overrides = {key: getattr(args, key, None) for key in _OVERRIDE_KEYS}
    return load_config(args.config, section, overrides)


def _cmd_moments(args) -> int:
    cfg = _config_from_args(args, "moments")
    summary = analytic_moments(cfg.spec)
    print(f"family: {cfg.spec.family}")
    print(f"mean: {summary.mean!r}")
    print(f"second_moment: {summary.second_moment!r}")
    print(f"ratio: {summary.ratio!r}")
    print(f"tail_condition_k{cfg.k}: {tail_condition_holds(cfg.spec, cfg.k)}")
    return 0


def _cmd_sample(args) -> int:
    cfg = _config_from_args(args, "sample").validated()
    weights = sample_weights(cfg.spec, cfg.n, replication_seed(cfg.seed, 0, 0))
    graph = sample_grg(weights, replication_seed(cfg.seed, 0, 1))
    text = graph.to_edge_text()
    if cfg.output_dir is not None:
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"sample_n{cfg.n}_seed{cfg.seed}_edges.txt"
        path.write_text(text)
        print(f"wrote {path} ({graph.n} vertices, {graph.m} edges)")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_census(args) -> int:
    result = run_census(_config_from_args(args, "census"))
    for key in ("n", "k", "replications", "mean", "variance", "dispersion",
                "target_rate", "tv_sup", "qq_correlation"):
        print(f"{key}: {result.summary[key]}")
    for path in result.files:
        print(f"wrote {path}")
    return 0


def _cmd_bounds(args) -> int:
    result = run_bounds(_config_from_args(args, "bounds"))
    for n, report in result.reports:
        print(f"n={n}: b1={report.b1!r} b2={report.b2!r} "
              f"conditional_mean={report.conditional_mean!r} "
              f"gap={report.gap!r} mode={report.mode}")
    if result.fit is not None:
        print(f"sum_slope: {result.fit.slope!r}")
    for path in result.files:
        print(f"wrote {path}")
    return 0


def _cmd_ratio(args) -> int:
    result = run_ratio_study(_config_from_args(args, "ratio"))
    for n, est, se, err in result.rows:
        print(f"n={n}: estimate={est!r} std_error={se!r} abs_error={err!r}")
    print(f"fit: {result.summary['fit_note']}", end="")
    if result.fit is not None:
        print(f", slope={result.fit.slope!r}")
    else:
        print()
    for path in result.files:
        print(f"wrote {path}")
    return 0


def _cmd_threshold(args) -> int:
    report = run_threshold(_config_from_args(args, "threshold"))
    for key, value in report.to_record().items():
        print(f"{key}: {value}")
    return 0


_COMMANDS = {
    "moments": _cmd_moments,
    "sample": _cmd_sample,
    "census": _cmd_census,
    "bounds": _cmd_bounds,
    "ratio": _cmd_ratio,
    "threshold": _cmd_threshold,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grgcycles",
        description="Cycle censuses and Poisson-approximation diagnostics "
                    "for weighted random graphs")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub = subs.add_parser(name)
        _add_common(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    debug = _debug_requested()
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        if debug:
            raise
        print(f"grgcycles {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
