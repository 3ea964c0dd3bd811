"""Command-line entry points.

Subcommands: moments, sample, census, bounds, ratio, threshold.  Each reads
one INI configuration file (section named after the subcommand) and accepts
flag overrides; flags win over file values.  Each subcommand takes one flag
per key it reads, ``experiments.COMMAND_KEYS[command]`` (``output_dir``
becomes ``--output-dir``), and writes its files through
``experiments.write_outputs``.  Exit code 0 on success, 2 with a one-line
``grgcycles <command>: error: ...`` diagnostic otherwise (a bad flag too);
with ``GRGCYCLES_DEBUG=1`` a command's error is re-raised with its traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

from .experiments import (COMMAND_KEYS, CONFIG_KEYS, ExperimentConfig,
                          draw_graph, load_config, run_bounds, run_census,
                          run_ratio_study, run_threshold, write_outputs)
from .weights import analytic_moments, tail_condition_holds

__all__ = ["build_parser", "main"]

DEBUG_ENV = "GRGCYCLES_DEBUG"


def _debug_requested() -> bool:
    """Whether GRGCYCLES_DEBUG asks for errors to be re-raised."""
    env = os.environ.get(DEBUG_ENV, "").strip()
    if env not in ("", "0", "1"):
        raise ValueError(f"{DEBUG_ENV}={env!r} is not 0 or 1")
    return env == "1"


class _Parser(argparse.ArgumentParser):
    def error(self, message):    # one line, not the usage and the error
        self.exit(2, f"{self.prog}: error: {message}\n")


def _cmd_moments(cfg: ExperimentConfig) -> tuple:
    spec = cfg.weight_spec()
    summary = analytic_moments(spec)
    # before any print: a bad k fails with nothing on stdout
    tail_condition = tail_condition_holds(spec, cfg.k)
    print(f"family: {spec.family}")
    print(f"mean: {summary.mean!r}")
    print(f"second_moment: {summary.second_moment!r}")
    print(f"ratio: {summary.ratio!r}")
    print(f"tail_condition_k{cfg.k}: {tail_condition}")
    return ()


def _cmd_sample(cfg: ExperimentConfig) -> tuple:
    graph = draw_graph(cfg.weight_spec(), cfg.n, cfg.seed)
    text = graph.to_edge_text()
    if cfg.output_dir is None:
        sys.stdout.write(text)
    name = f"sample_n{cfg.n}_seed{cfg.seed}_edges.txt"
    for path in write_outputs(cfg.output_dir, {name: text}):
        print(f"wrote {path} ({graph.n} vertices, {graph.m} edges)")
    return ()


def _cmd_census(cfg: ExperimentConfig) -> tuple:
    result = run_census(cfg)
    for key in ("n", "k", "replications", "mean", "variance", "dispersion",
                "target_rate", "tv_sup", "qq_correlation"):
        print(f"{key}: {result.summary[key]}")
    return result.files


def _cmd_bounds(cfg: ExperimentConfig) -> tuple:
    result = run_bounds(cfg)
    for n, report in result.reports:
        print(f"n={n}: b1={report.b1!r} b2={report.b2!r} "
              f"conditional_mean={report.conditional_mean!r} "
              f"gap={report.gap!r}")
    if result.fit is not None:
        print(f"sum_slope: {result.fit.slope!r}")
    return result.files


def _cmd_ratio(cfg: ExperimentConfig) -> tuple:
    result = run_ratio_study(cfg)
    for n, est, se, err in result.rows:
        print(f"n={n}: estimate={est!r} std_error={se!r} abs_error={err!r}")
    print(f"fit: {result.summary['fit_note']}", end="")
    if result.fit is not None:
        print(f", slope={result.fit.slope!r}")
    else:
        print()
    return result.files


def _cmd_threshold(cfg: ExperimentConfig) -> tuple:
    report, files = run_threshold(cfg)
    for key, value in report.to_record().items():
        print(f"{key}: {value}")
    return files


# each command gets the config of its own INI section, prints its report
# and returns the files it wrote, which ``main`` lists as ``wrote`` lines
# (``sample`` prints its own, with sizes)
_COMMANDS = {
    "moments": _cmd_moments,
    "sample": _cmd_sample,
    "census": _cmd_census,
    "bounds": _cmd_bounds,
    "ratio": _cmd_ratio,
    "threshold": _cmd_threshold,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="grgcycles",
        description="Cycle censuses and Poisson-approximation diagnostics "
                    "for weighted random graphs")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub = subs.add_parser(name, allow_abbrev=False)  # --n is not --n-grid
        sub.add_argument("--config", help="INI configuration file")
        for key in COMMAND_KEYS[name]:
            sub.add_argument("--" + key.replace("_", "-"),
                             help=CONFIG_KEYS[key][1])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:    # the subcommand's parser has passed them on
        parser.exit(2, f"{parser.prog} {args.command}: error: unrecognized "
                       f"arguments: {' '.join(unknown)}\n")
    debug = _debug_requested()
    try:
        cfg = load_config(args.config, args.command,
                          {key: getattr(args, key)
                           for key in COMMAND_KEYS[args.command]})
        for path in _COMMANDS[args.command](cfg):
            print(f"wrote {path}")
        return 0
    except Exception as exc:  # one-line diagnostic, nonzero exit
        if debug:
            raise
        print(f"grgcycles {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
