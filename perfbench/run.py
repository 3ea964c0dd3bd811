#!/usr/bin/env python3
"""Benchmark of the grgcycles studies, end to end and per layer.

    python3 perfbench/run.py --workload census_k4 --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  The package is byte-compiled from
``src/`` first; then every process is fresh: one workload process
(``workload.py``) that times the study and checks its results, and one
set-up-only process before it and after each of its rounds (while it waits)
that only imports ``grgcycles`` and runs the warm-up study.  ``setup_s`` is
the median set-up time of all of them, so it samples the machine over the
same stretch of time as the study.  Every time is in reference seconds,
wall time corrected for the machine's drifting speed (see ``speed.py``);
the wall times go to stderr.  BLAS runs ``nproc // MAX_WORKERS`` threads,
so workers x BLAS threads <= nproc.

With ``--trace 0`` the result line carries the ``end_to_end`` metrics of
``BENCHMARK.json``; with ``--trace 1`` its ``per_layer`` metrics.  The
environment, a table of every metric measured and any failed check go to
stderr.  The last stdout line is one JSON object; the exit code is 0 only if
every check passed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path

from workload import PAUSE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_WORKERS = 2
TIME_LIMIT_S = 170.0
_STARTED = []
_STARTED_LOCK = threading.Lock()


def _child_env():
    env = dict(os.environ)
    env.pop("GRGCYCLES_WORKERS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    threads = str(max(1, (os.cpu_count() or 1) // MAX_WORKERS))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _start_child(args, extra, stdin=subprocess.DEVNULL):
    """Start ``workload.py`` in its own session, so that stopping it also
    stops the worker pool it started."""
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), *extra]
    with _STARTED_LOCK:
        proc = subprocess.Popen(cmd, env=_child_env(), cwd=ROOT, stdin=stdin,
                                stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        _STARTED.append(proc)
    return proc


def _stop_all():
    """Stop every started process group that is still running."""
    with _STARTED_LOCK:
        for proc in _STARTED:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()


def _check_exit(proc):
    proc.wait()
    if proc.returncode != 0:
        _stop_all()
        sys.exit(f"workload process failed with exit code {proc.returncode}")


def _setup_time(args):
    proc = _start_child(args, ["--setup-only"])
    line = proc.stdout.readline()
    _check_exit(proc)
    record = json.loads(line)
    return record["setup_s"], record["setup_wall_s"]


def _expire():
    print(f"benchmark exceeded {TIME_LIMIT_S:g} s", file=sys.stderr)
    _stop_all()
    os._exit(1)


def _print_table(values, units):
    for name, value in values.items():
        print(f"  {name:<28} {value:>16.6g} {units.get(name, '')}",
              file=sys.stderr)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "grgcycles" / "__init__.py").is_file():
        sys.exit(f"no grgcycles sources under {ROOT / 'src'}")
    if not compileall.compile_dir(ROOT / "src", quiet=1):
        sys.exit("byte-compiling src/ failed")

    timer = threading.Timer(TIME_LIMIT_S, _expire)
    timer.daemon = True
    timer.start()
    setups = [_setup_time(args)]
    study = _start_child(args, ["--seconds", str(args.seconds)],
                         stdin=subprocess.PIPE)
    # one set-up process in each pause between the study's rounds
    line = study.stdout.readline()
    while line.strip() == PAUSE:
        setups.append(_setup_time(args))
        study.stdin.write("\n")
        study.stdin.flush()
        line = study.stdout.readline()
    _check_exit(study)
    timer.cancel()
    record = json.loads(line)
    setups.append((record["setup_s"], record["setup_wall_s"]))
    setups, setup_walls = zip(*setups)

    end_to_end = {
        "setup_s": statistics.median(setups),
        "study_s": record["study_s"],
        "study_w2_s": record["study_w2_s"],
        "peak_rss_mb": record["peak_rss_mb"],
    }
    attempted = record["attempted"]
    failures = record["failures"]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    print("env " + json.dumps(record["env"], sort_keys=True), file=sys.stderr)
    print(f"{args.workload}: {record['rounds']} rounds, "
          f"{attempted} results checked, {len(failures)} failed "
          f"(fail_frac {len(failures) / attempted:g})", file=sys.stderr)
    for kind, setup_runs, times in (
            ("", setups, record["times"]),
            ("wall ", setup_walls, record["wall_times"])):
        for variant, runs in [("setup", setup_runs), *sorted(times.items())]:
            print(f"  {kind}{variant} s (median {statistics.median(runs):.3f}):"
                  + "".join(f" {t:.3f}" for t in runs), file=sys.stderr)
    _print_table(end_to_end, units)
    measured = end_to_end
    if args.trace:
        _print_table(record["layers"], units)
        measured = record["layers"]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": measured[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
