"""Run one benchmark workload in this (fresh) process and print one JSON
line with its timings, counts and check results.

    PYTHONPATH=src python3 perfbench/workload.py --workload census_k4 \
        --seed 0 --seconds 25 --trace 0 [--setup-only]

``run.py`` starts this script with the BLAS thread count fixed in the
environment.  Set-up (importing ``grgcycles`` plus one warm-up study at a
tiny size) is timed apart from the studies.  Then rounds of the study at
workers=1 and, if the workload takes workers, at workers=2 (plus a traced
workers=1 study with ``--trace 1``) repeat for ``--seconds`` (a round that
would end later is not started), at least ``MIN_ROUNDS`` times; each timing
is the median over the rounds.  A workload that takes no workers reports its
workers=1 time as ``study_w2_s``.  After each round the script prints
``PAUSE`` and waits for a line on stdin, so that ``run.py`` can time a
set-up process while this one is idle.  Every repeat must give the same
results as the first; those results are then checked against independent
oracles and, for the recorded seeds, against ``reference.json``.

Every time is in reference seconds (see ``speed.py``): wall time corrected
for the machine's drifting speed, sampled while the step runs.  Raw wall
times go into the record as well.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
TRACE_DIR = ROOT / ".bench_out"
MIN_ROUNDS = 3
REFERENCE_REL_TOL = 1e-9
PAUSE = "pause"

# per-layer metric -> span name whose durations it sums per study
LAYER_SECONDS = {
    "weights.sample_s": "weights.sample",
    "graphs.sample_s": "graphs.sample",
    "graphs.text_read_s": "graphs.text_read",
    "graphs.text_write_s": "graphs.text_write",
    "cycles.census_s": "cycles.census",
    "cycles.triangles_s": "cycles.triangles",
    "poisson.summary_s": "poisson.summary",
    "chen_stein.dense_s": "chen_stein.dense",
    "chen_stein.candidates_s": "chen_stein.candidates",
    "ratios.estimate_s": "ratios.estimate",
    "spectral.threshold_s": "spectral.threshold",
    "spectral.power_s": "spectral.power",
}
# per-layer metric -> (span name, percentile) over single calls, in ms
LAYER_PERCENTILES = {
    "graphs.sample_p50_ms": ("graphs.sample", 50),
    "graphs.sample_p90_ms": ("graphs.sample", 90),
    "cycles.census_p50_ms": ("cycles.census", 50),
    "cycles.census_p90_ms": ("cycles.census", 90),
}
LAYER_COUNTS = (
    "graphs.pairs", "graphs.edges", "graphs.wedges", "graphs.max_degree",
    "graphs.text_bytes", "cycles.found", "chen_stein.dense_flops",
    "chen_stein.dense_bytes", "chen_stein.candidates", "ratios.variates",
)


class Checker:
    """Counts checked results and keeps a message for each failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}" if detail else label)

    def compare(self, label, got, want, rel=0.0):
        """Check every leaf of ``got`` against ``want``: integers and
        strings exactly, floats within ``rel`` (NaN equals NaN)."""
        if isinstance(want, (list, tuple, dict)):
            same_shape = (type(got) is type(want) and len(got) == len(want)
                          and (not isinstance(want, dict)
                               or got.keys() == want.keys()))
            if not same_shape:
                self.expect(label, False, f"{got!r} != {want!r}")
                return
            keys = want.keys() if isinstance(want, dict) else range(len(want))
            for key in keys:
                self.compare(f"{label}.{key}", got[key], want[key], rel)
            return
        if isinstance(want, float) or isinstance(got, float):
            ok = (math.isnan(got) and math.isnan(want)
                  or abs(got - want) <= rel * max(abs(got), abs(want)))
        else:
            ok = got == want
        self.expect(label, ok, f"{got!r} != {want!r}")


def _openblas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines()
             if "openblas" in line and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _git_sha():
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args):
    import numpy
    import grgcycles
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "using_numba": grgcycles.USING_NUMBA,
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
    }


def _peak_rss_mb():
    """Peak resident memory so far of this process and of its waited-for
    children (the worker pools, which ``run_census`` shuts down)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _timed(func, *args):
    """Result, reference seconds and wall seconds of one call."""
    gc.collect()
    with SpeedProbe() as probe:
        result = func(*args)
    return result, probe.reference_s, probe.wall_s


def _traced_study(workload, seed, tracer):
    tracer.spans.clear()
    tracer.counts.clear()
    workload.instrument(tracer)

    def study():
        with tracer.span("experiments.study"):
            return workload.study(seed, 1)
    try:
        return _timed(study)
    finally:
        tracer.restore()


def layer_metrics(repeats):
    """Per-layer metrics from the traced repeats.

    ``repeats`` holds, per traced study, (span durations by name, counts,
    study self time).  Per-study sums take the median over repeats;
    percentiles pool the single calls of all repeats.
    """
    import numpy as np
    out = {}
    for metric, span in LAYER_SECONDS.items():
        out[metric] = statistics.median(sum(times.get(span, ()))
                                        for times, _, _ in repeats)
    for metric, (span, q) in LAYER_PERCENTILES.items():
        calls = [d for times, _, _ in repeats for d in times.get(span, ())]
        out[metric] = 1e3 * float(np.percentile(calls, q)) if calls else 0.0
    for name in LAYER_COUNTS:
        out[name] = repeats[0][1].get(name, 0)
    out["experiments.self_s"] = statistics.median(s for _, _, s in repeats)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    with SpeedProbe() as setup:
        import grgcycles
        import studies
        workload = studies.WORKLOADS[args.workload]
        workload.warm_up()
    package = Path(grgcycles.__file__).resolve().parent
    if package != ROOT / "src" / "grgcycles":
        sys.exit(f"grgcycles imported from {package}, not from this checkout")
    if args.setup_only:
        print(json.dumps({"setup_s": setup.reference_s,
                          "setup_wall_s": setup.wall_s}))
        return

    from tracing import Tracer
    tracer = Tracer() if args.trace else None
    checker = Checker()
    times = defaultdict(list)
    wall_times = defaultdict(list)
    traced = []
    first = None
    deadline = perf_counter() + args.seconds
    rounds = 0
    round_s = 0.0
    worker_counts = (1, 2) if workload.takes_workers else (1,)
    # no round is started that would end past the deadline
    while rounds < MIN_ROUNDS or perf_counter() + round_s < deadline:
        round_start = perf_counter()
        # alternate which worker count runs first in a round
        order = worker_counts[::1 if rounds % 2 == 0 else -1]
        for workers in order:
            digest, elapsed, wall = _timed(workload.study, args.seed,
                                           workers)
            times[f"w{workers}"].append(elapsed)
            wall_times[f"w{workers}"].append(wall)
            if first is None:
                first = digest
            else:
                checker.compare(f"repeat.w{workers}", digest, first)
        if tracer is not None:
            digest, elapsed, wall = _traced_study(workload, args.seed,
                                                  tracer)
            times["traced"].append(elapsed)
            wall_times["traced"].append(wall)
            checker.compare("repeat.traced", digest, first)
            # span times in the same reference seconds as the study
            scale = elapsed / wall
            spans = {name: [d * scale for d in durations] for name, durations
                     in tracer.layer_times().items()}
            traced.append((spans, dict(tracer.counts),
                           tracer.study_self_time() * scale))
            if len(traced) > 1:
                checker.compare("repeat.traced_counts", traced[-1][1],
                                traced[0][1])
        if rounds == 0:
            # later rounds only add allocator growth, which varies by run
            peak_rss_mb = _peak_rss_mb()
        rounds += 1
        print(PAUSE, flush=True)
        sys.stdin.readline()
        round_s = perf_counter() - round_start

    workload.oracles(args.seed, first, checker)
    reference = json.loads(REFERENCE.read_text()).get(args.workload, {})
    if str(args.seed) in reference:
        checker.compare("reference", first, reference[str(args.seed)],
                        rel=REFERENCE_REL_TOL)

    study_s = statistics.median(times["w1"])
    study_w2_s = statistics.median(times["w2"]) if "w2" in times else study_s
    record = {
        "env": environment(args),
        "rounds": rounds,
        "times": times,
        "wall_times": wall_times,
        "setup_s": setup.reference_s,
        "setup_wall_s": setup.wall_s,
        "study_s": study_s,
        "study_w2_s": study_w2_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": checker.attempted,
        "failures": checker.failures,
    }
    if tracer is not None:
        layers = layer_metrics(traced)
        layers["experiments.w2_efficiency"] = study_s / (2 * study_w2_s)
        layers["trace.overhead_frac"] = (
            statistics.median(times["traced"]) / study_s - 1)
        record["layers"] = layers
        TRACE_DIR.mkdir(exist_ok=True)
        spans_path = TRACE_DIR / f"trace_{args.workload}_seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"],
             "last_traced_study": tracer.spans}) + "\n")
    print(json.dumps(record))


if __name__ == "__main__":
    main()
