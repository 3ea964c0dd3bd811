"""The benchmark workloads wrap package functions by name.

Every workload in ``perfbench/studies.py`` must be able to wrap each name
it traces and put the originals back, so a refactor that drops or moves one
of those names fails here instead of only in a traced benchmark run.
"""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


studies = load("studies")
Tracer = load("tracing").Tracer


@pytest.mark.parametrize("name", list(studies.WORKLOADS))
def test_instrument_then_restore(name):
    tracer = Tracer()
    studies.WORKLOADS[name].instrument(tracer)
    patched = list(tracer._patches)
    assert patched
    for owner, attr, raw in patched:
        assert vars(owner)[attr] is not raw
    tracer.restore()
    for owner, attr, raw in patched:
        assert vars(owner)[attr] is raw



class CallTracer(Tracer):
    """A tracer that also records which wrapped attributes were called."""

    def __init__(self):
        super().__init__()
        self.called = set()

    def wrap(self, owner, attr, name, observe=None):
        def seen(counts, arguments, result):
            self.called.add((owner, attr))
            if observe is not None:
                observe(counts, arguments, result)
        super().wrap(owner, attr, name, seen)


@pytest.mark.parametrize("name", list(studies.WORKLOADS))
def test_traced_warm_up_calls_every_wrapped_name(monkeypatch, name):
    """Each observe callback runs on the package's real arguments (``n``,
    ``k``, ``replications``), so a renamed parameter fails here, and every
    span and counter is one the benchmark reports."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench = load("workload")
    workload = studies.WORKLOADS[name]
    tracer = CallTracer()
    workload.instrument(tracer)
    wrapped = {(owner, attr) for owner, attr, _ in tracer._patches}
    try:
        workload.warm_up()
    finally:
        tracer.restore()
    assert tracer.called == wrapped
    assert ({span[0] for span in tracer.spans}
            <= set(bench.LAYER_SECONDS.values()))
    assert set(tracer.counts) <= set(bench.LAYER_COUNTS)


def test_bounds_ratio_oracles_and_environment(monkeypatch):
    """The study's oracles, which call ``exact_bound_terms(w, 3,
    method="dense")`` and ``method="candidates"``, pass, and the
    environment record, which reads ``grgcycles.USING_NUMBA``, builds."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench = load("workload")
    checker = bench.Checker()
    workload = studies.WORKLOADS["bounds_ratio"]
    workload.oracles(0, workload.study(0, 1), checker)
    assert checker.attempted > 0
    assert checker.failures == []
    env = bench.environment(SimpleNamespace(workload="bounds_ratio", seed=0))
    assert env["workload"] == "bounds_ratio"


def test_bounds_ratio_two_workers_give_the_one_worker_digest():
    """The workload's timed study at workers=2, which the benchmark times as
    ``study_w2_s``, runs through every name it reaches and gives exactly
    the digest of workers=1."""
    workload = studies.WORKLOADS["bounds_ratio"]
    assert workload.study(0, 2) == workload.study(0, 1)


@pytest.mark.parametrize("name", list(studies.WORKLOADS))
def test_study_matches_the_recorded_reference(monkeypatch, name):
    """Each workload's seed-0 study at one worker gives the digest recorded
    in ``reference.json``, by the benchmark's own rule, so a change that
    moves a benchmark result fails here and not only in a benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench = load("workload")
    reference = json.loads(bench.REFERENCE.read_text())[name]["0"]
    checker = bench.Checker()
    checker.compare("reference", studies.WORKLOADS[name].study(0, 1),
                    reference, rel=bench.REFERENCE_REL_TOL)
    assert checker.attempted > 0
    assert checker.failures == []
