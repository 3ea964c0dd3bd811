"""The benchmark workloads wrap package functions by name.

Every workload in ``perfbench/studies.py`` must be able to wrap each name
it traces and put the originals back, so a refactor that drops or moves one
of those names fails here instead of only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

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
