"""The benchmark's hooks into the package: every name it wraps must exist."""

import importlib
from pathlib import Path

import fecpart

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    # `install` wraps module attributes by name, so a name the package stops
    # importing fails here rather than only in a traced benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    modules = (fecpart.codec, fecpart.partition, fecpart.lossmodel, fecpart.planner)
    before = [dict(vars(module)) for module in modules]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, fecpart, workloads.make_api(fecpart), {})
    finally:
        tracer.restore()
    assert [dict(vars(module)) for module in modules] == before
