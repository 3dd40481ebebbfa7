"""The benchmark's hooks into the package: every name it wraps must exist."""

import ast
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


def test_noqa_reimports_are_names_the_tracer_wraps(monkeypatch):
    # a `# noqa: F401` import in the package is kept only so that `install`
    # can wrap that name on that module; once the tracer stops wrapping it,
    # the re-import is dead code and must go
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    wrapped = set()

    class Recorder:
        def wrap(self, owner, attr, name, observe=None):
            wrapped.add((getattr(owner, "__name__", None), attr))

    tracing.install(Recorder(), fecpart, object(), {})
    assert ("fecpart.partition", "encode") in wrapped  # a wrap, keyed by module name
    reimports = set()
    for path in sorted(Path(fecpart.__file__).parent.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        module = "fecpart" if path.stem == "__init__" else f"fecpart.{path.stem}"
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and any(
                "noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]
            ):
                reimports.update((module, alias.asname or alias.name) for alias in node.names)
    assert sorted(reimports - wrapped) == []
