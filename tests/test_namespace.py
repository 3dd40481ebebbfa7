"""The package root's contract: it exports exactly what its callers read.

The demos, the README and the benchmark read names from `fecpart` itself;
trimming one name too many would otherwise show up only when a demo or a
full benchmark run fails.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def fresh_fecpart():
    # import the package afresh, then put the modules other tests hold back
    saved = {name: mod for name, mod in sys.modules.items()
             if name == "fecpart" or name.startswith("fecpart.")}
    for name in saved:
        del sys.modules[name]
    try:
        yield importlib.import_module("fecpart")
    finally:
        for name in [n for n in sys.modules if n == "fecpart" or n.startswith("fecpart.")]:
            del sys.modules[name]
        sys.modules.update(saved)


def _imported_from_fecpart(source: str) -> set:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "fecpart"
        for alias in node.names
    }


def test_all_names_resolve(fresh_fecpart):
    missing = [name for name in fresh_fecpart.__all__ if not hasattr(fresh_fecpart, name)]
    assert missing == []


def test_public_attributes_are_exported(fresh_fecpart):
    public = {
        name for name, value in vars(fresh_fecpart).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - set(fresh_fecpart.__all__) == set()


def test_benchmark_reads_resolve(fresh_fecpart):
    read = {
        name
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        for name in re.findall(r"\bF\.([A-Za-z_]\w*)", path.read_text())
    }
    assert read, "no F.<name> reads found under perfbench/"
    assert sorted(name for name in read if not hasattr(fresh_fecpart, name)) == []


def test_demo_and_readme_imports_resolve(fresh_fecpart):
    sources = [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    sources += re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    imported = set().union(*(_imported_from_fecpart(src) for src in sources))
    assert imported, "no `from fecpart import` found in the demos or README"
    assert sorted(name for name in imported if not hasattr(fresh_fecpart, name)) == []


def test_package_import_leaves_out_the_timing_harness_and_cli():
    probe = "import sys, fecpart; print(sorted(m for m in sys.modules if m.startswith('fecpart')))"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    loaded = ast.literal_eval(out)
    assert "fecpart.codec" in loaded
    assert "fecpart.bench" not in loaded and "fecpart.cli" not in loaded
