import ast
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import interpreters

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lrcav"
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"


def test_package_imports_only_the_standard_library():
    # the package promises no runtime dependencies beyond the stdlib
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [f"{path.name}: {m}" for m in modules
                        if m.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_bounds_imports_only_the_standard_library():
    # bounds is pure arithmetic, a leaf: no relative or lrcav import loads
    # the field stack when it is imported
    tree = ast.parse((PACKAGE / "bounds.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert imported
    assert [m for m in imported if m.split(".")[0] not in sys.stdlib_module_names] == []


# fresh runs probed: the import alone, and two CLI runs that build no tower
RUNS = {"import": ["-c", "import lrcav.cli"],
        "bounds": ["-m", "lrcav", "bounds", "--n", "24", "--k", "12", "--r", "3", "--t", "2"],
        "curves": ["-m", "lrcav", "curves", "--r", "6", "--t", "3", "--grid", "10",
                   "--out", "curves.csv"]}
UNUSED = {
    "logging",  # about 0.5 MB per process; only FieldTower and the sampler load it
    # milliseconds of import each: annotations use builtin generics and
    # collections.abc, and the records are plain classes and namedtuples
    "typing", "dataclasses", "inspect",
}


def _modules_imported(python, argv) -> frozenset:
    """Every module a fresh ``python -S`` process imports for this run, read
    off its -X importtime log.  -S skips site, whose .pth files may load
    modules (typing among them) before lrcav is imported."""
    with tempfile.TemporaryDirectory() as cwd:
        out = subprocess.run([python, "-S", "-X", "importtime", *argv], cwd=cwd,
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    return frozenset(line.split("|")[-1].strip() for line in out.stderr.splitlines()
                     if line.startswith("import time:"))


# the stdlib's own import graph differs by version: this interpreter, then
# each other supported one that is installed
@pytest.mark.parametrize("python", ["this", *interpreters.PYTHONS])
@pytest.mark.parametrize("run", RUNS)
def test_a_fresh_cli_process_loads_no_module_it_does_not_use(run, python):
    exe = sys.executable if python == "this" else interpreters.runnable(python)
    if exe is None:
        pytest.skip(f"no runnable {python} on PATH or under pyenv")
    assert _modules_imported(exe, RUNS[run]) & UNUSED == set()


def test_importing_the_cli_does_not_load_logging():
    # logging costs every process about 0.5 MB; only the samplers load it
    assert "logging" not in _modules_imported(sys.executable, RUNS["import"])


def test_importing_the_cli_does_not_load_typing():
    # typing costs milliseconds of import; annotations avoid it
    assert "typing" not in _modules_imported(sys.executable, RUNS["import"])


def test_package_parses_at_the_declared_python_floor():
    # pyproject's requires-python is the floor; feature_version makes the
    # parser refuse syntax newer than it (except*, type statements, ...)
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', PYPROJECT.read_text(), re.M)
    assert floor
    version = tuple(map(int, floor.groups()))
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), str(path), feature_version=version)
