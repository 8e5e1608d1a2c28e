import ast
import functools
import os
import re
import subprocess
import sys
from pathlib import Path

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


@functools.cache
def _modules_loaded_by_importing_the_cli() -> frozenset:
    """Every module a fresh interpreter holds once it has imported lrcav.cli.
    -S skips site, whose .pth files may load modules (typing among them)
    before lrcav is imported."""
    probe = "import sys, lrcav.cli; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, check=True)
    return frozenset(out.stdout.split())


def test_importing_the_cli_does_not_load_logging():
    # logging costs every process about 0.5 MB; only the samplers load it
    assert "logging" not in _modules_loaded_by_importing_the_cli()


def test_importing_the_cli_does_not_load_typing():
    # typing costs every fresh process milliseconds of import; annotations
    # use builtin generics and collections.abc, which the stdlib modules
    # the CLI imports load anyway
    assert "typing" not in _modules_loaded_by_importing_the_cli()


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
