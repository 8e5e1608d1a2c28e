"""The README's references stay true: names resolve, paths exist, commands parse.

Nothing is run.  A backticked `lrcav.<module>[.<name>]`, `<module>.<name>`
or `<Class>.<member>` that names an lrcav module or class must resolve; a
backticked path under tests/, src/ or perfbench/ must exist (with a
`::name`, that file must define it); and every `lrcav ...` line of an `sh`
block must parse with the CLI's own parser.
"""

import ast
import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import lrcav
from lrcav import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
MODULES = {info.name: importlib.import_module(f"lrcav.{info.name}")
           for info in pkgutil.iter_modules(lrcav.__path__) if info.name != "__main__"}
CLASSES = {name: obj for module in MODULES.values() for name, obj in vars(module).items()
           if inspect.isclass(obj) and obj.__module__.startswith("lrcav.")}
# backticked code spans, with a trailing call's arguments dropped
SPANS = [span.split("(")[0] for span in re.findall(r"`([^`\n]+)`", README)]


def _members(cls) -> set:
    """Class attributes and the attributes its methods set on self."""
    names = set(dir(cls))
    for node in ast.walk(ast.parse(inspect.getsource(cls))):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            names.add(node.attr)
    return names


def _resolves(dotted: str) -> bool | None:
    """Does a dotted name that starts at an lrcav module or class resolve?
    None when it starts at neither."""
    parts = dotted.split(".")
    if parts[0] == "lrcav":
        parts = parts[1:]
        if parts[0] not in MODULES:
            return False
    if parts[0] in MODULES:
        obj = MODULES[parts[0]]
    elif parts[0] in CLASSES:
        obj = CLASSES[parts[0]]
    else:
        return None
    for i, part in enumerate(parts[1:], 2):
        if inspect.isclass(obj) and i == len(parts) and part in _members(obj):
            return True
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def _names():
    return sorted({span for span in SPANS
                   if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", span)
                   and _resolves(span) is not None})


def _paths():
    return sorted({span for span in SPANS if span.startswith(("tests/", "src/", "perfbench/"))})


def _commands():
    """Each `lrcav ...` line of the sh blocks, continuations joined, $e set."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.strip()
            if line.startswith("lrcav "):
                line = line.removesuffix("&&").replace("$e", "4")
                commands.append(shlex.split(line)[1:])
    return commands


def test_the_readme_names_resolve():
    names = _names()
    assert len(names) > 20  # the scan finds the pointers it guards
    assert [name for name in names if not _resolves(name)] == []


def test_the_readme_paths_exist():
    paths = _paths()
    assert paths
    missing = []
    for span in paths:
        path, _, name = span.partition("::")
        target = ROOT / path
        if not target.exists() or (name and not re.search(
                rf"^def {re.escape(name)}\b", target.read_text(), re.M)):
            missing.append(span)
    assert missing == []


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_the_readme_commands_parse(argv):
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"lrcav {' '.join(argv)} does not parse (exit {exc.code})")
    assert callable(args.func)
