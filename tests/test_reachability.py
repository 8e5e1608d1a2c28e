"""Every function the package defines is reached by a CLI run, or named here.

A fixed list of ``cli.main`` runs goes under ``sys.setprofile``: the
golden runs, a raw artifact over GF(256), whose local checks take the
per-support walk, and the exit-2 paths.  Every module-level function and
every method, property and cached property defined in ``src/lrcav`` must
be called by one of them, or be named in UNREACHED with the reason it is
kept; a name there that a run does reach, or that no longer exists, fails
too.  So a change that leaves a function with no CLI path fails here.
"""

import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import sys

import lrcav
from lrcav import cli
from lrcav.galois import BaseField
from test_golden_outputs import RUNS

BENCH_SPAN = "bench span; goes with ROADMAP item 3"
GRIESMER = ("the alphabet-dependent bound rows will pass them as the k_oracle/d_oracle "
            "of the shortening sweeps (ROADMAP item 8)")
UNREACHED = {
    "linalg.solve": BENCH_SPAN,
    "linalg.rank_over_base": BENCH_SPAN,
    "gabidulin.gab_encode": BENCH_SPAN,
    "bounds.expansion_delta": BENCH_SPAN,
    "bounds._expansion_residual": BENCH_SPAN,
    "bounds.griesmer_d": GRIESMER,
    "bounds.griesmer_k": GRIESMER,
    "constructions.check_expansion": "acceptance criterion 7's expansion audit "
                                     "(ROADMAP item 5)",
}

# the [5, 1] code spanned by (1, 2, 3, 7, 200) over GF(256): its 256
# codewords make a short distance walk, and the span walk over its 256^4
# dual words loses to one nullspace per 3-support
RAW256 = {"format_version": "1", "kind": "raw",
          "field": {"w": 8, "m": 1, "modulus": BaseField(8).modulus, "ext_modulus": None},
          "n": 5, "k": 1, "r": 2, "t": 2,
          "matrices": {"parity": [[g] + [int(i == j) for j in range(4)]
                                  for i, g in enumerate((2, 3, 7, 200))]}}

# (argv, exit code), run in order after the golden runs
EXTRA_RUNS = [
    ("verify --code raw256.json --distance --availability", 0),
    ("shorten --code raw256.json --r 1 --s 1", 0),
    ("verify --code wzl32.json --erasures 3 --trials 20 --seed 1", 1),
    ("verify --code missing.json --distance", 2),
    ("verify --code wzl32.json", 2),
    ("verify --code concat.json --distance", 2),
    ("shorten --code wzl32.json --r 3 --s 99", 2),
    ("construct wzl --r 200 --t 200 --out big.json", 2),
    ("construct wzl --r 4 --t 4 --out wzl44.json", 0),
    ("verify --code wzl44.json --availability", 2),
]


def _defined():
    """'module.qualname' -> code object of each function defined in lrcav."""
    root = os.path.dirname(lrcav.__file__)
    found = {}
    for info in pkgutil.iter_modules(lrcav.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"lrcav.{info.name}")

        def add(name, obj):
            obj = inspect.unwrap(obj) if callable(obj) else obj
            # dataclass-generated methods have no source file in the package
            if inspect.isfunction(obj) and obj.__code__.co_filename.startswith(root):
                found[f"{info.name}.{name}"] = obj.__code__

        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported, not defined here
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    for fn in (member, getattr(member, "fget", None),
                               getattr(member, "func", None), getattr(member, "__func__", None)):
                        if fn is not None:
                            add(f"{name}.{attr}", fn)
            else:
                add(name, obj)
    return found


def test_every_function_is_reached_or_allowlisted(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "raw256.json").write_text(json.dumps(RAW256))
    runs = [(argv, code) for _, argv, code, *_ in RUNS] + EXTRA_RUNS
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    codes = []
    cli.build_parser.cache_clear()  # built once per process, maybe by an earlier test
    sys.setprofile(profile)
    try:
        for argv, _ in runs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main(argv.split()))
    finally:
        sys.setprofile(None)
    assert codes == [code for _, code in runs]
    defined = _defined()
    unreached = {name for name, code in defined.items() if code not in reached}
    assert unreached == set(UNREACHED)
