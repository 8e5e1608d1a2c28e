"""Byte-for-byte CLI outputs at the README's parameters.

The runs go through ``cli.main`` in one fresh directory, in order (the
``construct`` runs write the artifacts that the later runs read), with
relative file names so that no absolute path enters an output.  Each
run's exit code and the SHA-256 of its stdout and of the file it writes
are compared with recorded digests, so a change that must keep the
behaviour keeps this test passing as it stands; a change meant to alter
an output updates its digest here and says why.  The same runs, each a
``python -m lrcav`` process, must give the same digests under every
other supported interpreter installed (``interpreters.PYTHONS``).
"""

import contextlib
import hashlib
import io
import os
import subprocess
from pathlib import Path

import pytest

import interpreters
from lrcav import cli

# (id, argv, exit code, stdout digest, file written or None, its digest)
RUNS = [
    ("construct-wzl32", "construct wzl --r 3 --t 2 --out wzl32.json", 0,
     "f5e1466a8936c54ccd1c9019af8991bb84f5e5e7e05c3fcf0b2e40ebb8876db1",
     "wzl32.json", "4b66a01abcda5bddc2095d8b18c5d0e5c880450c2639477d7e53d61cca132f1d"),
    ("construct-wzl33", "construct wzl --r 3 --t 3 --out wzl33.json", 0,
     "b3abce98f4fbcf17f277d3389778358b8cd4e1a29f1412e64dd320b3585e399b",
     "wzl33.json", "91fc0f77cdb50b4efeec89580518cd7ee502867cff660450df0860f7940890f8"),
    ("construct-concat", "construct concat --r 3 --t 2 --blocks 3 --d 15 "
     "--out concat.json", 0,
     "32904158ac39a310cc476a73583a752903a6a5a1badf8f2f99df57f5f33e7af0",
     "concat.json", "e9f0efa203bd1c30017acb4d2a0a36f3111318b12b14bf2b66a779a542846a96"),
    ("construct-expander", "construct expander --n 14 --r 6 --t 3 --w 4 --k 4 "
     "--min-girth 4 --seed 7 --out expander.json", 0,
     "484c78733d41687c0edef9b783fb61bb46c7f6e1d6c84db0e5c8658e7516b751",
     "expander.json", "547cab902f16f82da54a49073fb00cbbdd62f074dface77e05222f8382cc6e52"),
    ("verify-wzl32", "verify --code wzl32.json --distance --availability", 0,
     "a71223bc8fac386d008e1382b51fd011556257a7fece6cb1654030dd552659ed",
     None, None),
    ("erasures-wzl33", "verify --code wzl33.json --erasures 3 --trials 200 --seed 5", 0,
     "66e291da78623dd742bec2e83a704a6449f6053bcf89aa9c0d126f276a0f95f7",
     None, None),
    ("erasures-concat", "verify --code concat.json --erasures 14 --trials 200 --seed 1", 0,
     "6fd0fb0856a5e8c37677968b4d790725200e2eeae8040653e892774fa63a4cfa",
     None, None),
    ("erasures-expander", "verify --code expander.json --erasures 6 --trials 100 --seed 2", 0,
     "f33606c6663005bf850f85a9e474c69064a8e284632bbc9588e8bdb018dad444",
     None, None),
    ("shorten-wzl32", "shorten --code wzl32.json --r 3 --s 2", 0,
     "cfcf73b4ada58a6789614eb2e8b081aa5b387198701d7aa2e52f6d24436a73d0",
     None, None),
    ("curves", "curves --r 6 --t 3 --grid 50 --out curves.csv", 0,
     "cdb8869c383e808e65bb1d2800c0d682520f6b0af804ca608851bf9df1bc419f",
     "curves.csv", "f622a6bec88fda86bf8ba5047d46eb6bb1b0a3d8e508d4b0c1b1360a94da5cee"),
    ("bounds", "bounds --n 24 --k 12 --r 3 --t 2", 0,
     "6d2373dee3d5559d34ed2877dc6219128ef0a032bebd957ccc0fcc3ae72f087b",
     None, None),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run every command in order; id -> (exit code, stdout, stderr, file digest)."""
    work = tmp_path_factory.mktemp("golden")
    results = {}
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for run_id, argv, _, _, written, _ in RUNS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv.split())
            digest = _sha256((work / written).read_bytes()) if written else None
            results[run_id] = (code, out.getvalue(), err.getvalue(), digest)
    finally:
        os.chdir(cwd)
    return results


@pytest.mark.parametrize("run_id,argv,exit_code,stdout_sha,written,file_sha", RUNS,
                         ids=[run[0] for run in RUNS])
def test_output_matches_recorded_digest(outputs, run_id, argv, exit_code, stdout_sha,
                                        written, file_sha):
    code, out, err, digest = outputs[run_id]
    assert (code, err) == (exit_code, "")
    assert _sha256(out.encode()) == stdout_sha
    assert digest == file_sha


@pytest.mark.parametrize("python", interpreters.PYTHONS)
def test_outputs_match_recorded_digests_under(python, tmp_path):
    exe = interpreters.runnable(python)
    if exe is None:
        pytest.skip(f"no runnable {python} on PATH or under pyenv")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    differ = []
    for run_id, argv, exit_code, stdout_sha, written, file_sha in RUNS:
        out = subprocess.run([exe, "-m", "lrcav", *argv.split()], cwd=tmp_path, env=env,
                             capture_output=True)
        digest = _sha256((tmp_path / written).read_bytes()) if written else None
        if (out.returncode, out.stderr, _sha256(out.stdout), digest) != (
                exit_code, b"", stdout_sha, file_sha):
            differ.append(run_id)
    assert differ == []


# (eliminations, transposes) of each run: calls of linalg.rref, through
# every module's binding of it, and of Matrix.transpose
WORK = {
    "construct-wzl32": (2, 0),
    "construct-wzl33": (2, 0),
    "construct-concat": (2, 1),
    "construct-expander": (2, 1),
    # the dual re-eliminates the rref generator (CHANGES.md FOUND)
    "verify-wzl32": (3, 1),
    "erasures-wzl33": (2, 0),
    "erasures-concat": (2, 1),
    "erasures-expander": (2, 1),
    # the dual re-eliminates the rref generator (CHANGES.md FOUND)
    "shorten-wzl32": (3, 1),
    "curves": (0, 0),
    "bounds": (0, 0),
}


def test_each_run_eliminates_and_transposes_as_recorded(tmp_path, monkeypatch):
    # a composite reads its outer generator's pivots off the generator,
    # which is its own rref; construct expander eliminates its parity once
    # and construct concat builds its inner WZL code once; the counts are
    # by run, in a fresh directory and in RUNS' order
    from lrcav import analysis, constructions, linalg
    counts = {}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    cli_imports_rref = hasattr(cli, "rref")
    rref = counted("rref", linalg.rref)
    for module in (linalg, constructions, cli, analysis):
        monkeypatch.setattr(module, "rref", rref, raising=False)
    monkeypatch.setattr(linalg.Matrix, "transpose",
                        counted("transpose", linalg.Matrix.transpose))
    monkeypatch.chdir(tmp_path)
    work = {}
    for run_id, argv, *_ in RUNS:
        counts.update(rref=0, transpose=0)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv.split())
        work[run_id] = (counts["rref"], counts["transpose"])
    assert work == WORK
    assert not cli_imports_rref
