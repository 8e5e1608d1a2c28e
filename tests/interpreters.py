"""The other CPython versions the tests run lrcav under, where installed.

Draws restated from the stdlib and the golden CLI outputs must be the
same under every supported interpreter, so tests run them again under
each of ``PYTHONS`` that ``runnable`` finds, and skip one it does not.
"""

import shutil
import subprocess
from pathlib import Path

PYTHONS = ["python3.10", "python3.12", "python3.13"]


def runnable(python):
    """python on PATH if it runs, else the first runnable pyenv install of
    its version, ``$(pyenv root)/versions/3.X.*/bin/python3.X``: a PATH
    entry can be a pyenv shim that refuses a version not selected."""
    candidates = [shutil.which(python)]
    pyenv = shutil.which("pyenv")
    if pyenv is not None:
        root = subprocess.run([pyenv, "root"], capture_output=True, text=True).stdout.strip()
        if root:
            version = python.removeprefix("python")
            candidates += sorted(map(str, Path(root).glob(f"versions/{version}.*/bin/{python}")))
    for exe in candidates:
        if exe and subprocess.run([exe, "-c", ""], capture_output=True).returncode == 0:
            return exe
    return None
