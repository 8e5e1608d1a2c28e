"""Smoke runs of the experiment scripts against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_erasure_experiment_runs():
    proc = run_script("erasure_experiment.py", "--trials", "5")
    assert proc.returncode == 0, proc.stderr
    assert "concatenated" in proc.stdout and "expander" in proc.stdout


def test_rate_curves_experiment_runs(tmp_path):
    proc = run_script("rate_curves_experiment.py", "--grid", "10",
                      "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "curves_r5_t2.csv", "curves_r6_t3.csv"]
