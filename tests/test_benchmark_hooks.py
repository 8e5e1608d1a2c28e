"""The benchmark's tracing hooks still find every function they wrap.

``perfbench/tracing.py`` wraps lrcav functions by name, and a traced
run (``perfbench/run.py --trace 1``) raises ``TraceTargetMissing`` for
any that was renamed or moved.  This guard catches that in the tier-1
suite instead of in a benchmark run.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402


def test_tracer_installs_and_uninstalls():
    # install raises TraceTargetMissing for any missing target, including
    # the LinearCode.codewords generator it counts
    tracing.uninstall(tracing.install(tracing.Tracer()))


def test_bindings_read_by_the_benchmark_tests_exist():
    from lrcav import analysis, shortening
    assert callable(analysis.rref) and callable(shortening.nullspace)
