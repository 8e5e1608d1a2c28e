"""The benchmark's hooks still find every function they wrap, and its ops stay correct.

``perfbench/tracing.py`` wraps lrcav functions by name, and a traced
run (``perfbench/run.py --trace 1``) raises ``TraceTargetMissing`` for
any that was renamed or moved.  A wrong decode, verify or curves op
would only show as the run's error rate.  These guards catch both in
the tier-1 suite instead of in a benchmark run.
"""

import contextlib
import sys
from functools import cached_property
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tracer_installs_and_uninstalls():
    # install raises TraceTargetMissing for any missing target, including
    # the LinearCode.codewords generator it counts
    tracing.uninstall(tracing.install(tracing.Tracer()))


def test_bindings_read_by_the_benchmark_tests_exist():
    from lrcav import analysis, shortening
    assert callable(analysis.rref) and callable(shortening.nullspace)


BLOCKS = {
    "decode": (workloads.Decode, {cls for cls, *_ in workloads.Decode.CLASSES}),
    "verify": (workloads.Verify, {cls for cls, *_ in workloads.Verify.CLASSES}),
    "curves": (workloads.Curves, {"bounds", "curves_g10", "curves_g20", "curves_g30",
                                  "curves_g45", "curves_g200"}),
}


@pytest.mark.parametrize("name,traced", [
    pytest.param(name, traced, id=f"traced-{name}" if traced else name)
    for traced in (False, True) for name in BLOCKS])
def test_one_block_passes_its_checks(tmp_path, name, traced):
    # every op class of one seeded block, through the bench's own call and
    # check: composite round trips, in-process verify and shorten on
    # stored artifacts, curves and bounds tables; traced, the set-up and
    # the block run under the tracer's hooks, so a field they read that
    # was renamed fails here
    workload, classes = BLOCKS[name]
    with tracing.recording(tracing.Tracer()) if traced else contextlib.nullcontext():
        bench = workload()
        bench.setup(str(tmp_path))
        ops = bench.block(seed=1, b=0)
        failures = [(op.cls, reason) for op in ops if (reason := op.check(op.call()))]
    assert {op.cls for op in ops} == classes
    assert failures == []


def test_decode_bench_block_builds_each_survivor_rref_view_once(tmp_path, monkeypatch):
    # select_independent_survivors reads LinearCode.rref_view, cached on
    # the outer code: the set-up and one decode block, which decodes every
    # code several times, build each code's view once, when CompositeCode
    # checks its generator, and never again
    from lrcav.constructions import LinearCode
    builds = []
    build = LinearCode.rref_view.func
    counted = cached_property(lambda code: builds.append(code) or build(code))
    counted.__set_name__(LinearCode, "rref_view")
    monkeypatch.setattr(LinearCode, "rref_view", counted)
    bench = workloads.Decode()
    bench.setup(str(tmp_path))
    for op in bench.block(seed=1, b=0):
        assert op.check(op.call()) is None
    for cls, code in bench.codes.items():
        assert sum(built is code.outer for built in builds) == 1, cls


def test_decode_bench_block_builds_each_frobenius_row_table_once(tmp_path, monkeypatch):
    # encode_composite reads CompositeCode.frobenius_rows, cached on the
    # code: one decode block, which encodes every code several times,
    # builds each code's rows on its first encode and never again
    from lrcav.constructions import CompositeCode
    builds = []
    build = CompositeCode.frobenius_rows.func
    counted = cached_property(lambda code: builds.append(code) or build(code))
    counted.__set_name__(CompositeCode, "frobenius_rows")
    monkeypatch.setattr(CompositeCode, "frobenius_rows", counted)
    bench = workloads.Decode()
    bench.setup(str(tmp_path))
    for op in bench.block(seed=1, b=0):
        assert op.check(op.call()) is None
    for cls, code in bench.codes.items():
        assert sum(built is code for built in builds) == 1, cls


def test_decode_bench_block_interpolates_without_frobenius_rows(tmp_path, monkeypatch):
    # pass 1 takes each round's Frobenius from the row's bit planes, so
    # inside moore_interpolate every frobenius_row call is the one-element
    # row of a frobenius call (the Itoh-Tsujii inversion's), never a row
    # of lanes
    from lrcav import constructions
    from lrcav.galois import FieldTower
    depth, calls = [0], {"frobenius": 0, "frobenius_row": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += depth[0]
            return fn(*args)
        return wrapper

    def interpolate(*args):
        depth[0] += 1
        try:
            return interpolate_in_full(*args)
        finally:
            depth[0] -= 1

    interpolate_in_full = constructions.moore_interpolate
    monkeypatch.setattr(constructions, "moore_interpolate", interpolate)
    for name in calls:
        monkeypatch.setattr(FieldTower, name, counted(name, getattr(FieldTower, name)))
    bench = workloads.Decode()
    bench.setup(str(tmp_path))
    for op in bench.block(seed=1, b=0):
        assert op.check(op.call()) is None
    assert calls["frobenius"] > 0
    assert calls["frobenius_row"] == calls["frobenius"]
