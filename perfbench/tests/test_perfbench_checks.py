"""The output checks: a wrong answer must count as a failed operation."""

import csv

import pytest

from run import Recorder, end_to_end, host_scales
from workloads import (Op, check_bounds, check_curves, check_decode, check_shorten,
                       check_verify, run_cli)


def error_rate(op: Op) -> float:
    rec = Recorder()
    rec.run([op])
    return rec.failed / rec.attempted


def test_decode_check_accepts_exact_answers():
    msg = [(1, 0), (0, 1)]
    assert check_decode(list(msg), msg, survivor_rank=2, k=2) is None
    assert check_decode(None, msg, survivor_rank=1, k=2) is None


@pytest.mark.parametrize("decoded, rank", [
    ([(1, 0), (1, 1)], 2),     # wrong message
    (None, 2),                 # gave up although rank >= k
    ([(1, 0), (0, 1)], 1),     # answered although rank < k
])
def test_wrong_decode_counts_as_error(decoded, rank):
    msg = [(1, 0), (0, 1)]
    op = Op("decode", lambda: decoded, lambda out: check_decode(out, msg, rank, 2))
    assert error_rate(op) == 1.0


def test_raising_operation_counts_as_error():
    def boom():
        raise ValueError("broken fast path")
    assert error_rate(Op("x", boom, lambda out: None)) == 1.0


@pytest.mark.parametrize("check", [
    lambda res: check_verify(res, t=2),
    lambda res: check_verify(res, trials=200),
    lambda res: check_shorten(res, r=4, s=2),
    check_bounds,
])
def test_nonzero_cli_exit_counts_as_error(check):
    assert error_rate(Op("cli", lambda: (1, "{}"), check)) == 1.0


def test_verify_report_contents_are_checked():
    good = '{"distance": 3, "availability": {"pass": true}}'
    assert check_verify((0, good), t=2, availability=True) is None
    assert check_verify((0, '{"distance": 2}'), t=2) is not None
    assert check_verify((0, '{"availability": {"pass": false}}'), availability=True)
    partial = '{"erasures": {"trials": 200, "successes": 199}}'
    assert check_verify((0, partial), trials=200) is not None
    # r=4, s=2: |I| <= 7 and |Cl(I)| >= 9
    cl = '"Cl_I": [0,1,2,3,4,5,6,7,8], "s": 2'
    assert check_shorten((0, '{"I": [0,1,2,3,4,5,6], %s}' % cl), r=4, s=2) is None
    assert check_shorten((0, '{"I": [0,1,2,3,4,5,6,7], %s}' % cl), r=4, s=2) is not None
    assert check_shorten((0, '{"I": [0], "Cl_I": [0,1,2,3,4,5,6,7], "s": 2}'),
                         r=4, s=2) is not None


def test_failed_operation_never_scores_fast():
    rec = Recorder()
    rec.run([Op("correct", lambda: None, lambda out: None)] * 9
            + [Op("fast_but_wrong", lambda: None, lambda out: "wrong")])
    metrics = end_to_end(rec, [(1.0, 1.0)])
    assert rec.failed == 1
    scaled = [e * f for e, f in zip(rec.elapsed, host_scales(rec.loops))]
    assert metrics["ops_per_s"][0] == pytest.approx(9 / sum(scaled))
    assert metrics["op_p90_ms"][0] >= max(scaled[:9]) * 1e3


def test_all_failed_operations_never_score_fast():
    rec = Recorder()
    rec.run([Op("fast_but_wrong", lambda: None, lambda out: "wrong")] * 10)
    metrics = end_to_end(rec, [(1.0, 1.0)])
    assert rec.failed == rec.attempted == 10
    assert metrics["ops_per_s"][0] == 0
    assert metrics["op_p50_ms"][0] == metrics["op_p90_ms"][0] == rec.wall * 1e3
    assert rec.wall > 0


def test_host_scale_follows_reference_loop():
    # twice as slow a host reads twice the raw time: the scaled time stays put
    assert host_scales([0.0025] * 20) == [1.0] * 20
    scales = host_scales([0.0025] * 10 + [0.005] * 10)
    assert scales[0] == 1.0 and scales[-1] == 0.5


@pytest.fixture(scope="module")
def frozen_curve(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("curves") / "c63.csv")
    result = run_cli(["curves", "--r", "6", "--t", "3", "--grid", "200", "--out", path])
    with open(path, newline="") as fh:
        return result, list(csv.reader(fh))


def test_frozen_crossover_is_accepted(frozen_curve, tmp_path):
    result, table = frozen_curve
    path = tmp_path / "c.csv"
    path.write_text("\n".join(",".join(row) for row in table) + "\n")
    assert check_curves(result, str(path), 6, 3, 200) is None


def test_moved_crossover_counts_as_error(frozen_curve, tmp_path):
    _, table = frozen_curve
    header, rows = table[0], table[1:]
    # raise the expander bound near delta = 0.2: the crossover moves earlier
    moved = []
    for row in rows:
        delta = float(row[0])
        if 0.2 <= delta < 0.27:
            row = row[:3] + [row[4]] + row[4:]
        moved.append(row)
    path = tmp_path / "moved.csv"
    path.write_text("\n".join(",".join(r) for r in [header] + moved) + "\n")
    first = next(float(r[0]) for r in moved if float(r[0]) >= 0.2)
    out = f"concat/expander crossover near delta = {first:.6g}\n"
    op = Op("curves", lambda: (0, out), lambda res: check_curves(res, str(path), 6, 3, 200))
    assert "moved" in check_curves((0, out), str(path), 6, 3, 200)
    assert error_rate(op) == 1.0
