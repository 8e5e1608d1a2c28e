#!/usr/bin/env python3
"""lrcav benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload decode --seed 1 --seconds 40 --trace 0

Run from the repository root; it benchmarks the package under ``src/``.
With ``--trace 0`` it runs whole blocks of operations (see
``workloads.py``) until the time is up, times fresh set-ups spread over
the run, and reports the end-to-end metrics, their times scaled by a
reference loop to a fixed host speed.  With ``--trace 1`` it runs
a fixed number of blocks, each once untraced and once traced, and
reports the per-layer metrics; the spans go to ``perfbench/out/``.  The last stdout line is the JSON
result; the lines before it give every metric with its unit and sample
count, and the run's environment.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 7      # fresh processes timed from spawn to first operation
TRACE_BLOCKS = 2      # fixed traced work, so counts repeat exactly per seed
PROBE_TIMEOUT_S = 120

# Host-speed scaling (README.md, "Noise on a shared host").  A fixed
# pure-Python reference loop runs before every operation and around every
# set-up probe.  A time is scaled by REFERENCE_LOOP_S / (the median of the
# reference loops timed around it), so it reads as on a host where the
# loop takes REFERENCE_LOOP_S: about its median in the fast periods of the
# 2-vCPU host of record.
REFERENCE_ITERS = 8000
REFERENCE_LOOP_S = 0.0025
REFERENCE_WINDOW = 5  # an operation's scale uses the loops of the 5 ops either side
PROBE_REFERENCE_LOOPS = 20  # per set-up probe, in the child and in the parent


def _reference_step(i: int, acc: int) -> int:
    return (acc * 31 + i) & 0xFFFF


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work that calls no
    lrcav code: integer bit arithmetic, list indexing, calls and float
    arithmetic, the interpreter work that lrcav's layers are made of."""
    start = time.perf_counter()
    acc, table, x = 0, [0] * 64, 0.5
    for i in range(REFERENCE_ITERS):
        j = (i * 40503) & 63
        table[j] ^= (acc << 1) & 0xFFFF
        acc = _reference_step(i, acc + table[j])
        x = x * 0.999 + 1e-3 / (1.0 + (i & 7))
    return time.perf_counter() - start


def host_scales(loops: list) -> list:
    """Per operation, REFERENCE_LOOP_S over the median reference loop of the
    operations within REFERENCE_WINDOW of it."""
    w = REFERENCE_WINDOW
    return [REFERENCE_LOOP_S / statistics.median(loops[max(0, i - w):i + w + 1])
            for i in range(len(loops))]


def import_lrcav() -> None:
    """Put the checkout's ``src`` first on the path and insist it is used."""
    sys.path.insert(0, SRC)
    import lrcav
    if not os.path.abspath(lrcav.__file__).startswith(SRC + os.sep):
        raise ImportError(f"lrcav imported from {lrcav.__file__}, not {SRC}")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(ROOT, ".git", ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def make_workdir() -> str:
    base = os.path.join(HERE, ".work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(dir=base)


def probe_setup(workload: str) -> None:
    """Child side of a set-up probe: set up, then print the monotonic time
    and the median reference loop timed in this process after it."""
    import_lrcav()
    from workloads import WORKLOADS
    workdir = make_workdir()
    try:
        WORKLOADS[workload]().setup(workdir)
        ready = time.monotonic()
        loops = [reference_loop() for _ in range(PROBE_REFERENCE_LOOPS)]
        print(f"READY {ready!r} {statistics.median(loops)!r}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def time_setup(workload: str):
    """Seconds from spawning a fresh process to its set-up being done, and
    its host scale.  The child may run on another CPU than the parent, of
    another speed, so the scale takes the geometric mean of the child's
    median reference loop and the parent's, timed half before and half
    after the probe.  Set-up does not depend on the seed."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", "0", "--setup-probe"]
    half = PROBE_REFERENCE_LOOPS // 2
    loops = [reference_loop() for _ in range(half)]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    ready = [line for line in proc.stdout.splitlines() if line.startswith("READY ")]
    if proc.returncode != 0 or not ready:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-500:]}")
    loops += [reference_loop() for _ in range(half)]
    _, done, child_loop = ready[-1].split()
    loop = math.sqrt(statistics.median(loops) * float(child_loop))
    return float(done) - start, REFERENCE_LOOP_S / loop


class Recorder:
    """Latencies, host-speed samples and verdicts of the timed operations."""

    def __init__(self):
        self.elapsed = []        # seconds per operation, failed ones included
        self.ok = []             # per operation: output correct
        self.loops = []          # per operation: the reference loop timed before it
        self.block = []          # per operation: index of its block
        self.classes = Counter()
        self.by_class = {}       # class -> latencies of its correct operations
        self.failures = []
        self.wall = 0.0          # seconds spent in blocks, failed ops and checks included

    def run(self, ops, tracer=None) -> float:
        """Run one block; returns the block's summed operation time."""
        total = 0.0
        block = self.block[-1] + 1 if self.block else 0
        block_start = time.perf_counter()
        for op in ops:
            self.loops.append(reference_loop())
            if tracer is not None:
                tracer.op_id = len(self.elapsed)
            start = time.perf_counter()
            try:
                out = op.call()
                reason = None
            except Exception:
                out, reason = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
            elapsed = time.perf_counter() - start
            total += elapsed
            if reason is None:
                with tracer.paused() if tracer else contextlib.nullcontext():
                    reason = op.check(out)
            self.classes[op.cls] += 1
            self.elapsed.append(elapsed)
            self.ok.append(reason is None)
            self.block.append(block)
            if reason is None:
                self.by_class.setdefault(op.cls, []).append(elapsed)
            else:
                self.failures.append(f"{op.cls}: {reason}")
        self.wall += time.perf_counter() - block_start
        return total

    @property
    def attempted(self) -> int:
        return len(self.elapsed)

    @property
    def failed(self) -> int:
        return len(self.failures)


def end_to_end(rec: Recorder, setups: list) -> dict:
    """The end-to-end metrics, {name: (value, unit, note)}.  ``setups`` holds
    (seconds, host scale) per set-up probe.  Times are host-scaled."""
    scales = host_scales(rec.loops)
    scaled = [e * f for e, f in zip(rec.elapsed, scales)]
    # a failed operation counts as taking the wall time of every block run,
    # failed operations included: never fast, even if all of them fail
    lat = sorted(x if ok else rec.wall for x, ok in zip(scaled, rec.ok))
    p90 = statistics.quantiles(lat, n=10)[8]
    beyond = sum(1 for x in lat if x > p90)
    n = rec.attempted
    # blocks hold the same mix, so the median block discounts a disturbed one
    rates = []
    for b in sorted(set(rec.block)):
        ops = [i for i, ob in enumerate(rec.block) if ob == b]
        rates.append(sum(rec.ok[i] for i in ops) / sum(scaled[i] for i in ops))
    setup = [s * f for s, f in setups]
    return {
        "ops_per_s": (statistics.median(rates), "1/s",
                      f"median of {len(rates)} blocks; {sum(rec.ok)} ops in "
                      f"{sum(rec.elapsed):.3f} s timed unscaled; reference loop "
                      f"median {statistics.median(rec.loops) * 1e3:.3f} ms"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms", f"n={n}"),
        "op_p90_ms": (p90 * 1e3, "ms", f"n={n}, {beyond} beyond"),
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setups)} set-ups: "
                    + " ".join(f"{s:.3f}" for s in setup) + "; unscaled "
                    + " ".join(f"{s:.3f}" for s, _ in setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", "max RSS of this process"),
    }


def measure(wl, workload: str, seed: int, seconds: float, rec: Recorder):
    """Whole blocks until the next would overrun, and at least wl.min_ops
    ops.  Between blocks, SETUP_PROBES set-ups are timed, spread evenly
    over the run so that their median sees the same host as the blocks.

    Returns the number of blocks and (seconds, host scale) per set-up."""
    block_len = len(wl.block(seed, 0))
    min_blocks = math.ceil(wl.min_ops / block_len)
    setups = []
    start = time.perf_counter()
    b = 0
    while True:
        due = SETUP_PROBES * (time.perf_counter() - start) / seconds + 1
        if len(setups) < min(due, SETUP_PROBES):
            setups.append(time_setup(workload))
        rec.run(wl.block(seed, b))
        b += 1
        elapsed = time.perf_counter() - start
        if b >= min_blocks and elapsed + elapsed / b > seconds:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(time_setup(workload))
    return b, setups


def measure_traced(wl, seed: int, workdir: str, rec: Recorder):
    """Set-up traced, then TRACE_BLOCKS blocks, each untraced then traced.

    Returns the tracer and the per-layer metrics."""
    import tracing
    tracer = tracing.Tracer()
    with tracing.recording(tracer):
        wl.setup(workdir)
    plain = traced = 0.0
    for b in range(TRACE_BLOCKS):
        ops = wl.block(seed, b)
        plain += rec.run(ops)
        with tracing.recording(tracer):
            traced += rec.run(ops, tracer)
    return tracer, tracing.layer_metrics(tracer, (traced - plain) / plain)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("decode", "verify", "curves"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        probe_setup(args.workload)
        return 0
    try:
        import_lrcav()
    except ImportError as exc:
        print(f"error: cannot import lrcav from {SRC}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    rec = Recorder()
    workdir = make_workdir()
    try:
        if args.trace:
            tracer, layers = measure_traced(wl, args.seed, workdir, rec)
            metrics = {name: (value, unit, "") for name, (value, unit) in layers.items()}
            blocks = TRACE_BLOCKS
        else:
            wl.setup(workdir)
            blocks, setups = measure(wl, args.workload, args.seed, args.seconds, rec)
            metrics = end_to_end(rec, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "lrcav_commit": git_commit(),
        "blocks": blocks, "ops": dict(sorted(rec.classes.items())),
    }
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path, info)
        info["trace_file"] = os.path.relpath(path, ROOT)
    print("# env " + json.dumps(info))
    for cls, lats in sorted(rec.by_class.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"# class {cls:20s} n={len(lats):4d} median {statistics.median(lats) * 1e3:9.2f} ms")
    for reason in rec.failures[:10]:
        print(f"# FAILED {reason}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:52s} {value:>14.6g} {unit:12s} {note}")
    print(f"{'error_rate':52s} {rec.failed / rec.attempted:>14.6g} {'ratio':12s} "
          f"{rec.failed} failed / {rec.attempted} attempted")
    print(json.dumps({
        "correct": rec.failed == 0, "attempted": rec.attempted, "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
