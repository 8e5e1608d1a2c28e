"""The benchmark's three workloads: set-up, seeded operation blocks and output checks.

Each workload is a fixed multiset of operation classes, one "block".
A block's order and inputs come from the workload seed and the block
index; its class counts never change, so every run holds the same mix
and the p50 / p90 ranks fall inside one class, not on the boundary
between two (see README.md for the ranks).  Each rank sits near the
middle of its class: on a machine whose speed drifts during a run, a
rank near the edge of a class flips between the fast and slow ops.

Every operation returns its output and is then checked outside the
timed region; a check returns ``None`` when the output is correct and
a one-line reason otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from lrcav import analysis, bounds, cli, constructions, linalg
from lrcav.galois import BaseField, FieldTower

Reason = Optional[str]


@dataclass
class Op:
    cls: str
    call: Callable[[], object]
    check: Callable[[object], Reason]


class SetupError(RuntimeError):
    pass


def block_rng(seed: int, block: int) -> random.Random:
    return random.Random(seed * 1_000_003 + block)


def run_cli(argv: List[str]):
    """One in-process ``lrcav`` call; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# decode: composite erasure round trips, all in tower arithmetic
# ---------------------------------------------------------------------------

def check_decode(decoded, message, survivor_rank: int, k: int) -> Reason:
    """The decoder must return the message iff the survivors have rank >= k."""
    expected = message if survivor_rank >= k else None
    if decoded == expected:
        return None
    if expected is None:
        return f"decoded a message from survivors of base rank {survivor_rank} < k={k}"
    return "decoder returned None" if decoded is None else "decoded message differs"


class Decode:
    name = "decode"
    min_ops = 100
    # (class, ops per block, erasures).  Sorted by latency the classes take
    # ranks 0-30%, 30-70% (p50), 70-80% and 80-100% (p90).
    CLASSES = [("expander_n14", 6, 6), ("concat_n30", 8, 14),
               ("expander_n20", 2, 8), ("concat_n60", 4, 28)]

    def setup(self, workdir: str) -> None:
        # README concat: WZL(3,2) x 3 blocks over GF(2^18), d=15 -> k=9
        t18 = FieldTower(BaseField(1), 18)
        k30 = analysis.concatenated_dimension(30, 15, 3, 2)
        # README expander: n=14, t=3, r+1=7 over GF(16)^8, k=4
        g14 = constructions.sample_biregular(14, 3, 7, seed=7, min_girth=4)
        p14 = constructions.build_expander_parity(g14, BaseField(4), seed=8)
        t16 = FieldTower(BaseField(4), 14 - linalg.rref(p14)[1])
        # girth-6 expander n=20, t=2, r+1=5 over GF(256)^12, k=6
        g20 = constructions.sample_biregular(20, 2, 5, seed=3, min_girth=6)
        p20 = constructions.build_expander_parity(g20, BaseField(8), seed=4)
        t256 = FieldTower(BaseField(8), 20 - linalg.rref(p20)[1])
        # 6 blocks over GF(2^36): n=60, k=24 (guaranteed distance 29)
        t36 = FieldTower(BaseField(1), 36)
        self.codes = {
            "concat_n30": constructions.assemble_concatenated(t18, 3, 2, 3, k30),
            "expander_n14": constructions.assemble_expander_code(t16, p14, 4),
            "expander_n20": constructions.assemble_expander_code(t256, p20, 6),
            "concat_n60": constructions.assemble_concatenated(t36, 3, 2, 6, 24),
        }

    def block(self, seed: int, b: int) -> List[Op]:
        rng = block_rng(seed, b)
        ops = []
        for cls, count, e in self.CLASSES:
            code = self.codes[cls]
            for _ in range(count):
                message = [code.tower.rand(rng) for _ in range(code.k)]
                erased = set(rng.sample(range(code.n), e))
                survivors = [j for j in range(code.n) if j not in erased]
                ops.append(self._op(cls, code, message, survivors))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _op(cls, code, message, survivors) -> Op:
        def call():
            cw = constructions.encode_composite(code, message)
            return constructions.composite_erasure_decode(
                code, [(j, cw[j]) for j in survivors])

        def check(decoded):
            rank = linalg.rank_over_base(code.tower, [code.beta[j] for j in survivors])
            return check_decode(decoded, message, rank, code.k)

        return Op(cls, call, check)


# ---------------------------------------------------------------------------
# verify: the brute-force oracles behind `lrcav verify` and `lrcav shorten`
# ---------------------------------------------------------------------------

def check_verify(result, t: Optional[int] = None, availability: bool = False,
                 trials: Optional[int] = None) -> Reason:
    """Exit 0; distance t+1; availability passes; every erasure trial succeeds."""
    rc, out = result
    if rc != 0:
        return f"lrcav verify exited {rc}"
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return "verify report is not JSON"
    if t is not None and report.get("distance") != t + 1:
        return f"distance {report.get('distance')} != t+1 = {t + 1}"
    if availability and not report.get("availability", {}).get("pass"):
        return "availability check failed"
    if trials is not None:
        er = report.get("erasures", {})
        if er.get("trials") != trials or er.get("successes") != trials:
            return f"erasure trials {er.get('successes')}/{er.get('trials')} != {trials}"
        if er.get("adversarial_success") is False:
            return "adversarial whole-block pattern failed"
    return None


def check_shorten(result, r: int, s: int) -> Reason:
    """Exit 0 and the greedy guarantees |I| <= 1+(r-1)s, |Cl(I)| >= 1+rs."""
    rc, out = result
    if rc != 0:
        return f"lrcav shorten exited {rc}"
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return "shorten report is not JSON"
    size_i, size_cl = len(report.get("I", ())), len(report.get("Cl_I", ()))
    if report.get("s") != s or size_i > 1 + (r - 1) * s or size_cl < 1 + r * s:
        return f"shortening set violates |I|={size_i} <= {1 + (r - 1) * s} " \
               f"or |Cl(I)|={size_cl} >= {1 + r * s} at s={s}"
    return None


class Verify:
    name = "verify"
    min_ops = 100
    # (class, ops per block).  Sorted by latency: erasures_wzl33 0-30%;
    # shorten_wzl42 7 of the 9 ops at 30-75%, so it alone holds the p50
    # rank; dist_avail_wzl42 and mc_expander, whose latencies overlap
    # it, take one op each; dist_avail_wzl33 + shorten_wzl33 75-85%;
    # mc_concat 85-95% (p90); distance_wzl52 95-100%.
    CLASSES = [("erasures_wzl33", 6), ("shorten_wzl42", 7), ("dist_avail_wzl42", 1),
               ("mc_expander", 1), ("dist_avail_wzl33", 1), ("shorten_wzl33", 1),
               ("mc_concat", 2), ("distance_wzl52", 1)]
    ARTIFACTS = {
        "wzl42": ["wzl", "--r", "4", "--t", "2"],
        "wzl33": ["wzl", "--r", "3", "--t", "3"],
        "wzl52": ["wzl", "--r", "5", "--t", "2"],
        "concat": ["concat", "--r", "3", "--t", "2", "--blocks", "3", "--d", "15"],
        "expander": ["expander", "--n", "14", "--r", "6", "--t", "3", "--w", "4",
                     "--k", "4", "--min-girth", "4", "--seed", "7"],
    }
    TRIALS = 200

    def setup(self, workdir: str) -> None:
        self.paths = {}
        for name, args in self.ARTIFACTS.items():
            path = os.path.join(workdir, f"{name}.json")
            rc, _ = run_cli(["construct", *args, "--out", path])
            if rc != 0:
                raise SetupError(f"lrcav construct {name} exited {rc}")
            self.paths[name] = path

    def block(self, seed: int, b: int) -> List[Op]:
        rng = block_rng(seed, b)
        ops = [self._op(cls, rng.randrange(2**31))
               for cls, count in self.CLASSES for _ in range(count)]
        rng.shuffle(ops)
        return ops

    def _op(self, cls: str, seed: int) -> Op:
        p, n = self.paths, str(self.TRIALS)
        verify = lambda art, *flags: ["verify", "--code", p[art], *flags]
        argv, check = {
            "dist_avail_wzl42": (verify("wzl42", "--distance", "--availability"),
                                 lambda res: check_verify(res, t=2, availability=True)),
            "dist_avail_wzl33": (verify("wzl33", "--distance", "--availability"),
                                 lambda res: check_verify(res, t=3, availability=True)),
            "distance_wzl52": (verify("wzl52", "--distance"),
                               lambda res: check_verify(res, t=2)),
            "shorten_wzl42": (["shorten", "--code", p["wzl42"], "--r", "4", "--s", "2"],
                              lambda res: check_shorten(res, r=4, s=2)),
            "shorten_wzl33": (["shorten", "--code", p["wzl33"], "--r", "3", "--s", "2"],
                              lambda res: check_shorten(res, r=3, s=2)),
            "erasures_wzl33": (verify("wzl33", "--erasures", "3", "--trials", n,
                                      "--seed", str(seed)),
                               lambda res: check_verify(res, trials=self.TRIALS)),
            "mc_concat": (verify("concat", "--erasures", "14", "--trials", n,
                                 "--seed", str(seed)),
                          lambda res: check_verify(res, trials=self.TRIALS)),
            "mc_expander": (verify("expander", "--erasures", "6", "--trials", n,
                                   "--seed", str(seed)),
                            lambda res: check_verify(res, trials=self.TRIALS)),
        }[cls]
        return Op(cls, lambda: run_cli(argv), check)


# ---------------------------------------------------------------------------
# curves: the expansion solver and CSV output, no field code
# ---------------------------------------------------------------------------

CSV_HEADER = ["delta", "upper_new", "upper_tbf", "lower_expander",
              "lower_concat", "rate_cap"]
# crossovers frozen in the test suite
FROZEN_CROSSOVER = {(6, 3, 200): 0.2613065326633166, (5, 2, 200): 0.4221105527638191}
BOUND_ROWS = ("wang_rawat", "tbf", "yaakobi", "shortening_singleton",
              "shortening_sweep", "rate_cap_k")


def check_curves(result, path: str, r: int, t: int, grid: int) -> Reason:
    """Exit 0; header and row count; values in [0,1]; upper_new <= upper_tbf;
    the reported crossover matches the CSV (and the frozen value, if any)."""
    rc, out = result
    if rc != 0:
        return f"lrcav curves exited {rc}"
    try:
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
    except OSError as exc:
        return f"curves CSV unreadable: {exc}"
    if not table or table[0] != CSV_HEADER:
        return "curves CSV header differs"
    try:
        rows = [[float(v) for v in row] for row in table[1:]]
    except ValueError:
        return "curves CSV holds a non-number"
    if len(rows) != grid or any(len(row) != len(CSV_HEADER) for row in rows):
        return f"curves CSV has {len(rows)} rows, expected {grid}"
    if any(not 0.0 <= v <= 1.0 for row in rows for v in row):
        return "curves CSV value outside [0, 1]"
    if any(row[1] > row[2] for row in rows):
        return "upper_new exceeds upper_tbf"
    cross, prev = None, None
    for delta, _, _, expander, concat, _ in rows:
        diff = concat - expander
        if prev is not None and prev > 0.0 >= diff:
            cross = delta
            break
        prev = diff
    frozen = FROZEN_CROSSOVER.get((r, t, grid))
    if frozen is not None and (cross is None or not math.isclose(cross, frozen,
                                                                 rel_tol=1e-9)):
        return f"crossover {cross} moved from frozen {frozen}"
    said = "no concat/expander crossover on the grid" if cross is None else \
        f"concat/expander crossover near delta = {cross:.6g}"
    if said not in out:
        return "reported crossover disagrees with the CSV"
    return None


def check_bounds(result) -> Reason:
    rc, out = result
    if rc != 0:
        return f"lrcav bounds exited {rc}"
    missing = [name for name in BOUND_ROWS if f"  {name} " not in out]
    return f"bounds table lacks {missing}" if missing else None


class Curves:
    name = "curves"
    min_ops = 100
    PAIRS = [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (4, 3), (5, 3), (6, 3),
             (4, 4), (5, 4), (6, 4)]
    # Per block of 40, sorted by latency: 2 bounds tables and 12 curves at
    # grid 10 (0-35%), 12 at grid 20 (35-65%, p50), 7 at grid 30 (65-82.5%),
    # 6 at grid 45 (82.5-97.5%, p90) and one frozen grid-200 table, (6,3)
    # and (5,2) in turn.  Grids 30 and 45 take 7 and 6 pairs, rotating.
    # Users tabulate at grid 200, but one such table takes 1.0-1.5 s, too
    # long for 100 operations in a run.  The cost per grid point is the
    # same at every grid (README.md), so the smaller grids time the same
    # solver work.

    def setup(self, workdir: str) -> None:
        self.workdir = workdir

    def block(self, seed: int, b: int) -> List[Op]:
        rng = block_rng(seed, b)
        turn = self.PAIRS[b % 12:] + self.PAIRS[:b % 12]
        jobs = [(r, t, 10) for r, t in self.PAIRS] + [(r, t, 20) for r, t in self.PAIRS]
        jobs += [(r, t, 30) for r, t in turn[:7]] + [(r, t, 45) for r, t in turn[6:]]
        jobs.append((6, 3, 200) if b % 2 == 0 else (5, 2, 200))
        ops = [self._curves(f"{b}_{i}", *job) for i, job in enumerate(jobs)]
        for _ in range(2):
            k = rng.randint(2, 30)
            argv = ["bounds", "--n", str(rng.randint(k + 1, k + 40)), "--k", str(k),
                    "--r", str(rng.randint(2, 6)), "--t", str(rng.randint(1, 4))]
            ops.append(Op("bounds", lambda argv=argv: run_cli(argv), check_bounds))
        rng.shuffle(ops)
        return ops

    def _curves(self, tag: str, r: int, t: int, grid: int) -> Op:
        path = os.path.join(self.workdir, f"curves_{tag}.csv")
        argv = ["curves", "--r", str(r), "--t", str(t), "--grid", str(grid),
                "--out", path]

        def check(result):
            try:
                return check_curves(result, path, r, t, grid)
            finally:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)

        return Op(f"curves_g{grid}", lambda: run_cli(argv), check)


WORKLOADS = {w.name: w for w in (Decode, Verify, Curves)}
