"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line on the real
stdout (capture disabled) so the verdicts are visible in a plain
``pytest -v`` run.
"""

import random
import time
from itertools import product
from math import comb

import pytest

from lrcav.analysis import (concatenated_dimension, erasure_monte_carlo,
                            min_distance, verify_availability)
from lrcav.bounds import (_expansion_residual, concat_expander_crossover,
                          expansion_delta, rate_cap, rate_curves,
                          shortening_singleton_distance, tbf_distance,
                          wang_rawat_distance)
from lrcav.constructions import (_has_girth, assemble_concatenated,
                                 assemble_expander_code, build_expander_parity,
                                 build_wzl, check_expansion, sample_biregular)
from lrcav.gabidulin import gab_encode, moore_interpolate
from lrcav.galois import BaseField, FieldTower
from lrcav.linalg import Matrix, rank_over_base, rref
from lrcav.shortening import (build_shortening_set, closure,
                              enumerate_local_checks)
from test_gabidulin import lin_eval


@pytest.fixture
def report(capsys):
    def _report(num, ok, detail):
        with capsys.disabled():
            print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, detail
    return _report


def test_criterion_01_wzl_parameter_reproduction(report):
    start = time.perf_counter()
    details = []
    ok = True
    for r, t in [(2, 2), (3, 2), (2, 3), (4, 2), (4, 3), (6, 2), (7, 2)]:
        code = build_wzl(r, t)
        n = comb(r + t, t)
        d = min_distance(code)
        avail = verify_availability(code, r, t).ok
        good = (code.n == n and code.k * (r + t) == n * r
                and d == t + 1 and avail)
        ok &= good
        details.append(f"({r},{t})->[{code.n},{code.k},{d}]"
                       f"{'' if good else '!'}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(1, ok, f"{' '.join(details)} in {elapsed:.1f}s")


def test_criterion_02_shortening_bound_improves(report):
    point = shortening_singleton_distance(24, 12, 3)
    wr = wang_rawat_distance(24, 12, 3, 2)
    tbf = tbf_distance(24, 12, 3, 2)
    ok = point == 8 and wr == 9 and tbf == 9 and point < min(wr, tbf)
    violations = 0
    checked = 0
    for n in range(4, 41):
        for r in range(2, 7):
            for t in (2, 3):
                kmax = int(n * rate_cap(r, t))
                for k in range(2, kmax + 1):
                    checked += 1
                    short = shortening_singleton_distance(n, k, r)
                    if short > min(wang_rawat_distance(n, k, r, t),
                                   tbf_distance(n, k, r, t)):
                        violations += 1
    ok &= violations == 0
    report(2, ok, f"(24,12,r=3): shortening {point} < min(WR {wr}, TBF {tbf}); "
                  f"grid {checked} points, {violations} violations")


def test_criterion_03_tightness_witnesses(report):
    results = []
    ok = True
    for r, t in [(2, 2), (3, 2)]:
        code = build_wzl(r, t)
        d = min_distance(code)
        bound = shortening_singleton_distance(code.n, code.k, r)
        ok &= d == bound == 3
        results.append(f"({r},{t}): d={d} bound={bound}")
    report(3, ok, "; ".join(results))


def test_criterion_04_gabidulin_mrd_exhaustive(report):
    start = time.perf_counter()
    tower = FieldTower(BaseField(1), 4)
    best = None
    count = 0
    for c0, c1 in product(range(16), repeat=2):
        if c0 == 0 and c1 == 0:
            continue
        count += 1
        msg = [c0, c1]
        w = rank_over_base(tower, gab_encode(tower, msg, 4))
        best = w if best is None else min(best, w)
    elapsed = time.perf_counter() - start
    ok = count == 255 and best == 3 and elapsed < 1.0
    report(4, ok, f"min rank distance {best} = n-k+1 over {count} codewords "
                  f"in {elapsed:.2f}s")


def test_criterion_05_interpolation_roundtrip(report):
    tower = FieldTower(BaseField(2), 8, seed=1)
    rng = random.Random(2024)
    n = 8
    points = [tower.basis_element(i) for i in range(n)]
    good = 0
    for _ in range(100):
        k = rng.randrange(1, n + 1)
        f = [tower.rand(rng) for _ in range(k)]
        values = [lin_eval(tower, f, p) for p in points]
        # erase down to exactly k independent survivors (basis subsets
        # are automatically independent)
        keep = sorted(rng.sample(range(n), k))
        g = moore_interpolate(tower, [points[i] for i in keep],
                              [values[i] for i in keep])
        good += g == f
    report(5, good == 100, f"{good}/100 exact coefficient recoveries")


def test_criterion_06_concatenated_construction(report):
    k = concatenated_dimension(30, 15, 3, 2)
    ok = k == 9
    tower = FieldTower(BaseField(1), 18, seed=0)
    code = assemble_concatenated(tower, 3, 2, blocks=3, k=9)
    stats = erasure_monte_carlo(code, 14, trials=1000, seed=20240)
    ok &= stats.successes == stats.trials == 1000
    ok &= stats.adversarial_success is True
    ok &= stats.min_survivor_rank >= 9
    ok &= stats.success_rate == 1.0
    report(6, ok, f"k={k}; {stats.successes}/{stats.trials} random 14-erasure "
                  f"decodes, adversarial pass, min survivor rank "
                  f"{stats.min_survivor_rank}")


def test_criterion_07_expander_pipeline(report):
    # (t, r+1) = (3, 7) at n = 14 admits no 4-cycle-free graph (every
    # left pair of right neighbours collides by pigeonhole), so the
    # simple-graph relaxation is the sampler target here.
    g = sample_biregular(14, 3, 7, seed=7, min_girth=4)
    ok = _has_girth(g.adj, 4)
    ok &= check_expansion(g, 3 / 14 + 1e-9, 1.0 / 3.0)
    base = BaseField(4)
    parity = build_expander_parity(g, base, seed=7)
    n_g = 14 - rref(parity)[1]
    tower = FieldTower(BaseField(4), n_g, seed=1)
    code = assemble_expander_code(tower, parity, k=4)
    stats = erasure_monte_carlo(code, 8, trials=500, seed=4242)
    ok &= stats.successes == stats.trials == 500
    # observational report: frequency of full-column-rank parity
    # submatrices on random erased 3-subsets
    rng = random.Random(42)
    full = 0
    samples = 1000
    for _ in range(samples):
        cols = rng.sample(range(14), 3)
        sub = Matrix.from_rows(base, [[row[j] for j in cols]
                                      for row in parity.to_lists()], 3)
        full += rref(sub)[1] == 3
    freq = full / samples
    ok &= freq >= 0.99
    report(7, ok, f"simple sample, expansion audit <=3 pass, n_G={n_g}, "
                  f"{stats.successes}/{stats.trials} 8-erasure decodes, "
                  f"full-rank frequency {freq:.3f} at q=16")


def test_criterion_08_expansion_solver(report):
    ok = True
    worst = 0.0
    for t, r in [(3, 6), (2, 5)]:
        lo = 1.0 / (r + 1)
        hi = 1.0 - 1.0 / t
        boundary = expansion_delta(lo, t, r)
        ok &= abs(boundary - 1.0) < 1e-9
        vals = []
        for i in range(20):
            gamma = lo + (hi - lo) * (i + 0.5) / 20.0
            d = expansion_delta(gamma, t, r)
            vals.append(d)
            if 0.0 < d < 1.0:
                worst = max(worst, abs(_expansion_residual(d, gamma, t, r)))
        ok &= all(a >= b for a, b in zip(vals, vals[1:]))
    ok &= worst < 1e-12
    report(8, ok, f"boundary roots at 1, max residual {worst:.2e}, "
                  f"nonincreasing on 20-point grids for (3,6) and (2,5)")


def test_criterion_09_rate_curve_reproduction(report):
    start = time.perf_counter()
    ok = True
    crosses = []
    for r, t in [(6, 3), (5, 2)]:
        rows = rate_curves(r, t, 200)
        ok &= all(row.upper_new <= row.upper_tbf + 1e-12 for row in rows)
        dc = concat_expander_crossover(rows)
        ok &= dc is not None
        if dc is not None:
            # both lower bounds vanish together near delta = 1, where
            # floating-point noise can re-order them; compare on the
            # meaningful range only
            before = [row for row in rows if 0.0 < row.delta < dc]
            after = [row for row in rows if dc <= row.delta <= 0.9]
            ok &= all(row.lower_concat > row.lower_expander for row in before)
            ok &= all(row.lower_concat <= row.lower_expander + 1e-12
                      for row in after)
            crosses.append(f"(r={r},t={t}) delta_c={dc:.4f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(9, ok, f"upper_new <= upper_tbf on both grids; crossover "
                  f"{', '.join(crosses)} in {elapsed:.1f}s")


def test_criterion_10_shortening_set_guarantees(report):
    ok = True
    checked = 0
    for r, t in [(2, 2), (3, 2), (2, 3), (4, 2)]:
        code = build_wzl(r, t)
        checks = enumerate_local_checks(code, r)
        per_s = build_shortening_set(checks)
        ok &= len(per_s) == code.n - code.k
        for s, res in enumerate(per_s, 1):
            ok &= res.s == s
            cl = closure(code, res.I)
            checked += 1
            ok &= len(res.I) <= 1 + (r - 1) * s
            # 1 + r*s can exceed n for the largest s; the whole code is
            # then the best possible closure
            ok &= len(cl) >= min(1 + r * s, code.n)
    report(10, ok, f"|I| and |Cl(I)| guarantees hold at all {checked} "
                   f"(code, s) pairs")
