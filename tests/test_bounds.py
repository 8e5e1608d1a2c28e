import random
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isclose, nextafter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcav import bounds
from lrcav.bounds import (MARGIN, CurveRow, binary_entropy, concat_expander_crossover,
                          expander_rate, expansion_delta, gamma_for_delta,
                          griesmer_d, griesmer_k, rate_cap, rate_curves,
                          shortening_d_bound, shortening_k_bound,
                          shortening_singleton_distance, singleton_d,
                          singleton_k, tbf_distance, wang_rawat_distance,
                          yaakobi_distance, _expansion_residual)


def test_rate_cap_values():
    assert rate_cap(2, 2) == Fraction(8, 15)
    assert rate_cap(3, 2) == Fraction(9, 14)
    assert rate_cap(2, 1) == Fraction(2, 3)
    assert rate_cap(5, 0) == 1


def test_rate_cap_decreasing_in_t():
    for r in range(1, 8):
        vals = [rate_cap(r, t) for t in range(5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_wang_rawat_values():
    assert wang_rawat_distance(24, 12, 3, 2) == 9
    assert wang_rawat_distance(10, 6, 3, 2) == 3


def test_tbf_values():
    assert tbf_distance(24, 12, 3, 2) == 9
    assert tbf_distance(10, 6, 3, 2) == 4
    # t = 0 reduces to the Singleton bound
    assert tbf_distance(24, 12, 3, 0) == 24 - 11


def test_yaakobi_values():
    assert yaakobi_distance(24, 12, 3, 2) == 9
    assert yaakobi_distance(10, 6, 3, 2) == 3


def test_shortening_values():
    assert shortening_singleton_distance(24, 12, 3) == 8
    assert shortening_singleton_distance(10, 6, 3) == 3
    # matches the oracle sweep with the Singleton oracle (see
    # test_shortening_d_bound_closed_form for the grid identity)


def test_singleton_oracles():
    assert singleton_k(2, 10, 4) == 7
    assert singleton_d(2, 10, 7) == 4


def test_shortening_d_bound_known_value():
    # Singleton-instantiated distance bound at (n, k, r) = (24, 12, 3)
    assert shortening_d_bound(24, 12, 3) == 8
    assert shortening_d_bound(10, 6, 3) == 3


def test_shortening_d_bound_closed_form():
    # with the Singleton oracle the minimum over s has the closed form
    # n - (k-1) - floor((k-2)/(r-1))
    for n in range(6, 30):
        for r in range(2, 6):
            for k in range(3, n):
                assert shortening_d_bound(n, k, r) == shortening_singleton_distance(n, k, r)


def test_shortening_k_bound_k_direction():
    # best s = 1: 1 + (r-1) + k*(2, n-1-r, d) = 2 + singleton_k(2, 3, 3) = 3
    assert shortening_k_bound(6, 3, 2) == 3


def test_shortening_k_bound_infeasible_falls_back():
    assert shortening_k_bound(5, 4, 2) == singleton_k(2, 5, 4)


def test_shortening_bounds_reject_r1():
    with pytest.raises(ValueError):
        shortening_k_bound(10, 3, 1)
    with pytest.raises(ValueError):
        shortening_d_bound(10, 5, 1)


def test_shortening_never_looser_than_others():
    violations = 0
    for n in range(6, 41):
        for r in (2, 3, 4, 5, 6):
            for t in (2, 3):
                kmax = int(n * rate_cap(r, t))
                for k in range(2, kmax + 1):
                    d_short = shortening_singleton_distance(n, k, r)
                    if d_short > min(wang_rawat_distance(n, k, r, t),
                                     tbf_distance(n, k, r, t)):
                        violations += 1
    assert violations == 0


def test_griesmer_examples():
    assert griesmer_d(2, 7, 4) == 3   # Hamming [7,4,3] is Griesmer-optimal
    assert griesmer_d(2, 23, 12) == 8  # bound value; Golay [23,12,7] sits below
    assert griesmer_k(2, 7, 3) == 4
    assert griesmer_k(2, 23, 7) == 13


def test_griesmer_inverse_consistency():
    for n in range(3, 25):
        for k in range(1, n + 1):
            d = griesmer_d(2, n, k)
            assert griesmer_k(2, n, d) >= k


def test_yaakobi_with_griesmer_oracle_tightens():
    loose = yaakobi_distance(24, 12, 3, 2, d_oracle=singleton_d)
    tight = yaakobi_distance(24, 12, 3, 2, q=2,
                             d_oracle=lambda q, n, k: griesmer_d(q, n, k))
    assert tight <= loose


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert isclose(binary_entropy(0.25), 0.8112781244591328)
    with pytest.raises(ValueError):
        binary_entropy(1.5)


@given(st.floats(0.01, 0.99))
def test_binary_entropy_symmetry(x):
    assert isclose(binary_entropy(x), binary_entropy(1.0 - x), rel_tol=1e-9)


def test_expansion_root_residual_small():
    for t, r in [(2, 4), (3, 6), (2, 5), (3, 5)]:
        lo = 1.0 / (r + 1)
        hi = 1.0 - 1.0 / t
        for i in range(1, 10):
            gamma = lo + (hi - lo) * i / 10.0
            d = expansion_delta(gamma, t, r)
            if d in (0.0, 1.0):
                continue
            assert abs(_expansion_residual(d, gamma, t, r)) < 1e-10


def test_expansion_boundary_gamma_gives_delta_one():
    for t, r in [(2, 4), (3, 6), (2, 5)]:
        assert abs(expansion_delta(1.0 / (r + 1), t, r) - 1.0) < 1e-9


def test_expansion_frozen_oracle_values():
    # frozen from an independent scipy.optimize.brentq run on the same
    # residual (agreement within bisection tolerance)
    assert isclose(expansion_delta(0.5, 3, 6), 0.0004080808332742304,
                   rel_tol=0, abs_tol=1e-9)
    assert isclose(expansion_delta(0.4, 2, 5), 7.513973391273721e-06,
                   rel_tol=0, abs_tol=1e-9)


def test_expansion_monotone_in_gamma():
    for t, r in [(3, 6), (2, 5)]:
        lo = 1.0 / (r + 1)
        hi = 1.0 - 1.0 / t
        vals = [expansion_delta(lo + (hi - lo) * i / 21.0, t, r)
                for i in range(20)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_expansion_rejects_bad_gamma():
    with pytest.raises(ValueError):
        expansion_delta(0.05, 3, 6)  # below 1/(r+1)
    with pytest.raises(ValueError):
        expansion_delta(0.7, 3, 6)   # at/above 1 - 1/t
    with pytest.raises(ValueError):
        expansion_delta(0.5, 1, 6)


def test_gamma_for_delta_inverts_expansion():
    for t, r in [(3, 6), (2, 5)]:
        for delta in (0.05, 0.1, 0.2):
            g = gamma_for_delta(delta, t, r)
            assert expansion_delta(g, t, r) >= delta - 1e-9
            # slightly larger gamma can no longer sustain delta
            if g < (1.0 - 1.0 / t) - 1e-6:
                assert expansion_delta(g + 1e-6, t, r) < delta + 1e-6
    # every interior delta of the grid-200 curve table, up to delta -> 1
    # where the residual is steep in delta
    for t, r in [(3, 6), (2, 5), (4, 4)]:
        for i in range(1, 199):
            delta = i / 199
            g = gamma_for_delta(delta, t, r)
            if g < (1.0 - 1.0 / t) - 1e-9:
                assert abs(expansion_delta(g, t, r) - delta) <= 1e-9, (t, r, i)


def _oracle_residual(delta, gamma, t, r):
    # reference: the whole formula, each term through the range-checked
    # binary_entropy
    c = gamma * (r + 1)
    arg = min(delta * c, 1.0)
    return ((t - 1) / t * binary_entropy(delta)
            - 1.0 / (r + 1) * binary_entropy(arg)
            - delta * c * binary_entropy(min(1.0 / c, 1.0)))


def _oracle_gamma_for_delta(delta, t, r):
    # reference: the gamma bisection on the reference residual, with its
    # own halving loop
    lo = 1.0 / (r + 1)
    hi = (1.0 - 1.0 / t) - 1e-12
    ok = lambda g: _oracle_residual(delta, g, t, r) >= 0.0
    if not ok(lo):
        return lo
    if ok(hi):
        return hi
    while True:
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            return lo
        if ok(mid):
            lo = mid
        else:
            hi = mid


def test_gamma_for_delta_is_float_equal_to_the_oracle_on_curve_grids():
    # every interior grid point of the tabulated curves, and the expander
    # column of the rows built from it
    for r in range(2, 9):
        for t in range(2, 6):
            base = 1.0 - t / (r + 1)
            for grid in (10, 20, 45, 200):
                rows = rate_curves(r, t, grid)
                for row in rows[1:-1]:
                    gamma = _oracle_gamma_for_delta(row.delta, t, r)
                    assert gamma_for_delta(row.delta, t, r) == gamma, (r, t, row.delta)
                    rate = base - max(row.delta * (1.0 - t * gamma), 0.0)
                    assert row.lower_expander == min(max(rate, 0.0), 1.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.integers(2, 8), st.integers(2, 5), st.floats(0.0, 1.0))
def test_gamma_for_delta_is_float_equal_to_the_oracle(delta, r, t, u):
    assert gamma_for_delta(delta, t, r) == _oracle_gamma_for_delta(delta, t, r)
    gamma = 1.0 / (r + 1) + u * ((1.0 - 1.0 / t) - 1.0 / (r + 1))
    assert _expansion_residual(delta, gamma, t, r) == \
        _oracle_residual(delta, gamma, t, r)


def test_gamma_for_delta_is_float_equal_to_the_oracle_on_a_dense_grid():
    for r in range(2, 9):
        for t in range(2, 6):
            for i in range(1, 998):
                delta = i / 998
                assert gamma_for_delta(delta, t, r) == \
                    _oracle_gamma_for_delta(delta, t, r), (r, t, delta)


def _ulps_from(x, steps):
    for _ in range(abs(steps)):
        x = nextafter(x, 2.0 if steps > 0 else 0.0)
    return x


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 8), st.integers(2, 5), st.floats(0.0, 1.0),
       st.integers(-3, 3), st.booleans())
def test_gamma_for_delta_is_float_equal_to_the_oracle_near_the_clamp(r, t, u, ulps,
                                                                      near_one):
    # delta puts the clamp delta gamma (r+1) = 1 within a few ulps of a
    # drawn gamma, or lies within a few ulps of 1, where the clamp sits
    # next to 1/(r+1) and the root next to it
    gamma = 1.0 / (r + 1) + u * ((1.0 - 1.0 / t) - 1.0 / (r + 1))
    delta = _ulps_from(1.0, -1 - abs(ulps)) if near_one else \
        _ulps_from(1.0 / (gamma * (r + 1)), ulps)
    if not 0.0 < delta < 1.0:
        return
    assert gamma_for_delta(delta, t, r) == _oracle_gamma_for_delta(delta, t, r)
    assert _expansion_residual(delta, gamma, t, r) == \
        _oracle_residual(delta, gamma, t, r)


def _exact_residual(delta, gamma, t, r):
    # the residual at the same float inputs in 50-digit decimal arithmetic
    with localcontext() as ctx:
        ctx.prec = 50
        ln2 = Decimal(2).ln()

        def entropy(x):
            if x <= 0 or x >= 1:
                return Decimal(0)
            return -(x * x.ln() + (1 - x) * (1 - x).ln()) / ln2

        d = Decimal(delta)
        c = Decimal(gamma) * (r + 1)
        return (Decimal(t - 1) / t * entropy(d) - entropy(min(d * c, Decimal(1))) / (r + 1)
                - d * c * entropy(min(1 / c, Decimal(1))))


def _residual_error(delta, gamma, t, r):
    return abs(Decimal(_expansion_residual(delta, gamma, t, r))
               - _exact_residual(delta, gamma, t, r))


def test_residual_float_error_is_far_below_the_margin():
    # gamma_for_delta skips a midpoint only where the residual is about
    # MARGIN/2 or more from 0; its soundness needs the float error below
    # MARGIN/4
    rng = random.Random(1)
    worst = worst_edge = 0
    for _ in range(1000):
        r, t = rng.randint(2, 8), rng.randint(2, 5)
        lo, hi = 1.0 / (r + 1), (1.0 - 1.0 / t) - 1e-12
        delta, gamma = rng.random(), lo + rng.random() * (hi - lo)
        worst = max(worst, _residual_error(delta, gamma, t, r))
        # within ulps of 1/(r+1), and of the clamp, an entropy argument
        # within ulps of 1 rounds away a term of about 1e-16 log2(1e16)
        edges = [(delta, _ulps_from(lo, rng.randint(0, 3)))]
        clamp = _ulps_from(1.0 / (gamma * (r + 1)), rng.randint(-3, 3))
        if clamp < 1.0:
            edges.append((clamp, gamma))
        worst_edge = max([worst_edge] + [_residual_error(d, g, t, r) for d, g in edges])
    assert worst < MARGIN / 50
    assert worst_edge < MARGIN / 10


def test_gamma_for_delta_halves_the_residual_evaluations(monkeypatch):
    # the 12 (r, t) pairs of the curves benchmark at grid 200: some 55
    # evaluations per point by bisection alone
    calls = [0, 0]

    def counting(delta, t, r):
        calls[0] += 1
        residual = original(delta, t, r)

        def counted(gamma):
            calls[1] += 1
            return residual(gamma)
        return counted

    original = bounds._residual_in_gamma
    monkeypatch.setattr(bounds, "_residual_in_gamma", counting)
    for r, t in [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (4, 3), (5, 3),
                 (6, 3), (4, 4), (5, 4), (6, 4)]:
        rate_curves(r, t, 200)
    assert calls[0] == 12 * 198
    assert calls[1] / calls[0] <= 30


def test_expander_rate_endpoints():
    assert isclose(expander_rate(0.0, 3, 6), 1.0 - 3.0 / 7.0)
    # at delta = 1 the only sustainable gamma is 1/(r+1)
    full = expander_rate(1.0, 3, 6)
    assert isclose(full, 1.0 - 3.0 / 7.0 - (1.0 - 3.0 / 7.0))


def test_rate_curves_shapes_and_order():
    rows = rate_curves(6, 3, 101)
    assert len(rows) == 101
    assert rows[0].delta == 0.0 and rows[-1].delta == 1.0
    cap = float(rate_cap(6, 3))
    for row in rows:
        assert 0.0 <= row.delta <= 1.0
        assert row.rate_cap == cap
        assert row.upper_new <= 1.0 and row.upper_tbf <= 1.0
        assert row.upper_new <= row.upper_tbf + 1e-12
        assert row.lower_expander >= 0.0 and row.lower_concat >= 0.0


def test_rate_curves_rejects_bad_grid():
    with pytest.raises(ValueError):
        rate_curves(6, 3, 1)
    with pytest.raises(ValueError):
        rate_curves(1, 3, 10)


def test_crossover_frozen_values():
    rows63 = rate_curves(6, 3, 200)
    assert isclose(concat_expander_crossover(rows63), 0.2613065326633166)
    rows52 = rate_curves(5, 2, 200)
    assert isclose(concat_expander_crossover(rows52), 0.4221105527638191)


def test_crossover_none_when_no_reversal():
    rows = [CurveRow(d, 0, 0, 0.5, 0.1, 1.0) for d in (0.0, 0.5, 1.0)]
    assert concat_expander_crossover(rows) is None


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(2, 4), st.floats(0.01, 0.95))
def test_expander_rate_below_concat_upper(r, t, delta):
    # both lower bounds must stay below the new upper bound
    upper = max((r - 1) / r * (1.0 - delta), 0.0)
    assert expander_rate(delta, t, r) <= upper + 1e-9
    assert r / (r + t) * (1.0 - delta) <= upper + 1e-9
