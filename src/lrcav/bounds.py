"""Distance and rate bounds for (r, t)-availability codes.

Includes the Singleton and Griesmer k*/d* oracles, the Wang-Rawat and
Tamo-Barg-Frolov distance bounds, the Yaakobi alphabet-dependent bound,
the shortening bound (in closed Singleton form and as oracle sweeps on
dimension and distance), the product-form rate cap, the transcendental
expansion solver for random biregular graphs, and the asymptotic
rate-vs-distance curves for all four families.  Pure arithmetic: this
module imports nothing from the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, inf, log2
from typing import Callable, List, Optional


def rate_cap(r: int, t: int) -> Fraction:
    """Product-form upper bound on the rate of an (r, t)-availability code."""
    if r < 1 or t < 0:
        raise ValueError("need r >= 1 and t >= 0")
    out = Fraction(1)
    for i in range(1, t + 1):
        out *= Fraction(i * r, i * r + 1)
    return out


# ---------------------------------------------------------------------------
# k*(q, n, d) and d*(q, n, k) oracles
# ---------------------------------------------------------------------------

def singleton_k(q: int, n: int, d: int) -> int:
    return n - d + 1


def singleton_d(q: int, n: int, k: int) -> int:
    return n - k + 1


def griesmer_d(q: int, n: int, k: int) -> int:
    """Largest d with sum_{i<k} ceil(d/q^i) <= n."""
    if k < 1:
        raise ValueError("need k >= 1")
    d = 0
    while sum(-(-(d + 1) // q**i) for i in range(k)) <= n:
        d += 1
    return d


def griesmer_k(q: int, n: int, d: int) -> int:
    """Largest k with sum_{i<k} ceil(d/q^i) <= n."""
    k = 0
    total = 0
    while True:
        term = -(-d // q**k)
        if total + term > n:
            return k
        total += term
        k += 1


def wang_rawat_distance(n: int, k: int, r: int, t: int) -> int:
    """d <= n - k + 2 - ceil((t(k-1)+1) / (t(r-1)+1))."""
    if t < 1:
        raise ValueError("need t >= 1")
    return n - k + 2 - ceil(Fraction(t * (k - 1) + 1, t * (r - 1) + 1))


def tbf_distance(n: int, k: int, r: int, t: int) -> int:
    """d <= n - sum_{i=0}^{t} floor((k-1) / r^i)."""
    if t < 0:
        raise ValueError("need t >= 0")
    return n - sum((k - 1) // r**i for i in range(t + 1))


def yaakobi_distance(n: int, k: int, r: int, t: int, q: int = 2,
                     d_oracle: Callable = singleton_d) -> int:
    """Alphabet-dependent bound: minimize d*(q, n-B, k-A) over removals.

    A = sum((r-1) y_j) + x and B = sum(r y_j) + x over x removed groups
    with multiplicities y_j in [1, t]; only the sum of the y_j matters,
    so the grid collapses to (x, sum).
    """
    if t < 1:
        raise ValueError("need t >= 1")
    best = None
    x_max = ceil(Fraction(k - 1, (r - 1) * t + 1))
    for x in range(1, max(x_max, 1) + 1):
        for ysum in range(x, t * x + 1):
            a = (r - 1) * ysum + x
            b = r * ysum + x
            if a >= k or n - b < k - a:
                continue
            val = d_oracle(q, n - b, k - a)
            if best is None or val < best:
                best = val
    if best is None:
        best = d_oracle(q, n, k)
    return best


def shortening_singleton_distance(n: int, k: int, r: int) -> int:
    """d <= n - (k-1) - s with s = min(floor((k-2)/(r-1)), n-k), the
    Singleton-instantiated form (s is the largest feasible shortening):
    ``shortening_d_bound`` with the Singleton oracle, for every k >= 2."""
    if r < 2 or k < 2:
        raise ValueError("need r >= 2 and k >= 2")
    return n - (k - 1) - min((k - 2) // (r - 1), n - k)


def shortening_k_bound(n: int, d: int, r: int, q: int = 2,
                       k_oracle: Callable = singleton_k) -> int:
    """Dimension bound for availability t >= 2: the minimum over feasible
    s >= 1 of 1 + (r-1)s + k*(q, n-1-rs, d), or k*(q, n, d) when no s is
    feasible.  Requires r >= 2 (for r = 1 the bound degenerates)."""
    if r < 2:
        raise ValueError("need r >= 2")
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    best = None
    s = 1
    while s * r + 1 <= n - d:
        np = n - 1 - s * r
        if np >= 1 and np >= d - 1:
            val = 1 + (r - 1) * s + k_oracle(q, np, d)
            if best is None or val < best:
                best = val
        s += 1
    return k_oracle(q, n, d) if best is None else best


def shortening_d_bound(n: int, k: int, r: int, q: int = 2,
                       d_oracle: Callable = singleton_d) -> int:
    """Distance bound for availability t >= 2: the minimum over feasible
    s >= 1 of d*(q, n-1-rs, k-1-(r-1)s), or d*(q, n, k) when no s is
    feasible.  Requires r >= 2 (for r = 1 the bound degenerates)."""
    if r < 2:
        raise ValueError("need r >= 2")
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    best = None
    s = 1
    while 1 + (r - 1) * s < k:
        np = n - 1 - s * r
        kp = k - 1 - (r - 1) * s
        if np >= kp >= 1:
            val = d_oracle(q, np, kp)
            if best is None or val < best:
                best = val
        s += 1
    return d_oracle(q, n, k) if best is None else best


# ---------------------------------------------------------------------------
# expansion of random (t, r+1)-biregular graphs
# ---------------------------------------------------------------------------

def binary_entropy(x: float) -> float:
    if x < 0.0 or x > 1.0:
        raise ValueError("entropy argument outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * log2(x) - (1.0 - x) * log2(1.0 - x)


def _residual_in_gamma(delta: float, t: int, r: int) -> Callable[[float], float]:
    """The expansion residual at fixed delta, as a function of gamma:

        (t-1)/t H(delta) - H(min(delta c, 1))/(r+1) - delta c H(min(1/c, 1))

    with c = gamma (r+1).  The delta-only terms are computed once; the two
    gamma-dependent entropies are inlined, since `gamma_for_delta`
    evaluates this some 25 times per point.  Their arguments lie in [0, 1]
    for every admissible gamma > 0, and min(x, 1.0) is written as a
    conditional (the same value, without a builtin call), so each
    evaluation is float-identical to the whole formula."""
    fixed = (t - 1) / t * binary_entropy(delta)
    r1 = r + 1
    inv_r1 = 1.0 / r1

    def residual(gamma: float) -> float:
        c = gamma * r1
        dc = delta * c
        x = 1.0 if dc > 1.0 else dc
        h_dc = 0.0 if x == 0.0 or x == 1.0 else \
            -x * log2(x) - (1.0 - x) * log2(1.0 - x)
        x = 1.0 / c
        x = 1.0 if x > 1.0 else x
        h_c = 0.0 if x == 0.0 or x == 1.0 else \
            -x * log2(x) - (1.0 - x) * log2(1.0 - x)
        return fixed - inv_r1 * h_dc - dc * h_c

    return residual


def _expansion_residual(delta: float, gamma: float, t: int, r: int) -> float:
    return _residual_in_gamma(delta, t, r)(gamma)


ROOT_TOL = 1e-12  # largest |residual| accepted at an expansion root


def _bisect(pred: Callable[[float], bool], lo: float, hi: float,
            true_upto: float = -inf, false_from: float = inf) -> float:
    """Halve [lo, hi], keeping pred(lo) true and pred(hi) false, until the
    midpoint equals an endpoint (float resolution); return lo.  A midpoint
    at or left of true_upto counts as true, and one at or right of
    false_from as false, without a call to pred."""
    while True:
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            return lo
        if mid <= true_upto or (mid < false_from and pred(mid)):
            lo = mid
        else:
            hi = mid


def expansion_delta(gamma: float, t: int, r: int) -> float:
    """Positive root delta of the biregular-ensemble expansion equation.

    For gamma at the lower endpoint 1/(r+1) the residual is positive on
    (0, 1) and vanishes only at delta = 1.
    """
    if t < 2:
        raise ValueError("need t >= 2")
    lo_gamma = 1.0 / (r + 1)
    hi_gamma = 1.0 - 1.0 / t
    if not (lo_gamma - 1e-15 <= gamma < hi_gamma):
        raise ValueError("gamma outside [1/(r+1), 1 - 1/t)")
    f = lambda d: _expansion_residual(d, gamma, t, r)
    lo = 1e-9
    hi = 1.0
    f_hi = f(hi)
    if abs(f_hi) <= ROOT_TOL:
        # residual vanishes at the right endpoint (boundary gamma)
        if f((lo + hi) / 2) > 0.0:
            return 1.0
    # the delta*log(1/delta) term has a positive coefficient for any
    # admissible gamma, so the residual is positive for small enough delta;
    # shrink until the bracket opens (the root itself can be tiny)
    while f(lo) <= 0.0 and lo > 1e-280:
        lo *= 1e-4
    if f(lo) <= 0.0:
        # gamma so close to 1 - 1/t that the positive root underflows
        # double precision; 0 is the exactly-representable limit
        return 0.0
    if f_hi > ROOT_TOL:
        raise ValueError("no sign change bracket found (degenerate parameters)")
    root = _bisect(lambda d: f(d) > 0.0, lo, hi)
    if abs(f(root)) > ROOT_TOL:
        raise ValueError("bisection failed to reach the residual tolerance")
    return root


MARGIN = 1e-13  # a float residual this far from 0 has the sign of the exact one


def _margin_point(residual: Callable[[float], float], root: float, step: float,
                  limit: float) -> float:
    """The first of root + step, root + 4 step, root + 16 step, ... whose
    residual is at least MARGIN in size with the sign the residual has on
    that side of the root (positive left of it, negative right of it), or
    limit if the walk reaches limit first.  The sign of step is the side."""
    sign = 1.0 if step < 0.0 else -1.0
    while True:
        g = root + step
        if (limit - g) * sign >= 0.0:
            return limit
        if residual(g) * sign >= MARGIN:
            return g
        step *= 4.0


def gamma_for_delta(delta: float, t: int, r: int) -> float:
    """Largest gamma in [1/(r+1), 1-1/t) sustaining relative distance delta,
    that is, with a non-negative expansion residual at (delta, gamma).

    Contract: the result is float-equal to bisecting [lo, hi] =
    [1/(r+1), 1-1/t-1e-12] on `residual(gamma) >= 0` down to float
    resolution (`_bisect`), after returning lo if the residual at lo is
    negative and hi if the residual at hi is not.  Bisection costs some 55
    residual evaluations per point; this costs about 25, in three steps:

    1. Illinois regula falsi (Dowell and Jarratt, BIT 11, 1971) on the same
       residual, keeping residual(a) >= 0 > residual(b), stops at the first
       iterate x with |residual(x)| < MARGIN.
    2. Walking out from x (`_margin_point`) finds a point p left of x with
       residual >= MARGIN and a point q right of x with residual <= -MARGIN.
    3. The bisection's own midpoint walk is replayed from [lo, hi]: a
       midpoint at or left of p is taken as true and one at or right of q
       as false without evaluating; every other midpoint is evaluated, as
       the bisection does.

    Why a skipped midpoint gets the sign the bisection would compute.  Let
    E bound the residual's float error; the argument needs E < MARGIN/4.
    Against 50-digit decimal arithmetic E stays below MARGIN/50 at random
    points, and below MARGIN/10 within a few ulps of lo or of the clamp,
    where an entropy argument within ulps of 1 rounds away a term of about
    1e-16 log2(1e16) (tests/test_bounds.py).  Left of the clamp delta gamma (r+1) = 1 the
    residual is a constant minus two concave functions of gamma, H(delta c)
    and delta c H(1/c) (the perspective of H), so it is convex there; at
    the clamp it equals -H(delta)/t < 0, and past it only -delta c H(1/c)
    varies, which falls.  So the exact residual has one sign change, at a
    root between p and q, and falls all the way from lo to that root:
    every midpoint left of p has a residual at least residual(p) >=
    MARGIN - E.  A midpoint m right of q halves a bracket [a, b] with
    a < q and a float residual at b below 0; m is at least as close to q
    as to b, so convexity bounds its residual by (-MARGIN + 2E)/2, and past
    the clamp the residual is below residual(q) or -H(delta)/t.  Both lie
    far beyond E, except -H(delta)/t for delta within about 1e-15 of 1,
    where the clamp sits within a few ulps of lo; the tests draw there too.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    lo = 1.0 / (r + 1)
    hi = (1.0 - 1.0 / t) - 1e-12
    residual = _residual_in_gamma(delta, t, r)
    f_lo = residual(lo)
    if f_lo < 0.0:
        return lo
    f_hi = residual(hi)
    if f_hi >= 0.0:
        return hi
    # Illinois: the secant through (a, wa) and (b, wb), where an end that
    # is kept twice in a row has its weight halved
    a, fa, wa, b, fb, wb = lo, f_lo, f_lo, hi, f_hi, f_hi
    kept = 0  # +1: b was kept last time, -1: a was
    slope = (f_hi - f_lo) / (hi - lo)
    while True:
        x = b - wb * (b - a) / (wb - wa)
        if not a < x < b:
            x = (a + b) / 2.0
            if not a < x < b:
                break
        fx = residual(x)
        if fx >= 0.0:
            slope = (fb - fx) / (b - x)
            a, fa, wa = x, fx, fx
            if kept == 1:
                wb /= 2.0
            kept = 1
        else:
            slope = (fx - fa) / (x - a)
            b, fb, wb = x, fx, fx
            if kept == -1:
                wa /= 2.0
            kept = -1
        if -MARGIN < fx < MARGIN:
            break
    step = 2.0 * MARGIN / -slope
    return _bisect(lambda g: residual(g) >= 0.0, lo, hi,
                   _margin_point(residual, x, -step, lo),
                   _margin_point(residual, x, step, hi))


# ---------------------------------------------------------------------------
# rate-vs-distance curves
# ---------------------------------------------------------------------------

@dataclass
class CurveRow:
    delta: float
    upper_new: float
    upper_tbf: float
    lower_expander: float
    lower_concat: float
    rate_cap: float


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def expander_rate(delta: float, t: int, r: int) -> float:
    """1 - t/(r+1) - max(delta (1 - t gamma), 0) at the best sustainable gamma."""
    base = 1.0 - t / (r + 1)
    if delta <= 0.0:
        return base
    gamma = 1.0 / (r + 1) if delta >= 1.0 else gamma_for_delta(delta, t, r)
    return base - max(delta * (1.0 - t * gamma), 0.0)


def rate_curves(r: int, t: int, grid: int) -> List[CurveRow]:
    """Uniform delta grid of all four asymptotic curves plus the rate cap."""
    if grid < 2:
        raise ValueError("need at least 2 grid points")
    if r < 2 or t < 2:
        raise ValueError("need r >= 2 and t >= 2")
    cap = float(rate_cap(r, t))
    tbf_denom = sum(r**-i for i in range(t + 1))
    rows = []
    for g in range(grid):
        delta = g / (grid - 1)
        rows.append(CurveRow(
            delta=delta,
            upper_new=_clamp01((r - 1) / r * (1.0 - delta)),
            upper_tbf=_clamp01((1.0 - delta) / tbf_denom),
            lower_expander=_clamp01(expander_rate(delta, t, r)),
            lower_concat=_clamp01(r / (r + t) * (1.0 - delta)),
            rate_cap=cap,
        ))
    return rows


def concat_expander_crossover(rows: List[CurveRow]) -> Optional[float]:
    """First delta where the expander lower bound overtakes the concatenated one."""
    prev = None
    for row in rows:
        diff = row.lower_concat - row.lower_expander
        if prev is not None and prev > 0.0 >= diff:
            return row.delta
        prev = diff
    return None
