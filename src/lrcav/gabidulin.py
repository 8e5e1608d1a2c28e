"""Linearized polynomials and Gabidulin codes over a field tower.

A linearized polynomial sum(a_i * x^(q^i)) is GF(q)-linear as a map on
GF(q^m).  Evaluating one at n linearly independent points gives a
rank-metric codeword; erasure recovery is linearized interpolation at
any k independent surviving points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from .galois import ExtElement, FieldTower
from .linalg import rank_over_base


@dataclass
class GabidulinSpec:
    """An [n, k] Gabidulin code; ``powers[i][j]`` is eval_points[j]^(q^i), i < k."""

    tower: FieldTower
    n: int
    k: int
    eval_points: List[ExtElement]
    powers: List[List[ExtElement]] = field(init=False, repr=False)

    def __post_init__(self):
        if not (1 <= self.k <= self.n <= self.tower.m):
            raise ValueError("need 1 <= k <= n <= extension degree m")
        if len(self.eval_points) != self.n:
            raise ValueError("need exactly n evaluation points")
        if rank_over_base(self.tower, self.eval_points) != self.n:
            raise ValueError("evaluation points are linearly dependent over the base field")
        self.powers = [list(self.eval_points)]
        for _ in range(1, self.k):
            self.powers.append([self.tower.frobenius(x, 1) for x in self.powers[-1]])


def default_spec(tower: FieldTower, n: int, k: int) -> GabidulinSpec:
    """Spec with the polynomial-basis evaluation points 1, x, x², ..."""
    points = [tower.basis_element(i) for i in range(n)]
    return GabidulinSpec(tower, n, k, points)


def gab_encode(spec: GabidulinSpec, message: Sequence[ExtElement]) -> List[ExtElement]:
    """Message-major: each nonzero symbol a_i times its row x_j^(q^i), one ``mul_row``."""
    if len(message) != spec.k:
        raise ValueError(f"message must have {spec.k} symbols")
    out = [spec.tower.zero] * spec.n
    for a, powers in zip(message, spec.powers):
        if a:
            out = [y ^ p for y, p in zip(out, spec.tower.mul_row(a, powers))]
    return out


def moore_interpolate(tower: FieldTower, points: Sequence[ExtElement],
                      values: Sequence[ExtElement]) -> List[ExtElement]:
    """The unique f of q-degree < k through k independent (point, value) pairs.

    Newton interpolation in two passes of O(k^2) products and one
    inversion.  Pass 1 builds the monic annihilators without division:
    A_0 = x and A_(s+1) = A_s^q - c_s^(q-1) * A_s with c_s = A_s(p_s),
    which vanishes at p_0..p_s.  It tracks A_s's values at the points
    still pending and its coefficients; c_s is zero exactly when p_s lies
    in the span of the earlier points (they are then dependent, a
    ValueError).  One inversion of c_0 * ... * c_(k-1), walked back
    through the prefix products, gives every c_s^-1.  Pass 2 takes the
    Newton coefficients by forward substitution,
    d_s = (y_s - sum(d_u * A_u(p_s) for u < s)) / c_s, and sums
    f = sum(d_s * A_s).  The products of a round that share an operand
    (c_s^(q-1), the running inverse, d_s) form one ``mul_row``, so the
    tower builds O(k) product tables.  Solving the Moore system (entry (i, j) =
    points[i]^(q^j)) gives the same f in O(k^3); the tests keep that
    solve as the oracle.  f is returned as its coefficients, low q-degree
    first.
    """
    k = len(points)
    if len(values) != k:
        raise ValueError("points and values differ in length")
    if not k:
        return []
    mul, mul_row, frob = tower.mul, tower.mul_row, tower.frobenius
    # pass 1: row s holds A_s at p_s..p_(k-1), so rows[s][0] = c_s
    rows, anns, prefix = [], [], []
    pending, ann = list(points), [tower.one]
    for s in range(k):
        c = pending[0]
        if not c:
            raise ValueError("interpolation points are linearly dependent over the base field")
        prefix.append(mul(c, prefix[-1]) if s else c)
        rows.append(pending)
        anns.append(ann)
        if s == k - 1:
            break
        ratio = tower.frobenius_ratio(c)
        scaled = mul_row(ratio, pending[1:] + ann[:-1]) + [ratio]  # ann is monic
        pending = [frob(v, 1) ^ x for v, x in zip(pending[1:], scaled)]
        scaled = scaled[len(pending):]
        ann = scaled[:1] + [x ^ frob(a, 1) for x, a in zip(scaled[1:], ann)] + [tower.one]
    # one inversion, walked back through the prefix products
    inv = tower.inv(prefix[-1])
    c_invs = [tower.zero] * k
    for s in range(k - 1, 0, -1):
        c_invs[s], inv = mul_row(inv, (prefix[s - 1], rows[s][0]))
    c_invs[0] = inv
    # pass 2: at round s, residual[j] = y_j - sum(d_u * A_u(p_j) for u < s), j >= s
    residual = list(values)
    f = [tower.zero] * k
    for s, (row, ann) in enumerate(zip(rows, anns)):
        d = mul(c_invs[s], residual[s])
        if not d:
            continue
        products = mul_row(d, row[1:] + ann[:-1])
        residual[s + 1:] = [y ^ p for y, p in zip(residual[s + 1:], products)]
        f[:s] = [x ^ p for x, p in zip(f, products[k - s - 1:])]
        f[s] ^= d
    return f
