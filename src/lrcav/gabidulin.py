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
    """Message-major: each nonzero symbol a_i leads its n products a_i * x_j^(q^i)."""
    if len(message) != spec.k:
        raise ValueError(f"message must have {spec.k} symbols")
    mul = spec.tower.mul
    out = [spec.tower.zero] * spec.n
    for a, powers in zip(message, spec.powers):
        if a:
            for j, x in enumerate(powers):
                out[j] ^= mul(a, x)
    return out


def moore_interpolate(tower: FieldTower, points: Sequence[ExtElement],
                      values: Sequence[ExtElement]) -> List[ExtElement]:
    """The unique f of q-degree < k through k independent (point, value) pairs.

    Newton interpolation in O(k^2) tower operations: A is the monic
    annihilator of the points so far and f interpolates them.  At each new
    point p, c = A(p) is zero exactly when p lies in their span (the
    points are then dependent, a ValueError); otherwise
    f += ((y - f(p)) / c) * A keeps the old values and takes y at p, and
    A <- A^q - c^(q-1) * A also vanishes at p.  Solving the Moore system
    (entry (i, j) = points[i]^(q^j)) gives the same f in O(k^3); the
    tests keep that solve as the oracle.  f is returned as its
    coefficients, low q-degree first.
    """
    k = len(points)
    if len(values) != k:
        raise ValueError("points and values differ in length")
    mul, frob = tower.mul, tower.frobenius
    f = [tower.zero] * k
    ann = [tower.one]
    for p, y in zip(points, values):
        c = fp = tower.zero
        x = p
        for i, a in enumerate(ann):
            if i:
                x = frob(x, 1)
            c ^= mul(x, a)  # x leads both products: one table build serves them
            if f[i]:
                fp ^= mul(x, f[i])
        if not c:
            raise ValueError("interpolation points are linearly dependent over the base field")
        c_inv = tower.inv(c)
        scale = mul(c_inv, y ^ fp)
        ratio = mul(c_inv, frob(c, 1))  # c^(q-1)
        if scale:
            for i, a in enumerate(ann):
                f[i] ^= mul(scale, a)
        ann = ([mul(ratio, ann[0])]
               + [frob(a, 1) ^ mul(ratio, b) for a, b in zip(ann, ann[1:])]
               + [tower.one])
    return f
