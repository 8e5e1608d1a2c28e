"""Linearized polynomials and Gabidulin codes over a field tower.

A linearized polynomial sum(a_i * x^(q^i)) is GF(q)-linear as a map on
GF(q^m).  Evaluating one at n linearly independent points gives a
rank-metric codeword; erasure recovery is Moore-matrix interpolation at
any k independent surviving points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .galois import ExtElement, FieldTower
from .linalg import Matrix, rank_over_base, solve


@dataclass
class LinearizedPoly:
    """Coefficients a_0..a_l of sum(a_i x^(q^i)), low q-degree first."""

    coeffs: List[ExtElement]

    def q_degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass
class GabidulinSpec:
    tower: FieldTower
    n: int
    k: int
    eval_points: List[ExtElement]

    def __post_init__(self):
        if not (1 <= self.k <= self.n <= self.tower.m):
            raise ValueError("need k <= n <= extension degree m")
        if len(self.eval_points) != self.n:
            raise ValueError("need exactly n evaluation points")
        if rank_over_base(self.tower, self.eval_points) != self.n:
            raise ValueError("evaluation points are linearly dependent over the base field")


def default_spec(tower: FieldTower, n: int, k: int) -> GabidulinSpec:
    """Spec with the polynomial-basis evaluation points 1, x, x², ..."""
    points = [tower.basis_element(i) for i in range(n)]
    return GabidulinSpec(tower, n, k, points)


def lin_eval(tower: FieldTower, f: LinearizedPoly, x: ExtElement) -> ExtElement:
    acc = tower.zero
    xi = x
    for i, a in enumerate(f.coeffs):
        if i > 0:
            xi = tower.frobenius(xi, 1)
        if a:
            acc ^= tower.mul(a, xi)
    return acc


def gab_encode(spec: GabidulinSpec, message: Sequence[ExtElement]) -> List[ExtElement]:
    if len(message) != spec.k:
        raise ValueError(f"message must have {spec.k} symbols")
    f = LinearizedPoly(list(message))
    return [lin_eval(spec.tower, f, a) for a in spec.eval_points]


def rank_weight(tower: FieldTower, v: Sequence[ExtElement]) -> int:
    return rank_over_base(tower, v)


def moore_matrix(tower: FieldTower, points: Sequence[ExtElement], width: int) -> Matrix:
    """Matrix with entry (i, j) = points[i]^(q^j)."""
    rows = []
    for p in points:
        row = []
        x = p
        for j in range(width):
            row.append(x)
            x = tower.frobenius(x, 1)
        rows.append(row)
    return Matrix.from_rows(tower, rows, width)


def moore_interpolate(tower: FieldTower, points: Sequence[ExtElement],
                      values: Sequence[ExtElement]) -> LinearizedPoly:
    """The unique f of q-degree < k through k independent (point, value) pairs."""
    k = len(points)
    if len(values) != k:
        raise ValueError("points and values differ in length")
    if rank_over_base(tower, points) != k:
        raise ValueError("interpolation points are linearly dependent over the base field")
    M = moore_matrix(tower, points, k)
    coeffs = solve(M, list(values))
    if coeffs is None:
        raise RuntimeError("Moore system inconsistent (internal error)")
    return LinearizedPoly(coeffs)
