"""Linearized polynomials and Gabidulin codes over a field tower.

A linearized polynomial sum(a_i * x^(q^i)) is GF(q)-linear as a map on
GF(q^m).  Evaluating one at n linearly independent points gives a
rank-metric codeword; erasure recovery is linearized interpolation at
any k independent surviving points.  An [n, k] Gabidulin code is fixed
by its tower and (n, k): it evaluates at the polynomial basis 1, x, ...,
x^(n-1), independent exactly when n <= m, where the encoder needs no
extension-field product (``gab_encode``).
"""

from __future__ import annotations

from typing import List, Sequence

from .galois import ExtElement, FieldTower


def gab_encode(tower: FieldTower, message: Sequence[ExtElement], n: int) -> List[ExtElement]:
    """f(x^j) for j < n, f = sum(a_i * X^(q^i)) with k = len(message)
    coefficients: Horner in the Frobenius map.

    At a basis point a_i * (x^j)^(q^i) = Frob^i(g_i * x^j) with
    g_i = a_i^(q^-i) = Frob^(m-i)(a_i), so the codeword is
    sum_i Frob^i(h_i) for the rows h_i = [g_i * x^j]_j, each a chain of
    coordinate shifts (``basis_row``).  acc <- Frob(acc) + h_i, for i
    from k-1 down to 0, sums it with byte-table passes and no product.
    """
    k = len(message)
    if not 1 <= k <= n <= tower.m:
        raise ValueError("need 1 <= k <= n <= extension degree m")
    acc = [tower.zero] * n
    for i in range(k - 1, -1, -1):
        if i < k - 1:
            acc = tower.frobenius_row(acc)
        if message[i]:
            g = tower.frobenius(message[i], tower.m - i)
            acc = [y ^ h for y, h in zip(acc, tower.basis_row(g, n))]
    return acc


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
    tower builds O(k) product tables; pass 1's Frobenius images of a
    round are one ``frobenius_row``.  Solving the Moore system (entry (i, j) =
    points[i]^(q^j)) gives the same f in O(k^3); the tests keep that
    solve as the oracle.  f is returned as its coefficients, low q-degree
    first.
    """
    k = len(points)
    if len(values) != k:
        raise ValueError("points and values differ in length")
    if not k:
        return []
    mul, mul_row = tower.mul, tower.mul_row
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
        row = pending[1:] + ann[:-1]
        scaled = mul_row(ratio, row) + [ratio]  # ann is monic
        mapped = tower.frobenius_row(row)
        cut = len(pending) - 1
        pending = [v ^ x for v, x in zip(mapped[:cut], scaled)]
        ann = (scaled[cut:cut + 1] + [x ^ a for x, a in zip(scaled[cut + 1:], mapped[cut:])]
               + [tower.one])
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
