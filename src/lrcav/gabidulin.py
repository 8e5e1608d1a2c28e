"""Linearized polynomials and Gabidulin codes over a field tower.

A linearized polynomial sum(a_i * x^(q^i)) is GF(q)-linear as a map on
GF(q^m).  Evaluating one at n linearly independent points gives a
rank-metric codeword; erasure recovery is linearized interpolation at
any k independent surviving points.  A linearized polynomial is its
coefficient list, low q-degree first: ``gab_encode`` takes one as the
message and ``moore_interpolate`` returns one, and both refuse, with a
ValueError, an int that is no field element (``FieldTower.check``).
An [n, k] Gabidulin code is fixed by its tower and (n, k): it evaluates
at the polynomial basis 1, x, ..., x^(n-1), independent exactly when
n <= m, where the encoder needs no extension-field product
(``gab_encode``).
"""

from __future__ import annotations

from typing import List, Sequence

from .galois import ExtElement, FieldTower


def gab_encode(tower: FieldTower, message: Sequence[ExtElement], n: int) -> List[ExtElement]:
    """f(x^j) for j < n, f = sum(a_i * X^(q^i)) with k = len(message)
    coefficients: Horner in the Frobenius map.  A ValueError unless
    1 <= k <= n <= m.

    At a basis point a_i * (x^j)^(q^i) = Frob^i(g_i * x^j) with
    g_i = a_i^(q^-i) = Frob^(m-i)(a_i), so the codeword is
    sum_i Frob^i(h_i) for the rows h_i = [g_i * x^j]_j, each a chain of
    coordinate shifts (``basis_row``).  acc <- Frob(acc) + h_i, for i
    from k-1 down to 0, sums it with byte-table passes and no product.
    """
    k = len(message)
    if not 1 <= k <= n <= tower.m:
        raise ValueError("need 1 <= k <= n <= extension degree m")
    tower.check(message)
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

    Newton interpolation in two passes on packed rows (``FieldTower.pack``:
    lane j of a row holds element j), one inversion, O(k) products and
    one bit-plane pass per round.  Pass 1 builds the monic annihilators
    without division: A_0 = x and A_(s+1) = A_s^q - c_s^(q-1) * A_s with
    c_s = A_s(p_s), which vanishes at p_0..p_s.  It keeps

        X_s = [A_s(p_s..p_(k-1)), a_0..a_(s-1), 1],

    A_s's values at the points still pending and its coefficients, so
    c_s is lane 0 of X_s, and with R_s = X_s >> one lane (k lanes)

        X_(s+1) = c_s^(q-1) * R_s + Frob(R_s), coefficient lanes moved up one.

    Both maps are GF(q)-linear, so a round is one ``plane_sum`` over R_s's
    bit planes with two image sets, lambda * x^i (lambda = c_s^(q-1),
    ``basis_row``) and (x^q)^i (``frobenius_images``).  The lane move
    follows from A_s^q = sum(a_j^q * x^(q^(j+1))): the Frobenius of
    coefficient j is coefficient j+1 of A_s^q, while a pending value
    A_s(p)^q stays in its lane.  So the Frobenius half keeps its low
    k-s-1 lanes (the pending values) and shifts the rest up one lane, a
    mask and a shift; the monic 1 lands in the new top lane, one lane
    above X_s's.  c_s is zero exactly when p_s lies in the span of the
    earlier points (they are then dependent, a ValueError).  One
    inversion of c_0 * ... * c_(k-1), walked back through the prefix
    products, gives every c_s^-1.  Pass 2 takes the Newton coefficients
    d_s = residual_s / c_s by forward substitution and sums
    f = sum(d_s * A_s) in one row of k lanes,

        Y_s = [residual_s..residual_(k-1), f_0..f_(s-1)],
        Y_(s+1) = (Y_s >> one lane) + d_s * R_s,

    from Y_0 = values, so Y_k is f: a round is one ``plane_sum`` on the
    planes pass 1 took of R_s, none when d_s = 0.  Solving the Moore
    system (entry (i, j) = points[i]^(q^j)) gives the same f in O(k^3);
    the tests keep that solve as the oracle.  f is returned as its
    coefficients, low q-degree first.
    """
    k = len(points)
    if len(values) != k:
        raise ValueError("points and values differ in length")
    tower.check(points)
    tower.check(values)
    if not k:
        return []
    mul, m, lane = tower.mul, tower.m, tower.m * tower.base.w
    full = (1 << lane) - 1
    # pass 1: planes[s] = R_s's bit planes, cs[s] = c_s, prefix[s] = c_0 * ... * c_s
    planes, cs, prefix = [], [], []
    x = tower.pack(points) ^ 1 << k * lane  # X_0: A_0 = x is monic
    for s in range(k):
        c, row = x & full, x >> lane
        if not c:
            raise ValueError("interpolation points are linearly dependent over the base field")
        prefix.append(mul(c, prefix[-1]) if s else c)
        planes.append(tower.bit_planes(row))
        cs.append(c)
        if s == k - 1:
            break
        scaled, mapped = tower.plane_sum(planes[-1], tower.basis_row(tower.frobenius_ratio(c), m),
                                         tower.frobenius_images)
        pending = mapped & (1 << (k - s - 1) * lane) - 1
        x = scaled ^ pending ^ (mapped ^ pending) << lane  # the coefficient lanes move up one
    # one inversion, walked back through the prefix products
    inv = tower.inv(prefix[-1])
    c_invs = [tower.zero] * k
    for s in range(k - 1, 0, -1):
        c_invs[s], inv = tower.mul_each(inv, (prefix[s - 1], cs[s]))
    c_invs[0] = inv
    # pass 2: lane 0 of y is residual_s = y_s - sum(d_u * A_u(p_s) for u < s)
    y = tower.pack(values)
    for c_inv, row_planes in zip(c_invs, planes):
        d = mul(c_inv, y & full)
        y >>= lane
        if d:
            y ^= tower.plane_sum(row_planes, tower.basis_row(d, m))
    return tower.unpack(y, k)
