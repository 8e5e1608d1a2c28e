import random
from collections import Counter
from itertools import product

import pytest

from listalg import ListMatrix, solve
from lrcav.gabidulin import gab_encode, moore_interpolate
from lrcav.galois import BaseField, FieldTower
from lrcav.linalg import rank_over_base


def lin_eval(tower, coeffs, x):
    """sum(a_i * x^(q^i)) for coeffs a_0, a_1, ..., low q-degree first: one
    point at a time, in tower products, the oracle for the Frobenius-Horner
    ``gab_encode``."""
    acc = tower.zero
    xi = x
    for i, a in enumerate(coeffs):
        if i > 0:
            xi = tower.frobenius(xi, 1)
        if a:
            acc ^= tower.mul(a, xi)
    return acc


def _independent_points(tower, n, rng):
    pts = [tower.rand(rng) for _ in range(n)]
    while rank_over_base(tower, pts) < n:
        pts = [tower.rand(rng) for _ in range(n)]
    return pts


def moore_matrix(tower, points, width):
    # entry (i, j) = points[i]^(q^j): the Moore system behind the O(k^3) oracle
    rows = [[tower.frobenius(p, j) for j in range(width)] for p in points]
    return ListMatrix.from_rows(tower, rows, width)


def tower24():
    return FieldTower(BaseField(2), 4, seed=1)


def test_identity_polynomial():
    t = tower24()
    f = [t.one]
    rng = random.Random(0)
    for _ in range(20):
        x = t.rand(rng)
        assert lin_eval(t, f, x) == x


def test_zero_polynomial():
    t = tower24()
    f = [t.zero, t.zero]
    rng = random.Random(1)
    for _ in range(20):
        assert lin_eval(t, f, t.rand(rng)) == t.zero


def test_evaluation_is_base_linear():
    t = tower24()
    rng = random.Random(2)
    for _ in range(100):
        f = [t.rand(rng) for _ in range(3)]
        beta, gamma = t.rand(rng), t.rand(rng)
        a, b = rng.randrange(t.base.q), rng.randrange(t.base.q)
        scale = t.base.scalar_mul
        lhs = lin_eval(t, f, scale(a, beta) ^ scale(b, gamma))
        rhs = scale(a, lin_eval(t, f, beta)) ^ scale(b, lin_eval(t, f, gamma))
        assert lhs == rhs


def basis(tower, n):
    return [tower.basis_element(j) for j in range(n)]


def test_encode_unit_message_gives_eval_points():
    t = tower24()
    msg = [t.one, t.zero]
    assert gab_encode(t, msg, 4) == basis(t, 4)


def test_encode_zero_message():
    t = tower24()
    assert gab_encode(t, [t.zero, t.zero], 4) == [t.zero] * 4


@pytest.mark.parametrize("w,m", [(1, 8), (4, 5), (8, 3)])
def test_encode_matches_per_point_evaluation(w, m):
    # every 1 <= k <= n <= m, at the basis points, and messages with zero
    # symbols in every position
    t = FieldTower(BaseField(w), m, seed=3)
    rng = random.Random(30 + w)
    for n in range(1, m + 1):
        for k in range(1, n + 1):
            for _ in range(6):
                msg = [t.rand(rng) if rng.random() < 0.6 else t.zero for _ in range(k)]
                assert gab_encode(t, msg, n) == [lin_eval(t, msg, x) for x in basis(t, n)]


@pytest.mark.parametrize("w,m,k", [(1, 18, 9), (4, 8, 4), (8, 12, 6), (1, 36, 24)])
def test_encode_matches_per_point_evaluation_at_decode_scale(w, m, k):
    # the towers and (n_G, k) of the benchmark's four composite codes
    t = FieldTower(BaseField(w), m)
    rng = random.Random(50 + m)
    for _ in range(3):
        msg = [t.rand(rng) for _ in range(k)]
        assert gab_encode(t, msg, m) == [lin_eval(t, msg, x) for x in basis(t, m)]


def _count_tower_calls(monkeypatch, *names):
    """A Counter of calls to these FieldTower methods, for the test's duration.

    With "bit_planes" among them, "lanes" sums the lanes of the packed
    rows it takes planes of; with "plane_sum", "paired" counts its calls
    with two image sets.
    """
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            if name == "bit_planes":
                tower, row = args
                calls["lanes"] += -(-row.bit_length() // (tower.m * tower.base.w))
            if name == "plane_sum" and len(args) == 4:
                calls["paired"] += 1
            return fn(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(FieldTower, name, counted(name, getattr(FieldTower, name)))
    return calls


@pytest.mark.parametrize("w,m", [(1, 8), (4, 6), (8, 3)])
def test_encode_makes_no_products(monkeypatch, w, m):
    # Frobenius passes and coordinate shifts only: no product, and no
    # product tables built
    t = FieldTower(BaseField(w), m, seed=2)
    rng = random.Random(11)
    msgs = [[t.rand(rng) for _ in range(m - 1)] for _ in range(3)]
    msgs.append([t.basis_element(2) ^ 7, t.zero] + [t.rand(rng) for _ in range(m - 3)])
    expected = [[lin_eval(t, msg, x) for x in basis(t, m)] for msg in msgs]
    calls = _count_tower_calls(monkeypatch, "mul", "plane_sum", "_nibble_tables")
    assert [gab_encode(t, msg, m) for msg in msgs] == expected
    assert not calls


@pytest.mark.parametrize("n,k", [(4, 0), (2, 3), (5, 2), (5, 5)])
def test_spec_rejects_bad_parameters(n, k):
    # the [n, k] code's parameters, k = len(message): k < 1 (an empty
    # message), k > n, and n > m, as the basis points 1, ..., x^(n-1) are
    # independent exactly when n <= m
    t = tower24()
    with pytest.raises(ValueError, match="1 <= k <= n <= extension degree m"):
        gab_encode(t, [t.one] * k, n)


def test_out_of_field_symbols_rejected():
    # over GF(2^8) an int outside [0, 2^8) is no element: its high bits
    # would spill into the next lane of a packed row
    t = tower24()
    rng = random.Random(12)
    pts = _independent_points(t, 2, rng)
    f = moore_interpolate(t, pts, [5, 7])
    assert [lin_eval(t, f, p) for p in pts] == [5, 7]
    for bad in (5 | 1 << 8, 5 | 1 << 20, -1):
        with pytest.raises(ValueError, match="outside"):
            moore_interpolate(t, pts, [bad, 7])
        with pytest.raises(ValueError, match="outside"):
            moore_interpolate(t, pts, [7, bad])
    for bad in (1 << 8, pts[1] | 1 << 8, -pts[1]):
        with pytest.raises(ValueError, match="outside"):
            moore_interpolate(t, [pts[0], bad], [5, 7])
    for message in ([512, 3], [3, 512], [-1, 3]):
        with pytest.raises(ValueError, match="outside"):
            gab_encode(t, message, 4)


def test_mrd_exhaustive_small_field():
    # [4, 2] code over GF(2^4)/GF(2): minimum rank weight is n - k + 1 = 3
    t = FieldTower(BaseField(1), 4)
    best = None
    count = 0
    for c0, c1 in product(range(16), repeat=2):
        if c0 == 0 and c1 == 0:
            continue
        count += 1
        msg = [c0, c1]
        w = rank_over_base(t, gab_encode(t, msg, 4))
        best = w if best is None else min(best, w)
    assert count == 255
    assert best == 3


def test_rank_weight_zero_vector():
    t = tower24()
    assert rank_over_base(t, [t.zero, t.zero]) == 0


def test_rank_weight_repeated_element():
    t = tower24()
    a = random.Random(4).randrange(1, t.base.q ** t.m)
    assert rank_over_base(t, [a, a, a]) == 1


def test_rank_weight_frobenius_orbit_of_basis_image():
    t = tower24()
    rng = random.Random(5)
    # some nonzero element whose Frobenius orbit spans; search a few
    for _ in range(50):
        a = rng.randrange(1, t.base.q ** t.m)
        orbit = [t.frobenius(a, i) for i in range(t.m)]
        if rank_over_base(t, orbit) == t.m:
            return
    pytest.fail("no element with full-rank Frobenius orbit found")


def test_interpolate_single_point():
    t = tower24()
    rng = random.Random(6)
    beta = rng.randrange(1, t.base.q ** t.m)
    y = t.rand(rng)
    f = moore_interpolate(t, [beta], [y])
    assert f == [t.mul(y, t.inv(beta))]


def test_interpolate_roundtrip():
    t = FieldTower(BaseField(1), 8)
    rng = random.Random(7)
    for _ in range(100):
        k = rng.randrange(1, 6)
        coeffs = [t.rand(rng) for _ in range(k)]
        pts = [t.basis_element(i) for i in range(k)]
        vals = [lin_eval(t, coeffs, p) for p in pts]
        g = moore_interpolate(t, pts, vals)
        assert g == coeffs


def test_interpolate_recovers_frobenius_power():
    t = tower24()
    k = 3
    pts = [t.basis_element(i) for i in range(k)]
    for i in range(k):
        vals = [t.frobenius(p, i) for p in pts]
        f = moore_interpolate(t, pts, vals)
        expected = [t.zero] * k
        expected[i] = t.one
        assert f == expected


def test_interpolate_rejects_dependent_points():
    t = tower24()
    with pytest.raises(ValueError):
        moore_interpolate(t, [t.one, t.one], [t.one, t.one])
    # a zero point, first or later
    with pytest.raises(ValueError):
        moore_interpolate(t, [t.zero], [t.one])
    with pytest.raises(ValueError):
        moore_interpolate(t, [t.one, t.zero], [t.one, t.one])
    # a later point in the span of two earlier ones: p3 = p1 + p2
    rng = random.Random(9)
    p1, p2 = t.basis_element(1), t.rand(rng)
    while rank_over_base(t, [p1, p2]) < 2:
        p2 = t.rand(rng)
    with pytest.raises(ValueError, match="linearly dependent"):
        moore_interpolate(t, [p1, p2, p1 ^ p2], [t.rand(rng) for _ in range(3)])


@pytest.mark.parametrize("w,m", [(1, 8), (2, 4), (3, 4), (4, 5), (8, 3), (8, 6), (16, 3)])
def test_interpolate_matches_moore_solve(w, m):
    # oracle: the O(k^3) Moore-matrix solve by list elimination over the
    # tower, at every k <= m: random independent points, the basis points
    # (whose rows have sparse bit planes) and all-zero values (no pass-2
    # plane sum)
    t = FieldTower(BaseField(w), m, seed=1)
    rng = random.Random(8 + w)
    for k in range(1, m + 1):
        cases = [(_independent_points(t, k, rng), [t.rand(rng) for _ in range(k)])
                 for _ in range(4)]
        cases += [(basis(t, k), [t.rand(rng) for _ in range(k)]),
                  (_independent_points(t, k, rng), [t.zero] * k)]
        for pts, vals in cases:
            f = moore_interpolate(t, pts, vals)
            assert f == solve(moore_matrix(t, pts, k), vals)
            assert [lin_eval(t, f, p) for p in pts] == vals


def test_interpolate_matches_moore_solve_at_forty_points():
    # 40 lanes of 64 bits: rows wider than any the benchmark interpolates
    t = FieldTower(BaseField(1), 64, seed=1)
    rng = random.Random(64)
    pts = _independent_points(t, 40, rng)
    vals = [t.rand(rng) for _ in range(40)]
    assert moore_interpolate(t, pts, vals) == solve(moore_matrix(t, pts, 40), vals)


@pytest.mark.parametrize("w,m,k", [(1, 36, 24), (8, 12, 6), (4, 8, 4)])
def test_interpolate_roundtrip_at_decode_scale(w, m, k):
    # the (w, m, k) of the benchmark's concatenated n = 60 and expander codes
    t = FieldTower(BaseField(w), m, seed=w)
    rng = random.Random(40 + w)
    for _ in range(3):
        coeffs = [t.rand(rng) for _ in range(k)]
        pts = _independent_points(t, k, rng)
        assert moore_interpolate(t, pts, [lin_eval(t, coeffs, p) for p in pts]) == coeffs


@pytest.mark.parametrize("w,m,inv_products", [(1, 12, 6), (8, 6, 4)])
def test_interpolate_inverts_once_and_builds_linear_tables(monkeypatch, w, m, inv_products):
    # one inversion per interpolation.  With k points and chain = the
    # products of c^(q-1) (0 at w = 1, 3 at w = 8) the single products are
    #   pass 1: k-1 prefix, (k-1)*chain; inv_products inside the inversion;
    #   pass 2: d_s, one per point;
    # each building its product tables once, and the walk back makes one
    # pair of products per step on one set of tables.  Pass 1 takes the
    # bit planes of each R_s once (k rows of k lanes), and the plane sums,
    # which build no tables, are
    #   pass 1: one a round, paired: c^(q-1) * x^i and (x^q)^i;
    #   pass 2: one per nonzero d_s, on the planes pass 1 took;
    # so no row product builds its own bit planes.
    t = FieldTower(BaseField(w), m, seed=1)
    rng = random.Random(3)
    k = 6
    pts = _independent_points(t, k, rng)
    vals = [t.rand(rng) for _ in range(k)]
    expected = solve(moore_matrix(t, pts, k), vals)
    calls = _count_tower_calls(monkeypatch, "mul", "mul_each", "_nibble_tables",
                               "inv", "bit_planes", "plane_sum")
    assert moore_interpolate(t, pts, vals) == expected
    chain = 0 if w == 1 else 3
    singles = (k - 1) * (1 + chain) + inv_products + k
    assert calls == {"inv": 1, "mul": singles, "mul_each": k - 1,
                     "_nibble_tables": singles + (k - 1), "bit_planes": k, "lanes": k * k,
                     "plane_sum": (k - 1) + k, "paired": k - 1}
    assert singles == (17 if w == 1 else 30)
    # f = x: d_0 = 1 and every later d_s = 0, so pass 2 makes one plane sum
    calls.clear()
    assert moore_interpolate(t, pts, pts) == [t.one] + [t.zero] * (k - 1)
    assert calls["plane_sum"] == (k - 1) + 1
    # f = 0: every d_s = 0, so pass 2 makes none
    calls.clear()
    assert moore_interpolate(t, pts, [t.zero] * k) == [t.zero] * k
    assert calls["plane_sum"] == calls["paired"] == k - 1
    for j in range(1, m + 1):
        calls.clear()
        pts = _independent_points(t, j, rng)
        moore_interpolate(t, pts, [t.rand(rng) for _ in range(j)])
        assert calls["inv"] == 1
    calls.clear()
    assert moore_interpolate(t, [], []) == []
    assert not calls
