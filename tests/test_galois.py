import functools
import itertools
import logging
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shuffle_reference
from lrcav.galois import (PRIMITIVE_POLY, TOWER_SIZE_CAP, BaseField, FieldTower,
                          _poly_gcd, is_irreducible)


# dense coefficient-list polynomials over a BaseField (low to high): the
# independent oracle for the packed tower arithmetic

def _poly_mul(f, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] ^= f.mul(ai, bj)
    return out


def _poly_mod(f, a, mod):
    # mod is monic; returns the len(mod) - 1 low coefficients of a mod mod
    r = list(a)
    dm = len(mod) - 1
    for shift in range(len(r) - 1 - dm, -1, -1):
        lead = r[shift + dm]
        for i, mi in enumerate(mod):
            r[shift + i] ^= f.mul(lead, mi)
    return (r + [0] * dm)[:dm]


def _scalar_mul(f, lam, a):
    # per-coordinate oracle for BaseField.scalar_mul: unpack, then exp/log products
    return f.pack([f.mul(lam, c) for c in f.unpack(a, -(-a.bit_length() // f.w))])


def _horner_mul(t, a, b):
    """Oracle for FieldTower.mul: Horner over b's coordinates, top coordinate
    first, acc = acc*x + b_i*a, with x^m folded back as a base multiple of
    x^m mod f."""
    f, w, top = t.base, t.base.w, t.m * t.base.w
    reduce = f.pack(t.ext_modulus[:-1])
    acc = 0
    for shift in range(top - w, -1, -w):
        acc <<= w
        hi = acc >> top
        if hi:
            acc ^= (hi << top) ^ _scalar_mul(f, hi, reduce)
        c = b >> shift & (f.q - 1)
        if c:
            acc ^= _scalar_mul(f, c, a)
    return acc


@functools.lru_cache(maxsize=None)
def _base(w):
    return BaseField(w)


@functools.lru_cache(maxsize=None)
def _tower(w, m):
    return FieldTower(_base(w), m, seed=w)


def _clmul(f, a, b):
    """Carry-less multiply mod the field polynomial, bit by bit: the oracle
    for the exp/log tables."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        b >>= 1
        a <<= 1
        if a & f.q:
            a ^= f.modulus
    return p


def _pow(f, a, e):
    # square-and-multiply on f.mul: the oracle for Frobenius, inversion and
    # the multiplicative order (works for a BaseField and a FieldTower alike)
    result = f.one
    while e:
        if e & 1:
            result = f.mul(result, a)
        a = f.mul(a, a)
        e >>= 1
    return result


def test_gf2_behaves_like_prime_field():
    f = BaseField(1)
    assert f.mul(1, 1) == 1


def test_gf4_generator_square():
    # alpha * alpha = alpha + 1 under x^2 + x + 1
    f = BaseField(2)
    assert f.mul(2, 2) == 3


def test_gf16_multiplicative_order():
    f = BaseField(4)
    for a in range(1, 16):
        assert _pow(f, a, 15) == 1


def test_width_out_of_range():
    with pytest.raises(ValueError):
        BaseField(0)
    with pytest.raises(ValueError):
        BaseField(17)


@pytest.mark.parametrize("w", [1, 2, 3, 4, 8])
def test_tables_match_carryless_multiplication(w):
    f = BaseField(w)
    for a in range(f.q):
        for b in range(f.q):
            assert f.mul(a, b) == _clmul(f, a, b)


@pytest.mark.parametrize("w", range(1, 17))
def test_exp_table_holds_the_powers_of_the_generator(w):
    f = _base(w)
    g = 2 if w > 1 else 1
    val = 1
    for i in range(f.q - 1):
        assert f.exp[i] == val and f.log[val] == i
        val = _clmul(f, val, g)
    assert val == 1


@pytest.mark.parametrize("w", [2, 3, 4, 8])
def test_exp_log_roundtrip(w):
    f = BaseField(w)
    for a in range(1, f.q):
        assert f.exp[f.log[a]] == a


def test_inversion_of_zero_rejected():
    f = BaseField(4)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    t = FieldTower(BaseField(2), 3)
    with pytest.raises(ZeroDivisionError):
        t.inv(t.zero)


# ---------------------------------------------------------------------------
# irreducibility search
# ---------------------------------------------------------------------------

def _gf2_poly_has_small_factor(poly_bits, degree):
    """Exhaustive check for roots / degree-2 factors of a GF(2) polynomial."""
    def evl(bits, x):
        # evaluate over GF(2): only x in {0,1}
        if x == 0:
            return bits & 1
        return bin(bits).count("1") & 1

    if evl(poly_bits, 0) == 0 or evl(poly_bits, 1) == 0:
        return True
    # trial division by the irreducible quadratic x^2 + x + 1 (0b111)
    rem = poly_bits
    while rem.bit_length() - 1 >= 2:
        rem ^= 0b111 << (rem.bit_length() - 3)
    return rem == 0


def _first_irreducible(base, m, seed):
    """The seeded search's draws up to the first one with no monic factor of
    degree <= m/2 (trial division), and how many draws it rejected."""
    rng = random.Random(seed)
    rejected = 0
    while True:
        poly = [rng.randrange(base.q) for _ in range(m)] + [1]
        if all(any(_poly_mod(base, poly, list(low) + [1]))
               for d in range(1, m // 2 + 1)
               for low in itertools.product(range(base.q), repeat=d)):
            return poly, rejected
        rejected += 1


@pytest.mark.parametrize("w,m,seed", [(2, 2, 9), (3, 2, 3), (4, 2, 0)])
def test_seeded_search_past_a_rejected_modulus(w, m, seed):
    # each rejected draw here splits into distinct linear factors, so x^q = x
    # mod it: product tables of x left over from that draw would be wrong for
    # the next one, whose Frobenius tables start from x * x
    base = _base(w)
    poly, rejected = _first_irreducible(base, m, seed)
    assert rejected >= 1
    t = FieldTower(base, m, seed=seed)
    assert list(t.ext_modulus) == poly
    elems = range(base.q ** m)
    for a, b in itertools.product(elems, repeat=2):
        assert t.mul(a, b) == _horner_mul(t, a, b)
    for a in elems:
        assert t.frobenius(a, 1) == _pow(t, a, base.q)


def test_find_irreducible_degree_one_trivial():
    f = BaseField(2)
    poly = FieldTower(f, 1, seed=5).ext_modulus
    assert len(poly) == 2 and poly[-1] == 1


def test_find_irreducible_gf2_degree4_no_small_factors():
    f = BaseField(1)
    poly = FieldTower(f, 4, seed=3).ext_modulus
    bits = sum(c << i for i, c in enumerate(poly))
    assert not _gf2_poly_has_small_factor(bits, 4)


def test_find_irreducible_gf4_degree3():
    f = BaseField(2)
    t = FieldTower(f, 3, seed=1)
    assert is_irreducible(t)
    # deterministic given the seed
    assert t.ext_modulus == FieldTower(f, 3, seed=1).ext_modulus


def _mobius(n):
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


@pytest.mark.parametrize("w,m", [(1, m) for m in range(1, 9)] + [(2, m) for m in range(1, 5)]
                         + [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
def test_irreducible_count_matches_gauss_formula(w, m):
    # exhaustive over monic degree-m polynomials: (1/m) sum_{d|m} mu(d) q^(m/d)
    base = BaseField(w)
    q = base.q
    count = 0
    for low in itertools.product(range(q), repeat=m):
        try:
            FieldTower(base, m, list(low) + [1])
            count += 1
        except ValueError as exc:
            assert "reducible" in str(exc)
    gauss = sum(_mobius(d) * q ** (m // d) for d in range(1, m + 1) if m % d == 0)
    assert count * m == gauss


def test_reducible_modulus_rejected():
    f = BaseField(1)
    # x^2 has the root 0
    with pytest.raises(ValueError):
        FieldTower(f, 2, [0, 0, 1])


# Moduli the seeded search chose before it ran the root test, packed
# (BaseField.pack of ext_modulus): the root test must only skip work,
# never change which candidate wins.
PINNED_MODULI = {
    (1, 18, 0): 0x79a03, (1, 18, 1): 0x62af3, (1, 18, 2): 0x5047b,
    (1, 18, 3): 0x64027, (1, 18, 4): 0x5402b, (1, 18, 5): 0x65589,
    (1, 36, 0): 0x1f7c19a87f, (1, 36, 1): 0x10ebafd315,
    (1, 36, 2): 0x1eff151af7, (1, 36, 3): 0x1b98f5ad0d,
    (4, 8, 0): 0x162a7af0c, (4, 8, 1): 0x17fe70d6c, (4, 8, 2): 0x16895b221,
    (4, 8, 3): 0x13b4ecdcf, (4, 8, 4): 0x113a6adb5, (4, 8, 5): 0x16073c7fb,
    (8, 12, 0): 0x1089c53b08573e1af7fa1136a, (8, 12, 1): 0x1ba88297227c13aae404bc225,
    (8, 12, 2): 0x1e8b5ff8efa7feccc52e4b9b5,
    (1, 64, 0): 0x166c8d4ef1cb9816f, (1, 64, 1): 0x1355ec0bdab315893,
    (8, 16, 0): 0x1c4d09b86fc21aa829a5d000a77c6f6d5,
    (8, 16, 1): 0x177fde0710ed86ec3040d0b0fa2347588,
    (3, 5, 0): 0xbbe6, (3, 5, 1): 0x8d87, (3, 5, 2): 0xcf76,
    (3, 5, 3): 0x9f53, (3, 5, 4): 0xfc63, (3, 5, 5): 0xbe2c,
    (5, 3, 0): 0xdbd3, (5, 3, 1): 0xf3e7, (5, 3, 2): 0xe76a,
    (5, 3, 3): 0xdd0f, (5, 3, 4): 0xde53, (5, 3, 5): 0x86d0,
    (3, 4, 0): 0x1f37, (3, 4, 1): 0x11cb, (3, 4, 2): 0x1fef,
    (3, 4, 3): 0x1f53, (3, 4, 4): 0x1c63, (3, 4, 5): 0x1a62,
    (7, 2, 0): 0x7d4d, (7, 2, 1): 0x4c35, (7, 2, 2): 0x6e15,
    (7, 2, 3): 0x7cde, (7, 2, 4): 0x66bc, (7, 2, 5): 0x6dc1,
}


@pytest.mark.parametrize("w,m,seed", sorted(PINNED_MODULI))
def test_seeded_search_keeps_its_moduli(w, m, seed):
    t = FieldTower(_base(w), m, seed=seed)
    assert t.base.pack(t.ext_modulus) == PINNED_MODULI[w, m, seed]


@pytest.mark.parametrize("w,m,seed", [(2, 2, 9), (3, 2, 3), (4, 2, 0), (8, 12, 0), (1, 36, 0)])
def test_frobenius_images_follow_the_accepted_modulus(w, m, seed):
    # the images (x^q)^i that plane_sum maps lanes with are the Frobenius
    # of the basis under the modulus the search kept (these seeds reject
    # candidates first), and a tower rebuilt from that stored modulus
    # takes the same images
    t = FieldTower(_base(w), m, seed=seed)
    rebuilt = FieldTower(_base(w), m, t.ext_modulus)
    basis = [t.basis_element(i) for i in range(m)]
    assert t.frobenius_images == t.frobenius_row(basis) == rebuilt.frobenius_images
    assert rebuilt.frobenius_images == rebuilt.frobenius_row(basis)
    assert all(0 <= image < 1 << m * w for image in t.frobenius_images)


def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _naive_gcd(f, a, b):
    """Monic gcd of coefficient lists (low to high) by schoolbook Euclid."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        inv = f.inv(b[-1])
        while len(a) >= len(b):
            c, shift = f.mul(a[-1], inv), len(a) - len(b)
            for i, bi in enumerate(b):
                a[shift + i] ^= f.mul(c, bi)
            _trim(a)
        a, b = b, a
    inv = f.inv(a[-1])
    return [f.mul(inv, c) for c in a]


def _monic_polys(f, max_degree):
    return [list(low) + [1] for d in range(max_degree + 1)
            for low in itertools.product(range(f.q), repeat=d)]


@pytest.mark.parametrize("w", [1, 2])
def test_packed_gcd_matches_schoolbook_euclid(w):
    # every monic f of degree <= 4 against x^q - x (the root test's pair),
    # and over GF(2) against every other such polynomial and zero
    f = _base(w)
    polys = _monic_polys(f, 4)
    x_q_minus_x = [0, 1] + [0] * (f.q - 2) + [1]
    pairs = [(a, x_q_minus_x) for a in polys] + [(a, [0]) for a in polys]
    if w == 1:
        pairs += list(itertools.product(polys, repeat=2))
    for a, b in pairs:
        assert _poly_gcd(f, f.pack(a), f.pack(b)) == f.pack(_naive_gcd(f, a, b))


@pytest.mark.parametrize("w", [1, 2])
def test_root_test_matches_evaluation_at_every_point(w):
    # _set_modulus turns a degree-m > 1 poly away, before its tables, iff
    # it has a root in GF(q); a degree-1 poly has one and is irreducible
    f = _base(w)
    for poly in _monic_polys(f, 4)[1:]:
        m = len(poly) - 1
        has_root = any(functools.reduce(lambda acc, c: f.mul(acc, a) ^ c, reversed(poly), 0) == 0
                       for a in range(f.q))
        assert FieldTower(f, m)._set_modulus(poly) == (m == 1 or not has_root)


class _NoModulus(Exception):
    pass


@pytest.mark.parametrize("w,m,over", [(1, 1025, True), (8, 129, True), (16, 65, True),
                                      (1, 1024, False), (8, 128, False), (16, 64, False)])
def test_tower_size_cap(monkeypatch, w, m, over):
    # m*w above the cap is a ValueError before any modulus is tried; at the
    # cap the modulus search starts (stopped here before it builds a table)
    def stop(self, poly):
        raise _NoModulus
    monkeypatch.setattr(FieldTower, "_set_modulus", stop)
    if over:
        with pytest.raises(ValueError, match=f"^m\\*w = {m * w} bits exceeds the tower "
                                             f"size cap {TOWER_SIZE_CAP}$"):
            FieldTower(BaseField(w), m)
    else:
        with pytest.raises(_NoModulus):
            FieldTower(BaseField(w), m)


def test_frobenius_tables_only_for_rootless_candidates(monkeypatch):
    # (8, 12), seed 0 draws 75 candidates; 60 have a root in GF(256), and
    # only the other 15 get Frobenius tables (stride 1; stride 2 is squaring)
    strides = []
    original = FieldTower._linear_byte_tables
    monkeypatch.setattr(FieldTower, "_linear_byte_tables",
                        lambda self, step, stride: strides.append(stride)
                        or original(self, step, stride))
    FieldTower(_base(8), 12, seed=0)
    assert strides.count(1) == 15 and strides.count(2) == 1


def test_modulus_search_logs_its_rejections(caplog):
    with caplog.at_level(logging.DEBUG, logger="lrcav.galois"):
        FieldTower(_base(8), 12, seed=0)
    assert [r.getMessage() for r in caplog.records] == [
        "modulus search (w=8, m=12): rejected 74 candidates, 60 by the root test"]


# ---------------------------------------------------------------------------
# extension tower
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tower():
    return FieldTower(BaseField(2), 3, seed=1)


def test_ext_mul_identity_and_char2(tower):
    rng = random.Random(0)
    for _ in range(20):
        a = tower.rand(rng)
        assert tower.mul(a, tower.one) == a


def test_ext_inverse_roundtrip(tower):
    rng = random.Random(1)
    for _ in range(100):
        a = rng.randrange(1, tower.base.q ** tower.m)
        assert tower.mul(a, tower.inv(a)) == tower.one


def test_ext_inverse_roundtrip_gf2_base():
    t = FieldTower(BaseField(1), 18)
    rng = random.Random(2)
    for _ in range(100):
        a = rng.randrange(1, t.base.q ** t.m)
        assert t.mul(a, t.inv(a)) == t.one


def test_mul_matches_polynomial_product_mod_modulus():
    # independent oracle: multiply coordinate polynomials, reduce mod ext_modulus
    for w, m in [(1, 6), (2, 3), (4, 5), (8, 3)]:
        t = FieldTower(BaseField(w), m, seed=w)
        rng = random.Random(9)
        for _ in range(200):
            a, b = t.rand(rng), t.rand(rng)
            prod = _poly_mod(t.base, _poly_mul(t.base, t.base.unpack(a, m), t.base.unpack(b, m)),
                             t.ext_modulus)
            assert t.base.unpack(t.mul(a, b), m) == prod


# every w and m <= 20, plus the bench's wide towers; a window of mul holds
# 4 // w coordinates at w < 4, so most m are not a multiple of it
MUL_DEGREES = {w: list(range(1, 21)) + {1: [36, 64]}.get(w, []) for w in range(1, 17)}


@pytest.mark.parametrize("w", range(1, 17))
@settings(max_examples=15, deadline=None)
@given(a_bits=st.just(0) | st.integers(0, 2**1024 - 1),
       b_bits=st.just(0) | st.integers(0, 2**1024 - 1), same=st.booleans())
def test_mul_matches_horner_and_polynomial_oracles(w, a_bits, b_bits, same):
    for m in MUL_DEGREES[w]:
        t = _tower(w, m)
        a = a_bits & (1 << m * w) - 1
        b = a if same else b_bits & (1 << m * w) - 1
        prod = t.mul(a, b)
        assert prod == _horner_mul(t, a, b) == t.mul(b, a)
        f = t.base
        assert f.unpack(prod, m) == _poly_mod(
            f, _poly_mul(f, f.unpack(a, m), f.unpack(b, m)), t.ext_modulus)


MUL_ROW_GRID = [(1, 7), (2, 3), (4, 5), (8, 3)]


def _row_product(t, a, row):
    """a times every lane of a packed row: plane_sum with the images a*x^i."""
    return t.plane_sum(t.bit_planes(row), t.basis_row(a, t.m))


@pytest.mark.parametrize("w,m", MUL_ROW_GRID + [(5, 4), (8, 5), (16, 3)])
def test_mul_row_matches_horner_oracle(w, m):
    # entry by entry on packed rows: empty rows, zero and one on either
    # side, repeated entries; mul at w <= 4 takes the one-table loop, at
    # w = 5, 8 and 16 the loop over two or four nibble tables
    t = _tower(w, m)
    rng = random.Random(60 + w)
    elems = [t.zero, t.one] + [t.rand(rng) for _ in range(5)]
    rows = [[], [t.zero], [t.one], elems, elems + elems[::-1], [elems[-1]] * 3]
    for a in elems:
        for row in rows:
            assert _row_product(t, a, t.pack(row)) == t.pack([_horner_mul(t, a, b)
                                                               for b in row])
        for b in elems:
            assert t.mul(a, b) == _row_product(t, a, b) == t.mul(b, a)


# every base width at a small m, the bench's towers, a wide one and one
# at the size cap
PACKED_ROW_TOWERS = ([(w, 3) for w in sorted(PRIMITIVE_POLY)]
                     + [(1, 18), (1, 36), (4, 8), (8, 12), (1, 64), (16, 64)])


@pytest.mark.parametrize("w,m", PACKED_ROW_TOWERS)
def test_packed_mul_row_matches_per_lane_horner(w, m):
    # lanes of 0, 1, x and the all-ones element 2^(m*w) - 1, the lane
    # that would leak a carry into the next one, among random lanes; rows
    # of 0 to 24 lanes, operands 0, 1, x, all-ones and random
    t = _tower(w, m)
    rng = random.Random(70 + w + m)
    full = (1 << m * w) - 1
    special = [full, t.zero, t.one, t.x]
    lanes = special + [t.rand(rng) for _ in range(16)] + special[::-1]
    for a in [t.zero, t.one, t.x, full, t.rand(rng)]:
        for n in (0, 1, 2, 3, 7, 24):
            row = lanes[-n:] if n else []
            assert _row_product(t, a, t.pack(row)) == t.pack([_horner_mul(t, a, b)
                                                               for b in row])


@pytest.mark.parametrize("w,m", PACKED_ROW_TOWERS)
def test_plane_sum_matches_per_lane_horner_and_frobenius(w, m):
    # one row's bit planes, taken once, against per-lane oracles: products
    # a*b (images a*x^i) and the Frobenius b^q (images (x^q)^i), alone and
    # paired in one call in either order, on rows of 0 to 24 lanes that
    # hold the all-ones element, the lane that would leak a carry
    t = _tower(w, m)
    rng = random.Random(90 + w + m)
    full = (1 << m * w) - 1
    special = [full, t.zero, t.one, t.x]
    lanes = special + [t.rand(rng) for _ in range(16)] + special[::-1]
    frob = t.frobenius_images
    for n in (0, 1, 2, 3, 7, 24):
        row = lanes[-n:] if n else []
        planes = t.bit_planes(t.pack(row))
        mapped = t.pack([t.frobenius(b, 1) for b in row])
        assert t.plane_sum(planes, frob) == mapped
        for a in [t.zero, t.one, t.x, full, t.rand(rng)]:
            images = t.basis_row(a, m)
            product = t.pack([_horner_mul(t, a, b) for b in row])
            assert t.plane_sum(planes, images) == product
            assert t.plane_sum(planes, images, frob) == (product, mapped)
            assert t.plane_sum(planes, frob, images) == (mapped, product)


@pytest.mark.parametrize("w,m", PACKED_ROW_TOWERS)
def test_dot_row_matches_summed_per_lane_horner(w, m):
    # sum_i a_i * row_i against the per-lane Horner oracle summed lane by
    # lane: empty lists; rows of 0 to 24 lanes, several widths in one call,
    # holding the all-ones lane that would leak a carry; scalars 0, 1, x,
    # all-ones and random, and every single bit (each bucket) alone and
    # all at once
    t = _tower(w, m)
    rng = random.Random(80 + w + m)
    full = (1 << m * w) - 1
    values = [full, t.zero, t.one, t.x] + [t.rand(rng) for _ in range(4)]
    # Horner over the scalar's coordinates: quick for the single bits
    product = functools.lru_cache(maxsize=None)(lambda a, b: _horner_mul(t, b, a))

    def check(scalars, rows):
        expected = [t.zero] * max(map(len, rows), default=0)
        for a, row in zip(scalars, rows):
            for j, b in enumerate(row):
                expected[j] ^= product(a, b)
        assert t.dot_row(scalars, [t.pack(row) for row in rows]) == t.pack(expected)

    check([], [])
    scalars = [t.zero, t.one, t.x, full, t.rand(rng)]
    for n in (0, 1, 2, 3, 7, 24):
        rows = [[rng.choice(values) for _ in range(n)] for _ in scalars]
        for a, row in zip(scalars, rows):
            check([a], [row])
        check(scalars, rows)
        check(scalars, [row[:rng.randrange(n + 1)] for row in rows])
    bits = [1 << p for p in range(m * w)]
    for a in bits:
        check([a], [[full]])
    check(bits, [[full] * (1 + p % 3) for p in range(m * w)])


@pytest.mark.parametrize("w,m", MUL_ROW_GRID)
def test_mul_memo_across_operand_changes_and_towers(w, m):
    # a tower keeps no tables between products: reuse a, then switch a;
    # hold b while a switches; a == b and zero operands; two towers
    # interleaved, each product against the oracle of its own tower
    t1, t2 = FieldTower(_base(w), m, seed=1), FieldTower(_base(w), m, seed=2)
    assert t1.ext_modulus != t2.ext_modulus
    rng = random.Random(40 + w)
    elems = [t1.zero, t1.one] + [t1.rand(rng) for _ in range(4)]
    pairs = list(itertools.product(elems, repeat=2))
    for a, b in pairs + [(a, b) for b, a in pairs]:
        for t in (t1, t2):
            assert t.mul(a, b) == _horner_mul(t, a, b)


def test_shared_tower_products_under_thread_switches():
    # threads that share a tower, switching every microsecond, each run the
    # same products in their own order against the Horner oracle: the tower
    # holds only its fixed tables, so no thread sees another's operand
    t = _tower(4, 5)
    rng = random.Random(50)
    ops = [t.rand(rng) for _ in range(8)]
    pairs = [(a, b) for a in ops for b in ops for _ in range(4)]
    expected = {(a, b): _horner_mul(t, a, b) for a, b in pairs}
    orders = [random.Random(i).sample(pairs, len(pairs)) for i in range(8)]

    def wrong(order):
        return [(a, b) for a, b in order if t.mul(a, b) != expected[a, b]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(orders)) as pool:
            found = list(pool.map(wrong, orders, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert found == [[]] * len(orders)


@pytest.mark.parametrize("w", range(1, 17))
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_lane_operations_match_per_coordinate_oracles(w, data):
    # scalar_mul, weight and normalize against unpack plus exp/log products
    f = _base(w)
    n = data.draw(st.integers(0, 100))
    coords = data.draw(st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n))
    a = f.pack(coords)
    for lam in (0, 1, data.draw(st.integers(0, f.q - 1))):
        assert f.scalar_mul(lam, a) == _scalar_mul(f, lam, a)
    assert f.weight(a) == sum(1 for c in coords if c)
    if a:
        low = next(c for c in coords if c)
        assert f.normalize(a) == f.pack([f.mul(f.inv(low), c) for c in coords])


@pytest.mark.parametrize("w,m", shuffle_reference.ELEMENT_SHAPES)
def test_rand_draws_coordinates_in_order(w, m):
    # seeded messages and trials depend on this draw order: successive
    # elements are m randrange(q) coordinates each, lowest first, and leave
    # the generator where those calls leave it
    assert shuffle_reference.mismatches("elements", [[w, m, s, 5] for s in range(20)]) == []


def test_frobenius_identity_and_power(tower):
    rng = random.Random(3)
    for _ in range(100):
        a = tower.rand(rng)
        assert tower.frobenius(a, 0) == a
        assert tower.frobenius(a, tower.m) == a


def test_frobenius_is_squaring_over_gf2_base():
    t = FieldTower(BaseField(1), 5)
    rng = random.Random(4)
    for _ in range(50):
        a = t.rand(rng)
        assert t.frobenius(a, 1) == t.mul(a, a)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.data())
def test_frobenius_base_linearity(i, data):
    t = FieldTower(BaseField(2), 3, seed=1)
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    a, b = t.rand(rng), t.rand(rng)
    lam, mu = rng.randrange(t.base.q), rng.randrange(t.base.q)
    scale = t.base.scalar_mul
    lhs = t.frobenius(scale(lam, a) ^ scale(mu, b), i)
    rhs = scale(lam, t.frobenius(a, i)) ^ scale(mu, t.frobenius(b, i))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# table Frobenius and Itoh-Tsujii inversion against plain powering
# ---------------------------------------------------------------------------

ORACLE_TOWERS = [(1, 6), (2, 3), (4, 5), (8, 3), (3, 1)]


@pytest.mark.parametrize("w,m", ORACLE_TOWERS)
def test_frobenius_table_matches_power(w, m):
    t = FieldTower(BaseField(w), m, seed=w)
    q = t.base.q
    rng = random.Random(10 + w)
    for a in [t.zero, t.one] + [t.rand(rng) for _ in range(20)]:
        for i in range(m + 1):
            assert t.frobenius(a, i) == _pow(t, a, q**i)


@pytest.mark.parametrize("w,m", ORACLE_TOWERS)
def test_inverse_matches_power(w, m):
    t = FieldTower(BaseField(w), m, seed=w)
    e = t.base.q**m - 2
    rng = random.Random(20 + w)
    randoms = [rng.randrange(1, t.base.q ** t.m) for _ in range(20)]
    embedded = list(range(1, t.base.q))  # base elements: coordinate 0 only
    for a in randoms + embedded:
        assert t.inv(a) == _pow(t, a, e)


@pytest.mark.parametrize("w,m", ORACLE_TOWERS)
def test_frobenius_ratio_matches_power(w, m):
    # c^(q-1) by the squaring chain; zero maps to zero
    t = FieldTower(BaseField(w), m, seed=w)
    e = t.base.q - 1
    rng = random.Random(30 + w)
    for c in [t.zero, t.one, t.x] + [t.rand(rng) for _ in range(20)]:
        assert t.frobenius_ratio(c) == _pow(t, c, e)


ROW_TOWERS = [(1, 6), (2, 3), (3, 4), (4, 5), (8, 3), (3, 1)]


@pytest.mark.parametrize("w,m", ROW_TOWERS)
def test_frobenius_row_matches_per_element_frobenius(w, m):
    t = FieldTower(BaseField(w), m, seed=w)
    rng = random.Random(40 + w)
    row = [t.zero, t.one, t.x] + [t.rand(rng) for _ in range(20)]
    assert t.frobenius_row(row) == [t.frobenius(a, 1) for a in row]
    assert t.frobenius_row(row) == [_pow(t, a, t.base.q) for a in row]
    for i in range(m + 1):
        assert t.frobenius_row(row, i) == [t.frobenius(a, i) for a in row]
    assert t.frobenius_row([]) == []


@pytest.mark.parametrize("w,m", ROW_TOWERS)
def test_basis_row_matches_mul_row_with_the_basis(w, m):
    # a * x^j by coordinate shifts against the per-lane Horner product, every
    # n <= m (the row product takes basis_row as its images, so it cannot
    # be the oracle here)
    t = FieldTower(BaseField(w), m, seed=w)
    rng = random.Random(50 + w)
    points = [t.basis_element(j) for j in range(m)]
    for a in [t.zero, t.one, t.x] + [t.rand(rng) for _ in range(20)]:
        for n in range(1, m + 1):
            assert t.basis_row(a, n) == [_horner_mul(t, a, p) for p in points[:n]]


@pytest.mark.parametrize("w,m,seed", [(1, 6, 1), (2, 2, 9), (3, 2, 3), (4, 2, 0)])
def test_square_tables_built_once_per_tower_and_not_at_w1(monkeypatch, w, m, seed):
    # at w > 1 the squaring tables wait for the accepted modulus (the
    # seeds above reject a draw first); at w = 1, c^(q-1) = c needs none
    built = []
    original = FieldTower._build_square_tables
    monkeypatch.setattr(FieldTower, "_build_square_tables",
                        lambda self: built.append(self.ext_modulus) or original(self))
    t = FieldTower(_base(w), m, seed=seed)
    assert built == ([] if w == 1 else [t.ext_modulus])
    if w > 1:
        for a in range(min(t.base.q ** m, 256)):
            assert t.frobenius_ratio(a) == _pow(t, a, t.base.q - 1)


def test_degree_one_tower_is_the_base_field():
    # m = 1: any monic x + c is irreducible, Frobenius is the identity and
    # inversion is base-field inversion (an empty Itoh-Tsujii chain)
    base = BaseField(3)
    for c in range(base.q):
        t = FieldTower(base, 1, [c, 1])
        assert is_irreducible(t)
        for a in range(1, base.q):
            assert t.frobenius(a, 1) == a
            assert t.inv(a) == base.inv(a)
