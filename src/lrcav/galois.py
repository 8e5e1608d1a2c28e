"""Exact arithmetic in GF(2^w) and its degree-m extension GF((2^w)^m).

Base field elements are integers in [0, 2^w) whose bits are polynomial
coefficients over GF(2).  Extension elements are integers of m*w bits:
coordinate i in the polynomial basis (a base element) sits in bits
[i*w, (i+1)*w).  Every base-field vector (a matrix row, a local check,
a codeword) is packed the same way, by ``BaseField.pack``.  Only
characteristic 2 is supported, so subtraction equals addition
everywhere, and adding extension elements or vectors is XOR.

Primitive polynomials used for the base fields (one per width w):
    w=1 : x + 1
    w=2 : x^2 + x + 1
    w=3 : x^3 + x + 1
    w=4 : x^4 + x + 1
    w=8 : x^8 + x^4 + x^3 + x^2 + 1
    ... (full table below, w up to 16)
"""

from __future__ import annotations

import random
from typing import List, Sequence

from .linalg import RankTracker

ExtElement = int

# Primitive polynomials over GF(2), keyed by degree w; bit i is the
# coefficient of x^i.  With these moduli the element x (integer 2) is a
# generator of the multiplicative group, which the exp/log tables rely on.
PRIMITIVE_POLY = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


class BaseField:
    """GF(2^w) with exp/log tables for multiplication and inversion."""

    def __init__(self, w: int):
        if w not in PRIMITIVE_POLY:
            raise ValueError(f"unsupported field width w={w}; need 1 <= w <= 16")
        self.w = w
        self.q = 1 << w
        self.modulus = PRIMITIVE_POLY[w]
        self.zero = 0
        self.one = 1

        self.exp: List[int] = [0] * self.q
        self.log: List[int] = [0] * self.q
        g = 2 if w > 1 else 1
        val = 1
        for i in range(self.q - 1):
            self.exp[i] = val
            self.log[val] = i
            val = self.mul_clmul(val, g)

    def mul_clmul(self, a: int, b: int) -> int:
        """Carry-less multiply mod the field polynomial (no tables)."""
        p = 0
        while b:
            if b & 1:
                p ^= a
            b >>= 1
            a <<= 1
            if a & self.q:
                a ^= self.modulus
        return p

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self.exp[(self.q - 1 - self.log[a]) % (self.q - 1)]

    def pack(self, coords: Sequence[int]) -> int:
        """The packed vector with coordinate i in bits [i*w, (i+1)*w)."""
        w = self.w
        return sum(c << (i * w) for i, c in enumerate(coords))

    def unpack(self, a: int, n: int) -> List[int]:
        """The first n coordinates of the packed vector a."""
        w, mask = self.w, self.q - 1
        return [a >> (i * w) & mask for i in range(n)]

    def normalize(self, a: int) -> int:
        """The nonzero packed vector a scaled so its lowest nonzero coordinate is 1."""
        low = ((a & -a).bit_length() - 1) // self.w
        return self.scalar_mul(self.inv(a >> (low * self.w) & (self.q - 1)), a)

    def weight(self, a: int) -> int:
        """Number of nonzero coordinates of the packed vector a."""
        w = self.w
        lanes = -(-a.bit_length() // w)
        folded = a
        for s in range(1, w):
            folded |= a >> s
        return (folded & ((1 << (lanes * w)) - 1) // (self.q - 1)).bit_count()

    def scalar_mul(self, lam: int, a: int) -> int:
        """lam times each w-bit coordinate of the packed vector a."""
        if lam <= 1:
            return a if lam else 0
        w, exp, log = self.w, self.exp, self.log
        order = mask = self.q - 1
        llam = log[lam]
        out = 0
        shift = 0
        while a:
            c = a & mask
            if c:
                out |= exp[(llam + log[c]) % order] << shift
            a >>= w
            shift += w
        return out


def is_irreducible(tower: FieldTower) -> bool:
    """Is the tower's modulus f irreducible?  Decided in packed arithmetic.

    A monic f of degree m is irreducible iff (1) x^(q^m) = x mod f, which
    makes f squarefree with every factor's degree dividing m, and (2) the
    Frobenius map a -> a^q of GF(q)[x]/(f) fixes only GF(q), i.e. the
    images (x^i)^q - x^i for 0 < i < m are GF(q)-independent: for a
    squarefree f the fixed space has one dimension per irreducible factor
    (Berlekamp 1967).
    """
    a = tower.x
    for _ in range(tower.m):  # one pass each: frobenius(a, m) presumes the answer
        a = tower.frobenius(a, 1)
    if a != tower.x:
        return False
    tracker = RankTracker(tower.base)
    return all(tracker.add(tower.frobenius(e, 1) ^ e)
               for e in map(tower.basis_element, range(1, tower.m)))


class FieldTower:
    """The pair GF(2^w) <= GF((2^w)^m), with Frobenius support.

    Extension elements are packed integers (see the module docstring), so
    zero is 0, one is 1, addition is XOR and an element is nonzero iff it
    is truthy.  Immutable after construction and safe to share.
    """

    def __init__(self, base: BaseField, m: int, ext_modulus: Sequence[int] | None = None,
                 seed: int = 0):
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        self.base = base
        self.m = m
        self.zero: ExtElement = 0
        self.one: ExtElement = 1
        self._top = m * base.w
        # without a modulus, seeded draws of monic candidates until one is
        # irreducible (a degree-1 candidate always is)
        rng = random.Random(seed)
        while True:
            self._set_modulus(ext_modulus if ext_modulus is not None else
                              [rng.randrange(base.q) for _ in range(m)] + [1])
            if is_irreducible(self):
                break
            if ext_modulus is not None:
                raise ValueError("extension modulus is reducible")

    def _set_modulus(self, poly: Sequence[int]) -> None:
        """Arithmetic and Frobenius tables modulo a monic degree-m poly."""
        poly = tuple(poly)
        if len(poly) != self.m + 1 or poly[-1] != 1:
            raise ValueError("extension modulus must be monic of degree m")
        self.ext_modulus = poly
        # x^m = sum of the lower modulus terms (characteristic 2), packed
        self._reduce = self.base.pack(poly[:-1])
        self.x = self.basis_element(1) if self.m > 1 else self._reduce  # x mod f
        self._frob_tables = self._build_frobenius_tables()

    def _build_frobenius_tables(self) -> List[List[ExtElement]]:
        """One table per byte of a packed element: byte value -> its image.

        a -> a^q is GF(q)-linear, so the image of the bit for base value
        2^s in coordinate i is 2^s * (x^q)^i, and a byte's image is the XOR
        of its bits' images.
        """
        m, w = self.m, self.base.w
        xq = self.x
        for _ in range(w):
            xq = self.mul(xq, xq)
        bit_images = []
        col = self.one
        for _ in range(m):
            bit_images += [self.base.scalar_mul(1 << s, col) for s in range(w)]
            col = self.mul(col, xq)
        tables = []
        for start in range(0, len(bit_images), 8):
            table = [0]
            for image in bit_images[start:start + 8]:
                table += [t ^ image for t in table]
            tables.append(table)
        return tables

    # -- element constructors -------------------------------------------------

    def basis_element(self, i: int) -> ExtElement:
        return 1 << (i * self.base.w)

    def rand(self, rng: random.Random) -> ExtElement:
        return self.base.pack([rng.randrange(self.base.q) for _ in range(self.m)])

    # -- arithmetic -----------------------------------------------------------

    def mul(self, a: ExtElement, b: ExtElement) -> ExtElement:
        """Horner over b's coordinates: acc = acc*x + b_i*a, top coordinate first."""
        w, mask, top = self.base.w, self.base.q - 1, self._top
        scalar_mul = self.base.scalar_mul
        acc = 0
        for shift in range(top - w, -1, -w):
            acc <<= w
            hi = acc >> top
            if hi:
                acc ^= (hi << top) ^ scalar_mul(hi, self._reduce)
            c = b >> shift & mask
            if c:
                acc ^= scalar_mul(c, a)
        return acc

    def inv(self, a: ExtElement) -> ExtElement:
        """Itoh-Tsujii: a^-1 = a^(r-1) / N(a) with r = (q^m-1)/(q-1).

        b_k = a^(1+q+...+q^(k-1)) follows an addition chain on m-1 by
        b_2k = b_k * frob^k(b_k) and b_(k+1) = frob(b_k) * a; then
        a^(r-1) = frob(b_(m-1)) and the norm N(a) = a^r lies in GF(q).
        """
        if not a:
            raise ZeroDivisionError("inversion of zero field element")
        rest = self.one
        if self.m > 1:
            b, k = a, 1
            for bit in bin(self.m - 1)[3:]:
                b = self.mul(b, self.frobenius(b, k))
                k *= 2
                if bit == "1":
                    b = self.mul(self.frobenius(b, 1), a)
                    k += 1
            rest = self.frobenius(b, 1)
        norm = self.mul(a, rest)
        return self.base.scalar_mul(self.base.inv(norm), rest)

    def frobenius(self, a: ExtElement, i: int) -> ExtElement:
        """a^(q^i) by i passes of byte-table lookups; i = m is the identity."""
        if i < 0:
            raise ValueError("Frobenius power must be nonnegative")
        tables = self._frob_tables
        for _ in range(i % self.m):
            out = 0
            for table in tables:
                if not a:
                    break
                out ^= table[a & 255]
                a >>= 8
            a = out
        return a


def build_tower(w: int, m: int, ext_modulus: Sequence[int] | None = None,
                seed: int = 0) -> FieldTower:
    return FieldTower(BaseField(w), m, ext_modulus, seed)
