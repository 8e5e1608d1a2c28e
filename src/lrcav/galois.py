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
from collections.abc import Sequence

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

# largest extension size m*w, in bits, that FieldTower builds: the modulus
# search of a 2048-bit tower alone takes minutes
TOWER_SIZE_CAP = 1024


class BaseField:
    """GF(2^w) with exp/log tables for multiplication and inversion."""

    def __init__(self, w: int):
        if w not in PRIMITIVE_POLY:
            raise ValueError(f"unsupported field width w={w}; need 1 <= w <= 16")
        self.w = w
        self.q = 1 << w
        self.modulus = PRIMITIVE_POLY[w]
        if w == 1:
            # every coordinate is one bit: the weight is the popcount
            self.weight = int.bit_count

        self.exp: list[int] = [0] * self.q
        self.log: list[int] = [0] * self.q
        val = 1
        for i in range(self.q - 1):
            self.exp[i] = val
            self.log[val] = i
            val <<= 1  # times x, reduced mod the field polynomial
            if val & self.q:
                val ^= self.modulus

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

    def unpack(self, a: int, n: int) -> list[int]:
        """The first n coordinates of the packed vector a."""
        w, mask = self.w, self.q - 1
        return [a >> (i * w) & mask for i in range(n)]

    def normalize(self, a: int) -> int:
        """The nonzero packed vector a scaled so its lowest nonzero coordinate
        is 1; a vector whose lowest nonzero coordinate is 1 already comes back
        as it is, with no inversion."""
        low = ((a & -a).bit_length() - 1) // self.w
        lead = a >> (low * self.w) & (self.q - 1)
        return a if lead == 1 else self.scalar_mul(self.inv(lead), a)

    def weight(self, a: int) -> int:
        """Number of nonzero coordinates of the packed vector a."""
        folded = a
        for s in range(1, self.w):
            folded |= a >> s
        return (folded & self.lane_ones(a)).bit_count()

    def lane_ones(self, a: int) -> int:
        """Bit 0 of every w-bit coordinate that the packed vector a reaches."""
        return ((1 << (-(-a.bit_length() // self.w) * self.w)) - 1) // (self.q - 1)

    def alpha_multiples(self, a: int, ones: int, count: int) -> list[int]:
        """[a, alpha*a, ..., alpha^(count-1)*a]: every coordinate of a times alpha^s.

        Each step doubles every w-bit lane at once: shift left by one, clear
        the bits that left their lanes and XOR the modulus's low bits
        (alpha^w) into those lanes.  ones is ``lane_ones`` of a or wider.
        """
        w, low = self.w, self.modulus ^ self.q
        out = [a]
        for _ in range(count - 1):
            over = a >> (w - 1) & ones
            a = (a ^ over << (w - 1)) << 1 ^ over * low
            out.append(a)
        return out

    def scalar_mul(self, lam: int, a: int) -> int:
        """lam times each w-bit coordinate of the packed vector a: the sum of
        alpha^s * a over lam's set bits s, lane doubling a up to the top one.
        A scalar 0 or 1 returns at once."""
        if lam <= 1:
            return a if lam else 0
        w, low, ones = self.w, self.modulus ^ self.q, self.lane_ones(a)
        out = 0
        while True:
            if lam & 1:
                out ^= a
            lam >>= 1
            if not lam:
                return out
            over = a >> (w - 1) & ones
            a = (a ^ over << (w - 1)) << 1 ^ over * low

    def span(self, vectors: Sequence[int]):
        """Every GF(q)-combination of the packed vectors, in Gray order.

        The walk runs over the GF(2) image of the vectors (alpha^s times
        each, 0 <= s < w) in binary-reflected Gray order: 0 first, then
        one XOR of an image vector per word.  Independent vectors give
        each of their q^len(vectors) combinations exactly once.
        """
        images = [image for v in vectors
                  for image in self.alpha_multiples(v, self.lane_ones(v), self.w)]
        word = 0
        yield word
        for i in range(1, 1 << len(images)):
            word ^= images[(i & -i).bit_length() - 1]
            yield word


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
    is truthy.  A tower holds only tables fixed by its modulus, so one
    tower may be shared, between threads too.  Products
    that share an operand go through ``mul_each``; GF(q)-linear maps of
    every element of a packed row (a product a*row, the Frobenius)
    through ``plane_sum``, one lane-parallel pass; and sums of row
    products through ``dot_row``.
    """

    def __init__(self, base: BaseField, m: int, ext_modulus: Sequence[int] | None = None,
                 seed: int = 0):
        """The tower modulo ext_modulus, or, without one, modulo the first of
        seeded monic candidates that is irreducible (a degree-1 one always is).

        Each candidate meets the cheapest test first: the root test of
        ``_set_modulus`` (the first step of Rabin's test), which stops 60 of
        the 75 candidates drawn at (w, m) = (8, 12), seed 0.  Only a
        candidate that passes it gets its Frobenius byte tables, built from
        the x^q the root test took, and then ``is_irreducible`` decides.  The
        search logs its rejections at ``logging.DEBUG`` (logger
        ``lrcav.galois``).
        """
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        if m * base.w > TOWER_SIZE_CAP:
            raise ValueError(f"m*w = {m * base.w} bits exceeds the tower size cap "
                             f"{TOWER_SIZE_CAP}")
        self.base = base
        self.m = m
        self.zero: ExtElement = 0
        self.one: ExtElement = 1
        self._top = m * base.w
        self._full = (1 << self._top) - 1
        self._ones = self._full // (base.q - 1)
        self._window = max(1, 4 // base.w) * base.w
        rng = random.Random(seed)
        rejected = by_root = 0
        while True:
            rootless = self._set_modulus(ext_modulus if ext_modulus is not None else
                                         [rng.randrange(base.q) for _ in range(m)] + [1])
            if rootless and is_irreducible(self):
                break
            if ext_modulus is not None:
                raise ValueError("extension modulus is reducible")
            rejected += 1
            by_root += not rootless
        # imported here: logging adds about 0.5 MB to a process, and
        # `curves` and `bounds` build no tower
        import logging
        logging.getLogger(__name__).debug(
            "modulus search (w=%d, m=%d): rejected %d candidates, %d by the root test",
            base.w, m, rejected, by_root)
        if base.w > 1:  # at w = 1 squaring is the Frobenius map and c^(q-1) = c
            self._square_tables = self._build_square_tables()

    def _set_modulus(self, poly: Sequence[int]) -> bool:
        """Arithmetic and Frobenius tables modulo a monic degree-m poly.

        At m > 1 a poly with a root in GF(q) is reducible: that is
        gcd(poly, x^q - x) != 1, found from x^q before any byte table is
        built.  Returns False for such a poly (its Frobenius tables left
        unbuilt), True otherwise.
        """
        poly = tuple(poly)
        if len(poly) != self.m + 1 or poly[-1] != 1:
            raise ValueError("extension modulus must be monic of degree m")
        self.ext_modulus = poly
        # x^m = sum of the lower modulus terms (characteristic 2), packed
        self._reduce = self.base.pack(poly[:-1])
        # alpha^s * x^m mod f for s < w: they fold one overflowing coordinate
        self._fold_images = self.base.alpha_multiples(self._reduce, self._ones, self.base.w)
        one_coordinate = _subset_tables(self._fold_images)[0]
        self._fold_tables = self._nibble_tables(self._reduce, one_coordinate)  # c * x^m mod f
        self.x = self.basis_element(1) if self.m > 1 else self._reduce  # x mod f
        # x^q by squarings, from the highest x^(2^s) below x^m: a basis element
        s = min(self.base.w, max(self.m - 1, 1).bit_length() - 1)
        xq = self.basis_element(1 << s) if s else self.x
        for _ in range(self.base.w - s):
            xq = self.mul(xq, xq)
        if self.m > 1 and _poly_gcd(self.base, self.base.pack(poly), xq ^ self.x) != 1:
            return False
        # a -> a^q fixes GF(q) and takes x^i to (x^q)^i: the images
        # plane_sum reads, and the bit images of the byte tables
        self.frobenius_images = self._power_chain(xq)
        self._frob_tables = self._linear_byte_tables(self.frobenius_images, 1)
        return True

    def _build_square_tables(self) -> list[list[ExtElement]]:
        """Byte tables of a -> a^2: alpha^s -> alpha^(2s) and x^i -> (x^2)^i.
        Squaring is GF(2)-linear, so it is tabulated as the Frobenius map is,
        once the modulus is chosen, for ``frobenius_ratio``."""
        return self._linear_byte_tables(self._power_chain(self.mul(self.x, self.x)), 2)

    def _power_chain(self, step: ExtElement) -> list[ExtElement]:
        """[step^i for i < m]: step's product tables serve every link."""
        col, tables = self.one, self._nibble_tables(step, self._fold_tables[0])
        chain = [col]
        for _ in range(self.m - 1):
            col = self._horner(tables, col)
            chain.append(col)
        return chain

    def _linear_byte_tables(self, chain: list[ExtElement], stride: int) -> list[list[ExtElement]]:
        """One table per byte of a packed element: byte value -> its image.

        The map is GF(2)-linear and takes the bit for base value 2^s in
        coordinate i to alpha^(stride*s) * chain[i], so a byte's image is
        the XOR of its bits' images.
        """
        w = self.base.w
        bit_images = [image for col in chain
                      for image in self.base.alpha_multiples(col, self._ones, stride * w)[::stride]]
        nibbles = _subset_tables(bit_images + [0] * 4)  # padded: they pair up, one pair a byte
        return [[hi ^ lo for hi in high for lo in low]
                for low, high in zip(nibbles[::2], nibbles[1::2])]

    def _nibble_tables(self, a: ExtElement, fold: tuple) -> list[tuple]:
        """Tables of c*a, one per nibble of a Horner window of mul.

        Bit p of a window stands for alpha^(p mod w) * x^(p div w): lane
        doubling gives alpha^s * a, and at w < 4 a shift by one coordinate
        is reduced mod f through fold, a table of c * x^m for one coordinate c.
        """
        w, top = self.base.w, self._top
        images = self.base.alpha_multiples(a, self._ones, w)
        for _ in range(self._window - w):
            y = images[-w] << w
            images.append(y & self._full ^ fold[y >> top])
        return _subset_tables(images)

    # -- element constructors -------------------------------------------------

    def basis_element(self, i: int) -> ExtElement:
        return 1 << (i * self.base.w)

    def rand(self, rng: random.Random) -> ExtElement:
        """A random element: its m coordinates, lowest first, are the draws
        ``rng.randrange(q)`` would make.  Each is getrandbits(w + 1),
        redrawn while >= q (CPython's ``_randbelow_with_getrandbits``
        written out, the same on 3.10-3.13), so a seed gives the same
        elements, and leaves rng in the same state, as those calls."""
        draw, bits, q = rng.getrandbits, self.base.w + 1, self.base.q
        a = 0
        for shift in range(0, self._top, self.base.w):
            c = draw(bits)
            while c >= q:
                c = draw(bits)
            a |= c << shift
        return a

    # -- arithmetic -----------------------------------------------------------

    def mul(self, a: ExtElement, b: ExtElement) -> ExtElement:
        """a*b by a windowed Horner loop over b, with a's tables built for it."""
        return self._horner(self._nibble_tables(a, self._fold_tables[0]), b)

    def mul_each(self, a: ExtElement, bs: Sequence[ExtElement]) -> list[ExtElement]:
        """[a*b for b in bs], a's tables built once for every product."""
        tables = self._nibble_tables(a, self._fold_tables[0])
        return [self._horner(tables, b) for b in bs]

    def _horner(self, nibbles: list[tuple], b: ExtElement) -> ExtElement:
        """a*b, a given by its nibble tables: windowed Horner over b, top
        window first, acc = acc*x^c + (window of b)*a.

        A window is c coordinates of b: as many as fit in 4 bits, at least
        one.  Its nibbles index a's tables; what the shift pushes past the
        top coordinate folds back through the tower's tables.
        """
        window, full = self._window, self._full
        below, window_mask = max(self._top - window, 0), (1 << window) - 1
        shifts = range((self._top - 1) // window * window, -1, -window)
        acc = 0
        if len(nibbles) == 1:  # w <= 4: the loop below with its one table unrolled
            table, fold = nibbles[0], self._fold_tables[0]
            for shift in shifts:
                acc = (acc << window & full) ^ table[b >> shift & window_mask] ^ fold[acc >> below]
            return acc
        tables = list(zip(nibbles, self._fold_tables))
        for shift in shifts:
            hi = acc >> below
            acc = acc << window & full
            chunk = b >> shift & window_mask
            for table, fold in tables:
                acc ^= table[chunk & 15] ^ fold[hi & 15]
                chunk >>= 4
                hi >>= 4
        return acc

    def bit_planes(self, row: int) -> tuple[int, list[list[int]]]:
        """The m*w bit planes of a packed row, for ``plane_sum``.

        Plane (i, s) is (row >> (i*w+s)) & ones, ones the bit 0 of every
        lane the row reaches: bit 0 of a lane is set in it iff bit s of
        that lane's coordinate i is.  Returned as (coords, planes) with
        planes[s][i] that plane and coords the bit 0 of every coordinate
        of those lanes, the mask of lane doubling.
        """
        w, top = self.base.w, self._top
        ones = ((1 << -(-row.bit_length() // top) * top) - 1) // self._full
        return ones * self._ones, [[row >> shift & ones for shift in range(s, top, w)]
                                   for s in range(w)]

    def plane_sum(self, planes: tuple[int, list[list[int]]], images: Sequence[ExtElement],
                  images2: Sequence[ExtElement] | None = None) -> int | tuple[int, int]:
        """The GF(q)-linear map with images[i] = the image of x^i, applied
        to every lane of the row whose ``bit_planes`` these are.

        Bit s of coordinate i stands for alpha^s * x^i, so a map L that is
        GF(q)-linear takes a lane to sum_(s<w) alpha^s * sum_(i<m)
        bit(i, s) * L(x^i), and on the whole row

            L(row) = sum_(s<w) alpha^s * sum_(i<m) plane(i, s) * L(x^i),

        the outer sum Horner in alpha by lane doubling over every
        coordinate (``BaseField.alpha_multiples``).  With L(x^i) = a*x^i
        (``basis_row(a, m)``) it is a*row; with L(x^i) = (x^q)^i
        (``frobenius_images``) it is the lane-wise Frobenius, as
        Frob(alpha^s * x^i) = alpha^s * (x^q)^i.
        The images must be fully reduced, below 2^(m*w): multiplying one by
        a plane of 0/1 lanes then only copies it into the selected lanes,
        and no carry crosses a lane.  Given images2 as well, both maps run
        in the one loop over the planes, each on its own accumulator, and
        the two rows come back as a pair.
        """
        coords, by_weight = planes
        w, low = self.base.w, self.base.modulus ^ self.base.q
        acc = 0
        if images2 is None:
            for weight in reversed(by_weight):
                over = acc >> (w - 1) & coords
                acc = (acc ^ over << (w - 1)) << 1 ^ over * low
                for plane, image in zip(weight, images):
                    acc ^= plane * image
            return acc
        acc2 = 0
        for weight in reversed(by_weight):
            over = acc >> (w - 1) & coords
            acc = (acc ^ over << (w - 1)) << 1 ^ over * low
            over = acc2 >> (w - 1) & coords
            acc2 = (acc2 ^ over << (w - 1)) << 1 ^ over * low
            for plane, image, image2 in zip(weight, images, images2):
                acc ^= plane * image
                acc2 ^= plane * image2
        return acc, acc2

    def dot_row(self, scalars: Sequence[ExtElement], rows: Sequence[int]) -> int:
        """sum_i scalars[i] * rows[i], as one packed row (``pack``'s layout).

        Bit p of an element stands for alpha^(p mod w) * x^(p div w), so
        with the bucket B_p the XOR of the rows whose scalar has bit p set,

            sum_i a_i * row_i = sum_(c<m) x^c * sum_(s<w) alpha^s * B_(c*w+s),

        one XOR per set scalar bit, then one Horner pass, top coordinate c
        first: acc <- x*acc + the inner sum, itself Horner in alpha by lane
        doubling over every coordinate (``BaseField.alpha_multiples``).
        Times x shifts every lane up one coordinate and folds the base
        element e that leaves a lane back into it as
        sum_(s<w) ((e >> s) & 1) * alpha^s * (x^m mod f).  Those w images
        are fully reduced, below 2^(m*w), so multiplying one by a mask of
        0/1 lanes only copies it into the selected lanes: no carry crosses
        a lane.  The pass costs about 2*m*w shift-mask-multiply steps
        whatever the rows' length.  Rows may differ in width; the sum is as
        wide as the widest.  Scalars must be field elements (``check``):
        a negative int would give a wrong sum, a wider one an IndexError.
        """
        w, top = self.base.w, self._top
        buckets = [0] * top
        width = 0
        for a, row in zip(scalars, rows, strict=True):
            width = max(width, row.bit_length())
            for p, bit in enumerate(bin(a)[:1:-1]):  # a's bits, lowest first
                if bit == "1":
                    buckets[p] ^= row
        ones = ((1 << -(-width // top) * top) - 1) // self._full
        coords, bottoms = ones * self._ones, ones * (self.base.q - 1)
        low, images = self.base.modulus ^ self.base.q, self._fold_images
        acc = 0
        for c in range(top - w, -1, -w):
            if acc:  # acc <- x*acc
                acc <<= w
                over = acc >> top & bottoms
                acc ^= over << top
                for image in images:
                    acc ^= (over & ones) * image
                    over >>= 1
            inner = buckets[c + w - 1]
            for p in range(c + w - 2, c - 1, -1):
                over = inner >> (w - 1) & coords
                inner = (inner ^ over << (w - 1)) << 1 ^ over * low ^ buckets[p]
            acc ^= inner
        return acc

    def check(self, elements: Sequence[ExtElement]) -> None:
        """A ValueError unless every element lies in [0, q^m).  A wider int
        is no element, and in a packed row it would spill into the next lane."""
        if elements and (min(elements) < 0 or max(elements) > self._full):
            raise ValueError(f"field element outside [0, 2^{self._top})")

    def pack(self, elements: Sequence[ExtElement]) -> int:
        """The packed row with element j in bits [j*m*w, (j+1)*m*w)."""
        top = self._top
        return sum(a << (j * top) for j, a in enumerate(elements))

    def unpack(self, row: int, n: int) -> list[ExtElement]:
        """The first n elements of the packed row."""
        top, full = self._top, self._full
        return [row >> (j * top) & full for j in range(n)]

    def inv(self, a: ExtElement) -> ExtElement:
        """Itoh-Tsujii: a^-1 = a^(r-1) / N(a) with r = (q^m-1)/(q-1).

        ``_itoh_tsujii`` over the Frobenius map gives b_(m-1) =
        a^(1+q+...+q^(m-2)), so a^(r-1) = frob(b_(m-1)), and the norm
        N(a) = a^r lies in GF(q): one base-field inversion, after O(log m)
        products and Frobenius maps.
        """
        if not a:
            raise ZeroDivisionError("inversion of zero field element")
        rest = self.one
        if self.m > 1:
            rest = self.frobenius(self._itoh_tsujii(a, self.m - 1, self.frobenius), 1)
        norm = self.mul(a, rest)
        return self.base.scalar_mul(self.base.inv(norm), rest)

    def _itoh_tsujii(self, a: ExtElement, n: int, power) -> ExtElement:
        """b_n = a^(1+p+...+p^(n-1)) for n >= 1, where power(b, k) = b^(p^k)
        is GF(2)-linear (the Frobenius map, p = q, or squaring, p = 2).

        An addition chain on n (Itoh and Tsujii 1988): b_2k = b_k *
        power(b_k, k) and b_(k+1) = power(b_k, 1) * a, one step per bit of
        n below its top bit, so floor(log2 n) products plus one per further
        set bit of n.
        """
        b, k = a, 1
        for bit in bin(n)[3:]:
            b = self.mul(b, power(b, k))
            k *= 2
            if bit == "1":
                b = self.mul(power(b, 1), a)
                k += 1
        return b

    def frobenius(self, a: ExtElement, i: int) -> ExtElement:
        """a^(q^i), as the one-element row ``frobenius_row((a,), i)``."""
        return self.frobenius_row((a,), i)[0]

    def frobenius_row(self, bs: Sequence[ExtElement], i: int = 1) -> list[ExtElement]:
        """[b^(q^i) for b in bs] by i passes of byte-table lookups; i = m is the identity."""
        if i < 0:
            raise ValueError("Frobenius power must be nonnegative")
        return _apply_byte_tables(self._frob_tables, bs, i % self.m)

    def basis_row(self, a: ExtElement, n: int) -> list[ExtElement]:
        """[a * x^j for j < n], no product: a chain of one-coordinate shifts.

        The coordinate each shift pushes past the top folds back through
        every nibble of the tower's tables of c * x^m mod f.
        """
        w, top, full, folds = self.base.w, self._top, self._full, self._fold_tables
        out = [a]
        if len(folds) == 1:  # w <= 4: the loop below with its one table unrolled
            (fold,) = folds
            for _ in range(n - 1):
                a <<= w
                a = a & full ^ fold[a >> top]
                out.append(a)
            return out
        for _ in range(n - 1):
            a <<= w
            over, a = a >> top, a & full
            for fold in folds:
                a ^= fold[over & 15]
                over >>= 4
            out.append(a)
        return out

    def frobenius_ratio(self, c: ExtElement) -> ExtElement:
        """c^(q-1), which is frob(c)/c for nonzero c, without an inversion.

        c^(q-1) = c^(1+2+...+2^(w-1)): ``_itoh_tsujii`` on w over squaring,
        where k squarings are k passes of the squaring byte tables, w - 1
        passes in all.  At w = 1 the chain is empty: c itself.
        """
        return self._itoh_tsujii(
            c, self.base.w, lambda b, k: _apply_byte_tables(self._square_tables, (b,), k)[0])


def _apply_byte_tables(tables: list[list[ExtElement]], row: Sequence[ExtElement],
                       passes: int) -> list[ExtElement]:
    """passes applications, to each element of row, of the linear map whose
    byte tables these are."""
    row = list(row)
    for _ in range(passes):
        images = []
        for a in row:
            image = 0
            for table in tables:
                if not a:
                    break
                image ^= table[a & 255]
                a >>= 8
            images.append(image)
        row = images
    return row


def _subset_tables(images: list[int]) -> list[tuple]:
    """One 16-entry table per four images: index c -> XOR of the images at c's set bits."""
    tables = []
    for a0, a1, a2, a3 in zip(*[iter(images + [0, 0, 0])] * 4):
        a01, a23 = a0 ^ a1, a2 ^ a3
        tables.append((0, a0, a1, a01, a2, a2 ^ a0, a2 ^ a1, a2 ^ a01,
                       a3, a3 ^ a0, a3 ^ a1, a3 ^ a01, a23, a23 ^ a0, a23 ^ a1, a23 ^ a01))
    return tables


def _poly_gcd(base: BaseField, a: int, b: int) -> int:
    """The monic gcd of two packed polynomials over GF(q), not both zero.

    Coefficient i sits in bits [i*w, (i+1)*w), as in an extension element,
    so the top coordinate is the leading coefficient.  Euclid: a mod b
    cancels a's leading term with a shifted multiple of b until a's degree
    drops below b's.
    """
    w = base.w
    while b:
        top = (b.bit_length() - 1) // w
        inv_lead = base.inv(b >> top * w)
        while a.bit_length() > top * w:
            shift = (a.bit_length() - 1) // w
            a ^= base.scalar_mul(base.mul(a >> shift * w, inv_lead), b << (shift - top) * w)
        a, b = b, a
    return base.scalar_mul(base.inv(a >> (a.bit_length() - 1) // w * w), a)
