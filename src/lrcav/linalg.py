"""Exact linear algebra over a base field GF(2^w) from :mod:`lrcav.galois`.

A vector is one packed int, coordinate i in bits [i*w, (i+1)*w) (see
``BaseField.pack``), and a matrix row is such a vector.  The one
elimination step is ``RankTracker.reduce``: ``rref`` feeds the rows to a
tracker and then clears each pivot column in one back-substitution pass,
and ``nullspace`` and ``solve`` read their answers off the rref.  All
operations are pure and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class Matrix:
    field: object
    rows: int
    cols: int
    data: List[int]

    @classmethod
    def from_rows(cls, field, rows: Sequence[Sequence[int]], cols: int | None = None):
        """The matrix of these coordinate lists.  An entry outside [0, q) is
        refused: packed, it would spill into the next coordinate."""
        rows = [list(r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != cols:
                raise ValueError("ragged rows")
            if not all(0 <= x < field.q for x in r):
                raise ValueError(f"matrix entries must lie in [0, {field.q})")
        return cls(field, len(rows), cols, [field.pack(r) for r in rows])

    def to_lists(self) -> List[List[int]]:
        """The rows as coordinate lists, as JSON stores them."""
        return [self.field.unpack(row, self.cols) for row in self.data]

    def transpose(self) -> "Matrix":
        w, mask = self.field.w, self.field.q - 1
        data = [sum((row >> (j * w) & mask) << (i * w) for i, row in enumerate(self.data))
                for j in range(self.cols)]
        return Matrix(self.field, self.cols, self.rows, data)


def rref(M: Matrix):
    """Reduced row echelon form.  Returns (R, rank, pivot columns)."""
    f = M.field
    w, mask = f.w, f.q - 1
    tracker = RankTracker(f)
    for row in M.data:
        tracker.add(row)
    pivots = sorted(tracker.basis)
    rows = [tracker.basis[col] for col in pivots]
    # back-substitution, last pivot first: the rows below are already reduced
    for i in range(len(rows) - 2, -1, -1):
        for col, lower in zip(pivots[i + 1:], rows[i + 1:]):
            c = rows[i] >> (col * w) & mask
            if c:
                rows[i] ^= f.scalar_mul(c, lower)
    return Matrix(f, M.rows, M.cols, rows + [0] * (M.rows - len(rows))), len(pivots), pivots


def solve(A: Matrix, b: int) -> Optional[int]:
    """One solution x of Ax = b (free variables zero), or None if inconsistent."""
    w = A.field.w
    if b >> (A.rows * w):
        raise ValueError("dimension mismatch")
    mask, top = A.field.q - 1, A.cols * w
    aug = Matrix(A.field, A.rows, A.cols + 1,
                 [row | (b >> (i * w) & mask) << top for i, row in enumerate(A.data)])
    R, rk, pivots = rref(aug)
    if A.cols in pivots:
        return None
    return sum((row >> top) << (col * w) for row, col in zip(R.data, pivots))


def nullspace(M: Matrix) -> List[int]:
    """Basis of the right nullspace (cols - rank vectors)."""
    w, mask = M.field.w, M.field.q - 1
    R, rk, pivots = rref(M)
    free = sorted(set(range(M.cols)).difference(pivots))
    # char 2: negation is identity
    return [sum((row >> (fc * w) & mask) << (pc * w) for row, pc in zip(R.data, pivots))
            | 1 << (fc * w) for fc in free]


def rank_over_base(tower, vectors) -> int:
    """Rank of extension-field elements viewed as base-field coordinate
    rows: the rank weight of a vector over GF(q^m)."""
    tracker = RankTracker(tower.base)
    for v in vectors:
        tracker.add(v)
    return tracker.rank


class RankTracker:
    """Incremental echelon form of packed vectors over a base field GF(2^w).

    A packed vector of any length holds coordinate i in bits
    [i*w, (i+1)*w), so an extension element, a matrix row and a
    generator column all fit.  Each basis row is keyed by its lowest
    nonzero coordinate and scaled so that coordinate is 1; the keys are
    therefore exactly the pivot columns of the rref of the rows added.
    """

    def __init__(self, base):
        self.base = base
        self.basis: Dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self.basis)

    def reduce(self, row: int) -> int:
        """Row minus its projection on the basis: 0 iff row is in the span."""
        return self._reduce(row)[0]

    def _reduce(self, row: int) -> Tuple[int, int, int]:
        """(the reduced row, its lowest nonzero coordinate, that coordinate's
        value); (0, 0, 0) iff row is in the span."""
        base, w, mask = self.base, self.base.w, self.base.q - 1
        while row:
            low = ((row & -row).bit_length() - 1) // w
            c = row >> (low * w) & mask
            pivot = self.basis.get(low)
            if pivot is None:
                return row, low, c
            # c = 1, every coefficient at w = 1, needs no scalar product
            row ^= pivot if c == 1 else base.scalar_mul(c, pivot)
        return 0, 0, 0

    def add(self, row: int) -> bool:
        """Add a row; True iff it increased the rank."""
        row, low, lead = self._reduce(row)
        if not row:
            return False
        # keyed by the pivot reduce found, scaled so it is 1 (it is at w = 1)
        self.basis[low] = row if lead == 1 else self.base.scalar_mul(self.base.inv(lead), row)
        return True
