"""Exact linear algebra over any field object from :mod:`lrcav.galois`.

A "field" here is anything with ``zero``, ``one``, ``mul`` and ``inv``
whose elements are ints that add by XOR and are nonzero iff truthy
(both BaseField and FieldTower qualify: characteristic 2 throughout).
Matrices are plain row-major lists of field elements; all operations
are pure and deterministic (first nonzero pivot, smallest column first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence


@dataclass
class Matrix:
    field: object
    rows: int
    cols: int
    data: List[List[object]]

    @classmethod
    def from_rows(cls, field, rows: Sequence[Sequence[object]], cols: int | None = None):
        rows = [list(r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != cols:
                raise ValueError("ragged rows")
        return cls(field, len(rows), cols, rows)

    @classmethod
    def zeros(cls, field, rows: int, cols: int):
        z = field.zero
        return cls(field, rows, cols, [[z] * cols for _ in range(rows)])

    def copy(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols, [list(r) for r in self.data])

    def transpose(self) -> "Matrix":
        data = [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return Matrix(self.field, self.cols, self.rows, data)

    def mul_vec(self, v: Sequence[object]) -> List[object]:
        f = self.field
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        out = []
        for row in self.data:
            acc = f.zero
            for a, x in zip(row, v):
                if a and x:
                    acc ^= f.mul(a, x)
            out.append(acc)
        return out


def rref(M: Matrix):
    """Reduced row echelon form.  Returns (R, rank, pivot columns)."""
    f = M.field
    R = M.copy()
    pivots: List[int] = []
    prow = 0
    for col in range(R.cols):
        pr = None
        for i in range(prow, R.rows):
            if R.data[i][col]:
                pr = i
                break
        if pr is None:
            continue
        R.data[prow], R.data[pr] = R.data[pr], R.data[prow]
        inv = f.inv(R.data[prow][col])
        if inv != f.one:
            R.data[prow] = [f.mul(inv, x) for x in R.data[prow]]
        for i in range(R.rows):
            if i != prow and R.data[i][col]:
                c = R.data[i][col]
                R.data[i] = [x ^ f.mul(c, y) for x, y in zip(R.data[i], R.data[prow])]
        pivots.append(col)
        prow += 1
        if prow == R.rows:
            break
    return R, len(pivots), pivots


def solve(A: Matrix, b: Sequence[object]):
    """One solution of Ax = b (free variables zero), or None if inconsistent."""
    if len(b) != A.rows:
        raise ValueError("dimension mismatch")
    f = A.field
    aug = Matrix.from_rows(f, [list(r) + [bv] for r, bv in zip(A.data, b)],
                           A.cols + 1)
    R, rk, pivots = rref(aug)
    if A.cols in pivots:
        return None
    x = [f.zero] * A.cols
    for i, col in enumerate(pivots):
        x[col] = R.data[i][A.cols]
    return x


def nullspace(M: Matrix) -> List[List[object]]:
    """Basis of the right nullspace (cols - rank vectors)."""
    f = M.field
    R, rk, pivots = rref(M)
    free = [j for j in range(M.cols) if j not in set(pivots)]
    basis = []
    for fc in free:
        v = [f.zero] * M.cols
        v[fc] = f.one
        for i, pc in enumerate(pivots):
            # char 2: negation is identity
            v[pc] = R.data[i][fc]
        basis.append(v)
    return basis


def rank_over_base(tower, vectors) -> int:
    """Rank of extension-field elements viewed as base-field coordinate rows."""
    tracker = RankTracker(tower.base)
    for v in vectors:
        tracker.add(v)
    return tracker.rank


class RankTracker:
    """Incremental echelon form of packed vectors over a base field GF(2^w).

    A packed vector of any length holds coordinate i in bits
    [i*w, (i+1)*w), so an extension element, a local check and a
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
        base, w = self.base, self.base.w
        while row:
            low = ((row & -row).bit_length() - 1) // w
            pivot = self.basis.get(low)
            if pivot is None:
                return row
            row ^= base.scalar_mul(row >> (low * w) & (base.q - 1), pivot)
        return 0

    def add(self, row: int) -> bool:
        """Add a row; True iff it increased the rank."""
        row = self.reduce(row)
        if not row:
            return False
        base, w = self.base, self.base.w
        low = ((row & -row).bit_length() - 1) // w
        self.basis[low] = base.scalar_mul(base.inv(row >> (low * w) & (base.q - 1)), row)
        return True
