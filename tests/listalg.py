"""List-based Gaussian elimination over any field object: the test oracle.

A "field" here is anything with ``zero``, ``one``, ``mul`` and ``inv``
whose elements are ints that add by XOR and are nonzero iff truthy
(both BaseField and FieldTower qualify: characteristic 2 throughout).
Matrices are plain row-major lists of field elements.  This is the
elimination ``lrcav.linalg`` ran before its rows became packed ints; the
tests keep it as the oracle for the packed ``rref``, ``nullspace`` and
``solve`` and, over a tower, for the Moore solve behind
``moore_interpolate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


@dataclass
class ListMatrix:
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

    def copy(self) -> "ListMatrix":
        return ListMatrix(self.field, self.rows, self.cols, [list(r) for r in self.data])

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


def rref(M: ListMatrix):
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


def solve(A: ListMatrix, b: Sequence[object]):
    """One solution of Ax = b (free variables zero), or None if inconsistent."""
    if len(b) != A.rows:
        raise ValueError("dimension mismatch")
    f = A.field
    aug = ListMatrix.from_rows(f, [list(r) + [bv] for r, bv in zip(A.data, b)],
                               A.cols + 1)
    R, rk, pivots = rref(aug)
    if A.cols in pivots:
        return None
    x = [f.zero] * A.cols
    for i, col in enumerate(pivots):
        x[col] = R.data[i][A.cols]
    return x


def nullspace(M: ListMatrix) -> List[List[object]]:
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
