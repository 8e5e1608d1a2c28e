import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import listalg
from listalg import ListMatrix
from lrcav.constructions import build_wzl
from lrcav.galois import BaseField, FieldTower
from lrcav.linalg import Matrix, RankTracker, nullspace, rank_over_base, rref, solve

F2 = BaseField(1)
F16 = BaseField(4)
FIELDS = {w: BaseField(w) for w in (1, 2, 8)}


def rank(M):
    return rref(M)[1]


def identity(field, n):
    return Matrix.from_rows(field, [[int(i == j) for j in range(n)] for i in range(n)], n)


def test_rref_identity():
    R, rk, pivots = rref(identity(F16, 3))
    assert rk == 3 and pivots == [0, 1, 2]


def test_rref_zero_matrix():
    R, rk, pivots = rref(Matrix.from_rows(F2, [[0] * 4] * 3))
    assert rk == 0 and pivots == []


def test_wzl22_parity_rank():
    # 4 vertex checks of K4; rows sum to zero in characteristic 2
    code = build_wzl(2, 2)
    assert code.parity.rows == 4
    assert rank(code.parity) == 3


def test_rref_idempotent_random_gf2():
    rng = random.Random(5)
    for _ in range(50):
        M = Matrix.from_rows(F2, [[rng.randrange(2) for _ in range(6)]
                                  for _ in range(4)], 6)
        R, _, _ = rref(M)
        R2, _, _ = rref(R)
        assert R.data == R2.data


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_rank_equals_transpose_rank(seed):
    rng = random.Random(seed)
    M = Matrix.from_rows(F16, [[rng.randrange(16) for _ in range(5)]
                               for _ in range(4)], 5)
    assert rank(M) == rank(M.transpose())


def test_solve_identity():
    b = F16.pack([3, 7, 1])
    assert solve(identity(F16, 3), b) == b


def test_solve_inconsistent():
    A = Matrix.from_rows(F16, [[0] * 3] * 2)
    assert solve(A, F16.pack([1, 0])) is None


def test_solve_dimension_mismatch():
    # a packed right-hand side with a coordinate beyond the 3 rows
    with pytest.raises(ValueError):
        solve(identity(F16, 3), F16.pack([1, 2, 0, 4]))


def test_solve_roundtrip_random_invertible():
    for trial in range(100):
        rng = random.Random(trial)
        while True:
            A = Matrix.from_rows(F16, [[rng.randrange(16) for _ in range(5)]
                                       for _ in range(5)], 5)
            if rank(A) == 5:
                break
        b = [rng.randrange(16) for _ in range(5)]
        x = solve(A, F16.pack(b))
        assert ListMatrix.from_rows(F16, A.to_lists()).mul_vec(F16.unpack(x, 5)) == b


def test_nullspace_identity_empty():
    assert nullspace(identity(F2, 4)) == []


def test_nullspace_parity_vector():
    M = Matrix.from_rows(F2, [[1, 1]], 2)
    assert nullspace(M) == [F2.pack([1, 1])]


def test_nullspace_dimension_and_annihilation():
    rng = random.Random(8)
    for _ in range(30):
        M = Matrix.from_rows(F16, [[rng.randrange(16) for _ in range(7)]
                                   for _ in range(4)], 7)
        basis = nullspace(M)
        assert len(basis) == 7 - rank(M)
        for v in basis:
            assert ListMatrix.from_rows(F16, M.to_lists()).mul_vec(F16.unpack(v, 7)) == [0] * 4
        if basis:
            assert rank(Matrix(F16, 7, basis)) == len(basis)


def test_wzl22_generator_dimension():
    code = build_wzl(2, 2)
    assert len(nullspace(code.parity)) == 3


def test_rank_over_base_basis_vectors():
    t = FieldTower(BaseField(2), 4)
    vs = [t.basis_element(i) for i in range(3)]
    assert rank_over_base(t, vs) == 3


def test_rank_over_base_scalar_multiple():
    t = FieldTower(BaseField(2), 4)
    rng = random.Random(1)
    a = rng.randrange(1, t.base.q ** t.m)
    assert rank_over_base(t, [a, t.base.scalar_mul(3, a)]) == 1


def test_rank_over_base_matches_bit_matrix_oracle():
    # rref of the coordinate matrix over GF(2^w) is the oracle
    for w in (1, 2, 4):
        t = FieldTower(BaseField(w), 8)
        rng = random.Random(3)
        for _ in range(100):
            vs = [t.rand(rng) for _ in range(rng.randrange(1, 10))]
            if rng.randrange(2):
                # force a dependency: a base-field combination of earlier rows
                vs.append(t.base.scalar_mul(rng.randrange(t.base.q), vs[0])
                          ^ t.base.scalar_mul(rng.randrange(t.base.q), vs[-1]))
            M = ListMatrix.from_rows(t.base, [t.base.unpack(v, 8) for v in vs], 8)
            assert rank_over_base(t, vs) == listalg.rref(M)[1]


@pytest.mark.parametrize("w", [1, 2, 8])
def test_rank_tracker_keys_are_rref_pivots_and_reduce_tests_the_span(w):
    # packed rows of any length over GF(2^w): coordinate j in bits [j*w, (j+1)*w)
    f = BaseField(w)
    rng = random.Random(w)
    pack = f.pack

    def rank(rows, cols):
        return listalg.rref(ListMatrix.from_rows(f, rows, cols))[1]

    for _ in range(60):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 10)
        data = [[rng.randrange(f.q) if rng.randrange(3) else 0 for _ in range(cols)]
                for _ in range(rows)]
        tracker = RankTracker(f)
        added = [tracker.add(pack(row)) for row in data]
        _, rk, pivots = listalg.rref(ListMatrix.from_rows(f, data, cols))
        assert sorted(tracker.basis) == pivots and tracker.rank == rk
        assert added == [rank(data[:i + 1], cols) > rank(data[:i], cols)
                         for i in range(rows)]
        coeffs = [rng.randrange(f.q) for _ in data]
        combo = [0] * cols
        for c, row in zip(coeffs, data):
            combo = [y ^ f.mul(c, x) for x, y in zip(row, combo)]
        assert tracker.reduce(pack(combo)) == 0
        for _ in range(10):
            v = [rng.randrange(f.q) for _ in range(cols)]
            in_span = rank(data + [v], cols) == rk
            assert (tracker.reduce(pack(v)) == 0) == in_span


def test_w1_tracker_fills_without_inv_or_scalar_mul(monkeypatch):
    # at w = 1 every coefficient and every leading entry is 1: elimination
    # is bare XORs, and normalizing a new basis row leaves it as it is
    f, rng = BaseField(1), random.Random(3)
    rows = build_wzl(3, 3).parity.data + [rng.getrandbits(20) for _ in range(40)]
    expected = RankTracker(f)
    for row in rows:
        expected.add(row)

    def forbidden(*args):
        raise AssertionError("called at w = 1")

    monkeypatch.setattr(BaseField, "inv", forbidden)
    monkeypatch.setattr(BaseField, "scalar_mul", forbidden)
    tracker = RankTracker(f)
    for row in rows:
        tracker.add(row)
    assert tracker.basis == expected.basis and tracker.rank == 20
    assert all(tracker.reduce(row) == 0 for row in rows)


@pytest.mark.parametrize("w", [1, 2, 4, 8])
def test_tracker_basis_rows_are_the_normalized_residues(monkeypatch, w):
    # add keys a new row by the pivot reduce found and scales it only when
    # its lead is not 1: the same rows as normalizing the residue, and no
    # third search for the pivot through BaseField.normalize
    f, rng = BaseField(w), random.Random(w)
    rows = [f.pack([rng.randrange(f.q) if rng.randrange(3) else 0 for _ in range(9)])
            for _ in range(14)]
    expected = {}
    for row in rows:
        reference = RankTracker(f)
        reference.basis = dict(expected)
        residue = reference.reduce(row)
        if residue:
            expected[((residue & -residue).bit_length() - 1) // w] = f.normalize(residue)

    def forbidden(*args):
        raise AssertionError("normalize called")

    monkeypatch.setattr(BaseField, "normalize", forbidden)
    tracker = RankTracker(f)
    for row in rows:
        tracker.add(row)
    assert tracker.basis == expected


def test_from_rows_rejects_entries_outside_the_field():
    # an entry >= q would spill into the next packed coordinate
    with pytest.raises(ValueError):
        Matrix.from_rows(F2, [[1, 2, 0]])
    with pytest.raises(ValueError):
        Matrix.from_rows(F16, [[0, 15], [16, 0]])
    with pytest.raises(ValueError):
        Matrix.from_rows(F16, [[-1]])
    M = Matrix.from_rows(F16, [[0, 15], [3, 0]])
    assert M.data == [15 << 4, 3] and M.to_lists() == [[0, 15], [3, 0]]


def _matrices(data, f):
    """A rows x cols list matrix over f, 0x0 to 8x10, with some zero rows
    and columns and sparse entries."""
    rows = data.draw(st.integers(0, 8), label="rows")
    cols = data.draw(st.integers(0, 10), label="cols")
    zero_rows = data.draw(st.sets(st.integers(0, max(rows - 1, 0))), label="zero rows")
    zero_cols = data.draw(st.sets(st.integers(0, max(cols - 1, 0))), label="zero cols")
    entry = st.one_of(st.just(0), st.integers(1, f.q - 1))
    return rows, cols, [[0 if i in zero_rows or j in zero_cols else data.draw(entry)
                         for j in range(cols)] for i in range(rows)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_elimination_matches_list_oracle(data):
    f = FIELDS[data.draw(st.sampled_from(sorted(FIELDS)), label="w")]
    rows, cols, lists = _matrices(data, f)
    M, L = Matrix.from_rows(f, lists, cols), ListMatrix.from_rows(f, lists, cols)
    assert M.to_lists() == lists
    R, rk, pivots = rref(M)
    LR, lrk, lpivots = listalg.rref(L)
    assert (R.rows, R.cols) == (rows, cols)
    assert (R.to_lists(), rk, pivots) == (LR.data, lrk, lpivots)
    assert [f.unpack(v, cols) for v in nullspace(M)] == listalg.nullspace(L)
    # right-hand sides: random (often inconsistent) and A x (consistent)
    x = [data.draw(st.integers(0, f.q - 1)) for _ in range(cols)]
    for b in ([data.draw(st.integers(0, f.q - 1)) for _ in range(rows)], L.mul_vec(x)):
        expect = listalg.solve(L, b)
        got = solve(M, f.pack(b))
        assert (got if got is None else f.unpack(got, cols)) == expect
