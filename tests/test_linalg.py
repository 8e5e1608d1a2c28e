import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcav.constructions import build_wzl
from lrcav.galois import BaseField, build_tower
from lrcav.linalg import Matrix, RankTracker, nullspace, rank_over_base, rref, solve

F2 = BaseField(1)
F16 = BaseField(4)


def rank(M):
    return rref(M)[1]


def identity(field, n):
    return Matrix.from_rows(field, [[int(i == j) for j in range(n)] for i in range(n)], n)


def test_rref_identity():
    R, rk, pivots = rref(identity(F16, 3))
    assert rk == 3 and pivots == [0, 1, 2]


def test_rref_zero_matrix():
    R, rk, pivots = rref(Matrix.zeros(F2, 3, 4))
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
    b = [3, 7, 1]
    assert solve(identity(F16, 3), b) == b


def test_solve_inconsistent():
    A = Matrix.zeros(F16, 2, 3)
    assert solve(A, [1, 0]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(identity(F16, 3), [1, 2])


def test_solve_roundtrip_random_invertible():
    for trial in range(100):
        rng = random.Random(trial)
        while True:
            A = Matrix.from_rows(F16, [[rng.randrange(16) for _ in range(5)]
                                       for _ in range(5)], 5)
            if rank(A) == 5:
                break
        b = [rng.randrange(16) for _ in range(5)]
        x = solve(A, b)
        assert A.mul_vec(x) == b


def test_nullspace_identity_empty():
    assert nullspace(identity(F2, 4)) == []


def test_nullspace_parity_vector():
    M = Matrix.from_rows(F2, [[1, 1]], 2)
    assert nullspace(M) == [[1, 1]]


def test_nullspace_dimension_and_annihilation():
    rng = random.Random(8)
    for _ in range(30):
        M = Matrix.from_rows(F16, [[rng.randrange(16) for _ in range(7)]
                                   for _ in range(4)], 7)
        basis = nullspace(M)
        assert len(basis) == 7 - rank(M)
        for v in basis:
            assert M.mul_vec(v) == [0] * 4
        if basis:
            assert rank(Matrix.from_rows(F16, basis, 7)) == len(basis)


def test_wzl22_generator_dimension():
    code = build_wzl(2, 2)
    assert len(nullspace(code.parity)) == 3


def test_rank_over_base_basis_vectors():
    t = build_tower(2, 4)
    vs = [t.basis_element(i) for i in range(3)]
    assert rank_over_base(t, vs) == 3


def test_rank_over_base_scalar_multiple():
    t = build_tower(2, 4)
    rng = random.Random(1)
    a = rng.randrange(1, t.base.q ** t.m)
    assert rank_over_base(t, [a, t.base.scalar_mul(3, a)]) == 1


def test_rank_over_base_matches_bit_matrix_oracle():
    # rref of the coordinate matrix over GF(2^w) is the oracle
    for w in (1, 2, 4):
        t = build_tower(w, 8)
        rng = random.Random(3)
        for _ in range(100):
            vs = [t.rand(rng) for _ in range(rng.randrange(1, 10))]
            if rng.randrange(2):
                # force a dependency: a base-field combination of earlier rows
                vs.append(t.base.scalar_mul(rng.randrange(t.base.q), vs[0])
                          ^ t.base.scalar_mul(rng.randrange(t.base.q), vs[-1]))
            M = Matrix.from_rows(t.base, [t.coords(v) for v in vs], 8)
            assert rank_over_base(t, vs) == rank(M)


@pytest.mark.parametrize("w", [1, 2, 8])
def test_rank_tracker_keys_are_rref_pivots_and_reduce_tests_the_span(w):
    # packed rows of any length over GF(2^w): coordinate j in bits [j*w, (j+1)*w)
    f = BaseField(w)
    rng = random.Random(w)

    def pack(row):
        return sum(x << (j * w) for j, x in enumerate(row))

    for _ in range(60):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 10)
        data = [[rng.randrange(f.q) if rng.randrange(3) else 0 for _ in range(cols)]
                for _ in range(rows)]
        tracker = RankTracker(f)
        added = [tracker.add(pack(row)) for row in data]
        _, rk, pivots = rref(Matrix.from_rows(f, data, cols))
        assert sorted(tracker.basis) == pivots and tracker.rank == rk
        assert added == [rank(Matrix.from_rows(f, data[:i + 1], cols))
                         > rank(Matrix.from_rows(f, data[:i], cols)) for i in range(rows)]
        coeffs = [rng.randrange(f.q) for _ in data]
        combo = [0] * cols
        for c, row in zip(coeffs, data):
            combo = [y ^ f.mul(c, x) for x, y in zip(row, combo)]
        assert tracker.reduce(pack(combo)) == 0
        for _ in range(10):
            v = [rng.randrange(f.q) for _ in range(cols)]
            in_span = rank(Matrix.from_rows(f, data + [v], cols)) == rk
            assert (tracker.reduce(pack(v)) == 0) == in_span
