from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcav.analysis import verify_availability
from lrcav.constructions import LinearCode, build_wzl
from lrcav.galois import BaseField
from lrcav.linalg import Matrix
from lrcav.shortening import (LocalCheckSet,
                              availability_shortening_bounds,
                              build_shortening_set, closure,
                              enumerate_local_checks, shortened_k_bound,
                              singleton_d, singleton_k)


def test_local_checks_are_dual_words():
    code = build_wzl(3, 2)
    checks = enumerate_local_checks(code, 3)
    G = code.generator()
    for h in checks.checks:
        assert sum(1 for x in h if x) <= 4
        for i in range(G.rows):
            assert sum(G.data[i][j] * h[j] for j in range(code.n)) % 2 == 0


def test_local_checks_include_parity_rows():
    code = build_wzl(2, 2)
    found = {tuple(h) for h in enumerate_local_checks(code, 2).checks}
    for row in code.parity.data:
        assert tuple(row) in found


def test_local_checks_deduplicated():
    code = build_wzl(2, 3)
    checks = enumerate_local_checks(code, 2)
    assert len({tuple(h) for h in checks.checks}) == len(checks.checks)


def test_local_checks_budget():
    code = build_wzl(4, 2)
    with pytest.raises(ValueError):
        enumerate_local_checks(code, 4, budget=10)


def test_local_checks_budget_bounds_the_span_walk():
    # k = 0: every 5-support's nullspace is all of GF(2)^5, 31 words each;
    # the up-front estimate is C(6, 5) * 5^3 = 750, the walk adds 6 * 31
    f = BaseField(1)
    code = LinearCode.from_parity(f, Matrix.from_rows(
        f, [[int(i == j) for j in range(6)] for i in range(6)]))
    assert len(enumerate_local_checks(code, 4, budget=750 + 6 * 31).checks) == 62
    with pytest.raises(ValueError, match="exceeds budget"):
        enumerate_local_checks(code, 4, budget=750 + 6 * 31 - 1)


# parity rows 110001, 110110, 011010: the check 000111 is the sum of two
# words of a support's nullspace, and a basis of each nullspace misses it
SPAN_EXAMPLE = [[int(c) for c in row] for row in ("110001", "110110", "011010")]


def test_local_checks_walk_each_support_span():
    f = BaseField(1)
    code = LinearCode.from_parity(f, Matrix.from_rows(f, SPAN_EXAMPLE))
    assert code.k == 3
    assert (0, 0, 0, 1, 1, 1) in enumerate_local_checks(code, 4).checks
    report = verify_availability(code, 4, 2)
    assert report.ok and report.failed_coordinates == []
    assert report.recovering_sets[3] == [{0, 2}, {4, 5}]


def _dual_words(f, parity, n, r):
    """Brute force: every combination of the parity rows (the dual code) of
    weight 1..r+1, with its leading entry 1."""
    words = set()
    for coeffs in product(range(f.q), repeat=len(parity)):
        h = [0] * n
        for c, row in zip(coeffs, parity):
            for j, x in enumerate(row):
                h[j] ^= f.mul(c, x)
        support = [x for x in h if x]
        if 1 <= len(support) <= r + 1 and support[0] == 1:
            words.add(tuple(h))
    return words


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_local_checks_match_brute_force_dual_words(data):
    w = data.draw(st.sampled_from([1, 2]), label="w")
    f = BaseField(w)
    n = data.draw(st.integers(1, 7), label="n")
    rows = data.draw(st.integers(0, 5 if w == 1 else 4), label="rows")
    parity = data.draw(st.lists(st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n),
                                min_size=rows, max_size=rows), label="parity")
    r = data.draw(st.integers(1, n), label="r")
    code = LinearCode.from_parity(f, Matrix.from_rows(f, parity, n))
    checks = enumerate_local_checks(code, r).checks
    assert len(set(checks)) == len(checks)
    assert set(checks) == _dual_words(f, parity, n, r)


def test_supports_match_checks():
    code = build_wzl(2, 2)
    checks = enumerate_local_checks(code, 2)
    for h, sup in zip(checks.checks, checks.supports()):
        assert all(h[j] != 0 for j in sup)
        assert sum(1 for x in h if x) == len(sup)


def test_closure_of_everything_is_everything():
    code = build_wzl(2, 2)
    assert closure(code, range(code.n)) == set(range(code.n))


def test_closure_is_monotone_and_idempotent():
    code = build_wzl(3, 2)
    for size in (1, 2, 3):
        I = list(range(size))
        cl = closure(code, I)
        assert set(I) <= cl
        assert closure(code, sorted(cl)) == cl


def test_closure_brute_force_oracle():
    # coordinate j is determined by I iff every codeword vanishing on I
    # vanishes at j; check against exhaustive codeword enumeration
    code = build_wzl(2, 2)
    words = list(code.codewords())
    for I in product([0, 1], repeat=code.n):
        Iset = [i for i, b in enumerate(I) if b]
        vanish = [w for w in words if all(w[i] == 0 for i in Iset)]
        expect = {j for j in range(code.n) if all(w[j] == 0 for w in vanish)}
        expect |= set(Iset)
        assert closure(code, Iset) == expect


@pytest.mark.parametrize("r,t", [(2, 2), (3, 2), (2, 3), (4, 2)])
def test_shortening_set_invariants(r, t):
    code = build_wzl(r, t)
    checks = enumerate_local_checks(code, r)
    for s in range(1, code.n - code.k + 1):
        res = build_shortening_set(checks, s, code.n, r)
        assert len(res.X) == res.l
        assert res.s == s
        assert len(res.I) <= 1 + (r - 1) * s
        cl = closure(code, res.I)
        assert cl >= set(res.J) | set(res.I)
        assert len(cl) >= min(1 + r * s, code.n)


def test_shortening_set_zero_overlap_counters():
    # with a single check the loop never runs: counters stay zero
    code = build_wzl(2, 2)
    checks = enumerate_local_checks(code, 2)
    res = build_shortening_set(checks, 1, code.n, 2)
    assert (res.s1, res.j, res.l) == (0, 0, 1)


def test_shortening_set_needs_enough_checks():
    code = build_wzl(2, 2)
    checks = enumerate_local_checks(code, 2)
    one = LocalCheckSet(checks.field, checks.n, checks.r, checks.checks[:1])
    with pytest.raises(ValueError):
        build_shortening_set(one, 2, code.n, 2)
    with pytest.raises(ValueError):
        build_shortening_set(checks, 0, code.n, 2)


def test_singleton_oracles():
    assert singleton_k(2, 10, 4) == 7
    assert singleton_d(2, 10, 7) == 4


def test_shortened_k_bound():
    assert shortened_k_bound(3, 5, 10, 4) == 3 + singleton_k(2, 5, 4)
    with pytest.raises(ValueError):
        shortened_k_bound(3, 8, 10, 4)  # |Cl(I)| > n - d
    with pytest.raises(ValueError):
        shortened_k_bound(6, 5, 10, 4)  # |I| > |Cl(I)|


def test_availability_bounds_known_value():
    # Singleton-instantiated distance bound at (n, k, r) = (24, 12, 3)
    b = availability_shortening_bounds(24, 12, 9, 3)
    assert b.d_upper == 8
    b2 = availability_shortening_bounds(10, 6, 4, 3)
    assert b2.d_upper == 3


def test_availability_bounds_closed_form():
    # with Singleton oracles the minimum over s has the closed form
    # n - (k-1) - floor((k-2)/(r-1))
    from lrcav.bounds import shortening_singleton_distance
    for n in range(6, 30):
        for r in range(2, 6):
            for k in range(3, n):
                b = availability_shortening_bounds(n, k, n - k + 1, r)
                assert b.d_upper == shortening_singleton_distance(n, k, r)


def test_availability_bounds_k_direction():
    b = availability_shortening_bounds(6, 3, 3, 2)
    # best s = 1: 1 + (r-1) + k*(2, n-1-r, d) = 2 + singleton_k(2, 3, 3) = 3
    assert b.k_upper == 3 and b.k_s == 1


def test_availability_bounds_infeasible_falls_back():
    b = availability_shortening_bounds(5, 2, 4, 2)
    assert b.k_s is None
    assert b.k_upper == singleton_k(2, 5, 4)


def test_availability_bounds_rejects_r1():
    with pytest.raises(ValueError):
        availability_shortening_bounds(10, 5, 3, 1)
