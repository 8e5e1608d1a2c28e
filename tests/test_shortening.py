import random
from collections import Counter
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listalg import ListMatrix, rref
from lrcav import cli, constructions, shortening
from lrcav.analysis import verify_availability
from lrcav.constructions import LinearCode, build_wzl
from lrcav.galois import BaseField
from lrcav.linalg import Matrix, RankTracker, nullspace
from lrcav.shortening import (LocalCheckSet, ShorteningResult,
                              build_shortening_set, closure,
                              enumerate_local_checks)


def test_local_checks_are_dual_words():
    code = build_wzl(3, 2)
    checks = enumerate_local_checks(code, 3)
    G = code.generator.to_lists()
    for h in checks.checks:
        h = checks.field.unpack(h, code.n)
        assert sum(1 for x in h if x) <= 4
        for g in G:
            assert sum(g[j] * h[j] for j in range(code.n)) % 2 == 0


def test_local_checks_include_parity_rows():
    code = build_wzl(2, 2)
    found = set(enumerate_local_checks(code, 2).checks)
    for row in code.parity.data:
        assert row in found


def test_local_checks_deduplicated():
    code = build_wzl(2, 3)
    checks = enumerate_local_checks(code, 2)
    assert len(set(checks.checks)) == len(checks.checks)


def test_local_checks_budget(monkeypatch):
    code = build_wzl(4, 2)
    monkeypatch.setattr(constructions, "WORK_BUDGET", 10)
    with pytest.raises(ValueError):
        enumerate_local_checks(code, 4)


def _count_nullspaces(monkeypatch):
    calls = []

    def counted(M):
        calls.append(M)
        return nullspace(M)

    # the span walk's one nullspace builds ``code.dual`` in constructions
    monkeypatch.setattr(shortening, "nullspace", counted)
    monkeypatch.setattr(constructions, "nullspace", counted)
    return calls


def _identity_parity(f, n):
    """The k = 0 code of length n: every word of GF(q)^n is a dual word."""
    return LinearCode.from_parity(Matrix.from_rows(
        f, [[int(i == j) for j in range(n)] for i in range(n)]))


def test_local_checks_budget_bounds_the_cheaper_walk(monkeypatch):
    # n = 6, r = 4: the span walk costs 2^6 = 64 words against the
    # per-support estimate C(6, 5) * 5^3 = 750, so one nullspace serves
    code = _identity_parity(BaseField(1), 6)
    calls = _count_nullspaces(monkeypatch)
    monkeypatch.setattr(constructions, "WORK_BUDGET", 64)
    assert len(enumerate_local_checks(code, 4).checks) == 62
    assert len(calls) == 1
    monkeypatch.setattr(constructions, "WORK_BUDGET", 63)
    with pytest.raises(ValueError, match="cost 64 exceeds budget 63"):
        enumerate_local_checks(code, 4)
    assert len(calls) == 1


def test_local_checks_budget_bounds_the_support_walk(monkeypatch):
    # GF(4), n = 4, r = 2: the span walk would cost 4^4 = 256, the
    # per-support estimate is C(4, 3) * 3^3 = 108, and each 3-support's
    # nullspace (all of GF(4)^3) adds its 21 projective points
    code = _identity_parity(BaseField(2), 4)
    calls = _count_nullspaces(monkeypatch)
    monkeypatch.setattr(constructions, "WORK_BUDGET", 108 + 4 * 21)
    assert len(enumerate_local_checks(code, 2).checks) == 58
    assert len(calls) == 4
    monkeypatch.setattr(constructions, "WORK_BUDGET", 108 + 4 * 21 - 1)
    with pytest.raises(ValueError, match="exceeds budget"):
        enumerate_local_checks(code, 2)


def test_high_redundancy_code_takes_the_support_walk(monkeypatch):
    # WZL(2, 6): n = 28, k = 7, so the span walk would cost 2^21 words
    # against C(28, 3) * 3^3 = 88,452 for one nullspace per 3-support
    code = build_wzl(2, 6)
    calls = _count_nullspaces(monkeypatch)
    checks = enumerate_local_checks(code, 2).checks
    assert len(calls) == comb(28, 3)
    assert set(code.parity.data) <= set(checks)


# parity rows 110001, 110110, 011010: the check 000111 is the sum of two
# words of a support's nullspace, and a basis of each nullspace misses it
SPAN_EXAMPLE = [[int(c) for c in row] for row in ("110001", "110110", "011010")]


def test_local_checks_walk_each_support_span():
    f = BaseField(1)
    code = LinearCode.from_parity(Matrix.from_rows(f, SPAN_EXAMPLE))
    assert code.k == 3
    assert f.pack((0, 0, 0, 1, 1, 1)) in enumerate_local_checks(code, 4).checks
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
    code = LinearCode.from_parity(Matrix.from_rows(f, parity, n))
    checks = enumerate_local_checks(code, r).checks
    assert len(set(checks)) == len(checks)
    assert set(checks) == {f.pack(h) for h in _dual_words(f, parity, n, r)}


def _assert_walks_agree(code, r):
    w = min(r + 1, code.n)
    assert shortening._span_checks(code, w) == shortening._support_checks(code, w, 0)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_span_walk_lists_the_support_walk_checks_in_order(data):
    w = data.draw(st.sampled_from([1, 2]), label="w")
    f = BaseField(w)
    n = data.draw(st.integers(1, 7), label="n")
    rows = data.draw(st.integers(0, 5 if w == 1 else 4), label="rows")
    parity = data.draw(st.lists(st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n),
                                min_size=rows, max_size=rows), label="parity")
    r = data.draw(st.integers(1, n), label="r")
    _assert_walks_agree(LinearCode.from_parity(Matrix.from_rows(f, parity, n)), r)


@pytest.mark.parametrize("r,t", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)])
def test_span_walk_lists_the_support_walk_checks_in_order_wzl(r, t):
    code = build_wzl(r, t)
    for rr in (r - 1, r, r + 1):
        _assert_walks_agree(code, rr)


def test_supports_match_checks():
    code = build_wzl(2, 2)
    checks = enumerate_local_checks(code, 2)
    for h, sup in zip(checks.checks, checks.supports()):
        h = checks.field.unpack(h, code.n)
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


def _closure_by_codewords(code, I):
    # coordinate j is determined by I iff every codeword vanishing on I
    # vanishes at j
    words = [code.field.unpack(w, code.n) for w in code.codewords()]
    vanish = [w for w in words if all(w[i] == 0 for i in I)]
    return set(I) | {j for j in range(code.n) if all(w[j] == 0 for w in vanish)}


def test_closure_brute_force_oracle():
    code = build_wzl(2, 2)
    for I in product([0, 1], repeat=code.n):
        Iset = [i for i, b in enumerate(I) if b]
        assert closure(code, Iset) == _closure_by_codewords(code, Iset)


def test_closure_brute_force_oracle_gf4():
    # generator columns packed 2 bits per coordinate: a GF(4) [6, 3] code
    f = BaseField(2)
    code = LinearCode.from_parity(Matrix.from_rows(
        f, [[1, 2, 0, 3, 1, 0], [0, 1, 1, 2, 0, 3], [3, 0, 2, 0, 0, 1]]))
    assert code.k == 3
    for I in product([0, 1], repeat=code.n):
        Iset = [i for i, b in enumerate(I) if b]
        assert closure(code, Iset) == _closure_by_codewords(code, Iset)


@pytest.mark.parametrize("r,t", [(2, 2), (3, 2), (2, 3), (4, 2)])
def test_shortening_set_invariants(r, t):
    code = build_wzl(r, t)
    per_s = build_shortening_set(enumerate_local_checks(code, r))
    assert len(per_s) == code.n - code.k
    for s, res in enumerate(per_s, 1):
        assert res.s == s
        assert len(res.I) <= 1 + (r - 1) * s
        cl = closure(code, res.I)
        assert cl >= set(res.J) | set(res.I)
        assert len(cl) >= min(1 + r * s, code.n)


def test_shortening_set_zero_overlap_counters():
    # the first pick closes the result for s = 1: counters stay zero
    code = build_wzl(2, 2)
    res = build_shortening_set(enumerate_local_checks(code, 2))[0]
    assert (res.s1, res.j, len(res.X)) == (0, 0, 1)


def test_shortening_set_needs_enough_checks():
    # the pass stops at the rank of the checks: one check gives s = 1 only
    code = build_wzl(2, 2)
    checks = enumerate_local_checks(code, 2)
    one = LocalCheckSet(checks.field, checks.n, checks.r, checks.dual_dim, checks.checks[:1])
    assert [res.s for res in build_shortening_set(one)] == [1]
    none = LocalCheckSet(checks.field, checks.n, checks.r, checks.dual_dim, [])
    with pytest.raises(ValueError, match="no local checks available"):
        build_shortening_set(none)


def _greedy_rref_oracle(checks, s):
    """The shortening set for one s, from a greedy pass that runs the list
    rref on the picked checks after every overlapping pick and for the pivots."""
    n, r = checks.n, checks.r

    def rref_of(X):
        return rref(ListMatrix.from_rows(checks.field,
                                         [checks.field.unpack(h, n) for h in X], n))

    remaining = list(range(len(checks.checks)))
    supports = checks.supports()
    first = remaining.pop(0)
    X = [checks.checks[first]]
    J = set(supports[first])
    x_rank, l, i, s1, j_rec, recorded = 1, 1, 1, 0, 0, False
    while i < s:
        if not remaining:
            return None
        best = max(remaining, key=lambda idx: (len(J & set(supports[idx])), -idx))
        overlap = len(J & set(supports[best]))
        remaining.remove(best)
        X.append(checks.checks[best])
        J |= set(supports[best])
        if overlap == 0:
            if not recorded:
                j_rec, s1, recorded = l, i, True
            x_rank += 1
            i += 1
        else:
            new_rank = rref_of(X)[1]
            if new_rank > x_rank:
                x_rank = new_rank
                i += 1
        l += 1
    _, rk, pivots = rref_of(X)
    assert rk == s
    I = sorted(J - set(pivots))
    target = 1 + (r - 1) * s
    if len(I) < target:
        fresh = [c for c in range(n) if c not in J]
        fallback = [c for c in range(n) if c in J and c not in I]
        for c in fresh + fallback:
            if len(I) >= target:
                break
            I.append(c)
        I.sort()
    return ShorteningResult(X=list(X), I=I, J=sorted(J), s=s, s1=s1, j=j_rec)


def _greedy_scan_oracle(checks):
    """Every result of the greedy pass, each pick a ``max`` of (overlap
    with J, -index) over all remaining checks and a ``list.remove``."""
    f, n, r = checks.field, checks.n, checks.r
    full = RankTracker(f)
    for h in checks.checks:
        full.add(h)
    supports = [set(sup) for sup in checks.supports()]
    remaining = list(range(len(checks.checks)))
    tracker = RankTracker(f)
    X, J = [], set()
    s1 = j_rec = 0
    results = []
    while tracker.rank < full.rank:
        best = max(remaining, key=lambda idx: (len(J & supports[idx]), -idx))
        remaining.remove(best)
        if J and not s1 and not J & supports[best]:
            s1, j_rec = tracker.rank, len(X)
        X.append(checks.checks[best])
        J |= supports[best]
        if not tracker.add(checks.checks[best]):
            continue
        s = tracker.rank
        pivots = sorted(tracker.basis)
        I = sorted(J.difference(pivots))
        pad = 1 + (r - 1) * s - len(I)
        if pad > 0:
            fresh = [c for c in range(n) if c not in J]
            I = sorted(I + (fresh + pivots)[:pad])
        results.append(ShorteningResult(X=list(X), I=I, J=sorted(J), s=s,
                                        s1=s1, j=j_rec))
    return results


def test_shortening_set_matches_the_scan_on_a_dense_gf256_code(tmp_path, monkeypatch):
    # the [5,1] code over GF(256) spanned by (1, 2, 3, 7, 200), loaded from a
    # raw artifact: once J covers all 5 coordinates every check ties on
    # overlap, and dependent checks are picked one by one until the rank rises
    spanned = LinearCode.from_parity(Matrix.from_rows(BaseField(8), [[1, 2, 3, 7, 200]], 5)).dual
    path = tmp_path / "raw.json"
    cli.save_artifact(cli.to_artifact(spanned, "raw", 2, 1, {}), str(path))
    _, code = cli.load_artifact(str(path))
    checks = enumerate_local_checks(code, 2)
    assert (code.k, checks.dual_dim, len(checks.checks)) == (1, 4, 2550)
    adds = Counter()  # per tracker

    class CountingTracker(RankTracker):
        def add(self, v):
            adds[id(self)] += 1
            return super().add(v)

    monkeypatch.setattr(shortening, "RankTracker", CountingTracker)
    results = build_shortening_set(checks)
    assert [len(res.X) for res in results] == [1, 2, 258, 1022]
    # the up-front rank stops at n - k = 4, after 514 of the 2,550 checks;
    # the pass adds each of its 1,022 picks
    assert sorted(adds.values()) == [514, 1022]
    assert results == _greedy_scan_oracle(checks)


def _assert_matches_greedy_oracle(code, r):
    checks = enumerate_local_checks(code, r)
    if not checks.checks:
        with pytest.raises(ValueError, match="no local checks available"):
            build_shortening_set(checks)
        return
    expect = []
    for s in range(1, code.n + 1):
        res = _greedy_rref_oracle(checks, s)
        if res is None:
            break
        expect.append(res)
    assert build_shortening_set(checks) == expect == _greedy_scan_oracle(checks)


@pytest.mark.parametrize("r,t", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)])
def test_shortening_set_matches_greedy_rref_oracle(r, t):
    code = build_wzl(r, t)
    for rr in sorted({1, 2, r - 1, r, r + 1}):
        _assert_matches_greedy_oracle(code, rr)


@pytest.mark.parametrize("w", [1, 2])
def test_shortening_set_matches_greedy_rref_oracle_random(w):
    # seeded random codes over GF(2) and GF(4) with n <= 8; at most 5
    # (GF(2)) or 4 (GF(4)) parity rows keep the dual, and so the checks, small
    f = BaseField(w)
    rng = random.Random(w)
    for _ in range(200):
        n = rng.randrange(2, 9)
        parity = [[rng.randrange(f.q) for _ in range(n)]
                  for _ in range(rng.randrange(1, min(n, 6 if w == 1 else 5)))]
        code = LinearCode.from_parity(Matrix.from_rows(f, parity, n))
        _assert_matches_greedy_oracle(code, rng.randrange(1, n))
