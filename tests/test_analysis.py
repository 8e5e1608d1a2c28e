import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shuffle_reference
from lrcav import analysis, constructions
from lrcav.analysis import (ErasureTrialStats, concatenated_dimension, erasure_correctable,
                            erasure_monte_carlo, erasure_trials, macwilliams_transform,
                            min_distance, partial_block_rank_bound,
                            verify_availability, weight_distribution)
from lrcav.constructions import (LinearCode, assemble_concatenated,
                                 assemble_expander_code, build_expander_parity,
                                 build_wzl, composite_erasure_decode, encode_composite,
                                 sample_biregular, survivor_rank)
from lrcav.galois import BaseField, FieldTower
from lrcav.linalg import Matrix, rank_over_base, rref


def repetition_code(n):
    f = BaseField(1)
    rows = [[1 if j in (0, i) else 0 for j in range(n)] for i in range(1, n)]
    return LinearCode.from_parity(Matrix.from_rows(f, rows, n))


def test_min_distance_repetition():
    code = repetition_code(5)
    assert (code.k, min_distance(code)) == (1, 5)


def test_min_distance_wzl():
    assert min_distance(build_wzl(2, 2)) == 3
    assert min_distance(build_wzl(2, 3)) == 4


def test_min_distance_budget_and_zero_code(monkeypatch):
    # the budget is charged q^min(k, n-k), the words of the cheaper walk
    dual_walk = build_wzl(4, 2)  # k = 10 > n - k = 5
    code_walk = build_wzl(2, 4)  # k = 5 < n - k = 10
    monkeypatch.setattr(constructions, "WORK_BUDGET", 2**4)
    for code in (dual_walk, code_walk):
        with pytest.raises(ValueError, match="exceeds the budget"):
            min_distance(code)
    monkeypatch.setattr(constructions, "WORK_BUDGET", 2**5)
    assert min_distance(dual_walk) == 3
    assert min_distance(code_walk) == 5
    f = BaseField(1)
    zero = LinearCode.from_parity(Matrix.from_rows(f, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(ValueError):
        min_distance(zero)
    whole = LinearCode.from_parity(Matrix(f, 0, 3, []))  # k = n
    monkeypatch.setattr(constructions, "WORK_BUDGET", 1)
    assert (whole.k, min_distance(whole)) == (3, 1)


def _walk_counts(code):
    counts = Counter(map(code.field.weight, code.codewords()))
    return [counts[j] for j in range(code.n + 1)]


def _both_walks(code):
    """(the code's own walk, the MacWilliams transform of its dual's walk)."""
    dual = LinearCode.from_parity(code.generator)
    return (_walk_counts(code),
            macwilliams_transform(_walk_counts(dual), code.field.q, dual.k))


@pytest.mark.parametrize("r,t", [(3, 2), (4, 2), (3, 3), (5, 2), (2, 4)])
def test_both_walks_give_the_same_distribution_wzl(r, t):
    code = build_wzl(r, t)
    own, transformed = _both_walks(code)
    assert own == transformed == weight_distribution(code)
    assert sum(own) == 2**code.k


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_both_walks_give_the_same_distribution(data):
    f = BaseField(data.draw(st.sampled_from([1, 2]), label="w"))
    # both walks together cost q^k + q^(n-k) words
    n = data.draw(st.integers(1, 12 if f.w == 1 else 8), label="n")
    rows = data.draw(st.lists(st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n),
                              max_size=n), label="parity")
    code = LinearCode.from_parity(Matrix.from_rows(f, rows, n))
    own, transformed = _both_walks(code)
    assert own == transformed == weight_distribution(code)


@pytest.mark.parametrize("r,t", [(3, 2), (3, 3), (2, 4)])
def test_transform_of_the_code_is_the_dual(r, t):
    code = build_wzl(r, t)
    dual = LinearCode.from_parity(code.generator)
    assert macwilliams_transform(_walk_counts(code), 2, code.k) == _walk_counts(dual)


@pytest.mark.parametrize("r,t", [(6, 2), (7, 2), (4, 3), (5, 3)])
def test_min_distance_is_t_plus_one_on_large_wzl(r, t):
    code = build_wzl(r, t)
    assert code.k > code.n - code.k  # walked through the dual
    assert min_distance(code) == t + 1


def test_verify_availability_wzl():
    for r, t in [(2, 2), (3, 2), (2, 3)]:
        rep = verify_availability(build_wzl(r, t), r, t)
        assert rep.ok and not rep.failed_coordinates
        for i, sets in rep.recovering_sets.items():
            assert len(sets) == t
            assert all(len(s) <= r for s in sets)
            assert all(i not in s for s in sets)
            for a, b in combinations(sets, 2):
                assert not (a & b)


def test_verify_availability_fails_beyond_t():
    rep = verify_availability(build_wzl(2, 2), 2, 3)
    assert not rep.ok
    assert rep.failed_coordinates == list(range(6))


def test_recovering_sets_actually_recover():
    # each set's check must express coordinate i from the set's members
    code = build_wzl(3, 2)
    rep = verify_availability(code, 3, 2)
    words = [code.field.unpack(w, code.n) for w in code.codewords()]
    for i, sets in rep.recovering_sets.items():
        for s in sets:
            # values on s determine the value at i across all codewords
            seen = {}
            for w in words:
                key = tuple(w[j] for j in sorted(s))
                assert seen.setdefault(key, w[i]) == w[i]


def test_erasure_correctable_repetition():
    code = repetition_code(4)
    assert erasure_correctable(code, [0, 1, 2])
    assert not erasure_correctable(code, [0, 1, 2, 3])
    assert erasure_correctable(code, [])
    # a coordinate outside the code is an error, not an empty parity column
    for bad in ([4], [0, -1]):
        with pytest.raises(ValueError, match="erased coordinates"):
            erasure_correctable(code, bad)


def test_erasure_correctable_matches_distance():
    code = build_wzl(2, 2)
    d = min_distance(code)
    # every pattern of d-1 erasures is correctable; some d-pattern is not
    assert all(erasure_correctable(code, p)
               for p in combinations(range(code.n), d - 1))
    assert not all(erasure_correctable(code, p)
                   for p in combinations(range(code.n), d))


def _sampled_successes(code, e, trials, seed):
    rng = random.Random(seed)
    return sum(erasure_correctable(code, rng.sample(range(code.n), e)) for _ in range(trials))


def test_erasure_trials_takes_a_given_distance_and_keeps_the_budget(monkeypatch):
    code = build_wzl(3, 3)  # d = 4; k = n - k = 10, a 2^10-word walk

    def no_walk(*args, **kwargs):
        raise AssertionError("the distance was walked")

    monkeypatch.setattr(analysis, "min_distance", no_walk)
    # a known d is reused: proven below it, drawn at it
    assert erasure_trials(code, 3, 100, 1, distance=4) == 100
    assert erasure_trials(code, 4, 100, 1, distance=4) == _sampled_successes(code, 4, 100, 1)
    # 1,600 words at 100 trials, but past a 2^4 budget: drawn
    monkeypatch.setattr(constructions, "WORK_BUDGET", 2**4)
    assert erasure_trials(code, 3, 100, 1) == 100
    for e in (-1, code.n + 1):
        with pytest.raises(ValueError, match="need 0 <= e <= n"):
            erasure_trials(code, e, 100, 1)
    # no trial is no count, as in erasure_monte_carlo, even where every
    # pattern would be proven correctable
    for trials in (0, -5):
        with pytest.raises(ValueError, match="need trials >= 1"):
            erasure_trials(code, 2, trials, 1)


def test_erasure_patterns_draw_as_random_sample():
    assert shuffle_reference.mismatches("samples", shuffle_reference.SAMPLE_CASES) == []


def _masked_parity_rank_correctable(code, erased):
    """The rref rank of the parity masked to the erased coordinates is |E|."""
    f, H, erased = code.field, code.parity, set(erased)
    mask = sum((f.q - 1) << (j * f.w) for j in erased)
    return rref(Matrix(f, H.rows, H.cols, [row & mask for row in H.data]))[1] == len(erased)


def test_erasure_correctable_matches_the_masked_parity_rank():
    # exhaustively up to d + 1 erasures, where both verdicts occur
    for r, t in [(2, 2), (3, 2)]:
        code = build_wzl(r, t)
        for e in range(t + 3):
            for erased in combinations(range(code.n), e):
                assert erasure_correctable(code, erased) == \
                    _masked_parity_rank_correctable(code, erased)
    # seeded patterns over GF(16) (an expander parity) and GF(4) (a raw parity),
    # with repeated indices, which count once
    g = sample_biregular(14, 3, 7, seed=7, min_girth=4)
    f4, rng = BaseField(2), random.Random(5)
    raw = [[rng.randrange(f4.q) for _ in range(9)] for _ in range(4)]
    for code in (LinearCode.from_parity(build_expander_parity(g, BaseField(4), seed=7)),
                 LinearCode.from_parity(Matrix.from_rows(f4, raw, 9))):
        verdicts = set()
        for _ in range(300):
            erased = [rng.randrange(code.n) for _ in range(rng.randrange(code.n - code.k + 3))]
            ok = erasure_correctable(code, erased)
            assert ok == _masked_parity_rank_correctable(code, erased)
            assert ok == erasure_correctable(code, sorted(set(erased)))
            verdicts.add(ok)
        assert verdicts == {True, False}
        assert erasure_correctable(code, [])
        assert erasure_correctable(code, [0, 0, 0]) == erasure_correctable(code, [0])


def test_partial_block_rank_bound():
    assert partial_block_rank_bound(0, 3, 2) == 0
    assert partial_block_rank_bound(2, 3, 2) == 2
    # beyond t: max(ceil((1 - rate_cap(r-1, t)) e), t) = max(ceil(7e/15), t)
    assert partial_block_rank_bound(3, 3, 2) == 2
    assert partial_block_rank_bound(9, 3, 2) == 5
    with pytest.raises(ValueError):
        partial_block_rank_bound(2, 1, 2)


def test_concatenated_dimension_known_value():
    assert concatenated_dimension(30, 15, 3, 2) == 9


def test_concatenated_dimension_guards():
    with pytest.raises(ValueError):
        concatenated_dimension(31, 15, 3, 2)
    with pytest.raises(ValueError):
        concatenated_dimension(30, 0, 3, 2)


def concat_code():
    tower = FieldTower(BaseField(1), 18, seed=0)
    return assemble_concatenated(tower, 3, 2, blocks=3, k=9)


def test_monte_carlo_within_distance_always_succeeds():
    code = concat_code()
    stats = erasure_monte_carlo(code, 14, trials=200, seed=1)
    assert stats.successes == stats.trials == 200
    assert stats.success_rate == 1.0
    assert stats.min_survivor_rank >= code.k
    assert stats.adversarial_success is True


def test_monte_carlo_deterministic():
    code = concat_code()
    a = erasure_monte_carlo(code, 16, trials=50, seed=3)
    b = erasure_monte_carlo(code, 16, trials=50, seed=3)
    assert (a.successes, a.min_survivor_rank) == (b.successes, b.min_survivor_rank)


def test_monte_carlo_rank_criterion_matches_decoder(monkeypatch):
    # force a full decode on every trial and compare with rank-only runs
    code = concat_code()
    monkeypatch.setattr(analysis, "FULL_DECODE_EVERY", 1)
    full = erasure_monte_carlo(code, 20, trials=40, seed=5)
    monkeypatch.setattr(analysis, "FULL_DECODE_EVERY", 10**9)
    ranks = erasure_monte_carlo(code, 20, trials=40, seed=5)
    # decode consumes rng state, so the patterns differ after the first
    # failure; compare each against the rank invariant instead
    assert full.successes <= full.trials
    for stats in (full, ranks):
        if stats.min_survivor_rank >= code.k and stats.adversarial_success:
            assert stats.successes == stats.trials


def readme_expander():
    # lrcav construct expander --n 14 --r 6 --t 3 --w 4 --k 4 --min-girth 4 --seed 7
    g = sample_biregular(14, 3, 7, seed=7, min_girth=4)
    parity = build_expander_parity(g, BaseField(4), seed=8)
    return assemble_expander_code(FieldTower(BaseField(4), 8), parity, k=4)


def test_monte_carlo_guards():
    code = concat_code()
    with pytest.raises(ValueError):
        erasure_monte_carlo(code, code.n, trials=5, seed=0)
    # with no trial there is no measured survivor rank to report
    for composite in (code, readme_expander()):
        for trials in (0, -1):
            with pytest.raises(ValueError, match="need trials >= 1"):
                erasure_monte_carlo(composite, 2, trials=trials, seed=0)


def small_concat():
    return assemble_concatenated(FieldTower(BaseField(1), 6), 2, 2, blocks=2, k=3)


def small_expander(w):
    g = sample_biregular(10, 2, 5, seed=1, min_girth=4)
    parity = build_expander_parity(g, BaseField(w), seed=2)
    return assemble_expander_code(FieldTower(BaseField(w), 6), parity, k=3)


def _stdlib_monte_carlo(code, e, trials, seed):
    """``erasure_monte_carlo``'s loop with the stdlib draws it restates: each
    pattern is ``rng.sample(range(n), e)`` and each message coordinate
    ``rng.randrange(q)``, lowest first."""
    rng = random.Random(seed)
    tower = code.tower

    def trial(erased, full_decode):
        erased = set(erased)
        survivors = [j for j in range(code.n) if j not in erased]
        rank = survivor_rank(code, survivors)
        if not full_decode:
            return rank >= code.k, rank
        message = [tower.base.pack([rng.randrange(tower.base.q) for _ in range(tower.m)])
                   for _ in range(code.k)]
        cw = encode_composite(code, message)
        return composite_erasure_decode(code, [(j, cw[j]) for j in survivors]) == message, rank

    successes, min_rank = 0, code.n
    for i in range(trials):
        ok, rank = trial(rng.sample(range(code.n), e), i % analysis.FULL_DECODE_EVERY == 0)
        successes += ok
        min_rank = min(min_rank, rank)
    stats = ErasureTrialStats(trials, successes, min_rank, seed)
    if code.blocks is not None:
        ok, rank = trial(list(range(e)), True)
        stats.adversarial_success = ok
        stats.min_survivor_rank = min(min_rank, rank)
    return stats


@pytest.mark.parametrize("build", [concat_code, readme_expander, small_concat,
                                   lambda: small_expander(2), lambda: small_expander(8)],
                         ids=["bench_concat", "bench_expander", "small_concat",
                              "small_expander_gf4", "small_expander_gf256"])
def test_monte_carlo_draws_as_the_stdlib_loop(build):
    # the bench's verify artifacts (the README's) and small composites over
    # GF(2), GF(4), GF(16) and GF(256): e from one erasure to n - 1, so
    # trials succeed and fail, full decodes included
    code = build()
    verdicts = set()
    for e in sorted({1, code.n // 3, code.n // 2, code.n - code.k, code.n - 1}):
        for seed in range(6):
            stats = erasure_monte_carlo(code, e, trials=60, seed=seed)
            assert stats == _stdlib_monte_carlo(code, e, 60, seed)
            verdicts.add(stats.successes == stats.trials)
    assert verdicts == {True, False}


@pytest.mark.parametrize("build,erasures", [(concat_code, (17, 18, 20)),
                                            (readme_expander, (10, 11, 12))],
                         ids=["readme_concat", "readme_expander"])
def test_monte_carlo_statistics_past_the_distance_match_a_reference_rank(
        monkeypatch, build, erasures):
    # exact d is 18 (concat) and 11 (expander), so some of these trials
    # fail; a rank draws nothing from the rng, so both runs see the same
    # patterns and decode the same trials
    code = build()
    runs = {}
    for name in ("survivor_rank", "reference"):
        if name == "reference":
            monkeypatch.setattr(analysis, "survivor_rank", lambda code, indices: rank_over_base(
                code.tower, [code.beta[j] for j in indices]))
        runs[name] = [erasure_monte_carlo(code, e, trials=200, seed=seed)
                      for e in erasures for seed in (1, 2, 3)]
    assert runs["survivor_rank"] == runs["reference"]
    assert any(stats.successes < stats.trials for stats in runs["reference"])
