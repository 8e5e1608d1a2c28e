import hashlib
import json
import logging
import os
import random
import subprocess
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interpreters
import listalg
import shuffle_reference
from listalg import ListMatrix
from lrcav import constructions
from lrcav.analysis import min_distance, verify_availability
from lrcav.constructions import (BipartiteGraph, CompositeCode, LinearCode,
                                 _has_girth, assemble_concatenated,
                                 assemble_expander_code, build_expander_parity,
                                 build_wzl, check_expansion,
                                 composite_erasure_decode, encode_composite,
                                 sample_biregular, select_independent_survivors,
                                 survivor_rank)
from lrcav.gabidulin import gab_encode
from lrcav.galois import BaseField, FieldTower
from lrcav.linalg import Matrix, rank_over_base, rref


@pytest.mark.parametrize("r,t,n,k,d", [
    (2, 2, 6, 3, 3),
    (3, 2, 10, 6, 3),
    (2, 3, 10, 4, 4),
    (4, 2, 15, 10, 3),
])
def test_wzl_parameters(r, t, n, k, d):
    code = build_wzl(r, t)
    assert code.n == comb(r + t, t)
    assert (code.n, code.k) == (n, k)
    assert min_distance(code) == d
    assert verify_availability(code, r, t).ok


def test_wzl_dimension_formula():
    for r in range(1, 5):
        for t in range(1, 4):
            code = build_wzl(r, t)
            assert code.k * (r + t) == code.n * r


def test_wzl_rejects_bad_params():
    with pytest.raises(ValueError):
        build_wzl(0, 2)
    with pytest.raises(ValueError):
        build_wzl(40, 40)


def test_wzl_every_parity_row_has_weight_rp1():
    code = build_wzl(3, 2)
    for row in code.parity.to_lists():
        assert sum(row) == 4


def test_sample_biregular_degrees():
    g = sample_biregular(12, 2, 3, seed=0)
    assert g.n_left == 12 and g.n_right == 8
    assert all(len(a) == 2 for a in g.adj)
    right = g.right_adjacency()
    assert all(len(a) == 3 for a in right)
    assert _has_girth(g.adj, 6)


def _configuration_graph(rng):
    """One configuration-model sample, not rejected: parallel edges and
    4-cycles are kept."""
    t, rp1 = rng.randrange(1, 4), rng.randrange(2, 5)
    n = rp1 * rng.randrange(1, 4)
    n_right = n * t // rp1
    right_stubs = [c for c in range(n_right) for _ in range(rp1)]
    rng.shuffle(right_stubs)
    return BipartiteGraph(n_right, [sorted(right_stubs[v * t:(v + 1) * t])
                                    for v in range(n)])


def _simple_brute_force(g):
    return not any(nbrs.count(c) > 1 for nbrs in g.adj for c in nbrs)


def _girth_gt4_brute_force(g):
    if not _simple_brute_force(g):
        return False
    return all(sum(c in g.adj[u] and c in g.adj[v] for c in range(g.n_right)) < 2
               for u, v in combinations(range(g.n_left), 2))


def test_is_simple_girth_gt4_matches_brute_force():
    rng = random.Random(41)
    verdicts, repeated = [], 0
    for _ in range(300):
        g = _configuration_graph(rng)
        verdicts.append(_has_girth(g.adj, 6))
        assert verdicts[-1] == _girth_gt4_brute_force(g)
        simple = _has_girth(g.adj, 4)
        assert simple == _simple_brute_force(g)
        repeated += not simple
    assert repeated and any(verdicts) and not all(verdicts)


def test_sample_biregular_relaxed_girth(monkeypatch):
    # (t, r+1) = (3, 7) at n = 14: every left pair budget exceeds the
    # number of distinct right pairs, so girth > 4 is unachievable and
    # only the simple-graph relaxation can succeed.
    with monkeypatch.context() as patch:
        patch.setattr(constructions, "SAMPLE_TRIES", 50)
        with pytest.raises(ValueError):
            sample_biregular(14, 3, 7, seed=7, min_girth=6)
    g = sample_biregular(14, 3, 7, seed=7, min_girth=4)
    assert _has_girth(g.adj, 4)
    assert all(len(a) == 3 for a in g.adj)
    assert all(len(a) == 7 for a in g.right_adjacency())


def test_sample_biregular_divisibility():
    with pytest.raises(ValueError):
        sample_biregular(10, 3, 7, seed=0)


def test_sample_biregular_deterministic():
    a = sample_biregular(12, 2, 3, seed=5)
    b = sample_biregular(12, 2, 3, seed=5)
    assert a.adj == b.adj


@pytest.mark.parametrize("n", [0, -5])
def test_sample_biregular_rejects_n_below_one(n):
    with pytest.raises(ValueError, match=r"^need n >= 1$"):
        sample_biregular(n, 2, 5, seed=1)


# Samples recorded from the sampler that built and checked the whole graph
# for every try: rejecting a try at its first offending vertex must leave
# every draw, and so every accepted graph, as it was.
PINNED_GRAPHS = {
    # decode bench, girth 6: n = 20, t = 2, r+1 = 5 over GF(256)
    (20, 2, 5, 3, 6): [[2, 5], [5, 6], [3, 7], [1, 5], [3, 4], [1, 3], [0, 2], [1, 6],
                       [2, 3], [0, 4], [2, 4], [4, 6], [5, 7], [6, 7], [0, 1], [2, 6],
                       [4, 5], [0, 7], [1, 7], [0, 3]],
    # decode bench and the verify bench's expander artifact: n = 14, t = 3, r+1 = 7
    (14, 3, 7, 7, 4): [[1, 2, 4], [0, 1, 3], [0, 4, 5], [0, 3, 5], [2, 3, 4], [2, 3, 5],
                       [2, 3, 4], [0, 1, 3], [1, 3, 5], [0, 1, 4], [1, 2, 4], [2, 4, 5],
                       [0, 1, 5], [0, 2, 5]],
}

# sha256 of repr([adjacency for seed in range(20)]) per (n, t, r+1, min_girth)
PINNED_SWEEPS = {
    (12, 2, 3, 6): "d8768681d989c2879514ec36abb0423ac99370f902149d0fcd1d4e42e51e20f0",
    (12, 2, 4, 6): "c4bf2a6ec1b5ec5a9e42790279c898d7a56fc43c3969442b59838b5a2a1e9d3d",
    (16, 3, 6, 4): "56f2a1c97333834a029773f3ccae6ac66b5d18a53095340227462f52d92731bf",
}


@pytest.mark.parametrize("n,t,rp1,seed,girth", sorted(PINNED_GRAPHS))
def test_sample_biregular_keeps_the_bench_graphs(n, t, rp1, seed, girth):
    g = sample_biregular(n, t, rp1, seed=seed, min_girth=girth)
    assert g.adj == PINNED_GRAPHS[n, t, rp1, seed, girth]


@pytest.mark.parametrize("n,t,rp1,girth", sorted(PINNED_SWEEPS))
def test_sample_biregular_keeps_its_draws_over_a_seed_sweep(n, t, rp1, girth):
    adjs = [sample_biregular(n, t, rp1, seed=seed, min_girth=girth).adj
            for seed in range(20)]
    assert hashlib.sha256(repr(adjs).encode()).hexdigest() == PINNED_SWEEPS[n, t, rp1, girth]


@pytest.mark.parametrize("seed,max_tries", [(0, 10**4), (1, 10**4), (2, 7)])
def test_sample_biregular_failure_message(monkeypatch, seed, max_tries):
    # 18 left vertices need 18 distinct right pairs, and 6 rights have 15:
    # no try can pass
    monkeypatch.setattr(constructions, "SAMPLE_TRIES", max_tries)
    with pytest.raises(ValueError) as exc:
        sample_biregular(18, 2, 6, seed=seed, min_girth=6)
    assert str(exc.value) == (f"no girth>=6 simple sample in {max_tries} tries; "
                              "parameters too dense")


def test_sample_biregular_logs_its_rejections(caplog):
    with caplog.at_level(logging.DEBUG, logger="lrcav.constructions"):
        sample_biregular(20, 2, 5, seed=3, min_girth=6)
    assert [r.getMessage() for r in caplog.records] == [
        "sample_biregular(n=20, t=2, r+1=5): rejected 3969 samples"]


# every PINNED_GRAPHS and PINNED_SWEEPS draw, and the girth-6 decode bench
# graph one try short of the one it accepts, so that it runs out of tries
SHUFFLE_CASES = ([[*key, constructions.SAMPLE_TRIES] for key in sorted(PINNED_GRAPHS)]
                 + [[n, t, rp1, seed, girth, constructions.SAMPLE_TRIES]
                    for n, t, rp1, girth in sorted(PINNED_SWEEPS) for seed in range(20)]
                 + [[20, 2, 5, 3, 6, 3969]])


def test_sample_biregular_draws_as_random_shuffle():
    assert shuffle_reference.reference(20, 2, 5, 3, 6, 3969) is None
    assert shuffle_reference.mismatches("shuffles", SHUFFLE_CASES) == []


@pytest.mark.parametrize("python", interpreters.PYTHONS)
def test_draws_match_the_stdlib_under(python):
    # the graph sampler, the erasure patterns and the tower elements restate
    # CPython's private _randbelow_with_getrandbits, so every supported
    # interpreter found must draw as its random module does
    exe = interpreters.runnable(python)
    if exe is None:
        pytest.skip(f"no runnable {python} on PATH or under pyenv")
    tests = Path(__file__).resolve().parent
    cases = {"shuffles": SHUFFLE_CASES, "samples": shuffle_reference.SAMPLE_CASES,
             "elements": shuffle_reference.ELEMENT_CASES}
    out = subprocess.run([exe, str(tests / "shuffle_reference.py")],
                         input=json.dumps(cases), capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(tests.parent / "src")),
                         check=True)
    assert json.loads(out.stdout) == {kind: [] for kind in cases}


def test_check_expansion_complete_bipartite():
    # K_{2,3} as a 3-regular-left graph: every single vertex has all 3
    # neighbours, so expansion holds at gamma just under 1 for size 1.
    g = BipartiteGraph(3, [[0, 1, 2], [0, 1, 2]])
    assert check_expansion(g, 0.5, 0.9)
    assert not check_expansion(g, 1.0, 0.9)  # both vertices share all rights


def test_check_expansion_budget():
    g = BipartiteGraph(40, [[0, 1] for _ in range(60)])
    with pytest.raises(ValueError):
        check_expansion(g, 0.9, 0.5)


def test_check_expansion_refuses_a_walk_past_the_budget_before_it_starts(monkeypatch):
    # 100 left vertices at alpha = 0.2: subsets of size <= 20, about
    # 7.1e20 of them, a walk that never ends; refused before any is built
    g = BipartiteGraph(50, [[v % 50, (v + 1) % 50] for v in range(100)])
    small = BipartiteGraph(6, [[v % 6, (v + 1) % 6] for v in range(12)])
    with monkeypatch.context() as patch:
        patch.setattr(constructions, "combinations", lambda *args: pytest.fail("walked"))
        with pytest.raises(ValueError, match="exceeds the exhaustive-check budget"):
            check_expansion(g, 0.2, 0.5)
        # the subset count is charged, not the size: the 2^12 - 1
        # nonempty subsets of 12 vertices against one step fewer
        patch.setattr(constructions, "WORK_BUDGET", 2**12 - 2)
        with pytest.raises(ValueError, match="exceeds the exhaustive-check budget"):
            check_expansion(small, 1.0, 0.0)
    monkeypatch.setattr(constructions, "WORK_BUDGET", 2**12 - 1)
    assert check_expansion(small, 1.0, 0.0)


def expander_code(seed=7):
    g = sample_biregular(14, 3, 7, seed=seed, min_girth=4)
    base = __import__("lrcav.galois", fromlist=["BaseField"]).BaseField(4)
    parity = build_expander_parity(g, base, seed=seed)
    n_g = 14 - rref(parity)[1]
    tower = FieldTower(BaseField(4), n_g, seed=1)
    return assemble_expander_code(tower, parity, k=4), parity


def test_expander_parity_shape_and_weights():
    g = sample_biregular(14, 3, 7, seed=7, min_girth=4)
    base = __import__("lrcav.galois", fromlist=["BaseField"]).BaseField(4)
    parity = build_expander_parity(g, base, seed=7)
    assert (parity.rows, parity.cols) == (6, 14)
    for row in parity.to_lists():
        assert sum(1 for x in row if x) == 7


def test_expander_codeword_satisfies_parity():
    code, parity = expander_code()
    tower = code.tower
    rng = random.Random(3)
    msg = [tower.rand(rng) for _ in range(code.k)]
    cw = encode_composite(code, msg)
    # every parity row must annihilate the codeword coefficient-wise
    for row in parity.to_lists():
        acc = tower.zero
        for lam, c in zip(row, cw):
            if lam:
                acc ^= tower.base.scalar_mul(lam, c)
        assert acc == tower.zero


def test_expander_erasure_roundtrip():
    code, _ = expander_code()
    tower = code.tower
    rng = random.Random(11)
    for _ in range(25):
        msg = [tower.rand(rng) for _ in range(code.k)]
        cw = encode_composite(code, msg)
        erased = set(rng.sample(range(code.n), 8))
        received = [(j, cw[j]) for j in range(code.n) if j not in erased]
        got = composite_erasure_decode(code, received)
        assert got == msg


def test_decode_fails_below_rank():
    code, _ = expander_code()
    tower = code.tower
    msg = [tower.rand(random.Random(1)) for _ in range(code.k)]
    cw = encode_composite(code, msg)
    # find a survivor set with rank < k by keeping scalar multiples only
    for size in range(code.k - 1, code.n):
        for sub in combinations(range(code.n), min(size, code.k - 1)):
            if survivor_rank(code, sub) < code.k:
                got = composite_erasure_decode(code, [(j, cw[j]) for j in sub])
                assert got is None
                return
    pytest.fail("no deficient survivor set found")


def test_decode_rejects_duplicates():
    code, _ = expander_code()
    tower = code.tower
    with pytest.raises(ValueError):
        composite_erasure_decode(code, [(0, tower.zero), (0, tower.zero)])


def test_decode_rejects_indices_outside_the_code():
    # a negative index would alias coordinate n + j; one at n or above
    # used to pass unless the greedy reached it
    code = concat_code()
    tower = code.tower
    msg = [tower.rand(random.Random(14)) for _ in range(code.k)]
    cw = encode_composite(code, msg)
    received = [(j, cw[j]) for j in range(code.n)]
    relabelled = received[:-1] + [(-1, cw[-1])]
    shifted = [(j - code.n, y) for j, y in received]
    for bad in (relabelled, shifted):
        with pytest.raises(ValueError, match=r"must lie in \[0, n\)"):
            composite_erasure_decode(code, bad)
    for j in (code.n, code.n + 5):
        with pytest.raises(ValueError, match=r"must lie in \[0, n\)"):
            composite_erasure_decode(code, received + [(j, tower.zero)])
    assert composite_erasure_decode(code, received) == msg


def test_encode_length_mismatch():
    code, _ = expander_code()
    for length in (code.k - 1, code.k + 1):
        with pytest.raises(ValueError, match=f"^message must have {code.k} symbols$"):
            encode_composite(code, [code.tower.one] * length)


@pytest.mark.parametrize("build", [lambda: concat_code(), lambda: readme_expander()],
                         ids=["readme_concat", "readme_expander"])
def test_encode_rejects_symbols_outside_the_field(build):
    # -1, 2^(m*w) and wider ints are no field elements: refused before the
    # row sum walks their bits, at the first, a middle and the last symbol
    code = build()
    top = code.tower.m * code.tower.base.w
    for bad in (-1, 1 << top, 1 << top + 40):
        for position in (0, code.k // 2, code.k - 1):
            message = [code.tower.one] * code.k
            message[position] = bad
            with pytest.raises(ValueError, match=rf"^field element outside \[0, 2\^{top}\)$"):
                encode_composite(code, message)


SMALL_CODES = {"concat_one_block": lambda: concat_code(m=6, blocks=1, k=3),
               "expander_n14": lambda: expander_code()[0]}


def test_select_independent_survivors_matches_rank():
    # on every subset of both small codes: at stop = n_G the survivors
    # taken are a basis of the subset's betas, and at stop = k (the
    # decoder's) k independent ones, or all of a basis when fewer
    for name, build in SMALL_CODES.items():
        code = build()
        rank = lambda sub: rank_over_base(code.tower, [code.beta[j] for j in sub])
        for size in range(code.n + 1):
            for sub in combinations(range(code.n), size):
                expected = rank(sub)
                for stop in (code.n_g, code.k):
                    chosen = select_independent_survivors(code, sub, stop)
                    assert set(chosen) <= set(sub) and len(set(chosen)) == len(chosen)
                    assert len(chosen) == rank(chosen) == min(stop, expected), (name, sub, stop)


def _assert_survivor_rank_is_the_rank_of_the_betas(code, subsets):
    for sub in subsets:
        expected = rank_over_base(code.tower, [code.beta[j] for j in sub])
        assert survivor_rank(code, sub) == expected, sub


@pytest.mark.parametrize("build", SMALL_CODES.values(), ids=SMALL_CODES.keys())
def test_survivor_rank_matches_rank_over_base_on_every_subset(build):
    code = build()
    _assert_survivor_rank_is_the_rank_of_the_betas(
        code, (sub for size in range(code.n + 1)
               for sub in combinations(range(code.n), size)))


def readme_expander():
    # lrcav construct expander --n 14 --r 6 --t 3 --w 4 --k 4 --min-girth 4 --seed 7
    g = sample_biregular(14, 3, 7, seed=7, min_girth=4)
    parity = build_expander_parity(g, BaseField(4), seed=8)
    return assemble_expander_code(FieldTower(BaseField(4), 8), parity, k=4)


@pytest.mark.parametrize("build", [lambda: concat_code(), lambda: readme_expander()],
                         ids=["readme_concat", "readme_expander"])
def test_survivor_rank_matches_rank_over_base_on_seeded_subsets(build):
    code = build()
    rng = random.Random(27)
    _assert_survivor_rank_is_the_rank_of_the_betas(
        code, (rng.sample(range(code.n), rng.randrange(code.n + 1)) for _ in range(2000)))


def test_composite_refuses_an_outer_generator_not_in_rref(outer_code_cases):
    # the same code as the README concat, but its generator no longer its
    # own rref: rows reversed, or one row added into another
    code = concat_code()
    outer = code.outer
    reversed_rows = outer.generator.data[::-1]
    added = list(outer.generator.data)
    added[0] ^= added[1]
    for rows in (reversed_rows, added):
        mixed = LinearCode(outer.parity, Matrix(outer.field, outer.n, rows))
        assert rref(mixed.generator)[0].data != mixed.generator.data
        with pytest.raises(ValueError, match="the outer generator must be its own rref"):
            CompositeCode(code.tower, mixed, code.k, code.blocks)
    # the README and bench composites build: their generators are in rref
    assert CompositeCode(code.tower, outer, code.k, code.blocks).n_g == 18
    assert readme_expander().n_g == 8
    for case, _ in outer_code_cases.values():
        assert case.outer.generator.data == rref(case.outer.generator)[0].data


def test_survivor_rank_rejects_indices_outside_the_code():
    code = concat_code()
    assert survivor_rank(code, []) == 0
    for bad in ([0, 1, -1], [code.n], [3, code.n + 5, 2], [-code.n]):
        with pytest.raises(ValueError, match=r"must lie in \[0, n\) with n = 30"):
            survivor_rank(code, bad)


def test_wzl_systematic_generator_shape():
    code = build_wzl(3, 2)
    G = code.generator
    assert (code.n, code.k) == (10, 6)
    assert (G.rows, G.cols) == (6, 10)
    assert rref(G)[1] == 6


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_from_parity_matches_list_oracle(data):
    # random parities over GF(2) and GF(4), n <= 8, with zero and repeated rows
    f = BaseField(data.draw(st.sampled_from([1, 2]), label="w"))
    n = data.draw(st.integers(1, 8), label="n")
    entry = st.one_of(st.just(0), st.integers(1, f.q - 1))
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=8),
                     label="rows")
    rows += data.draw(st.lists(st.sampled_from(rows + [[0] * n]), max_size=3),
                      label="zero or repeated rows")
    code = LinearCode.from_parity(Matrix.from_rows(f, rows, n))
    H = ListMatrix.from_rows(f, rows, n)
    basis = listalg.nullspace(H)
    assert (code.n, code.k) == (n, n - listalg.rref(H)[1])
    G = code.generator
    assert (G.rows, G.cols) == (code.k, n)
    assert G.to_lists() == listalg.rref(ListMatrix.from_rows(f, basis, n))[0].data
    for g in G.to_lists():
        assert H.mul_vec(g) == [0] * len(rows)


def concat_code(m=18, blocks=3, k=9):
    # the defaults are the README concat: WZL(3,2) x 3 blocks at d = 15, k = 9
    tower = FieldTower(BaseField(1), m, seed=0)
    return assemble_concatenated(tower, 3, 2, blocks=blocks, k=k)


def test_concatenated_shape():
    code = concat_code()
    assert (code.n, code.k, code.n_g) == (30, 9, 18)
    # three [10, 6] inner blocks
    assert (code.n // code.blocks, code.n_g // code.blocks, code.blocks) == (10, 6, 3)


def test_concatenated_blocks_are_inner_codewords():
    # each 10-coordinate group carries a WZL inner codeword in every
    # base-field component of the extension elements
    code = concat_code()
    tower = code.tower
    inner = build_wzl(3, 2)
    rng = random.Random(2)
    msg = [tower.rand(rng) for _ in range(code.k)]
    cw = encode_composite(code, msg)
    for b in range(3):
        block = cw[10 * b:10 * (b + 1)]
        for comp in range(tower.m):
            bits = [tower.base.unpack(x, tower.m)[comp] for x in block]
            for row in inner.parity.to_lists():
                assert sum(l * v for l, v in zip(row, bits)) % 2 == 0


def test_concatenated_erasure_roundtrip():
    code = concat_code()
    tower = code.tower
    rng = random.Random(13)
    for _ in range(10):
        msg = [tower.rand(rng) for _ in range(code.k)]
        cw = encode_composite(code, msg)
        erased = set(rng.sample(range(code.n), 14))
        received = [(j, cw[j]) for j in range(code.n) if j not in erased]
        assert composite_erasure_decode(code, received) == msg


def test_concatenated_rejects_nonbinary_base():
    tower = FieldTower(BaseField(2), 9, seed=0)
    with pytest.raises(ValueError):
        assemble_concatenated(tower, 3, 2, blocks=1, k=3)


def test_assemble_expander_guards():
    _, parity = expander_code()  # 6 x 14 of full rank: n_G = 8
    repeated = Matrix(parity.field, 14, parity.data + parity.data[:1])
    with pytest.raises(ValueError, match="rank deficient"):
        assemble_expander_code(FieldTower(BaseField(4), 8, seed=1), repeated, k=4)
    with pytest.raises(ValueError, match="n_G exceeds the extension degree m"):
        assemble_expander_code(FieldTower(BaseField(4), 7, seed=1), parity, k=4)
    with pytest.raises(ValueError, match="k exceeds n_G"):
        assemble_expander_code(FieldTower(BaseField(4), 8, seed=1), parity, k=9)


def test_composite_refuses_an_outer_code_over_another_base_field():
    # a GF(2^8) parity next to a GF(2^4) tower: its entries are no GF(16)
    # elements, so the composite is refused rather than built from misread rows
    g = sample_biregular(14, 3, 7, seed=7, min_girth=4)
    parity = build_expander_parity(g, BaseField(8), seed=8)
    with pytest.raises(ValueError, match=r"outer code over GF\(2\^8\) but tower over GF\(2\^4\)"):
        assemble_expander_code(FieldTower(BaseField(4), 8), parity, 4)


def test_assemble_guards():
    tower = FieldTower(BaseField(1), 18, seed=0)
    with pytest.raises(ValueError):
        assemble_concatenated(tower, 3, 2, blocks=4, k=9)  # n_G = 24 > m
    with pytest.raises(ValueError):
        assemble_concatenated(tower, 3, 2, blocks=3, k=19)  # k > n_G


@pytest.fixture(scope="module")
def outer_code_cases():
    """name -> (code, expander parity or None): the four decode bench
    codes (concat_n30 and expander_n14 are the README composites),
    expanders over GF(4), GF(16) and GF(256) and a one-block concat."""
    def expander(n, t, rp1, w, graph_seed, min_girth, k):
        g = sample_biregular(n, t, rp1, seed=graph_seed, min_girth=min_girth)
        parity = build_expander_parity(g, BaseField(w), seed=graph_seed + 1)
        tower = FieldTower(BaseField(w), n - rref(parity)[1])
        return assemble_expander_code(tower, parity, k), parity

    def concat(m, blocks, k):
        return assemble_concatenated(FieldTower(BaseField(1), m), 3, 2, blocks, k), None

    return {
        "concat_n30": concat(18, 3, 9),
        "concat_n60": concat(36, 6, 24),
        "expander_n14": expander(14, 3, 7, 4, 7, 4, 4),
        "expander_n20": expander(20, 2, 5, 8, 3, 6, 6),
        "expander_gf4": expander(12, 2, 4, 2, 1, 6, 3),
        "expander_gf16": expander(8, 2, 4, 4, 1, 4, 3),
        "expander_gf256": expander(8, 2, 4, 8, 2, 4, 2),
        "concat_one_block": concat(6, 1, 3),
    }


@pytest.mark.parametrize("name", ["concat_n30", "concat_n60", "expander_n14",
                                  "expander_n20", "expander_gf4", "concat_one_block"])
def test_beta_is_the_outer_map_applied_to_the_evaluation_points(outer_code_cases, name):
    # the outer map applied to the evaluation points, in tower products:
    # beta_j = sum_i G[i][j] * x^i, over the basis points x^i, i < n_G
    code, _ = outer_code_cases[name]
    tower, G = code.tower, code.outer.generator.to_lists()
    assert len(code.beta) == code.n == code.outer.n
    points = [tower.basis_element(i) for i in range(code.n_g)]
    for j in range(code.n):
        expected = tower.zero
        for row, point in zip(G, points):
            expected ^= tower.mul(row[j], point)
        assert code.beta[j] == expected


@pytest.mark.parametrize("name", ["expander_n14", "expander_n20", "expander_gf4"])
def test_expander_outer_code_is_the_code_of_its_parity(outer_code_cases, name):
    code, parity = outer_code_cases[name]
    assert code.blocks is None
    assert code.outer.parity.to_lists() == parity.to_lists()
    assert code.outer.k == code.n_g


@pytest.mark.parametrize("r,t,blocks", [(3, 2, 3), (3, 2, 6), (2, 2, 4), (2, 3, 2),
                                        (4, 2, 1)])
def test_concatenated_outer_code_is_the_code_of_its_parity(r, t, blocks):
    # the block-diagonal inner generator, in rref without an elimination,
    # is the generator from_parity derives from the block-diagonal parity
    inner = build_wzl(r, t)
    code = assemble_concatenated(FieldTower(BaseField(1), blocks * inner.k), r, t,
                                 blocks, k=1)
    outer = code.outer
    assert code.blocks == blocks
    assert (outer.n, outer.k) == (code.n, code.n_g) == (blocks * inner.n,
                                                        blocks * inner.k)
    rebuilt = LinearCode.from_parity(outer.parity)
    assert rebuilt.generator.to_lists() == outer.generator.to_lists()
    H = ListMatrix.from_rows(outer.field, outer.parity.to_lists(), outer.n)
    for g in outer.generator.to_lists():
        assert H.mul_vec(g) == [0] * outer.parity.rows


def _outer_map_of_gab_encode(code, message):
    """The composite encoder as it was before its row sum: Gabidulin-encode
    at the basis points, then apply the outer generator coordinate by
    coordinate, y_j = sum_i G[i][j] * c_i."""
    tower = code.tower
    scalar_mul, w, mask = tower.base.scalar_mul, tower.base.w, tower.base.q - 1
    out = [tower.zero] * code.n
    for row, symbol in zip(code.outer.generator.data, gab_encode(tower, message, code.n_g)):
        while row:  # the row's nonzero coordinates, lowest first
            j = ((row & -row).bit_length() - 1) // w
            lam = row >> (j * w) & mask
            out[j] ^= scalar_mul(lam, symbol)
            row ^= lam << (j * w)
    return out


@pytest.mark.parametrize("name", ["concat_n30", "concat_n60", "expander_n14", "expander_n20",
                                  "concat_one_block", "expander_gf4", "expander_gf16",
                                  "expander_gf256"])
def test_encode_is_the_outer_map_of_the_gabidulin_codeword(outer_code_cases, name):
    # the decode bench codes, with the README composites, and small codes
    # at w = 1, 2, 4, 8; messages zero, all-ones symbols, every unit bit
    # (bit p in symbol p mod k, so each bucket and each symbol) and random
    code, _ = outer_code_cases[name]
    tower, k = code.tower, code.k
    top = tower.m * tower.base.w
    rng = random.Random(31)
    messages = [[tower.zero] * k, [(1 << top) - 1] * k]
    for p in range(top):
        messages.append([1 << p if i == p % k else tower.zero for i in range(k)])
    messages += [[tower.rand(rng) for _ in range(k)] for _ in range(20)]
    for message in messages:
        assert encode_composite(code, message) == _outer_map_of_gab_encode(code, message)
