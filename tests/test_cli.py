import json
import random

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from lrcav import analysis, cli, shortening
from lrcav.bounds import shortening_k_bound
from lrcav.constructions import (CompositeCode, LinearCode, assemble_expander_code,
                                 build_expander_parity, sample_biregular)
from lrcav.galois import BaseField, FieldTower
from lrcav.linalg import Matrix


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bounds_table(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "24", "--k", "12",
                       "--r", "3", "--t", "2")
    assert code == 0
    assert "wang_rawat" in out and " 9" in out
    assert "shortening_singleton" in out and " 8" in out
    assert "tbf" in out and "yaakobi" in out and "rate_cap_k" in out
    assert "infeasible" not in out


def test_bounds_reports_k_above_the_rate_cap(capsys):
    # no code exists, which the negative distance bounds also prove; the
    # table keeps every row and exits 0
    code, out, _ = run(capsys, "bounds", "--n", "5", "--k", "5",
                       "--r", "1", "--t", "3")
    assert code == 0
    assert "wang_rawat" in out and "-11" in out and "rate_cap_k" in out
    line = [row for row in out.splitlines() if row.startswith("  infeasible ")]
    assert len(line) == 1 and line[0].endswith("k = 5 > 1/4 * n = 1.250")


def test_bounds_shortening_rows_need_availability_two(capsys):
    # three disjoint [3,2,2] parity codes have t = 1 and d = 2, above the
    # 0 and 1 the shortening bound would print at (n, k, r) = (9, 6, 2)
    code, out, _ = run(capsys, "bounds", "--n", "9", "--k", "6",
                       "--r", "2", "--t", "1")
    assert code == 0
    for name in ("shortening_singleton", "shortening_sweep"):
        line = [row for row in out.splitlines() if row.startswith(f"  {name} ")]
        assert len(line) == 1 and line[0].endswith("n/a (needs t >= 2)")
    assert "infeasible" not in out


def test_bounds_at_huge_n_returns_at_once(capsys):
    # the oracle sweep runs over s < (k-1)/(r-1) only, so n = 10^9 costs
    # nothing, and with the Singleton oracle it equals the closed form
    code, out, _ = run(capsys, "bounds", "--n", "1000000000", "--k", "12",
                       "--r", "3", "--t", "2")
    assert code == 0
    rows = {line.split()[0]: line.split()[-1] for line in out.splitlines()[1:]}
    assert rows["shortening_sweep"] == rows["shortening_singleton"] == "999999984"


def test_bounds_rejects_bad_t(capsys):
    code, _, err = run(capsys, "bounds", "--n", "10", "--k", "5",
                       "--r", "2", "--t", "0")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("n,k,r", [(10, 5, 0), (5, 10, 2)])
def test_bounds_rejects_impossible_parameters(capsys, n, k, r):
    code, out, err = run(capsys, "bounds", "--n", str(n), "--k", str(k),
                         "--r", str(r), "--t", "2")
    assert code == 2 and "error" in err and out == ""


@pytest.mark.parametrize("q", [0, 1, -3])
def test_bounds_rejects_alphabets_below_two(capsys, q):
    code, out, err = run(capsys, "bounds", "--n", "10", "--k", "4",
                         "--r", "2", "--t", "2", "--q", str(q))
    assert code == 2 and "bounds need q >= 2" in err and out == ""


def test_curves_csv(tmp_path, capsys):
    out_path = tmp_path / "curves.csv"
    code, out, _ = run(capsys, "curves", "--r", "6", "--t", "3",
                       "--grid", "50", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "delta,upper_new,upper_tbf,lower_expander,lower_concat,rate_cap"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert "crossover" in out


def test_construct_wzl_roundtrip(tmp_path, capsys):
    path = tmp_path / "wzl.json"
    code, out, _ = run(capsys, "construct", "wzl", "--r", "3", "--t", "2",
                       "--out", str(path))
    assert code == 0 and "n=10 k=6" in out
    doc, loaded = cli.load_artifact(str(path))
    assert doc["format_version"] == "1"
    assert isinstance(loaded, LinearCode)
    assert (loaded.n, loaded.k) == (10, 6)


def test_construct_concat_with_target_distance(tmp_path, capsys):
    path = tmp_path / "concat.json"
    code, out, _ = run(capsys, "construct", "concat", "--r", "3", "--t", "2",
                       "--blocks", "3", "--d", "15", "--out", str(path))
    assert code == 0 and "k=9" in out
    doc, loaded = cli.load_artifact(str(path))
    assert isinstance(loaded, CompositeCode)
    assert (loaded.n, loaded.k) == (30, 9)
    assert doc["params"]["n_I"] == 10 and doc["params"]["k_I"] == 6


def test_construct_concat_needs_k_or_d(capsys, tmp_path):
    code, _, err = run(capsys, "construct", "concat", "--r", "3", "--t", "2",
                       "--blocks", "3", "--out", str(tmp_path / "x.json"))
    assert code == 2 and "error" in err


@pytest.mark.parametrize("blocks", ["0", "-1"])
def test_construct_concat_without_blocks_is_input_error(tmp_path, capsys, blocks):
    # the default extension degree is blocks * k_I, so the tower must not be built first
    path = tmp_path / "x.json"
    code, out, err = run(capsys, "construct", "concat", "--r", "3", "--t", "2",
                         "--blocks", blocks, "--k", "2", "--out", str(path))
    assert (code, out, err) == (2, "", "error: need at least one block\n")
    assert not path.exists()


def test_construct_wzl_above_the_size_cap_is_input_error(tmp_path, capsys):
    path = tmp_path / "x.json"
    code, out, err = run(capsys, "construct", "wzl", "--r", "20", "--t", "20",
                         "--out", str(path))
    assert (code, out) == (2, "")
    assert err == "error: n = C(r+t, t) = 137846528820 exceeds the size cap 100000\n"
    assert not path.exists()


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_construct_unwritable_artifact_is_input_error(tmp_path, capsys, where):
    path = tmp_path / "nonexist" / "x.json" if where == "missing-directory" \
        else tmp_path
    code, out, err = run(capsys, "construct", "wzl", "--r", "3", "--t", "2",
                         "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write artifact: ")
    assert not (tmp_path / "nonexist").exists()


def test_construct_expander_roundtrip(tmp_path, capsys):
    path = tmp_path / "exp.json"
    code, out, _ = run(capsys, "construct", "expander", "--n", "14",
                       "--r", "6", "--t", "3", "--w", "4", "--k", "4",
                       "--min-girth", "4", "--seed", "7", "--out", str(path))
    assert code == 0
    doc, loaded = cli.load_artifact(str(path))
    assert isinstance(loaded, CompositeCode)
    assert loaded.n == 14 and loaded.k == 4


def test_expander_artifact_takes_its_parity_from_the_code(tmp_path, capsys):
    # the stored parity is the outer code's, so an artifact saved from a
    # provenance without one still verifies
    g = sample_biregular(14, 3, 7, seed=7, min_girth=4)
    parity = build_expander_parity(g, BaseField(4), seed=8)
    composite = assemble_expander_code(FieldTower(BaseField(4), 8), parity, 4)
    doc = cli.to_artifact(composite, "expander", 6, 3, {"seed": 7})
    assert doc["matrices"]["parity"] == parity.to_lists()
    path = tmp_path / "exp.json"
    cli.save_artifact(doc, str(path))
    code, out, err = run(capsys, "verify", "--code", str(path), "--erasures", "2",
                         "--trials", "3", "--seed", "1")
    assert code == 0 and err == ""
    assert json.loads(out)["erasures"]["successes"] == 3


def test_construct_expander_too_dense_for_girth6(tmp_path, capsys):
    # no sample passes the girth test (the default, or asked for explicitly):
    # a parameter problem, so exit 2 and no artifact
    path = tmp_path / "x.json"
    for girth_flag in ([], ["--min-girth", "6"]):
        code, out, err = run(capsys, "construct", "expander", "--n", "14",
                             "--r", "6", "--t", "3", "--w", "4", "--seed", "7",
                             *girth_flag, "--out", str(path))
        assert code == 2 and "parameters too dense" in err and out == ""
        assert not path.exists()


def test_construct_expander_over_gf2_refuses_even_t(tmp_path, capsys):
    # over GF(2) every parity entry is 1, so each column holds t ones and at
    # even t the rows sum to zero: the parity is rank deficient; the same
    # graph over GF(4) gives a parity of full rank
    path = tmp_path / "x.json"
    argv = ["construct", "expander", "--n", "20", "--r", "4", "--t", "2",
            "--seed", "3", "--out", str(path)]
    code, out, err = run(capsys, *argv, "--w", "1")
    assert (code, out, err) == (2, "", "error: expander parity matrix is rank deficient\n")
    assert not path.exists()
    code, out, err = run(capsys, *argv, "--w", "2")
    assert (code, err) == (0, "") and path.exists()


@pytest.mark.parametrize("w,message", [
    ("1", "expander parity matrix is rank deficient"),
    ("2", "extension degree must be >= 1"),
], ids=["gf2-rank-deficient", "gf4-full-rank"])
def test_construct_expander_on_a_parity_with_at_least_n_rows(tmp_path, capsys, w, message):
    # t = r + 1 gives a 4 x 4 parity: over GF(2) its rows sum to zero, so it
    # has rank 3 and n_G = 1 builds a tower before the rank check refuses
    # it; over GF(4) it has full rank, so n_G = 0 and the default m = 0
    # refuses the tower first
    path = tmp_path / "x.json"
    code, out, err = run(capsys, "construct", "expander", "--n", "4", "--r", "1",
                         "--t", "2", "--w", w, "--seed", "0", "--out", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not path.exists()


@pytest.mark.parametrize("r,t", [("-1", "3"), ("-2", "3"), ("6", "0")],
                         ids=["r=-1", "r=-2", "t=0"])
def test_construct_expander_rejects_r_or_t_below_one(tmp_path, capsys, r, t):
    path = tmp_path / "x.json"
    code, out, err = run(capsys, "construct", "expander", "--n", "14",
                         "--r", r, "--t", t, "--w", "4", "--min-girth", "4",
                         "--seed", "7", "--out", str(path))
    assert code == 2 and out == ""
    assert err == "error: need t >= 1 and r+1 >= 2\n"
    assert not path.exists()


@pytest.mark.parametrize("n", ["0", "-5"])
def test_construct_expander_rejects_n_below_one(tmp_path, capsys, n):
    # the guard names n itself, not the extension degree n_G = 0 it led to
    path = tmp_path / "x.json"
    code, out, err = run(capsys, "construct", "expander", "--n", n, "--r", "4",
                         "--t", "2", "--w", "8", "--seed", "3", "--out", str(path))
    assert code == 2 and out == ""
    assert err == "error: need n >= 1\n"
    assert not path.exists()


@pytest.mark.parametrize("w", ["0", "17"])
@pytest.mark.parametrize("girth_flag", [[], ["--min-girth", "4"]], ids=["girth6", "girth4"])
def test_construct_expander_checks_w_before_sampling(tmp_path, capsys, monkeypatch,
                                                     w, girth_flag):
    def sampler(*args, **kwargs):
        raise AssertionError("sampled a graph for an unusable field width")

    monkeypatch.setattr(cli.constructions, "sample_biregular", sampler)
    path = tmp_path / "x.json"
    code, out, err = run(capsys, "construct", "expander", "--n", "14", "--r", "6",
                         "--t", "3", "--w", w, "--seed", "7", *girth_flag,
                         "--out", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: unsupported field width w={w}; need 1 <= w <= 16\n"
    assert not path.exists()


def test_verify_wzl_distance_and_availability(tmp_path, capsys):
    path = tmp_path / "wzl.json"
    run(capsys, "construct", "wzl", "--r", "2", "--t", "2", "--out", str(path))
    code, out, _ = run(capsys, "verify", "--code", str(path),
                       "--distance", "--availability")
    assert code == 0
    report = json.loads(out)
    assert report["distance"] == 3
    assert report["availability"]["pass"] is True
    assert len(report["availability"]["witness_sets"]) == 6


def test_verify_wzl62_distance_and_availability(tmp_path, capsys):
    # n = 28, k = 21: the dual walk has 2^7 words, where one nullspace per
    # 7-support would cost C(28, 7) * 7^3 = 406,125,720, past the budget
    path = tmp_path / "wzl62.json"
    run(capsys, "construct", "wzl", "--r", "6", "--t", "2", "--out", str(path))
    code, out, _ = run(capsys, "verify", "--code", str(path),
                       "--distance", "--availability")
    assert code == 0
    report = json.loads(out)
    assert report["distance"] == 3
    assert report["availability"]["pass"] is True
    assert len(report["availability"]["witness_sets"]) == 28


def test_verify_availability_past_the_budget_is_input_error(tmp_path, capsys,
                                                            monkeypatch):
    # WZL(4, 4): n = 70, k = 35; the dual walk would cost 2^35 words, one
    # nullspace per 5-support C(70, 5) * 5^3; refused before either starts
    path = tmp_path / "wzl44.json"
    run(capsys, "construct", "wzl", "--r", "4", "--t", "4", "--out", str(path))

    def no_walk(M):
        raise AssertionError("local-check walk started")

    monkeypatch.setattr(shortening, "nullspace", no_walk)
    code, out, err = run(capsys, "verify", "--code", str(path), "--availability")
    assert (code, out) == (2, "")
    assert err == ("error: local-check enumeration cost 1512876750 "
                   "exceeds budget 100000000\n")


def test_verify_availability_uses_every_local_check(tmp_path, capsys):
    # coordinate 3 needs the check 000111, which no nullspace basis of a
    # 5-support holds; a basis-only enumeration failed coordinates 3, 4, 5
    path = tmp_path / "raw.json"
    parity = [[int(c) for c in row] for row in ("110001", "110110", "011010")]
    path.write_text(json.dumps({
        "format_version": "1", "kind": "raw",
        "field": {"w": 1, "m": 1, "modulus": 3, "ext_modulus": None},
        "n": 6, "k": 3, "r": 4, "t": 2, "matrices": {"parity": parity}}))
    code, out, _ = run(capsys, "verify", "--code", str(path), "--availability")
    assert code == 0
    report = json.loads(out)["availability"]
    assert report["pass"] is True and report["failed_coordinates"] == []
    assert report["witness_sets"]["3"] == [[0, 2], [4, 5]]


def test_verify_erasures_composite(tmp_path, capsys):
    path = tmp_path / "concat.json"
    run(capsys, "construct", "concat", "--r", "3", "--t", "2",
        "--blocks", "3", "--k", "9", "--out", str(path))
    code, out, _ = run(capsys, "verify", "--code", str(path),
                       "--erasures", "14", "--trials", "50", "--seed", "1")
    assert code == 0
    report = json.loads(out)
    assert report["erasures"]["successes"] == 50
    assert report["erasures"]["adversarial_success"] is True


def test_verify_erasures_requires_seed(tmp_path, capsys):
    path = tmp_path / "wzl.json"
    run(capsys, "construct", "wzl", "--r", "2", "--t", "2", "--out", str(path))
    code, _, err = run(capsys, "verify", "--code", str(path), "--erasures", "2")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("argv,message", [
    (["verify", "--distance", "--availability", "--erasures", "2"],
     "--erasures requires --seed"),
    (["shorten", "--r", "3", "--s", "0"], "need s >= 1"),
    (["shorten", "--r", "-3", "--s", "2"], "need r >= 1"),
    (["shorten", "--r", "0", "--s", "2"], "need r >= 1"),
], ids=["verify-seed", "shorten-s", "shorten-r=-3", "shorten-r=0"])
def test_argument_errors_come_before_loading_the_artifact(tmp_path, capsys, argv,
                                                          message):
    # a bad argument is reported without reading (or enumerating) the code
    missing = str(tmp_path / "missing.json")
    code, out, err = run(capsys, *argv[:1], "--code", missing, *argv[1:])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_erasures_failure_exit(tmp_path, capsys):
    # erasing more than d-1 coordinates of the WZL(2,2) code must fail
    path = tmp_path / "wzl.json"
    run(capsys, "construct", "wzl", "--r", "2", "--t", "2", "--out", str(path))
    code, out, _ = run(capsys, "verify", "--code", str(path),
                       "--erasures", "4", "--trials", "50", "--seed", "2")
    assert code == 1
    report = json.loads(out)
    assert report["erasures"]["successes"] < 50


@pytest.mark.parametrize("e", ["-1", "7"])
def test_verify_erasures_outside_the_length_is_input_error(tmp_path, capsys, e):
    # WZL(2,2) has n = 6: neither -1 nor n + 1 erasures can be drawn
    path = tmp_path / "wzl.json"
    run(capsys, "construct", "wzl", "--r", "2", "--t", "2", "--out", str(path))
    code, out, err = run(capsys, "verify", "--code", str(path),
                         "--erasures", e, "--trials", "5", "--seed", "1")
    assert (code, out, err) == (2, "", "error: need 0 <= e <= n\n")


@pytest.mark.parametrize("kind,n", [("concat", 30), ("expander", 14)])
def test_verify_erasures_outside_a_composite_is_input_error(tmp_path, capsys,
                                                           monkeypatch, kind, n):
    # a composite keeps one survivor at least: e lies in [0, n), checked
    # before any trial runs
    path = tmp_path / f"{kind}.json"
    run(capsys, "construct", *COMPOSITE_ARTIFACTS[kind], "--out", str(path))

    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran")

    monkeypatch.setattr(cli.analysis, "erasure_monte_carlo", no_trials)
    for e in (-1, n, n + 1):
        code, out, err = run(capsys, "verify", "--code", str(path),
                             "--erasures", str(e), "--trials", "5", "--seed", "1")
        assert (code, out, err) == (2, "", "error: need 0 <= e < n\n")


def test_verify_erasing_every_coordinate_is_a_failure(tmp_path, capsys):
    path = tmp_path / "wzl.json"
    run(capsys, "construct", "wzl", "--r", "2", "--t", "2", "--out", str(path))
    code, out, _ = run(capsys, "verify", "--code", str(path),
                       "--erasures", "6", "--trials", "5", "--seed", "1")
    assert code == 1 and json.loads(out)["erasures"]["successes"] == 0


def _raw_artifact(path, w, n, rows, r=1):
    f = BaseField(w)
    code = LinearCode.from_parity(Matrix.from_rows(f, rows, n))
    path.write_text(json.dumps(cli.to_artifact(code, "raw", r, 1, {})))
    return code


@st.composite
def raw_parities(draw):
    """(w, n, parity rows): GF(2) with n <= 12 or GF(4) with n <= 8, any rank."""
    w = draw(st.sampled_from([1, 2]), label="w")
    n = draw(st.integers(1, 12 if w == 1 else 8), label="n")
    entry = st.integers(0, 2**w - 1)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n + 1),
                label="rows")
    return w, n, rows


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(parity=raw_parities(), data=st.data())
@example(parity=(1, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
         data=None).via("the zero code")
@example(parity=(2, 5, []), data=None).via("the full space")
def test_verify_erasures_reports_what_the_sampled_trials_give(tmp_path, capsys,
                                                              parity, data):
    # proven (e < d, or k = 0) or drawn, the report is the one the seeded
    # trials give, pattern by pattern
    w, n, rows = parity
    path = tmp_path / "raw.json"
    code = _raw_artifact(path, w, n, rows)
    for e in range(n + 1):
        seed = data.draw(st.integers(0, 2**31), label="seed") if data else e
        rng = random.Random(seed)
        ok = sum(analysis.erasure_correctable(code, rng.sample(range(n), e))
                 for _ in range(50))
        expected = json.dumps({"artifact": str(path), "kind": "raw", "erasures": {
            "e": e, "trials": 50, "successes": ok, "seed": seed}}, indent=1, sort_keys=True)
        assert run(capsys, "verify", "--code", str(path), "--erasures", str(e),
                   "--trials", "50", "--seed", str(seed)) == \
            (int(ok != 50), expected + "\n", "")


def test_verify_erasures_on_the_zero_code_all_succeed(tmp_path, capsys):
    # a full-rank parity leaves k = 0: no nonzero codeword, so every pattern
    # is correctable, and min_distance's ValueError never reaches exit 2
    path = tmp_path / "raw.json"
    code = _raw_artifact(path, 2, 5, [[int(i == j) for j in range(5)] for i in range(5)])
    assert code.k == 0
    for e in range(6):
        status, out, err = run(capsys, "verify", "--code", str(path), "--erasures", str(e),
                               "--trials", "30", "--seed", "1")
        assert (status, err) == (0, "")
        assert json.loads(out)["erasures"]["successes"] == 30


def test_verify_erasures_below_the_distance_draws_no_pattern(tmp_path, capsys,
                                                             monkeypatch):
    # WZL(3,3): e = 3 < d = 4, and its 2^10-word walk proves all 10^7 trials
    path = tmp_path / "wzl.json"
    run(capsys, "construct", "wzl", "--r", "3", "--t", "3", "--out", str(path))

    def no_pattern(*args, **kwargs):
        raise AssertionError("a pattern was drawn")

    monkeypatch.setattr(analysis, "erasure_correctable", no_pattern)
    status, out, err = run(capsys, "verify", "--code", str(path), "--erasures", "3",
                           "--trials", "10000000", "--seed", "1")
    assert (status, err) == (0, "")
    assert json.loads(out)["erasures"]["successes"] == 10**7


def test_verify_erasures_past_the_walk_cost_samples(tmp_path, capsys, monkeypatch):
    # WZL(5,3): 2^21 dual words cost more than 16 per trial at 20 trials
    path = tmp_path / "wzl.json"
    run(capsys, "construct", "wzl", "--r", "5", "--t", "3", "--out", str(path))

    def no_walk(*args, **kwargs):
        raise AssertionError("the distance was walked")

    monkeypatch.setattr(analysis, "min_distance", no_walk)
    status, out, err = run(capsys, "verify", "--code", str(path), "--erasures", "3",
                           "--trials", "20", "--seed", "1")
    assert (status, err) == (0, "")
    assert json.loads(out)["erasures"]["successes"] == 20


@pytest.mark.parametrize("flags", [[], ["--distance"]], ids=["erasures", "with-distance"])
def test_verify_erasures_walks_the_code_once(tmp_path, capsys, monkeypatch, flags):
    # --distance computes d once, and the erasure verdict reuses it
    path = tmp_path / "wzl.json"
    run(capsys, "construct", "wzl", "--r", "3", "--t", "3", "--out", str(path))
    walks = []
    codewords = LinearCode.codewords

    def counted(self):
        walks.append(self)
        return codewords(self)

    monkeypatch.setattr(LinearCode, "codewords", counted)
    status, out, _ = run(capsys, "verify", "--code", str(path), *flags,
                         "--erasures", "3", "--trials", "200", "--seed", "1")
    assert status == 0 and json.loads(out)["erasures"]["successes"] == 200
    assert len(walks) == 1


@pytest.mark.parametrize("argv", [
    ["concat", "--r", "3", "--t", "2", "--blocks", "3"],
    ["expander", "--n", "14", "--r", "6", "--t", "3", "--w", "4",
     "--min-girth", "4", "--seed", "7"],
], ids=["concat", "expander"])
def test_construct_k_zero_names_the_lower_bound(tmp_path, capsys, argv):
    path = tmp_path / "x.json"
    code, out, err = run(capsys, "construct", *argv, "--k", "0", "--out", str(path))
    assert (code, out) == (2, "") and not path.exists()
    assert err == "error: need 1 <= k <= n <= extension degree m\n"


def test_verify_truncated_artifact(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"format_version": "1", "kind":')
    code, _, err = run(capsys, "verify", "--code", str(path), "--distance")
    assert code == 2 and "error" in err


def test_verify_unknown_kind(tmp_path, capsys):
    path = tmp_path / "weird.json"
    path.write_text(json.dumps({"format_version": "1", "kind": "mystery",
                                "field": {"w": 1}}))
    code, _, err = run(capsys, "verify", "--code", str(path), "--distance")
    assert code == 2 and "error" in err


def test_verify_wrong_format_version(tmp_path, capsys):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"format_version": "0", "kind": "wzl"}))
    code, _, err = run(capsys, "verify", "--code", str(path), "--distance")
    assert code == 2 and "error" in err


def _drop_field(doc):
    del doc["field"]
    return doc


def _parity_entry_7(doc):
    doc["matrices"]["parity"][0][0] = 7
    return doc


def _ragged_parity(doc):
    doc["matrices"]["parity"][0].append(0)
    return doc


@pytest.mark.parametrize("mutate", [_drop_field, lambda doc: [doc],
                                    _parity_entry_7, _ragged_parity],
                         ids=["missing-field", "top-level-list",
                              "entry-outside-field", "ragged-rows"])
def test_verify_malformed_artifact_is_input_error(tmp_path, capsys, mutate):
    path = tmp_path / "wzl.json"
    run(capsys, "construct", "wzl", "--r", "2", "--t", "2", "--out", str(path))
    path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    code, out, err = run(capsys, "verify", "--code", str(path), "--distance")
    assert code == 2 and "error" in err and out == ""


def _zero_outer_map(doc):
    doc["matrices"]["outer_map"] = [[0] * len(row) for row in doc["matrices"]["outer_map"]]
    return doc


def _set_param(key, value):
    def mutate(doc):
        doc["params"][key] = value
        return doc
    return mutate


def _set_field(key, value):
    def mutate(doc):
        doc["field"][key] = value
        return doc
    return mutate


def _zero_provenance_parity(doc):
    doc["provenance"]["parity"] = [[0] * len(row) for row in doc["matrices"]["parity"]]
    return doc


COMPOSITE_ARTIFACTS = {
    "concat": ["concat", "--r", "3", "--t", "2", "--blocks", "3", "--k", "9"],
    "expander": ["expander", "--n", "14", "--r", "6", "--t", "3", "--w", "4",
                 "--k", "4", "--min-girth", "4", "--seed", "7"],
}


@pytest.mark.parametrize("kind,mutate", [
    ("concat", _zero_outer_map), ("expander", _zero_outer_map),
    ("concat", lambda doc: dict(doc, n=31)), ("concat", _set_param("n_G", 17)),
    ("concat", _set_param("n_I", 11)), ("concat", _set_param("k_I", 5)),
    ("expander", _set_param("n_G", 3)),
    ("concat", _set_field("modulus", 5)), ("expander", _set_field("modulus", 17)),
    ("expander", _zero_provenance_parity),
], ids=["concat-zero-outer-map", "expander-zero-outer-map", "concat-n",
        "concat-n_G", "concat-n_I", "concat-k_I", "expander-n_G",
        "concat-modulus", "expander-modulus", "expander-provenance-parity"])
def test_verify_tampered_composite_is_input_error(tmp_path, capsys, kind, mutate):
    # verify checks the stored matrices and field facts: before, an all-zero
    # outer_map was ignored (concat) or recomputed from parity (expander) and
    # passed, and so did a wrong base modulus or provenance parity
    path = tmp_path / f"{kind}.json"
    run(capsys, "construct", *COMPOSITE_ARTIFACTS[kind], "--out", str(path))
    code, _, _ = run(capsys, "verify", "--code", str(path), "--erasures", "6",
                     "--trials", "20", "--seed", "1")
    assert code == 0
    path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    code, out, err = run(capsys, "verify", "--code", str(path), "--erasures", "6",
                         "--trials", "20", "--seed", "1")
    assert code == 2 and "disagree" in err and out == ""


def _zero_padded_outer_map(doc):
    doc["matrices"]["outer_map"] = [row + [0] for row in doc["matrices"]["outer_map"]]
    return doc


def _zero_row_outer_map(doc):
    rows = doc["matrices"]["outer_map"]
    rows.append([0] * len(rows[0]))
    return doc


@pytest.mark.parametrize("kind", ["concat", "expander"])
@pytest.mark.parametrize("mutate", [_zero_padded_outer_map, _zero_row_outer_map],
                         ids=["zero-column", "zero-row"])
def test_verify_outer_map_of_another_shape_is_stale(tmp_path, capsys, kind, mutate):
    # outer_map is compared packed, and a zero column or row packs to the
    # same rows: its shape must still match the code's generator
    path = tmp_path / f"{kind}.json"
    run(capsys, "construct", *COMPOSITE_ARTIFACTS[kind], "--out", str(path))
    path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    code, out, err = run(capsys, "verify", "--code", str(path), "--erasures", "6",
                         "--trials", "20", "--seed", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: stored data disagree") and err.endswith(": outer_map\n")


@pytest.mark.parametrize("kind,flags,message", [
    ("concat", ["--m", "17"], "n_G = blocks*k_I exceeds the extension degree m"),
    ("expander", ["--m", "7"], "n_G exceeds the extension degree m"),
    ("concat", ["--k", "19"], "k exceeds n_G"),
    ("expander", ["--k", "9"], "k exceeds n_G"),
    ("concat", ["--m", "1025"], "m*w = 1025 bits exceeds the tower size cap 1024"),
    ("concat", ["--k", "0", "--m", "17"], "n_G = blocks*k_I exceeds the extension degree m"),
    ("expander", ["--k", "0", "--m", "7"], "n_G exceeds the extension degree m"),
], ids=["concat-m-below-n_G", "expander-m-below-n_G", "concat-k-above-n_G",
        "expander-k-above-n_G", "concat-m-above-the-tower-cap",
        "concat-k-0-and-m-below-n_G", "expander-k-0-and-m-below-n_G"])
def test_construct_composite_outside_its_parameters_is_input_error(tmp_path, capsys,
                                                                   kind, flags, message):
    # n_G = 18 (concat) and 8 (expander); the last flag wins over the k or m
    # that COMPOSITE_ARTIFACTS sets
    path = tmp_path / "x.json"
    code, out, err = run(capsys, "construct", *COMPOSITE_ARTIFACTS[kind], *flags,
                         "--out", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not path.exists()


@pytest.mark.parametrize("kind,key,value,message", [
    ("concat", "k", 0, "need 1 <= k <= n <= extension degree m"),
    ("concat", "k", 19, "k exceeds n_G"),
    ("expander", "k", 0, "need 1 <= k <= n <= extension degree m"),
    ("expander", "k", 9, "k exceeds n_G"),
    ("concat", "m", 1025, "m*w = 1025 bits exceeds the tower size cap 1024"),
], ids=["concat-k-0", "concat-k-above-n_G", "expander-k-0", "expander-k-above-n_G",
        "concat-m-above-the-tower-cap"])
def test_verify_composite_outside_its_parameters_is_input_error(tmp_path, capsys,
                                                                kind, key, value, message):
    path = tmp_path / f"{kind}.json"
    run(capsys, "construct", *COMPOSITE_ARTIFACTS[kind], "--out", str(path))
    doc = json.loads(path.read_text())
    (doc if key == "k" else doc["field"])[key] = value
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--code", str(path), "--erasures", "6",
                         "--trials", "20", "--seed", "1")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_stale_linear_dimension_is_input_error(tmp_path, capsys):
    # k is not read from the artifact, so a stale value used to pass unnoticed
    path = tmp_path / "wzl.json"
    run(capsys, "construct", "wzl", "--r", "2", "--t", "2", "--out", str(path))
    path.write_text(json.dumps(dict(json.loads(path.read_text()), k=5)))
    code, out, err = run(capsys, "verify", "--code", str(path), "--distance")
    assert code == 2 and "disagree" in err and out == ""


@pytest.mark.parametrize("key,value", [("modulus", 5), ("m", 2), ("ext_modulus", [1, 1, 1])])
def test_verify_tampered_linear_field_is_input_error(tmp_path, capsys, key, value):
    # a linear code's field is GF(2^w) itself: m = 1 and no extension modulus;
    # before, these facts were never read and a wrong one passed
    path = tmp_path / "wzl.json"
    run(capsys, "construct", "wzl", "--r", "2", "--t", "2", "--out", str(path))
    path.write_text(json.dumps(_set_field(key, value)(json.loads(path.read_text()))))
    code, out, err = run(capsys, "verify", "--code", str(path), "--distance")
    assert (code, out) == (2, "")
    assert err.startswith("error: stored data disagree") and err.endswith(f": {key}\n")


@pytest.mark.parametrize("parity", ["stored", None])
def test_older_expander_artifact_with_a_provenance_parity_loads(tmp_path, capsys, parity):
    # older writers copied the parity (or null) into the provenance as well
    path = tmp_path / "expander.json"
    run(capsys, "construct", *COMPOSITE_ARTIFACTS["expander"], "--out", str(path))
    argv = ["verify", "--code", str(path), "--erasures", "6", "--trials", "20", "--seed", "1"]
    expected = run(capsys, *argv)
    doc = json.loads(path.read_text())
    doc["provenance"]["parity"] = doc["matrices"]["parity"] if parity else None
    path.write_text(json.dumps(doc))
    assert run(capsys, *argv) == expected and expected[0] == 0


def test_internal_error_is_not_an_input_error(tmp_path, monkeypatch):
    # exit 2 is for input errors only; an internal failure propagates
    def broken(*args, **kwargs):
        raise RuntimeError("internal failure")

    monkeypatch.setattr(cli.constructions, "build_wzl", broken)
    with pytest.raises(RuntimeError, match="internal failure"):
        cli.main(["construct", "wzl", "--r", "2", "--t", "2",
                  "--out", str(tmp_path / "wzl.json")])


def test_verify_deeply_nested_artifact_is_input_error(tmp_path, capsys):
    # json.load raises RecursionError here, which must not escape as a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "verify", "--code", str(path), "--distance")
    assert code == 2 and "error" in err and out == ""


@pytest.mark.parametrize("kind,flags", [
    ("wzl", []),
    ("wzl", ["--erasures", "2", "--trials", "0", "--seed", "1"]),
    ("concat", ["--erasures", "2", "--trials", "0", "--seed", "1"]),
])
def test_verify_rejects_vacuous_runs(tmp_path, capsys, kind, flags):
    path = tmp_path / f"{kind}.json"
    extra = ["--blocks", "3", "--k", "9"] if kind == "concat" else []
    run(capsys, "construct", kind, "--r", "2", "--t", "2", *extra,
        "--out", str(path))
    code, out, err = run(capsys, "verify", "--code", str(path), *flags)
    assert code == 2 and "error" in err and out == ""


@pytest.fixture(scope="module")
def valid_artifacts(tmp_path_factory):
    base = tmp_path_factory.mktemp("artifacts")
    docs = {}
    for kind, argv in [("wzl", ["wzl", "--r", "2", "--t", "2"]),
                       *COMPOSITE_ARTIFACTS.items()]:
        path = base / f"{kind}.json"
        assert cli.main(["construct", *argv, "--out", str(path)]) == 0
        docs[kind] = json.loads(path.read_text())
    return base, docs


RETYPED = ["x", None, 1.5, True, [], {}, [[1]]]


def _paths(obj, prefix=()):
    """Every key path and list index of a JSON document."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_verify_mutated_artifact_keeps_the_exit_contract(valid_artifacts, capsys, data):
    # drop a key or entry, change a value's type, or shift an integer by 1-2:
    # verify must pass, fail or reject the input, never raise
    base, docs = valid_artifacts
    kind = data.draw(st.sampled_from(sorted(docs)), label="kind")
    doc = json.loads(json.dumps(docs[kind]))
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    leaf = path[-1]
    value = parent[leaf]
    ops = ["drop", "retype"] + (["shift"] if type(value) is int else [])
    op = data.draw(st.sampled_from(ops), label="op")
    if op == "drop":
        del parent[leaf]
    elif op == "retype":
        parent[leaf] = data.draw(st.sampled_from(
            [v for v in RETYPED if type(v) is not type(value)]), label="new value")
    else:
        parent[leaf] = value + data.draw(st.sampled_from([-2, -1, 1, 2]), label="shift")
    flags = data.draw(st.sampled_from([
        ["--distance"], ["--availability"],
        ["--erasures", "2", "--trials", "3", "--seed", "1"]]), label="flags")
    artifact = base / "mutated.json"
    artifact.write_text(json.dumps(doc))
    assert cli.main(["verify", "--code", str(artifact), *flags]) in (0, 1, 2)
    capsys.readouterr()


def _raw_gf4_artifact(path):
    rng = random.Random(4)
    _raw_artifact(path, 2, 9, [[rng.randrange(4) for _ in range(9)] for _ in range(4)], r=2)


@pytest.mark.parametrize("kind", ["wzl", "raw", "concat", "expander"])
def test_loaded_artifact_writes_back_the_stored_document(tmp_path, capsys, kind):
    # each fact is stored once: the expander parity sits in matrices only
    path = tmp_path / f"{kind}.json"
    if kind == "raw":
        _raw_gf4_artifact(path)
    else:
        argv = ["wzl", "--r", "3", "--t", "2"] if kind == "wzl" else COMPOSITE_ARTIFACTS[kind]
        run(capsys, "construct", *argv, "--out", str(path))
    doc, code = cli.load_artifact(str(path))
    assert cli.to_artifact(code, kind, doc["r"], doc["t"], doc["provenance"]) == doc
    assert "parity" not in doc["provenance"]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(r=st.integers(1, 7), t=st.integers(1, 3))
def test_small_wzl_verifies_every_claim_it_makes(tmp_path, capsys, r, t):
    # construct, then check the artifact with every oracle verify has for it;
    # t = 3 stops at r = 4, where the dual has 2^15 words
    assume(t < 3 or r <= 4)
    path = tmp_path / "wzl.json"
    run(capsys, "construct", "wzl", "--r", str(r), "--t", str(t), "--out", str(path))
    code, out, err = run(capsys, "verify", "--code", str(path), "--distance",
                         "--availability", "--erasures", str(t), "--trials", "20",
                         "--seed", "1")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["distance"] == t + 1 and report["availability"]["pass"]
    assert report["erasures"]["successes"] == 20


@pytest.mark.parametrize("kind", ["wzl", "raw", "expander"])
def test_column_views_are_the_transposes(tmp_path, capsys, kind):
    path = tmp_path / f"{kind}.json"
    if kind == "wzl":
        run(capsys, "construct", "wzl", "--r", "3", "--t", "2", "--out", str(path))
    elif kind == "raw":
        _raw_gf4_artifact(path)
    else:
        run(capsys, "construct", *COMPOSITE_ARTIFACTS[kind], "--out", str(path))
    doc, code = cli.load_artifact(str(path))
    if kind == "expander":  # the code of the stored expander parity
        code = code.outer
    assert code.parity_columns == code.parity.transpose().data
    assert code.generator_columns == code.generator.transpose().data
    assert code.parity_columns is code.parity_columns
    assert code.generator_columns is code.generator_columns


@pytest.mark.parametrize("argv,exit_code", [
    (["shorten", "--r", "3", "--s", "2"], 0),
    # e = 3 = d: the trials are drawn, not proven by the distance, and the
    # ones that erase a weight-3 codeword fail
    (["verify", "--erasures", "3", "--trials", "50", "--seed", "1"], 1),
], ids=["shorten", "verify-erasures"])
def test_one_run_transposes_each_matrix_of_the_code_once(tmp_path, capsys,
                                                         monkeypatch, argv, exit_code):
    path = tmp_path / "wzl.json"
    run(capsys, "construct", "wzl", "--r", "3", "--t", "2", "--out", str(path))
    transposed = []
    transpose = Matrix.transpose

    def counted(self):
        transposed.append(self)
        return transpose(self)

    monkeypatch.setattr(Matrix, "transpose", counted)
    code, _, _ = run(capsys, argv[0], "--code", str(path), *argv[1:])
    assert code == exit_code
    assert transposed and len(transposed) <= 2
    assert len({id(M) for M in transposed}) == len(transposed)


def test_shorten_reports_sets_and_bounds(tmp_path, capsys):
    path = tmp_path / "wzl.json"
    run(capsys, "construct", "wzl", "--r", "2", "--t", "2", "--out", str(path))
    code, out, _ = run(capsys, "shorten", "--code", str(path),
                       "--r", "2", "--s", "2")
    assert code == 0
    report = json.loads(out)
    assert len(report["I"]) <= 1 + (2 - 1) * 2
    assert len(report["Cl_I"]) >= min(1 + 2 * 2, 6)
    assert report["bounds"]["d_upper"] is not None
    for row in report["per_s"]:
        assert row["size_I"] <= row["k_bound_cap"]
        assert row["size_Cl"] >= min(row["cl_floor"], 6)


def test_shorten_at_r1_walks_no_codeword(tmp_path, capsys, monkeypatch):
    # parity [I_24 | I_24]: k = n - k = 24, so d would cost 2^24 words, and
    # the local checks take the support walk; at r = 1 the report has no
    # bounds and never reads d, so no codeword walk starts
    def no_walk(self):
        raise AssertionError("codeword walk started")

    monkeypatch.setattr(LinearCode, "codewords", no_walk)
    path = tmp_path / "raw.json"
    parity = [[int(j % 24 == i) for j in range(48)] for i in range(24)]
    path.write_text(json.dumps({
        "format_version": "1", "kind": "raw",
        "field": {"w": 1, "m": 1, "modulus": 3, "ext_modulus": None},
        "n": 48, "k": 24, "r": 1, "t": 1, "matrices": {"parity": parity}}))
    code, out, _ = run(capsys, "shorten", "--code", str(path), "--r", "1", "--s", "1")
    assert code == 0
    assert json.loads(out)["bounds"] is None


@pytest.mark.parametrize("r,t,argv", [
    ("7", "2", ["verify", "--distance"]),
    ("5", "3", ["verify", "--distance"]),
    ("7", "2", ["shorten", "--r", "7", "--s", "2"]),
], ids=["verify-wzl72", "verify-wzl53", "shorten-wzl72"])
def test_distance_of_large_wzl_through_the_dual(tmp_path, capsys, r, t, argv):
    # 2^28 and 2^35 codewords, past the budget; 2^8 and 2^21 dual words
    path = tmp_path / "wzl.json"
    run(capsys, "construct", "wzl", "--r", r, "--t", t, "--out", str(path))
    code, out, _ = run(capsys, argv[0], "--code", str(path), *argv[1:])
    assert code == 0
    if argv[0] == "verify":
        assert json.loads(out)["distance"] == int(t) + 1
    else:  # k_upper reads d
        assert json.loads(out)["bounds"]["k_upper"] == shortening_k_bound(36, 3, 7, 2)


def test_macwilliams_fault_is_not_an_input_error(tmp_path, capsys, monkeypatch):
    # a dual walk one word short leaves a remainder in the transform
    path = tmp_path / "wzl.json"
    run(capsys, "construct", "wzl", "--r", "4", "--t", "2", "--out", str(path))
    codewords = LinearCode.codewords
    monkeypatch.setattr(LinearCode, "codewords", lambda self: list(codewords(self))[1:])
    with pytest.raises(ArithmeticError, match="MacWilliams"):
        cli.main(["verify", "--code", str(path), "--distance"])


@pytest.mark.parametrize("r,s,message", [
    ("3", "0", "need s >= 1"),
    ("3", "5", "fewer than s=5 independent local checks; "
               "input is not a valid (r,t)-LRC dual set at this r"),
    ("1", "2", "no local checks available"),
], ids=["s=0", "s-above-rank", "no-checks"])
def test_shorten_input_errors(tmp_path, capsys, r, s, message):
    # WZL(3,2): n - k = 4 independent checks at r = 3, none of weight <= 2
    path = tmp_path / "wzl.json"
    run(capsys, "construct", "wzl", "--r", "3", "--t", "2", "--out", str(path))
    code, out, err = run(capsys, "shorten", "--code", str(path),
                         "--r", r, "--s", s)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_no_command_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


# (argv, file written or None); mixes subcommands, a seeded construct
# before an unseeded one, a usage error and an input error
MIXED_RUNS = [
    ("bounds --n 24 --k 12 --r 3 --t 2", None),
    ("curves --r 5 --t 2 --grid 30 --out curves.csv", "curves.csv"),
    ("construct expander --n 14 --r 6 --t 3 --w 4 --k 4 --min-girth 4 "
     "--seed 7 --out expander.json", "expander.json"),
    ("construct wzl --r 3 --t 2 --out wzl.json", "wzl.json"),
    ("bounds --n 24 --k 12 --r 3", None),
    ("shorten --code wzl.json --r 3 --s 0", None),
    ("curves --r 6 --t 3 --grid 20 --out curves.csv", "curves.csv"),
]


def _mixed_session(capsys, monkeypatch, workdir):
    """Run MIXED_RUNS in order in workdir; (exit code, stdout, stderr, file) each."""
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    results = []
    for argv, written in MIXED_RUNS:
        try:
            code = cli.main(argv.split())
        except SystemExit as exc:
            code = ("exit", exc.code)
        out = capsys.readouterr()
        data = (workdir / written).read_bytes() if written else None
        results.append((code, out.out, out.err, data))
    return results


def test_shared_parser_keeps_calls_independent(tmp_path, capsys, monkeypatch):
    cli.build_parser.cache_clear()
    shared = _mixed_session(capsys, monkeypatch, tmp_path / "shared")
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(MIXED_RUNS) - 1)
    # the same calls, each through a parser of its own
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = _mixed_session(capsys, monkeypatch, tmp_path / "fresh")
    assert shared == fresh
    assert [res[0] for res in shared] == [0, 0, 0, 0, ("exit", 2), 2, 0]
    assert json.loads(shared[2][3])["provenance"]["seed"] == 7
    assert json.loads(shared[3][3])["provenance"]["seed"] is None
