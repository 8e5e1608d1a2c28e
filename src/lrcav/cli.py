"""Command-line surface: bounds | curves | construct | verify | shorten.

Owns the on-disk formats: JSON code artifacts (format_version "1") and
the CSV curve table with header
``delta,upper_new,upper_tbf,lower_expander,lower_concat,rate_cap``.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import analysis, bounds, constructions, shortening
from .galois import BaseField, FieldTower
from .linalg import Matrix

FORMAT_VERSION = "1"


class InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# artifact serialization
# ---------------------------------------------------------------------------

def to_artifact(code, kind: str, r, t, provenance) -> dict:
    """The artifact of a LinearCode or CompositeCode, each fact once.

    A linear code stores its parity.  A composite stores its tower, its
    outer code's generator (outer_map) and n_G, and either the inner
    sizes (concat) or the outer parity it is built from (expander).
    """
    doc = _artifact(code, kind, r, t, provenance)
    doc["matrices"] = {key: M.to_lists() for key, M in doc["matrices"].items()}
    return doc


def _artifact(code, kind: str, r, t, provenance) -> dict:
    """``to_artifact``'s document with its matrices left as Matrix objects."""
    linear = isinstance(code, constructions.LinearCode)
    base = code.field if linear else code.tower.base
    doc = {"format_version": FORMAT_VERSION, "kind": kind,
           "field": {"w": base.w, "modulus": base.modulus,
                     "m": 1 if linear else code.tower.m,
                     "ext_modulus": None if linear else list(code.tower.ext_modulus)},
           "n": code.n, "k": code.k, "r": r, "t": t, "provenance": provenance}
    if linear:
        doc["matrices"] = {"parity": code.parity}
    elif kind == "concat":
        doc["matrices"] = {"outer_map": code.outer.generator}
        doc["params"] = {"n_G": code.n_g, "blocks": code.blocks,
                         "n_I": code.n // code.blocks, "k_I": code.n_g // code.blocks}
    else:
        doc["matrices"] = {"outer_map": code.outer.generator, "parity": code.outer.parity}
        doc["params"] = {"n_G": code.n_g}
    return doc


def save_artifact(doc: dict, path: str) -> None:
    try:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write artifact: {exc}")


def _count(obj, key: str) -> int:
    val = obj.get(key) if isinstance(obj, dict) else None
    if type(val) is not int or val < 0:
        raise InputError(f"artifact needs a non-negative integer {key!r}")
    return val


def _base_rows(rows, q: int) -> list:
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(type(v) is int and 0 <= v < q for v in row)
            for row in rows):
        raise InputError(f"artifact matrix rows must hold integers in [0, {q})")
    return rows


def _check_rebuild(doc: dict, rebuilt: dict) -> None:
    """Each fact the rebuilt code's artifact (``_artifact``) states must
    equal doc's copy: n, k, every field fact, matrix and param, and the
    provenance parity an older expander artifact holds.

    A stored parity is the matrix the code was rebuilt from, so it is not
    compared with itself; a derived matrix (outer_map) is compared as lists.
    """
    pairs = [(key, doc[key] == rebuilt[key]) for key in ("n", "k")]
    for group in ("field", "matrices", "params"):
        stored = doc.get(group)
        stored = stored if isinstance(stored, dict) else {}
        for key, val in rebuilt.get(group, {}).items():
            if group != "matrices":
                pairs.append((key, stored.get(key) == val))
            elif key != "parity":
                pairs.append((key, stored.get(key) == val.to_lists()))
    prov = doc.get("provenance")
    if isinstance(prov, dict) and prov.get("parity") is not None:
        source = doc["matrices"]["parity"] if "parity" in rebuilt["matrices"] else None
        pairs.append(("provenance parity", prov["parity"] == source))
    stale = [key for key, same in pairs if not same]
    if stale:
        raise InputError("stored data disagree with the code rebuilt from the "
                         f"artifact: {', '.join(stale)}")


def load_artifact(path: str):
    """Returns (doc, code) where code is a LinearCode or CompositeCode.

    The schema is checked here, so any malformed artifact is an InputError:
    a JSON object with the keys its kind reads, non-negative integer sizes
    and base-field matrices of integers in [0, q).  The code is rebuilt
    from its parameters (concat) or stored parity (the other kinds), and
    every fact ``to_artifact`` writes for the rebuilt code must equal the
    stored one (``_check_rebuild``).
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"cannot load artifact: {exc}")
    if not isinstance(doc, dict):
        raise InputError("artifact must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise InputError("unsupported artifact format version")
    kind = doc.get("kind")
    if kind not in ("wzl", "raw", "concat", "expander"):
        raise InputError(f"unknown artifact kind {kind!r}")
    f, mats = doc.get("field"), doc.get("matrices")
    if not isinstance(mats, dict) or (kind != "concat" and "parity" not in mats):
        raise InputError("artifact lacks its matrices")
    for key in ("n", "k", "r", "t"):
        _count(doc, key)
    base, m = BaseField(_count(f, "w")), _count(f, "m")
    for rows in mats.values():
        _base_rows(rows, base.q)
    if kind in ("wzl", "raw"):
        code = constructions.LinearCode.from_parity(
            Matrix.from_rows(base, mats["parity"], doc["n"]))
    else:
        tower = FieldTower(base, m, _base_rows([f.get("ext_modulus")], base.q)[0])
        if kind == "concat":
            code = constructions.assemble_concatenated(
                tower, doc["r"], doc["t"], _count(doc.get("params"), "blocks"), doc["k"])
        else:
            parity = Matrix.from_rows(base, mats["parity"], doc["n"])
            code = constructions.assemble_expander_code(tower, parity, doc["k"])
    _check_rebuild(doc, _artifact(code, kind, doc["r"], doc["t"], None))
    return doc, code


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_bounds(args) -> int:
    n, k, r, t, q = args.n, args.k, args.r, args.t, args.q
    if not 1 <= k <= n or r < 1 or t < 1:
        raise InputError("bounds need 1 <= k <= n, r >= 1 and t >= 1")
    if q < 2:
        raise InputError("bounds need q >= 2")
    print(f"bounds for [n={n}, k={k}] with locality r={r}, availability t={t}, q={q}")
    rows = [
        ("wang_rawat", "Wang-Rawat distance bound",
         bounds.wang_rawat_distance(n, k, r, t)),
        ("tbf", "Tamo-Barg-Frolov distance bound",
         bounds.tbf_distance(n, k, r, t)),
        ("yaakobi", "Yaakobi bound (Singleton oracle)",
         bounds.yaakobi_distance(n, k, r, t, q)),
    ]
    if r >= 2 and k >= 2:
        # the shortening bound holds for codes with availability t >= 2 only
        if t >= 2:
            singleton = bounds.shortening_singleton_distance(n, k, r)
            sweep = bounds.shortening_d_bound(n, k, r, q)
        else:
            singleton = sweep = "n/a (needs t >= 2)"
        rows.append(("shortening_singleton", "shortening bound, Singleton form",
                     singleton))
        rows.append(("shortening_sweep", "shortening bound, oracle sweep", sweep))
    cap = bounds.rate_cap(r, t)
    cap_n = f"{cap} * n = {float(cap) * n:.3f}"
    rows.append(("rate_cap_k", "rate-product cap on k", cap_n))
    if k > cap * n:
        rows.append(("infeasible", "k above the rate cap: no such code",
                     f"k = {k} > {cap_n}"))
    for name, label, val in rows:
        print(f"  {name:22s} {label:38s} {val}")
    return 0


def write_curves_csv(rows, path) -> None:
    """Write rate_curves rows as the curve CSV table (12 significant digits)."""
    lines = [",".join(bounds.CurveRow._fields)]
    lines += [",".join(f"{v:.12g}" for v in row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_curves(args) -> int:
    rows = bounds.rate_curves(args.r, args.t, args.grid)
    try:
        write_curves_csv(rows, args.out)
    except OSError as exc:
        raise InputError(f"cannot write curves CSV: {exc}")
    cross = bounds.concat_expander_crossover(rows)
    if cross is None:
        print("no concat/expander crossover on the grid")
    else:
        print(f"concat/expander crossover near delta = {cross:.6g}")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_construct(args) -> int:
    parameters = {"r": args.r, "t": args.t}
    if args.subkind == "wzl":
        code = constructions.build_wzl(args.r, args.t)
    else:
        if args.subkind == "concat":
            # before the --k/--d check, so a run with both faults reports the
            # missing block
            if args.blocks < 1:
                raise InputError("need at least one block")
            if args.k is None and args.d is None:
                raise InputError("concat needs --k or a target --d")
            inner = constructions.build_wzl(args.r, args.t)
            k = args.k if args.k is not None else analysis.concatenated_dimension(
                args.blocks * inner.n, args.d, args.r, args.t)
            # the tower, sized off the inner code, comes before the
            # block-diagonal, whose rows grow as blocks^2: a default m past
            # the tower cap is refused here, a larger n_G by block_diagonal
            tower = FieldTower(inner.field,
                               args.m if args.m is not None else args.blocks * inner.k)
            outer = constructions.block_diagonal(tower.base, inner, args.blocks)
            parameters.update(blocks=args.blocks, d=args.d)
        else:
            base = BaseField(args.w)  # before sampling, so a bad --w fails at once
            g = constructions.sample_biregular(args.n, args.t, args.r + 1, args.seed,
                                               min_girth=args.min_girth)
            parity = constructions.build_expander_parity(g, base, args.seed + 1)
            # the outer code is built once: it sizes the tower and is the composite's
            outer = constructions.LinearCode.from_parity(parity)
            k = args.k if args.k is not None else max(outer.k // 2, 1)
            tower = FieldTower(base, args.m if args.m is not None else outer.k)
            parameters.update(n=args.n, w=args.w)
        code = constructions.CompositeCode(tower, outer, k, getattr(args, "blocks", None))
        parameters.update(k=k, m=tower.m)
    provenance = {"seed": getattr(args, "seed", None), "parameters": parameters}
    save_artifact(to_artifact(code, args.subkind, args.r, args.t, provenance), args.out)
    print(f"wrote {args.subkind} artifact n={code.n} k={code.k} to {args.out}")
    return 0


def cmd_verify(args) -> int:
    if not (args.distance or args.availability or args.erasures is not None):
        raise InputError("verify needs --distance, --availability or --erasures")
    if args.erasures is not None and args.trials < 1:
        raise InputError("--erasures needs --trials >= 1")
    if args.erasures is not None and args.seed is None:
        raise InputError("--erasures requires --seed")
    doc, code = load_artifact(args.code)
    # the kind rule, once: a linear code may lose all n coordinates, a
    # composite fewer; only a linear code has an exact distance and
    # availability oracle
    linear = isinstance(code, constructions.LinearCode)
    if args.erasures is not None and not 0 <= args.erasures < code.n + linear:
        raise InputError("need 0 <= e <= n" if linear else "need 0 <= e < n")
    if not linear and (args.distance or args.availability):
        flag = "--distance" if args.distance else "--availability"
        raise InputError(f"{flag} applies to linear-code artifacts")
    report = {"artifact": args.code, "kind": doc["kind"]}
    failed = False
    if args.distance:
        report["distance"] = d = analysis.min_distance(code)
        failed = d != doc["t"] + 1 and doc["kind"] == "wzl"
    if args.availability:
        rep = analysis.verify_availability(code, doc["r"], doc["t"])
        report["availability"] = {
            "pass": rep.ok,
            "witness_sets": {str(i): [sorted(s) for s in v]
                             for i, v in rep.recovering_sets.items()},
            "failed_coordinates": rep.failed_coordinates,
        }
        failed |= not rep.ok
    if args.erasures is not None and linear:
        ok = analysis.erasure_trials(code, args.erasures, args.trials, args.seed,
                                     report.get("distance"))
        report["erasures"] = {"e": args.erasures, "trials": args.trials,
                              "successes": ok, "seed": args.seed}
        failed |= ok != args.trials
    elif args.erasures is not None:
        stats = analysis.erasure_monte_carlo(code, args.erasures,
                                             args.trials, args.seed)
        report["erasures"] = {"e": args.erasures, **stats._asdict(),
                              "success_rate": stats.success_rate, "seed": args.seed}
        failed |= stats.successes != stats.trials or stats.adversarial_success is False
    print(json.dumps(report, indent=1, sort_keys=True))
    return 1 if failed else 0


def cmd_shorten(args) -> int:
    if args.r < 1:
        raise InputError("need r >= 1")
    if args.s < 1:
        raise InputError("need s >= 1")
    doc, code = load_artifact(args.code)
    if not isinstance(code, constructions.LinearCode):
        raise InputError("shorten applies to linear-code artifacts")
    checks = shortening.enumerate_local_checks(code, args.r)
    per_s = shortening.build_shortening_set(checks)
    if args.s > len(per_s):
        raise InputError(f"fewer than s={args.s} independent local checks; "
                         "input is not a valid (r,t)-LRC dual set at this r")
    closures = [shortening.closure(code, res.I) for res in per_s]
    result = per_s[args.s - 1]
    table = [{"s": res.s, "size_I": len(res.I), "size_Cl": len(cl),
              "k_bound_cap": 1 + (args.r - 1) * res.s,
              "cl_floor": 1 + args.r * res.s}
             for res, cl in zip(per_s, closures)]
    q = code.field.q
    out = {
        "I": result.I, "Cl_I": sorted(closures[args.s - 1]), "s": result.s,
        "s1": result.s1, "j": result.j,
        "per_s": table,
        # d is computed only where it is read, so r = 1 walks no codeword
        "bounds": None if args.r < 2 else
            {"k_upper": bounds.shortening_k_bound(code.n, analysis.min_distance(code),
                                                  args.r, q),
             "d_upper": bounds.shortening_d_bound(code.n, code.k, args.r, q)},
    }
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The lrcav parser, built on first use and shared by every later call
    (parse_args leaves it unchanged and returns a fresh namespace)."""
    p = argparse.ArgumentParser(prog="lrcav",
                                description="locally recoverable codes with availability")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="evaluate distance/rate bounds")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--r", type=int, required=True)
    b.add_argument("--t", type=int, required=True)
    b.add_argument("--q", type=int, default=2)
    b.set_defaults(func=cmd_bounds)

    c = sub.add_parser("curves", help="emit rate-vs-distance curves CSV")
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--t", type=int, required=True)
    c.add_argument("--grid", type=int, default=200)
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_curves)

    k = sub.add_parser("construct", help="build a code artifact")
    ks = k.add_subparsers(dest="subkind", required=True)
    kw = ks.add_parser("wzl")
    kw.add_argument("--r", type=int, required=True)
    kw.add_argument("--t", type=int, required=True)
    kw.add_argument("--out", required=True)
    kc = ks.add_parser("concat")
    kc.add_argument("--r", type=int, required=True)
    kc.add_argument("--t", type=int, required=True)
    kc.add_argument("--blocks", type=int, required=True)
    kc.add_argument("--m", type=int)
    kc.add_argument("--d", type=int)
    kc.add_argument("--k", type=int)
    kc.add_argument("--out", required=True)
    ke = ks.add_parser("expander")
    ke.add_argument("--n", type=int, required=True)
    ke.add_argument("--r", type=int, required=True)
    ke.add_argument("--t", type=int, required=True)
    ke.add_argument("--w", type=int, required=True)
    ke.add_argument("--m", type=int)
    ke.add_argument("--k", type=int)
    ke.add_argument("--min-girth", type=int, choices=(4, 6), default=6,
                    help="6 rejects 4-cycles; 4 only rejects parallel edges")
    ke.add_argument("--seed", type=int, required=True)
    ke.add_argument("--out", required=True)
    k.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="verify a code artifact")
    v.add_argument("--code", required=True)
    v.add_argument("--distance", action="store_true")
    v.add_argument("--availability", action="store_true")
    v.add_argument("--erasures", type=int)
    v.add_argument("--trials", type=int, default=1000)
    v.add_argument("--seed", type=int)
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("shorten", help="run the shortening-set construction")
    s.add_argument("--code", required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--s", type=int, required=True)
    s.set_defaults(func=cmd_shorten)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
