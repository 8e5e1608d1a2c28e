#!/usr/bin/env python3
"""Generate asymptotic rate-vs-distance curve CSVs and report crossovers.

Writes one CSV per (r, t) pair and prints where the expander lower
bound overtakes the concatenated one.
"""

import argparse
from pathlib import Path

from lrcav.bounds import concat_expander_crossover, rate_curves
from lrcav.cli import write_curves_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", nargs="+", default=["6,3", "5,2"],
                    metavar="R,T", help="r,t pairs to tabulate")
    ap.add_argument("--grid", type=int, default=200)
    ap.add_argument("--outdir", type=Path, default=Path("curves_out"))
    args = ap.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    for pair in args.pairs:
        r, t = (int(x) for x in pair.split(","))
        rows = rate_curves(r, t, args.grid)
        path = args.outdir / f"curves_r{r}_t{t}.csv"
        write_curves_csv(rows, path)
        cross = concat_expander_crossover(rows)
        where = f"delta_c ~ {cross:.6g}" if cross is not None else "none"
        print(f"r={r} t={t}: {len(rows)} rows -> {path} (crossover {where})")


if __name__ == "__main__":
    main()
