#!/usr/bin/env python3
"""Monte-Carlo erasure sweeps for the concatenated and expander codes.

Builds one representative instance of each composite construction and
reports decode success rates over a range of erasure weights.
"""

import argparse

from lrcav.analysis import erasure_monte_carlo
from lrcav.constructions import (assemble_concatenated, assemble_expander_code,
                                 build_expander_parity, sample_biregular)
from lrcav.galois import BaseField, FieldTower
from lrcav.linalg import rref


def sweep(name, code, erasures, trials, seed):
    print(f"{name}: n={code.n} k={code.k} n_G={code.n_g}")
    for e in erasures:
        stats = erasure_monte_carlo(code, e, trials, seed)
        extra = ""
        if stats.adversarial_success is not None:
            extra = f" adversarial={'pass' if stats.adversarial_success else 'FAIL'}"
        print(f"  e={e:3d}  rate={stats.success_rate:6.3f}  "
              f"min_rank={stats.min_survivor_rank:2d}{extra}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    tower = FieldTower(BaseField(1), 18, seed=0)
    concat = assemble_concatenated(tower, 3, 2, blocks=3, k=9)
    sweep("concatenated (r=3, t=2, 3 blocks)", concat,
          [10, 12, 14, 16, 18, 20], args.trials, args.seed)

    g = sample_biregular(14, 3, 7, seed=7, min_girth=4)
    base = BaseField(4)
    parity = build_expander_parity(g, base, seed=7)
    n_g = 14 - rref(parity)[1]
    exp_code = assemble_expander_code(FieldTower(BaseField(4), n_g, seed=1), parity, k=4)
    sweep("expander (n=14, t=3, r+1=7, q=16)", exp_code,
          [4, 6, 8, 9, 10], args.trials, args.seed)


if __name__ == "__main__":
    main()
