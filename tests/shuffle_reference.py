"""``random.shuffle`` reference for ``constructions.sample_biregular``.

The sampler draws its Fisher-Yates swaps straight from ``getrandbits``;
this module redraws each case with ``random.Random(seed).shuffle`` and the
same ``_has_girth`` rejection, so the two must give the same graph, or both
run out of tries.  A case is [n, t, r+1, seed, min_girth, tries], where
tries stands in for ``SAMPLE_TRIES``.  Needs only the standard library and
``lrcav``, so any interpreter can run it:

    PYTHONPATH=src python tests/shuffle_reference.py < cases.json

reads a JSON list of cases and prints the JSON list of those that differ.
"""

from __future__ import annotations

import json
import random
import sys

from lrcav import constructions


def reference(n, t, rp1, seed, min_girth, tries):
    """The accepted adjacency, or None when no shuffle in tries passes."""
    rng = random.Random(seed)
    stubs = [c for c in range(n * t // rp1) for _ in range(rp1)]
    for _ in range(tries):
        rng.shuffle(stubs)
        if constructions._has_girth(zip(*[iter(stubs)] * t), min_girth):
            return [sorted(stubs[v * t:(v + 1) * t]) for v in range(n)]
    return None


def sampled(n, t, rp1, seed, min_girth, tries):
    """``sample_biregular``'s adjacency with SAMPLE_TRIES = tries, or None
    when it runs out of tries."""
    saved, constructions.SAMPLE_TRIES = constructions.SAMPLE_TRIES, tries
    try:
        return constructions.sample_biregular(n, t, rp1, seed, min_girth).adj
    except ValueError as exc:
        if not str(exc).startswith(f"no girth>={min_girth} simple sample in {tries} tries"):
            raise
        return None
    finally:
        constructions.SAMPLE_TRIES = saved


def mismatches(cases):
    return [case for case in cases if sampled(*case) != reference(*case)]


if __name__ == "__main__":
    print(json.dumps(mismatches(json.load(sys.stdin))))
