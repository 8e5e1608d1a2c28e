"""Stdlib references for the draws ``lrcav`` makes straight from ``getrandbits``.

Three draws restate a private CPython loop, ``_randbelow_with_getrandbits``,
so each is checked here against the ``random`` call it replaces:

* shuffles: ``constructions.sample_biregular`` draws its Fisher-Yates
  swaps itself; ``reference`` redraws each case with
  ``random.Random(seed).shuffle`` and the same ``_has_girth`` rejection,
  so the two must give the same graph, or both run out of tries.  A case
  is [n, t, r+1, seed, min_girth, tries], where tries stands in for
  ``SAMPLE_TRIES``.
* samples: ``analysis._range_samples`` against successive
  ``random.Random(seed).sample(range(n), e)`` calls.  A case is
  [n, e, seed, count].
* elements: ``FieldTower.rand`` against m successive ``randrange(q)``
  coordinates.  A case is [w, m, seed, count].

A samples or elements case compares count successive draws and, after
each, the next ``random()`` value, so both leave the generator in the
same state.  Needs only the standard library and ``lrcav``, so any
interpreter can run it:

    PYTHONPATH=src python tests/shuffle_reference.py < cases.json

reads a JSON object mapping each kind to its list of cases and prints the
JSON object mapping each kind to the cases that differ.
"""

from __future__ import annotations

import json
import random
import sys

from lrcav import analysis, constructions
from lrcav.galois import BaseField, FieldTower

# every n <= 64 with every e (the pool branch, and the set branch at
# n > 21 with e <= 5), larger n with e <= 5 (the set branch), and every e
# at n = 100 and 300, where the set size rule for e > 5 picks each branch
SAMPLE_CASES = ([[n, e, 65 * n + e, 3] for n in range(65) for e in range(n + 1)]
                + [[n, e, n + e, 3] for n in (65, 100, 1000, 2**20) for e in range(6)]
                + [[n, e, n + e, 2] for n in (100, 300) for e in range(6, n + 1)])
ELEMENT_SHAPES = [(1, 18), (2, 7), (4, 5), (8, 3), (16, 2)]  # (w, m)
ELEMENT_CASES = [[w, m, seed, 5] for w, m in ELEMENT_SHAPES for seed in range(20)]


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
        return constructions.sample_biregular(n, t, rp1, seed, min_girth)
    except ValueError as exc:
        if not str(exc).startswith(f"no girth>={min_girth} simple sample in {tries} tries"):
            raise
        return None
    finally:
        constructions.SAMPLE_TRIES = saved


def reference_samples(n, e, seed, count):
    rng = random.Random(seed)
    return [(rng.sample(range(n), e), rng.random()) for _ in range(count)]


def drawn_samples(n, e, seed, count):
    rng = random.Random(seed)
    samples = analysis._range_samples(rng.getrandbits, n, e)
    return [(next(samples), rng.random()) for _ in range(count)]


def reference_elements(w, m, seed, count):
    base, rng = BaseField(w), random.Random(seed)
    return [(base.pack([rng.randrange(base.q) for _ in range(m)]), rng.random())
            for _ in range(count)]


def drawn_elements(w, m, seed, count):
    tower, rng = FieldTower(BaseField(w), m), random.Random(seed)
    return [(tower.rand(rng), rng.random()) for _ in range(count)]


PAIRS = {"shuffles": (sampled, reference), "samples": (drawn_samples, reference_samples),
         "elements": (drawn_elements, reference_elements)}


def mismatches(kind, cases):
    drawn, ref = PAIRS[kind]
    return [case for case in cases if drawn(*case) != ref(*case)]


if __name__ == "__main__":
    print(json.dumps({kind: mismatches(kind, cases)
                      for kind, cases in json.load(sys.stdin).items()}))
