"""Ground-truth verification tools.

Everything here is an independent oracle: the exact weight distribution
and minimum distance (from a walk over the smaller of the code and its
dual, with the MacWilliams transform for the dual), backtracking
availability certification, erasure-pattern rank checks, seeded erasure
trials on a linear code (proven by the distance where that is cheaper),
and seeded Monte-Carlo erasure trials against the composite decoder.
"""

from __future__ import annotations

import random
from collections import Counter, namedtuple
from collections.abc import Callable, Iterator, Sequence
from itertools import islice
from math import ceil, log

from . import constructions
from .bounds import rate_cap
from .constructions import (CompositeCode, LinearCode, composite_erasure_decode,
                            encode_composite, survivor_rank)
# rref is unused here, but perfbench traces this module's binding of it
from .linalg import RankTracker, rref  # noqa: F401
from .shortening import enumerate_local_checks

WALK_WORDS_PER_TRIAL = 16  # distance-walk words erasure_trials spends per trial it may save
FULL_DECODE_EVERY = 25  # erasure_monte_carlo trials per full decode; the rest rank only


def weight_distribution(code: LinearCode) -> list[int]:
    """[A_0, ..., A_n]: the number of codewords of each Hamming weight, exactly.

    One Gray walk (``LinearCode.codewords``) over the smaller of the code
    and its dual: the q^k codewords when k <= n - k, ties included, else
    the q^(n-k) words of ``code.dual``, whose weight counts
    ``macwilliams_transform`` turns into the code's.  The q^min(k, n-k)
    words walked are charged to ``constructions.WORK_BUDGET``: WZL(7,2)
    and WZL(5,3) cost 2^8 and 2^21 words.
    """
    f, n, k = code.field, code.n, code.k
    if f.q ** min(k, n - k) > constructions.WORK_BUDGET:
        raise ValueError("codeword enumeration exceeds the budget")
    walked = code if k <= n - k else code.dual
    counts = [0] * (n + 1)
    for weight, count in Counter(map(f.weight, walked.codewords())).items():
        counts[weight] = count
    return counts if walked is code else macwilliams_transform(counts, f.q, n - k)


def macwilliams_transform(counts: Sequence[int], q: int, dim: int) -> list[int]:
    """The weight counts of the dual of a code over GF(q) of dimension dim
    whose weight counts are counts[0..n].

    The MacWilliams identity (MacWilliams 1963; MacWilliams-Sloane ch. 5):
    sum_j A_j z^j = q^-dim sum_i B_i (1 + (q-1)z)^(n-i) (1 - z)^i, summed
    homogeneously (S_i = S_(i-1) (1 + (q-1)z) + B_i (1 - z)^i) in Python
    ints.  A count that q^dim does not divide, or a negative one, means
    the input is no code's distribution: an internal fault, raised as
    ArithmeticError so it never reads as an input error.
    """
    n = len(counts) - 1
    poly, power = [0] * (n + 1), [1] + [0] * n  # S_i and (1 - z)^i
    for i, b in enumerate(counts):
        for j in range(i, 0, -1):
            poly[j] += (q - 1) * poly[j - 1]
            power[j] -= power[j - 1]
        if b:
            for j in range(i + 1):
                poly[j] += b * power[j]
    size, out = q**dim, []
    for c in poly:
        a, rem = divmod(c, size)
        if rem or a < 0:
            raise ArithmeticError(f"MacWilliams transform left {c} / {size}")
        out.append(a)
    return out


def min_distance(code: LinearCode) -> int:
    """Exact minimum distance: the least j > 0 with A_j > 0 in
    ``weight_distribution`` (same budget, charged q^min(k, n-k))."""
    if code.k == 0:
        raise ValueError("the zero code has no minimum distance")
    counts = weight_distribution(code)
    return next(j for j in range(1, code.n + 1) if counts[j])


class AvailabilityReport:
    """Per coordinate, its t disjoint recovering sets or its place in
    failed_coordinates."""

    def __init__(self, recovering_sets: dict[int, list[set[int]]],
                 failed_coordinates: list[int]):
        self.recovering_sets = recovering_sets
        self.failed_coordinates = failed_coordinates

    @property
    def ok(self) -> bool:
        return not self.failed_coordinates


def verify_availability(code: LinearCode, r: int, t: int) -> AvailabilityReport:
    """Search t pairwise disjoint recovering sets of size <= r per coordinate."""
    checks = enumerate_local_checks(code, r)
    per_coord: dict[int, list[list[int]]] = {i: [] for i in range(code.n)}
    for supp in checks.supports():
        for i in supp:
            per_coord[i].append([j for j in supp if j != i])

    report = AvailabilityReport({}, [])
    for i in range(code.n):
        candidates = per_coord[i]
        found = _disjoint_sets(candidates, t)
        if found is None:
            report.failed_coordinates.append(i)
        else:
            report.recovering_sets[i] = [set(s) for s in found]
    return report


def _disjoint_sets(candidates: list[list[int]], t: int) -> list[list[int]] | None:
    """Backtracking search for t pairwise disjoint candidate sets."""
    chosen: list[list[int]] = []
    used: set[int] = set()

    def rec(start: int) -> bool:
        if len(chosen) == t:
            return True
        for idx in range(start, len(candidates)):
            c = candidates[idx]
            if used.isdisjoint(c):
                chosen.append(c)
                used.update(c)
                if rec(idx + 1):
                    return True
                chosen.pop()
                used.difference_update(c)
        return False

    return chosen if rec(0) else None


def erasure_correctable(code: LinearCode, erased: Sequence[int]) -> bool:
    """True iff no nonzero codeword is supported inside the erased set."""
    erased = set(erased)
    if not all(0 <= j < code.n for j in erased):
        raise ValueError("erased coordinates must lie in [0, n)")
    # the parity's columns on the erased coordinates independent <=> correctable
    columns, tracker = code.parity_columns, RankTracker(code.field)
    return all(tracker.add(columns[j]) for j in erased)


def erasure_trials(code: LinearCode, e: int, trials: int, seed: int,
                   distance: int | None = None) -> int:
    """How many of `trials` seeded e-erasure patterns the code corrects.

    The patterns are ``random.Random(seed)``'s successive
    ``sample(range(n), e)`` draws, written out by ``_range_samples``, each
    checked by ``erasure_correctable``.
    The count is proven without drawing any of them where it can be:
    a linear code corrects every pattern of fewer than d erasures
    (MacWilliams-Sloane ch. 1), and the zero code (k = 0) every pattern,
    so then every trial succeeds.  d is `distance` when the caller has
    it already (one walk per run), else ``min_distance``'s, taken only
    when its q^min(k, n-k) words are at most WALK_WORDS_PER_TRIAL per
    trial and within ``constructions.WORK_BUDGET``.  At e >= d, or when
    the walk costs more, the trials are drawn and checked, so the count
    is the same either way.

    The cost rule rests on measured costs (Python 3.11, 2-vCPU VM): a
    sampled trial takes 4.0-4.7 us on WZL(3,2) to WZL(4,3), and a walked
    word 0.15-0.17 us (1,024 words of WZL(3,3) in 0.16 ms, 2^15 of
    WZL(4,3) in 5.7 ms).  At 16 words per trial a walk that proves
    nothing (e >= d) adds about 60% to the trials' time, while at
    e < d it replaces them: WZL(3,3) at 200 trials walks 2^10 words,
    WZL(4,3) (2^15) and WZL(5,3) (2^21) keep sampling.
    """
    if not 0 <= e <= code.n:
        raise ValueError("need 0 <= e <= n")
    if trials < 1:
        raise ValueError("need trials >= 1")
    if code.k == 0:
        return trials
    walk = code.field.q ** min(code.k, code.n - code.k)
    if distance is None and walk <= min(WALK_WORDS_PER_TRIAL * trials,
                                        constructions.WORK_BUDGET):
        distance = min_distance(code)
    if distance is not None and e < distance:
        return trials
    patterns = _range_samples(random.Random(seed).getrandbits, code.n, e)
    return sum(erasure_correctable(code, erased) for erased in islice(patterns, trials))


def _range_samples(draw: Callable[[int], int], n: int, e: int) -> Iterator[list[int]]:
    """Successive ``rng.sample(range(n), e)`` lists, where draw is
    ``rng.getrandbits``: the same draws, so the same lists, and rng is
    left as ``sample`` leaves it.  0 <= e <= n.

    CPython's ``Random.sample`` (the same on 3.10-3.13) written out.  It
    keeps a pool of the values not yet picked when an n-entry list is
    smaller than an e-entry set, n <= setsize = 21 (+ 4^ceil(log_4(3e))
    when e > 5), and otherwise the set of values picked, redrawing a
    repeat.  Each pick below a bound is ``_randbelow_with_getrandbits``:
    getrandbits(k) with k = bound.bit_length(), redrawn while >= bound.
    Inline, with the bounds and their k taken once for every list,
    because ``sample``'s checks and per-pick ``_randbelow`` calls cost
    about as much as the rank test of a composite trial (5.1 and 5.4 us
    at n = 30, e = 14, against 2.0 us for a list drawn here; CPython
    3.11, 2-vCPU VM).  A list is drawn only when it is asked for, so
    other draws from rng between two lists fall between them, as between
    two ``sample`` calls.
    """
    setsize = 21
    if e > 5:
        setsize += 4 ** ceil(log(e * 3, 4))
    if n <= setsize:
        steps = [(size, size.bit_length()) for size in range(n, n - e, -1)]
        while True:
            pool, picked = list(range(n)), []
            for size, k in steps:
                j = draw(k)
                while j >= size:
                    j = draw(k)
                picked.append(pool[j])
                pool[j] = pool[size - 1]  # the last unpicked value fills the gap
            yield picked
    k = n.bit_length()
    while True:
        seen = {}  # a dict keeps the picks in order
        for _ in range(e):
            j = draw(k)
            while j >= n or j in seen:
                j = draw(k)
            seen[j] = None
        yield list(seen)


def partial_block_rank_bound(e: int, r: int, t: int) -> int:
    """Lower bound on the rank of an e-column submatrix of a WZL parity."""
    if r < 2:
        raise ValueError("need r >= 2")
    if e < 0:
        raise ValueError("need e >= 0")
    if e <= t:
        return e
    return max(ceil((1 - rate_cap(r - 1, t)) * e), t)


def concatenated_dimension(n: int, d: int, r: int, t: int) -> int:
    """Guaranteed dimension of the concatenated code at target distance d."""
    n_i, k_i = constructions.wzl_size(r, t)
    if n % n_i != 0:
        raise ValueError("n must be a multiple of the inner length")
    if not (1 <= d <= n):
        raise ValueError("need 1 <= d <= n")
    full = (n - d + 1) // n_i
    e_i = (n - d + 1) % n_i
    return k_i * full + k_i - e_i + partial_block_rank_bound(e_i, r, t)


class ErasureTrialStats(namedtuple("ErasureTrialStats", "trials successes min_survivor_rank "
                                   "adversarial_success", defaults=(None,))):
    """A Monte-Carlo run's counts, compared by value.  The verify report
    prints its fields; adversarial_success is None where no adversarial
    pattern is tried (an expander code)."""

    __slots__ = ()

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials  # erasure_monte_carlo runs >= 1 trial


def _trial(code: CompositeCode, erased: Sequence[int], rng: random.Random,
           full_decode: bool) -> tuple[bool, int]:
    erased = set(erased)
    survivors = [j for j in range(code.n) if j not in erased]
    rank = survivor_rank(code, survivors)
    if not full_decode:
        return rank >= code.k, rank
    message = [code.tower.rand(rng) for _ in range(code.k)]
    cw = encode_composite(code, message)
    decoded = composite_erasure_decode(code, [(j, cw[j]) for j in survivors])
    ok = decoded is not None and decoded == message
    return ok, rank

def erasure_monte_carlo(code: CompositeCode, e: int, trials: int,
                        seed: int) -> ErasureTrialStats:
    """Random e-erasure trials; every FULL_DECODE_EVERY-th trial runs the full
    interpolation round-trip, the rest use the survivor-rank criterion
    (which the decoder succeeds on exactly)."""
    if not (0 <= e < code.n):
        raise ValueError("need 0 <= e < n")
    if trials < 1:
        raise ValueError("need trials >= 1")
    rng = random.Random(seed)
    successes, min_rank = 0, code.n  # a survivor rank is at most n_G <= n
    # range(trials) first: zip stops there without drawing one more pattern
    for trial, erased in zip(range(trials), _range_samples(rng.getrandbits, code.n, e)):
        ok, rank = _trial(code, erased, rng, full_decode=trial % FULL_DECODE_EVERY == 0)
        successes += ok
        min_rank = min(min_rank, rank)
    adversarial = None
    if code.blocks is not None:
        # a concatenated code: block b holds coordinates [b*n_I, (b+1)*n_I),
        # so the first e coordinates cover whole inner blocks first
        adversarial, rank = _trial(code, list(range(e)), rng, full_decode=True)
        min_rank = min(min_rank, rank)
    return ErasureTrialStats(trials, successes, min_rank, adversarial)
