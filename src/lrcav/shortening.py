"""Shortening machinery for availability codes.

A local check is a dual codeword of weight at most r+1; its support
minus any one coordinate is a recovering set for that coordinate.  The
greedy set builder accumulates linearly independent local checks,
preferring checks that overlap the already-covered coordinates, and
derives for each count s of them a coordinate set I whose closure
contains every covered coordinate.  The bounds this construction
proves are evaluated in ``bounds``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from itertools import combinations, product
from math import comb

from . import constructions
from .constructions import LinearCode
from .linalg import Matrix, RankTracker, nullspace


class LocalCheckSet:
    """Dual codewords of code of weight <= r+1, packed, deduplicated,
    leading entry 1, over the code's field and of its length n."""

    def __init__(self, code: LinearCode, r: int, checks: list[int]):
        self.code, self.r, self.checks = code, r, checks

    @property
    def dual_dim(self) -> int:
        """n - k, the dimension of the dual code the checks lie in, so no
        set of them has a larger rank."""
        return self.code.n - self.code.k

    def supports(self) -> list[tuple[int, ...]]:
        unpack, n = self.code.field.unpack, self.code.n
        return [tuple(i for i, x in enumerate(unpack(h, n)) if x) for h in self.checks]


def _projective_points(q: int, d: int):
    """Coefficient vectors of length d over GF(q) whose first nonzero is 1."""
    for lead in range(d):
        for tail in product(range(q), repeat=d - lead - 1):
            yield (0,) * lead + (1,) + tail


def enumerate_local_checks(code: LinearCode, r: int) -> LocalCheckSet:
    """All dual codewords of weight <= r+1, by the cheaper of two exact walks.

    The span walk visits each of the dual code's q^(n-k) words once; the
    per-support walk costs about C(n, r+1) * (r+1)^3 for its nullspaces,
    plus one word per projective point of each support's dual words.
    The walk with the smaller up-front cost runs, and
    ``constructions.WORK_BUDGET`` bounds that cost (and, on the
    per-support walk, the points as they are counted).  Both list the
    checks in the same order: by the first (r+1)-support in
    ``combinations`` order that holds the check, then by its projective
    point on that support's nullspace basis.
    """
    n, q = code.n, code.field.q
    w = min(r + 1, n)
    walk, per_support = q ** (n - code.k), comb(n, w) * (r + 1) ** 3
    cost, budget = min(walk, per_support), constructions.WORK_BUDGET
    if cost > budget:
        raise ValueError(f"local-check enumeration cost {cost} exceeds budget {budget}")
    if walk <= per_support:
        checks = _span_checks(code, w)
    else:
        checks = _support_checks(code, w, cost)
    return LocalCheckSet(code, r, checks)


def _span_checks(code: LinearCode, w: int) -> list[int]:
    """The checks of weight <= w from one Gray walk over ``code.dual``,
    which the code keeps, so a distance walk in the same run reuses it.

    The kept words are those whose lowest nonzero coordinate is 1, sorted
    into the per-support walk's order: a check first appears on the first
    w-support S that holds it (its support plus the lowest coordinates
    outside it), as the projective point given by its coordinates on the
    free columns of S (the columns of the generator on S in the span of
    the earlier ones), compared by lead index, then by the tail.
    """
    f, n = code.field, code.n
    fw, mask = f.w, f.q - 1
    checks = [h for h in code.dual.codewords()
              if h and f.weight(h) <= w
              and h >> ((h & -h).bit_length() - 1) // fw * fw & mask == 1]
    columns = code.generator_columns
    free_columns = {}

    def order(h):
        values = f.unpack(h, n)
        outside = [j for j, x in enumerate(values) if not x]
        support = tuple(sorted([j for j, x in enumerate(values) if x]
                               + outside[:w - (n - len(outside))]))
        if support not in free_columns:
            tracker = RankTracker(f)
            free_columns[support] = [i for i, j in enumerate(support)
                                     if not tracker.add(columns[j])]
        point = [values[support[i]] for i in free_columns[support]]
        lead = next(i for i, x in enumerate(point) if x)
        scale = f.inv(point[lead])
        return support, lead, [f.mul(scale, x) for x in point[lead + 1:]]

    checks.sort(key=order)
    return checks


def _support_checks(code: LinearCode, w: int, cost: int) -> list[int]:
    """The checks of weight <= w from one nullspace per w-support.

    The dual words supported inside a w-support are the span of its
    nullspace; one word per projective point of that span is walked, so
    every check appears up to scaling.  cost, the work charged so far,
    grows by each span's point count and may not pass
    ``constructions.WORK_BUDGET``.
    """
    n, f, budget = code.n, code.field, constructions.WORK_BUDGET
    rows = code.generator.data
    fw, mask = f.w, f.q - 1
    seen = set()
    checks: list[int] = []
    for support in combinations(range(n), w):
        shifts = [j * fw for j in support]
        # the generator's columns on the support, as coordinates 0..w-1
        cols = [sum((row >> s & mask) << (i * fw) for i, s in enumerate(shifts))
                for row in rows]
        basis = nullspace(Matrix(f, w, cols))
        cost += (f.q ** len(basis) - 1) // (f.q - 1)
        if cost > budget:
            raise ValueError(f"local-check enumeration exceeds budget {budget}")
        for coeffs in _projective_points(f.q, len(basis)):
            h = 0
            for c, v in zip(coeffs, basis):
                if c:
                    h ^= f.scalar_mul(c, v)
            h = f.normalize(h)
            # coordinate i of h sits at support[i]
            h = sum((h >> (i * fw) & mask) << s for i, s in enumerate(shifts))
            if h not in seen:
                seen.add(h)
                checks.append(h)
    return checks


def closure(code: LinearCode, I: Sequence[int]) -> set[int]:
    """Coordinates determined by the values on I.

    Coordinate j is determined iff the generator's column j lies in the
    span of its columns on I.
    """
    columns = code.generator_columns
    tracker = RankTracker(code.field)
    for i in I:
        tracker.add(columns[i])
    return {j for j, col in enumerate(columns) if not tracker.reduce(col)}


# the greedy pass at s, a value: the checks X picked so far, the set I,
# the covered coordinates J and the step counters (s1, j)
ShorteningResult = namedtuple("ShorteningResult", "X I J s s1 j")


def build_shortening_set(checks: LocalCheckSet) -> list[ShorteningResult]:
    """One greedy pass over the local checks; entry s-1 is the result for s.

    Checks are picked by largest overlap with the covered set J (ties by
    lowest index).  A zero-overlap pick starts a fresh component: the
    step counters (s1, j) are recorded at its first occurrence.  The
    pick that raises the rank of the picked checks X to s closes the
    result for s, and the pass stops when that rank reaches ``dual_dim``,
    the most it can be, or no check is left.  I is J
    minus the pivot columns of X, padded up to 1+(r-1)s coordinates; all
    removed coordinates are recoverable from I through the checks, so
    Cl(I) covers J.  On the WZL codes |I| <= 1+(r-1)s and |Cl(I)| >=
    min(1+rs, n), the sizes the shortening bound needs
    (``tests/test_shortening.py``).

    Each check's overlap with J is kept as a count, raised by one for
    every check containing a coordinate as it joins J, and the checks
    sit in one min-heap of indices per overlap value (an entry whose
    count has since moved is skipped when it surfaces).  A pick is then
    the lowest index of the highest non-empty heap, so the pass costs
    about the checks' total support size times a heap step, not a scan
    of every remaining check per pick.
    """
    if not checks.checks:
        raise ValueError("no local checks available")
    from heapq import heappop, heappush  # here, as logging is: off the import path
    n, r, dual_dim = checks.code.n, checks.r, checks.dual_dim
    supports = checks.supports()
    containing: list[list[int]] = [[] for _ in range(n)]
    for idx, sup in enumerate(supports):
        for c in sup:
            containing[c].append(idx)
    overlap = [0] * len(supports)  # |J & support|, -1 once picked
    buckets: list[list[int]] = [[] for _ in range(max(map(len, supports)) + 1)]
    buckets[0] = list(range(len(supports)))  # sorted, so already a heap
    tracker = RankTracker(checks.code.field)
    X: list[int] = []
    J: set[int] = set()
    s1 = j_rec = 0
    results: list[ShorteningResult] = []
    for _ in supports:  # one pick per check, until none is left
        if tracker.rank == dual_dim:
            break
        for v in range(len(buckets) - 1, -1, -1):
            heap = buckets[v]
            while heap and overlap[heap[0]] != v:
                heappop(heap)
            if heap:
                break
        best = heappop(heap)
        overlap[best] = -1
        if J and not s1 and not v:
            s1, j_rec = tracker.rank, len(X)
        X.append(checks.checks[best])
        for c in supports[best]:
            if c not in J:
                J.add(c)
                for idx in containing[c]:
                    if overlap[idx] >= 0:
                        overlap[idx] += 1
                        heappush(buckets[overlap[idx]], idx)
        if not tracker.add(checks.checks[best]):
            continue
        s = tracker.rank
        pivots = sorted(tracker.basis)
        I = sorted(J.difference(pivots))
        pad = 1 + (r - 1) * s - len(I)
        if pad > 0:
            # fresh (uncovered) coordinates first so the closure keeps growing
            fresh = [c for c in range(n) if c not in J]
            I = sorted(I + (fresh + pivots)[:pad])
        results.append(ShorteningResult(X=list(X), I=I, J=sorted(J), s=s,
                                        s1=s1, j=j_rec))
    return results
