"""Code builders: WZL inner codes, expander-based and concatenated composites.

The WZL family is realized as a subset-incidence code: coordinates are
the t-subsets of [r+t], parity checks are indexed by (t-1)-subsets, each
check covering the t-subsets that contain it.  This gives n = C(r+t, t),
dimension n*r/(r+t), distance t+1, and explicit disjoint recovering sets
for every coordinate.

A composite code is its tower, a base-field outer code whose n_G x n
generator G is its own rref, k and, if concatenated, its number of
inner blocks.  The [n_G, k] Gabidulin code at the basis 1, x, ...,
x^(n_G-1) encodes a message, and G expands it to n coordinates, so
coordinate j evaluates the message polynomial at column j of G read as
an extension element: erasure decoding picks k independent surviving
points and interpolates.
"""

from __future__ import annotations

import random
from collections.abc import Collection, Sequence
from functools import cached_property
from itertools import combinations
from math import comb

from .galois import TOWER_SIZE_CAP, BaseField, ExtElement, FieldTower
from .gabidulin import moore_interpolate
from .linalg import Matrix, RankTracker, nullspace, rref


class LinearCode:
    """A code given by a (possibly redundant) parity and a generator of
    full row rank, k x n.  The generator is its own rref when it comes
    from ``from_parity`` or ``block_diagonal`` of such a code; a
    ``dual``'s generator is not.
    The field, n and k are the parity's field, its column count and the
    generator's row count, read off the two matrices.
    """

    def __init__(self, parity: Matrix, generator: Matrix):
        self.parity, self.generator = parity, generator

    @property
    def field(self) -> BaseField:
        return self.parity.field

    @property
    def n(self) -> int:
        return self.parity.cols

    @property
    def k(self) -> int:
        return self.generator.rows

    @classmethod
    def from_parity(cls, parity: Matrix):
        """The code with this parity: its generator is the rref of a
        nullspace basis."""
        generator = rref(Matrix(parity.field, parity.cols, nullspace(parity)))[0]
        return cls(parity, generator)

    @cached_property
    def dual(self) -> LinearCode:
        """The dual code, built once per code: its parity is this generator,
        and its generator is a nullspace basis of it, not reduced to rref,
        as its walks need only a basis."""
        return LinearCode(self.generator,
                          Matrix(self.field, self.n, nullspace(self.generator)))

    @cached_property
    def parity_columns(self) -> list[int]:
        """The parity's columns as packed vectors, transposed once per code."""
        return self.parity.transpose().data

    @cached_property
    def generator_columns(self) -> list[int]:
        """The generator's columns as packed vectors, transposed once per code."""
        return self.generator.transpose().data

    @cached_property
    def rref_view(self) -> tuple[list[int], list[int]]:
        """(lanes, columns) of a generator that is its own rref, read off
        it with no elimination.

        columns is ``generator_columns``; lanes[j] is the lane mask
        (q - 1) << (i*w) when j is row i's pivot column, its lowest
        nonzero lane, and 0 otherwise.  In rref that column is the unit
        vector of lane i, which ``select_independent_survivors`` relies
        on; ``CompositeCode`` refuses a generator for which it is not.
        """
        f = self.field
        lanes = [0] * self.n
        for i, row in enumerate(self.generator.data):
            lanes[((row & -row).bit_length() - 1) // f.w] = (f.q - 1) << (i * f.w)
        return lanes, self.generator_columns

    def codewords(self):
        """All q^k codewords, packed, in Gray order over the generator rows.

        One XOR per word (``BaseField.span``).  Exhaustive: the caller
        charges the q^k words to ``WORK_BUDGET`` before it walks them.
        """
        return self.field.span(self.generator.data)


WZL_SIZE_CAP = 10**5  # largest WZL length n = C(r+t, t) that build_wzl builds
# steps any one exhaustive walk may take: a word of a span walk, a subset of
# check_expansion, (r+1)^3 per support plus its points in the support walk;
# each walk reads it when called, so setting it here moves every limit
WORK_BUDGET = 10**8


def build_wzl(r: int, t: int) -> LinearCode:
    """Binary code with availability t and locality r via subset incidence."""
    if r < 1 or t < 1:
        raise ValueError("need r >= 1 and t >= 1")
    n = comb(r + t, t)
    if n > WZL_SIZE_CAP:
        raise ValueError(f"n = C(r+t, t) = {n} exceeds the size cap {WZL_SIZE_CAP}")
    universe = list(range(r + t))
    coords = list(combinations(universe, t))
    index = {c: i for i, c in enumerate(coords)}
    f2 = BaseField(1)
    rows = [sum(1 << index[tuple(sorted(s + (v,)))] for v in universe if v not in s)
            for s in combinations(universe, t - 1)]
    return LinearCode.from_parity(Matrix(f2, n, rows))


class BipartiteGraph:
    """(t, r+1)-biregular bipartite graph; adjacency by left vertex."""

    def __init__(self, n_right: int, adj: list[list[int]]):
        self.n_right, self.adj = n_right, adj

    @property
    def n_left(self) -> int:
        return len(self.adj)

    def right_adjacency(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n_right)]
        for v, nbrs in enumerate(self.adj):
            for c in nbrs:
                out[c].append(v)
        return out


def _has_girth(adj, min_girth: int) -> bool:
    """Is the graph with these left adjacencies simple and, at min_girth 6,
    free of 4-cycles?  Stops at the first offending left vertex.

    Walks the left vertices in order: a pair of equal rights is a repeated
    edge, and a right pair already met at an earlier left vertex closes a
    4-cycle.
    """
    seen = set()
    for nbrs in adj:
        for pair in combinations(sorted(nbrs), 2):
            if pair[0] == pair[1] or pair in seen:
                return False
            if min_girth == 6:
                seen.add(pair)
    return True


SAMPLE_TRIES = 10**4  # configuration-model shuffles sample_biregular draws at most


def sample_biregular(n: int, t: int, rp1: int, seed: int,
                     min_girth: int = 6) -> BipartiteGraph:
    """Configuration-model sample, rejected until simple with girth > 4.

    min_girth=6 (the default) demands no 4-cycles; min_girth=4 only
    rejects parallel edges.  Some dense parameter sets admit no 4-cycle
    free graph at all (n * C(t,2) left pair slots vs C(n_right, 2)
    distinct right pairs), which is what the relaxed setting is for.
    Left vertex v takes the t right stubs at [v*t, (v+1)*t) of each
    shuffle, and a shuffle is rejected at its first offending vertex,
    before any graph is built.  Raises ValueError, as for any other
    unusable parameters, when no sample in SAMPLE_TRIES passes.  The
    number rejected is logged at ``logging.DEBUG`` (logger
    ``lrcav.constructions``).

    Each try is ``random.Random(seed).shuffle`` of the stubs, draw for
    draw: the loop below is CPython's Fisher-Yates with
    ``_randbelow_with_getrandbits`` written out (the same on 3.10-3.13),
    so position i swaps with j = getrandbits(k), redrawn while j > i,
    where k = (i+1).bit_length().  It is inline because the per-element
    ``_randbelow`` method call was two thirds of a shuffle's time, and
    rejection makes thousands of shuffles (3,969 for the girth-6 decode
    graph at n = 20).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if t < 1 or rp1 < 2:
        raise ValueError("need t >= 1 and r+1 >= 2")
    if (n * t) % rp1 != 0:
        raise ValueError("r+1 must divide n*t")
    if min_girth not in (4, 6):
        raise ValueError("min_girth must be 4 or 6")
    n_right = n * t // rp1
    draw = random.Random(seed).getrandbits
    right_stubs = [c for c in range(n_right) for _ in range(rp1)]
    steps = [(i, (i + 1).bit_length()) for i in range(len(right_stubs) - 1, 0, -1)]
    for tries in range(SAMPLE_TRIES):
        for i, k in steps:
            j = draw(k)
            while j > i:
                j = draw(k)
            right_stubs[i], right_stubs[j] = right_stubs[j], right_stubs[i]
        # left vertex v takes the stubs at [v*t, (v+1)*t): t-tuples in order
        if _has_girth(zip(*[iter(right_stubs)] * t), min_girth):
            import logging  # here, as in FieldTower.__init__: off the import path
            logging.getLogger(__name__).debug(
                "sample_biregular(n=%d, t=%d, r+1=%d): rejected %d samples", n, t, rp1, tries)
            return BipartiteGraph(n_right, [sorted(right_stubs[v * t:(v + 1) * t])
                                            for v in range(n)])
    raise ValueError(f"no girth>={min_girth} simple sample in {SAMPLE_TRIES} tries; "
                     "parameters too dense")


def check_expansion(g: BipartiteGraph, alpha, gamma) -> bool:
    """Exhaustively test |Gamma(V')| > t*gamma*|V'| for all |V'| <= alpha*n.

    The walk visits at most sum_(1 <= s <= alpha*n) C(n, s) subsets, one
    step of ``WORK_BUDGET`` each, and that sum is checked before it starts.
    """
    n = g.n_left
    max_size = int(alpha * n)
    subsets = 0
    for size in range(1, max_size + 1):
        subsets += comb(n, size)
        if subsets > WORK_BUDGET:
            raise ValueError("subset count exceeds the exhaustive-check budget")
    t = len(g.adj[0]) if g.adj else 0
    for size in range(1, max_size + 1):
        for sub in combinations(range(n), size):
            if len(set().union(*(g.adj[v] for v in sub))) <= t * gamma * size:
                return False
    return True


def build_expander_parity(g: BipartiteGraph, base: BaseField, seed: int) -> Matrix:
    """One row per right vertex, random nonzero entries on incident lefts."""
    rng = random.Random(seed)
    rows = []
    for nbrs in g.right_adjacency():
        row = [0] * g.n_left
        for v in nbrs:
            row[v] = rng.randrange(1, base.q)
        rows.append(row)
    return Matrix.from_rows(base, rows, g.n_left)


class CompositeCode:
    """An [n_G, k] Gabidulin code pushed through a base-field outer code's generator.

    The code is (tower, outer, k, blocks), blocks None for an expander
    code; n, n_G = outer.k and a concatenated code's inner sizes
    n / blocks and n_G / blocks are read off these, not stored.  The
    checks both kinds share are made here, in this order: the outer code
    lies over the tower's base field, an expander's parity has full row
    rank, n_G <= m (in each kind's words), k <= n_G, k >= 1, and the
    outer generator G (n_G x n) is its own rref, as ``from_parity`` and
    ``concatenated_outer`` build it.  beta[j], the point coordinate j
    evaluates at, is set here.
    """

    def __init__(self, tower: FieldTower, outer: LinearCode, k: int,
                 blocks: int | None = None):
        if outer.field.w != tower.base.w:
            raise ValueError(f"outer code over GF(2^{outer.field.w}) but tower "
                             f"over GF(2^{tower.base.w})")
        if blocks is None and outer.k != outer.n - outer.parity.rows:
            raise ValueError("expander parity matrix is rank deficient")
        # n_G <= m comes before k >= 1, so m < n_G is what is reported at any k
        if outer.k > tower.m:
            raise ValueError("n_G exceeds the extension degree m" if blocks is None
                             else "n_G = blocks*k_I exceeds the extension degree m")
        if k > outer.k:
            raise ValueError("k exceeds n_G")
        if k < 1:
            raise ValueError("need 1 <= k <= n <= extension degree m")
        # in rref the pivot columns, in column order, are e_0, ..., e_(n_G-1)
        pivot_columns = [c for lane, c in zip(*outer.rref_view) if lane]
        if pivot_columns != [1 << (i * tower.base.w) for i in range(outer.k)]:
            raise ValueError("the outer generator must be its own rref")
        self.tower, self.outer, self.k = tower, outer, k
        self.blocks = blocks  # inner codes of a concatenated code
        # the Gabidulin code evaluates at the basis 1, x, ..., x^(n_G-1), so
        # coordinate j evaluates at sum_i G[i][j] x^i, column j of G; bound
        # once, as the decoder reads it per survivor
        self.beta: list[ExtElement] = outer.generator_columns

    @cached_property
    def frobenius_rows(self) -> list[int]:
        """[pack(Frob^i(beta)) for i < k], built on first encode: k - 1
        ``frobenius_row`` passes over the n points, kept as k packed rows."""
        tower, points = self.tower, self.beta
        rows = [tower.pack(points)]
        for _ in range(self.k - 1):
            points = tower.frobenius_row(points)
            rows.append(tower.pack(points))
        return rows

    @property
    def n(self) -> int:
        return self.outer.n

    @property
    def n_g(self) -> int:
        return self.outer.k


def assemble_expander_code(tower: FieldTower, parity: Matrix, k: int) -> CompositeCode:
    """Composite of a Gabidulin code with the code defined by an expander
    parity, whose generator ``from_parity`` builds in rref;
    ``CompositeCode`` checks the parity's rank and the sizes."""
    return CompositeCode(tower, LinearCode.from_parity(parity), k)


def block_diagonal(base: BaseField, inner: LinearCode, blocks: int) -> LinearCode:
    """``blocks`` copies of a binary code down the diagonal, over base: a
    concatenated code's outer code, its generator in rref if inner's is.
    n_G = blocks*k_I past the tower size cap, which no tower's m reaches,
    is refused before the rows, whose size grows as blocks^2, are built."""
    if blocks * inner.k > TOWER_SIZE_CAP:
        raise ValueError("n_G = blocks*k_I exceeds the extension degree m")
    # block b holds the inner code on coordinates [b*n_I, (b+1)*n_I), w = 1
    parity, generator = (Matrix(base, blocks * inner.n,
                                [row << (b * inner.n) for b in range(blocks) for row in mat.data])
                         for mat in (inner.parity, inner.generator))
    return LinearCode(parity, generator)


def concatenated_outer(base: BaseField, r: int, t: int, blocks: int) -> LinearCode:
    """The block-diagonal of ``blocks`` WZL(r, t) codes over base.  Checks
    a GF(2) base, then a block, then (``build_wzl``) r and t, then
    (``block_diagonal``) n_G against the tower size cap."""
    if base.w != 1:
        raise ValueError("concatenated construction needs a GF(2) base field")
    if blocks < 1:
        raise ValueError("need at least one block")
    return block_diagonal(base, build_wzl(r, t), blocks)


def assemble_concatenated(tower: FieldTower, r: int, t: int, blocks: int,
                          k: int) -> CompositeCode:
    """Gabidulin code through ``concatenated_outer`` over the tower's base,
    which checks the base, blocks, r, t and n_G against the tower size
    cap; ``CompositeCode`` then checks n_G <= m and k."""
    return CompositeCode(tower, concatenated_outer(tower.base, r, t, blocks), k, blocks)


def encode_composite(code: CompositeCode, message: Sequence[ExtElement]) -> list[ExtElement]:
    """y_j = f(beta_j) for f = sum(a_i * X^(q^i)), as one row sum.

    f is GF(q)-linear and beta_j = sum_i G[i][j] * x^i, so evaluating f
    at the Gabidulin code's basis points and then applying the outer
    generator G gives f at beta_j.  With V_i = [beta_j^(q^i)]_j
    (``CompositeCode.frobenius_rows``), the codeword is
    sum_i a_i * V_i: one ``FieldTower.dot_row``.
    """
    if len(message) != code.k:
        raise ValueError(f"message must have {code.k} symbols")
    tower = code.tower
    tower.check(message)
    return tower.unpack(tower.dot_row(message, code.frobenius_rows), code.n)


def select_independent_survivors(code: CompositeCode, indices: Collection[int],
                                 stop: int) -> list[int]:
    """Survivors among indices (distinct, each in [0, n)) whose betas are
    independent over the base field: as many as their rank, or stop.

    The betas are the columns of the outer generator G, which is its own
    rref, so this reads G itself (``LinearCode.rref_view``).  With pivot
    columns pi and E the rows whose pivot column is not in S,
    rank(G_S) = (n_G - |E|) + rank(G[E, S \\ pi]): the surviving pivot
    columns are the unit vectors of the other rows and are taken first,
    with no rank work, and projecting them out leaves the surviving
    non-pivot columns restricted to E.  So only those
    columns, masked to E's lanes, go through a rank tracker, and one is
    taken when it raises the rank.  The decoder stops at k;
    ``survivor_rank`` counts all of them.
    """
    lanes, columns = code.outer.rref_view
    chosen = [j for j in indices if lanes[j]]
    if len(chosen) >= stop:
        return chosen[:stop]
    erased = (1 << (code.n_g * code.tower.base.w)) - 1  # E's lanes
    for j in chosen:
        erased ^= lanes[j]
    tracker = RankTracker(code.tower.base)
    for j in indices:
        if not lanes[j] and tracker.add(columns[j] & erased):
            chosen.append(j)
            if len(chosen) == stop:
                break
    return chosen


def survivor_rank(code: CompositeCode, indices: Sequence[int]) -> int:
    """Base-field rank of the betas at distinct indices, the rank of G's
    columns S: the number of survivors ``select_independent_survivors``
    takes when it may take all n_G."""
    if indices:
        low, high = min(indices), max(indices)
        if low < 0 or high >= code.n:
            raise ValueError(f"surviving index {low if low < 0 else high} "
                             f"must lie in [0, n) with n = {code.n}")
    return len(select_independent_survivors(code, indices, code.n_g))


def composite_erasure_decode(code: CompositeCode,
                             received: Sequence[tuple[int, ExtElement]]):
    """Recover the message from surviving (index, value) pairs, or None.

    Succeeds exactly when k of the surviving coordinates correspond to
    base-field independent evaluation points.  Any k such points give the
    same message, as the Gabidulin code is MRD, so the order of received
    does not change it.
    """
    n, values = code.n, {}
    for j, y in received:
        if not 0 <= j < n:
            raise ValueError(f"surviving index {j} must lie in [0, n) with n = {n}")
        if j in values:
            raise ValueError(f"duplicate surviving index {j}")
        values[j] = y
    chosen = select_independent_survivors(code, values, code.k)
    if len(chosen) < code.k:
        return None
    return moore_interpolate(code.tower, [code.beta[j] for j in chosen],
                             [values[j] for j in chosen])
