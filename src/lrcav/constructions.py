"""Code builders: WZL inner codes, expander-based and concatenated composites.

The WZL family is realized as a subset-incidence code: coordinates are
the t-subsets of [r+t], parity checks are indexed by (t-1)-subsets, each
check covering the t-subsets that contain it.  This gives n = C(r+t, t),
dimension n*r/(r+t), distance t+1, and explicit disjoint recovering sets
for every coordinate.

A composite code is its tower, a base-field outer code whose n_G x n
generator G has full row rank, k and, if concatenated, its number of
inner blocks.  The [n_G, k] Gabidulin code at the basis 1, x, ...,
x^(n_G-1) encodes a message, and G expands it to n coordinates, so
coordinate j evaluates the message polynomial at column j of G read as
an extension element: erasure decoding picks k independent surviving
points and interpolates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .galois import BaseField, ExtElement, FieldTower
from .gabidulin import moore_interpolate
from .linalg import Matrix, RankTracker, nullspace, rref


@dataclass
class LinearCode:
    """Length-n code: a (possibly redundant) parity and its rref generator,
    k x n, both computed once, when the code is made (``from_parity``)."""

    field: BaseField
    n: int
    k: int
    parity: Matrix
    generator: Matrix

    @classmethod
    def from_parity(cls, parity: Matrix):
        """The code with this parity, over the parity's field; k is the
        nullspace's dimension."""
        f, basis = parity.field, nullspace(parity)
        generator = rref(Matrix(f, len(basis), parity.cols, basis))[0]
        return cls(f, parity.cols, generator.rows, parity, generator)

    @cached_property
    def dual(self) -> "LinearCode":
        """The dual code, built once per code: its parity is this generator,
        and its generator is a nullspace basis of it, not reduced to rref,
        as its walks need only a basis."""
        basis = nullspace(self.generator)
        return LinearCode(self.field, self.n, len(basis), self.generator,
                          Matrix(self.field, len(basis), self.n, basis))

    @cached_property
    def parity_columns(self) -> List[int]:
        """The parity's columns as packed vectors, transposed once per code."""
        return self.parity.transpose().data

    @cached_property
    def generator_columns(self) -> List[int]:
        """The generator's columns as packed vectors, transposed once per code."""
        return self.generator.transpose().data

    @cached_property
    def rref_view(self) -> Tuple[List[int], List[int]]:
        """(lanes, columns) of the generator's rref R, built on first use.

        columns[j] is column j of R, packed; lanes[j] is the lane mask
        (q - 1) << (i*w) when j is row i's pivot column, so that column
        is the unit vector of lane i, and 0 otherwise.  Row operations
        keep the rank of every column subset, so ``survivor_rank``
        reads it off R.
        """
        f = self.field
        R, _, pivots = rref(self.generator)
        lanes = [0] * self.n
        for i, col in enumerate(pivots):
            lanes[col] = (f.q - 1) << (i * f.w)
        return lanes, R.transpose().data

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
    return LinearCode.from_parity(Matrix(f2, len(rows), n, rows))


@dataclass
class BipartiteGraph:
    """(t, r+1)-biregular bipartite graph; adjacency by left vertex."""

    n_left: int
    n_right: int
    adj: List[List[int]]

    def right_adjacency(self) -> List[List[int]]:
        out: List[List[int]] = [[] for _ in range(self.n_right)]
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
            return BipartiteGraph(n, n_right, [sorted(right_stubs[v * t:(v + 1) * t])
                                               for v in range(n)])
    raise ValueError(f"no girth>={min_girth} simple sample in {SAMPLE_TRIES} tries; "
                     "parameters too dense")


def check_expansion(g: BipartiteGraph, alpha, gamma) -> bool:
    """Exhaustively test |Gamma(V')| > t*gamma*|V'| for all |V'| <= alpha*n.

    The walk visits at most sum_(1 <= s <= alpha*n) C(n, s) subsets, one
    step of ``WORK_BUDGET`` each, and that sum is checked before it starts.
    """
    max_size = int(alpha * g.n_left)
    subsets = 0
    for size in range(1, max_size + 1):
        subsets += comb(g.n_left, size)
        if subsets > WORK_BUDGET:
            raise ValueError("subset count exceeds the exhaustive-check budget")
    t = len(g.adj[0]) if g.adj else 0
    for size in range(1, max_size + 1):
        for sub in combinations(range(g.n_left), size):
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


@dataclass
class CompositeCode:
    """An [n_G, k] Gabidulin code pushed through a base-field outer code's generator.

    The code is (tower, outer, k, blocks), blocks None for an expander
    code; n, n_G = outer.k and a concatenated code's inner sizes
    n / blocks and n_G / blocks are read off these, not stored.  The
    outer code must lie over the tower's base field.
    """

    tower: FieldTower
    outer: LinearCode          # its generator G is n_G x n, full row rank
    k: int
    blocks: Optional[int] = None  # inner codes of a concatenated code
    beta: List[ExtElement] = field(init=False, repr=False)

    def __post_init__(self):
        if self.outer.field.w != self.tower.base.w:
            raise ValueError(f"outer code over GF(2^{self.outer.field.w}) but tower "
                             f"over GF(2^{self.tower.base.w})")
        if not 1 <= self.k <= self.n_g <= self.tower.m:
            raise ValueError("need 1 <= k <= n <= extension degree m")
        # the Gabidulin code evaluates at the basis 1, x, ..., x^(n_G-1), so
        # coordinate j evaluates at sum_i G[i][j] x^i, column j of G; bound
        # once, as the decoder reads it per survivor
        self.beta = self.outer.generator_columns

    @cached_property
    def frobenius_rows(self) -> List[int]:
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
    """Composite of a Gabidulin code with the code defined by an expander parity."""
    outer = LinearCode.from_parity(parity)
    if outer.k != parity.cols - parity.rows:
        raise ValueError("expander parity matrix is rank deficient")
    if outer.k > tower.m:
        raise ValueError("n_G exceeds the extension degree m")
    if k > outer.k:
        raise ValueError("k exceeds n_G")
    return CompositeCode(tower, outer, k)


def assemble_concatenated(tower: FieldTower, r: int, t: int, blocks: int,
                          k: int) -> CompositeCode:
    """Gabidulin outer code with per-group binary WZL inner encoding."""
    if tower.base.w != 1:
        raise ValueError("concatenated construction needs a GF(2) base field")
    if blocks < 1:
        raise ValueError("need at least one block")
    inner = build_wzl(r, t)
    n_i, k_i = inner.n, inner.k
    n_g = blocks * k_i
    if n_g > tower.m:
        raise ValueError("n_G = blocks*k_I exceeds the extension degree m")
    if k > n_g:
        raise ValueError("k exceeds n_G")
    # block b holds the inner code on coordinates [b*n_I, (b+1)*n_I), w = 1;
    # the block-diagonal of an rref generator is in rref: no elimination
    parity, generator = (Matrix(tower.base, blocks * mat.rows, blocks * n_i,
                                [row << (b * n_i) for b in range(blocks) for row in mat.data])
                         for mat in (inner.parity, inner.generator))
    outer = LinearCode(tower.base, blocks * n_i, n_g, parity, generator)
    return CompositeCode(tower, outer, k, blocks)


def encode_composite(code: CompositeCode, message: Sequence[ExtElement]) -> List[ExtElement]:
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


def select_independent_survivors(code: CompositeCode,
                                 indices: Sequence[int]) -> List[int]:
    """Greedy (by index) subset of survivors with base-independent betas."""
    tracker = RankTracker(code.tower.base)
    chosen: List[int] = []
    for j in indices:
        if tracker.add(code.beta[j]):
            chosen.append(j)
            if len(chosen) == code.k:
                break
    return chosen


def survivor_rank(code: CompositeCode, indices: Sequence[int]) -> int:
    """Base-field rank of the betas at indices: the rank of G's columns S.

    On the outer generator's rref R (``LinearCode.rref_view``), with
    pivot columns pi and E the rows whose pivot column is not in S,
    rank(G_S) = (n_G - |E|) + rank(R[E, S \\ pi]): the surviving pivot
    columns are the unit vectors of the other rows, and projecting them
    out leaves the surviving non-pivot columns restricted to E.  So
    only those columns, masked to E's lanes, go through a rank tracker.
    """
    if indices:
        low, high = min(indices), max(indices)
        if low < 0 or high >= code.n:
            raise ValueError(f"surviving index {low if low < 0 else high} "
                             f"must lie in [0, n) with n = {code.n}")
    lanes, columns = code.outer.rref_view
    base = code.tower.base
    erased = (1 << (code.n_g * base.w)) - 1  # every row's lane, until its pivot survives
    free = []
    for j in indices:
        if lanes[j]:
            erased &= ~lanes[j]
        else:
            free.append(columns[j])
    if not erased:
        return code.n_g
    tracker = RankTracker(base)
    for column in free:
        tracker.add(column & erased)
    return code.n_g - erased.bit_count() // base.w + tracker.rank


def composite_erasure_decode(code: CompositeCode,
                             received: Sequence[Tuple[int, ExtElement]]):
    """Recover the message from surviving (index, value) pairs, or None.

    Succeeds exactly when k of the surviving coordinates correspond to
    base-field independent evaluation points.
    """
    seen = set()
    for j, _ in received:
        if not 0 <= j < code.n:
            raise ValueError(f"surviving index {j} must lie in [0, n) with n = {code.n}")
        if j in seen:
            raise ValueError(f"duplicate surviving index {j}")
        seen.add(j)
    values: Dict[int, ExtElement] = dict(received)
    order = sorted(values)
    chosen = select_independent_survivors(code, order)
    if len(chosen) < code.k:
        return None
    return moore_interpolate(code.tower, [code.beta[j] for j in chosen],
                             [values[j] for j in chosen])
