"""Hypercube graphs and their structure matrices.

Vertices of the d-cube are bitmasks 0..2^d-1; coordinate i (1-based) of
vertex x is bit i-1, and two vertices are adjacent iff they differ in exactly
one bit.  This module builds the coordinate-flip permutations alpha_i, the
coordinate-sign diagonals alpha_star_i, their 2x2 Kronecker factors, the +-1
character eigenvectors, and the spectral projectors of the adjacency matrix.
It also reads small graphs from JSON.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from typing import NamedTuple

from .exactlinalg import (
    CapExceeded,
    ExactMatrix,
    ExactVector,
    exact_quotient,
    kron,
)

DEFAULT_CONSTRUCTION_CAP = 12
DEFAULT_PROJECTOR_CAP = 8
#: Largest graph file `load_graph` parses; a longer one is rejected unread.
MAX_GRAPH_FILE_BYTES = 16 * 2**20

#: 2x2 factor that swaps the two basis states of one coordinate.
FLIP2 = ExactMatrix.from_rows([[0, 1], [1, 0]])
#: 2x2 factor diag(1, -1) recording the value of one coordinate.
SIGN2 = ExactMatrix.from_rows([[1, 0], [0, -1]])


class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n, edges=()):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {tuple(e)} out of range for {n} vertices")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            seen.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = frozenset(seen)
        # only vertices with an edge get an entry, so a huge n with few edges
        # costs nothing until a size cap looks at it
        adj = {}
        for u, v in seen:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        self._adj = {v: tuple(sorted(nb)) for v, nb in adj.items()}

    def __repr__(self):
        return f"Graph(n={self.n}, edges={len(self.edges)})"

    def __eq__(self, other):
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def neighbors(self, v):
        return self._adj.get(v, ())

    def has_edge(self, u, v):
        return (min(u, v), max(u, v)) in self.edges


def graph_from_dict(obj) -> Graph:
    """Build a graph from ``{"n": int, "edges": [[u, v], ...]}``.

    Loops and duplicate edges (in either orientation) are rejected.
    """
    if not isinstance(obj, dict):
        raise ValueError("graph document must be a JSON object")
    if "n" not in obj or "edges" not in obj:
        raise ValueError('graph document needs keys "n" and "edges"')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError('"n" must be a positive integer')
    raw = obj["edges"]
    if not isinstance(raw, list):
        raise ValueError('"edges" must be a list of [u, v] pairs')
    for e in raw:
        if (
            not isinstance(e, (list, tuple))
            or len(e) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in e)
        ):
            raise ValueError(f"malformed edge {e!r}")
    graph = Graph(n, raw)  # rejects loops and out-of-range edges
    if len(graph.edges) != len(raw):
        raise ValueError("duplicate edges present")
    return graph


def load_graph(path) -> Graph:
    with open(path, "rb") as fh:
        raw = fh.read(MAX_GRAPH_FILE_BYTES + 1)
    if len(raw) > MAX_GRAPH_FILE_BYTES:
        raise ValueError(f"graph file is larger than {MAX_GRAPH_FILE_BYTES} bytes")
    try:
        doc = json.loads(raw.decode("utf-8"))
    except RecursionError:
        # a file far below the byte bound can nest deeper than json can parse
        raise ValueError("graph file nests too deeply") from None
    return graph_from_dict(doc)


class _CubeDimension(NamedTuple):
    d: int


class HypercubeContext(_CubeDimension):
    """Dimension plus the vertex <-> bitmask encoding used by all cube builders."""

    __slots__ = ()

    # here, not in _CubeDimension: typing.NamedTuple forbids __new__ in its body
    def __new__(cls, d):
        if d < 1:
            raise ValueError("hypercube dimension must be at least 1")
        return super().__new__(cls, d)

    @property
    def n(self):
        return 1 << self.d

    def bit(self, i):
        if not 1 <= i <= self.d:
            raise ValueError(f"coordinate {i} out of range 1..{self.d}")
        return 1 << (i - 1)

    def mask_of(self, coords):
        mask = 0
        for i in coords:
            mask |= self.bit(i)
        return mask

    def coords_of(self, mask):
        return tuple(i for i in range(1, self.d + 1) if mask >> (i - 1) & 1)

    def subset_masks(self, size):
        """All coordinate subsets of the given size, as masks."""
        return (
            self.mask_of(combo)
            for combo in itertools.combinations(range(1, self.d + 1), size)
        )


def hypercube(d, cap=DEFAULT_CONSTRUCTION_CAP):
    """The d-cube as (Graph, HypercubeContext)."""
    ctx = HypercubeContext(d)  # rejects d < 1
    if d > cap:
        raise CapExceeded(f"hypercube construction capped at d<={cap}, got d={d}")
    n = ctx.n
    edges = []
    for x in range(n):
        for b in range(d):
            y = x ^ (1 << b)
            if x < y:
                edges.append((x, y))
    return Graph(n, edges), ctx


def adjacency(g: Graph) -> ExactMatrix:
    ent = {}
    for u, v in g.edges:
        ent[(u, v)] = 1
        ent[(v, u)] = 1
    return ExactMatrix._raw(g.n, g.n, ent)


def cube_adjacency(ctx: HypercubeContext) -> ExactMatrix:
    """Adjacency matrix of the d-cube straight from the bitmask encoding."""
    ent = {}
    for x in range(ctx.n):
        for b in range(ctx.d):
            ent[(x, x ^ (1 << b))] = 1
    return ExactMatrix._raw(ctx.n, ctx.n, ent)


def alpha(ctx: HypercubeContext, i) -> ExactMatrix:
    """Permutation matrix that flips coordinate i of every vertex."""
    bit = ctx.bit(i)
    return ExactMatrix._raw(
        ctx.n, ctx.n, {(x, x ^ bit): 1 for x in range(ctx.n)}
    )


def alpha_star(ctx: HypercubeContext, i) -> ExactMatrix:
    """Diagonal matrix with (x, x) entry +1 if coordinate i of x is 0, else -1."""
    bit = ctx.bit(i)
    return ExactMatrix._raw(
        ctx.n,
        ctx.n,
        {(x, x): (-1 if x & bit else 1) for x in range(ctx.n)},
    )


def _fold_factors(ctx, i, middle):
    ident = ExactMatrix.identity(2)
    out = None
    for pos in range(1, ctx.d + 1):
        factor = middle if pos == i else ident
        out = factor if out is None else kron(out, factor)
    return out


def alpha_via_kron(ctx: HypercubeContext, i) -> ExactMatrix:
    """alpha_i as the d-fold Kronecker chain with FLIP2 in slot i."""
    ctx.bit(i)
    return _fold_factors(ctx, i, FLIP2)


def alpha_star_via_kron(ctx: HypercubeContext, i) -> ExactMatrix:
    """alpha_star_i as the d-fold Kronecker chain with SIGN2 in slot i."""
    ctx.bit(i)
    return _fold_factors(ctx, i, SIGN2)


class ScaledEigenvector(NamedTuple):
    """Sign vector W_S with entry (-1)^popcount(S & x) at vertex x.

    These are the character eigenvectors of the cube adjacency matrix scaled
    by 2^(d/2) so that every entry is +-1 and <W_S, W_T> = 2^d [S == T].
    """

    d: int
    s: int
    vec: ExactVector

    @property
    def eigenvalue(self):
        return self.d - 2 * self.s.bit_count()


def scaled_eigenvector(ctx: HypercubeContext, s) -> ScaledEigenvector:
    """W_S for a coordinate subset given as a bitmask or iterable of 1..d."""
    mask = s if isinstance(s, int) else ctx.mask_of(s)
    if not 0 <= mask < ctx.n:
        raise ValueError(f"subset mask {mask} out of range for d={ctx.d}")
    ent = {
        x: (-1 if (mask & x).bit_count() & 1 else 1) for x in range(ctx.n)
    }
    return ScaledEigenvector(ctx.d, mask, ExactVector._raw(ctx.n, ent))


class EigenItem(NamedTuple):
    theta: int
    multiplicity: int
    idempotent: ExactMatrix


class EigenData(NamedTuple):
    d: int
    items: tuple


def eigen_data(ctx: HypercubeContext) -> EigenData:
    """Eigenvalues d-2i, multiplicities C(d, i), and spectral projectors.

    The projector for eigenvalue d-2i is 2^-d times the sum of W_S W_S^T over
    the weight-i sign vectors.  Entry (x, y) of W_S W_S^T is
    (-1)^popcount(S & (x ^ y)), so the projector is a function of x ^ y: its
    entry is k[x ^ y] / 2^d, where k[w] sums (-1)^popcount(S & w) over the
    weight-i subsets S.  Entries with the same x ^ y share one scalar object.
    """
    if ctx.d > DEFAULT_PROJECTOR_CAP:
        raise CapExceeded(
            f"dense spectral projectors capped at d<={DEFAULT_PROJECTOR_CAP}, "
            f"got d={ctx.d}"
        )
    n = ctx.n
    items = []
    for i in range(ctx.d + 1):
        masks = list(ctx.subset_masks(i))
        row = [
            exact_quotient(sum(-1 if (s & w).bit_count() & 1 else 1 for s in masks), n)
            for w in range(n)
        ]
        e = ExactMatrix._raw(n, n, _spread(row))
        items.append(EigenItem(ctx.d - 2 * i, math.comb(ctx.d, i), e))
    return EigenData(ctx.d, tuple(items))


def _spread(row):
    """Entry dict of the matrix with (x, y) entry row[x ^ y]; zeros left out."""
    nonzero = [(w, v) for w, v in enumerate(row) if v]
    return {(x, x ^ w): v for x in range(len(row)) for w, v in nonzero}


def _scaled_row(matrix):
    """n * matrix[0, w] for w < n = matrix.rows, as ints; None if one is not."""
    n = matrix.rows
    row = []
    for w in range(n):
        v = matrix.entries.get((0, w), 0)
        q, r = divmod(n * v.numerator, v.denominator)
        if r:
            return None
        row.append(q)
    return row


def _is_xor_function(matrix):
    """True if matrix[x, y] == matrix[0, x ^ y] for every x, y < matrix.rows."""
    first = [matrix.entries.get((0, w), 0) for w in range(matrix.rows)]
    # dict equality also compares the entry counts, and it is cheap when each
    # x ^ y class stores one scalar object, as eigen_data does
    return matrix.entries == _spread(first)


def idempotent_report(check, ctx: HypercubeContext, data: EigenData):
    """Exact verification of the spectral projector identities.

    Checks symmetry, pairwise products E_i E_j = delta_ij E_i, sum to the
    identity, eigenvalue-weighted sum to the adjacency matrix, the all-ones
    form of E_0, ranks C(d, i), and the eigenvalue/multiplicity tables.
    Each projector is first reduced to the integer row r with
    2^d E[x, y] = r[x ^ y] (it fails uncounted if it has none), so the
    identities are checked on rows in the group algebra of Z_2^d: a product
    of two such matrices has the XOR convolution of their rows as its row.
    Each rank is read as a trace: once E_i E_i = E_i is proved, rank(E_i)
    equals the trace, which is 2^d E_i[0, 0] = r_i[0].
    A check-group routine: ``check`` (an ``alike.GroupResult``) counts each
    identity and stops at the first that fails; shapes fail uncounted.
    """
    d, n = ctx.d, ctx.n
    if data.d != d or len(data.items) != d + 1:
        check.fail("eigen data has the wrong shape")
    rows = []
    for i, item in enumerate(data.items):
        check.require(
            item.theta == d - 2 * i, "eigenvalue table wrong at i={}: {}", i, item.theta
        )
        check.require(
            item.multiplicity == math.comb(d, i), "multiplicity table wrong at i={}", i
        )
        e = item.idempotent
        if e.rows != n or e.cols != n:
            check.fail(f"projector {i} has shape {e.rows}x{e.cols}")
        row = _scaled_row(e)
        if row is None:
            check.fail(f"projector {i} entries not multiples of 1/2^d")
        rows.append(row)
    for i, item in enumerate(data.items):
        e = item.idempotent
        check.require(e.is_symmetric(), "projector {} is not symmetric", i)
        if not _is_xor_function(e):
            check.fail(f"projector {i} is not a function of x ^ y")
    # at_xor[w](r) lists r[u ^ w] for u < n, so row w of the product of the
    # matrices with rows a and b is sum_u a[u] * b[u ^ w]
    at_xor = [operator.itemgetter(*(u ^ w for u in range(n))) for w in range(n)]
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            prod = [sum(map(operator.mul, a, get(b))) for get in at_xor]
            expect = [n * v for v in a] if i == j else [0] * n
            check.require(prod == expect, "projector product ({},{}) is wrong", i, j)
    check.require(
        [sum(col) for col in zip(*rows)] == [n] + [0] * (n - 1),
        "projectors do not sum to the identity",
    )
    weighted = [sum((d - 2 * i) * r for i, r in enumerate(col)) for col in zip(*rows)]
    adj = cube_adjacency(ctx)
    check.require(
        _is_xor_function(adj) and weighted == _scaled_row(adj),
        "eigenvalue-weighted projector sum is not the adjacency",
    )
    check.require(rows[0] == [1] * n, "E_0 is not the normalized all-ones matrix")
    for i, row in enumerate(rows):
        check.require(
            row[0] == math.comb(d, i), "projector {0} has rank != C(d,{0})", i
        )
