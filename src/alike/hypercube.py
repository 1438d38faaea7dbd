"""Hypercube graphs and their structure matrices.

Vertices of the d-cube are bitmasks 0..2^d-1; coordinate i (1-based) of
vertex x is bit i-1, and two vertices are adjacent iff they differ in exactly
one bit.  This module builds the coordinate-flip permutations alpha_i, the
coordinate-sign diagonals alpha_star_i, their 2x2 Kronecker factors, the +-1
character eigenvectors, and the spectral projectors of the adjacency matrix.
Each projector E_i is one integer row r_i with 2^d E_i[x, y] = r_i[x ^ y],
built from Krawtchouk numbers; its identities are checked on the rows, a
product through a fast Walsh-Hadamard transform.  It also reads small graphs
from JSON.
"""

from __future__ import annotations

import json
import math
import operator
from typing import NamedTuple

from .exactlinalg import CapExceeded, ExactMatrix, ExactVector, kron

DEFAULT_CONSTRUCTION_CAP = 12
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
    row: list  # n ints r with 2^d E[x, y] = r[x ^ y] for the projector E


class EigenData(NamedTuple):
    d: int
    items: tuple


def eigen_data(ctx: HypercubeContext) -> EigenData:
    """Eigenvalues d-2i, multiplicities C(d, i), and spectral projector rows.

    The projector for eigenvalue d-2i is 2^-d times the sum of W_S W_S^T over
    the weight-i sign vectors.  Entry (x, y) of W_S W_S^T is
    (-1)^popcount(S & (x ^ y)), so 2^d E_i[x, y] = r_i[x ^ y], where r_i[w]
    sums (-1)^popcount(S & w) over the weight-i subsets S.  That sum depends
    on w only through k = popcount(w): it is the Krawtchouk number
    K_i(k) = sum_j (-1)^j C(k, j) C(d-k, i-j), so each row costs O(n).
    """
    d, n = ctx.d, ctx.n
    weights = [w.bit_count() for w in range(n)]
    items = []
    for i in range(d + 1):
        kraw = [  # K_i(k), the row's entry at every w of weight k
            sum(
                (-1) ** j * math.comb(k, j) * math.comb(d - k, i - j)
                for j in range(i + 1)
            )
            for k in range(d + 1)
        ]
        row = [kraw[k] for k in weights]
        items.append(EigenItem(d - 2 * i, math.comb(d, i), row))
    return EigenData(d, tuple(items))


def walsh_hadamard(row):
    """H r for H[s, w] = (-1)^popcount(s & w), in d * n additions for n = 2^d.

    The fast transform of Fino and Algazi (1976), one butterfly pass per bit.
    H H = n I, and H maps the XOR convolution of two rows to their product.
    """
    n = len(row)
    h = list(row)
    step = 1
    while step < n:
        out = []
        for start in range(0, n, 2 * step):
            lo, hi = h[start : start + step], h[start + step : start + 2 * step]
            out += map(operator.add, lo, hi)
            out += map(operator.sub, lo, hi)
        h = out
        step *= 2
    return h


def _is_xor_function(matrix):
    """True if matrix[x, y] == matrix[0, x ^ y] for every x, y < matrix.rows."""
    n = matrix.rows
    first = [(w, v) for w in range(n) if (v := matrix.entries.get((0, w), 0))]
    return matrix.entries == {(x, x ^ w): v for x in range(n) for w, v in first}


def idempotent_report(check, ctx: HypercubeContext, data: EigenData):
    """Exact verification of the spectral projector identities.

    Checks the eigenvalue/multiplicity tables, pairwise products
    E_i E_j = delta_ij E_i, sum to the identity, eigenvalue-weighted sum to
    the adjacency matrix, the all-ones form of E_0, ranks C(d, i), and each
    spectrum, all on the integer rows r_i with 2^d E_i[x, y] = r_i[x ^ y].
    A product of two such matrices has the XOR convolution of their rows as
    its row, so with h_i = H r_i (``walsh_hadamard``) and H H = n I it reads
    h_i * h_j == delta_ij n h_i pointwise.  Once E_i E_i = E_i is proved,
    rank(E_i) is the trace 2^d E_i[0, 0] = r_i[0].  Last, h_i must be n on
    the weight-i masks and 0 elsewhere.
    A check-group routine: ``check`` (an ``alike.GroupResult``) counts each
    identity and stops at the first that fails; shapes fail uncounted.
    """
    d, n = ctx.d, ctx.n
    if data.d != d or len(data.items) != d + 1:
        check.fail("eigen data has the wrong shape")
    for i, item in enumerate(data.items):
        check.require(
            item.theta == d - 2 * i, "eigenvalue table wrong at i={}: {}", i, item.theta
        )
        check.require(
            item.multiplicity == math.comb(d, i), "multiplicity table wrong at i={}", i
        )
        if len(item.row) != n:
            check.fail(f"projector {i} row has length {len(item.row)}, not {n}")
    rows = [item.row for item in data.items]
    spectra = [walsh_hadamard(row) for row in rows]
    zero = [0] * n
    for i, a in enumerate(spectra):
        scaled = [n * v for v in a]
        for j, b in enumerate(spectra):
            prod = list(map(operator.mul, a, b))
            expect = scaled if i == j else zero
            check.require(prod == expect, "projector product ({},{}) is wrong", i, j)
    check.require(
        [sum(col) for col in zip(*rows)] == [n] + [0] * (n - 1),
        "projectors do not sum to the identity",
    )
    weighted = [sum((d - 2 * i) * r for i, r in enumerate(col)) for col in zip(*rows)]
    adj = cube_adjacency(ctx)
    adj_row = [n * adj.entries.get((0, w), 0) for w in range(n)]
    check.require(
        _is_xor_function(adj) and weighted == adj_row,
        "eigenvalue-weighted projector sum is not the adjacency",
    )
    check.require(rows[0] == [1] * n, "E_0 is not the normalized all-ones matrix")
    for i, row in enumerate(rows):
        check.require(
            row[0] == math.comb(d, i), "projector {0} has rank != C(d,{0})", i
        )
    weights = [s.bit_count() for s in range(n)]
    for i, h in enumerate(spectra):
        expect = [n if k == i else 0 for k in weights]
        check.require(h == expect, "projector {} has the wrong spectrum", i)
