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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class HypercubeContext:
    """Dimension plus the vertex <-> bitmask encoding used by all cube builders."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("hypercube dimension must be at least 1")

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


@dataclass(frozen=True)
class ScaledEigenvector:
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


@dataclass(frozen=True)
class EigenItem:
    theta: int
    multiplicity: int
    idempotent: ExactMatrix


@dataclass(frozen=True)
class EigenData:
    d: int
    items: tuple


def eigen_data(ctx: HypercubeContext) -> EigenData:
    """Eigenvalues d-2i, multiplicities C(d, i), and spectral projectors.

    The projector for eigenvalue d-2i is assembled exactly, as 2^-d times the
    sum of W_S W_S^T over the weight-i sign vectors.  The accumulation runs in
    64-bit integers; entries are bounded by C(d, i), far below overflow.
    """
    if ctx.d > DEFAULT_PROJECTOR_CAP:
        raise CapExceeded(
            f"dense spectral projectors capped at d<={DEFAULT_PROJECTOR_CAP}, "
            f"got d={ctx.d}"
        )
    # numpy is imported only on this dense-projector path, so commands that
    # build no projector do not pay for loading it
    import numpy as np

    n = ctx.n
    pop = np.array([x.bit_count() for x in range(n)], dtype=np.int64)
    xs = np.arange(n, dtype=np.int64)
    items = []
    for i in range(ctx.d + 1):
        masks = list(ctx.subset_masks(i))
        u = np.empty((n, len(masks)), dtype=np.int64)
        for col, mask in enumerate(masks):
            u[:, col] = 1 - 2 * (pop[xs & mask] & 1)
        scaled = u @ u.T
        ent = {}
        for x, row in enumerate(scaled.tolist()):
            for y, v in enumerate(row):
                if v:
                    ent[(x, y)] = exact_quotient(v, n)
        items.append(
            EigenItem(ctx.d - 2 * i, math.comb(ctx.d, i), ExactMatrix._raw(n, n, ent))
        )
    return EigenData(ctx.d, tuple(items))


def _as_scaled_int_array(ctx, matrix):
    """2^d * matrix as an int64 array; None if some entry is not n-th integral."""
    import numpy as np

    n = ctx.n
    arr = np.zeros((n, n), dtype=np.int64)
    for (x, y), v in matrix.entries.items():
        # v is in lowest terms, so n * v is integral iff its denominator divides n
        q, r = divmod(n, v.denominator)
        if r:
            return None
        arr[x, y] = v.numerator * q
    return arr


def _checked_product(a, b):
    import numpy as np

    # exactness guard: int64 accumulation must not be able to wrap
    bound = a.shape[1] * int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0))
    if bound >= 2**62:
        raise RuntimeError("integer product could overflow 64-bit accumulation")
    return a @ b


def idempotent_report(check, ctx: HypercubeContext, data: EigenData):
    """Exact verification of the spectral projector identities.

    Checks symmetry, pairwise products E_i E_j = delta_ij E_i, sum to the
    identity, eigenvalue-weighted sum to the adjacency matrix, the all-ones
    form of E_0, ranks C(d, i), and the eigenvalue/multiplicity tables.
    Each rank is read as a trace: once E_i E_i = E_i is proved, rank(E_i)
    equals the sum of E_i's diagonal entries, which is summed exactly.
    A check-group routine: ``check`` (an ``alike.GroupResult``) counts each
    identity and stops at the first that fails; shapes fail uncounted.
    """
    import numpy as np

    d, n = ctx.d, ctx.n
    if data.d != d or len(data.items) != d + 1:
        check.fail("eigen data has the wrong shape")
    scaled = []
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
        arr = _as_scaled_int_array(ctx, e)
        if arr is None:
            check.fail(f"projector {i} entries not multiples of 1/2^d")
        scaled.append(arr)
    for i, arr in enumerate(scaled):
        check.require(np.array_equal(arr, arr.T), "projector {} is not symmetric", i)
    for i in range(d + 1):
        for j in range(d + 1):
            prod = _checked_product(scaled[i], scaled[j])
            expect = n * scaled[i] if i == j else np.zeros((n, n), dtype=np.int64)
            check.require(
                np.array_equal(prod, expect), "projector product ({},{}) is wrong", i, j
            )
    total = sum(scaled)
    check.require(
        np.array_equal(total, n * np.eye(n, dtype=np.int64)),
        "projectors do not sum to the identity",
    )
    weighted = sum((d - 2 * i) * arr for i, arr in enumerate(scaled))
    check.require(
        np.array_equal(weighted, _as_scaled_int_array(ctx, cube_adjacency(ctx))),
        "eigenvalue-weighted projector sum is not the adjacency",
    )
    check.require(
        np.array_equal(scaled[0], np.ones((n, n), dtype=np.int64)),
        "E_0 is not the normalized all-ones matrix",
    )
    for i, item in enumerate(data.items):
        check.require(
            item.idempotent.trace() == math.comb(d, i),
            "projector {0} has rank != C(d,{0})", i
        )
