"""Hypercube graphs and their structure matrices.

Vertices of the d-cube are bitmasks 0..2^d-1; coordinate i (1-based) of
vertex x is bit i-1, and two vertices are adjacent iff they differ in exactly
one bit.  This module builds the coordinate-flip permutations alpha_i, the
coordinate-sign diagonals alpha_star_i, their 2x2 Kronecker factors, the +-1
character eigenvectors, and the spectral projectors of the adjacency matrix.
It also provides small-graph utilities: BFS distances, distance matrices, a
distance-regularity check, and JSON ingestion.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .exactlinalg import (
    CapExceeded,
    ExactMatrix,
    ExactVector,
    exact_quotient,
    kron,
    rank,
)

DEFAULT_CONSTRUCTION_CAP = 12
DEFAULT_PROJECTOR_CAP = 8

_ONE = 1
_MINUS_ONE = -1

#: 2x2 factor that swaps the two basis states of one coordinate.
FLIP2 = ExactMatrix.from_rows([[0, 1], [1, 0]])
#: 2x2 factor diag(1, -1) recording the value of one coordinate.
SIGN2 = ExactMatrix.from_rows([[1, 0], [0, -1]])


class Graph:
    """Undirected simple graph on vertices 0..n-1 with BFS distance queries."""

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
        adj = [[] for _ in range(n)]
        for u, v in sorted(seen):
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(tuple(sorted(nb)) for nb in adj)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={len(self.edges)})"

    def __eq__(self, other):
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def has_edge(self, u, v):
        return (min(u, v), max(u, v)) in self.edges

    def bfs_distances(self, source):
        """Distances from ``source``; unreachable vertices get -1."""
        dist = [-1] * self.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            x = queue.popleft()
            dx = dist[x] + 1
            for y in self._adj[x]:
                if dist[y] < 0:
                    dist[y] = dx
                    queue.append(y)
        return dist

    def distance(self, u, v):
        return self.bfs_distances(u)[v]

    def is_connected(self):
        return -1 not in self.bfs_distances(0)

    def diameter(self):
        best = 0
        for v in range(self.n):
            dist = self.bfs_distances(v)
            if -1 in dist:
                raise ValueError("diameter of a disconnected graph is undefined")
            best = max(best, max(dist))
        return best


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
    normalized = []
    for e in raw:
        if (
            not isinstance(e, (list, tuple))
            or len(e) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in e)
        ):
            raise ValueError(f"malformed edge {e!r}")
        u, v = e
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {e!r} out of range for {n} vertices")
        normalized.append((min(u, v), max(u, v)))
    if len(set(normalized)) != len(normalized):
        raise ValueError("duplicate edges present")
    return Graph(n, normalized)


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_dict(json.load(fh))


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

    def coordinate(self, x, i):
        return (x >> (i - 1)) & 1

    def flip(self, x, i):
        return x ^ self.bit(i)

    def mask_of(self, coords):
        mask = 0
        for i in coords:
            mask |= self.bit(i)
        return mask

    def coords_of(self, mask):
        return tuple(i for i in range(1, self.d + 1) if mask >> (i - 1) & 1)

    def subset_masks(self, size=None):
        """All coordinate subsets as masks, optionally restricted by size."""
        if size is None:
            return range(self.n)
        return (
            self.mask_of(combo)
            for combo in itertools.combinations(range(1, self.d + 1), size)
        )


def hypercube(d, cap=DEFAULT_CONSTRUCTION_CAP):
    """The d-cube as (Graph, HypercubeContext)."""
    if d < 1:
        raise ValueError("hypercube dimension must be at least 1")
    if d > cap:
        raise CapExceeded(f"hypercube construction capped at d<={cap}, got d={d}")
    n = 1 << d
    edges = []
    for x in range(n):
        for b in range(d):
            y = x ^ (1 << b)
            if x < y:
                edges.append((x, y))
    return Graph(n, edges), HypercubeContext(d)


def adjacency(g: Graph) -> ExactMatrix:
    ent = {}
    for u, v in g.edges:
        ent[(u, v)] = _ONE
        ent[(v, u)] = _ONE
    return ExactMatrix._raw(g.n, g.n, ent)


def cube_adjacency(ctx: HypercubeContext) -> ExactMatrix:
    """Adjacency matrix of the d-cube straight from the bitmask encoding."""
    ent = {}
    for x in range(ctx.n):
        for b in range(ctx.d):
            ent[(x, x ^ (1 << b))] = _ONE
    return ExactMatrix._raw(ctx.n, ctx.n, ent)


def distance_matrix(g: Graph, i) -> ExactMatrix:
    """0/1 matrix of vertex pairs at BFS distance exactly i."""
    if i < 0:
        raise ValueError("distance must be nonnegative")
    if i == 0:
        return ExactMatrix.identity(g.n)
    ent = {}
    disconnected = False
    for x in range(g.n):
        dist = g.bfs_distances(x)
        if -1 in dist:
            disconnected = True
        for y, dxy in enumerate(dist):
            if dxy == i:
                ent[(x, y)] = _ONE
    if disconnected and i > 1:
        raise ValueError("distance partition of a disconnected graph is undefined")
    return ExactMatrix._raw(g.n, g.n, ent)


def distance_matrices(g: Graph) -> list[ExactMatrix]:
    """All distance matrices A_0..A_diameter; requires a connected graph."""
    if not g.is_connected():
        raise ValueError("distance partition of a disconnected graph is undefined")
    diam = g.diameter()
    return [distance_matrix(g, i) for i in range(diam + 1)]


def alpha(ctx: HypercubeContext, i) -> ExactMatrix:
    """Permutation matrix that flips coordinate i of every vertex."""
    bit = ctx.bit(i)
    return ExactMatrix._raw(
        ctx.n, ctx.n, {(x, x ^ bit): _ONE for x in range(ctx.n)}
    )


def alpha_star(ctx: HypercubeContext, i) -> ExactMatrix:
    """Diagonal matrix with (x, x) entry +1 if coordinate i of x is 0, else -1."""
    bit = ctx.bit(i)
    return ExactMatrix._raw(
        ctx.n,
        ctx.n,
        {(x, x): (_MINUS_ONE if x & bit else _ONE) for x in range(ctx.n)},
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
        x: (_MINUS_ONE if (mask & x).bit_count() & 1 else _ONE) for x in range(ctx.n)
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


def eigen_data(ctx: HypercubeContext, cap=DEFAULT_PROJECTOR_CAP) -> EigenData:
    """Eigenvalues d-2i, multiplicities C(d, i), and spectral projectors.

    The projector for eigenvalue d-2i is assembled exactly, as 2^-d times the
    sum of W_S W_S^T over the weight-i sign vectors.  The accumulation runs in
    64-bit integers; entries are bounded by C(d, i), far below overflow.
    """
    if ctx.d > cap:
        raise CapExceeded(
            f"dense spectral projectors capped at d<={cap}, got d={ctx.d}"
        )
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
    # exactness guard: int64 accumulation must not be able to wrap
    bound = a.shape[1] * int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0))
    if bound >= 2**62:
        raise RuntimeError("integer product could overflow 64-bit accumulation")
    return a @ b


def idempotent_report(ctx: HypercubeContext, data: EigenData):
    """Exact verification of the spectral projector identities.

    Checks symmetry, pairwise products E_i E_j = delta_ij E_i, sum to the
    identity, eigenvalue-weighted sum to the adjacency matrix, the all-ones
    form of E_0, ranks C(d, i), and the eigenvalue/multiplicity tables.
    Returns (ok, checks, witness).
    """
    d, n = ctx.d, ctx.n
    checks = 0
    if data.d != d or len(data.items) != d + 1:
        return False, checks, "eigen data has the wrong shape"
    scaled = []
    for i, item in enumerate(data.items):
        if item.theta != d - 2 * i:
            return False, checks, f"eigenvalue table wrong at i={i}: {item.theta}"
        if item.multiplicity != math.comb(d, i):
            return False, checks, f"multiplicity table wrong at i={i}"
        checks += 2
        e = item.idempotent
        if e.rows != n or e.cols != n:
            return False, checks, f"projector {i} has shape {e.rows}x{e.cols}"
        arr = _as_scaled_int_array(ctx, e)
        if arr is None:
            return False, checks, f"projector {i} entries not multiples of 1/2^d"
        scaled.append(arr)
    for i, arr in enumerate(scaled):
        if not np.array_equal(arr, arr.T):
            return False, checks, f"projector {i} is not symmetric"
        checks += 1
    for i in range(d + 1):
        for j in range(d + 1):
            prod = _checked_product(scaled[i], scaled[j])
            expect = n * scaled[i] if i == j else np.zeros((n, n), dtype=np.int64)
            if not np.array_equal(prod, expect):
                return False, checks, f"projector product ({i},{j}) is wrong"
            checks += 1
    total = sum(scaled)
    if not np.array_equal(total, n * np.eye(n, dtype=np.int64)):
        return False, checks, "projectors do not sum to the identity"
    checks += 1
    weighted = sum((d - 2 * i) * arr for i, arr in enumerate(scaled))
    if not np.array_equal(weighted, _as_scaled_int_array(ctx, cube_adjacency(ctx))):
        return False, checks, "eigenvalue-weighted projector sum is not the adjacency"
    checks += 1
    if not np.array_equal(scaled[0], np.ones((n, n), dtype=np.int64)):
        return False, checks, "E_0 is not the normalized all-ones matrix"
    checks += 1
    for i, item in enumerate(data.items):
        if rank(item.idempotent) != math.comb(d, i):
            return False, checks, f"projector {i} has rank != C(d,{i})"
        checks += 1
    return True, checks, None


@dataclass(frozen=True)
class DistanceRegularityReport:
    """Outcome of the intersection-number scan.

    ``intersection_numbers[h][i][j]`` counts vertices at distance i from x and
    j from y over any pair (x, y) at distance h; ``witness`` holds the first
    pair of pairs that disagree when the graph is not distance-regular.
    """

    ok: bool
    diameter: int
    intersection_numbers: tuple | None
    witness: dict | None = field(default=None)

    @property
    def valency(self):
        if self.intersection_numbers is None:
            return None
        return self.intersection_numbers[0][1][1] if self.diameter >= 1 else 0


def verify_distance_regular(g: Graph) -> DistanceRegularityReport:
    """Scan all vertex pairs for constant intersection numbers."""
    dist = [g.bfs_distances(v) for v in range(g.n)]
    if any(-1 in row for row in dist):
        raise ValueError("distance-regularity check requires a connected graph")
    diam = max(max(row) for row in dist)
    table = [None] * (diam + 1)
    first_pair = [None] * (diam + 1)
    for x in range(g.n):
        dx = dist[x]
        for y in range(g.n):
            dy = dist[y]
            h = dx[y]
            counts = [[0] * (diam + 1) for _ in range(diam + 1)]
            for v in range(g.n):
                counts[dx[v]][dy[v]] += 1
            if table[h] is None:
                table[h] = counts
                first_pair[h] = (x, y)
            elif table[h] != counts:
                for i in range(diam + 1):
                    for j in range(diam + 1):
                        if table[h][i][j] != counts[i][j]:
                            witness = {
                                "h": h,
                                "i": i,
                                "j": j,
                                "pair_a": first_pair[h],
                                "count_a": table[h][i][j],
                                "pair_b": (x, y),
                                "count_b": counts[i][j],
                            }
                            return DistanceRegularityReport(
                                False, diam, None, witness
                            )
    return DistanceRegularityReport(
        True, diam, tuple(tuple(tuple(r) for r in t) for t in table), None
    )
