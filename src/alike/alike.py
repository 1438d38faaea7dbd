"""Adjacency-commuting matrices with near-diagonal support.

For a graph with adjacency matrix A, call B "A-like" when B commutes with A
and every entry of B at a pair of distinct non-adjacent vertices is zero.
A is symmetric, so B -> B^T maps these matrices onto themselves and the
space is the direct sum of its symmetric and antisymmetric parts.

This module computes both parts for any small graph exactly, as two
independent linear systems, and for the d-cube also builds the closed-form
bases:
{I, alpha_1..alpha_d} for the symmetric part and the matrices
b_ij = alpha_star_i A alpha_star_j - alpha_star_j A alpha_star_i for the
antisymmetric part.  ``verify_all`` drives the whole identity suite and
returns a structured report.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple

from .exactlinalg import (
    CapExceeded,
    ExactMatrix,
    ExactVector,
    SubspaceBasis,
    commutator,
    exact_quotient,
    nullspace,
    span_equal,
    unvectorize,
)
from .hypercube import (
    Graph,
    HypercubeContext,
    adjacency,
    alpha,
    alpha_star,
    alpha_star_via_kron,
    alpha_via_kron,
    cube_adjacency,
    eigen_data,
    hypercube,
    idempotent_report,
    scaled_eigenvector,
)

DEFAULT_BRUTE_CAP = 64


def support_positions(g: Graph):
    """The allowed nonzero positions in a fixed order.

    All diagonal cells (x, x) by vertex index first, then for each edge
    {u, v} with u < v (edges sorted) the pair (u, v) followed by (v, u).
    """
    edges = [p for u, v in sorted(g.edges) for p in ((u, v), (v, u))]
    return tuple([(x, x) for x in range(g.n)] + edges)


class AlikeCheck(NamedTuple):
    """Outcome of the two membership conditions, with a witness on failure."""

    ok: bool
    failed_condition: str | None = None
    position: tuple | None = None
    value: int | Fraction | None = None

    def __bool__(self):
        return self.ok


class AlikeDecomposition(NamedTuple):
    """Full space plus its symmetric and antisymmetric parts.

    All three bases live in the vectorized n^2-dimensional ambient space and
    are canonical, so spans from different routes compare exactly.
    """

    graph: Graph
    full: SubspaceBasis
    symmetric: SubspaceBasis
    antisymmetric: SubspaceBasis

    @property
    def dims(self):
        return (self.full.dim, self.symmetric.dim, self.antisymmetric.dim)

    @property
    def parts(self):
        return {"full": self.full, "sym": self.symmetric, "antisym": self.antisymmetric}

    def basis_matrices(self, part="full"):
        basis = self.parts.get(part)
        if basis is None:
            raise ValueError(f"unknown part {part!r}")
        n = self.graph.n
        return [unvectorize(v, n, n) for v in basis]


def _solve_part(g: Graph, sign) -> SubspaceBasis:
    """Canonical span of the A-like B with B^T = sign * B, sign being +1 or -1.

    The unknowns are B[u, v] for each edge u < v (B[v, u] is sign times it),
    preceded for the symmetric part by the n diagonal cells.  Each cell of
    C = B A - A B is one linear equation, and C^T = -sign * C, so only the
    cells x < y (symmetric part) or x <= y (antisymmetric part) are needed.
    A term B[x, v] or B[v, y] of C[x, y] is an unknown only when v is x, y or
    a common neighbour of both, so C[x, y] is empty unless x and y are at
    distance at most 2; only those cells are visited.  A row equal to an
    earlier one up to sign is skipped: when the two diagonals of a 4-cycle
    each have just the cycle's other two vertices as common neighbours, as
    on the cube, their antisymmetric equations agree up to sign.
    """
    n = g.n
    cells = [[(x, x, 1)] for x in range(n)] if sign > 0 else []
    cells += [[(u, v, 1), (v, u, sign)] for u, v in sorted(g.edges)]
    unknown = {(x, y): (k, c) for k, group in enumerate(cells) for x, y, c in group}
    ent = {}
    nrows = 0
    seen = set()
    for x in range(n):
        near = {x}
        for v in g.neighbors(x):
            near.add(v)
            near.update(g.neighbors(v))
        for y in sorted(y for y in near if y >= x + (sign > 0)):
            # C[x, y] = sum over v ~ y of B[x, v] - sum over v ~ x of B[v, y]
            coeffs = {}
            for v in g.neighbors(y):
                if hit := unknown.get((x, v)):
                    k, c = hit
                    coeffs[k] = coeffs.get(k, 0) + c
            for v in g.neighbors(x):
                if hit := unknown.get((v, y)):
                    k, c = hit
                    coeffs[k] = coeffs.get(k, 0) - c
            row = sorted((k, c) for k, c in coeffs.items() if c)
            if not row:
                continue
            key = tuple(row) if row[0][1] > 0 else tuple((k, -c) for k, c in row)
            if key in seen:
                continue
            seen.add(key)
            for k, c in row:
                ent[(nrows, k)] = c
            nrows += 1
    kernel = nullspace(ExactMatrix._raw(max(nrows, 1), len(cells), ent))
    embedded = []
    for vec in kernel:
        amb = {}
        for k, value in vec.entries.items():
            for x, y, c in cells[k]:
                amb[x * n + y] = c * value
        embedded.append(ExactVector._raw(n * n, amb))
    return SubspaceBasis(n * n, embedded)


def solve_alike(g: Graph, cap=DEFAULT_BRUTE_CAP) -> AlikeDecomposition:
    """Solve the symmetric and antisymmetric parts exactly, as two systems.

    A is symmetric, so B -> B^T maps the space onto itself and the space is
    the direct sum of its symmetric and antisymmetric parts.  Each part is
    the kernel of its own system (see ``_solve_part``), embedded into the
    n^2 vectorized ambient space and canonicalized; ``full`` is their span.
    """
    if g.n > cap:
        raise CapExceeded(f"brute-force solver capped at {cap} vertices, got {g.n}")
    symmetric = _solve_part(g, 1)
    antisymmetric = _solve_part(g, -1)
    full = SubspaceBasis(g.n * g.n, symmetric.vectors + antisymmetric.vectors)
    return AlikeDecomposition(g, full, symmetric, antisymmetric)


def is_alike(g: Graph, b: ExactMatrix) -> AlikeCheck:
    """Check both membership conditions; report the first violated entry."""
    if b.rows != g.n or b.cols != g.n:
        raise ValueError(f"matrix is {b.rows}x{b.cols}, graph has {g.n} vertices")
    comm = commutator(b, adjacency(g))
    if comm.entries:
        pos = min(comm.entries)
        return AlikeCheck(False, "commute", pos, comm.entries[pos])
    for (x, y), value in sorted(b.entries.items()):
        if x != y and not g.has_edge(x, y):
            return AlikeCheck(False, "support", (x, y), value)
    return AlikeCheck(True)


def coordinate_pairs(d):
    """Coordinate pairs (i, j) with 1 <= i < j <= d, in lexicographic order."""
    return list(itertools.combinations(range(1, d + 1), 2))


def closed_form_sym_basis(ctx: HypercubeContext) -> list[ExactMatrix]:
    """The symmetric-part basis [I, alpha_1, ..., alpha_d]."""
    return [ExactMatrix.identity(ctx.n)] + [alpha(ctx, i) for i in range(1, ctx.d + 1)]


def b_matrix(ctx: HypercubeContext, i, j) -> ExactMatrix:
    """b_ij = alpha_star_i A alpha_star_j - alpha_star_j A alpha_star_i.

    With s = alpha_star, s_i and s_j are diagonal, so entry (x, y) of b_ij is
    A[x, y] (s_i[x] s_j[y] - s_j[x] s_i[y]).  That vanishes unless y flips
    bit i or bit j of x.  For y = x ^ e_i, s_i[y] = -s_i[x] and s_j[y] =
    s_j[x], so the entry is 2 s_i[x] s_j[x]; for y = x ^ e_j it is the
    negative.  s_i[x] s_j[x] is +1 when bits i and j of x agree and -1
    otherwise, so b_ij has exactly 2n nonzeros, each +-2, written here in
    one pass over the vertices in the cube adjacency's entry order.
    """
    if not 1 <= i < j <= ctx.d:
        raise ValueError(f"need 1 <= i < j <= {ctx.d}, got ({i}, {j})")
    bi, bj = ctx.bit(i), ctx.bit(j)
    ent = {}
    for x in range(ctx.n):
        v = 2 if (not x & bi) == (not x & bj) else -2
        ent[(x, x ^ bi)] = v
        ent[(x, x ^ bj)] = -v
    return ExactMatrix._raw(ctx.n, ctx.n, ent)


def closed_form_antisym_basis(ctx: HypercubeContext) -> list[ExactMatrix]:
    """The antisymmetric-part basis [b_ij for 1 <= i < j <= d], lexicographic."""
    return [b_matrix(ctx, i, j) for i, j in coordinate_pairs(ctx.d)]


def closed_form_spans(ctx: HypercubeContext) -> dict:
    """Spans of the closed-form bases, keyed "full", "sym" and "antisym"."""
    sym = closed_form_sym_basis(ctx)
    antisym = closed_form_antisym_basis(ctx)
    return {
        "full": SubspaceBasis.from_matrices(sym + antisym),
        "sym": SubspaceBasis.from_matrices(sym),
        "antisym": SubspaceBasis.from_matrices(antisym, shape=(ctx.n, ctx.n)),
    }


def characterization_residual(ctx: HypercubeContext, b: ExactMatrix, i, j) -> ExactMatrix:
    """s_i s_j B - s_i B s_j - s_j B s_i + B s_i s_j with s = alpha_star.

    Computed as [s_i, [s_j, B]]: the diagonal s_i and s_j commute, so the
    nested commutator expands to the same four terms, and each commutator
    with a diagonal is one pass over the entries, with no matrix product.
    Entry (x, y) equals (s_i[x,x] - s_i[y,y]) (s_j[x,x] - s_j[y,y]) B[x,y],
    so the residual vanishes for every pair i < j exactly when the support
    of B lies inside {equal or adjacent}.
    """
    if not 1 <= i < j <= ctx.d:
        raise ValueError(f"need 1 <= i < j <= {ctx.d}, got ({i}, {j})")
    if b.rows != ctx.n or b.cols != ctx.n:
        raise ValueError("matrix does not match the cube size")
    return commutator(alpha_star(ctx, i), commutator(alpha_star(ctx, j), b))


def restriction_to_E1(ctx: HypercubeContext, b: ExactMatrix) -> ExactMatrix:
    """Matrix of B restricted to the eigenvalue-(d-2) eigenspace.

    Written in the orthonormal basis of singleton sign vectors:
    M[t-1, s-1] = <W_{t}, B W_{s}> / 2^d.  Requires B to commute with the
    cube adjacency so the eigenspace is invariant.
    """
    if b.rows != ctx.n or b.cols != ctx.n:
        raise ValueError("matrix does not match the cube size")
    comm = commutator(b, cube_adjacency(ctx))
    if comm.entries:
        pos = min(comm.entries)
        raise ValueError(
            f"matrix does not commute with the cube adjacency (entry {pos})"
        )
    singles = [scaled_eigenvector(ctx, 1 << (t - 1)).vec for t in range(1, ctx.d + 1)]
    ent = {}
    for s in range(1, ctx.d + 1):
        image = b.matvec(singles[s - 1])
        for t in range(1, ctx.d + 1):
            value = exact_quotient(singles[t - 1].inner(image), ctx.n)
            if value:
                ent[(t - 1, s - 1)] = value
    return ExactMatrix._raw(ctx.d, ctx.d, ent)


def bij_action_on_wS(ctx: HypercubeContext, i, j, s):
    """Closed-form action of b_ij on the sign vector of subset s.

    Returns (coefficient, subset_mask): (-4, (s | j) \\ i) when i is in s and
    j is not, (+4, (s | i) \\ j) in the mirrored case, and (0, None) otherwise.
    """
    if not 1 <= i < j <= ctx.d:
        raise ValueError(f"need 1 <= i < j <= {ctx.d}, got ({i}, {j})")
    mask = s if isinstance(s, int) else ctx.mask_of(s)
    if not 0 <= mask < ctx.n:
        raise ValueError(f"subset mask {mask} out of range for d={ctx.d}")
    bi, bj = ctx.bit(i), ctx.bit(j)
    in_i = bool(mask & bi)
    in_j = bool(mask & bj)
    if in_i and not in_j:
        return -4, (mask | bj) & ~bi
    if in_j and not in_i:
        return 4, (mask | bi) & ~bj
    return 0, None


# -- verification -------------------------------------------------------------

SKIP_ALIASES = {"brute": "dimensions"}

# Largest d checked exhaustively, and the sample size above it.
_EIGEN_EXHAUSTIVE_D, _EIGEN_SAMPLE = 10, 128
_CHAR_EXHAUSTIVE_D, _CHAR_SAMPLE = 8, 10
_TABLE_EXHAUSTIVE_D, _TABLE_SAMPLE = 5, 120


class _Failed(Exception):
    """Ends a check group at its first failing requirement."""


class GroupResult(SimpleNamespace):
    """Verdict, check count and sampling flag of one check group.

    A check routine takes it first.  ``require`` counts a condition that holds;
    on a failing one it records the witness and raises, which ends ``run``.
    The witness is a ``str.format`` template, filled from ``args`` only on
    failure, so a passing check formats nothing.
    """

    def __init__(
        self, name, passed=True, checks=0, sampled=False, skipped=False,
        reason=None, witness=None,
    ):
        # the keyword order is the key order of the serialized report
        super().__init__(
            name=name, passed=passed, checks=checks, sampled=sampled,
            skipped=skipped, reason=reason, witness=witness,
        )

    def run(self, group, *args):
        """Call ``group(self, *args)`` up to its first failure; returns self."""
        try:
            group(self, *args)
        except _Failed:
            pass
        return self

    def fail(self, witness):
        """Fail the group without counting a check."""
        self.passed = False
        self.witness = witness
        raise _Failed

    def require(self, condition, witness, *args):
        if not condition:
            self.fail(witness.format(*args))
        self.checks += 1

    def to_dict(self):
        return dict(vars(self))


class VerificationReport(SimpleNamespace):
    def __init__(self, d, seed, groups=None, timings=None):
        super().__init__(
            d=d, seed=seed,
            groups=[] if groups is None else groups,
            timings={} if timings is None else timings,
        )

    @property
    def all_passed(self):
        """True when at least one group ran and every group that ran passed."""
        ran = [g for g in self.groups if not g.skipped]
        return bool(ran) and all(g.passed for g in ran)

    def group(self, name):
        return {g.name: g for g in self.groups}[name]

    def to_dict(self):
        # timings deliberately excluded: the dict is the deterministic payload
        return {
            "d": self.d,
            "seed": self.seed,
            "all_passed": self.all_passed,
            "groups": [g.to_dict() for g in self.groups],
        }


def _matches_sign_vector(ctx, entries, mask, scale):
    """Entries equal scale * W_mask (empty when scale is 0), checked exactly."""
    if scale == 0:
        return not entries
    return len(entries) == ctx.n and all(
        v == (-scale if (mask & x).bit_count() & 1 else scale)
        for x, v in entries.items()
    )


def _random_fraction(rng):
    return exact_quotient(rng.randint(-6, 6), rng.randint(1, 3))


def _random_nonzero_fraction(rng):
    num = rng.randint(1, 6) * rng.choice((-1, 1))
    return exact_quotient(num, rng.randint(1, 3))


def _random_support_matrix(n, positions, rng):
    ent = {pos: value for pos in positions if (value := _random_fraction(rng))}
    return ExactMatrix._raw(n, n, ent)


def _residual_factor(stars, i, j, x, y):
    """Entry (x, y) of the (i, j) residual divided by B[x, y]."""
    return (stars[i][x, x] - stars[i][y, y]) * (stars[j][x, x] - stars[j][y, y])


def _close_columns(g, x):
    """The columns y of row x for which (x, y) is not a distant pair.

    A distant pair differs in at least two coordinates, so a residual pair
    exists for it, and is not an edge of g.  The rest of row x is x itself,
    its neighbours in g, and x with one bit flipped.
    """
    flips = (x ^ (1 << b) for b in range(g.n.bit_length()))
    return {x, *g.neighbors(x), *(y for y in flips if y < g.n)}


def _distant_counts(g):
    """Number of distant pairs (x, y) in each row x, without listing them."""
    return [g.n - len(_close_columns(g, x)) for x in range(g.n)]


def _distant_pair(g, counts, k):
    """The k-th distant pair in row-major order, ``counts`` from _distant_counts."""
    for x, count in enumerate(counts):
        if k < count:
            close = _close_columns(g, x)
            return x, [y for y in range(g.n) if y not in close][k]
        k -= count


def characterization_cases(check, ctx, g, rng, cases):
    """Seeded two-direction test of the support/residual equivalence.

    Direction one: matrices supported inside {equal or adjacent} have zero
    residual for every pair i < j.  Direction two: planting one entry at a
    distant pair makes the residual for a pair of differing coordinates
    nonzero at exactly that entry.  Draws ``cases`` matrices per direction.
    """
    positions = support_positions(g)
    pairs = coordinate_pairs(ctx.d)
    for case in range(cases):
        b = _random_support_matrix(g.n, positions, rng)
        for i, j in pairs:
            residual = characterization_residual(ctx, b, i, j)
            check.require(
                not residual.entries,
                "supported case {}: residual ({},{}) is nonzero", case, i, j
            )
    counts = _distant_counts(g)
    total = sum(counts)
    if not (total and pairs):
        return
    stars = {i: alpha_star(ctx, i) for i in range(1, ctx.d + 1)}
    for case in range(cases):
        # randrange(total) draws as rng.choice would from the row-major list
        # of every distant pair, so the seeded cases stay fixed
        x, y = _distant_pair(g, counts, rng.randrange(total))
        planted = _random_nonzero_fraction(rng)
        b = _random_support_matrix(g.n, positions, rng)
        b = ExactMatrix._raw(g.n, g.n, {**b.entries, (x, y): planted})
        i, j = ctx.coords_of(x ^ y)[:2]
        got = characterization_residual(ctx, b, i, j)[x, y]
        expect = _residual_factor(stars, i, j, x, y) * planted
        check.require(
            expect != 0 and got == expect,
            "planted case {}: residual ({},{}) at {} is {}, expected {}",
            case, i, j, (x, y), got, expect
        )


def _group_alpha(check, ctx, g, rng):
    d, n = ctx.d, ctx.n
    ident = ExactMatrix.identity(n)
    alphas = {i: alpha(ctx, i) for i in range(1, d + 1)}
    stars = {i: alpha_star(ctx, i) for i in range(1, d + 1)}
    for i in range(1, d + 1):
        check.require(alphas[i] @ alphas[i] == ident, "alpha_{}^2 != I", i)
        check.require(stars[i] @ stars[i] == ident, "alpha_star_{}^2 != I", i)
        chain = alpha_via_kron(ctx, i)
        check.require(chain == alphas[i], "alpha_{} != its Kronecker chain", i)
        chain = alpha_star_via_kron(ctx, i)
        check.require(chain == stars[i], "alpha_star_{} != its Kronecker chain", i)
    for i, j in itertools.product(range(1, d + 1), repeat=2):
        commute = alphas[i] @ alphas[j] == alphas[j] @ alphas[i]
        check.require(commute, "alpha_{} and alpha_{} do not commute", i, j)
        commute = stars[i] @ stars[j] == stars[j] @ stars[i]
        check.require(commute, "alpha_star_{} and alpha_star_{} do not commute", i, j)
        # alpha_i anticommutes with alpha_star_i and commutes with the others
        rhs = stars[j] @ alphas[i]
        relation = "anticommute" if i == j else "commute"
        holds = alphas[i] @ stars[j] == (-rhs if i == j else rhs)
        check.require(holds, "alpha_{} and alpha_star_{} do not {}", i, j, relation)
    total = sum(alphas.values(), ExactMatrix.zeros(n))
    check.require(total == adjacency(g), "sum of alpha_i is not the adjacency matrix")


def _group_eigenbasis(check, ctx, g, rng):
    d, n = ctx.d, ctx.n
    alphas = {i: alpha(ctx, i) for i in range(1, d + 1)}
    stars = {i: alpha_star(ctx, i) for i in range(1, d + 1)}
    adj = cube_adjacency(ctx)
    masks = range(n)
    if d > _EIGEN_EXHAUSTIVE_D:
        check.sampled = True
        masks = {0, n - 1}
        while len(masks) < _EIGEN_SAMPLE:
            masks.add(rng.randrange(n))
        masks = sorted(masks)
    signs = {}
    for mask in masks:
        vec = scaled_eigenvector(ctx, mask).vec
        for i in range(1, d + 1):
            bit = 1 << (i - 1)
            moved = alphas[i].matvec(vec).entries
            ok = _matches_sign_vector(ctx, moved, mask, -1 if mask & bit else 1)
            check.require(ok, "alpha_{} action wrong on mask {}", i, mask)
            starred = stars[i].matvec(vec).entries
            ok = _matches_sign_vector(ctx, starred, mask ^ bit, 1)
            check.require(ok, "alpha_star_{} action wrong on mask {}", i, mask)
        image = adj.matvec(vec).entries
        ok = _matches_sign_vector(ctx, image, mask, d - 2 * mask.bit_count())
        check.require(ok, "adjacency action wrong on mask {}", mask)
        # packed with bit x set where W_mask[x] is -1, <W_s, W_t> is
        # n - 2 popcount(w_s ^ w_t); that holds only for +-1 vectors
        if len(vec.entries) != n or not set(vec.entries.values()) <= {1, -1}:
            check.fail(f"W_{mask} is not a +-1 vector")
        signs[mask] = sum(1 << x for x, v in vec.entries.items() if v == -1)
    for s, ws in signs.items():
        for t, wt in signs.items():
            expect = n if s == t else 0
            got = n - 2 * (ws ^ wt).bit_count()
            check.require(got == expect, "<W_{}, W_{}> != {}", s, t, expect)


def _group_characterization(check, ctx, g, rng):
    # residuals cost O(C(d,2) * cube size) per case; keep big cubes snappy
    cases = 50 if ctx.d <= 5 else 12 if ctx.d <= 8 else 4
    characterization_cases(check, ctx, g, rng, cases)
    # residual route vs entrywise product formula, on unrestricted matrices
    n = ctx.n
    stars = {i: alpha_star(ctx, i) for i in range(1, ctx.d + 1)}
    pairs = coordinate_pairs(ctx.d)
    exhaustive = ctx.d <= _CHAR_EXHAUSTIVE_D
    # above the cap: a sample of pairs per matrix, and no b_pq block
    check.sampled = not exhaustive
    for _ in range(5):
        ent = {}
        for _ in range(3 * n):
            x, y, value = rng.randrange(n), rng.randrange(n), _random_fraction(rng)
            if value:
                ent[(x, y)] = value
        b = ExactMatrix._raw(n, n, ent)
        chosen = pairs if exhaustive else rng.sample(pairs, _CHAR_SAMPLE)
        for i, j in chosen:
            residual = characterization_residual(ctx, b, i, j)
            formula = {}
            for (x, y), value in b.entries.items():
                product = _residual_factor(stars, i, j, x, y) * value
                if product:
                    formula[(x, y)] = product
            check.require(
                residual.entries == formula,
                "residual ({},{}) disagrees with the entrywise formula", i, j
            )
    if exhaustive:
        for p, q in pairs:
            b = b_matrix(ctx, p, q)
            for i, j in pairs:
                residual = characterization_residual(ctx, b, i, j)
                check.require(
                    not residual.entries,
                    "residual ({},{}) of b_{}{} is nonzero", i, j, p, q
                )


def _group_sym_basis(check, ctx, g, rng):
    mats = closed_form_sym_basis(ctx)
    if len(mats) != ctx.d + 1:
        check.fail("symmetric basis has the wrong length")
    supports = []
    for idx, m in enumerate(mats):
        verdict = is_alike(g, m)
        check.require(
            verdict,
            "symmetric basis element {} fails membership ({} at {})",
            idx, verdict.failed_condition, verdict.position
        )
        check.require(m.is_symmetric(), "symmetric basis element {} not symmetric", idx)
        constant = len({m[x, x] for x in range(ctx.n)}) == 1
        check.require(
            constant, "symmetric basis element {} has a nonconstant diagonal", idx
        )
        supports.append(set(m.entries))
    for a, b in itertools.combinations(supports, 2):
        check.require(not a & b, "symmetric basis supports overlap")
    independent = SubspaceBasis.from_matrices(mats).dim == ctx.d + 1
    check.require(independent, "symmetric basis is linearly dependent")


def _group_antisym_basis(check, ctx, g, rng):
    d, n = ctx.d, ctx.n
    adj = cube_adjacency(ctx)
    alphas = {i: alpha(ctx, i) for i in range(1, d + 1)}
    stars = {i: alpha_star(ctx, i) for i in range(1, d + 1)}
    pairs = coordinate_pairs(d)
    mats = {}
    for i, j in pairs:
        b = mats[(i, j)] = b_matrix(ctx, i, j)
        product = (stars[i] @ stars[j] @ (alphas[i] - alphas[j])).scale(2)
        check.require(
            b == product, "b_{0}{1} != 2 s_{0} s_{1} (alpha_{0} - alpha_{1})", i, j
        )
        check.require(b.transpose() == -b, "b_{}{} is not antisymmetric", i, j)
        # both stay: adj is the cube's, while is_alike tests the graph verify_all got
        commutes = not commutator(b, adj).entries
        check.require(commutes, "b_{}{} does not commute with the adjacency", i, j)
        verdict = is_alike(g, b)
        check.require(
            verdict, "b_{}{} fails membership ({})", i, j, verdict.failed_condition
        )
        for ell in range(1, d + 1):
            lhs = b @ alphas[ell]
            rhs = alphas[ell] @ b
            ok = lhs == (-rhs if ell in (i, j) else rhs)
            check.require(ok, "b_{}{} sign relation with alpha_{} fails", i, j, ell)
    if d > _TABLE_EXHAUSTIVE_D:
        check.sampled = True
        combos = [(*rng.choice(pairs), rng.randrange(n)) for _ in range(_TABLE_SAMPLE)]
    else:
        combos = [(i, j, mask) for (i, j) in pairs for mask in range(n)]
    for i, j, mask in combos:
        coeff, target = bij_action_on_wS(ctx, i, j, mask)
        image = mats[(i, j)].matvec(scaled_eigenvector(ctx, mask).vec).entries
        check.require(
            _matches_sign_vector(ctx, image, target or 0, coeff),
            "b_{}{} action on mask {} does not match the table", i, j, mask
        )
    if pairs:
        independent = SubspaceBasis.from_matrices(list(mats.values())).dim == len(pairs)
        check.require(independent, "antisymmetric basis is linearly dependent")


def _group_dimensions(check, ctx, g, rng):
    d = ctx.d
    # verify_all skips the group for graphs above the caller's solver cap
    decomposition = solve_alike(g, cap=g.n)
    expected = (1 + d + math.comb(d, 2), d + 1, math.comb(d, 2))
    got = decomposition.dims
    check.require(got == expected, "solver dims {} != formula {}", got, expected)
    for label, closed in closed_form_spans(ctx).items():
        same = span_equal(decomposition.parts[label], closed)
        check.require(same, "solver {} span differs from the closed form", label)


def _group_restriction(check, ctx, g, rng):
    d = ctx.d
    restrictions = []
    for i, j in coordinate_pairs(d):
        m = restriction_to_E1(ctx, b_matrix(ctx, i, j))
        expected = ExactMatrix(d, d, {(i - 1, j - 1): 4, (j - 1, i - 1): -4})
        check.require(
            m == expected,
            "restriction of b_{0}{1} is not 4(e_{0}e_{1}^T - e_{1}e_{0}^T)", i, j
        )
        check.require(
            m.is_antisymmetric(), "restriction of b_{}{} not antisymmetric", i, j
        )
        restrictions.append(m)
    if restrictions:
        spanning = SubspaceBasis.from_matrices(restrictions).dim == math.comb(d, 2)
        check.require(spanning, "restrictions do not span the antisymmetric space")


def _skip_solver(ctx, g, brute_cap):
    if g.n > brute_cap:
        return f"brute-force solver capped at {brute_cap} vertices"
    return None


#: Check group name -> (run(result, ctx, graph, rng), skip(ctx, graph,
#: brute_cap) giving the reason the group is skipped, or None to run it).  A
#: group reaches the functions it checks through this module's globals at call
#: time, so a tracer that patches those names sees every call.
GROUPS = {
    "alpha": (_group_alpha, None),
    "eigenbasis": (_group_eigenbasis, None),
    "idempotents": (
        lambda check, ctx, g, rng: idempotent_report(check, ctx, eigen_data(ctx)),
        None,
    ),
    "characterization": (_group_characterization, None),
    "sym_basis": (_group_sym_basis, None),
    "antisym_basis": (_group_antisym_basis, None),
    "dimensions": (_group_dimensions, _skip_solver),
    "restriction": (_group_restriction, None),
}

GROUP_NAMES = tuple(GROUPS)


def resolve_groups(names):
    """Canonical check-group names; 'brute' is an alias of 'dimensions'."""
    resolved = [SKIP_ALIASES.get(name, name) for name in names]
    unknown = [name for name in resolved if name not in GROUPS]
    if unknown:
        raise ValueError(f"unknown check group: {', '.join(map(repr, unknown))}")
    return resolved


def verify_all(
    ctx: HypercubeContext, groups=None, seed=0, graph=None, brute_cap=DEFAULT_BRUTE_CAP
) -> VerificationReport:
    """Run the selected identity-check groups and collect a report.

    ``graph`` overrides the cube graph wherever a graph is consumed (support
    positions, membership checks, the adjacency-sum identity, the brute-force
    solve); it exists so tests can feed corrupted data and watch the checks
    fail.  Groups whose size caps are exceeded are reported as skipped, not
    failed.  Per-group wall-clock timings are kept on the report object but
    stay out of ``to_dict`` so serialized reports are deterministic.  An
    empty selection is a ``ValueError``: a report that checked nothing must
    not read as a pass.
    """
    selected = GROUP_NAMES if groups is None else resolve_groups(groups)
    if not selected:
        raise ValueError("no check group selected")
    if graph is None:
        graph = hypercube(ctx.d, cap=ctx.d)[0]
    report = VerificationReport(d=ctx.d, seed=seed)
    for name, (run, skip) in GROUPS.items():
        if name not in selected:
            continue
        start = time.perf_counter()
        reason = skip(ctx, graph, brute_cap) if skip else None
        if reason:
            result = GroupResult(name, None, skipped=True, reason=reason)
        else:
            rng = random.Random(f"{seed}:{name}")
            result = GroupResult(name).run(run, ctx, graph, rng)
        report.timings[name] = time.perf_counter() - start
        report.groups.append(result)
    return report
