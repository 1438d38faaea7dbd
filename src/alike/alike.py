"""Adjacency-commuting matrices with near-diagonal support.

For a graph with adjacency matrix A, call B "A-like" when B commutes with A
and every entry of B at a pair of distinct non-adjacent vertices is zero.
These matrices form a transpose-closed subspace, so it splits into a
symmetric and an antisymmetric part.

This module computes that space for any small graph by exact constraint
solving, and for the d-cube also builds the closed-form bases:
{I, alpha_1..alpha_d} for the symmetric part and the matrices
b_ij = alpha_star_i A alpha_star_j - alpha_star_j A alpha_star_i for the
antisymmetric part.  ``verify_all`` drives the whole identity suite and
returns a structured report.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

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
    vectorize,
)
from .hypercube import (
    DEFAULT_PROJECTOR_CAP,
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


class SupportPattern:
    """Deterministic ordering of the allowed nonzero positions.

    All diagonal cells (x, x) by vertex index first, then for each edge
    {u, v} with u < v (edges sorted) the pair (u, v) followed by (v, u).
    The position index doubles as the unknown index in the solver.
    """

    __slots__ = ("n", "positions", "_index")

    def __init__(self, n, positions):
        self.n = n
        self.positions = tuple(positions)
        self._index = {pos: k for k, pos in enumerate(self.positions)}

    @classmethod
    def for_graph(cls, g: Graph):
        positions = [(x, x) for x in range(g.n)]
        for u, v in sorted(g.edges):
            positions.append((u, v))
            positions.append((v, u))
        return cls(g.n, positions)

    def __len__(self):
        return len(self.positions)

    def __iter__(self):
        return iter(self.positions)

    def __getitem__(self, k):
        return self.positions[k]

    def index_of(self, x, y):
        return self._index.get((x, y))


@dataclass(frozen=True)
class AlikeCheck:
    """Outcome of the two membership conditions, with a witness on failure."""

    ok: bool
    failed_condition: str | None = None
    position: tuple | None = None
    value: int | Fraction | None = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class AlikeDecomposition:
    """Full space plus its symmetric and antisymmetric parts.

    All three bases live in the vectorized n^2-dimensional ambient space and
    are canonical, so spans from different routes compare exactly.
    """

    graph: Graph
    support: SupportPattern
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


def solve_alike(g: Graph, cap=DEFAULT_BRUTE_CAP) -> AlikeDecomposition:
    """Solve the commutation constraints over the support pattern exactly.

    Unknowns are the support positions; each matrix cell of B A - A B yields
    one linear equation.  The kernel is re-embedded into the n^2 vectorized
    ambient space, canonicalized, and split by B -> (B +- B^T)/2.
    """
    if g.n > cap:
        raise CapExceeded(f"brute-force solver capped at {cap} vertices, got {g.n}")
    pattern = SupportPattern.for_graph(g)
    n = g.n
    ent = {}
    nrows = 0
    for x in range(n):
        for y in range(n):
            coeffs = {}
            for v in g.neighbors(y):
                k = pattern.index_of(x, v)
                if k is not None:
                    coeffs[k] = coeffs.get(k, 0) + 1
            for v in g.neighbors(x):
                k = pattern.index_of(v, y)
                if k is not None:
                    coeffs[k] = coeffs.get(k, 0) - 1
            row = {k: c for k, c in coeffs.items() if c}
            if row:
                for k, c in row.items():
                    ent[(nrows, k)] = c
                nrows += 1
    system = ExactMatrix._raw(max(nrows, 1), len(pattern), ent)
    kernel = nullspace(system)

    embedded = []
    for vec in kernel:
        amb = {}
        for k, value in vec.entries.items():
            x, y = pattern[k]
            amb[x * n + y] = value
        embedded.append(ExactVector._raw(n * n, amb))
    full = SubspaceBasis(n * n, embedded)

    sym_vecs = []
    antisym_vecs = []
    for vec in full:
        b = unvectorize(vec, n, n)
        bt = b.transpose()
        if not full.contains_matrix(bt):
            raise AssertionError(
                "solution space is not transpose-closed; "
                "this cannot happen for an undirected graph"
            )
        # the parts are (b +- bt) / 2; a span ignores the factor 1/2
        sym_vecs.append(vectorize(b + bt))
        antisym_vecs.append(vectorize(b - bt))
    symmetric = SubspaceBasis(n * n, sym_vecs)
    antisymmetric = SubspaceBasis(n * n, antisym_vecs)
    if symmetric.dim + antisymmetric.dim != full.dim:
        raise AssertionError("symmetric/antisymmetric split does not add up")
    return AlikeDecomposition(g, pattern, full, symmetric, antisymmetric)


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
    """b_ij = alpha_star_i A alpha_star_j - alpha_star_j A alpha_star_i."""
    if not 1 <= i < j <= ctx.d:
        raise ValueError(f"need 1 <= i < j <= {ctx.d}, got ({i}, {j})")
    a = cube_adjacency(ctx)
    si = alpha_star(ctx, i)
    sj = alpha_star(ctx, j)
    return si @ a @ sj - sj @ a @ si


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

    Entry (x, y) equals (s_i[x,x] - s_i[y,y]) (s_j[x,x] - s_j[y,y]) B[x,y],
    so the residual vanishes for every pair i < j exactly when the support of
    B lies inside {equal or adjacent}.
    """
    if not 1 <= i < j <= ctx.d:
        raise ValueError(f"need 1 <= i < j <= {ctx.d}, got ({i}, {j})")
    if b.rows != ctx.n or b.cols != ctx.n:
        raise ValueError("matrix does not match the cube size")
    si = alpha_star(ctx, i)
    sj = alpha_star(ctx, j)
    return si @ sj @ b - si @ b @ sj - sj @ b @ si + b @ si @ sj


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
_TABLE_EXHAUSTIVE_D, _TABLE_SAMPLE = 5, 120
_ORTHO_EXHAUSTIVE_D, _ORTHO_SAMPLE = 6, 150


class _Failed(Exception):
    """Ends a check group at its first failing requirement."""


class Checker:
    """Check count, sampling flag and verdict of one check group.

    ``require`` counts a condition that holds.  On one that fails it records
    the witness and raises, and ``run`` stops the group there.
    """

    def __init__(self):
        self.checks = 0
        self.sampled = False
        self.passed = True
        self.witness = None

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

    def require(self, condition, witness):
        if not condition:
            self.fail(witness)
        self.checks += 1

    def extend(self, ok, checks, witness):
        """Take over the (ok, checks, witness) of a report run elsewhere."""
        self.checks += checks
        if not ok:
            self.fail(witness)


@dataclass(frozen=True)
class GroupResult:
    # field order is the key order of the serialized report
    name: str
    passed: bool | None
    checks: int
    sampled: bool = False
    skipped: bool = False
    reason: str | None = None
    witness: str | None = None

    def to_dict(self):
        return dataclasses.asdict(self)


@dataclass
class VerificationReport:
    d: int
    seed: int
    groups: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

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
    return Fraction(rng.randint(-6, 6), rng.randint(1, 3))


def _random_nonzero_fraction(rng):
    num = rng.randint(1, 6) * rng.choice((-1, 1))
    return Fraction(num, rng.randint(1, 3))


def _random_support_matrix(pattern, rng):
    ent = {pos: value for pos in pattern if (value := _random_fraction(rng))}
    return ExactMatrix._raw(pattern.n, pattern.n, ent)


def _residual_factor(stars, i, j, x, y):
    """Entry (x, y) of the (i, j) residual divided by B[x, y]."""
    return (stars[i][x, x] - stars[i][y, y]) * (stars[j][x, x] - stars[j][y, y])


def run_characterization_cases(ctx, g: Graph, rng, cases_per_direction):
    """Seeded two-direction test of the support/residual equivalence.

    Direction one: matrices supported inside {equal or adjacent} have zero
    residual for every pair i < j.  Direction two: planting one entry at a
    distant pair makes the residual for a pair of differing coordinates
    nonzero at exactly that entry.  Returns (ok, checks, witness).
    """
    check = Checker().run(_characterization_cases, ctx, g, rng, cases_per_direction)
    return check.passed, check.checks, check.witness


def _characterization_cases(check, ctx, g, rng, cases):
    pattern = SupportPattern.for_graph(g)
    pairs = coordinate_pairs(ctx.d)
    for case in range(cases):
        b = _random_support_matrix(pattern, rng)
        for i, j in pairs:
            residual = characterization_residual(ctx, b, i, j)
            check.require(
                not residual.entries,
                f"supported case {case}: residual ({i},{j}) is nonzero",
            )
    # pairs must differ in at least two coordinates so a residual pair exists
    outside = [
        (x, y)
        for x, y in itertools.product(range(g.n), repeat=2)
        if (x ^ y).bit_count() >= 2 and not g.has_edge(x, y)
    ]
    if not (outside and pairs):
        return
    stars = {i: alpha_star(ctx, i) for i in range(1, ctx.d + 1)}
    for case in range(cases):
        x, y = rng.choice(outside)
        planted = _random_nonzero_fraction(rng)
        b = _random_support_matrix(pattern, rng)
        b = ExactMatrix._raw(g.n, g.n, {**b.entries, (x, y): planted})
        i, j = ctx.coords_of(x ^ y)[:2]
        got = characterization_residual(ctx, b, i, j)[x, y]
        expect = _residual_factor(stars, i, j, x, y) * planted
        check.require(
            expect != 0 and got == expect,
            f"planted case {case}: residual ({i},{j}) at {(x, y)} is {got}, "
            f"expected {expect}",
        )


def _group_alpha(check, ctx, g, rng):
    d, n = ctx.d, ctx.n
    ident = ExactMatrix.identity(n)
    alphas = {i: alpha(ctx, i) for i in range(1, d + 1)}
    stars = {i: alpha_star(ctx, i) for i in range(1, d + 1)}
    for i in range(1, d + 1):
        check.require(alphas[i] @ alphas[i] == ident, f"alpha_{i}^2 != I")
        check.require(stars[i] @ stars[i] == ident, f"alpha_star_{i}^2 != I")
        chain = alpha_via_kron(ctx, i)
        check.require(chain == alphas[i], f"alpha_{i} != its Kronecker chain")
        chain = alpha_star_via_kron(ctx, i)
        check.require(chain == stars[i], f"alpha_star_{i} != its Kronecker chain")
    for i, j in itertools.product(range(1, d + 1), repeat=2):
        commute = alphas[i] @ alphas[j] == alphas[j] @ alphas[i]
        check.require(commute, f"alpha_{i} and alpha_{j} do not commute")
        commute = stars[i] @ stars[j] == stars[j] @ stars[i]
        check.require(commute, f"alpha_star_{i} and alpha_star_{j} do not commute")
        # alpha_i anticommutes with alpha_star_i and commutes with the others
        rhs = stars[j] @ alphas[i]
        relation = "anticommute" if i == j else "commute"
        holds = alphas[i] @ stars[j] == (-rhs if i == j else rhs)
        check.require(holds, f"alpha_{i} and alpha_star_{j} do not {relation}")
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
    for mask in masks:
        vec = scaled_eigenvector(ctx, mask).vec
        for i in range(1, d + 1):
            bit = 1 << (i - 1)
            moved = alphas[i].matvec(vec).entries
            ok = _matches_sign_vector(ctx, moved, mask, -1 if mask & bit else 1)
            check.require(ok, f"alpha_{i} action wrong on mask {mask}")
            starred = stars[i].matvec(vec).entries
            ok = _matches_sign_vector(ctx, starred, mask ^ bit, 1)
            check.require(ok, f"alpha_star_{i} action wrong on mask {mask}")
        image = adj.matvec(vec).entries
        ok = _matches_sign_vector(ctx, image, mask, d - 2 * mask.bit_count())
        check.require(ok, f"adjacency action wrong on mask {mask}")
    if d <= _ORTHO_EXHAUSTIVE_D:
        vecs = {m: scaled_eigenvector(ctx, m).vec for m in range(n)}
        pairs = itertools.product(range(n), repeat=2)
    else:
        check.sampled = True
        vecs = None
        pairs = []
        for _ in range(_ORTHO_SAMPLE):
            s = rng.randrange(n)
            pairs.append((s, s if rng.random() < 0.3 else rng.randrange(n)))
    for s, t in pairs:
        vs = vecs[s] if vecs else scaled_eigenvector(ctx, s).vec
        vt = vecs[t] if vecs else scaled_eigenvector(ctx, t).vec
        expect = n if s == t else 0
        check.require(vs.inner(vt) == expect, f"<W_{s}, W_{t}> != {expect}")


def _group_characterization(check, ctx, g, rng):
    # residuals cost O(C(d,2) * cube size) per case; keep big cubes snappy
    cases = 50 if ctx.d <= 5 else 12 if ctx.d <= 8 else 4
    _characterization_cases(check, ctx, g, rng, cases)
    # residual route vs entrywise product formula, on unrestricted matrices
    n = ctx.n
    stars = {i: alpha_star(ctx, i) for i in range(1, ctx.d + 1)}
    pairs = coordinate_pairs(ctx.d)
    for _ in range(5):
        ent = {}
        for _ in range(3 * n):
            x, y, value = rng.randrange(n), rng.randrange(n), _random_fraction(rng)
            if value:
                ent[(x, y)] = value
        b = ExactMatrix._raw(n, n, ent)
        chosen = pairs if ctx.d <= 5 else rng.sample(pairs, 10)
        for i, j in chosen:
            residual = characterization_residual(ctx, b, i, j)
            formula = {}
            for (x, y), value in b.entries.items():
                product = _residual_factor(stars, i, j, x, y) * value
                if product:
                    formula[(x, y)] = product
            check.require(
                residual.entries == formula,
                f"residual ({i},{j}) disagrees with the entrywise formula",
            )
    if 2 <= ctx.d <= 6:
        for p, q in pairs:
            b = b_matrix(ctx, p, q)
            for i, j in pairs:
                residual = characterization_residual(ctx, b, i, j)
                check.require(
                    not residual.entries, f"residual ({i},{j}) of b_{p}{q} is nonzero"
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
            f"symmetric basis element {idx} fails membership "
            f"({verdict.failed_condition} at {verdict.position})",
        )
        check.require(m.is_symmetric(), f"symmetric basis element {idx} not symmetric")
        constant = len({m[x, x] for x in range(ctx.n)}) == 1
        check.require(
            constant, f"symmetric basis element {idx} has a nonconstant diagonal"
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
            b == product, f"b_{i}{j} != 2 s_{i} s_{j} (alpha_{i} - alpha_{j})"
        )
        check.require(b.transpose() == -b, f"b_{i}{j} is not antisymmetric")
        commutes = not commutator(b, adj).entries
        check.require(commutes, f"b_{i}{j} does not commute with the adjacency")
        verdict = is_alike(g, b)
        check.require(
            verdict, f"b_{i}{j} fails membership ({verdict.failed_condition})"
        )
        for ell in range(1, d + 1):
            lhs = b @ alphas[ell]
            rhs = alphas[ell] @ b
            ok = lhs == (-rhs if ell in (i, j) else rhs)
            check.require(ok, f"b_{i}{j} sign relation with alpha_{ell} fails")
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
            f"b_{i}{j} action on mask {mask} does not match the table",
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
    check.require(got == expected, f"solver dims {got} != formula {expected}")
    for label, closed in closed_form_spans(ctx).items():
        same = span_equal(decomposition.parts[label], closed)
        check.require(same, f"solver {label} span differs from the closed form")


def _group_restriction(check, ctx, g, rng):
    d = ctx.d
    restrictions = []
    for i, j in coordinate_pairs(d):
        m = restriction_to_E1(ctx, b_matrix(ctx, i, j))
        expected = ExactMatrix(d, d, {(i - 1, j - 1): 4, (j - 1, i - 1): -4})
        check.require(
            m == expected,
            f"restriction of b_{i}{j} is not 4(e_{i}e_{j}^T - e_{j}e_{i}^T)",
        )
        check.require(
            m.is_antisymmetric(), f"restriction of b_{i}{j} not antisymmetric"
        )
        restrictions.append(m)
    if restrictions:
        spanning = SubspaceBasis.from_matrices(restrictions).dim == math.comb(d, 2)
        check.require(spanning, "restrictions do not span the antisymmetric space")


def _skip_projectors(ctx, g, brute_cap):
    if ctx.d > DEFAULT_PROJECTOR_CAP:
        return f"dense projectors capped at d<={DEFAULT_PROJECTOR_CAP}"
    return None


def _skip_solver(ctx, g, brute_cap):
    if g.n > brute_cap:
        return f"brute-force solver capped at {brute_cap} vertices"
    return None


#: Check group name -> (run(checker, ctx, graph, rng), skip(ctx, graph,
#: brute_cap) giving the reason the group is skipped, or None to run it).  A
#: group reaches the functions it checks through this module's globals at call
#: time, so a tracer that patches those names sees every call.
GROUPS = {
    "alpha": (_group_alpha, None),
    "eigenbasis": (_group_eigenbasis, None),
    "idempotents": (
        lambda check, ctx, g, rng: check.extend(
            *idempotent_report(ctx, eigen_data(ctx))
        ),
        _skip_projectors,
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
    patterns, membership checks, the adjacency-sum identity, the brute-force
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
            result = GroupResult(name, None, 0, skipped=True, reason=reason)
        else:
            check = Checker().run(run, ctx, graph, random.Random(f"{seed}:{name}"))
            result = GroupResult(
                name, check.passed, check.checks, check.sampled, witness=check.witness
            )
        report.timings[name] = time.perf_counter() - start
        report.groups.append(result)
    return report
