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
from operator import add, itemgetter, mul, sub
from types import SimpleNamespace
from typing import NamedTuple

from .exactlinalg import (
    CapExceeded,
    ExactMatrix,
    ExactVector,
    SubspaceBasis,
    _canonical,
    _rat,
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
    walsh_hadamard,
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
    a = adjacency(g)
    ba, ab = (b @ a).entries, (a @ b).entries
    if ba != ab:
        pos = min(k for k in ba.keys() | ab.keys() if ba.get(k, 0) != ab.get(k, 0))
        return AlikeCheck(False, "commute", pos, _rat(ba.get(pos, 0) - ab.get(pos, 0)))
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


def _offset_form(m):
    """m = sum_a diag(D_a) P_a, P_a[x, x ^ a] = 1, as {a: D_a} over its offsets a.

    alpha_i has the offset e_i, alpha_star_i 0, the cube adjacency d and b_ij two.
    Matrices are equal iff their forms are, as long as no D_a is all zero.
    """
    form = {}
    for (x, y), v in m.entries.items():
        row = form.get(x ^ y)
        if row is None:
            row = form[x ^ y] = [0] * m.rows
        row[x] = v
    return form


def _form_sum(*terms):
    """Form of the sum of c * m over the terms (c, form of m); zero D_a dropped."""
    out = {}
    for c, form in terms:
        for a, row in form.items():
            if c != 1:
                row = [c * u for u in row]
            prev = out.get(a)
            out[a] = row if prev is None else list(map(add, prev, row))
    return {a: row for a, row in out.items() if any(row)}


def _form_product(f, g):
    """Form of the product: (D_a P_a)(D_b P_b) = diag(D_a[x] D_b[x ^ a]) P_{a ^ b}."""
    out = {}
    for a, da in f.items():
        for b, db in g.items():
            term = map(mul, da, [db[x ^ a] for x in range(len(da))] if a else db)
            prev = out.get(a ^ b)
            out[a ^ b] = list(term) if prev is None else list(map(add, prev, term))
    return {a: row for a, row in out.items() if any(row)}


def _bracket(f, g, sign=1):
    """Form of f g - sign g f: empty iff they commute (sign 1) or anticommute (-1)."""
    return _form_sum((1, _form_product(f, g)), (-sign, _form_product(g, f)))


def _star_diagonal(ctx, i):
    """The diagonal of the real alpha_star_i as a list; None if it is not diagonal."""
    form = _offset_form(alpha_star(ctx, i))
    return None if form.keys() - {0} else form.get(0, [0] * ctx.n)


def _residual_entries(b, si, sj):
    """Entries (s_i[x] - s_i[y]) (s_j[x] - s_j[y]) b[x, y] != 0; None if s_i or s_j is."""
    if si is None or sj is None:
        return None
    ent = {}
    for (x, y), v in b.entries.items():
        factor = (si[x] - si[y]) * (sj[x] - sj[y])
        if factor:
            ent[(x, y)] = factor * v
    return _canonical(ent)


def characterization_residual(ctx: HypercubeContext, b: ExactMatrix, i, j) -> ExactMatrix:
    """s_i s_j B - s_i B s_j - s_j B s_i + B s_i s_j with s = alpha_star.

    That is [s_i, [s_j, B]], whose entry (x, y) is (s_i[x] - s_i[y]) (s_j[x] -
    s_j[y]) B[x, y]: one pass over B, and zero for every pair i < j exactly
    when the support of B lies inside {equal or adjacent}.
    """
    if not 1 <= i < j <= ctx.d:
        raise ValueError(f"need 1 <= i < j <= {ctx.d}, got ({i}, {j})")
    if b.rows != ctx.n or b.cols != ctx.n:
        raise ValueError("matrix does not match the cube size")
    ent = _residual_entries(b, _star_diagonal(ctx, i), _star_diagonal(ctx, j))
    if ent is None:
        raise ValueError(f"alpha_star_{i} or alpha_star_{j} is not diagonal")
    return ExactMatrix._raw(ctx.n, ctx.n, ent)


def restriction_to_E1(ctx: HypercubeContext, b: ExactMatrix) -> ExactMatrix:
    """Matrix of B restricted to the eigenvalue-(d-2) eigenspace.

    Written in the orthonormal basis of singleton sign vectors:
    M[t-1, s-1] = <W_{t}, B W_{s}> / 2^d.  Requires B to commute with the
    cube adjacency so the eigenspace is invariant.

    With B = sum_a D_a P_a and W_s[x ^ a] = W_s[x] W_s[a], the product
    <W_t, B W_s> is sum_a W_s[a] (H D_a)[e_s ^ e_t], H D_a the Walsh-Hadamard
    transform of D_a (``walsh_hadamard``): one transform per offset of B.
    """
    if b.rows != ctx.n or b.cols != ctx.n:
        raise ValueError("matrix does not match the cube size")
    form = _offset_form(b)
    comm = _bracket(form, _offset_form(cube_adjacency(ctx)))
    if comm:
        pos = min((x, x ^ a) for a, row in comm.items() for x, v in enumerate(row) if v)
        raise ValueError(f"matrix does not commute with the cube adjacency (entry {pos})")
    spectra = [(a, walsh_hadamard(row)) for a, row in form.items()]

    def entry(t, s):
        m = 1 << s ^ 1 << t
        return exact_quotient(sum(-h[m] if a >> s & 1 else h[m] for a, h in spectra), ctx.n)

    d = ctx.d
    return ExactMatrix(d, d, {(t, s): entry(t, s) for s in range(d) for t in range(d)})


def bij_action_on_wS(ctx: HypercubeContext, i, j, mask):
    """Closed-form action of b_ij on the sign vector W_S of a subset S.

    ``mask`` is the bitmask of S.  Returns (coefficient, subset_mask):
    (-4, (mask | j) \\ i) when i is in S and j is not, (+4, (mask | i) \\ j)
    in the mirrored case, and (0, None) otherwise.
    """
    if not 1 <= i < j <= ctx.d:
        raise ValueError(f"need 1 <= i < j <= {ctx.d}, got ({i}, {j})")
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

# Largest d checked exhaustively, and the sample sizes above it.
_EXHAUSTIVE_D, _EIGEN_SAMPLE, _CHAR_SAMPLE = 10, 128, 10


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


def _pack(flags):
    """The int with bit x set where flags[x] is true: one bit lane per vertex."""
    return int(bytes(reversed(flags)).translate(bytes.maketrans(b"\0\1", b"01")), 2)


def _sign_bits(check, ctx, mask):
    """The real W_mask packed, -1 as a set bit; the +-1 check guards each lane op."""
    entries = scaled_eigenvector(ctx, mask).entries
    if entries.keys() != set(range(ctx.n)) or not set(entries.values()) <= {1, -1}:
        check.fail(f"W_{mask} is not a +-1 vector")
    return _pack([entries[x] == -1 for x in range(ctx.n)])


def _formula_lanes(ctx):
    """W_S packed from the formula for every mask S, and flip(w, bit) on lanes.

    W_S is the XOR of the C_k, k in S, where C_k = W_{2^k} holds the x with bit
    k set; flip(w, bit) gives the lanes of W[x ^ bit] from the lanes w of W.
    """
    lanes = [0]
    for col in [_pack([x >> k & 1 for x in range(ctx.n)]) for k in range(ctx.d)]:
        lanes += [w ^ col for w in lanes]
    return lanes, lambda w, bit: (w & ~lanes[bit]) << bit | (w & lanes[bit]) >> bit


def _offset_signs(m, offsets, u):
    """Lanes N_a by offset a, if m's entries are exactly m[x, x ^ a] = u (-1)^N_a[x]."""
    form = _offset_form(m)
    ok = form.keys() == set(offsets) and set().union(*form.values()) <= {u, -u}
    return {a: _pack([v != u for v in form[a]]) for a in offsets} if ok else None


#: p / q for p in -6..6 and q in 1..3, one value per pair: a uniform draw from
#: it is a uniform draw of p and of q.
_FRACTIONS = tuple(exact_quotient(p, q) for p in range(-6, 7) for q in range(1, 4))


def _random_support_matrix(n, positions, rng):
    positions = list(positions)
    values = rng.choices(_FRACTIONS, k=len(positions))
    return ExactMatrix._raw(n, n, {pos: v for pos, v in zip(positions, values) if v})


def _residuals_vanish(b, s, pairs):
    """(i, j, whether the (i, j) residual of b is zero) for each pair i < j.

    Entry (x, y) of the residual is D_i D_j b[x, y], with the differences
    D_k = s_k[x] - s_k[y] listed once per entry of b; D_k is None where s_k is,
    and then every residual with k reads nonzero.
    """
    xs, ys = (list(map(itemgetter(end), b.entries)) for end in (0, 1))
    diffs = {
        k: sk and list(map(sub, map(sk.__getitem__, xs), map(sk.__getitem__, ys)))
        for k, sk in s.items()
    }
    for i, j in pairs:
        di, dj = diffs[i], diffs[j]
        yield i, j, di is not None and dj is not None and not any(map(mul, di, dj))


def _residual_factor(bi, bj, x, y):
    """Entry (x, y) of the (i, j) residual divided by B[x, y], from bits bi, bj.

    It is 4 s_i[x] s_j[x] when x and y differ in both coordinates, else 0.
    """
    if (x ^ y) & bi and (x ^ y) & bj:
        return 4 if (not x & bi) == (not x & bj) else -4
    return 0


def _distant_pair_draws(g, rng):
    """Uniform draws of the distant pairs of g by rejection; none if it has none.

    A distant pair (x, y) differs in at least two coordinates, so a residual
    pair exists for it, and is not an edge of g.
    """
    def distant(x, y):
        return (x ^ y).bit_count() >= 2 and not g.has_edge(x, y)

    if any(distant(x, y) for x in range(g.n) for y in range(g.n)):
        while True:
            x, y = rng.randrange(g.n), rng.randrange(g.n)
            if distant(x, y):
                yield x, y


def characterization_cases(check, ctx, g, rng, cases):
    """Seeded two-direction test of the support/residual equivalence.

    Direction one: matrices supported inside {equal or adjacent} have zero
    residual for every pair i < j.  Direction two: planting one entry at a
    distant pair makes the residual for a pair of differing coordinates
    nonzero at exactly that entry.  Draws ``cases`` matrices per direction;
    the planted pairs are drawn uniformly by rejection.
    """
    if g.n != ctx.n:
        raise ValueError("graph does not match the cube size")
    positions = support_positions(g)
    pairs = coordinate_pairs(ctx.d)
    s = {k: _star_diagonal(ctx, k) for k in range(1, ctx.d + 1)}
    for case in range(cases):
        b = _random_support_matrix(g.n, positions, rng)
        for i, j, zero in _residuals_vanish(b, s, pairs):
            check.require(
                zero, "supported case {}: residual ({},{}) is nonzero", case, i, j
            )
    if not pairs:
        return
    for case, (x, y) in zip(range(cases), _distant_pair_draws(g, rng)):
        planted = 0
        while not planted:
            planted = rng.choice(_FRACTIONS)
        b = _random_support_matrix(g.n, positions, rng)
        b = ExactMatrix._raw(g.n, g.n, {**b.entries, (x, y): planted})
        i, j = ctx.coords_of(x ^ y)[:2]
        got = characterization_residual(ctx, b, i, j)[x, y]
        expect = _residual_factor(ctx.bit(i), ctx.bit(j), x, y) * planted
        check.require(
            expect != 0 and got == expect,
            "planted case {}: residual ({},{}) at {} is {}, expected {}",
            case, i, j, (x, y), got, expect
        )


def _coordinate_matrices(ctx):
    """The dicts i -> alpha_i and i -> alpha_star_i for i = 1..d."""
    coords = range(1, ctx.d + 1)
    return {i: alpha(ctx, i) for i in coords}, {i: alpha_star(ctx, i) for i in coords}


def _group_alpha(check, ctx, g, rng):
    d, n = ctx.d, ctx.n
    ident = {0: [1] * n}
    alphas, stars = _coordinate_matrices(ctx)
    fa, fs = ({i: _offset_form(m) for i, m in ms.items()} for ms in (alphas, stars))
    for i in range(1, d + 1):
        check.require(_form_product(fa[i], fa[i]) == ident, "alpha_{}^2 != I", i)
        check.require(_form_product(fs[i], fs[i]) == ident, "alpha_star_{}^2 != I", i)
        chain = alpha_via_kron(ctx, i)
        check.require(chain == alphas[i], "alpha_{} != its Kronecker chain", i)
        chain = alpha_star_via_kron(ctx, i)
        check.require(chain == stars[i], "alpha_star_{} != its Kronecker chain", i)
    for i, j in itertools.product(range(1, d + 1), repeat=2):
        commute = not _bracket(fa[i], fa[j])
        check.require(commute, "alpha_{} and alpha_{} do not commute", i, j)
        commute = not _bracket(fs[i], fs[j])
        check.require(commute, "alpha_star_{} and alpha_star_{} do not commute", i, j)
        # alpha_i anticommutes with alpha_star_i and commutes with the others
        if i == j:
            anti = not _bracket(fa[i], fs[j], -1)
            check.require(anti, "alpha_{} and alpha_star_{} do not anticommute", i, j)
        else:
            commute = not _bracket(fa[i], fs[j])
            check.require(commute, "alpha_{} and alpha_star_{} do not commute", i, j)
    total = sum(alphas.values(), ExactMatrix.zeros(n))
    check.require(total == adjacency(g), "sum of alpha_i is not the adjacency matrix")


def _group_eigenbasis(check, ctx, g, rng):
    d, n = ctx.d, ctx.n
    alphas, stars = _coordinate_matrices(ctx)
    formula, flip = _formula_lanes(ctx)
    full, bits = (1 << n) - 1, [ctx.bit(i) for i in alphas]
    flips = {i: _offset_signs(alphas[i], [b], 1) for i, b in enumerate(bits, 1)}
    diagonals = {i: _offset_signs(m, [0], 1) for i, m in stars.items()}
    is_sum = _offset_signs(cube_adjacency(ctx), bits, 1) == dict.fromkeys(bits, 0)
    masks = range(n)
    if d > _EXHAUSTIVE_D:
        check.sampled = True
        masks = {0, n - 1}
        while len(masks) < _EIGEN_SAMPLE:
            masks.add(rng.randrange(n))
        masks = sorted(masks)
    signs = {}
    for mask in masks:
        w = signs[mask] = _sign_bits(check, ctx, mask)
        for i, bit in enumerate(bits, 1):
            col, sign = formula[bit], full if mask & bit else 0
            ok = flips[i] == {bit: 0} and flip(w, bit) == formula[mask] ^ sign
            check.require(ok, "alpha_{} action wrong on mask {}", i, mask)
            ok = diagonals[i] == {0: col} and w ^ col == formula[mask ^ bit]
            check.require(ok, "alpha_star_{} action wrong on mask {}", i, mask)
        # A, the sum of the alpha_i, takes W_mask to (d - 2|mask|) W_mask
        check.require(is_sum, "adjacency action wrong on mask {}", mask)
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
    pairs = coordinate_pairs(ctx.d)
    s = {k: _star_diagonal(ctx, k) for k in range(1, ctx.d + 1)}
    exhaustive = ctx.d <= _EXHAUSTIVE_D
    # above the cap: a sample of pairs per matrix, and no b_pq block
    check.sampled = not exhaustive
    for _ in range(5):
        cells = ((rng.randrange(n), rng.randrange(n)) for _ in range(3 * n))
        b = _random_support_matrix(n, cells, rng)
        chosen = pairs if exhaustive else rng.sample(pairs, _CHAR_SAMPLE)
        for i, j in chosen:
            bi, bj = ctx.bit(i), ctx.bit(j)
            formula = {(x, y): f * v for (x, y), v in b.entries.items()
                       if (f := _residual_factor(bi, bj, x, y))}
            check.require(
                _residual_entries(b, s[i], s[j]) == formula,
                "residual ({},{}) disagrees with the entrywise formula", i, j
            )
    if exhaustive:
        for p, q in pairs:
            for i, j, zero in _residuals_vanish(b_matrix(ctx, p, q), s, pairs):
                check.require(zero, "residual ({},{}) of b_{}{} is nonzero", i, j, p, q)


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


def _span_dim(mats, cells):
    """Dimension of the span of a nonempty list of matrices of one shape.

    Matrices whose entries at ``cells`` are independent vectors are
    independent, so when that small projection has full rank it settles the
    dimension; only otherwise is the span of the whole matrices made.
    """
    projected = [
        ExactVector(len(cells), [(k, m.entries.get(c, 0)) for k, c in enumerate(cells)])
        for m in mats
    ]
    dim = SubspaceBasis(len(cells), projected).dim
    return dim if dim == len(mats) else SubspaceBasis.from_matrices(mats).dim


def _group_antisym_basis(check, ctx, g, rng):
    d, n = ctx.d, ctx.n
    adj = _offset_form(cube_adjacency(ctx))
    alphas, stars = _coordinate_matrices(ctx)
    fa, fs = ({i: _offset_form(m) for i, m in ms.items()} for ms in (alphas, stars))
    pairs = coordinate_pairs(d)
    mats = [b_matrix(ctx, i, j) for i, j in pairs]
    for (i, j), b in zip(pairs, mats):
        fb = _offset_form(b)
        twice = _form_sum((2, fa[i]), (-2, fa[j]))
        check.require(
            fb == _form_product(_form_product(fs[i], fs[j]), twice),
            "b_{0}{1} != 2 s_{0} s_{1} (alpha_{0} - alpha_{1})", i, j
        )
        check.require(b.transpose() == -b, "b_{}{} is not antisymmetric", i, j)
        # both stay: adj is the cube's, while is_alike tests the graph verify_all got
        commutes = not _bracket(fb, adj)
        check.require(commutes, "b_{}{} does not commute with the adjacency", i, j)
        verdict = is_alike(g, b)
        check.require(
            verdict, "b_{}{} fails membership ({})", i, j, verdict.failed_condition
        )
        for ell in range(1, d + 1):
            ok = not _bracket(fb, fa[ell], -1 if ell in (i, j) else 1)
            check.require(ok, "b_{}{} sign relation with alpha_{} fails", i, j, ell)
    formula, flip = _formula_lanes(ctx)
    full, signs = (1 << n) - 1, [_sign_bits(check, ctx, mask) for mask in range(n)]
    for (i, j), b in zip(pairs, mats):
        lanes = _offset_signs(b, [ctx.bit(i), ctx.bit(j)], 2)
        for mask, w in enumerate(signs):
            coeff, target = bij_action_on_wS(ctx, i, j, mask)
            ok = lanes is not None and coeff in (0, 4, -4)
            if ok:  # b_ij W is 2 (-1)^t_i + 2 (-1)^t_j lane by lane
                ti, tj = (flip(w, a) ^ t for a, t in lanes.items())
                sign = full if coeff < 0 else 0
                ok = ti == tj == formula[target] ^ sign if coeff else ti ^ tj == full
            check.require(
                ok, "b_{}{} action on mask {} does not match the table", i, j, mask
            )
    if pairs:
        # the entries (x, x ^ e_k) of the rows x = 0, e_1..e_d: on them the b_ij
        # are independent, because the vectors (s_j(x))_j over those rows span Q^d
        rows = [0] + [ctx.bit(k) for k in range(1, d + 1)]
        cells = [(x, x ^ bit) for x in rows for bit in rows[1:]]
        independent = _span_dim(mats, cells) == len(pairs)
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


#: Check group name -> its routine run(result, ctx, graph, rng).  A group
#: reaches the functions it checks through this module's globals at call time,
#: so a tracer that patches those names sees every call.
GROUPS = {
    "alpha": _group_alpha,
    "eigenbasis": _group_eigenbasis,
    "idempotents": lambda check, ctx, g, rng: idempotent_report(
        check, ctx, eigen_data(ctx)
    ),
    "characterization": _group_characterization,
    "sym_basis": _group_sym_basis,
    "antisym_basis": _group_antisym_basis,
    "dimensions": _group_dimensions,
    "restriction": _group_restriction,
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
    fail.  ``dimensions`` is reported as skipped, not failed, when the graph
    has more than ``brute_cap`` vertices.  Per-group wall-clock timings are
    kept on the report object but stay out of ``to_dict`` so serialized
    reports are deterministic.  An empty selection is a ``ValueError``: a
    report that checked nothing must not read as a pass.
    """
    selected = GROUP_NAMES if groups is None else resolve_groups(groups)
    if not selected:
        raise ValueError("no check group selected")
    if graph is None:
        graph = hypercube(ctx.d, cap=ctx.d)[0]
    report = VerificationReport(d=ctx.d, seed=seed)
    for name, run in GROUPS.items():
        if name not in selected:
            continue
        start = time.perf_counter()
        if name == "dimensions" and graph.n > brute_cap:
            reason = f"brute-force solver capped at {brute_cap} vertices"
            result = GroupResult(name, None, skipped=True, reason=reason)
        else:
            rng = random.Random(f"{seed}:{name}")
            result = GroupResult(name).run(run, ctx, graph, rng)
        report.timings[name] = time.perf_counter() - start
        report.groups.append(result)
    return report
