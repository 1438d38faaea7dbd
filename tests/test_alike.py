import ast
import collections
import importlib
import itertools
import math
import random
import string
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import alike.alike as alike_module
from alike.alike import (
    AlikeCheck,
    GroupResult,
    VerificationReport,
    _bracket,
    _distant_pair_draws,
    _form_product,
    _form_sum,
    _formula_lanes,
    _offset_form,
    _offset_signs,
    _random_support_matrix,
    _sign_bits,
    _span_dim,
    b_matrix,
    bij_action_on_wS,
    characterization_cases,
    characterization_residual,
    closed_form_antisym_basis,
    closed_form_spans,
    closed_form_sym_basis,
    coordinate_pairs,
    is_alike,
    restriction_to_E1,
    solve_alike,
    support_positions,
    verify_all,
)
from alike.exactlinalg import (
    CapExceeded,
    ExactMatrix,
    ExactVector,
    SubspaceBasis,
    nullspace,
    span_equal,
    unvectorize,
    vectorize,
)
from alike.hypercube import (
    Graph,
    adjacency,
    alpha,
    alpha_star,
    cube_adjacency,
    eigen_data,
    hypercube,
    load_graph,
    scaled_eigenvector,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def corrupted_q2():
    # one cube edge replaced by a diagonal: (2,3) -> (1,2)
    return Graph(4, [(0, 1), (0, 2), (1, 3), (1, 2)])


# -- support positions -------------------------------------------------------------


def test_support_pattern_ordering_p3():
    assert support_positions(path_graph(3)) == (
        (0, 0),
        (1, 1),
        (2, 2),
        (0, 1),
        (1, 0),
        (1, 2),
        (2, 1),
    )


# -- solver -----------------------------------------------------------------------


def test_solve_p3_is_span_of_identity_and_adjacency():
    g = path_graph(3)
    decomposition = solve_alike(g)
    assert decomposition.dims == (2, 2, 0)
    expected = SubspaceBasis.from_matrices([ExactMatrix.identity(3), adjacency(g)])
    assert span_equal(decomposition.full, expected)
    assert span_equal(decomposition.symmetric, expected)


@pytest.mark.parametrize(
    "d,expected", [(1, (2, 2, 0)), (2, (4, 3, 1)), (3, (7, 4, 3))]
)
def test_solve_hypercube_dims(d, expected):
    g, _ = hypercube(d)
    assert solve_alike(g).dims == expected


def test_solver_cap():
    g, _ = hypercube(3)
    with pytest.raises(CapExceeded):
        solve_alike(g, cap=7)


@pytest.mark.parametrize("graph_builder", [path_graph, lambda n: hypercube(2)[0]])
def test_solver_basis_members_satisfy_both_conditions(graph_builder):
    g = graph_builder(3)
    decomposition = solve_alike(g)
    for m in decomposition.basis_matrices("full"):
        assert is_alike(g, m)
    for m in decomposition.basis_matrices("sym"):
        assert m.is_symmetric() and is_alike(g, m)
    for m in decomposition.basis_matrices("antisym"):
        assert m.is_antisymmetric() and is_alike(g, m)


@pytest.mark.parametrize("d", [2, 3])
def test_antisymmetric_members_annihilate_all_ones(d):
    g, _ = hypercube(d)
    ones = ExactVector(g.n, enumerate([1] * g.n))
    for m in solve_alike(g).basis_matrices("antisym"):
        assert not m.matvec(ones).entries


def test_symmetric_members_have_constant_diagonal_and_path_symmetry():
    g, _ = hypercube(3)
    for m in solve_alike(g).basis_matrices("sym"):
        assert len({m[x, x] for x in range(8)}) == 1
        for x in range(8):
            for z in range(8):
                if (x ^ z).bit_count() != 2:
                    continue
                y, w = sorted(set(g.neighbors(x)) & set(g.neighbors(z)))
                assert m[x, y] == m[z, w]
                assert m[y, z] == m[w, x]


def full_space_oracle(g):
    """Independent route: solve over all n^2 unknowns with explicit zero rows.

    Builds the commutation system B A - A B = 0 over every matrix cell plus
    one constraint row per off-support cell, and returns its kernel in the
    same vectorized ambient space the solver uses.
    """
    n = g.n
    a = adjacency(g)
    ent = {}
    nrows = 0
    for x in range(n):
        for y in range(n):
            coeffs = {}
            for v in range(n):
                if a[v, y]:
                    coeffs[x * n + v] = coeffs.get(x * n + v, 0) + 1
                if a[x, v]:
                    coeffs[v * n + y] = coeffs.get(v * n + y, 0) - 1
            wrote = False
            for k, c in coeffs.items():
                if c:
                    ent[(nrows, k)] = c
                    wrote = True
            if wrote:
                nrows += 1
    for x in range(n):
        for y in range(n):
            if x != y and not g.has_edge(x, y):
                ent[(nrows, x * n + y)] = 1
                nrows += 1
    from alike.exactlinalg import nullspace

    return nullspace(ExactMatrix(max(nrows, 1), n * n, ent))


def random_graph(rng, n):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
    ]
    return Graph(n, edges)


def assert_parts_match_full_space_oracle(g):
    decomposition = solve_alike(g)
    oracle = full_space_oracle(g)
    assert span_equal(decomposition.full, oracle)
    assert decomposition.full.contains(vectorize(ExactMatrix.identity(g.n)))
    assert decomposition.full.contains(vectorize(adjacency(g)))
    # the solver builds each part from its own system; the oracle uses no
    # symmetry, so split its span by B +- B^T
    mats = [unvectorize(v, g.n, g.n) for v in oracle]
    sym = SubspaceBasis.from_matrices([b + b.transpose() for b in mats])
    antisym = SubspaceBasis.from_matrices([b - b.transpose() for b in mats])
    assert span_equal(decomposition.symmetric, sym)
    assert span_equal(decomposition.antisymmetric, antisym)
    full, sym_dim, antisym_dim = decomposition.dims
    assert full == sym_dim + antisym_dim


def test_solver_matches_full_space_oracle_on_random_graphs():
    rng = random.Random("oracle")
    for _ in range(12):
        assert_parts_match_full_space_oracle(random_graph(rng, rng.randint(2, 8)))


def random_regular_graph(rng, n, k):
    # C_n(1..k/2) plus the diameters when k is odd, then degree-keeping swaps
    edges = {
        (min(x, (x + s) % n), max(x, (x + s) % n))
        for x in range(n)
        for s in list(range(1, k // 2 + 1)) + [n // 2] * (k % 2)
    }
    for _ in range(20 * n):
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        ad, cb = (min(a, d), max(a, d)), (min(c, b), max(c, b))
        if len({a, b, c, d}) == 4 and ad not in edges and cb not in edges:
            edges -= {(a, b), (c, d)}
            edges |= {ad, cb}
    return Graph(n, sorted(edges))


SOLVER_ORACLE_GRAPHS = {
    **{f"Q{d}": (lambda d=d: hypercube(d)[0]) for d in range(1, 7)},
    "petersen": lambda: load_graph(GOLDEN / "petersen.json"),
    "C10(1,3)": lambda: load_graph(GOLDEN / "c10-1-3.json"),
    "regular-12-3": lambda: random_regular_graph(random.Random("dedup-a"), 12, 3),
    "regular-16-4": lambda: random_regular_graph(random.Random("dedup-b"), 16, 4),
}


@pytest.mark.parametrize("name", SOLVER_ORACLE_GRAPHS)
def test_solver_matches_full_space_oracle_on_graphs_with_repeated_rows(name):
    # the oracle keeps every row; the solver skips rows repeated up to sign:
    # many on the cubes, a few on the random graphs, none on the other two
    assert_parts_match_full_space_oracle(SOLVER_ORACLE_GRAPHS[name]())


def test_q6_antisymmetric_system_has_one_row_per_distinct_equation(monkeypatch):
    # each 4-cycle's two diagonals give one antisymmetric equation up to
    # sign; the symmetric rows are all distinct
    rows = []
    original = alike_module.nullspace
    monkeypatch.setattr(
        alike_module, "nullspace", lambda m: rows.append(m.rows) or original(m)
    )
    solve_alike(hypercube(6)[0])
    assert rows == [672, 304]


def test_disconnected_graph_is_solved_without_complaint():
    g = Graph(4, [(0, 1), (2, 3)])
    decomposition = solve_alike(g)
    total, sym, antisym = decomposition.dims
    assert total == sym + antisym
    for m in decomposition.basis_matrices("full"):
        assert is_alike(g, m)


# -- solver oracles from graph families ----------------------------------------------
#
# Each family's A-like space is known in closed form, so the solver's bases are
# checked on their entries alone, with no exactlinalg routine on the checking side.


def _family_bases(g, dims):
    """Entry dicts of every matrix in the solver's three bases of g.

    Each part must have the given size and distinct leading cells, so its
    matrices are independent, and the two halves must have B^T = B and
    B^T = -B.
    """
    decomposition = solve_alike(g)
    assert decomposition.dims == dims
    bases = []
    for part, dim, sign in zip(("full", "sym", "antisym"), dims, (None, 1, -1)):
        mats = [m.entries for m in decomposition.basis_matrices(part)]
        assert len({min(entries) for entries in mats}) == len(mats) == dim
        if sign is not None:
            for entries in mats:
                assert all(entries.get((y, x)) == sign * v for (x, y), v in entries.items())
        bases += mats
    return bases


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10, 64])
def test_solver_on_cycles(n):
    # span{I, P, P^-1} for the rotation P: constant on three bands, zero elsewhere
    g = Graph(n, [(x, (x + 1) % n) for x in range(n)])
    for entries in _family_bases(g, (3, 2, 1)):
        assert all((y - x) % n in (0, 1, n - 1) for x, y in entries)
        for step in (0, 1, n - 1):
            assert len({entries.get((x, (x + step) % n), 0) for x in range(n)}) == 1


@pytest.mark.parametrize("a, b", [(2, 3), (3, 3), (3, 4), (4, 4), (8, 8)])
def test_solver_on_complete_bipartite_graphs(a, b):
    # [[cI, X], [Y, cI]], and B A = A B: the row sums of X and the column sums
    # of Y are one constant, the row sums of Y and the column sums of X another
    n = a + b
    g = Graph(n, [(u, v) for u in range(a) for v in range(a, n)])
    m = (a - 1) * (b - 1)
    for entries in _family_bases(g, (2 * m + 2, m + 2, m)):
        assert len({entries.get((x, x), 0) for x in range(n)}) == 1
        assert all(x == y or (x < a) != (y < a) for x, y in entries)
        sums = [0] * (2 * n)
        for (x, y), v in entries.items():
            if x != y:
                sums[x] += v
                sums[n + y] += v
        assert len(set(sums[:a] + sums[n : n + a])) == 1
        assert len(set(sums[a:n] + sums[n + a :])) == 1


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 12])
def test_solver_on_complete_graphs(n):
    # every cell is in the support, and B commutes with A = J - I iff every
    # row sum and every column sum are one constant
    g = Graph(n, list(itertools.combinations(range(n), 2)))
    dims = ((n - 1) ** 2 + 1, n * (n - 1) // 2 + 1, (n - 1) * (n - 2) // 2)
    for entries in _family_bases(g, dims):
        sums = [0] * (2 * n)
        for (x, y), v in entries.items():
            sums[x] += v
            sums[n + y] += v
        assert len(set(sums)) == 1


# -- membership check ----------------------------------------------------------------


def test_identity_is_alike_everywhere():
    for g in (path_graph(4), hypercube(3)[0]):
        assert is_alike(g, ExactMatrix.identity(g.n))


def test_alpha_is_alike_on_q3():
    g, ctx = hypercube(3)
    verdict = is_alike(g, alpha(ctx, 1))
    assert verdict and verdict.failed_condition is None


def test_alpha_star_fails_commutation_on_q2():
    g, ctx = hypercube(2)
    verdict = is_alike(g, alpha_star(ctx, 1))
    assert not verdict
    assert verdict.failed_condition == "commute"
    assert verdict.position is not None
    assert verdict.value != 0


def test_all_ones_fails_support_on_q2():
    g, _ = hypercube(2)
    ones = ExactMatrix(4, 4, {(x, y): 1 for x in range(4) for y in range(4)})
    verdict = is_alike(g, ones)
    assert not verdict
    assert verdict.failed_condition == "support"
    assert verdict.position == (0, 3)


def test_is_alike_dimension_mismatch():
    g, _ = hypercube(2)
    with pytest.raises(ValueError):
        is_alike(g, ExactMatrix.identity(3))


def membership_oracle(g, b):
    # the smallest nonzero cell of B A - A B, else the first off-support entry
    a = adjacency(g)
    diff = (b @ a - a @ b).entries
    if diff:
        pos = min(diff)
        return AlikeCheck(False, "commute", pos, diff[pos])
    for (x, y), v in sorted(b.entries.items()):
        if x != y and not g.has_edge(x, y):
            return AlikeCheck(False, "support", (x, y), v)
    return AlikeCheck(True)


def membership_graph(rng):
    n = rng.randint(1, 9)
    kind = rng.choice(["edgeless", "sparse", "dense", "complete", "disconnected"])
    if kind == "edgeless":
        return Graph(n, [])
    if kind == "complete":
        return Graph(n, list(itertools.combinations(range(n), 2)))
    if kind == "disconnected":
        # two random parts with no edge between them
        cut = rng.randint(1, max(1, n - 1))
        parts = (range(cut), range(cut, n))
        edges = [e for part in parts for e in itertools.combinations(part, 2)]
        return Graph(n, [e for e in edges if rng.random() < 0.6])
    p = 0.25 if kind == "sparse" else 0.75
    return Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


def membership_operands(rng, g):
    n = g.n
    if rng.random() < 0.5:
        values = [-2, -1, 1, 2, 3]
    else:
        values = [Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3) if p]

    def draw(cells):
        return ExactMatrix(n, n, {cell: rng.choice(values) for cell in cells})

    kind = rng.choice(["diagonal", "constant", "dense", "support", "polynomial"])
    if kind == "diagonal":
        return draw([(x, x) for x in range(n) if rng.random() < 0.8])
    if kind == "constant":
        return ExactMatrix.identity(n).scale(rng.choice(values))
    if kind == "dense":
        return draw([(x, y) for x in range(n) for y in range(n) if rng.random() < 0.6])
    if kind == "support":
        return draw([cell for cell in support_positions(g) if rng.random() < 0.7])
    # c0 I + c1 A + c2 A^2 commutes with A; off the support only through A^2
    a = adjacency(g)
    c0, c1, c2 = (rng.choice(values + [0]) for _ in range(3))
    return ExactMatrix.identity(n).scale(c0) + a.scale(c1) + (a @ a).scale(c2)


def test_is_alike_matches_the_product_oracle():
    rng = random.Random("membership")
    cases = []
    for _ in range(2400):
        g = membership_graph(rng)
        cases.append((g, membership_operands(rng, g)))
    for d in range(1, 5):
        g, ctx = hypercube(d)
        stars = [alpha_star(ctx, k) for k in range(1, d + 1)]
        cases += [(g, b) for b in [ExactMatrix.identity(ctx.n)] + stars]
    outcomes = collections.Counter()
    for g, b in cases:
        verdict, expected = is_alike(g, b), membership_oracle(g, b)
        assert verdict == expected, (g.n, sorted(g.edges), b.entries)
        assert type(verdict.value) is type(expected.value)
        outcomes[verdict.failed_condition, type(verdict.value)] += 1
    # every outcome is reached, each failure with int and Fraction values
    assert set(outcomes) == {
        (None, type(None)),
        *itertools.product(["commute", "support"], [int, Fraction]),
    }


# -- closed-form bases ----------------------------------------------------------------


def test_sym_basis_d1_spans_entire_commutant():
    g, ctx = hypercube(1)
    assert span_equal(
        solve_alike(g).full, SubspaceBasis.from_matrices(closed_form_sym_basis(ctx))
    )


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sym_basis_matches_solver(d):
    g, ctx = hypercube(d)
    mats = closed_form_sym_basis(ctx)
    assert len(mats) == d + 1
    assert span_equal(
        solve_alike(g).symmetric, SubspaceBasis.from_matrices(mats)
    )


def test_antisym_basis_d1_is_empty():
    _, ctx = hypercube(1)
    assert closed_form_antisym_basis(ctx) == []


def test_antisym_basis_q2_frozen():
    _, ctx = hypercube(2)
    mats = closed_form_antisym_basis(ctx)
    assert len(mats) == 1
    expected = ExactMatrix(
        4,
        4,
        {
            (0, 1): 2,
            (1, 0): -2,
            (0, 2): -2,
            (2, 0): 2,
            (1, 3): 2,
            (3, 1): -2,
            (2, 3): -2,
            (3, 2): 2,
        },
    )
    assert mats[0] == expected
    product_form = (
        alpha_star(ctx, 1) @ alpha_star(ctx, 2) @ (alpha(ctx, 1) - alpha(ctx, 2))
    ).scale(2)
    assert mats[0] == product_form


@pytest.mark.parametrize("d", [2, 3, 4])
def test_antisym_basis_matches_solver(d):
    g, ctx = hypercube(d)
    mats = closed_form_antisym_basis(ctx)
    assert len(mats) == d * (d - 1) // 2
    assert span_equal(
        solve_alike(g).antisymmetric,
        SubspaceBasis.from_matrices(mats, shape=(ctx.n, ctx.n)),
    )


@pytest.mark.parametrize("d", [6, 7, 8])
def test_solver_matches_closed_forms_on_large_cubes(d):
    g, ctx = hypercube(d)
    solved = solve_alike(g, cap=256).parts
    spans = closed_form_spans(ctx)
    assert solved.keys() == spans.keys()
    for part, basis in spans.items():
        assert span_equal(solved[part], basis), part


def test_b_matrix_index_validation():
    _, ctx = hypercube(3)
    for bad in ((1, 1), (2, 1), (0, 2), (1, 4)):
        with pytest.raises(ValueError):
            b_matrix(ctx, *bad)


@pytest.mark.parametrize("d", range(1, 7))
def test_b_matrix_matches_the_product_form(d):
    # the definition as ExactMatrix products and a difference, which share
    # nothing with b_matrix's vertex loop; the entry order must match too
    _, ctx = hypercube(d)
    a = cube_adjacency(ctx)
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            si, sj = alpha_star(ctx, i), alpha_star(ctx, j)
            expected = si @ a @ sj - sj @ a @ si
            b = b_matrix(ctx, i, j)
            assert b == expected, (i, j)
            assert list(b.entries) == list(expected.entries), (i, j)
            assert all(type(v) is int for v in b.entries.values()), (i, j)


@pytest.mark.parametrize("d", range(1, 10))
def test_b_matrix_matches_the_entrywise_form(d):
    # entry (x, y) is A[x, y] (s_i[x] s_j[y] - s_j[x] s_i[y]), read from the
    # real adjacency and alpha_star diagonals that b_matrix no longer builds
    _, ctx = hypercube(d)
    a = cube_adjacency(ctx).entries
    s = {}
    for i in range(1, d + 1):
        star = alpha_star(ctx, i)
        s[i] = [star[x, x] for x in range(ctx.n)]
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            si, sj = s[i], s[j]
            expected = {}
            for (x, y), v in a.items():
                factor = si[x] * sj[y] - sj[x] * si[y]
                if factor:
                    expected[(x, y)] = v * factor
            b = b_matrix(ctx, i, j)
            assert (b.rows, b.cols) == (ctx.n, ctx.n)
            assert b.entries == expected, (i, j)
            assert len(b.entries) == 2 * ctx.n, (i, j)
            assert all(type(v) is int and v in (2, -2) for v in b.entries.values())


# -- characterization -------------------------------------------------------------------


def test_residual_of_identity_vanishes():
    _, ctx = hypercube(3)
    ident = ExactMatrix.identity(8)
    for i in range(1, 4):
        for j in range(i + 1, 4):
            assert not characterization_residual(ctx, ident, i, j).entries


def test_residual_of_all_ones_on_q2_frozen():
    _, ctx = hypercube(2)
    ones = ExactMatrix(4, 4, {(x, y): 1 for x in range(4) for y in range(4)})
    residual = characterization_residual(ctx, ones, 1, 2)
    assert residual == ExactMatrix(
        4, 4, {(0, 3): 4, (3, 0): 4, (1, 2): -4, (2, 1): -4}
    )


def test_residual_of_antisym_basis_vanishes_on_q3():
    _, ctx = hypercube(3)
    b = b_matrix(ctx, 1, 2)
    for i in range(1, 4):
        for j in range(i + 1, 4):
            assert not characterization_residual(ctx, b, i, j).entries


def test_residual_index_validation():
    _, ctx = hypercube(2)
    b = ExactMatrix.identity(4)
    for bad in ((1, 1), (2, 1), (0, 1), (1, 3)):
        with pytest.raises(ValueError):
            characterization_residual(ctx, b, *bad)


def test_residual_rejects_an_alpha_star_that_is_not_diagonal(monkeypatch):
    original = alike_module.alpha_star

    def patched(ctx, i):
        return _with_entries(original(ctx, i), {(0, 1): 1})

    monkeypatch.setattr(alike_module, "alpha_star", patched)
    _, ctx = hypercube(2)
    with pytest.raises(ValueError, match="not diagonal"):
        characterization_residual(ctx, ExactMatrix.identity(4), 1, 2)


def test_characterization_rejects_a_graph_of_another_size():
    _, ctx = hypercube(3)
    with pytest.raises(ValueError, match="cube size"):
        verify_all(ctx, groups=["characterization"], graph=hypercube(2)[0])


def test_residual_matches_entrywise_formula():
    rng = random.Random(42)
    _, ctx = hypercube(3)
    stars = {i: alpha_star(ctx, i) for i in range(1, 4)}
    for _ in range(10):
        ent = {}
        for _ in range(20):
            pos = (rng.randrange(8), rng.randrange(8))
            ent[pos] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        b = ExactMatrix(8, 8, ent)
        for i in range(1, 4):
            for j in range(i + 1, 4):
                residual = characterization_residual(ctx, b, i, j)
                # the paper's four-term sum, as an oracle for the commutator form
                si, sj = stars[i], stars[j]
                assert residual == si @ sj @ b - si @ b @ sj - sj @ b @ si + b @ si @ sj
                for x in range(8):
                    for y in range(8):
                        fi = stars[i][x, x] - stars[i][y, y]
                        fj = stars[j][x, x] - stars[j][y, y]
                        assert residual[x, y] == fi * fj * b[x, y]


def test_characterization_case_runner_counts():
    g, ctx = hypercube(3)
    result = GroupResult("characterization")
    result.run(characterization_cases, ctx, g, random.Random("cases"), 10)
    assert result.passed, result.witness
    assert result.checks == 10 * 3 + 10  # C(3,2) residuals per supported case + planted


def _distant_pairs_oracle(g):
    """Every distant pair, row-major: the set the planted pairs are drawn from."""
    return [
        (x, y)
        for x in range(g.n)
        for y in range(g.n)
        if (x ^ y).bit_count() >= 2 and not g.has_edge(x, y)
    ]


def _graphs_for_distant_pairs():
    cubes = {f"q{d}": hypercube(d)[0] for d in range(1, 7)}
    q4, q6 = sorted(cubes["q4"].edges), sorted(cubes["q6"].edges)
    return {
        **cubes,
        "corrupted-q2": corrupted_q2(),
        "q4-less-an-edge": Graph(16, [e for e in q4 if e != (0, 8)]),
        "q4-plus-edges-at-distance-2-and-3": Graph(16, q4 + [(0, 3), (1, 12)]),
        "q6-plus-an-edge-at-distance-6": Graph(64, q6 + [(5, 58)]),
        "p6": path_graph(6),  # n is not a power of two
        "k4": Graph(4, list(itertools.combinations(range(4), 2))),
    }


DISTANT_PAIR_GRAPHS = _graphs_for_distant_pairs()


def _draws(g, seed, count=200):
    return list(itertools.islice(_distant_pair_draws(g, random.Random(seed)), count))


@pytest.mark.parametrize("name", DISTANT_PAIR_GRAPHS)
def test_distant_pairs_match_the_list_oracle(name):
    # every seeded draw is a distant pair, and a seed always gives the same draws
    g = DISTANT_PAIR_GRAPHS[name]
    oracle = set(_distant_pairs_oracle(g))
    for seed in range(5):
        drawn = _draws(g, seed)
        assert len(drawn) == (200 if oracle else 0)
        assert set(drawn) <= oracle
        assert _draws(g, seed) == drawn


def test_distant_pair_draws_reach_every_pair_on_q3():
    g = DISTANT_PAIR_GRAPHS["q3"]
    oracle = _distant_pairs_oracle(g)
    assert len(oracle) == 8 * (8 - 1 - 3)
    assert set(_draws(g, 0, 1000)) == set(oracle)
    # seed 0 draws (6, 6), (0, 4) and (7, 6) first, each rejected
    assert _draws(g, 0, 4) == [(4, 7), (5, 3), (2, 4), (2, 1)]


class _NoDraws(random.Random):
    def randrange(self, *args):
        raise AssertionError("drew from a graph with no distant pair")


@pytest.mark.parametrize("name", ["q1", "k4"])
def test_distant_pair_draws_end_without_drawing_when_there_is_none(name):
    assert list(_distant_pair_draws(DISTANT_PAIR_GRAPHS[name], _NoDraws(0))) == []


def _characterization_checks(d):
    pairs = math.comb(d, 2)
    cases = 50 if d <= 5 else 12 if d <= 8 else 4
    formula = 5 * pairs + pairs**2 if d <= 10 else 50
    return cases * pairs + cases * (d >= 2) + formula


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("d", range(1, 11))
def test_characterization_counts_to_d10(d, seed):
    _, ctx = hypercube(d)
    group = verify_all(ctx, groups=["characterization"], seed=seed).group(
        "characterization"
    )
    expected = [0, 106, 224, 416, 700, 492, 810, 1272, 1624, 2434][d - 1]
    assert _characterization_checks(d) == expected
    assert (group.passed, group.checks, group.sampled) == (True, expected, False)


# -- restriction to the second-largest eigenspace ------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_restriction_of_adjacency_is_scaled_identity(d):
    g, ctx = hypercube(d)
    m = restriction_to_E1(ctx, adjacency(g))
    assert m == ExactMatrix.identity(d).scale(d - 2)


def test_restriction_of_identity_is_identity():
    _, ctx = hypercube(3)
    assert restriction_to_E1(ctx, ExactMatrix.identity(8)) == ExactMatrix.identity(3)


def test_restriction_of_b_matrices_frozen():
    _, ctx = hypercube(3)
    for i in range(1, 4):
        for j in range(i + 1, 4):
            m = restriction_to_E1(ctx, b_matrix(ctx, i, j))
            assert m == ExactMatrix(
                3, 3, {(i - 1, j - 1): 4, (j - 1, i - 1): -4}
            )
            assert m.is_antisymmetric()


def test_restriction_requires_commuting_matrix():
    _, ctx = hypercube(2)
    with pytest.raises(ValueError):
        restriction_to_E1(ctx, alpha_star(ctx, 1))
    with pytest.raises(ValueError):
        restriction_to_E1(ctx, ExactMatrix.identity(3))


def test_restriction_of_antisymmetric_member_is_antisymmetric():
    g, ctx = hypercube(3)
    for m in solve_alike(g).basis_matrices("antisym"):
        assert restriction_to_E1(ctx, m).is_antisymmetric()


def _restriction_oracle(ctx, b):
    """<W_t, B W_s> / 2^d from matvec images and entrywise products."""
    singles = [scaled_eigenvector(ctx, 1 << t) for t in range(ctx.d)]
    images = [b.matvec(w) for w in singles]
    return ExactMatrix(ctx.d, ctx.d, {
        (t, s): Fraction(sum(wt[x] * image[x] for x in range(ctx.n)), ctx.n)
        for s, image in enumerate(images)
        for t, wt in enumerate(singles)
    })


@pytest.mark.parametrize("d", range(1, 7))
def test_walsh_hadamard_restriction_matches_the_matvec_oracle(d):
    # every b_ij, alpha_i, A, A^2 and I, and seeded rational elements of the
    # commutant: combinations of the closed-form bases with p/q coefficients
    g, ctx = hypercube(d)
    sym, antisym = closed_form_sym_basis(ctx), closed_form_antisym_basis(ctx)
    rng = random.Random(f"restriction:{d}")

    def coefficient():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 3))

    zero = ExactMatrix.zeros(ctx.n)
    mixes = [sum((m.scale(coefficient()) for m in sym + antisym), zero) for _ in range(3)]
    a = adjacency(g)
    kinds = set()
    for b in [*antisym, *sym, a, a @ a, *mixes]:
        got = restriction_to_E1(ctx, b)
        assert got == _restriction_oracle(ctx, b)
        kinds.update(map(type, got.entries.values()))
    assert kinds == {int, Fraction}


# -- closed-form action table --------------------------------------------------------


def test_bij_action_frozen_cases():
    _, ctx2 = hypercube(2)
    assert bij_action_on_wS(ctx2, 1, 2, 0b01) == (-4, 0b10)
    assert bij_action_on_wS(ctx2, 1, 2, 0) == (0, None)
    _, ctx3 = hypercube(3)
    assert bij_action_on_wS(ctx3, 1, 2, 0b10) == (4, 0b01)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_bij_action_matches_matrix_action(d):
    _, ctx = hypercube(d)
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            b = b_matrix(ctx, i, j)
            for mask in range(ctx.n):
                coeff, target = bij_action_on_wS(ctx, i, j, mask)
                image = b.matvec(scaled_eigenvector(ctx, mask))
                if coeff == 0:
                    assert not image.entries
                else:
                    assert image == scaled_eigenvector(ctx, target).scale(coeff)


def test_bij_action_validation():
    _, ctx = hypercube(2)
    with pytest.raises(ValueError):
        bij_action_on_wS(ctx, 2, 1, 0)
    with pytest.raises(ValueError):
        bij_action_on_wS(ctx, 1, 2, 4)


def _lanes_of(vec, unit):
    """Bit x set where vec[x] is -unit, for a vector whose entries are all +-unit."""
    assert len(vec.entries) == vec.n and set(vec.entries.values()) <= {unit, -unit}
    return sum(1 << x for x, v in vec.entries.items() if v == -unit)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_packed_actions_match_matvec(d):
    # the lane route of eigenbasis and the action table against exact matvec
    _, ctx = hypercube(d)
    formula, flip = _formula_lanes(ctx)
    for mask in range(ctx.n):
        vec = scaled_eigenvector(ctx, mask)
        w = _sign_bits(GroupResult("lanes"), ctx, mask)
        assert w == formula[mask] == _lanes_of(vec, 1)
        for i in range(1, d + 1):
            bit = ctx.bit(i)
            assert flip(w, bit) == _lanes_of(alpha(ctx, i).matvec(vec), 1)
            assert w ^ formula[bit] == _lanes_of(alpha_star(ctx, i).matvec(vec), 1)
        for i, j in coordinate_pairs(d):
            b = b_matrix(ctx, i, j)
            lanes = _offset_signs(b, [ctx.bit(i), ctx.bit(j)], 2)
            ti, tj = (flip(w, a) ^ t for a, t in lanes.items())
            image = b.matvec(vec)
            for x in range(ctx.n):
                assert image[x] == 2 * (-1) ** (ti >> x & 1) + 2 * (-1) ** (tj >> x & 1)


def test_offset_signs_reject_another_form():
    _, ctx = hypercube(2)
    b = b_matrix(ctx, 1, 2)
    assert _offset_signs(b, [1, 2], 2) == {1: 0b0110, 2: 0b1001}
    assert _offset_signs(b, [1, 2], 1) is None
    assert _offset_signs(b, [1], 2) is None
    extra = ExactMatrix(4, 4, {**b.entries, (0, 0): 2})
    assert _offset_signs(extra, [1, 2], 2) is None
    missing = ExactMatrix(4, 4, {k: v for k, v in b.entries.items() if k != (0, 1)})
    assert _offset_signs(missing, [1, 2], 2) is None


# -- XOR-offset forms ---------------------------------------------------------------


def _flips(n, offsets, sign=1):
    """sum over offsets a of sign^k P_a, k the position of a: P_a[x, x ^ a] = 1."""
    return ExactMatrix(
        n, n, {(x, x ^ a): sign**k for k, a in enumerate(offsets) for x in range(n)}
    )


def _sparse_operands(d, kind, seed):
    """Seeded pairs of sparse 2^d x 2^d matrices of ints or Fractions.

    Values +-1, +-2 or their halves, on n to 2n cells up to d = 4, so that
    products often cancel in a cell; fewer cells above, where every offset
    of one form meets every offset of the other.
    """
    rng = random.Random(f"{seed}:{d}:{kind.__name__}")
    n = 1 << d
    low, high = (n, 2 * n) if d <= 4 else (n // 4, n // 2)

    def value():
        v = rng.choice([-2, -1, 1, 2])
        return v if kind is int else Fraction(v, 2)

    def sparse():
        count = rng.randint(low, high)
        cells = [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]
        return ExactMatrix(n, n, {cell: value() for cell in cells})

    return [(sparse(), sparse()) for _ in range(16)]


@pytest.mark.parametrize("kind", [int, Fraction])
@pytest.mark.parametrize("d", range(1, 7))
def test_offset_product_matches_the_sparse_product(d, kind):
    # the kernel against the generic sparse @, - and scale
    cancelled = 0
    for a, b in _sparse_operands(d, kind, 14):
        fa, fb = _offset_form(a), _offset_form(b)
        product = a @ b
        assert _form_product(fa, fb) == _offset_form(product)
        assert _form_sum((1, fa), (-2, fb)) == _offset_form(a - b.scale(2))
        for sign in (1, -1):
            expected = product - (b @ a).scale(sign)
            assert _bracket(fa, fb, sign) == _offset_form(expected)
        terms = {(x, z) for x, y in a.entries for y2, z in b.entries if y == y2}
        cancelled += len(terms) - len(product.entries)
    # the dense draws of d = 2..4 cancel somewhere; the pair below at every d
    assert cancelled > 0 or d not in (2, 3, 4)
    # (P_1 + I)(P_1 - I) = P_1^2 - I = 0: every offset of the product cancels
    a, b = _flips(1 << d, [1, 0]), _flips(1 << d, [1, 0], -1)
    assert a @ b == ExactMatrix.zeros(1 << d)
    assert _form_product(_offset_form(a), _offset_form(b)) == {}


@pytest.mark.parametrize("kind", [int, Fraction])
@pytest.mark.parametrize("d", range(1, 7))
def test_offset_forms_are_equal_exactly_when_the_matrices_are(d, kind):
    for a, b in _sparse_operands(d, kind, 15):
        changed = {(0, 0): a[0, 0] + 1}
        for other in (b, a, ExactMatrix(a.rows, a.cols, {**a.entries, **changed})):
            assert (_offset_form(a) == _offset_form(other)) is (a == other)


def test_offset_form_reads_each_entry_at_its_offset():
    b = b_matrix(hypercube(2)[1], 1, 2)
    assert _offset_form(b) == {1: [2, -2, -2, 2], 2: [-2, 2, 2, -2]}
    assert _offset_form(ExactMatrix.zeros(4)) == {}
    assert _offset_form(ExactMatrix(4, 4, {(3, 0): Fraction(1, 2)})) == {
        3: [0, 0, 0, Fraction(1, 2)]
    }


# -- verification driver ----------------------------------------------------------------


def test_verify_all_passes_on_q3():
    _, ctx = hypercube(3)
    report = verify_all(ctx, seed=1)
    assert report.all_passed
    assert [g.name for g in report.groups] == [
        "alpha",
        "eigenbasis",
        "idempotents",
        "characterization",
        "sym_basis",
        "antisym_basis",
        "dimensions",
        "restriction",
    ]
    assert all(not g.skipped for g in report.groups)
    assert all(g.checks > 0 for g in report.groups)


def test_verify_all_group_selection_and_unknown_group():
    _, ctx = hypercube(2)
    report = verify_all(ctx, groups=["alpha", "restriction"], seed=0)
    assert [g.name for g in report.groups] == ["alpha", "restriction"]
    with pytest.raises(ValueError):
        verify_all(ctx, groups=["nonsense"])


def test_verify_all_brute_alias():
    _, ctx = hypercube(2)
    report = verify_all(ctx, groups=["brute"], seed=0)
    assert [g.name for g in report.groups] == ["dimensions"]


def test_verify_all_skips_capped_groups():
    # only the solver has a size cap: the projector checks run at any d
    _, ctx = hypercube(9, cap=9)
    report = verify_all(ctx, groups=["idempotents", "dimensions"], seed=0)
    dimensions = report.group("dimensions")
    assert dimensions.skipped and dimensions.reason
    idempotents = report.group("idempotents")
    assert not idempotents.skipped and idempotents.passed
    assert idempotents.checks == 143
    assert report.all_passed


def test_verify_all_rejects_an_empty_selection():
    _, ctx = hypercube(2)
    with pytest.raises(ValueError, match="no check group"):
        verify_all(ctx, groups=[])


def test_all_passed_needs_a_group_that_ran():
    ran = GroupResult("alpha", True, 3)
    skipped = GroupResult("dimensions", None, 0, skipped=True, reason="capped")
    failed = GroupResult("alpha", False, 1, witness="forced")
    assert VerificationReport(2, 0, [ran, skipped]).all_passed
    assert not VerificationReport(2, 0, [skipped]).all_passed
    assert not VerificationReport(2, 0, []).all_passed
    assert not VerificationReport(2, 0, [failed, skipped]).all_passed


def test_result_records_keep_their_semantics():
    g = path_graph(3)
    verdict = is_alike(g, ExactMatrix(3, 3, {(0, 2): 1}))
    assert not verdict
    assert not AlikeCheck(False, "support", (0, 2), 1)
    assert AlikeCheck(True)
    for record, name in [(verdict, "ok"), (solve_alike(g), "full")]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    result = GroupResult("alpha", False, 1, witness="forced")
    assert result == GroupResult("alpha", passed=False, checks=1, witness="forced")
    assert result != GroupResult("alpha")
    result.sampled = True
    assert list(result.to_dict()) == [
        "name", "passed", "checks", "sampled", "skipped", "reason", "witness"
    ]
    positional = VerificationReport(2, 0, [result], {"alpha": 0.5})
    keyword = VerificationReport(d=2, seed=0, groups=[result], timings={"alpha": 0.5})
    assert positional == keyword
    # each report gets its own default list and dict
    first, second = VerificationReport(2, 0), VerificationReport(d=2, seed=0)
    first.groups.append(result)
    assert (second.groups, second.timings) == ([], {})


def _template_faults(source):
    """(calls, lines of faults) of the ``check.require`` calls in ``source``.

    A call's witness template must be a string literal whose replacement
    fields use exactly the arguments after it.  A bad template raises only
    when its check fails, which is when the witness is needed.
    """
    calls, faults = 0, []
    for node in ast.walk(ast.parse(source)):
        is_call = isinstance(node, ast.Call)
        if not (is_call and getattr(node.func, "attr", "") == "require"):
            continue
        calls += 1
        _, template, *args = node.args
        literal = isinstance(template, ast.Constant) and isinstance(template.value, str)
        if not literal or any(isinstance(a, ast.Starred) for a in args):
            faults.append(node.lineno)
            continue
        parsed = string.Formatter().parse(template.value)
        fields = [field for _, field, _, _ in parsed if field is not None]
        if all(field.isdigit() for field in fields):
            ok = {int(field) for field in fields} == set(range(len(args)))
        else:
            ok = not any(fields) and len(fields) == len(args)
        if not ok:
            faults.append(node.lineno)
    return calls, faults


def test_every_witness_template_matches_its_arguments():
    calls = 0
    for path in sorted(Path(alike_module.__file__).parent.glob("*.py")):
        found, faults = _template_faults(path.read_text())
        assert faults == [], path.name
        calls += found
    assert calls >= 40  # every call site was found
    bad = [
        'check.require(ok, "a {} b {}", x)',
        'check.require(ok, "b_{0}{1}", i)',
        'check.require(ok, "{} and {1}", i, j)',
        "check.require(ok, witness, i)",
        'check.require(ok, "b_{0}{1} {0}", i, j)',  # the one good call
        'check.require(ok, "{}", *args)',
        'check.require(ok, "{name}", i)',
        'check.require(ok, "{}")',
    ]
    assert _template_faults("\n".join(bad)) == (8, [1, 2, 3, 4, 6, 7, 8])


# (checks passed before the failing one, witness) of each group that reads
# the graph, on the corrupted Q2
CORRUPTED_Q2_FAILURES = {
    "alpha": (20, "sum of alpha_i is not the adjacency matrix"),
    "characterization": (0, "supported case 0: residual (1,2) is nonzero"),
    "sym_basis": (
        3,
        "symmetric basis element 1 fails membership (commute at (0, 2))",
    ),
    "antisym_basis": (3, "b_12 fails membership (commute)"),
    "dimensions": (0, "solver dims (3, 3, 0) != formula (4, 3, 1)"),
}


@pytest.mark.parametrize("name", list(CORRUPTED_Q2_FAILURES))
def test_verify_all_detects_corrupted_adjacency(name):
    _, ctx = hypercube(2)
    report = verify_all(ctx, groups=[name], seed=0, graph=corrupted_q2())
    group = report.group(name)
    assert not report.all_passed
    assert group.passed is False
    assert (group.checks, group.witness) == CORRUPTED_Q2_FAILURES[name]


def _patch_sign_vector(monkeypatch, mask, change):
    """Make the check groups see change(W_mask) in place of W_mask."""
    original = alike_module.scaled_eigenvector

    def patched(ctx, s):
        w = original(ctx, s)
        return change(w) if s == mask else w

    monkeypatch.setattr(alike_module, "scaled_eigenvector", patched)


def _eigenbasis_q2():
    _, ctx = hypercube(2)
    return verify_all(ctx, groups=["eigenbasis"], seed=0).group("eigenbasis")


def test_eigenbasis_detects_a_flipped_sign(monkeypatch):
    def flip_first(vec):
        return ExactVector(vec.n, {**vec.entries, 0: -vec.entries[0]})

    _patch_sign_vector(monkeypatch, 1, flip_first)
    group = _eigenbasis_q2()
    # W_0 passes its 2d + 1 actions; W_1 fails its first
    assert (group.passed, group.checks) == (False, 5)
    assert group.witness == "alpha_1 action wrong on mask 1"


def test_eigenbasis_detects_a_flipped_sign_in_the_last_vector_at_d10(monkeypatch):
    def flip_first(vec):
        return ExactVector(vec.n, {**vec.entries, 0: -vec.entries[0]})

    _patch_sign_vector(monkeypatch, 1023, flip_first)
    _, ctx = hypercube(10)
    group = verify_all(ctx, groups=["eigenbasis"], seed=0).group("eigenbasis")
    # the 1023 masks before it pass their 2d + 1 = 21 actions each
    witness = "alpha_1 action wrong on mask 1023"
    assert (group.passed, group.checks, group.witness) == (False, 21483, witness)


def test_eigenbasis_detects_an_alpha_of_another_form(monkeypatch):
    original = alike_module.alpha

    def patched(ctx, i):
        m = original(ctx, i)
        return ExactMatrix(m.rows, m.cols, {**m.entries, (0, 0): 1}) if i == 1 else m

    monkeypatch.setattr(alike_module, "alpha", patched)
    group = _eigenbasis_q2()
    witness = "alpha_1 action wrong on mask 0"
    assert (group.passed, group.checks, group.witness) == (False, 0, witness)


@pytest.mark.parametrize(
    "wrong", [lambda c, t: (c, t ^ 1), lambda c, t: (2 * c, t)], ids=["target", "coeff"]
)
def test_antisym_basis_detects_a_wrong_table_entry(monkeypatch, wrong):
    original = alike_module.bij_action_on_wS

    def patched(ctx, i, j, mask):
        coeff, target = original(ctx, i, j, mask)
        return wrong(coeff, target) if (i, j, mask) == (1, 3, 4) else (coeff, target)

    monkeypatch.setattr(alike_module, "bij_action_on_wS", patched)
    _, ctx = hypercube(3)
    group = verify_all(ctx, groups=["antisym_basis"], seed=0).group("antisym_basis")
    # 4 + d relations for each of the 3 pairs, all 8 table cases of b_12,
    # then the masks 0..3 of b_13
    witness = "b_13 action on mask 4 does not match the table"
    assert (group.passed, group.checks, group.witness) == (False, 21 + 8 + 4, witness)


def test_eigenbasis_rejects_a_vector_that_is_not_plus_minus_one(monkeypatch):
    # the packed lanes are exact only for +-1 entries: a missing entry ends
    # the group before any action on that vector is checked
    def drop_first(vec):
        return ExactVector(vec.n, {x: v for x, v in vec.entries.items() if x})

    _patch_sign_vector(monkeypatch, 1, drop_first)
    group = _eigenbasis_q2()
    # W_0 passes its 2d + 1 actions
    assert (group.passed, group.checks) == (False, 5)
    assert group.witness == "W_1 is not a +-1 vector"


def test_antisym_table_rejects_a_vector_that_is_not_plus_minus_one(monkeypatch):
    def drop_first(vec):
        return ExactVector(vec.n, {x: v for x, v in vec.entries.items() if x})

    _patch_sign_vector(monkeypatch, 1, drop_first)
    _, ctx = hypercube(2)
    group = verify_all(ctx, groups=["antisym_basis"], seed=0).group("antisym_basis")
    # b_12's 4 + d relations pass; every W_S is packed before the table
    assert (group.passed, group.checks) == (False, 6)
    assert group.witness == "W_1 is not a +-1 vector"


def _counting_span_calls(monkeypatch):
    """Patch SubspaceBasis.from_matrices to record the length of each list."""
    calls = []
    original = SubspaceBasis.from_matrices.__func__

    def counted(cls, matrices, shape=None):
        calls.append(len(matrices))
        return original(cls, matrices, shape)

    monkeypatch.setattr(SubspaceBasis, "from_matrices", classmethod(counted))
    return calls


def _cells_of_rows(ctx):
    rows = [0] + [ctx.bit(k) for k in range(1, ctx.d + 1)]
    return [(x, x ^ bit) for x in rows for bit in rows[1:]]


def test_span_dim_on_cells_matches_the_full_span(monkeypatch):
    # independent on the cells settles it; anything else falls back to the
    # full span, whose dimension then is the answer
    calls = _counting_span_calls(monkeypatch)
    _, ctx = hypercube(3)
    n, cells = ctx.n, _cells_of_rows(ctx)
    rng = random.Random("span-dim")

    def full_dim(mats):
        return SubspaceBasis(n * n, [vectorize(m) for m in mats]).dim

    b12, b13, b23 = closed_form_antisym_basis(ctx)
    off_cells = ExactMatrix(n, n, {(3, 5): 1, (6, 7): -2})
    lists = [
        ([b12, b13, b23], False),
        ([b12, b13, b23, b12.scale(2) - b23], True),  # dependent
        ([b12, off_cells], True),  # independent, but not on the cells
        ([off_cells, off_cells.scale(Fraction(1, 3))], True),  # dependent, zero on them
    ]
    for _ in range(20):  # seeded sparse lists, half of them made dependent
        mats = [
            ExactMatrix(n, n, {(rng.randrange(n), rng.randrange(n)): rng.randint(-3, 3)
                               for _ in range(4)})
            for _ in range(3)
        ]
        if rng.random() < 0.5:
            mats.append(mats[0] + mats[-1])
        lists.append((mats, None))
    for mats, falls_back in lists:
        before = len(calls)
        assert _span_dim(mats, cells) == full_dim(mats)
        if falls_back is not None:
            assert (len(calls) > before) is falls_back


def test_antisym_basis_falls_back_on_a_dependent_list(monkeypatch):
    # a pair listed twice gives b_12 twice: dependent on the cells too, so the
    # full span decides, and fails with the dependence witness
    calls = _counting_span_calls(monkeypatch)
    pairs = alike_module.coordinate_pairs
    monkeypatch.setattr(alike_module, "coordinate_pairs", lambda d: pairs(d) + [(1, 2)])
    _, ctx = hypercube(3)
    group = verify_all(ctx, groups=["antisym_basis"], seed=0).group("antisym_basis")
    # 4 listed pairs of 7 checks each, then 4 * 8 table cases
    assert (group.passed, group.checks) == (False, 4 * 7 + 4 * 8)
    assert group.witness == "antisymmetric basis is linearly dependent"
    assert calls == [4]


def test_random_support_matrices_draw_from_the_39_values():
    # one value per (p, q), p in -6..6 and q in 1..3: the distribution of
    # drawing p and q uniformly and dividing
    pairs = collections.Counter(
        Fraction(p, q) for p in range(-6, 7) for q in range(1, 4)
    )
    assert collections.Counter(alike_module._FRACTIONS) == pairs
    assert len(alike_module._FRACTIONS) == 39
    g, ctx = hypercube(3)
    positions = support_positions(g)
    rng = random.Random(0)
    drawn = set()
    for _ in range(100):
        m = _random_support_matrix(ctx.n, positions, rng)
        assert set(m.entries) <= set(positions)
        drawn.update(m.entries.values())
    assert drawn == set(pairs) - {0}


def test_eigenbasis_sampled_branch(monkeypatch):
    # the sample must stay at most 2^d, or the draw never ends
    monkeypatch.setattr(alike_module, "_EXHAUSTIVE_D", 3)
    monkeypatch.setattr(alike_module, "_EIGEN_SAMPLE", 8)
    _, ctx = hypercube(4)
    first, second = (
        verify_all(ctx, groups=["eigenbasis"], seed=5).group("eigenbasis")
        for _ in range(2)
    )
    assert first.sampled and first.passed
    # k actions of 2d + 1 each, then k^2 ordered pairs
    assert first.checks == 8 * 9 + 8 * 8
    assert first == second


@pytest.mark.parametrize("cap, sampled", [(5, False), (4, True)])
def test_characterization_sampled_branch(monkeypatch, cap, sampled):
    # the sample draws 10 of the C(d, 2) pairs, so d >= 5
    monkeypatch.setattr(alike_module, "_EXHAUSTIVE_D", cap)
    _, ctx = hypercube(5)
    first, second = (
        verify_all(ctx, groups=["characterization"], seed=5).group("characterization")
        for _ in range(2)
    )
    assert first.passed and first.sampled is sampled
    # 50 supported cases of 10 pairs, 50 planted cases, 5 matrices against
    # the formula under 10 pairs; in full, every b_pq under every pair too
    assert first.checks == 50 * 10 + 50 + 5 * 10 + (0 if sampled else 10 * 10)
    assert first == second


def test_restriction_detects_a_scaled_bij(monkeypatch):
    original = alike_module.b_matrix
    monkeypatch.setattr(
        alike_module, "b_matrix", lambda ctx, i, j: original(ctx, i, j).scale(2)
    )
    _, ctx = hypercube(2)
    group = verify_all(ctx, groups=["restriction"], seed=0).group("restriction")
    assert (group.passed, group.checks) == (False, 0)
    assert group.witness == "restriction of b_12 is not 4(e_1e_2^T - e_2e_1^T)"


def _with_entries(m, entries):
    return ExactMatrix(m.rows, m.cols, {**m.entries, **entries})


def _moved_entry(m):
    kept = {k: v for k, v in m.entries.items() if k != (0, 1)}
    return ExactMatrix(m.rows, m.cols, {**kept, (0, 6): m[0, 1]})


def _drop_edge_01(m):
    kept = {k: v for k, v in m.entries.items() if k not in ((0, 1), (1, 0))}
    return ExactMatrix(m.rows, m.cols, kept)


# (library name, coordinate it changes or None, change, group, (passed, checks, witness)),
# each on Q3 with seed 0: the relation checks of alpha, antisym_basis and
# characterization read the cube's own structure matrices, so each must
# catch a wrong one with the witness of the first relation it breaks
STRUCTURE_FAULTS = {
    "b_12-entry-negated": (
        "b_matrix", (1, 2), lambda m: _with_entries(m, {(0, 1): -m[0, 1]}),
        "antisym_basis", (False, 0, "b_12 != 2 s_1 s_2 (alpha_1 - alpha_2)"),
    ),
    "alpha_3-extra-diagonal": (
        "alpha", 3, lambda m: _with_entries(m, {(0, 0): 1}),
        "antisym_basis", (False, 6, "b_12 sign relation with alpha_3 fails"),
    ),
    "adjacency-less-an-edge": (
        "cube_adjacency", None, _drop_edge_01,
        "antisym_basis", (False, 2, "b_12 does not commute with the adjacency"),
    ),
    "alpha_star_1-entry-2": (
        "alpha_star", 1, lambda m: _with_entries(m, {(0, 0): 2}),
        "alpha", (False, 1, "alpha_star_1^2 != I"),
    ),
    "alpha_2-extra-diagonal": (
        "alpha", 2, lambda m: _with_entries(m, {(0, 0): 1}),
        "alpha", (False, 4, "alpha_2^2 != I"),
    ),
    "alpha_star_1-off-diagonal": (
        "alpha_star", 1, lambda m: _with_entries(m, {(0, 1): 1}),
        "characterization", (False, 0, "supported case 0: residual (1,2) is nonzero"),
    ),
    # the difference route: D_2 is 1 at every edge (0, e_k) with k != 2
    "alpha_star_2-entry-2": (
        "alpha_star", 2, lambda m: _with_entries(m, {(0, 0): 2}),
        "characterization", (False, 0, "supported case 0: residual (1,2) is nonzero"),
    ),
    # 0 ^ 6 flips coordinates 2 and 3: 150 supported, 50 planted and 15
    # formula checks pass, then the pairs (1,2) and (1,3) of b_12
    "b_12-entry-moved-to-a-distant-cell": (
        "b_matrix", (1, 2), _moved_entry,
        "characterization", (False, 217, "residual (2,3) of b_12 is nonzero"),
    ),
}


@pytest.mark.parametrize("fault", list(STRUCTURE_FAULTS))
def test_relation_checks_detect_a_wrong_structure_matrix(monkeypatch, fault):
    name, which, change, group_name, expected = STRUCTURE_FAULTS[fault]
    original = getattr(alike_module, name)

    def patched(ctx, *args):
        m = original(ctx, *args)
        return change(m) if which is None or args in (which, (which,)) else m

    monkeypatch.setattr(alike_module, name, patched)
    _, ctx = hypercube(3)
    group = verify_all(ctx, groups=[group_name], seed=0).group(group_name)
    assert (group.passed, group.checks, group.witness) == expected


def test_restriction_names_the_first_cell_off_the_commutant():
    _, ctx = hypercube(3)
    with pytest.raises(ValueError, match=r"entry \(0, 4\)"):
        restriction_to_E1(ctx, alpha_star(ctx, 3))


def test_verify_report_is_deterministic():
    _, ctx = hypercube(2)
    first = verify_all(ctx, seed=9).to_dict()
    second = verify_all(ctx, seed=9).to_dict()
    assert first == second


# -- scalar types -----------------------------------------------------------------


def _entries(*objects):
    return [v for obj in objects for v in obj.entries.values()]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_scalar_types_are_canonical(d):
    """Integral values are ints, other values Fractions, and nothing is a float."""
    g, ctx = hypercube(d)
    coords = range(1, d + 1)
    bs = [b_matrix(ctx, i, j) for i in coords for j in coords if i < j]
    integral = _entries(
        *(alpha(ctx, i) for i in coords),
        *(alpha_star(ctx, i) for i in coords),
        cube_adjacency(ctx),
        *bs,
        *(scaled_eigenvector(ctx, mask) for mask in range(ctx.n)),
    )
    integral += [v for item in eigen_data(ctx).items for v in item.row]
    assert {type(v) for v in integral} == {int}

    third = cube_adjacency(ctx).scale(Fraction(1, 3))
    restricted = restriction_to_E1(ctx, third)
    assert restricted == ExactMatrix.identity(d).scale(Fraction(d - 2, 3))
    rng = random.Random(d)
    dense = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)] for _ in range(3)]
    rational = ExactMatrix.from_rows(dense)
    exact = _entries(
        *(restriction_to_E1(ctx, b) for b in bs),
        restricted,
        *nullspace(rational),
        *SubspaceBasis(5, [ExactVector(5, enumerate(row)) for row in dense]),
        *solve_alike(path_graph(d + 1)).full,
        # the seeded rationals the check groups draw
        *(_random_support_matrix(ctx.n, support_positions(g), rng) for _ in range(3)),
    )
    assert exact
    for v in exact:
        assert type(v) is int or (type(v) is Fraction and v.denominator > 1), v


def test_package_exports():
    import alike

    names = alike.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(alike, name)] == []
    assert "characterization_cases" in names
    # no exported name shadows a submodule
    for name in ("alike", "cli", "exactlinalg", "hypercube"):
        module = importlib.import_module(f"alike.{name}")
        assert getattr(alike, name) is module is sys.modules[f"alike.{name}"], name


#: Defined in the library but called only from outside it: the per-layer
#: tracer in perfbench wraps each by name.
CALLED_FROM_OUTSIDE = {"contains", "matvec", "rank"}


def _names_read(node):
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_library_function_has_a_library_caller():
    # a function, method or property that only tests call is dead weight;
    # dunders are called by the language
    sources = Path(alike_module.__file__).parent.glob("*.py")
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(sources)]
    reads = sum(map(_names_read, trees), collections.Counter())
    uncalled = {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and reads[node.name] == _names_read(node)[node.name]
    }
    assert sorted(uncalled - CALLED_FROM_OUTSIDE) == []
    # the allowlist holds only names the tracer wraps, read from its source
    tracing_py = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tracing = ast.parse(tracing_py.read_text(encoding="utf-8"))
    layers = next(
        node.value
        for node in tracing.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    )
    targets = [t for ts in ast.literal_eval(layers).values() for t in ts]
    wrapped = {t.rpartition(":")[2].rpartition(".")[2] for t in targets}
    assert sorted(CALLED_FROM_OUTSIDE - wrapped) == []
