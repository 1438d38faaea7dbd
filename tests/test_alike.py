import random
from fractions import Fraction

import pytest

from alike.alike import (
    GroupResult,
    SupportPattern,
    VerificationReport,
    b_matrix,
    bij_action_on_wS,
    characterization_residual,
    closed_form_antisym_basis,
    closed_form_sym_basis,
    is_alike,
    restriction_to_E1,
    run_characterization_cases,
    solve_alike,
    verify_all,
)
from alike.exactlinalg import (
    CapExceeded,
    ExactMatrix,
    ExactVector,
    SubspaceBasis,
    nullspace,
    span_equal,
)
from alike.hypercube import (
    Graph,
    adjacency,
    alpha,
    alpha_star,
    cube_adjacency,
    eigen_data,
    hypercube,
    scaled_eigenvector,
)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def corrupted_q2():
    # one cube edge replaced by a diagonal: (2,3) -> (1,2)
    return Graph(4, [(0, 1), (0, 2), (1, 3), (1, 2)])


# -- support pattern ---------------------------------------------------------------


def test_support_pattern_ordering_p3():
    pattern = SupportPattern.for_graph(path_graph(3))
    assert pattern.positions == (
        (0, 0),
        (1, 1),
        (2, 2),
        (0, 1),
        (1, 0),
        (1, 2),
        (2, 1),
    )
    assert pattern.index_of(1, 0) == 4
    assert pattern.index_of(0, 2) is None
    assert len(pattern) == 3 + 2 * 2


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
    ones = ExactVector.from_list([1] * g.n)
    for m in solve_alike(g).basis_matrices("antisym"):
        assert m.matvec(ones).is_zero()


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


def test_solver_matches_full_space_oracle_on_random_graphs():
    rng = random.Random("oracle")
    for _ in range(12):
        g = random_graph(rng, rng.randint(2, 8))
        decomposition = solve_alike(g)
        assert span_equal(decomposition.full, full_space_oracle(g))
        assert decomposition.full.contains_matrix(ExactMatrix.identity(g.n))
        assert decomposition.full.contains_matrix(adjacency(g))


def test_disconnected_graph_is_solved_without_complaint():
    g = Graph(4, [(0, 1), (2, 3)])
    decomposition = solve_alike(g)
    total, sym, antisym = decomposition.dims
    assert total == sym + antisym
    for m in decomposition.basis_matrices("full"):
        assert is_alike(g, m)


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
    verdict = is_alike(g, ExactMatrix.ones(4))
    assert not verdict
    assert verdict.failed_condition == "support"
    assert verdict.position == (0, 3)


def test_is_alike_dimension_mismatch():
    g, _ = hypercube(2)
    with pytest.raises(ValueError):
        is_alike(g, ExactMatrix.identity(3))


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


def test_b_matrix_index_validation():
    _, ctx = hypercube(3)
    for bad in ((1, 1), (2, 1), (0, 2), (1, 4)):
        with pytest.raises(ValueError):
            b_matrix(ctx, *bad)


# -- characterization -------------------------------------------------------------------


def test_residual_of_identity_vanishes():
    _, ctx = hypercube(3)
    ident = ExactMatrix.identity(8)
    for i in range(1, 4):
        for j in range(i + 1, 4):
            assert characterization_residual(ctx, ident, i, j).is_zero()


def test_residual_of_all_ones_on_q2_frozen():
    _, ctx = hypercube(2)
    residual = characterization_residual(ctx, ExactMatrix.ones(4), 1, 2)
    assert residual == ExactMatrix(
        4, 4, {(0, 3): 4, (3, 0): 4, (1, 2): -4, (2, 1): -4}
    )


def test_residual_of_antisym_basis_vanishes_on_q3():
    _, ctx = hypercube(3)
    b = b_matrix(ctx, 1, 2)
    for i in range(1, 4):
        for j in range(i + 1, 4):
            assert characterization_residual(ctx, b, i, j).is_zero()


def test_residual_index_validation():
    _, ctx = hypercube(2)
    b = ExactMatrix.identity(4)
    for bad in ((1, 1), (2, 1), (0, 1), (1, 3)):
        with pytest.raises(ValueError):
            characterization_residual(ctx, b, *bad)


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
                for x in range(8):
                    for y in range(8):
                        fi = stars[i][x, x] - stars[i][y, y]
                        fj = stars[j][x, x] - stars[j][y, y]
                        assert residual[x, y] == fi * fj * b[x, y]


def test_characterization_case_runner_counts():
    g, ctx = hypercube(3)
    ok, checks, witness = run_characterization_cases(
        ctx, g, random.Random("cases"), 10
    )
    assert ok, witness
    assert checks == 10 * 3 + 10  # C(3,2) residuals per supported case + planted


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


# -- closed-form action table --------------------------------------------------------


def test_bij_action_frozen_cases():
    _, ctx2 = hypercube(2)
    assert bij_action_on_wS(ctx2, 1, 2, ctx2.mask_of([1])) == (-4, ctx2.mask_of([2]))
    assert bij_action_on_wS(ctx2, 1, 2, 0) == (0, None)
    _, ctx3 = hypercube(3)
    assert bij_action_on_wS(ctx3, 1, 2, ctx3.mask_of([2])) == (4, ctx3.mask_of([1]))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_bij_action_matches_matrix_action(d):
    _, ctx = hypercube(d)
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            b = b_matrix(ctx, i, j)
            for mask in range(ctx.n):
                coeff, target = bij_action_on_wS(ctx, i, j, mask)
                image = b.matvec(scaled_eigenvector(ctx, mask).vec)
                if coeff == 0:
                    assert image.is_zero()
                else:
                    assert image == scaled_eigenvector(ctx, target).vec.scale(coeff)


def test_bij_action_validation():
    _, ctx = hypercube(2)
    with pytest.raises(ValueError):
        bij_action_on_wS(ctx, 2, 1, 0)
    with pytest.raises(ValueError):
        bij_action_on_wS(ctx, 1, 2, 4)


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
    _, ctx = hypercube(9, cap=9)
    report = verify_all(ctx, groups=["idempotents", "dimensions"], seed=0)
    assert not report.all_passed  # every group was skipped: nothing was checked
    for group in report.groups:
        assert group.skipped
        assert group.reason


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
    _, ctx = hypercube(d)
    coords = range(1, d + 1)
    bs = [b_matrix(ctx, i, j) for i in coords for j in coords if i < j]
    integral = _entries(
        *(alpha(ctx, i) for i in coords),
        *(alpha_star(ctx, i) for i in coords),
        cube_adjacency(ctx),
        *bs,
        *(scaled_eigenvector(ctx, mask).vec for mask in range(ctx.n)),
    )
    assert {type(v) for v in integral} == {int}

    third = cube_adjacency(ctx).scale(Fraction(1, 3))
    restricted = restriction_to_E1(ctx, third)
    assert restricted == ExactMatrix.identity(d).scale(Fraction(d - 2, 3))
    rng = random.Random(d)
    rational = ExactMatrix.from_rows(
        [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)] for _ in range(3)]
    )
    exact = _entries(
        *(item.idempotent for item in eigen_data(ctx).items),
        *(restriction_to_E1(ctx, b) for b in bs),
        restricted,
        *nullspace(rational),
        *SubspaceBasis(5, [ExactVector.from_list(row) for row in rational.to_rows()]),
        *solve_alike(path_graph(d + 1)).full,
    )
    assert exact
    for v in exact:
        assert type(v) is int or (type(v) is Fraction and v.denominator > 1), v
