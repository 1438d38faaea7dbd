import random
from fractions import Fraction
from pathlib import Path

import pytest

import alike.alike as alike_module
from alike.alike import (
    AlikeCheck,
    GroupResult,
    VerificationReport,
    _distant_counts,
    _distant_pair,
    _random_support_matrix,
    b_matrix,
    bij_action_on_wS,
    characterization_cases,
    characterization_residual,
    closed_form_antisym_basis,
    closed_form_spans,
    closed_form_sym_basis,
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
    s = {i: alpha_star(ctx, i)._diagonal_values() for i in range(1, d + 1)}
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
    """Every distant pair, row-major: the list the draws used to be taken from."""
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
    }


DISTANT_PAIR_GRAPHS = _graphs_for_distant_pairs()


@pytest.mark.parametrize("name", DISTANT_PAIR_GRAPHS)
def test_distant_pairs_match_the_list_oracle(name):
    g = DISTANT_PAIR_GRAPHS[name]
    oracle = _distant_pairs_oracle(g)
    counts = _distant_counts(g)
    assert sum(counts) == len(oracle)
    assert [_distant_pair(g, counts, k) for k in range(len(oracle))] == oracle
    # randrange(len) and choice consume the stream alike, so the draws match
    for seed in range(5):
        by_index, by_choice = random.Random(seed), random.Random(seed)
        if oracle:
            drawn = _distant_pair(g, counts, by_index.randrange(len(oracle)))
            assert drawn == by_choice.choice(oracle)
        assert by_index.getstate() == by_choice.getstate()


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
        return w._replace(vec=change(w.vec)) if s == mask else w

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


def test_eigenbasis_rejects_a_vector_that_is_not_plus_minus_one(monkeypatch):
    # the packed inner product is exact only for +-1 entries: with the
    # actions passed regardless, a missing entry must still end the group
    def drop_first(vec):
        return ExactVector(vec.n, {x: v for x, v in vec.entries.items() if x})

    _patch_sign_vector(monkeypatch, 1, drop_first)
    monkeypatch.setattr(alike_module, "_matches_sign_vector", lambda *args: True)
    group = _eigenbasis_q2()
    assert (group.passed, group.checks) == (False, 10)
    assert group.witness == "W_1 is not a +-1 vector"


def test_eigenbasis_sampled_branch(monkeypatch):
    # the sample must stay at most 2^d, or the draw never ends
    monkeypatch.setattr(alike_module, "_EIGEN_EXHAUSTIVE_D", 3)
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
    monkeypatch.setattr(alike_module, "_CHAR_EXHAUSTIVE_D", cap)
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
        *(scaled_eigenvector(ctx, mask).vec for mask in range(ctx.n)),
    )
    integral += [v for item in eigen_data(ctx).items for v in item.row]
    assert {type(v) for v in integral} == {int}

    third = cube_adjacency(ctx).scale(Fraction(1, 3))
    restricted = restriction_to_E1(ctx, third)
    assert restricted == ExactMatrix.identity(d).scale(Fraction(d - 2, 3))
    rng = random.Random(d)
    rational = ExactMatrix.from_rows(
        [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)] for _ in range(3)]
    )
    exact = _entries(
        *(restriction_to_E1(ctx, b) for b in bs),
        restricted,
        *nullspace(rational),
        *SubspaceBasis(5, [ExactVector.from_list(row) for row in rational.to_rows()]),
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
