import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from alike.alike import GroupResult
from alike.exactlinalg import (
    CapExceeded,
    ExactMatrix,
    ExactVector,
    commutator,
    kron,
    rank,
)
from alike.hypercube import (
    FLIP2,
    SIGN2,
    Graph,
    HypercubeContext,
    adjacency,
    alpha,
    alpha_star,
    alpha_star_via_kron,
    alpha_via_kron,
    cube_adjacency,
    eigen_data,
    graph_from_dict,
    hypercube,
    idempotent_report,
    load_graph,
    scaled_eigenvector,
    walsh_hadamard,
)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


# -- construction ---------------------------------------------------------------


def test_hypercube_small_sizes():
    g1, _ = hypercube(1)
    assert (g1.n, len(g1.edges)) == (2, 1)
    g2, _ = hypercube(2)
    assert (g2.n, len(g2.edges)) == (4, 4)
    assert all(len(g2.neighbors(v)) == 2 for v in range(4))  # the 4-cycle
    g3, _ = hypercube(3)
    assert (g3.n, len(g3.edges)) == (8, 12)


def test_hypercube_bipartition_by_parity():
    g, _ = hypercube(4)
    for u, v in g.edges:
        assert u.bit_count() % 2 != v.bit_count() % 2


def test_hypercube_range_errors():
    with pytest.raises(ValueError):
        hypercube(0)
    with pytest.raises(CapExceeded):
        hypercube(13)
    assert hypercube(13, cap=13)[0].n == 8192


def test_context_encoding():
    _, ctx = hypercube(3)
    assert ctx.n == 8
    assert ctx.mask_of([1, 3]) == 0b101
    assert ctx.coords_of(0b101) == (1, 3)
    with pytest.raises(ValueError):
        ctx.bit(4)
    with pytest.raises(ValueError):
        HypercubeContext(0)


def test_cube_records_reject_assignment():
    _, ctx = hypercube(2)
    data = eigen_data(ctx)
    records = [
        (ctx, "d"),
        (scaled_eigenvector(ctx, 1), "vec"),
        (data, "items"),
        (data.items[0], "row"),
    ]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


# -- alpha and alpha_star ---------------------------------------------------------


def test_alpha_q1_frozen():
    _, ctx = hypercube(1)
    assert alpha(ctx, 1) == FLIP2
    assert alpha_star(ctx, 1) == SIGN2


def test_alpha_sum_is_adjacency():
    g, ctx = hypercube(3)
    total = ExactMatrix.zeros(8)
    for i in range(1, 4):
        total = total + alpha(ctx, i)
    assert total == adjacency(g)
    assert cube_adjacency(ctx) == adjacency(g)


def test_alpha_involutions_and_commutation():
    _, ctx = hypercube(3)
    ident = ExactMatrix.identity(8)
    for i in range(1, 4):
        assert alpha(ctx, i) @ alpha(ctx, i) == ident
        assert alpha_star(ctx, i) @ alpha_star(ctx, i) == ident
    for i in range(1, 4):
        for j in range(1, 4):
            ai, aj = alpha(ctx, i), alpha(ctx, j)
            si, sj = alpha_star(ctx, i), alpha_star(ctx, j)
            assert ai @ aj == aj @ ai
            assert si @ sj == sj @ si
            if i != j:
                assert ai @ sj == sj @ ai
            else:
                assert ai @ si == -(si @ ai)


def test_alpha_anticommutator_frozen_on_q1():
    _, ctx = hypercube(1)
    expected = (SIGN2 @ FLIP2).scale(2)  # [[0, 2], [-2, 0]]
    assert commutator(alpha_star(ctx, 1), alpha(ctx, 1)) == expected
    assert expected == ExactMatrix.from_rows([[0, 2], [-2, 0]])


def test_alpha_index_range_checked():
    _, ctx = hypercube(2)
    for bad in (0, 3):
        with pytest.raises(ValueError):
            alpha(ctx, bad)
        with pytest.raises(ValueError):
            alpha_star(ctx, bad)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_kron_factorization_matches_direct(d):
    _, ctx = hypercube(d)
    for i in range(1, d + 1):
        assert alpha_via_kron(ctx, i) == alpha(ctx, i)
        assert alpha_star_via_kron(ctx, i) == alpha_star(ctx, i)


def test_kron_factorization_explicit_folds():
    i2 = ExactMatrix.identity(2)
    _, ctx2 = hypercube(2)
    assert kron(FLIP2, i2) == alpha(ctx2, 1)
    assert kron(i2, FLIP2) == alpha(ctx2, 2)
    _, ctx3 = hypercube(3)
    assert kron(kron(i2, SIGN2), i2) == alpha_star(ctx3, 2)


# -- eigenvectors ----------------------------------------------------------------


def test_scaled_eigenvector_empty_set_is_all_ones():
    g, ctx = hypercube(3)
    w = scaled_eigenvector(ctx, 0)
    assert w.vec == ExactVector.from_list([1] * 8)
    assert adjacency(g).matvec(w.vec) == w.vec.scale(3)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_eigenvector_actions(d):
    _, ctx = hypercube(d)
    adj = cube_adjacency(ctx)
    for mask in range(ctx.n):
        w = scaled_eigenvector(ctx, mask).vec
        assert adj.matvec(w) == w.scale(d - 2 * mask.bit_count())
        for i in range(1, d + 1):
            bit = 1 << (i - 1)
            sign = -1 if mask & bit else 1
            assert alpha(ctx, i).matvec(w) == w.scale(sign)
            moved = alpha_star(ctx, i).matvec(w)
            assert moved == scaled_eigenvector(ctx, mask ^ bit).vec


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_eigenvector_orthogonality(d):
    _, ctx = hypercube(d)
    vecs = [scaled_eigenvector(ctx, m).vec for m in range(ctx.n)]
    for s in range(ctx.n):
        for t in range(ctx.n):
            assert vecs[s].inner(vecs[t]) == (ctx.n if s == t else 0)


def test_scaled_eigenvector_accepts_coordinate_iterables():
    _, ctx = hypercube(3)
    w = scaled_eigenvector(ctx, (1, 3))
    assert w.s == 0b101
    assert w.eigenvalue == 3 - 2 * 2
    with pytest.raises(ValueError):
        scaled_eigenvector(ctx, 8)


# -- spectral projectors ----------------------------------------------------------


def _projector_oracle(ctx, i):
    """E_i as the sum of W_S W_S^T / n over the weight-i masks, by dense products."""
    n = ctx.n
    total = ExactMatrix.zeros(n)
    for s in range(n):
        if s.bit_count() == i:
            vec = scaled_eigenvector(ctx, s).vec
            column = ExactMatrix.from_rows([[vec[x]] for x in range(n)])
            total = total + column @ column.transpose()
    return total.scale(Fraction(1, n))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_eigen_data_dense_oracle(d):
    # dense ExactMatrix products, independent of the report's row algebra
    g, ctx = hypercube(d)
    n = ctx.n
    data = eigen_data(ctx)
    assert [item.theta for item in data.items] == [d - 2 * i for i in range(d + 1)]
    assert [item.multiplicity for item in data.items] == [
        math.comb(d, i) for i in range(d + 1)
    ]
    oracle = [_projector_oracle(ctx, i) for i in range(d + 1)]
    for item, e in zip(data.items, oracle):
        spread = {(x, y): Fraction(item.row[x ^ y], n) for x in range(n) for y in range(n)}
        assert e == ExactMatrix(n, n, spread)
    assert oracle[0] == ExactMatrix.ones(n).scale(Fraction(1, n))
    ident = ExactMatrix.zeros(n)
    weighted = ExactMatrix.zeros(n)
    for item, e in zip(data.items, oracle):
        ident = ident + e
        weighted = weighted + e.scale(item.theta)
    assert ident == ExactMatrix.identity(n)
    assert weighted == adjacency(g)
    for i, (item, e) in enumerate(zip(data.items, oracle)):
        assert rank(e) == item.multiplicity
        for j, other in enumerate(oracle):
            assert e @ other == (e if i == j else ExactMatrix.zeros(n))


@pytest.mark.parametrize("d", range(1, 9))
def test_eigen_data_rows_match_the_popcount_sum(d):
    # r_i[w] = sum over weight-i S of (-1)^popcount(S & w), term by term
    _, ctx = hypercube(d)
    for i, item in enumerate(eigen_data(ctx).items):
        masks = [s for s in range(ctx.n) if s.bit_count() == i]
        assert item.row == [
            sum(-1 if (s & w).bit_count() & 1 else 1 for s in masks)
            for w in range(ctx.n)
        ]


def _xor_convolution(a, b):
    return [sum(a[u] * b[u ^ w] for u in range(len(a))) for w in range(len(a))]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_walsh_hadamard_matches_the_direct_oracles(d):
    n = 1 << d
    rng = random.Random(f"walsh-hadamard:{d}")
    for _ in range(3):
        a = [rng.randint(-9, 9) for _ in range(n)]
        b = [rng.randint(-9, 9) for _ in range(n)]
        ha, hb = walsh_hadamard(a), walsh_hadamard(b)
        assert ha == [
            sum(-v if (s & w).bit_count() & 1 else v for w, v in enumerate(a))
            for s in range(n)
        ]
        assert walsh_hadamard(_xor_convolution(a, b)) == [x * y for x, y in zip(ha, hb)]
        assert walsh_hadamard(ha) == [n * v for v in a]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_idempotent_report_passes(d):
    _, ctx = hypercube(d)
    result = GroupResult("idempotents").run(idempotent_report, ctx, eigen_data(ctx))
    assert result.passed, result.witness
    assert result.checks > 0


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_projector_rank_equals_trace(d):
    # idempotent_report reads each rank as the trace r_i[0]; exact elimination agrees
    _, ctx = hypercube(d)
    for i, item in enumerate(eigen_data(ctx).items):
        e = _projector_oracle(ctx, i)
        assert rank(e) == e.trace() == item.row[0] == math.comb(d, i)


def test_idempotent_report_catches_corruption():
    # d=2 with projector rows replaced; each case pins (passed, checks, witness)
    _, ctx = hypercube(2)
    data = eigen_data(ctx)
    r1, r2 = data.items[1].row, data.items[2].row
    cases = [
        ({1: [r1[0] + 1, *r1[1:]]}, (False, 7, "projector product (0,1) is wrong")),
        ({1: [2 * v for v in r1]}, (False, 10, "projector product (1,1) is wrong")),
        ({1: [0] * 4}, (False, 15, "projectors do not sum to the identity")),
        (
            {1: r2, 2: r1},
            (False, 16, "eigenvalue-weighted projector sum is not the adjacency"),
        ),
        # a shape failure counts no check: 4 is the table checks of E_0 and E_1
        ({1: r1[:3]}, (False, 4, "projector 1 row has length 3, not 4")),
    ]
    for rows, expected in cases:
        items = list(data.items)
        for i, row in rows.items():
            items[i] = items[i]._replace(row=row)
        corrupted = data._replace(items=tuple(items))
        result = GroupResult("idempotents").run(idempotent_report, ctx, corrupted)
        assert (result.passed, result.checks, result.witness) == expected


# -- graph ingestion ---------------------------------------------------------------


def test_graph_from_dict_roundtrip():
    g = graph_from_dict({"n": 3, "edges": [[0, 1], [1, 2]]})
    assert g == path_graph(3)


def test_graph_with_many_isolated_vertices_allocates_nothing_per_vertex():
    tracemalloc.start()
    try:
        g = graph_from_dict({"n": 10**6, "edges": []})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert g.n == 10**6
    assert g.neighbors(10**6 - 1) == () and g.neighbors(0) == ()


def test_load_graph(tmp_path):
    path = tmp_path / "p3.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    assert load_graph(path) == path_graph(3)


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 2, "edges": [[0, 0]]},  # loop
        {"n": 2, "edges": [[0, 1], [1, 0]]},  # duplicate after normalization
        {"n": 2, "edges": [[0, 2]]},  # out of range
        {"n": 0, "edges": []},
        {"n": 2},
        {"edges": []},
        {"n": 2, "edges": [[0]]},
        {"n": 2, "edges": "nope"},
        {"n": True, "edges": []},
        [1, 2, 3],
    ],
)
def test_graph_from_dict_rejects_malformed(doc):
    with pytest.raises(ValueError):
        graph_from_dict(doc)


def test_graph_constructor_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])
    with pytest.raises(ValueError):
        Graph(0, [])
