import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alike.alike import characterization_residual
from alike.exactlinalg import (
    ExactMatrix,
    ExactVector,
    SubspaceBasis,
    _back_substitute,
    _echelon_int,
    _eliminate,
    _int_rows_of_matrix,
    exact_quotient,
    kron,
    nullspace,
    rank,
    span_equal,
    unvectorize,
    vectorize,
)
from alike.hypercube import hypercube

FLIP = ExactMatrix.from_rows([[0, 1], [1, 0]])


def random_matrix(rng, rows, cols, density=1.0):
    ent = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() <= density:
                ent[(r, c)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return ExactMatrix(rows, cols, ent)


def vector(values):
    return ExactVector(len(values), enumerate(values))


def dense_rows(m):
    return [[m[r, c] for c in range(m.cols)] for r in range(m.rows)]


def random_vector(rng, n):
    return ExactVector(n, {i: Fraction(rng.randint(-5, 5)) for i in range(n)})


def assert_canonical(basis):
    """Reduced-echelon structure: leading 1s, strictly increasing pivots,
    pivot columns zero in every other vector."""
    previous = -1
    for k, vec in enumerate(basis.vectors):
        pivot = min(vec.entries)
        assert pivot == basis.pivots[k]
        assert pivot > previous
        previous = pivot
        assert vec[pivot] == 1
        for other in basis.vectors:
            if other is not vec:
                assert other[pivot] == 0


# -- kron ---------------------------------------------------------------------


def test_kron_identity():
    i2 = ExactMatrix.identity(2)
    assert kron(i2, i2) == ExactMatrix.identity(4)


def test_kron_flip_acts_on_low_bit():
    # pairing convention: first factor lives on bit 0 of the combined index
    k = kron(FLIP, ExactMatrix.identity(2))
    assert sorted(k.entries) == [(0, 1), (1, 0), (2, 3), (3, 2)]
    k = kron(ExactMatrix.identity(2), FLIP)
    assert sorted(k.entries) == [(0, 2), (1, 3), (2, 0), (3, 1)]


def test_kron_mixed_product_property():
    rng = random.Random(101)
    for _ in range(25):
        a, b, c, d = (random_matrix(rng, 2, 2) for _ in range(4))
        assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


def test_kron_transpose():
    rng = random.Random(102)
    for _ in range(10):
        a = random_matrix(rng, 2, 3)
        b = random_matrix(rng, 3, 2)
        assert kron(a, b).transpose() == kron(a.transpose(), b.transpose())


def test_kron_matvec_compatibility():
    # mixed product with 2x1 columns: (a (x) b)(x (x) y) = (a x) (x) (b y)
    rng = random.Random(104)
    for _ in range(25):
        a = random_matrix(rng, 2, 2)
        b = random_matrix(rng, 2, 2)
        x = random_matrix(rng, 2, 1)
        y = random_matrix(rng, 2, 1)
        assert kron(a, b) @ kron(x, y) == kron(a @ x, b @ y)


# -- arithmetic ---------------------------------------------------------------


def test_transpose_involution():
    rng = random.Random(105)
    m = random_matrix(rng, 3, 5)
    assert m.transpose().transpose() == m


def test_commutator_with_identity_is_zero():
    rng = random.Random(106)
    m = random_matrix(rng, 4, 4)
    assert ExactMatrix.identity(4) @ m == m @ ExactMatrix.identity(4)


def test_dimension_mismatch_raises():
    a = ExactMatrix.identity(2)
    b = ExactMatrix.identity(3)
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a - b
    with pytest.raises(ValueError):
        ExactVector(2) - ExactVector(3)
    with pytest.raises(ValueError):
        a.matvec(ExactVector(3))
    with pytest.raises(TypeError):
        a @ ExactVector(2, {0: 1})


def test_entry_bounds_checked():
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, {(2, 0): 1})
    with pytest.raises(ValueError):
        ExactVector(2, {5: 1})


def test_arithmetic_is_exact():
    third = Fraction(1, 3)
    m = ExactMatrix(1, 1, {(0, 0): third})
    total = ExactMatrix.zeros(1, 1)
    for _ in range(3):
        total = total + m
    assert total == ExactMatrix.identity(1)


def test_entries_are_canonical_exact_scalars():
    m = ExactMatrix(1, 3, {(0, 0): Fraction(4, 2), (0, 1): True, (0, 2): Fraction(1, 2)})
    assert [type(v) for _, v in sorted(m.entries.items())] == [int, int, Fraction]
    assert m == ExactMatrix.from_rows([[2, 1, Fraction(1, 2)]])
    assert type(exact_quotient(6, -3)) is int and exact_quotient(6, -3) == -2
    assert exact_quotient(1, 3) == Fraction(1, 3)
    assert type(exact_quotient(Fraction(3, 2), Fraction(1, 2))) is int
    difference = m - ExactMatrix.from_rows([[2, 0, Fraction(1, 2)]])
    assert difference.entries == {(0, 1): 1}


@pytest.mark.parametrize("bad", [2.0, 0.5, "1", None, complex(1, 0)])
def test_non_exact_entries_are_rejected(bad):
    with pytest.raises(TypeError):
        ExactMatrix(1, 1, {(0, 0): bad})
    with pytest.raises(TypeError):
        ExactVector(1, {0: bad})
    with pytest.raises(TypeError):
        ExactMatrix.from_rows([[bad]])
    with pytest.raises(TypeError):
        ExactMatrix.identity(1).scale(bad)


# -- vectorize ----------------------------------------------------------------


def test_vectorize_row_major():
    m = ExactMatrix.from_rows([[1, 2], [3, 4]])
    assert vectorize(m) == vector([1, 2, 3, 4])


def test_vectorize_round_trip():
    rng = random.Random(107)
    for _ in range(10):
        m = random_matrix(rng, 4, 4, density=0.6)
        assert unvectorize(vectorize(m), 4, 4) == m


def test_unvectorize_length_checked():
    with pytest.raises(ValueError):
        unvectorize(ExactVector(5), 2, 2)


# -- nullspace / rank ---------------------------------------------------------


def test_nullspace_of_zero_matrix_is_identity_basis():
    basis = nullspace(ExactMatrix.zeros(3, 3))
    assert basis.dim == 3
    assert list(basis) == [
        vector([1, 0, 0]),
        vector([0, 1, 0]),
        vector([0, 0, 1]),
    ]


def test_nullspace_of_identity_is_empty():
    assert nullspace(ExactMatrix.identity(4)).dim == 0


def test_nullspace_of_rank_one_system():
    m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    basis = nullspace(m)
    assert basis.dim == 2
    expected = SubspaceBasis(
        3,
        [vector([-2, 1, 0]), vector([-3, 0, 1])],
    )
    assert span_equal(basis, expected)


def test_nullspace_vectors_are_exact_kernel_members():
    rng = random.Random(108)
    for _ in range(20):
        m = random_matrix(rng, 5, 8, density=0.5)
        basis = nullspace(m)
        for vec in basis:
            assert not m.matvec(vec).entries
        assert rank(m) + basis.dim == m.cols
        assert_canonical(basis)


def test_nullspace_canonical_leading_one():
    basis = nullspace(ExactMatrix.from_rows([[2, 1]]))
    assert list(basis) == [vector([1, -2])]


def test_rank_small_cases():
    assert rank(ExactMatrix.identity(5)) == 5
    assert rank(ExactMatrix.zeros(4, 7)) == 0
    assert rank(ExactMatrix.from_rows([[1, 2], [2, 4]])) == 1


def naive_rref(dense):
    """Textbook dense Gaussian elimination over Fraction; test-side oracle."""
    # Fraction, not the int entries dense_rows() gives: int / int is a float
    rows = [[Fraction(v) for v in r] for r in dense]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivot_cols = []
    r = 0
    for c in range(ncols):
        hit = next((i for i in range(r, nrows) if rows[i][c]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        scale = rows[r][c]
        rows[r] = [v / scale for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
    return pivot_cols, rows[:r]


def naive_kernel(m):
    """(rank, kernel vectors) read off the oracle's reduced rows."""
    pivot_cols, reduced = naive_rref(dense_rows(m))
    pivset = set(pivot_cols)
    kernel = []
    for free in range(m.cols):
        if free in pivset:
            continue
        ent = {free: Fraction(1)}
        for pc, row in zip(pivot_cols, reduced):
            if row[free]:
                ent[pc] = -row[free]
        kernel.append(ExactVector(m.cols, ent))
    return len(pivot_cols), kernel


def test_engine_agrees_with_naive_dense_elimination():
    rng = random.Random(110)
    for _ in range(30):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 7)
        m = random_matrix(rng, nrows, ncols, density=rng.uniform(0.2, 1.0))
        oracle_rank, kernel = naive_kernel(m)
        assert rank(m) == oracle_rank
        # kernel from the oracle's reduced rows, checked as a span
        engine_kernel = nullspace(m)
        assert engine_kernel.dim == len(kernel)
        for vec in kernel:
            assert not m.matvec(vec).entries
            assert engine_kernel.contains(vec)
        assert span_equal(engine_kernel, SubspaceBasis(ncols, kernel))


@pytest.mark.parametrize("deficient", [False, True])
def test_in_place_elimination_matches_the_dense_oracle_on_overdetermined_systems(deficient):
    # 40 x 20 int systems with entries -5..5, so most pivots are not +-1 and the
    # row update divides by gcds; the deficient ones get five columns that are
    # sums of two others, a five-dimensional kernel
    rng = random.Random(f"overdetermined:{deficient}")
    for _ in range(3):
        dense = [[rng.randint(-5, 5) for _ in range(20)] for _ in range(40)]
        if deficient:
            for row in dense:
                row[15:] = [row[k] + row[k + 5] for k in range(5)]
        m = ExactMatrix.from_rows(dense)
        vectors = [vector(row) for row in dense]
        before = dict(m.entries), [dict(v.entries) for v in vectors]
        oracle_rank, kernel = naive_kernel(m)
        assert rank(m) == oracle_rank == 20 - 5 * deficient
        assert span_equal(nullspace(m), SubspaceBasis(20, kernel))
        pivot_cols, reduced = naive_rref(dense)
        basis = SubspaceBasis(20, vectors)
        assert basis.pivots == tuple(pivot_cols)
        assert basis.vectors == tuple(vector(row) for row in reduced)
        # the elimination reduces rows of its own, never the caller's entries
        assert (m.entries, [v.entries for v in vectors]) == before
        # and every row it returns stays primitive
        for forward in (_eliminate, _echelon_int):
            reduced_rows = _back_substitute(forward(_int_rows_of_matrix(m)))
            assert {math.gcd(*row.values()) for _, row in reduced_rows} == {1}


# -- subspace bases -------------------------------------------------------------


def test_span_equal_requires_matching_ambient():
    with pytest.raises(ValueError):
        span_equal(SubspaceBasis(2), SubspaceBasis(3))


def test_span_equal_reflexive_and_symmetric_example():
    ident = ExactMatrix.identity(2)
    a = FLIP
    direct = SubspaceBasis.from_matrices([ident, a])
    recombined = SubspaceBasis.from_matrices([ident + a, ident - a])
    assert span_equal(direct, direct)
    assert span_equal(direct, recombined)
    assert span_equal(recombined, direct)


def test_span_invariant_under_invertible_recombination():
    rng = random.Random(109)
    vectors = [random_vector(rng, 6) for _ in range(3)]
    base = SubspaceBasis(6, vectors)
    for _ in range(10):
        # unit triangular transforms are invertible over the rationals
        coeffs = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        for i in range(3):
            coeffs[i][i] = Fraction(1)
            for j in range(i + 1, 3):
                coeffs[i][j] = Fraction(0)
        mixed = []
        for i in range(3):
            acc = ExactVector(6)
            for j in range(3):
                acc = acc + vectors[j].scale(coeffs[i][j])
            mixed.append(acc)
        assert span_equal(base, SubspaceBasis(6, mixed))


def test_subspace_drops_dependent_vectors():
    v = vector([1, 2, 0])
    w = v.scale(Fraction(3, 2))
    basis = SubspaceBasis(3, [v, w])
    assert basis.dim == 1
    assert_canonical(basis)


def test_contains():
    basis = SubspaceBasis(3, [vector([1, 0, 1]), vector([0, 1, 2])])
    assert basis.contains(vector([2, 3, 8]))
    assert not basis.contains(vector([0, 0, 1]))
    with pytest.raises(ValueError):
        basis.contains(ExactVector(4))


def test_from_matrices_empty_needs_shape():
    with pytest.raises(ValueError):
        SubspaceBasis.from_matrices([])
    empty = SubspaceBasis.from_matrices([], shape=(2, 2))
    assert empty.ambient_dim == 4
    assert empty.dim == 0


def test_subspace_in_a_huge_ambient_space_visits_only_held_columns():
    # a scan over every ambient column would not finish
    n = 2**40
    top = n - 1
    basis = SubspaceBasis(
        n,
        [ExactVector(n, {top - 2: 2, top: 4}), ExactVector(n, {top - 2: 1, top - 1: 3})],
    )
    assert basis.pivots == (top - 2, top - 1)
    assert basis.vectors == (
        ExactVector(n, {top - 2: 1, top: 2}),
        ExactVector(n, {top - 1: 1, top: Fraction(-2, 3)}),
    )


# -- properties of the elimination layer --------------------------------------------

_exact = settings(derandomize=True, database=None, max_examples=80, deadline=None)
# zero is drawn often, so rank-deficient and sparse systems are common
_nonzero = st.fractions(-4, 4, max_denominator=3).filter(bool)
_scalars = st.one_of(st.just(0), _nonzero)


@st.composite
def small_matrices(draw, max_dim=5):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    values = draw(st.lists(_scalars, min_size=rows * cols, max_size=rows * cols))
    return ExactMatrix(rows, cols, {divmod(k, cols): v for k, v in enumerate(values)})


@_exact
@given(small_matrices())
def test_nullspace_vectors_are_annihilated(m):
    for vec in nullspace(m):
        assert not m.matvec(vec).entries


@_exact
@given(small_matrices())
def test_rank_plus_nullity_is_the_column_count(m):
    assert rank(m) + nullspace(m).dim == m.cols


@_exact
@given(small_matrices(), st.data())
def test_subspace_is_invariant_under_permutation_and_scaling(m, data):
    rows = [vector(row) for row in dense_rows(m)]
    order = data.draw(st.permutations(range(len(rows))))
    scales = data.draw(st.lists(_nonzero, min_size=len(rows), max_size=len(rows)))
    moved = [rows[k].scale(c) for k, c in zip(order, scales)]
    basis = SubspaceBasis(m.cols, rows)
    assert span_equal(SubspaceBasis(m.cols, moved), basis)
    assert_canonical(basis)


@st.composite
def tall_sparse_matrices(draw):
    # taller than wide and about two entries a row, so the sparse pivot order
    # departs from column order
    cols = draw(st.integers(1, 10))
    rows = draw(st.integers(cols, 12))
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    keys = sorted(draw(st.sets(cells, max_size=2 * rows)))
    values = draw(st.lists(_nonzero, min_size=len(keys), max_size=len(keys)))
    return ExactMatrix(rows, cols, zip(keys, values))


@_exact
@given(tall_sparse_matrices(), st.data())
def test_sparse_pivot_kernel_matches_the_dense_oracle(m, data):
    oracle_rank, kernel = naive_kernel(m)
    basis = nullspace(m)
    assert rank(m) == oracle_rank
    assert span_equal(basis, SubspaceBasis(m.cols, kernel))
    # rows enter the elimination in index order, so a permutation reorders them
    order = data.draw(st.permutations(range(m.rows)))
    moved = sorted(((order[r], c), v) for (r, c), v in m.entries.items())
    assert span_equal(nullspace(ExactMatrix(m.rows, m.cols, moved)), basis)


@st.composite
def wide_sparse_spans(draw):
    # a wide ambient space and a few vectors of about three entries each, so
    # column-order pivots skip most columns; some vectors are dependent
    n = draw(st.integers(1, 40))
    vectors = []
    for _ in range(draw(st.integers(1, 6))):
        if len(vectors) > 1 and draw(st.booleans()):
            a, b = draw(st.lists(st.sampled_from(vectors), min_size=2, max_size=2))
            vectors.append(a.scale(draw(_nonzero)) + b)
            continue
        keys = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
        values = draw(st.lists(_nonzero, min_size=len(keys), max_size=len(keys)))
        vectors.append(ExactVector(n, zip(keys, values)))
    order = draw(st.permutations(range(len(vectors))))
    return n, [vectors[k] for k in order]


@_exact
@given(wide_sparse_spans())
def test_subspace_basis_matches_the_dense_oracle(span):
    n, vectors = span
    pivot_cols, reduced = naive_rref([[v[i] for i in range(n)] for v in vectors])
    basis = SubspaceBasis(n, vectors)
    assert basis.pivots == tuple(pivot_cols)
    assert basis.vectors == tuple(vector(row) for row in reduced)


@_exact
@given(small_matrices(max_dim=4), st.data())
def test_arithmetic_results_hold_no_integral_fraction(a, data):
    # 1/2 + 1/2, 2 * 1/2 and 3/2 * 2/3 are integral and must come back as int
    def scalars(count):
        return data.draw(st.lists(_scalars, min_size=count, max_size=count))

    def shaped(rows, cols):
        cells = enumerate(scalars(rows * cols))
        return ExactMatrix(rows, cols, {divmod(k, cols): x for k, x in cells})

    n = a.cols
    same = shaped(a.rows, n)
    right = shaped(n, data.draw(st.integers(1, 4)))
    diag = ExactMatrix(n, n, {(i, i): data.draw(_nonzero) for i in range(n)})
    u, v = vector(scalars(n)), vector(scalars(n))
    c = data.draw(_nonzero)
    q2 = hypercube(2)[1]
    results = [
        a + same, a - same, a.scale(c), a @ right, a @ diag, diag @ right,
        kron(a, right), a.matvec(u), u + v, u - v, u.scale(c),
        # a padded to 4 x 4, scaled cell by cell by 0 or +-4
        characterization_residual(q2, ExactMatrix(4, 4, a.entries), 1, 2),
    ]
    for result in results:
        assert all(type(x) is int or x.denominator > 1 for x in result.entries.values())
    halved = ExactMatrix.identity(1).scale(2).scale(Fraction(1, 2))
    assert type(halved.entries[(0, 0)]) is int
    # the residual scales (0, 3) by (1 - -1)(1 - -1) = 4: 1/2 * 4 is the int 2
    half = ExactMatrix(4, 4, {(0, 3): Fraction(1, 2)})
    residual = characterization_residual(q2, half, 1, 2).entries
    assert residual == {(0, 3): 2} and type(residual[(0, 3)]) is int
