import random
from fractions import Fraction

import pytest

from alike.exactlinalg import (
    ExactMatrix,
    ExactVector,
    SubspaceBasis,
    commutator,
    exact_quotient,
    kron,
    kron_vec,
    nullspace,
    rank,
    span_equal,
    unvectorize,
    vectorize,
)

FLIP = ExactMatrix.from_rows([[0, 1], [1, 0]])


def random_matrix(rng, rows, cols, density=1.0):
    ent = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() <= density:
                ent[(r, c)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return ExactMatrix(rows, cols, ent)


def random_vector(rng, n):
    return ExactVector(n, {i: Fraction(rng.randint(-5, 5)) for i in range(n)})


def assert_canonical(basis):
    """Reduced-echelon structure: leading 1s, strictly increasing pivots,
    pivot columns zero in every other vector."""
    previous = -1
    for k, vec in enumerate(basis.vectors):
        pivot = vec.leading_index()
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


def test_kron_vec_all_ones():
    ones = ExactVector.from_list([1, 1])
    assert kron_vec(ones, ones) == ExactVector.from_list([1, 1, 1, 1])


def test_kron_vec_inner_product_identity():
    rng = random.Random(103)
    for _ in range(25):
        u1, u2, v1, v2 = (random_vector(rng, 2) for _ in range(4))
        assert kron_vec(u1, u2).inner(kron_vec(v1, v2)) == u1.inner(v1) * u2.inner(v2)


def test_kron_matvec_compatibility():
    rng = random.Random(104)
    for _ in range(25):
        a = random_matrix(rng, 2, 2)
        b = random_matrix(rng, 2, 2)
        x = random_vector(rng, 2)
        y = random_vector(rng, 2)
        assert kron(a, b).matvec(kron_vec(x, y)) == kron_vec(a.matvec(x), b.matvec(y))


# -- arithmetic ---------------------------------------------------------------


def test_transpose_involution():
    rng = random.Random(105)
    m = random_matrix(rng, 3, 5)
    assert m.transpose().transpose() == m


def test_commutator_with_identity_is_zero():
    rng = random.Random(106)
    m = random_matrix(rng, 4, 4)
    assert commutator(ExactMatrix.identity(4), m).is_zero()


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


def test_entry_bounds_checked():
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, {(2, 0): 1})
    with pytest.raises(ValueError):
        ExactVector(2, {5: 1})


def test_trace():
    m = ExactMatrix.from_rows([[1, 7], [0, Fraction(1, 2)]])
    assert m.trace() == Fraction(3, 2)
    with pytest.raises(ValueError):
        ExactMatrix.zeros(2, 3).trace()


def test_arithmetic_is_exact():
    third = Fraction(1, 3)
    m = ExactMatrix(1, 1, {(0, 0): third})
    total = ExactMatrix.zeros(1, 1)
    for _ in range(3):
        total = total + m
    assert total == ExactMatrix.identity(1)


def test_entries_are_canonical_exact_scalars():
    m = ExactMatrix(1, 3, {(0, 0): Fraction(4, 2), (0, 1): True, (0, 2): Fraction(1, 2)})
    assert [type(v) for _, v in m.sorted_items()] == [int, int, Fraction]
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
    assert vectorize(m) == ExactVector.from_list([1, 2, 3, 4])


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
        ExactVector.from_list([1, 0, 0]),
        ExactVector.from_list([0, 1, 0]),
        ExactVector.from_list([0, 0, 1]),
    ]


def test_nullspace_of_identity_is_empty():
    assert nullspace(ExactMatrix.identity(4)).dim == 0


def test_nullspace_of_rank_one_system():
    m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    basis = nullspace(m)
    assert basis.dim == 2
    expected = SubspaceBasis(
        3,
        [ExactVector.from_list([-2, 1, 0]), ExactVector.from_list([-3, 0, 1])],
    )
    assert span_equal(basis, expected)


def test_nullspace_vectors_are_exact_kernel_members():
    rng = random.Random(108)
    for _ in range(20):
        m = random_matrix(rng, 5, 8, density=0.5)
        basis = nullspace(m)
        for vec in basis:
            assert m.matvec(vec).is_zero()
        assert rank(m) + basis.dim == m.cols
        assert_canonical(basis)


def test_nullspace_canonical_leading_one():
    basis = nullspace(ExactMatrix.from_rows([[2, 1]]))
    assert list(basis) == [ExactVector.from_list([1, -2])]


def test_rank_small_cases():
    assert rank(ExactMatrix.identity(5)) == 5
    assert rank(ExactMatrix.zeros(4, 7)) == 0
    assert rank(ExactMatrix.from_rows([[1, 2], [2, 4]])) == 1


def naive_rref(dense):
    """Textbook dense Gaussian elimination over Fraction; test-side oracle."""
    # Fraction, not the int entries to_rows() gives: int / int is a float
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


def test_engine_agrees_with_naive_dense_elimination():
    rng = random.Random(110)
    for _ in range(30):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 7)
        m = random_matrix(rng, nrows, ncols, density=rng.uniform(0.2, 1.0))
        pivot_cols, reduced = naive_rref(m.to_rows())
        assert rank(m) == len(pivot_cols)
        # kernel from the oracle's reduced rows, checked as a span
        pivset = set(pivot_cols)
        kernel = []
        for free in range(ncols):
            if free in pivset:
                continue
            ent = {free: Fraction(1)}
            for pc, row in zip(pivot_cols, reduced):
                if row[free]:
                    ent[pc] = -row[free]
            kernel.append(ExactVector(ncols, ent))
        engine_kernel = nullspace(m)
        assert engine_kernel.dim == len(kernel)
        for vec in kernel:
            assert m.matvec(vec).is_zero()
            assert engine_kernel.contains(vec)
        assert span_equal(engine_kernel, SubspaceBasis(ncols, kernel))


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
    v = ExactVector.from_list([1, 2, 0])
    w = v.scale(Fraction(3, 2))
    basis = SubspaceBasis(3, [v, w])
    assert basis.dim == 1
    assert_canonical(basis)


def test_contains():
    basis = SubspaceBasis(
        3, [ExactVector.from_list([1, 0, 1]), ExactVector.from_list([0, 1, 2])]
    )
    assert basis.contains(ExactVector.from_list([2, 3, 8]))
    assert not basis.contains(ExactVector.from_list([0, 0, 1]))
    with pytest.raises(ValueError):
        basis.contains(ExactVector(4))


def test_from_matrices_empty_needs_shape():
    with pytest.raises(ValueError):
        SubspaceBasis.from_matrices([])
    empty = SubspaceBasis.from_matrices([], shape=(2, 2))
    assert empty.ambient_dim == 4
    assert empty.dim == 0
