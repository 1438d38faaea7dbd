"""Exact linear algebra over the rationals.

Sparse vectors and matrices with exact rational entries, Kronecker
products, fraction-free elimination, and canonical reduced-echelon bases for
comparing subspaces exactly.  Elimination has two forward orders (sparse
pivots for ranks and kernels, column order for canonical forms) that return
one pivot-row format, and one back-substitution for both.  Entries are
``int`` or ``fractions.Fraction``: constructors, arithmetic and the
elimination routines store an integral value as an ``int``, so integer
matrices never pay for ``Fraction`` arithmetic.  No floating point anywhere:
a float entry is a ``TypeError``.
Values are treated as immutable: every operation returns a new object, so
instances are safe to share across threads.
"""

from __future__ import annotations

import heapq
import math
import operator
from fractions import Fraction

class CapExceeded(ValueError):
    """Raised when a request would exceed a configured size cap."""


def _rat(value):
    """Canonical exact scalar: an int, or a Fraction with denominator > 1."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"exact entries are int or Fraction, not {type(value).__name__}")


def exact_quotient(num, den):
    """num / den as a canonical exact scalar; never a float.

    ``num`` and ``den`` are ints or Fractions.  The result is an int when the
    quotient is integral, otherwise a Fraction.
    """
    if type(num) is int and type(den) is int:
        q, r = divmod(num, den)
        return Fraction(num, den) if r else q
    return _rat(Fraction(num, den))


def _canonical(entries):
    """``entries`` with every integral Fraction value replaced by its int.

    Products and sums of Fractions can be Fraction(k, 1).  The dict is
    changed in place; one pass over the value types skips the loop when it
    holds no Fraction.
    """
    if Fraction in set(map(type, entries.values())):
        for key, v in entries.items():
            if type(v) is Fraction and v.denominator == 1:
                entries[key] = v.numerator
    return entries


def _merge(a, b, op):
    """Entry dict of op(a, b), op being operator.add or operator.sub.

    Both dicts hold nonzero entries only; cancelled entries are dropped.
    """
    out = dict(a)
    get = out.get
    for key, v in b.items():
        s = op(get(key, 0), v)
        if not s:
            del out[key]
        elif type(s) is Fraction and s.denominator == 1:
            out[key] = s.numerator
        else:
            out[key] = s
    return out


class ExactVector:
    """Sparse rational vector; indices absent from ``entries`` are zero."""

    __slots__ = ("n", "entries")

    def __init__(self, n, entries=None):
        if n < 0:
            raise ValueError("vector length must be nonnegative")
        clean = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for i, value in items:
                if not 0 <= i < n:
                    raise ValueError(f"index {i} out of range for length {n}")
                value = _rat(value)
                if value:
                    clean[i] = value
        self.n = n
        self.entries = clean

    @classmethod
    def _raw(cls, n, entries):
        # entries must already be a dict of in-range index -> nonzero canonical scalar
        vec = object.__new__(cls)
        vec.n = n
        vec.entries = entries
        return vec

    def __getitem__(self, i):
        if not 0 <= i < self.n:
            raise IndexError(i)
        return self.entries.get(i, 0)

    def __len__(self):
        return self.n

    def __eq__(self, other):
        return (
            isinstance(other, ExactVector)
            and self.n == other.n
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"ExactVector({self.n}, {sorted(self.entries.items())})"

    def __add__(self, other):
        if not isinstance(other, ExactVector):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("vector length mismatch")
        return ExactVector._raw(self.n, _merge(self.entries, other.entries, operator.add))

    def __sub__(self, other):
        if not isinstance(other, ExactVector):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("vector length mismatch")
        return ExactVector._raw(self.n, _merge(self.entries, other.entries, operator.sub))

    def __neg__(self):
        return ExactVector._raw(self.n, {i: -v for i, v in self.entries.items()})

    def scale(self, c):
        c = _rat(c)
        if not c:
            return ExactVector._raw(self.n, {})
        ent = {i: v * c for i, v in self.entries.items()}
        return ExactVector._raw(self.n, _canonical(ent))


class ExactMatrix:
    """Sparse rows x cols rational matrix; absent entries are zero."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        clean = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for key, value in items:
                r, c = key
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError(f"entry {key} out of range for {rows}x{cols}")
                value = _rat(value)
                if value:
                    clean[(r, c)] = value
        self.rows = rows
        self.cols = cols
        self.entries = clean

    @classmethod
    def _raw(cls, rows, cols, entries):
        mat = object.__new__(cls)
        mat.rows = rows
        mat.cols = cols
        mat.entries = entries
        return mat

    @classmethod
    def identity(cls, n):
        return cls._raw(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zeros(cls, rows, cols=None):
        return cls._raw(rows, rows if cols is None else cols, {})

    @classmethod
    def from_rows(cls, dense_rows):
        rows = len(dense_rows)
        cols = len(dense_rows[0]) if rows else 0
        ent = {}
        for r, row in enumerate(dense_rows):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                v = _rat(v)
                if v:
                    ent[(r, c)] = v
        return cls._raw(rows, cols, ent)

    def __getitem__(self, key):
        r, c = key
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(key)
        return self.entries.get((r, c), 0)

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix dimension mismatch in addition")
        out = _merge(self.entries, other.entries, operator.add)
        return ExactMatrix._raw(self.rows, self.cols, out)

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix dimension mismatch in subtraction")
        out = _merge(self.entries, other.entries, operator.sub)
        return ExactMatrix._raw(self.rows, self.cols, out)

    def __neg__(self):
        return ExactMatrix._raw(
            self.rows, self.cols, {k: -v for k, v in self.entries.items()}
        )

    def scale(self, c):
        c = _rat(c)
        if not c:
            return ExactMatrix._raw(self.rows, self.cols, {})
        ent = {k: v * c for k, v in self.entries.items()}
        return ExactMatrix._raw(self.rows, self.cols, _canonical(ent))

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"matrix dimension mismatch in product: {self.rows}x{self.cols} @ "
                f"{other.rows}x{other.cols}"
            )
        rows_of = {}
        for (r, c), v in other.entries.items():
            rows_of.setdefault(r, []).append((c, v))
        acc = {}
        for (r, k), va in self.entries.items():
            bucket = rows_of.get(k)
            if bucket is None:
                continue
            for c, vb in bucket:
                key = (r, c)
                cur = acc.get(key)
                if cur is None:
                    acc[key] = va * vb
                else:
                    s = cur + va * vb
                    if s:
                        acc[key] = s
                    else:
                        del acc[key]
        return ExactMatrix._raw(self.rows, other.cols, _canonical(acc))

    def matvec(self, vec):
        if not isinstance(vec, ExactVector):
            raise TypeError("matvec needs an ExactVector")
        if self.cols != vec.n:
            raise ValueError("matrix/vector dimension mismatch")
        ve = vec.entries
        acc = {}
        for (r, c), mv in self.entries.items():
            xv = ve.get(c)
            if xv is None:
                continue
            val = xv if mv == 1 else -xv if mv == -1 else mv * xv
            cur = acc.get(r)
            if cur is None:
                acc[r] = val
            else:
                s = cur + val
                if s:
                    acc[r] = s
                else:
                    del acc[r]
        return ExactVector._raw(self.rows, _canonical(acc))

    def transpose(self):
        return ExactMatrix._raw(
            self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def is_symmetric(self):
        return self.rows == self.cols and self.entries == {
            (c, r): v for (r, c), v in self.entries.items()
        }

    def is_antisymmetric(self):
        return self.rows == self.cols and all(
            self.entries.get((c, r)) == -v for (r, c), v in self.entries.items()
        )


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product with the first factor on the low-order index.

    The combined row index is ``ra + rb * a.rows`` (columns likewise), so in a
    left-folded chain ``f1 (x) f2 (x) ... (x) fk`` factor ``fi`` acts on bit
    ``i - 1`` of the combined index.  This matches the vertex encoding used by
    the hypercube module.
    """
    ent = {}
    ar, ac = a.rows, a.cols
    for (ra, ca), va in a.entries.items():
        for (rb, cb), vb in b.entries.items():
            ent[(ra + rb * ar, ca + cb * ac)] = va * vb
    return ExactMatrix._raw(a.rows * b.rows, a.cols * b.cols, _canonical(ent))


def vectorize(m: ExactMatrix) -> ExactVector:
    """Row-major flattening: entry (r, c) lands at index r * cols + c."""
    cols = m.cols
    return ExactVector._raw(
        m.rows * m.cols, {r * cols + c: v for (r, c), v in m.entries.items()}
    )


def unvectorize(vec: ExactVector, rows: int, cols: int) -> ExactMatrix:
    if vec.n != rows * cols:
        raise ValueError(f"cannot reshape length {vec.n} into {rows}x{cols}")
    return ExactMatrix._raw(
        rows, cols, {divmod(i, cols): v for i, v in vec.entries.items()}
    )


# -- fraction-free elimination ------------------------------------------------
#
# Rows are dicts mapping column -> int, kept primitive (gcd 1).  Every row
# combination is one in-place integer cross-multiplication (``_reduce``:
# pc * row - rc * pivot), so no fractions appear until the final normalization
# to leading-1 reduced echelon form; the rows handed in are reduced in place.
# Two forward orders, both deterministic, return the same format: the (pivot
# column, pivot row) pairs in elimination order, each pivot row holding its
# own pivot column, the pivot columns of later pivots and free columns.
#
# - ``_eliminate`` (behind ``rank`` and ``nullspace``) picks sparse pivots, to
#   limit fill-in on the large sparse systems of the solver: the shortest active
#   row, and in it the column held by the fewest active rows (lowest column on
#   ties), in the manner of Markowitz (1957).
# - ``_echelon_int`` (behind ``SubspaceBasis``) pivots on the smallest column
#   any remaining row holds, which the canonical reduced echelon form needs.
#
# ``_back_substitute`` then clears the later pivot columns from every pivot
# row.  A rank and a canonical kernel basis do not depend on the pivot order.


def _int_row(items):
    den = 1
    for _, v in items:
        den = den * v.denominator // math.gcd(den, v.denominator)
    row = {}
    g = 0
    for c, v in items:
        iv = v.numerator * (den // v.denominator)
        row[c] = iv
        g = math.gcd(g, iv)
    if g > 1:
        for c in row:
            row[c] //= g
    return row


def _reduce(row, pivot, col):
    """row := pc * row - rc * pivot in place, pc and rc the two rows' col entries.

    pc and rc are first divided by their gcd and their signs taken so that
    pc > 0, so a pivot entry of -1 scales nothing; no rank, kernel or canonical
    basis reads the sign of a row.  The result is divided by the gcd of its
    entries, so a primitive row stays primitive.  Entries that cancel are
    deleted and new ones appended: the key order of a combination built afresh.
    """
    pc, rc = pivot[col], row[col]
    if pc < 0:
        pc, rc = -pc, -rc
    g = math.gcd(pc, rc)
    if g > 1:
        pc //= g
        rc //= g
    if pc != 1:
        for c in row:
            row[c] *= pc
    get = row.get
    for c, pv in pivot.items():
        nv = get(c, 0) - rc * pv
        if nv:
            row[c] = nv
        elif c in row:
            del row[c]
    g = math.gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g


def _echelon_int(rows):
    """Column-order fraction-free elimination of primitive int rows.

    The next pivot column is the smallest column that any remaining row holds,
    and the pivot row is the first remaining row that holds it.
    """
    rows = [row for row in rows if row]
    pivots = []
    while rows:
        col = min(map(min, rows))
        k = next(i for i, row in enumerate(rows) if col in row)
        pivot = rows.pop(k)
        for row in rows:
            if col in row:
                _reduce(row, pivot, col)
        rows = [row for row in rows if row]
        pivots.append((col, pivot))
    return pivots


def _back_substitute(pivots):
    """Reduce each pivot row by the later pivots, last row first.

    Takes the (pivot column, pivot row) pairs of either forward elimination and
    returns them in the same order, each row now holding only its own pivot
    column and free columns.
    """
    done = {}
    for col, row in reversed(pivots):
        # a reduced later row holds no other pivot column, so one pass suffices
        for c in [c for c in row if c in done]:
            _reduce(row, done[c], c)
        done[col] = row
    return [(col, done[col]) for col, _ in pivots]


def _int_rows_of_matrix(m):
    grouped = {}
    for (r, c), v in m.entries.items():
        grouped.setdefault(r, []).append((c, v))
    return [_int_row(items) for items in grouped.values()]


def _eliminate(rows):
    """Sparse-pivot fraction-free elimination of primitive int rows.

    Returns the (pivot column, pivot row) pairs in elimination order, for
    ``_back_substitute``.
    """
    rows = [row for row in rows if row]
    holders = {}  # column -> indices of the active rows that hold it
    for i, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(i)
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    pivots = []
    while heap:
        length, i = heapq.heappop(heap)
        pivot = rows[i]
        if pivot is None or len(pivot) != length:
            continue  # retired, or a stale key of a row that has changed since
        rows[i] = None
        for c in pivot:
            holders[c].discard(i)
        col = min(pivot, key=lambda c: (len(holders[c]), c))
        for j in tuple(holders[col]):
            row = rows[j]
            _reduce(row, pivot, col)
            # only the pivot's columns can enter or leave the row
            for c in pivot:
                if c in row:
                    holders[c].add(j)
                else:
                    holders[c].discard(j)
            if row:
                heapq.heappush(heap, (len(row), j))
            else:
                rows[j] = None
        pivots.append((col, pivot))
    return pivots


def rank(m: ExactMatrix) -> int:
    """Exact rank over the rationals."""
    return len(_eliminate(_int_rows_of_matrix(m)))


class SubspaceBasis:
    """Canonical basis of a subspace of Q^n.

    Construction reduces the given spanning vectors to reduced row-echelon
    form: leading entry 1, strictly increasing pivot indices, and each pivot
    index zero in every other basis vector.  Two spans are equal iff their
    canonical forms match vector-for-vector, which ``span_equal`` checks.
    """

    __slots__ = ("ambient_dim", "vectors", "pivots")

    def __init__(self, ambient_dim, vectors=()):
        if ambient_dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        int_rows = []
        for v in vectors:
            if not isinstance(v, ExactVector):
                raise TypeError("SubspaceBasis takes ExactVector instances")
            if v.n != ambient_dim:
                raise ValueError(
                    f"vector of length {v.n} in ambient dimension {ambient_dim}"
                )
            if v.entries:
                int_rows.append(_int_row(list(v.entries.items())))
        reduced = _back_substitute(_echelon_int(int_rows))
        self.ambient_dim = ambient_dim
        self.pivots = tuple(col for col, _ in reduced)
        self.vectors = tuple(
            ExactVector._raw(
                ambient_dim, {c: exact_quotient(v, row[col]) for c, v in row.items()}
            )
            for col, row in reduced
        )

    @classmethod
    def from_matrices(cls, matrices, shape=None):
        """Span of vectorized matrices (all must share one shape)."""
        matrices = list(matrices)
        if not matrices:
            if shape is None:
                raise ValueError("empty matrix list needs an explicit shape")
            rows, cols = shape
            return cls(rows * cols)
        rows, cols = matrices[0].rows, matrices[0].cols
        for m in matrices:
            if (m.rows, m.cols) != (rows, cols):
                raise ValueError("matrices of mixed shapes")
        return cls(rows * cols, [vectorize(m) for m in matrices])

    @property
    def dim(self):
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __repr__(self):
        return f"SubspaceBasis(ambient={self.ambient_dim}, dim={self.dim})"

    def contains(self, vec: ExactVector) -> bool:
        if vec.n != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        cur = dict(vec.entries)
        for pivot_col, basis_vec in zip(self.pivots, self.vectors):
            coeff = cur.get(pivot_col)
            if not coeff:
                continue
            for c, bv in basis_vec.entries.items():
                nv = cur.get(c, 0) - coeff * bv
                if nv:
                    cur[c] = nv
                else:
                    cur.pop(c, None)
        return not cur


def span_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    """True iff the canonical forms agree vector-for-vector."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: {a.ambient_dim} vs {b.ambient_dim}"
        )
    return a.vectors == b.vectors


def nullspace(m: ExactMatrix) -> SubspaceBasis:
    """Canonical basis of the right kernel {v : m @ v = 0}."""
    reduced = _back_substitute(_eliminate(_int_rows_of_matrix(m)))
    # free column f -> (pivot column, row[f], row[col]) of each row holding it
    pivot_cols = {col for col, _ in reduced}
    columns = {f: [] for f in range(m.cols) if f not in pivot_cols}
    for col, row in reduced:
        pc = row[col]
        for f, v in row.items():
            if f != col:
                columns[f].append((col, v, pc))
    # one integer kernel vector per free unknown: x_f = 1 and
    # x_col = -row[f] / row[col], scaled by the lcm of the pivot coefficients
    basis = []
    for free, terms in columns.items():
        scale = math.lcm(*(pc for _, _, pc in terms))
        ent = {free: scale}
        for col, v, pc in terms:
            ent[col] = -v * (scale // pc)
        basis.append(ExactVector._raw(m.cols, ent))
    return SubspaceBasis(m.cols, basis)
