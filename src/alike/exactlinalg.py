"""Exact linear algebra over the rationals.

Sparse vectors and matrices with exact rational entries, Kronecker
products, fraction-free elimination, and canonical reduced-echelon bases
for comparing subspaces exactly.  Entries are ``int`` or
``fractions.Fraction``: constructors and the elimination routines store an
integral value as an ``int``, so integer matrices never pay for ``Fraction``
arithmetic.  (Arithmetic on ``Fraction`` entries may still leave an integral
``Fraction``, which compares, hashes and prints like the ``int``.)  No
floating point anywhere: a float entry is a ``TypeError``.  Values are
treated as immutable: every operation returns a new object, so instances
are safe to share across threads.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

_ZERO = 0
_ONE = 1


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


def _merge(a, b, op):
    """Entry dict of op(a, b), op being operator.add or operator.sub.

    Both dicts hold nonzero entries only; cancelled entries are dropped.
    """
    out = dict(a)
    get = out.get
    for key, v in b.items():
        s = op(get(key, _ZERO), v)
        if s:
            out[key] = s
        else:
            del out[key]
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

    @classmethod
    def from_list(cls, values):
        return cls(len(values), enumerate(values))

    def __getitem__(self, i):
        if not 0 <= i < self.n:
            raise IndexError(i)
        return self.entries.get(i, _ZERO)

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

    def is_zero(self):
        return not self.entries

    def leading_index(self):
        return min(self.entries) if self.entries else None

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
        return ExactVector._raw(self.n, {i: v * c for i, v in self.entries.items()})

    def inner(self, other):
        """Standard bilinear form <u, v> = sum_i u_i v_i."""
        if not isinstance(other, ExactVector):
            raise TypeError("inner product needs two ExactVector operands")
        if self.n != other.n:
            raise ValueError("vector length mismatch")
        a, b = self.entries, other.entries
        if len(b) < len(a):
            a, b = b, a
        total = _ZERO
        for i, v in a.items():
            w = b.get(i)
            if w is not None:
                total += v * w
        return total


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
        return cls._raw(n, n, {(i, i): _ONE for i in range(n)})

    @classmethod
    def zeros(cls, rows, cols=None):
        return cls._raw(rows, rows if cols is None else cols, {})

    @classmethod
    def ones(cls, rows, cols=None):
        cols = rows if cols is None else cols
        return cls._raw(rows, cols, {(r, c): _ONE for r in range(rows) for c in range(cols)})

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
        return self.entries.get((r, c), _ZERO)

    def to_rows(self):
        out = [[_ZERO] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def sorted_items(self):
        return sorted(self.entries.items())

    @property
    def nnz(self):
        return len(self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

    def is_zero(self):
        return not self.entries

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
        return ExactMatrix._raw(
            self.rows, self.cols, {k: v * c for k, v in self.entries.items()}
        )

    def _diagonal_values(self):
        # None unless strictly diagonal; cheap pre-gate on nnz keeps this O(n)
        if self.rows != self.cols or len(self.entries) > self.rows:
            return None
        vals = {}
        for (r, c), v in self.entries.items():
            if r != c:
                return None
            vals[r] = v
        return vals

    def __matmul__(self, other):
        if isinstance(other, ExactVector):
            return self.matvec(other)
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"matrix dimension mismatch in product: {self.rows}x{self.cols} @ "
                f"{other.rows}x{other.cols}"
            )
        diag = self._diagonal_values()
        if diag is not None:
            ent = {}
            for (r, c), v in other.entries.items():
                dv = diag.get(r)
                if dv is None:
                    continue
                # unit scaling dominates in practice; skip the gcd work
                ent[(r, c)] = v if dv == 1 else -v if dv == -1 else dv * v
            return ExactMatrix._raw(self.rows, other.cols, ent)
        diag = other._diagonal_values()
        if diag is not None:
            ent = {}
            for (r, c), v in self.entries.items():
                dv = diag.get(c)
                if dv is None:
                    continue
                ent[(r, c)] = v if dv == 1 else -v if dv == -1 else v * dv
            return ExactMatrix._raw(self.rows, other.cols, ent)
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
        return ExactMatrix._raw(self.rows, other.cols, acc)

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
        return ExactVector._raw(self.rows, acc)

    def transpose(self):
        return ExactMatrix._raw(
            self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace needs a square matrix")
        total = _ZERO
        for (r, c), v in self.entries.items():
            if r == c:
                total += v
        return total

    def is_symmetric(self):
        return self.rows == self.cols and all(
            self.entries.get((c, r)) == v for (r, c), v in self.entries.items()
        )

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
    return ExactMatrix._raw(a.rows * b.rows, a.cols * b.cols, ent)


def kron_vec(a: ExactVector, b: ExactVector) -> ExactVector:
    """Kronecker product of vectors; index pairing matches :func:`kron`."""
    ent = {}
    an = a.n
    for ia, va in a.entries.items():
        for ib, vb in b.entries.items():
            ent[ia + ib * an] = va * vb
    return ExactVector._raw(a.n * b.n, ent)


def commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """a @ b - b @ a."""
    return a @ b - b @ a


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
# Rows are dicts mapping column -> int, kept primitive (gcd 1).  Pivoting is
# deterministic: first nonzero in column order.  Row combinations use integer
# cross-multiplication (pc * row - rc * pivot), so no fractions appear until
# the final normalization to leading-1 reduced echelon form.


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


def _combine(pivot, pc, row, rc):
    out = {}
    for c, v in row.items():
        pv = pivot.get(c)
        nv = pc * v - rc * pv if pv is not None else pc * v
        if nv:
            out[c] = nv
    for c, pv in pivot.items():
        if c not in row:
            out[c] = -rc * pv
    if not out:
        return out
    g = 0
    for v in out.values():
        g = math.gcd(g, v)
        if g == 1:
            return out
    if g > 1:
        for c in out:
            out[c] //= g
    return out


def _echelon_int(rows, ncols):
    rows = [r for r in rows if r]
    piv_cols = []
    piv = 0
    for col in range(ncols):
        hit = None
        for i in range(piv, len(rows)):
            if col in rows[i]:
                hit = i
                break
        if hit is None:
            continue
        rows[piv], rows[hit] = rows[hit], rows[piv]
        pivot = rows[piv]
        pc = pivot[col]
        for i in range(piv + 1, len(rows)):
            rc = rows[i].get(col)
            if rc:
                rows[i] = _combine(pivot, pc, rows[i], rc)
        piv_cols.append(col)
        piv += 1
        if piv == len(rows):
            break
    return piv_cols, rows[:piv]


def _rref_int(rows, ncols):
    piv_cols, rows = _echelon_int(rows, ncols)
    for idx in range(len(piv_cols) - 1, -1, -1):
        col = piv_cols[idx]
        pivot = rows[idx]
        pc = pivot[col]
        for j in range(idx):
            rc = rows[j].get(col)
            if rc:
                rows[j] = _combine(pivot, pc, rows[j], rc)
    return piv_cols, rows


def _int_rows_of_matrix(m):
    grouped = {}
    for (r, c), v in m.entries.items():
        grouped.setdefault(r, []).append((c, v))
    return [_int_row(items) for items in grouped.values()]


def rank(m: ExactMatrix) -> int:
    """Exact rank over the rationals."""
    piv_cols, _ = _echelon_int(_int_rows_of_matrix(m), m.cols)
    return len(piv_cols)


class SubspaceBasis:
    """Canonical basis of a subspace of Q^n.

    Construction reduces the given spanning vectors to reduced row-echelon
    form: leading entry 1, strictly increasing pivot indices, and each pivot
    index zero in every other basis vector.  Two spans are equal iff their
    canonical forms match vector-for-vector.
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
        piv_cols, rows = _rref_int(int_rows, ambient_dim)
        self.ambient_dim = ambient_dim
        self.pivots = tuple(piv_cols)
        self.vectors = tuple(
            ExactVector._raw(
                ambient_dim, {c: exact_quotient(v, row[pc]) for c, v in row.items()}
            )
            for pc, row in zip(piv_cols, rows)
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

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __eq__(self, other):
        return (
            isinstance(other, SubspaceBasis)
            and self.ambient_dim == other.ambient_dim
            and self.vectors == other.vectors
        )

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
                nv = cur.get(c, _ZERO) - coeff * bv
                if nv:
                    cur[c] = nv
                else:
                    cur.pop(c, None)
        return not cur

    def contains_matrix(self, m: ExactMatrix) -> bool:
        return self.contains(vectorize(m))


def span_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    """True iff the canonical forms agree vector-for-vector."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: {a.ambient_dim} vs {b.ambient_dim}"
        )
    return a.vectors == b.vectors


def nullspace(m: ExactMatrix) -> SubspaceBasis:
    """Canonical basis of the right kernel {v : m @ v = 0}."""
    piv_cols, rows = _rref_int(_int_rows_of_matrix(m), m.cols)
    pivset = set(piv_cols)
    frac_rows = [
        {c: exact_quotient(v, row[pc]) for c, v in row.items()}
        for pc, row in zip(piv_cols, rows)
    ]
    basis = []
    for free in range(m.cols):
        if free in pivset:
            continue
        ent = {free: _ONE}
        for pc, row in zip(piv_cols, frac_rows):
            coeff = row.get(free)
            if coeff:
                ent[pc] = -coeff
        basis.append(ExactVector._raw(m.cols, ent))
    return SubspaceBasis(m.cols, basis)
