"""Exact dense linear algebra over a field: rank, kernels, solving, subspaces.

Everything is computed by exact Gaussian elimination; there is no tolerance
anywhere.  Subspaces are kept in reduced row-echelon form, so two equal
subspaces have literally identical basis matrices.

Arrays over a field have one representation per field, chosen here and
nowhere else (``np_modulus`` decides): int64 arrays for GF(p) with p < 2**31,
so that a product of two representatives stays below 2**63, and numpy
``object`` arrays of exact Python ints (GF(p), p >= 2**31) or Fractions (the
rationals) otherwise.  ``field_array`` builds them, ``field_matmul`` is their
one product and ``array_rank``/``rank_reaches`` rank them.  A sum of int64
products can still overflow: ``mod_matmul`` sums at most
floor((2**63 - 1) / (p - 1)**2) products before reducing.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .fields import PrimeField

_NP_CELL_THRESHOLD = 2000  # below this many cells pure Python wins on overhead
_NP_PRIME_BOUND = 2**31


def np_modulus(field):
    """p when GF(p) arithmetic may run on int64 arrays, else None (the rationals
    and primes whose products (p-1)**2 could overflow int64)."""
    if isinstance(field, PrimeField) and field.p < _NP_PRIME_BOUND:
        return field.p
    return None


def field_array(field, data):
    """data (nested lists) as an array over the field: int64 where
    ``np_modulus`` admits the field, ``object`` otherwise."""
    return np.array(data, dtype=np.int64 if np_modulus(field) else object)


def field_reduce(field, A):
    """A with its entries reduced to canonical representatives."""
    return A % field.p if isinstance(field, PrimeField) else A


def field_matmul(field, A, B):
    """The product of two 2-D arrays over the field (see ``field_array``).
    Over the rationals it is fraction-free: each side is scaled to integer
    numerators over one common denominator, and only the nonzero entries of
    the integer product become Fractions."""
    p = np_modulus(field)
    if p is not None:
        return mod_matmul(p, A, B)
    if isinstance(field, PrimeField):
        return A @ B % field.p
    (NA, da), (NB, db) = _numerators(A), _numerators(B)
    den, zero = da * db, field.zero
    return np.array(
        [zero if not n else Fraction(n, den) for n in (NA @ NB).flat], dtype=object
    ).reshape(A.shape[0], B.shape[1])


def _numerators(A):
    """(N, d): an object array of Python ints and a common denominator d
    with A = N / d."""
    d = lcm(*(x.denominator for x in A.flat))
    N = np.array([x.numerator * (d // x.denominator) for x in A.flat], dtype=object)
    return N.reshape(A.shape), d


def mod_matmul(p, A, B):
    """(A @ B) % p for 2-D int64 arrays with entries in [0, p), p < 2**31.

    An entry of A @ B sums at most k products, each at most (p - 1)**2, where
    k is the smaller of the most nonzeros in a row of A and in a column of B.
    When k exceeds floor((2**63 - 1) / (p - 1)**2), the inner dimension is
    cut into pieces of that many summands, each reduced mod p on its own, so
    no int64 sum overflows.
    """
    step = (2**63 - 1) // (p - 1) ** 2
    inner = A.shape[1]
    if inner <= step or _most_products(A, B) <= step:
        return A @ B % p
    acc = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for lo in range(0, inner, step):
        acc += A[:, lo : lo + step] @ B[lo : lo + step] % p
    return acc % p


def _most_products(A, B) -> int:
    """An upper bound on the nonzero products summed in one entry of A @ B."""
    return min(
        np.count_nonzero(A, axis=1).max(initial=0), np.count_nonzero(B, axis=0).max(initial=0)
    )


def _rref_py(field, rows, ncols, reduce_full=True):
    """In-place RREF of a list of row vectors; returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if not field.is_zero(rows[i][c]):
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        rng = range(nrows) if reduce_full else range(r + 1, nrows)
        for i in rng:
            if i != r and not field.is_zero(rows[i][c]):
                f = rows[i][c]
                ri, rr_ = rows[i], rows[r]
                rows[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(ri, rr_)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _rref_np(p, arr, reduce_full=True):
    """numpy RREF mod p; returns (array, pivot columns)."""
    A = arr % p
    m, n = A.shape
    pivots = []
    r = 0
    for c in range(n):
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        inv = pow(int(A[r, c]), -1, p)
        A[r] = A[r] * inv % p
        if reduce_full:
            sel = np.nonzero(A[:, c])[0]
            sel = sel[sel != r]
        else:
            sel = r + 1 + np.nonzero(A[r + 1 :, c])[0]
        if sel.size:
            A[sel] = (A[sel] - np.outer(A[sel, c], A[r])) % p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return A, pivots


def _echelon(field, rows, ncols, rank_only=False):
    """RREF rows (zero rows dropped) and pivot columns of a list of rows.

    With rank_only the rows are only cleared below each pivot and None is
    returned in place of the rows.  Large GF(p) inputs take the numpy path.
    """
    if not rows or ncols == 0:
        return [], []
    p = np_modulus(field)
    if p is not None and len(rows) * ncols >= _NP_CELL_THRESHOLD:
        A, piv = _rref_np(p, np.array(rows, dtype=np.int64), not rank_only)
        return (None if rank_only else A[: len(piv)].tolist()), piv
    out, piv = _rref_py(field, rows, ncols, not rank_only)
    return (None if rank_only else out[: len(piv)]), piv


def array_rank(field, A) -> int:
    """Rank of a 2-D array over the field (see ``field_array``).

    int64 arrays under ``_NP_CELL_THRESHOLD`` cells and ``object`` arrays
    are eliminated as lists, as in ``_echelon``; the array is not modified.
    """
    if A.size == 0:
        return 0
    p = np_modulus(field)
    if p is not None and A.size >= _NP_CELL_THRESHOLD:
        return len(_rref_np(p, A, reduce_full=False)[1])
    return len(_rref_py(field, A.tolist(), A.shape[1], reduce_full=False)[1])


def rank_reaches(field, blocks, ncols, target):
    """Whether the rows of the blocks span a space of dimension >= target.

    Blocks are 2-D arrays over the field (see ``field_array``); int64 blocks
    are consumed and modified, ``object`` blocks are reduced as lists.  Each
    block is reduced against the echelon rows kept so far, then put in
    row-echelon form (cleared below the pivots only) and its nonzero rows are
    kept: every kept row vanishes at the pivots of the rows kept before it,
    so clearing pivots in the order kept is a complete reduction.  The stream
    stops at the first block after which the rank reaches target.
    """
    if target <= 0:
        return True
    p = np_modulus(field)
    echelon, pivots = [], []
    for block in blocks:
        if p is not None:
            for row, c in zip(echelon, pivots):
                sel = np.nonzero(block[:, c])[0]
                if sel.size:
                    block[sel] = (block[sel] - np.outer(block[sel, c], row)) % p
            A, piv = _rref_np(p, block, reduce_full=False)
            echelon.extend(A[: len(piv)].copy())  # no view keeps the whole block alive
        else:
            block = [reduce_by_echelon(field, echelon, pivots, v)[0] for v in block.tolist()]
            rows, piv = _rref_py(field, block, ncols, reduce_full=False)
            echelon.extend(rows[: len(piv)])
        pivots.extend(piv)
        if len(pivots) >= target:
            return True
    return False


def reduce_by_echelon(field, rows, pivots, vec):
    """Clear each pivot coordinate of vec with its echelon row, in order.

    Returns (remainder, multipliers): vec = remainder + sum of multiplier * row.
    """
    v = list(vec)
    coords = []
    for row, pc in zip(rows, pivots):
        c = v[pc]
        coords.append(c)
        if not field.is_zero(c):
            v = [field.sub(a, field.mul(c, b)) for a, b in zip(v, row)]
    return v, coords


class Matrix:
    """Dense matrix over an exact field; entries stored as a list of rows."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, entries, cols=None):
        self.field = field
        self.entries = [list(r) for r in entries]
        self.rows = len(self.entries)
        if self.rows:
            self.cols = len(self.entries[0])
            for r in self.entries:
                if len(r) != self.cols:
                    raise ValueError("ragged rows")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            self.cols = cols

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero
        return cls(field, [[z] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.entries[i][i] = field.one
        return m

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def mul_vec(self, vec):
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        f = self.field
        return [
            _dot(f, row, vec)
            for row in self.entries
        ]

    def rank(self) -> int:
        return len(_echelon(self.field, self.entries, self.cols, rank_only=True)[1])

    def rref(self):
        """Returns (rref rows without zero rows, pivot column list)."""
        return _echelon(self.field, self.entries, self.cols)

    def kernel_basis(self) -> "Subspace":
        """Canonical basis of the right kernel {v : self @ v = 0}."""
        f = self.field
        n = self.cols
        rows, piv = self.rref()
        free = [c for c in range(n) if c not in set(piv)]
        vecs = []
        for c in free:
            v = [f.zero] * n
            v[c] = f.one
            for row, pc in zip(rows, piv):
                v[pc] = f.neg(row[c])
            vecs.append(v)
        return Subspace.from_vectors(f, n, vecs)

    def solve(self, rhs):
        """Some x with self @ x = rhs, or None when inconsistent."""
        if len(rhs) != self.rows:
            raise ValueError("shape mismatch")
        f = self.field
        aug = Matrix(f, [row + [b] for row, b in zip(self.entries, rhs)], cols=self.cols + 1)
        if self.rows == 0:
            return [f.zero] * self.cols
        rows, piv = aug.rref()
        x = [f.zero] * self.cols
        for row, pc in zip(rows, piv):
            if pc == self.cols:
                return None  # pivot in the augmented column: inconsistent
            x[pc] = row[self.cols]
        return x

    def left_inverse(self) -> "Matrix":
        """A left inverse L (L @ self = I), read off the RREF of [self | I];
        the columns must be independent (ValueError otherwise)."""
        f = self.field
        n, m = self.rows, self.cols
        eye = Matrix.identity(f, n).entries
        rows, piv = Matrix(f, [row + e for row, e in zip(self.entries, eye)], cols=m + n).rref()
        if piv[:m] != list(range(m)):
            raise ValueError("columns are linearly dependent")
        return Matrix(f, [row[m:] for row in rows[:m]], cols=n)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.entries == self.entries
            and other.cols == self.cols
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"


def _dot(field, row, vec):
    acc = field.zero
    for a, b in zip(row, vec):
        if not (field.is_zero(a) or field.is_zero(b)):
            acc = field.add(acc, field.mul(a, b))
    return acc


def rref_trailing(field, rows, ncols):
    """Echelon form pivoting on the *last* nonzero coordinate of each row.

    Equivalent to ordinary RREF after reversing the coordinate order.  Used to
    pick quotient complements that discard the last basis labels (so e.g. a
    quotient by x1+...+x5 eliminates x5 and keeps x1..x4).
    Returns (rows, pivot columns), both in the original orientation.
    """
    rr, piv = _echelon(field, [r[::-1] for r in rows], ncols)
    return [r[::-1] for r in rr], [ncols - 1 - c for c in piv]


class Subspace:
    """A subspace of field^ambient with a canonical (RREF) basis."""

    __slots__ = ("field", "ambient", "basis")

    def __init__(self, field, ambient, canonical_rows):
        self.field = field
        self.ambient = ambient
        self.basis = tuple(tuple(r) for r in canonical_rows)

    @classmethod
    def from_vectors(cls, field, ambient, vectors) -> "Subspace":
        for v in vectors:
            if len(v) != ambient:
                raise ValueError("vector length does not match ambient dimension")
        rows = Matrix(field, list(vectors), cols=ambient).rref()[0] if vectors else []
        return cls(field, ambient, rows)

    @classmethod
    def zero(cls, field, ambient) -> "Subspace":
        return cls(field, ambient, [])

    @classmethod
    def full(cls, field, ambient) -> "Subspace":
        return cls.from_vectors(field, ambient, Matrix.identity(field, ambient).entries)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def contains(self, vec) -> bool:
        return self.reduce(vec) is not None

    @property
    def pivots(self):
        f = self.field
        return [next(j for j, x in enumerate(row) if not f.is_zero(x)) for row in self.basis]

    def reduce(self, vec):
        """Coordinates of vec in the canonical basis, or None if outside."""
        v, coords = reduce_by_echelon(self.field, self.basis, self.pivots, vec)
        if any(not self.field.is_zero(x) for x in v):
            return None
        return coords

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.from_vectors(self.field, self.ambient, list(self.basis) + list(other.basis))

    def intersection(self, other: "Subspace") -> "Subspace":
        """Exact intersection via the kernel of [A^t | -B^t]."""
        self._check(other)
        f = self.field
        a, b = self.dim, other.dim
        if a == 0 or b == 0:
            return Subspace.zero(f, self.ambient)
        m = Matrix(
            f,
            [
                [self.basis[j][i] for j in range(a)]
                + [f.neg(other.basis[j][i]) for j in range(b)]
                for i in range(self.ambient)
            ],
            cols=a + b,
        )
        ker = m.kernel_basis()
        vecs = []
        for kv in ker.basis:
            v = [f.zero] * self.ambient
            for j in range(a):
                if not f.is_zero(kv[j]):
                    v = [f.add(x, f.mul(kv[j], y)) for x, y in zip(v, self.basis[j])]
            vecs.append(v)
        return Subspace.from_vectors(f, self.ambient, vecs)

    def _check(self, other):
        if self.ambient != other.ambient or self.field != other.field:
            raise ValueError("ambient dimension or field mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and other.field == self.field
            and other.ambient == self.ambient
            and other.basis == self.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"
