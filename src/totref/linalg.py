"""Exact dense linear algebra over a field: rank, kernels, solving, subspaces.

Everything is computed by exact Gaussian elimination; there is no tolerance
anywhere.  Subspaces are kept in reduced row-echelon form, so two equal
subspaces have literally identical basis matrices.

Arrays over a field have one representation per field, chosen here and
nowhere else (``np_modulus`` decides): int64 arrays for GF(p) with p < 2**31,
so that a product of two representatives stays below 2**63, and numpy
``object`` arrays of exact Python ints (GF(p), p >= 2**31) or Fractions (the
rationals) otherwise.  ``field_array`` builds them, ``field_matmul`` is their
one product and ``rref``/``array_rank``/``rank_reaches`` eliminate them;
``Matrix`` and ``Subspace`` hold them.  A sum of int64 products can still
overflow: ``mod_matmul`` sums at most floor((2**63 - 1) / (p - 1)**2)
products before reducing.

Size alone decides how an array is eliminated: under ``_NP_CELL_THRESHOLD``
cells as a list of rows (``_rref_py``), where numpy's per-call overhead
dominates, and otherwise as the array itself (``_rref_array``), whatever the
field.

Over the rationals a rank is first taken modulo one check prime p
(``DEFAULT_PRIME``, so on int64; ``rank_bound``).  Write A = N / d with N an
integer array over one common denominator d.  A minor of N that is nonzero
mod p is a nonzero integer, so rank_Q(A) = rank_Q(N) >= rank_p(N mod p),
whatever p and d are; since rank_Q(A) <= min(rows, cols), a mod-p rank of
min(rows, cols) is the exact rank.  Otherwise (A is rank-deficient, or p
divides every maximal minor of N, as it may when p divides an entry or a
denominator of A) ``array_rank`` eliminates A exactly in Fractions: an
unlucky prime costs time, never a wrong rank.  ``rank_bound`` hands the
lower bound itself to callers that can certify it otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import attrgetter

import numpy as np

from .fields import DEFAULT_PRIME, PrimeField, RationalField

# below this many cells list elimination wins on numpy's per-call overhead (an
# 8x8 rank: about 100 us as lists, 185 us as an array); from about 12x12 on
# the array wins on every field
_NP_CELL_THRESHOLD = 100
_NP_PRIME_BOUND = 2**31
# the modulus of the rational rank bound in ``rank_bound``
_CHECK_FIELD = PrimeField(DEFAULT_PRIME)


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


def field_zeros(field, shape):
    """The zero array of a shape over the field (see ``field_array``)."""
    return np.full(shape, field.zero, dtype=np.int64 if np_modulus(field) else object)


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
    den = _DENOMINATORS(A)
    d = lcm(*set(den.flat))
    N = _NUMERATORS(A)
    return (N if d == 1 else N * (d // den)), d


_NUMERATORS = np.frompyfunc(attrgetter("numerator"), 1, 1)
_DENOMINATORS = np.frompyfunc(attrgetter("denominator"), 1, 1)


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


def _rref_array(field, A, reduce_full=True):
    """In-place RREF of a 2-D array over the field (canonical entries), int64
    or ``object`` alike; returns (A, pivot columns)."""
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
        A[r] = field_reduce(field, A[r] * field.inv(A[r, c]))
        if reduce_full:
            sel = np.nonzero(A[:, c])[0]
            sel = sel[sel != r]
        else:
            sel = r + 1 + np.nonzero(A[r + 1 :, c])[0]
        if sel.size:
            A[sel] = field_reduce(field, A[sel] - np.outer(A[sel, c], A[r]))
        pivots.append(c)
        r += 1
        if r == m:
            break
    return A, pivots


def rref(field, A):
    """(rows, pivots): the nonzero rows of the RREF of a 2-D array over the
    field, as an array, and their pivot columns.  Arrays under
    ``_NP_CELL_THRESHOLD`` cells are eliminated as lists; A is not modified."""
    if A.size >= _NP_CELL_THRESHOLD:
        R, piv = _rref_array(field, A.copy())
        return R[: len(piv)], piv
    rows, piv = _rref_py(field, A.tolist(), A.shape[1])
    return field_array(field, rows[: len(piv)]).reshape(len(piv), A.shape[1]), piv


def rank_bound(field, A):
    """(r, exact): a lower bound r on the rank of a 2-D array over the field,
    equal to the rank when exact; A is not modified.  Over the rationals r is
    the rank mod the check prime (see the module docstring), exact when it
    is min(rows, cols); over GF(p) it is the rank."""
    if isinstance(field, RationalField):
        r = _elimination_rank(_CHECK_FIELD, (_numerators(A)[0] % _CHECK_FIELD.p).astype(np.int64))
        return r, r == min(A.shape)
    return _elimination_rank(field, A), True


def array_rank(field, A) -> int:
    """Rank of a 2-D array over the field (see ``field_array``); A is not
    modified.  Over the rationals a full rank is certified by one rank mod
    the check prime (``rank_bound``); any other is eliminated exactly."""
    r, exact = rank_bound(field, A)
    return r if exact else _elimination_rank(field, A)


def _elimination_rank(field, A) -> int:
    """Rank by elimination below the pivots only, by size as in ``rref``."""
    if A.size >= _NP_CELL_THRESHOLD:
        return len(_rref_array(field, A.copy(), reduce_full=False)[1])
    return len(_rref_py(field, A.tolist(), A.shape[1], reduce_full=False)[1])


def rank_reaches(field, blocks, target):
    """Whether the rows of the blocks span a space of dimension >= target.

    Blocks are 2-D arrays over the field (see ``field_array``); they are
    consumed and modified.  Each block is reduced against the echelon rows
    kept so far, then put in row-echelon form (cleared below the pivots only)
    and its nonzero rows are kept: every kept row vanishes at the pivots of
    the rows kept before it, so clearing pivots in the order kept is a
    complete reduction.  The stream stops at the first block after which the
    rank reaches target.
    """
    if target <= 0:
        return True
    echelon, pivots = [], []
    for block in blocks:
        for row, c in zip(echelon, pivots):
            sel = np.nonzero(block[:, c])[0]
            if sel.size:
                block[sel] = field_reduce(field, block[sel] - np.outer(block[sel, c], row))
        A, piv = _rref_array(field, block, reduce_full=False)
        echelon.extend(A[: len(piv)].copy())  # no view keeps the whole block alive
        pivots.extend(piv)
        if len(pivots) >= target:
            return True
    return False


def reduce_rref(field, rows, pivots, V):
    """The rows of V with every pivot coordinate cleared by the RREF rows:
    V - V[:, pivots] rows, one product.  RREF rows vanish at each other's
    pivots, so this equals clearing the pivots one row at a time."""
    return field_reduce(field, V - field_matmul(field, V[:, pivots], rows))


def rref_trailing(field, A):
    """Echelon form pivoting on the *last* nonzero coordinate of each row.

    Equivalent to ordinary RREF after reversing the coordinate order.  Used to
    pick quotient complements that discard the last basis labels (so e.g. a
    quotient by x1+...+x5 eliminates x5 and keeps x1..x4).
    Returns (rows, pivot columns), both in the original orientation.
    """
    n = A.shape[1]
    R, piv = rref(field, A[:, ::-1])
    return R[:, ::-1], [n - 1 - c for c in piv]


def quotient_projection(field, A):
    """(keep, P) for the quotient of field^n by the row span of A.

    keep lists the coordinates not pivoted on by ``rref_trailing``; they index
    the quotient basis.  The class of a row vector v has coordinates v P,
    where P is n x len(keep) with P[keep] = I and P[pivots] = -rows[:, keep].
    """
    rows, piv = rref_trailing(field, A)
    pivset = set(piv)
    keep = [c for c in range(A.shape[1]) if c not in pivset]
    P = field_zeros(field, (A.shape[1], len(keep)))
    P[keep, range(len(keep))] = field.one
    P[piv] = field_reduce(field, -rows[:, keep])
    return keep, P


class Matrix:
    """Dense matrix over an exact field, held as one array over the field
    (see ``field_array``); ``entries`` is its list view."""

    __slots__ = ("field", "array", "rows", "cols")

    def __init__(self, field, entries, cols=None):
        """entries: a 2-D array over the field, or a list of rows (an empty
        list needs the column count)."""
        self.field = field
        if not isinstance(entries, np.ndarray):
            rows = [list(r) for r in entries]
            if not rows and cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            width = len(rows[0]) if rows else cols
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            entries = field_array(field, rows).reshape(len(rows), width)
        self.array = entries
        self.rows, self.cols = entries.shape

    @property
    def entries(self):
        return self.array.tolist()

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, field_zeros(field, (rows, cols)))

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        m.array[range(n), range(n)] = field.one
        return m

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.array.T)

    def rank(self) -> int:
        return array_rank(self.field, self.array)

    def rref(self):
        """Returns (rref rows without zero rows, as an array; pivot column list)."""
        return rref(self.field, self.array)

    def kernel_basis(self) -> "Subspace":
        """Canonical basis of the right kernel {v : self @ v = 0}."""
        f = self.field
        R, piv = self.rref()
        pivset = set(piv)
        free = [c for c in range(self.cols) if c not in pivset]
        K = field_zeros(f, (len(free), self.cols))
        K[range(len(free)), free] = f.one
        K[:, piv] = field_reduce(f, -R[:, free].T)
        return Subspace.from_vectors(f, self.cols, K)

    def solve(self, rhs):
        """Some x with self @ x = rhs, or None when inconsistent."""
        if len(rhs) != self.rows:
            raise ValueError("shape mismatch")
        f = self.field
        if self.rows == 0:
            return [f.zero] * self.cols
        b = field_array(f, list(rhs)).reshape(self.rows, 1)
        R, piv = rref(f, np.hstack([self.array, b]))
        if piv and piv[-1] == self.cols:
            return None  # pivot in the augmented column: inconsistent
        x = field_zeros(f, self.cols)
        x[piv] = R[:, self.cols]
        return x.tolist()

    def left_inverse(self) -> "Matrix":
        """A left inverse L (L @ self = I), read off the RREF of [self | I];
        the columns must be independent (ValueError otherwise)."""
        f = self.field
        n, m = self.rows, self.cols
        R, piv = rref(f, np.hstack([self.array, Matrix.identity(f, n).array]))
        if piv[:m] != list(range(m)):
            raise ValueError("columns are linearly dependent")
        return Matrix(f, R[:m, m:])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.cols == self.cols
            and other.entries == self.entries
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"


class Subspace:
    """A subspace of field^ambient with a canonical (RREF) basis: the array
    ``rows`` with pivot columns ``pivots``; ``basis`` is its tuple view, which
    equality and hashing use."""

    __slots__ = ("field", "ambient", "rows", "pivots", "basis")

    def __init__(self, field, ambient, rows, pivots):
        self.field = field
        self.ambient = ambient
        self.rows = rows
        self.pivots = list(pivots)
        self.basis = tuple(map(tuple, rows.tolist()))

    @classmethod
    def from_vectors(cls, field, ambient, vectors) -> "Subspace":
        """The span of vectors: a 2-D array over the field or a list of rows."""
        if not isinstance(vectors, np.ndarray):
            if any(len(v) != ambient for v in vectors):
                raise ValueError("vector length does not match ambient dimension")
            vectors = Matrix(field, vectors, cols=ambient).array
        elif vectors.shape[1] != ambient:
            raise ValueError("vector length does not match ambient dimension")
        return cls(field, ambient, *rref(field, vectors))

    @classmethod
    def zero(cls, field, ambient) -> "Subspace":
        return cls(field, ambient, field_zeros(field, (0, ambient)), [])

    @classmethod
    def full(cls, field, ambient) -> "Subspace":
        return cls(field, ambient, Matrix.identity(field, ambient).array, range(ambient))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_zero(self) -> bool:
        return not self.pivots

    def contains(self, vec) -> bool:
        return self.reduce(vec) is not None

    def reduce(self, vec):
        """Coordinates of vec in the canonical basis, or None if outside."""
        f = self.field
        v = field_array(f, [list(vec)])
        if np.count_nonzero(reduce_rref(f, self.rows, self.pivots, v)):
            return None
        return v[0, self.pivots].tolist()

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.from_vectors(self.field, self.ambient, np.vstack([self.rows, other.rows]))

    def intersection(self, other: "Subspace") -> "Subspace":
        """Exact intersection via the kernel of [A^t | -B^t]."""
        self._check(other)
        f = self.field
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(f, self.ambient)
        ker = Matrix(f, np.hstack([self.rows.T, field_reduce(f, -other.rows.T)])).kernel_basis()
        return Subspace.from_vectors(
            f, self.ambient, field_matmul(f, ker.rows[:, : self.dim], self.rows)
        )

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
