"""Exact linear algebra over a field: rank, kernels, solving, subspaces.

Everything is computed by exact Gaussian elimination; there is no tolerance
anywhere.  Subspaces are kept in reduced row-echelon form, so two equal
subspaces have literally identical basis matrices.

Arrays over a field have one representation per field, chosen here and
nowhere else (``np_modulus`` decides): int64 arrays for GF(p) with p < 2**31,
so that a product of two representatives stays below 2**63, and numpy
``object`` arrays of exact Python ints (GF(p), p >= 2**31) or Fractions (the
rationals) otherwise.  A matrix over the field is such an array, with no
wrapper: ``field_array`` and ``identity`` build them, ``field_stack``
stacks them (padded with zeros to one shape), ``field_matmul`` is their one
product (of two matrices, or of each pair of two stacks with a leading
batch axis; ``scaled_matmul`` gives it over one scale, see below),
``rref``/``array_rank`` eliminate them, ``kernel_basis`` and
``left_inverse`` are read off one RREF, and ``solve`` off one elimination
(an RREF, or below the pivots only and back-substituted).  ``Subspace``
keeps its basis as one.  A sum of int64 products can still overflow:
``mod_matmul`` sums at most floor((2**63 - 1) / (p - 1)**2) products before
reducing.

One choice (``_echelon``, by ``_on_array``) decides how ``rref``, ``solve``
and every rank eliminate, by what each elimination pays for:
- a GF(p) array under ``_NP_CELL_THRESHOLD`` cells, where a dict per row
  costs more than a list of a few entries, and every exact rational
  elimination run as a list of int rows (``_rref_int``);
- any larger GF(p) array, int64 or ``object``, as sparse rows
  (``_rref_sparse``), which pay for their nonzero entries only.  The rings'
  tables and maps are sparse: in the Stanley-Reisner ring of a graph a
  product of monomials is a monomial, and the quotient maps and their RREFs
  keep them sparse (K_{2,22}'s (1, 1) table has 82 nonzeros in 10,164
  cells).  The few with a quarter of their cells or more nonzero are
  small (17 x 31 and 4 x 126 the largest the CLI meets), and on each
  benchmark workload sparse rows eliminated them in less time in all than
  a numpy step per pivot column did; Python ints also beat numpy's
  ``object`` arithmetic on any array.
``_stacked_ranks`` is the one elimination outside this choice (below): the
stacks it ranks are dense (the ``lift-chain`` benchmark's are 53% nonzero,
and ranked as sparse rows they took 3.8 times as long).

Over the rationals nothing is eliminated in Fractions.  A rational array A is
N / d, N an integer array over one common denominator d (its integer form).
``rref`` and exact ranks scale each row, over the lcm of its own
denominators (``_integer_rows``), to a primitive integer row, which keeps
the row space, and eliminate fraction-free (``_rref_int``): a row
operation replaces a row by the primitive part of an integer combination, so
entries stay integers and their contents are divided out as they appear.
Fractions are built only for what leaves this module: the RREF rows (each
fraction-free row over its pivot entry; the RREF is unique) and the nonzero
entries of a product (``field_matmul`` multiplies the integer forms, each
matrix of a stack over its own common denominator, never one for the
stack: entry sizes within one stack may differ by hundreds of bits).
``scaled_matmul`` builds none: it returns the integer product with its
scale, (N, d_A d_B), for a caller that only tests, ranks or solves the
product (a factory window's induced maps and side maps).  An owner
freezes an array it keeps for its lifetime (``freeze``: tables,
projections); the integer form and check image of a frozen array are
computed once and dropped with the array.

A rational rank is first taken modulo one check prime p (``DEFAULT_PRIME``,
so on int64; ``rank_bound``) from the check image N mod p.  A minor of N
that is nonzero mod p is a nonzero integer, so rank_Q(A) = rank_Q(N) >=
rank_p(N mod p), whatever p and d are; since rank_Q(A) <= min(rows, cols), a
mod-p rank of min(rows, cols) is the exact rank.  Otherwise (A is
rank-deficient, or p divides every maximal minor of N, as it may when p
divides an entry or a denominator of A) ``array_rank`` eliminates N exactly:
an unlucky prime costs time, never a wrong rank.  The bound of a product
A @ B is read off the product of the factors' images (``image_matmul``):
N_A N_B = d_A d_B (A @ B), so the same argument holds without assembling
A @ B in Fractions.  ``rank_bound`` hands the lower bound itself to callers
that can certify it otherwise.

``_rref_sparse`` keeps rows as dicts from column to nonzero entry and one
row per leading column, each new row cleared by the kept ones as it
arrives; the RREF then clears each kept row at the later pivots, last
pivot first.  ``_echelon`` hands it an array's rows shortest first: the
result does not depend on the order (the RREF is unique, and so are the
pivot columns of any echelon form), and short rows kept early fill in
less.  The 54 ``object`` blocks that ``verify --degree-bound 4`` ranks for
the two-step lift of the ten-vertex window at p = 4294967311 took 1.1 s
in the order of their rows and 0.25 s shortest first (2-vCPU host).
``rank_reaches`` is the same elimination of a stream of sparse rows,
stopped once it reaches a target rank; over the rationals its rows are
primitive integer rows, cleared fraction-free.

``rank_bounds`` gives the bounds of many images at once, as a window's
exactness check needs them: the int64 images of one shape (GF(p) with
p < 2**31, and the rational check images mod the check prime) are ranked by
one elimination of the stack (k, m, n) (``_stacked_ranks``), a column at a
time with one pivot row per matrix, cleared below the pivots only.  A pivot
row v is made monic with one Python inverse per matrix and clears a row u
with entry b as u - b * v, b and v reduced mod p, so each product is at most
(p - 1)**2 < 2**62; the stack is reduced mod p once every
floor((2**63 - 1) / (p - 1)**2) such updates, the bound of ``mod_matmul``,
so no sum overflows.  A shape with one image, a group of fewer than
``_NP_CELL_THRESHOLD`` cells in all (tiny blocks, where the stack's numpy
calls cost more than the lists) and ``object`` images (p >= 2**31) are
ranked one at a time by ``rank_bound``.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

import numpy as np

from .fields import DEFAULT_PRIME, PrimeField, RationalField

# below this many cells a GF(p) elimination runs on lists of int rows: an 8x8
# rank on 2 vCPUs took 107 us as lists and 147 us as sparse rows when dense,
# 77 and 79 us when 30% nonzero; a 16x16 one 30% nonzero 188 and 151 us
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


def field_stack(field, arrays, shape):
    """The arrays as one stack (len(arrays),) + shape over the field, each in
    the leading corner of a zero array of that shape (padded with zeros)."""
    S = field_zeros(field, (len(arrays),) + tuple(shape))
    for k, A in enumerate(arrays):
        S[(k,) + tuple(map(slice, A.shape))] = A
    return S


def field_matmul(field, A, B):
    """The product of two 2-D arrays over the field (see ``field_array``), or
    of each pair of two stacks (k, m, n) and (k, n, l) with a leading batch
    axis.  Over the rationals it is fraction-free: the integer forms of the
    two sides are multiplied, each matrix of a stack over its own common
    denominator, and only the nonzero entries of the integer product become
    Fractions."""
    p = np_modulus(field)
    if p is not None:
        return mod_matmul(p, A, B)
    if isinstance(field, PrimeField):
        return A @ B % field.p
    if A.ndim == 2:
        (NA, da), (NB, db) = _integer_form(A), _integer_form(B)
        return _fractions(field, NA @ NB, da * db)
    (NA, da), (NB, db) = _stack_forms(A), _stack_forms(B)
    return _stack_fractions(field, NA @ NB, [a * b for a, b in zip(da, db)])


def scaled_matmul(field, A, B):
    """(N, s) with A @ B = N / s, for two 2-D arrays over the field: over the
    rationals the product of their integer forms (kept for a frozen array,
    ``freeze``) and s = d_A d_B, so no Fraction is built; over GF(p) the
    product itself and s = 1.  An array of Python ints is a rational array
    over d = 1, so N can be a factor of the next such product, and of
    ``array_rank`` and ``solve``: scaling a matrix by s != 0 keeps its rank,
    and A X = s B has the solutions of (A / s) X = B."""
    if isinstance(field, RationalField):
        (NA, da), (NB, db) = _integer_form(A), _integer_form(B)
        return NA @ NB, da * db
    return field_matmul(field, A, B), 1


def _fractions(field, N, den):
    """The rational array N / den of an integer array N: only its nonzero
    entries become new Fractions."""
    zero = field.zero
    return np.array(
        [zero if not n else Fraction(n, den) for n in N.flat], dtype=object
    ).reshape(N.shape)


def _stack_fractions(field, N, dens):
    """The rational stack N[k] / dens[k] (``_fractions`` of each matrix)."""
    out = np.empty(N.shape, dtype=object)
    for k, den in enumerate(dens):
        out[k] = _fractions(field, N[k], den)
    return out


def structure_product(field, A, T, B):
    """The array P[r, c, k] = sum over m, i, j of A[r, m, i] B[m, c, j]
    T[i, j, k] over the field: the product of two matrices whose entries
    are vectors (A[r, m, :] and B[m, c, :]) of an algebra with structure
    constants T[i, j, :].  A and B may also be stacks, arrays with a leading
    batch axis (A[s, r, m, :] and B[s, m, c, :]) or lists of arrays of one
    shape; P[s] is then the product of each pair.  It takes two array
    products whatever the stack, in the order that is faster for the
    representation.  On int64 arrays the sum over m comes first,
    Z[s, (r, i), (c, j)] = sum over m of A[s, r, m, i] B[s, m, c, j], then
    Z times the table T[(i, j), k]: the first sums one product per column
    of A, and the table's columns are sparse, so ``mod_matmul`` rarely
    splits either sum.  On ``object`` arrays X = A T comes first, the rows
    of every A in one product with the table's small entries, then each
    X[s] times B[s].  Over the rationals both run on the integer forms, each
    matrix of the stack over its own common denominator (kept for a frozen
    array: ``freeze``), and only P becomes Fractions."""
    if isinstance(A, np.ndarray) and A.ndim == 3:
        return structure_product(field, A[None], T, B[None])[0]
    rational = isinstance(field, RationalField)
    if rational:
        (A, da), (T, dt), (B, db) = _stack_forms(A), _integer_form(T), _stack_forms(B)
    else:
        A, B = np.asarray(A), np.asarray(B)
    (k, rows, inner, n1), (_, _, cols, n2), n3 = A.shape, B.shape, T.shape[2]
    if np_modulus(field):
        Z = mod_matmul(
            field.p,
            A.transpose(0, 1, 3, 2).reshape(k, rows * n1, inner),
            B.reshape(k, inner, cols * n2),
        )
        Z = Z.reshape(k, rows, n1, cols, n2).transpose(0, 1, 3, 2, 4)
        P = mod_matmul(field.p, Z.reshape(k * rows * cols, n1 * n2), T.reshape(n1 * n2, n3))
        return P.reshape(k, rows, cols, n3)
    product = np.matmul if rational else lambda X, Y: field_matmul(field, X, Y)
    X = product(A.reshape(k * rows * inner, n1), T.reshape(n1, n2 * n3))
    X = X.reshape(k, rows, inner, n2, n3).transpose(0, 1, 4, 2, 3)
    X = X.reshape(k, rows * n3, inner * n2)
    P = product(X, B.transpose(0, 1, 3, 2).reshape(k, inner * n2, cols))
    P = P.reshape(k, rows, n3, cols).transpose(0, 1, 3, 2)
    if rational:
        return _stack_fractions(field, P, [a * dt * b for a, b in zip(da, db)])
    return P


def freeze(A):
    """A read-only array with the entries of A that owns its data (A itself
    when it owns its data): what an owner keeps for its lifetime.  Over the
    rationals the integer form and check image of a frozen array are
    computed once, for it and its reshapes alike, and dropped with it; so
    are the nonzero counts ``mod_matmul`` bounds its sums by, once per
    shape."""
    if A.base is not None:
        A = A.copy()
    A.flags.writeable = False
    return A


# id of a frozen array -> its integer form (N, d), resp. its check image,
# resp. the most nonzeros along an axis of each of its shapes
# (``_most_nonzeros``); an entry is removed when its array is collected
# (``_kept``)
_FORMS = {}
_IMAGES = {}
_COUNTS = {}


def _kept(memo, A, build):
    """build(A), computed once per frozen array: when A is a frozen array
    (``freeze``) or a reshape of one, build(owner) is kept in memo while the
    owner lives and returned, and the caller reshapes it to A's shape."""
    owner = A if A.base is None else A.base  # numpy's base is the owner of the data
    if (
        owner.flags.writeable
        or owner.size != A.size
        or not (A.flags.c_contiguous and owner.flags.c_contiguous)
    ):
        return build(A)
    key = id(owner)
    if key not in memo:
        memo[key] = build(owner)
        weakref.finalize(owner, memo.pop, key, None)
    return memo[key]


def _integer_form(A):
    """(N, d) for a rational array, as ``_numerators``; kept for frozen arrays."""
    N, d = _kept(_FORMS, A, _numerators)
    return N.reshape(A.shape), d


def _stack_forms(A):
    """(N, ds) for a stack of rational arrays (an array with a leading batch
    axis, or a list of arrays of one shape): A[k] = N[k] / ds[k], each matrix
    over its own common denominator (``_integer_form``, kept for a frozen
    array)."""
    forms = [_integer_form(a) for a in A]
    N = np.empty(np.shape(A), dtype=object)
    for k, (Nk, _) in enumerate(forms):
        N[k] = Nk
    return N, [d for _, d in forms]


def _numerators(A):
    """(N, d): an object array of Python ints and a common denominator d
    with A = N / d."""
    den = _DENOMINATORS(A)
    d = lcm(*set(den.flat))
    N = _NUMERATORS(A)
    return (N if d == 1 else N * (d // den)), d


_NUMERATORS = np.frompyfunc(attrgetter("numerator"), 1, 1)
_DENOMINATORS = np.frompyfunc(attrgetter("denominator"), 1, 1)


def check_image(field, A):
    """The image of a 2-D array over the field that ``rank_bound`` ranks:
    over the rationals its integer form mod the check prime, as int64 (kept
    for frozen arrays); over GF(p) the array itself."""
    if isinstance(field, RationalField):
        build = lambda B: (_integer_form(B)[0] % _CHECK_FIELD.p).astype(np.int64)
        return _kept(_IMAGES, A, build).reshape(A.shape)
    return A


def image_matmul(field, A, B):
    """The image of A @ B (2-D arrays over the field) that ``rank_bound``
    ranks, from the check images of the factors: over the rationals
    N_A N_B mod the check prime, which is d_A d_B (A @ B) mod p (see the
    module docstring); over GF(p) the product itself."""
    if isinstance(field, RationalField):
        return mod_matmul(_CHECK_FIELD.p, check_image(field, A), check_image(field, B))
    return field_matmul(field, A, B)


def mod_matmul(p, A, B):
    """(A @ B) % p for int64 arrays with entries in [0, p), p < 2**31: two
    2-D arrays, or two stacks with a leading batch axis.

    An entry of A @ B sums at most k products, each at most (p - 1)**2, where
    k is the smaller of the most nonzeros in a row of A and in a column of B
    (over the whole stack: one check for all its products; a frozen
    operand's count is kept, ``_most_nonzeros``).  When k exceeds
    floor((2**63 - 1) / (p - 1)**2), the inner dimension is cut into pieces
    of that many summands, each reduced mod p on its own, so no int64 sum
    overflows.
    """
    step = (2**63 - 1) // (p - 1) ** 2
    inner = A.shape[-1]
    # B first: it is most often the frozen operand, whose count is kept
    if inner <= step or _most_nonzeros(B, -2) <= step or _most_nonzeros(A, -1) <= step:
        return A @ B % p
    acc = np.zeros(A.shape[:-1] + B.shape[-1:], dtype=np.int64)
    for lo in range(0, inner, step):
        acc += A[..., lo : lo + step] @ B[..., lo : lo + step, :] % p
    return acc % p


def _most_nonzeros(A, axis) -> int:
    """The most nonzeros along an axis of A, counted once per frozen array
    (``freeze``), shape and axis: each reshape reads its own count."""
    counts = _kept(_COUNTS, A, lambda _: {})
    key = (A.shape, axis)
    if key not in counts:
        counts[key] = int(np.count_nonzero(A, axis=axis).max(initial=0))
    return counts[key]


def _integer_rows(A):
    """The rows of a rational array as primitive integer rows (lists of
    ints), each with the row space of the original row (``_row_numerators``
    divided by the gcd of each row's entries)."""
    return [_primitive(row) for row in _row_numerators(A).tolist()]


def _row_numerators(A):
    """The integer array of a rational array with each row times the lcm of
    its own denominators, read array-wise, where one denominator for the
    whole array (``_numerators``) may be far larger: in a correction solve
    of the rational ten-vertex lift the denominators have up to 722 bits
    and their lcm 3,982."""
    den = _DENOMINATORS(A)
    m = [lcm(*set(row)) for row in den.tolist()]
    N = _NUMERATORS(A)
    if max(m, default=1) == 1:
        return N
    return N * (np.array(m, dtype=object).reshape(-1, 1) // den)


def _primitive(row):
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [u // g for u in row] if g > 1 else row


def _primitive_sparse(row):
    """A sparse rational row (dict of nonzero Fractions or ints) as a primitive integer row."""
    d = lcm(*(v.denominator for v in row.values()))
    row = {k: v.numerator * (d // v.denominator) for k, v in row.items()}
    g = gcd(*row.values())
    return {k: u // g for k, u in row.items()} if g > 1 else row


def _rref_int(rows, ncols, p=None, reduce_full=True):
    """In-place elimination of integer rows (lists of ints) over GF(p), or
    fraction-free over Q when p is None; returns (rows, pivot columns).

    Over GF(p) (representatives in [0, p)) each pivot row v is made monic
    and clears a row u with entry b over it as (u - b * v) % p.  Over Q
    clearing column c of a row by the pivot row replaces it by the primitive
    part of x * row - y * pivot row, with y / x the row's entry over the
    pivot in lowest terms: an integer row with the same span over Q
    together with the pivot row.  The first len(pivots) rows are a row
    echelon form, reduced (zero at every other row's pivot) when
    reduce_full: the RREF over GF(p), and over Q once each row is divided
    by its pivot entry."""
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        top = rows[i]
        rows[i] = rows[r]
        if p is not None:
            inv = pow(top[c], -1, p)
            top = [u * inv % p for u in top]
        rows[r] = top
        a = top[c]
        for i in range(nrows) if reduce_full else range(r + 1, nrows):
            b = rows[i][c]
            if b and i != r:
                if p is not None:
                    rows[i] = [(u - b * v) % p for u, v in zip(rows[i], top)]
                else:
                    g = gcd(a, b)
                    x, y = a // g, b // g
                    rows[i] = _primitive([x * u - y * v for u, v in zip(rows[i], top)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _sparse_rows(A):
    """The rows of a 2-D array as sparse rows: dicts from column to nonzero
    entry (Python ints), read off one ``np.nonzero``."""
    rows = [{} for _ in range(A.shape[0])]
    r, c = np.nonzero(A)
    for i, j, v in zip(r.tolist(), c.tolist(), A[r, c].tolist()):
        rows[i][j] = v
    return rows


def _rref_sparse(rows, p=None, reduce_full=True, target=None):
    """Elimination of a stream of sparse rows (dicts from column to nonzero
    int entry) over GF(p), or fraction-free over Q when p is None; returns
    (rows, pivot columns), the rows in pivot order, as ``_rref_int``.  A
    row costs only its nonzero entries.

    One row is kept per leading (smallest) column: a new row is cleared on
    its leading column by the kept row there until no kept row has that
    column, and is then kept there, so the kept rows are a row echelon form
    of the rows read.  With a target the stream stops at the first row
    after which target rows are kept.  Over GF(p) kept rows are monic and a
    row u with entry b over a kept row v becomes (u - b * v) % p; over Q
    the rows are primitive integer rows, cleared as in ``_rref_int``.  When
    reduce_full, each kept row is then cleared at the later pivots, last
    pivot first, so the rows it is cleared by are reduced already: the RREF
    over GF(p), and over Q once each row is divided by its pivot entry."""
    kept = {}  # leading column -> the kept row there
    for row in rows:
        row = dict(row) if p is not None else _primitive_sparse(row)
        while row:
            c = min(row)
            top = kept.get(c)
            if top is None:
                if p is not None and row[c] != 1:
                    inv = pow(row[c], -1, p)
                    row = {k: u * inv % p for k, u in row.items()}
                kept[c] = row
                break
            row = _clear(row, top, c, p)
        if len(kept) == target:
            break
    pivots = sorted(kept)
    if reduce_full:
        for i in range(len(pivots) - 2, -1, -1):
            row = kept[pivots[i]]
            for c in [k for k in row if k in kept and k != pivots[i]]:
                row = _clear(row, kept[c], c, p)
            kept[pivots[i]] = row
    return [kept[c] for c in pivots], pivots


def _clear(row, top, c, p):
    """The sparse row with column c cleared by the kept row top (entry a at
    c; monic over GF(p)): row - b * top mod p, b = row[c], or over Q the
    primitive part of x * row - y * top, y / x = b / a in lowest terms."""
    b = row[c]
    if p is not None:
        get = row.get
        for k, v in top.items():
            u = (get(k, 0) - b * v) % p
            if u:
                row[k] = u
            else:
                del row[k]  # u = 0 only where row had an entry
        return row
    a = top[c]
    g = gcd(a, b)
    row = {k: a // g * u for k, u in row.items()}
    b //= g
    for k, v in top.items():
        u = row.get(k, 0) - b * v
        if u:
            row[k] = u
        else:
            del row[k]
    return _primitive_sparse(row)


def _on_array(field, A) -> bool:
    """Whether ``_echelon`` eliminates A as an array, read into sparse rows
    and its RREF written back into one: a GF(p) array of
    ``_NP_CELL_THRESHOLD`` cells or more."""
    return not isinstance(field, RationalField) and A.size >= _NP_CELL_THRESHOLD


def _echelon(field, A, reduce_full=True):
    """(R, pivots) of a 2-D array over the field, A not modified.  Where
    ``_on_array`` holds R is an array, the rows of ``_rref_sparse``, fed
    shortest first, scattered into one (None unless reduce_full).
    Otherwise R is the int rows of ``_rref_int``."""
    if isinstance(field, RationalField):
        return _rref_int(_integer_rows(A), A.shape[1], None, reduce_full)
    if not _on_array(field, A):
        return _rref_int(A.tolist(), A.shape[1], field.p, reduce_full)
    rows, piv = _rref_sparse(sorted(_sparse_rows(A), key=len), field.p, reduce_full)
    if not reduce_full:
        return None, piv
    R = field_zeros(field, (len(piv), A.shape[1]))
    at = [(i, k, u) for i, row in enumerate(rows) for k, u in row.items()]
    if at:
        i, k, u = zip(*at)
        R[list(i), list(k)] = u
    return R, piv


def rref(field, A):
    """(rows, pivots): the nonzero rows of the RREF of a 2-D array over the
    field, as an array, and their pivot columns (see ``_echelon``).  A is
    not modified."""
    R, piv = _echelon(field, A)
    if isinstance(R, np.ndarray):
        return R[: len(piv)], piv
    if isinstance(field, RationalField):
        R = [[Fraction(u, row[c]) if u else field.zero for u in row] for row, c in zip(R, piv)]
    return field_array(field, R[: len(piv)]).reshape(len(piv), A.shape[1]), piv


def solve(field, A, B):
    """The X with A @ X = B (2-D arrays over the field) that is zero at the
    free variables, or None when the system is inconsistent (a pivot of
    [A | B] lies in B's columns).

    On the list path (``_on_array`` fails) [A | B] is eliminated below the
    pivots only and B's columns are back-substituted from the last pivot up
    (``_back_substitute``): an RREF would also clear above the pivots in A's
    columns, which are never read.  Otherwise X is read off the RREF of
    [A | B] as sparse rows, which is itself a back-substitution (each kept
    row cleared at the later pivots, last first) that costs only the
    nonzeros.  The solution with zero free variables is unique, so both
    give the same X."""
    n = A.shape[1]
    AB = np.hstack([A, B])
    R, piv = _echelon(field, AB, reduce_full=_on_array(field, AB))
    if piv and piv[-1] >= n:
        return None
    X = field_zeros(field, (n, B.shape[1]))
    if isinstance(R, np.ndarray):
        X[piv] = R[: len(piv), n:]
    else:
        _back_substitute(field, R[: len(piv)], piv, n, X)
    return X


def _back_substitute(field, rows, piv, n, X):
    """Fill X[piv] from the echelon rows of [A | B] (``_rref_int`` below the
    pivots only, A with n columns), last pivot first: with the free
    variables 0, row i reads a_i x_i = b_i - sum over later pivots c of
    row_i[c] x_c, a_i the pivot entry (1 over GF(p)).  Over the rationals a
    solved x_c is kept as an integer row v_c over a denominator e_c: row i,
    times the lcm L of the e_c it reads, is the integer row
    (L a_i, L b_i - sum of row_i[c] (L / e_c) v_c), whose primitive part
    gives e_i and v_i.  Only X's nonzero entries become Fractions."""
    p = field.p if isinstance(field, PrimeField) else None
    solved = []  # (pivot column, the numerators of its row of X, their denominator)
    for row, c in zip(reversed(rows), reversed(piv)):
        terms = [(row[d], v, e) for d, v, e in solved if row[d]]
        L = lcm(*(e for _, _, e in terms))  # 1 over GF(p)
        x = row[n:] if L == 1 else [L * u for u in row[n:]]
        for b, v, e in terms:
            b *= L // e
            x = [u - b * w for u, w in zip(x, v)]
        if p is not None:
            solved.append((c, [u % p for u in x], 1))
        else:
            e, *x = _primitive([L * row[c]] + x)
            solved.append((c, x, e))
    for c, v, e in solved:
        X[c] = v if p is not None else [Fraction(u, e) if u else field.zero for u in v]


def rank_bound(field, image):
    """(r, exact): a lower bound r on the rank of a 2-D array over the field,
    equal to the rank when exact, read off its image (``check_image``, or
    ``image_matmul`` for a product); the image is not modified.  Over the
    rationals r is the rank mod the check prime (see the module docstring),
    exact when it is min(rows, cols); over GF(p) it is the rank."""
    if isinstance(field, RationalField):
        r = _elimination_rank(_CHECK_FIELD, image)
        return r, r == min(image.shape)
    return _elimination_rank(field, image), True


def rank_bounds(field, images):
    """[rank_bound(field, A) for A in images], with the int64 images of one
    shape ranked together by one stacked elimination (``_stacked_ranks``).
    A shape of one image, of fewer than ``_NP_CELL_THRESHOLD`` cells in all,
    or of ``object`` images keeps the per-image path (``rank_bound``)."""
    check = _CHECK_FIELD if isinstance(field, RationalField) else field
    groups = {}
    for k, A in enumerate(images):
        groups.setdefault((A.shape, A.dtype), []).append(k)
    bounds = [None] * len(images)
    for (shape, dtype), ks in groups.items():
        if len(ks) == 1 or len(ks) * images[ks[0]].size < _NP_CELL_THRESHOLD or dtype == object:
            for k in ks:
                bounds[k] = rank_bound(field, images[k])
            continue
        ranks = _stacked_ranks(check.p, np.stack([images[k] for k in ks]))
        full = min(shape)
        for k, r in zip(ks, ranks):
            bounds[k] = r, check is field or r == full
    return bounds


def _stacked_ranks(p, S):
    """The GF(p) ranks of the matrices S[k] of a stack (k, m, n) of int64
    arrays with entries in [0, p), p < 2**31; S is consumed.

    One elimination, below the pivots only, runs over the whole stack, a
    column at a time (a wide stack is transposed first, so the loop runs
    over the shorter side).  Each matrix picks its own pivot row, made monic
    with one Python inverse, and moves it out of its free rows, which are
    kept as a prefix; the free rows u with entry b over the pivot become
    u - b * v.  Every product b * v is at most (p - 1)**2, with b and the
    pivot row v reduced mod p, so the rest of the stack is reduced mod p
    only once every floor((2**63 - 1) / (p - 1)**2) updates (as in
    ``mod_matmul``), and no int64 entry overflows."""
    k, m, n = S.shape
    if m < n:
        S, m, n = np.ascontiguousarray(S.transpose(0, 2, 1)), n, m
    free = np.full(k, m)  # the free rows of S[j] are S[j, :free[j]]
    every, rows = np.arange(k), np.arange(m)
    budget = (2**63 - 1) // (p - 1) ** 2
    pending = 0  # updates since the stack was last reduced
    for c in range(n):
        top = int(free.max())
        if top == 0:
            break
        col = S[:, :top, c]
        col %= p
        cand = (col != 0) & (rows[:top] < free[:, None])
        piv = cand.argmax(axis=1)
        hit = cand[every, piv]
        if hit.all():
            idx, bulk = every, slice(None)  # a slice updates the stack in place
        else:
            idx = bulk = np.nonzero(hit)[0]
            if not idx.size:
                continue
        pv, last = piv[idx], free[idx] - 1
        v = S[idx, pv, c:] % p
        S[idx, pv] = S[idx, last]
        free[idx] = last
        inv = np.array([pow(a, -1, p) for a in v[:, 0].tolist()], dtype=np.int64)
        v = v[:, 1:] * inv[:, None] % p
        top = int(free.max())
        # (rows past a matrix's free prefix are never read again: clearing
        # them too keeps the update one slice)
        S[bulk, :top, c + 1 :] -= S[idx, :top, c, None] * v[:, None, :]
        pending += 1
        if pending == budget:
            S[:, :top, c + 1 :] %= p
            pending = 0
    return (m - free).tolist()


def array_rank(field, A) -> int:
    """Rank of a 2-D array over the field (see ``field_array``); A is not
    modified.  Over the rationals a full rank is certified by one rank mod
    the check prime (``rank_bound``); any other is eliminated exactly."""
    r, exact = rank_bound(field, check_image(field, A))
    return r if exact else _elimination_rank(field, A)


def _elimination_rank(field, A) -> int:
    """Rank by elimination below the pivots only (see ``_echelon``)."""
    return len(_echelon(field, A, reduce_full=False)[1])


def rank_reaches(field, rows, target):
    """Whether the sparse rows (dicts from column to nonzero entry over the
    field) span a space of dimension >= target: the sparse echelon
    (``_rref_sparse``) of the stream, stopped once target rows are kept."""
    if target <= 0:
        return True
    p = field.p if isinstance(field, PrimeField) else None
    return len(_rref_sparse(rows, p, reduce_full=False, target=target)[1]) >= target


def reduce_rref(field, rows, pivots, V):
    """The rows of V with every pivot coordinate cleared by the RREF rows:
    V - V[:, pivots] rows, one product.  RREF rows vanish at each other's
    pivots, so this equals clearing the pivots one row at a time."""
    return field_reduce(field, V - field_matmul(field, V[:, pivots], rows))


def quotient_projection(field, A):
    """(keep, P) for the quotient of field^n by the row span of A.

    The RREF of A with its coordinates reversed pivots on the *last* nonzero
    coordinate of each row, so the quotient complement discards the last
    basis labels (a quotient by x1+...+x5 eliminates x5 and keeps x1..x4).
    keep lists the coordinates not pivoted on; they index the quotient
    basis.  The class of a row vector v has coordinates v P, where P is
    n x len(keep) with P[keep] = I and P[pivots] = -rows[:, keep].
    """
    n = A.shape[1]
    rows, piv = rref(field, A[:, ::-1])
    rows, piv = rows[:, ::-1], [n - 1 - c for c in piv]
    pivset = set(piv)
    keep = [c for c in range(n) if c not in pivset]
    P = field_zeros(field, (n, len(keep)))
    P[keep, range(len(keep))] = field.one
    P[piv] = field_reduce(field, -rows[:, keep])
    return keep, P


def identity(field, n):
    """The n x n identity array over the field."""
    I = field_zeros(field, (n, n))
    I[range(n), range(n)] = field.one
    return I


def kernel_basis(field, A) -> "Subspace":
    """Canonical basis of the right kernel {v : A @ v = 0} of a 2-D array
    over the field."""
    cols = A.shape[1]
    R, piv = rref(field, A)
    pivset = set(piv)
    free = [c for c in range(cols) if c not in pivset]
    K = field_zeros(field, (len(free), cols))
    K[range(len(free)), free] = field.one
    K[:, piv] = field_reduce(field, -R[:, free].T)
    return Subspace.from_vectors(field, cols, K)


def left_inverse(field, A):
    """A left inverse L (L @ A = I) of a 2-D array over the field, read off
    the RREF of [A | I]; the columns must be independent (ValueError
    otherwise)."""
    n, m = A.shape
    R, piv = rref(field, np.hstack([A, identity(field, n)]))
    if piv[:m] != list(range(m)):
        raise ValueError("columns are linearly dependent")
    return R[:m, m:]


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
            vectors = field_array(field, vectors).reshape(len(vectors), ambient)
        elif vectors.shape[1] != ambient:
            raise ValueError("vector length does not match ambient dimension")
        return cls(field, ambient, *rref(field, vectors))

    @classmethod
    def zero(cls, field, ambient) -> "Subspace":
        return cls(field, ambient, field_zeros(field, (0, ambient)), [])

    @classmethod
    def full(cls, field, ambient) -> "Subspace":
        return cls(field, ambient, identity(field, ambient), range(ambient))

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
        ker = kernel_basis(f, np.hstack([self.rows.T, field_reduce(f, -other.rows.T)]))
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
