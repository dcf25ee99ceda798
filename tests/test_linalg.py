import ast
from fractions import Fraction
from math import gcd
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

import totref
import totref.linalg as linalg
from totref import DEFAULT_PRIME, PrimeField, RationalField, Subspace
from totref.linalg import (
    _rref_int,
    array_rank,
    field_array,
    field_matmul,
    field_zeros,
    identity,
    kernel_basis,
    left_inverse,
    mod_matmul,
    np_modulus,
    rank_reaches,
    rref,
)

import numpy as np

from conftest import ARRAY_FIELDS, _sympy_rref, array_field

GF = PrimeField()
GF5 = PrimeField(5)
QQ = RationalField()


def rand_matrix(field, rng, rows, cols):
    return field_array(field, [[field.rand(rng) for _ in range(cols)] for _ in range(rows)]).reshape(
        rows, cols
    )


def field_dot(field, a, b):
    acc = field.zero
    for x, y in zip(a, b):
        acc = field.add(acc, field.mul(x, y))
    return acc


def apply(field, A, vec):
    """A @ vec by field operations on the list view."""
    return [field_dot(field, row, vec) for row in A.tolist()]


def solve_vector(field, A, b):
    """Some x with A @ x = b (lists), or None: linalg.solve on one column."""
    X = linalg.solve(field, A, field_array(field, b).reshape(len(b), 1))
    return None if X is None else X[:, 0].tolist()


def list_product(field, left, right, cols):
    """left @ right (lists of rows; right has cols columns) by field operations."""
    return [[field_dot(field, row, [r[c] for r in right]) for c in range(cols)] for row in left]


def test_rank_identity_and_zero():
    assert array_rank(GF, identity(GF, 2)) == 2
    assert array_rank(GF, field_zeros(GF, (3, 4))) == 0
    assert array_rank(QQ, identity(QQ, 5)) == 5


def test_kernel_trivial_cases():
    assert kernel_basis(GF, identity(GF, 3)).dim == 0
    k = kernel_basis(GF, field_array(GF, [[1, 1]]))
    assert k.dim == 1
    assert k.basis[0] == (1, GF.p - 1)  # span{(1, -1)}
    kq = kernel_basis(QQ, field_array(QQ, [[Fraction(1), Fraction(1)]]))
    assert kq.basis[0] == (Fraction(1), Fraction(-1))


def test_solve_trivial_cases():
    b = [3, 5, 7]
    assert solve_vector(GF, identity(GF, 3), b) == b
    assert solve_vector(GF, field_zeros(GF, (2, 2)), [1, 0]) is None
    assert solve_vector(GF, field_zeros(GF, (2, 2)), [0, 0]) == [0, 0]
    assert solve_vector(GF, field_array(GF, []).reshape(0, 3), []) == [0, 0, 0]


@pytest.mark.parametrize("field", [GF, GF5, QQ])
def test_rank_transpose_and_nullity(field):
    rng = Random(42)
    for _ in range(25):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        m = rand_matrix(field, rng, rows, cols)
        r = array_rank(field, m)
        assert r == array_rank(field, m.T)
        assert kernel_basis(field, m).dim + r == cols


def test_solve_round_trip():
    """linalg.solve with one column and with a B of several columns, over
    GF(7), the default prime and Q: some X with A X = B when the system is
    consistent, None once a zero row of A meets a nonzero entry of B."""
    rng = Random(7)
    for field in (PrimeField(7), GF, QQ):
        for _ in range(30):
            rows, cols, k = rng.randrange(1, 7), rng.randrange(1, 7), rng.randrange(1, 4)
            m = rand_matrix(field, rng, rows, cols)
            x = [field.rand(rng) for _ in range(cols)]
            b = apply(field, m, x)
            got = solve_vector(field, m, b)
            assert got is not None
            assert apply(field, m, got) == b
            B = list_product(field, m.tolist(), rand_matrix(field, rng, cols, k).tolist(), k)
            X = linalg.solve(field, m, field_array(field, B))
            assert X.shape == (cols, k)
            assert list_product(field, m.tolist(), X.tolist(), k) == B
            m[-1] = field.zero
            B[-1][-1] = field.one
            assert linalg.solve(field, m, field_array(field, B)) is None
            assert solve_vector(field, m, [row[-1] for row in B]) is None


@pytest.mark.parametrize("field", [GF, GF5, QQ, PrimeField(4294967311)])
def test_left_inverse(field):
    rng = Random(8)
    for _ in range(25):
        cols = rng.randrange(1, 6)
        m = rand_matrix(field, rng, cols + rng.randrange(0, 4), cols)
        if array_rank(field, m) < cols:
            with pytest.raises(ValueError):
                left_inverse(field, m)
            continue
        L = left_inverse(field, m)
        assert L.shape == (cols, m.shape[0])
        assert [apply(field, L, [row[j] for row in m.tolist()]) for j in range(cols)] == (
            identity(field, cols).tolist()
        )
    with pytest.raises(ValueError):
        left_inverse(GF, field_array(GF, [[1, 2], [2, 4], [3, 6]]))


def test_kernel_vectors_annihilate():
    rng = Random(3)
    m = rand_matrix(GF, rng, 4, 7)
    ker = kernel_basis(GF, m)
    assert ker.dim == 7 - array_rank(GF, m)
    for v in ker.basis:
        assert all(x == 0 for x in apply(GF, m, list(v)))


def test_np_and_py_elimination_agree():
    # the sparse rows of an int64 array (the path of arrays above the cell
    # threshold) and the list rows give one RREF
    rng = Random(11)
    for _ in range(20):
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
        entries = [[GF.rand(rng) for _ in range(cols)] for _ in range(rows)]
        sp_rows, sp_piv = linalg._rref_sparse(linalg._sparse_rows(np.array(entries, dtype=np.int64)), GF.p)
        py_rows, py_piv = _rref_int(entries, cols, GF.p)
        assert py_piv == sp_piv
        assert py_rows[: len(py_piv)] == _dense(sp_rows, cols)


def test_large_matrix_uses_fast_path():
    rng = Random(13)
    m = rand_matrix(GF, rng, 60, 60)  # above the cell threshold
    assert array_rank(GF, m) == array_rank(GF, m.T)
    x = [GF.rand(rng) for _ in range(60)]
    assert kernel_basis(GF, m).dim + array_rank(GF, m) == 60


def test_subspace_same_and_complementary():
    a = Subspace.from_vectors(GF, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    b = Subspace.from_vectors(GF, 4, [[0, 1, 0, 0], [1, 0, 0, 0]])
    assert a == b
    assert a.intersection(b) == a
    c = Subspace.from_vectors(GF, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert a.intersection(c).dim == 0
    assert a.sum(c).dim == 4


def test_subspace_equality_same_space_different_spanning_sets():
    rng = Random(5)
    for _ in range(20):
        vecs = [[GF.rand(rng) for _ in range(5)] for _ in range(3)]
        a = Subspace.from_vectors(GF, 5, vecs)
        # random invertible recombination spans the same space
        mixed = []
        for _ in range(4):
            coeffs = [GF.rand(rng) for _ in vecs]
            mixed.append(
                [
                    sum(c * v[i] for c, v in zip(coeffs, vecs)) % GF.p
                    for i in range(5)
                ]
            )
        b = Subspace.from_vectors(GF, 5, vecs + mixed)
        assert a == b
        assert a.basis == b.basis  # canonical bases are literally identical


def test_subspace_dimension_formula():
    rng = Random(17)
    for _ in range(100):
        n = rng.randrange(1, 9)
        a = Subspace.from_vectors(
            GF, n, [[GF.rand(rng) for _ in range(n)] for _ in range(rng.randrange(0, n + 1))]
        )
        b = Subspace.from_vectors(
            GF, n, [[GF.rand(rng) for _ in range(n)] for _ in range(rng.randrange(0, n + 1))]
        )
        assert a.dim + b.dim == a.sum(b).dim + a.intersection(b).dim


def test_subspace_ambient_mismatch():
    a = Subspace.from_vectors(GF, 3, [[1, 0, 0]])
    b = Subspace.from_vectors(GF, 4, [[1, 0, 0, 0]])
    with pytest.raises(ValueError):
        a.sum(b)


def test_subspace_contains_and_reduce():
    a = Subspace.from_vectors(GF, 3, [[1, 0, 2], [0, 1, 5]])
    assert a.contains([1, 1, 7])
    assert not a.contains([0, 0, 1])
    coords = a.reduce([1, 1, 7])
    assert coords == [1, 1]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(2, 5),
    st.lists(st.integers(0, 96), min_size=4, max_size=25),
)
def test_rank_nullity_hypothesis(rows, cols, data):
    field = PrimeField(97)
    entries = [[data[(r * cols + c) % len(data)] for c in range(cols)] for r in range(rows)]
    m = field_array(field, entries).reshape(rows, cols)
    assert array_rank(field, m) + kernel_basis(field, m).dim == cols
    assert array_rank(field, m) == array_rank(field, m.T)


def test_rational_exactness():
    m = field_array(QQ, [[Fraction(1, 3), Fraction(1, 7)], [Fraction(2, 3), Fraction(2, 7)]])
    assert array_rank(QQ, m) == 1
    k = kernel_basis(QQ, m)
    assert k.dim == 1
    v = list(k.basis[0])
    assert all(x == 0 for x in apply(QQ, m, v))


LARGE_PRIME = 4294967311  # above 2**32: (p-1)**2 overflows int64


def field_elements(field):
    if field.kind == "qq":
        return st.one_of(st.just(Fraction(0)), st.fractions(-30, 30, max_denominator=12))
    return st.one_of(st.just(0), st.just(field.p - 1), st.integers(0, field.p - 1))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(ARRAY_FIELDS), st.data())
def test_rref_backends_match_sympy(p, data):
    """Both eliminations, the sparse-row one and the list kernel (their rows
    over Q fraction-free, divided by their pivot entries here), and
    linalg.rref against sympy on every field: int64 and object arrays
    alike."""
    field = array_field(p)
    rows, cols = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    rank = data.draw(st.integers(0, min(rows, cols)))
    elt = field_elements(field)
    left = [data.draw(st.lists(elt, min_size=rank, max_size=rank)) for _ in range(rows)]
    right = [data.draw(st.lists(elt, min_size=cols, max_size=cols)) for _ in range(rank)]
    entries = list_product(field, left, right, cols)
    expected = _sympy_rref(field, entries, cols)
    p = None if field.kind == "qq" else field.p
    sp_rows, sp_piv = linalg._rref_sparse(linalg._sparse_rows(field_array(field, entries)), p)
    sp_rows = _dense(sp_rows, cols)
    if p is None:
        sp_rows = [[Fraction(u, row[c]) for u in row] for row, c in zip(sp_rows, sp_piv)]
    assert (sp_rows, sp_piv) == expected
    if field.kind == "qq":
        py_rows, py_piv = _rref_int(linalg._integer_rows(field_array(field, entries)), cols)
        py_rows = [[Fraction(u, row[c]) for u in row] for row, c in zip(py_rows, py_piv)]
    else:
        py_rows, py_piv = _rref_int(list(entries), cols, field.p)
    assert (py_rows[: len(py_piv)], py_piv) == expected
    R, piv = rref(field, field_array(field, entries))
    assert (R.tolist(), piv) == expected


@st.composite
def solve_cases(draw):
    """(field, A, B, kind) over a field of ARRAY_FIELDS: a square invertible
    A = L U (L unit lower triangular, U upper with a nonzero diagonal), an A
    of rank below its column count with B in its column space (free
    variables), or T [A0; 0] against T [B0; c] with T invertible and c != 0
    (inconsistent); rows shuffled.  [A | B] has under 48 cells when small,
    at least 110 when not: both sides of ``_NP_CELL_THRESHOLD``.  The shapes
    are drawn and the entries seeded: each is 0, -1 or ``field.rand``."""
    field = array_field(draw(st.sampled_from(ARRAY_FIELDS)))
    kind = draw(st.sampled_from(["invertible", "free", "inconsistent"]))
    big = draw(st.booleans())
    lo, hi = (10, 12) if big else (1, 6)
    n, k = draw(st.integers(lo, hi)), draw(st.integers(1, 2))
    rng = Random(draw(st.integers(0, 2**32)))
    zero, one = field.zero, field.one

    def elt(nonzero=False):
        x = rng.choice([zero, field.neg(one), field.rand(rng)])
        return elt(nonzero) if nonzero and not x else x

    def mat(rows, cols):
        return [[elt() for _ in range(cols)] for _ in range(rows)]

    def unit_lower(size):
        return [[elt() if c < r else one if c == r else zero for c in range(size)] for r in range(size)]

    if kind == "invertible":
        m = n
        U = [[zero] * r + [elt(True)] + [elt() for _ in range(n - r - 1)] for r in range(n)]
        A, B = list_product(field, unit_lower(n), U, n), mat(n, k)
    elif kind == "free":
        m, r = draw(st.integers(lo, hi)), draw(st.integers(0, n - 1))
        A = list_product(field, mat(m, r), mat(r, n), n)
        B = list_product(field, A, mat(n, k), k)
    else:
        m = draw(st.integers(lo, hi))
        r = draw(st.integers(0, min(m - 1, n)))
        A0 = list_product(field, mat(m - 1, r), mat(r, n), n) + [[zero] * n]
        B0 = mat(m - 1, k) + [[elt(True)] + [elt() for _ in range(k - 1)]]
        T = unit_lower(m)
        A, B = list_product(field, T, A0, n), list_product(field, T, B0, k)
    order = draw(st.permutations(range(m)))
    A = field_array(field, [A[i] for i in order]).reshape(m, n)
    return field, A, field_array(field, [B[i] for i in order]), kind


@settings(max_examples=150, deadline=None)
@given(solve_cases())
def test_solve_matches_sympy_rref(case):
    """linalg.solve against the solution read off sympy's RREF of [A | B]:
    None exactly when a pivot lies in B's columns, else X[pivots] = the RREF
    rows' B part and X = 0 at the free variables, entry by entry, on every
    field and on both sides of the cell threshold (the list path's
    back-substitution and the RREF of its sparse rows)."""
    field, A, B, kind = case
    (m, n), k = A.shape, B.shape[1]
    AB = np.hstack([A, B])
    assert linalg._on_array(field, AB) == (AB.size >= 100 and field.kind != "qq")
    rows, piv = _sympy_rref(field, AB.tolist(), n + k)
    X = linalg.solve(field, A, B)
    if kind == "inconsistent":
        assert piv[-1] >= n and X is None
        return
    assert (piv == list(range(n))) if kind == "invertible" else (len(piv) < n)
    expected = [[field.zero] * k for _ in range(n)]
    for row, c in zip(rows, piv):
        expected[c] = row[n:]
    assert X.shape == (n, k) and X.tolist() == expected
    assert list_product(field, A.tolist(), X.tolist(), k) == B.tolist()


@st.composite
def sparse_kernel_cases(draw):
    """(field, A, B) over GF(5), the default prime or GF(4294967311): A is
    m x n (1 to 9 each, or 8 to 14: both sides of ``_NP_CELL_THRESHOLD``)
    with a drawn share of nonzero cells (sparse, under a quarter, or
    dense), then some rows and columns zeroed and some rows replaced by a
    combination of two others (dependent rows, fill-in); B is m x k, A X0
    for a sparse X0 (consistent) or drawn like A.  The shapes are drawn and
    the entries seeded: 1, -1 or ``field.rand``."""
    field = PrimeField(draw(st.sampled_from([5, DEFAULT_PRIME, 4294967311])))
    lo, hi = (8, 14) if draw(st.booleans()) else (1, 9)
    m, n, k = draw(st.integers(lo, hi)), draw(st.integers(lo, hi)), draw(st.integers(1, 2))
    density = draw(st.sampled_from([0.05, 0.15, 0.6, 1.0]))
    rng = Random(draw(st.integers(0, 2**32)))
    p = field.p

    def mat(rows, cols, share):
        pick = lambda: rng.choice([1, p - 1, field.rand(rng)])
        return [[pick() if rng.random() < share else 0 for _ in range(cols)] for _ in range(rows)]

    A = mat(m, n, density)
    for i in rng.sample(range(m), rng.randrange(m // 3 + 1)):
        A[i] = [0] * n
    for c in rng.sample(range(n), rng.randrange(n // 3 + 1)):
        for row in A:
            row[c] = 0
    for i in range(m):
        if m >= 3 and rng.random() < 0.25:
            j, l = rng.sample([r for r in range(m) if r != i], 2)
            a, b = field.rand(rng), field.rand(rng)
            A[i] = [(a * x + b * y) % p for x, y in zip(A[j], A[l])]
    B = list_product(field, A, mat(n, k, 0.3), k) if draw(st.booleans()) else mat(m, k, density)
    return field, field_array(field, A).reshape(m, n), field_array(field, B).reshape(m, k)


def _dense(rows, cols):
    return [[row.get(c, 0) for c in range(cols)] for row in rows]


@settings(max_examples=200, deadline=None)
@given(sparse_kernel_cases())
@example((PrimeField(4294967311), field_zeros(PrimeField(4294967311), (10, 12)),
          field_zeros(PrimeField(4294967311), (10, 1))))
def test_sparse_kernel_matches_rref_int_and_sympy(case):
    """The sparse-row kernel (``_rref_sparse``) against ``_rref_int`` and
    sympy's DomainMatrix RREF: the RREF rows, pivots and rank, also below
    the pivots only, in reversed and shortest-first row order, and over Q
    on the same integer entries (rows divided by their pivot entries).
    ``_echelon`` sends it exactly the GF(p) arrays of at least
    ``_NP_CELL_THRESHOLD`` cells, and ``rref``, ``array_rank`` and ``solve``
    (X, or None for an inconsistent system) match sympy on every route."""
    field, A, B = case
    (m, n), k, p = A.shape, B.shape[1], field.p
    expected = _sympy_rref(field, A.tolist(), n)
    rows, piv = linalg._rref_sparse(linalg._sparse_rows(A), p)
    assert (_dense(rows, n), piv) == expected
    int_rows, int_piv = _rref_int(A.tolist(), n, p)
    assert (int_rows[: len(int_piv)], int_piv) == expected
    assert linalg._rref_sparse(linalg._sparse_rows(A), p, reduce_full=False)[1] == piv
    # the same in any row order: _echelon feeds the rows shortest first
    for order in (sorted(linalg._sparse_rows(A), key=len), linalg._sparse_rows(A)[::-1]):
        assert linalg._rref_sparse(order, p) == (rows, piv)
        assert linalg._rref_sparse(order, p, reduce_full=False)[1] == piv
    q_rows, q_piv = linalg._rref_sparse(linalg._sparse_rows(A))
    q_rows = [[Fraction(u, row[c]) for u in row] for row, c in zip(_dense(q_rows, n), q_piv)]
    assert (q_rows, q_piv) == _sympy_rref(QQ, A.tolist(), n)
    for M in (A, np.hstack([A, B])):
        assert linalg._on_array(field, M) == (M.size >= 100)
    R, rpiv = rref(field, A)
    assert (R.tolist(), rpiv) == expected and R.dtype == A.dtype
    assert array_rank(field, A) == len(piv)
    ab_rows, ab_piv = _sympy_rref(field, np.hstack([A, B]).tolist(), n + k)
    X = linalg.solve(field, A, B)
    if ab_piv and ab_piv[-1] >= n:
        assert X is None
        return
    expected_x = [[0] * k for _ in range(n)]
    for row, c in zip(ab_rows, ab_piv):
        expected_x[c] = row[n:]
    assert X.tolist() == expected_x and X.dtype == A.dtype


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.sampled_from(["shared", "unrelated"]),
       st.integers(0, 2**32))
@example(4, 5, "unrelated", 0)
@example(4, 5, "shared", 0)
def test_integer_rows_match_one_common_denominator(m, n, kind, seed):
    """``_integer_rows`` scales each row by the lcm of its own denominators,
    whether the rows have unrelated denominators of 60 to 120 bits or share
    theirs: its rows are the primitive rows of the whole array over its
    common denominator (``_integer_form``), each a positive multiple of the
    row it comes from, zero rows and integer rows included."""
    rng = Random(seed)
    base = rng.randrange(2, 2**40)
    rows = []
    for _ in range(m):
        d = base * rng.choice([1, 2, 3]) if kind == "shared" else rng.randrange(2**60, 2**120)
        share = rng.choice([0.0, 0.5, 1.0])
        rows.append([
            Fraction(rng.randrange(-50, 51), d * rng.choice([1, 1, 2, 5]))
            if rng.random() < share else Fraction(0) for _ in range(n)
        ])
    A = field_array(QQ, rows).reshape(m, n)
    got = linalg._integer_rows(A)
    assert got == [linalg._primitive(row) for row in linalg._integer_form(A)[0].tolist()]
    for row, ints in zip(rows, got):
        nonzero = [(x, u) for x, u in zip(row, ints) if x]
        assert [c for c, x in enumerate(row) if x] == [c for c, u in enumerate(ints) if u]
        if nonzero:
            scale = nonzero[0][1] / nonzero[0][0]
            assert scale > 0 and all(u == scale * x for x, u in nonzero)
            assert gcd(*ints) == 1


def test_rational_array_elimination_above_threshold():
    # above the cell threshold, where GF(p) would take the sparse rows, an
    # object array of Fractions is eliminated fraction-free as integer rows
    rng = Random(29)
    small = lambda: Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
    left = [[small() for _ in range(12)] for _ in range(20)]
    right = [[small() for _ in range(18)] for _ in range(12)]
    entries = list_product(QQ, left, right, 18)
    m = field_array(QQ, entries)
    assert m.size >= linalg._NP_CELL_THRESHOLD and m.dtype == object
    assert array_rank(QQ, m) == 12
    R, piv = rref(QQ, m)
    assert (R.tolist(), piv) == _sympy_rref(QQ, entries, 18)


def test_large_prime_avoids_int64_path():
    # above the cell threshold, where GF(p) with p < 2**31 would take numpy
    field = PrimeField(LARGE_PRIME)
    rng = Random(19)
    left = rand_matrix(field, rng, 50, 40).tolist()
    right = rand_matrix(field, rng, 40, 50).tolist()
    entries = [
        [sum(a * right[k][c] for k, a in enumerate(row)) % field.p for c in range(50)]
        for row in left
    ]
    assert np_modulus(field) is None and np_modulus(GF) == GF.p
    m = field_array(field, entries)
    assert array_rank(field, m) == 40
    R, piv = rref(field, m)
    assert (R.tolist(), piv) == _sympy_rref(field, entries, 50)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([7, GF.p, 2**31 - 1]), st.data())
def test_mod_matmul_matches_python_integers(p, data):
    n, k, m = (data.draw(st.integers(0, top)) for top in (4, 40, 4))
    elt = st.one_of(st.just(0), st.just(p - 1), st.integers(0, p - 1))
    A = [data.draw(st.lists(elt, min_size=k, max_size=k)) for _ in range(n)]
    B = [data.draw(st.lists(elt, min_size=m, max_size=m)) for _ in range(k)]
    got = mod_matmul(
        p, np.array(A, dtype=np.int64).reshape(n, k), np.array(B, dtype=np.int64).reshape(k, m)
    )
    expected = [[sum(A[r][i] * B[i][c] for i in range(k)) % p for c in range(m)] for r in range(n)]
    assert got.dtype == np.int64 and got.tolist() == expected


def test_mod_matmul_all_maximal_entries():
    # 40 products of (p-1)**2 overflow int64 unless the sum is cut into pieces
    for p in (GF.p, 2**31 - 1):
        A = np.full((3, 40), p - 1, dtype=np.int64)
        assert mod_matmul(p, A, A.T.copy()).tolist() == [[40 * (p - 1) ** 2 % p] * 3] * 3


def test_mod_matmul_counts_a_frozen_operand_once_per_shape(monkeypatch):
    """The nonzero counts that bound mod_matmul's sums are kept with a frozen
    operand, one per shape and axis (a reshape reads its own count); an
    operand that is not frozen is counted on every call."""
    p = 2**31 - 1  # a sum of three products may overflow: every call counts
    rng = np.random.default_rng(4)
    A = rng.integers(0, p, (3, 8))
    B = linalg.freeze(rng.integers(0, p, (8, 6)))
    counted = []
    real = np.count_nonzero

    def spy(X, axis=None):
        counted.append(("B" if X is B or X.base is B else "A", X.shape, axis))
        return real(X, axis=axis)

    monkeypatch.setattr(np, "count_nonzero", spy)
    for _ in range(3):
        for a, b in ((A, B), (A.reshape(6, 4), B.reshape(4, 12))):
            want = a.astype(object) @ b.astype(object) % p
            assert mod_matmul(p, a, b).tolist() == want.tolist()
    assert sorted(c for c in counted if c[0] == "B") == [("B", (4, 12), -2), ("B", (8, 6), -2)]
    assert len([c for c in counted if c[0] == "A"]) == 6


@pytest.mark.parametrize("shape", [(5, 7), (60, 50), (0, 4)])
def test_array_rank_matches_matrix_rank(shape):
    rng = Random(23)
    rows, cols = shape
    left = rand_matrix(GF, rng, rows, 3).tolist()
    right = rand_matrix(GF, rng, 3, cols).tolist()
    entries = [
        [sum(a * right[k][c] for k, a in enumerate(row)) % GF.p for c in range(cols)]
        for row in left
    ]
    A = np.array(entries, dtype=np.int64).reshape(rows, cols)
    before = A.copy()
    assert array_rank(GF, A) == min(rows, 3)
    assert (A == before).all()


@st.composite
def matmul_cases(draw):
    field = draw(st.sampled_from([GF, PrimeField(LARGE_PRIME), QQ]))
    if field is QQ:
        elt = st.one_of(st.just(Fraction(0)), st.fractions(-30, 30, max_denominator=12))
    else:
        elt = st.one_of(st.just(0), st.just(field.p - 1), st.integers(0, field.p - 1))
    n, k, m = (draw(st.integers(0, top)) for top in (4, 12, 4))
    A = [draw(st.lists(elt, min_size=k, max_size=k)) for _ in range(n)]
    B = [draw(st.lists(elt, min_size=m, max_size=m)) for _ in range(k)]
    return field, A, B


@settings(max_examples=80, deadline=None)
@given(matmul_cases())
@example((QQ, [[Fraction(1, 2), Fraction(-2, 3)]], [[Fraction(3, 4)], [Fraction(9, 8)]]))
@example((QQ, [[Fraction(1, 3)], [Fraction(0)]], [[Fraction(3, 1), Fraction(5, 7)]]))
@example((PrimeField(LARGE_PRIME), [[LARGE_PRIME - 1] * 3] * 2, [[LARGE_PRIME - 1]] * 3))
@example((QQ, [[], []], []))
@example((PrimeField(LARGE_PRIME), [[]], []))
def test_field_matmul_matches_nested_loops(case):
    field, A, B = case
    n, k = len(A), len(B)
    m = len(B[0]) if B else 3
    expected = []
    for r in range(n):
        row = []
        for c in range(m):
            acc = field.zero
            for i in range(k):
                acc = field.add(acc, field.mul(A[r][i], B[i][c]))
            row.append(acc)
        expected.append(row)
    got = field_matmul(
        field, field_array(field, A).reshape(n, k), field_array(field, B).reshape(k, m)
    )
    assert got.shape == (n, m) and got.tolist() == expected
    assert got.dtype == (np.int64 if np_modulus(field) else object)
    kind = Fraction if field is QQ else int
    assert all(type(x) is kind for row in got.tolist() for x in row)


def stack_of(field, rng, k, shape):
    """A stack of k arrays of a shape over the field.  Over GF(p) the first
    is all p - 1 (dense: with p large, a sum of its products passes the
    int64 summand bound), the others random; over Q the first has 7-bit
    entries over denominators up to 12, the others 650-bit ones over one
    650-bit denominator each."""
    cells = int(np.prod(shape))
    mats = []
    for j in range(k):
        if isinstance(field, RationalField):
            bits = 7 if j == 0 else 650
            den = rng.randrange(1, 13) if j == 0 else rng.getrandbits(bits) | 1
            entries = [
                Fraction(rng.randrange(-2**bits, 2**bits), den if j else rng.randrange(1, 13))
                for _ in range(cells)
            ]
        elif j == 0:
            entries = [field.p - 1] * cells
        else:
            entries = [field.rand(rng) for _ in range(cells)]
        mats.append(field_array(field, entries).reshape(shape))
    return np.stack(mats)


@pytest.mark.parametrize("p", [7, DEFAULT_PRIME, 4294967311, "QQ"])
def test_stacked_products_match_per_matrix_products(p, monkeypatch):
    """field_matmul and structure_product with a leading batch axis (or,
    for structure_product, a list) equal the products of each matrix of the
    stack, on every array representation:
    int64 (GF(7), the default prime, with dense operands past the summand
    bound), exact ints in object arrays (GF(4294967311)) and fractions.
    Over Q every matrix keeps its own common denominator: the one of small
    entries is not scaled to the other's 650-bit one."""
    field, rng = array_field(p), Random(43)
    kind = Fraction if isinstance(field, RationalField) else int
    dens = []
    real = linalg._fractions

    def spy(f, N, den):
        dens.append(den)
        return real(f, N, den)

    A, B = stack_of(field, rng, 2, (3, 40)), stack_of(field, rng, 2, (40, 5))
    monkeypatch.setattr(linalg, "_fractions", spy)
    got = field_matmul(field, A, B)
    if kind is Fraction:
        assert dens[0].bit_length() < 64 < 1000 < dens[1].bit_length()
    monkeypatch.undo()
    assert got.shape == (2, 3, 5) and got.dtype == A.dtype
    for k in range(2):
        assert got[k].tolist() == field_matmul(field, A[k], B[k]).tolist()
    assert all(type(x) is kind for x in got.ravel().tolist())

    # vectors of a 4-dimensional algebra with random structure constants
    A, B = stack_of(field, rng, 3, (2, 3, 4)), stack_of(field, rng, 3, (3, 2, 4))
    T = stack_of(field, rng, 2, (4, 4, 4))[1]
    got = linalg.structure_product(field, A, T, B)
    assert got.shape == (3, 2, 2, 4)
    # a stack may also be a list of arrays of one shape
    assert linalg.structure_product(field, list(A), T, list(B)).tolist() == got.tolist()
    for k in range(3):
        assert got[k].tolist() == linalg.structure_product(field, A[k], T, B[k]).tolist()
    assert all(type(x) is kind for x in got.ravel().tolist())


def sparse_rows(A):
    """The rows of a 2-D array over a field as ``rank_reaches`` reads them:
    dicts from column to nonzero entry."""
    return [{c: x for c, x in enumerate(row) if x} for row in A.tolist()]


@pytest.mark.parametrize("p", ARRAY_FIELDS)
def test_rank_reaches_matches_array_rank(p):
    """rank_reaches(f, rows, t) == (rank of all the rows >= t) for t around
    the rank, and the row stream is consumed only up to the first row after
    which the rank reaches t."""
    field = array_field(p)
    rng = Random(31)
    for _ in range(12):
        nrows, ncols = rng.randrange(1, 13), rng.randrange(1, 10)
        r = rng.randrange(0, min(nrows, ncols) + 1)
        left = [[field.rand(rng) for _ in range(r)] for _ in range(nrows)]
        right = [[field.rand(rng) for _ in range(ncols)] for _ in range(r)]
        full = field_array(field, list_product(field, left, right, ncols)).reshape(nrows, ncols)
        rows = sparse_rows(full)
        rank = array_rank(field, full)
        for t in (rank - 1, rank, rank + 1):
            consumed = []

            def stream():
                for k, row in enumerate(rows):
                    consumed.append(k)
                    yield row

            reached = rank_reaches(field, stream(), t)
            assert reached == (rank >= t)
            if t <= 0:
                assert not consumed
            elif reached:
                first = next(
                    k for k in range(1, nrows + 1) if array_rank(field, full[:k]) >= t
                )
                assert len(consumed) == first
            else:
                assert len(consumed) == nrows


def _sympy_rank(entries, cols):
    """Reference rank from sympy's DomainMatrix over QQ."""
    from sympy import QQ as SympyQQ
    from sympy.polys.matrices import DomainMatrix

    rows = [[SympyQQ(x.numerator, x.denominator) for x in row] for row in entries]
    return DomainMatrix(rows, (len(entries), cols), SympyQQ).rank()


def _rational_array(entries, cols):
    rows = [[Fraction(x) for x in row] for row in entries]
    return field_array(QQ, rows).reshape(len(entries), cols)


# entries that a reduction mod the check prime loses (multiples of it) or
# cannot take (a multiple of it in a denominator)
P = DEFAULT_PRIME
_MODULAR_TRAPS = [Fraction(P), Fraction(2 * P, 3), Fraction(1, P), Fraction(5, 2 * P)]


@st.composite
def rational_rank_cases(draw):
    """A product L R of rational matrices, so the rank is at most the inner
    dimension; both dimensions at most 9 (under _NP_CELL_THRESHOLD cells) or
    at least 10 (over it)."""
    lo, hi = draw(st.sampled_from([(0, 9), (10, 13)]))
    rows, cols = draw(st.integers(lo, hi)), draw(st.integers(lo, hi))
    inner = draw(st.integers(0, min(rows, cols)))
    elt = st.one_of(
        st.just(Fraction(0)),
        st.sampled_from(_MODULAR_TRAPS),
        st.fractions(-9, 9, max_denominator=9),
    )
    left = [[draw(elt) for _ in range(inner)] for _ in range(rows)]
    right = [[draw(elt) for _ in range(cols)] for _ in range(inner)]
    return list_product(QQ, left, right, cols), cols


@settings(max_examples=60, deadline=None)
@given(rational_rank_cases())
@example(([[Fraction(P), Fraction(0)], [Fraction(0), Fraction(1)]], 2))
@example(([[Fraction(1, P), Fraction(0)], [Fraction(0), Fraction(1)]], 2))
@example(([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1 + P)]], 2))
def test_rational_rank_matches_sympy(case):
    entries, cols = case
    A = _rational_array(entries, cols)
    before = A.copy()
    assert array_rank(QQ, A) == _sympy_rank(entries, cols)
    assert (A == before).all()


_HUGE = 10**60


@st.composite
def fraction_free_cases(draw):
    """A rational matrix of at most 7 x 7, empty shapes included: entries
    drawn directly (numerators and denominators up to 10**60) or as a product
    L R of such entries (rank at most the inner dimension), then some rows
    and columns zeroed."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    elt = st.one_of(
        st.just(Fraction(0)),
        st.sampled_from(_MODULAR_TRAPS),
        st.fractions(-9, 9, max_denominator=9),
        st.builds(Fraction, st.integers(-_HUGE, _HUGE), st.integers(1, _HUGE)),
    )
    if draw(st.booleans()):
        entries = [[draw(elt) for _ in range(cols)] for _ in range(rows)]
    else:
        inner = draw(st.integers(0, min(rows, cols)))
        left = [[draw(elt) for _ in range(inner)] for _ in range(rows)]
        right = [[draw(elt) for _ in range(cols)] for _ in range(inner)]
        entries = list_product(QQ, left, right, cols)
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=rows))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=cols))
    entries = [
        [Fraction(0) if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(entries)
    ]
    return entries, cols


@settings(max_examples=150, deadline=None)
@given(fraction_free_cases())
@example(([[Fraction(P), Fraction(0)], [Fraction(0), Fraction(1)]], 2))
@example(([[Fraction(1, P), Fraction(0)], [Fraction(0), Fraction(1)]], 2))
@example(([], 0))
@example(([], 3))
@example(([[], []], 0))
def test_fraction_free_kernel_matches_sympy(case):
    """The rational kernel against sympy's DomainMatrix over QQ: the RREF rows
    and pivots of rref, the exact elimination rank, array_rank (check prime
    first) and rank_reaches at the rank and one above it."""
    entries, cols = case
    A = _rational_array(entries, cols)
    before = A.copy()
    rank = _sympy_rank(entries, cols)
    R, piv = linalg.rref(QQ, A)
    assert (R.tolist(), piv) == _sympy_rref(QQ, entries, cols)
    assert all(type(x) is Fraction for row in R.tolist() for x in row)
    assert linalg._elimination_rank(QQ, A) == array_rank(QQ, A) == rank
    assert (A == before).all()
    assert rank_reaches(QQ, sparse_rows(A), rank)
    assert not rank_reaches(QQ, sparse_rows(A), rank + 1)


def test_rational_rank_falls_back_when_the_check_prime_drops_it():
    """Full-rank integer matrices whose rank drops mod the check prime: the
    exact elimination still gives the rational rank."""
    small = [[P, 0], [0, 1]]
    assert array_rank(GF, field_array(GF, [[x % P for x in r] for r in small])) == 1
    assert array_rank(QQ, _rational_array(small, 2)) == 2
    # 11 x 11 (over _NP_CELL_THRESHOLD cells): a unit lower-triangular U times
    # an upper-triangular T with one pivot P, so det = P
    rng, n = Random(41), 11

    def triangular(diagonal, filled):
        return [
            [Fraction(diagonal(i) if i == j else rng.randrange(-5, 6) if filled(i, j) else 0)
             for j in range(n)]
            for i in range(n)
        ]

    U = triangular(lambda i: 1, lambda i, j: i > j)
    T = triangular(lambda i: P if i == 4 else 1, lambda i, j: i < j)
    big = list_product(QQ, U, T, n)
    assert array_rank(GF, field_array(GF, [[int(x) % P for x in r] for r in big])) == n - 1
    A = _rational_array(big, n)
    assert A.size >= linalg._NP_CELL_THRESHOLD
    assert array_rank(QQ, A) == _sympy_rank(big, n) == n


def test_rational_rank_falls_back_when_the_check_prime_divides_a_denominator():
    entries = [[Fraction(1, P), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert array_rank(QQ, _rational_array(entries, 2)) == 2
    # the same above the cell threshold, one entry 1/P in an otherwise unimodular matrix
    n = 12
    entries = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    entries[3][3] = Fraction(1, P)
    assert array_rank(QQ, _rational_array(entries, n)) == n


@st.composite
def rank_bounds_cases(draw):
    """(field, arrays): up to three shapes (empty, tall and wide ones
    included), each shared by one to six arrays of their own rank, drawn as a
    product L R and then with some rows and columns zeroed, so that the
    matrices of one stack take different pivot rows.  Entries include 0 and
    p - 1; over Q, multiples of the check prime and of its inverse."""
    p = draw(st.sampled_from([7, GF.p, 2**31 - 1, LARGE_PRIME, "QQ"]))
    field = array_field(p)
    if p == "QQ":
        elt = st.one_of(
            st.just(Fraction(0)),
            st.sampled_from(_MODULAR_TRAPS),
            st.fractions(-9, 9, max_denominator=9),
        )
    else:
        elt = st.one_of(st.just(0), st.just(p - 1), st.integers(0, p - 1))
    arrays = []
    for _ in range(draw(st.integers(1, 3))):
        rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
        for _ in range(draw(st.integers(1, 6))):
            inner = draw(st.integers(0, min(rows, cols)))
            left = [[draw(elt) for _ in range(inner)] for _ in range(rows)]
            right = [[draw(elt) for _ in range(cols)] for _ in range(inner)]
            A = field_array(field, list_product(field, left, right, cols)).reshape(rows, cols)
            A[sorted(draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=rows)))] = field.zero
            A[:, sorted(draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=cols)))] = field.zero
            arrays.append(A)
    return field, draw(st.permutations(arrays))


def _sympy_ranks(field, arrays):
    return [len(_sympy_rref(field, A.tolist(), A.shape[1])[1]) for A in arrays]


@settings(max_examples=80, deadline=None)
@given(rank_bounds_cases())
def test_rank_bounds_match_rank_bound_and_sympy(case):
    """rank_bounds gives what rank_bound gives per image, stacked or not, and
    leaves the images alone: over GF(p) the rank (sympy's DomainMatrix), over
    Q a lower bound, exact exactly when it is min(rows, cols)."""
    field, arrays = case
    images = [linalg.check_image(field, A) for A in arrays]
    before = [I.copy() for I in images]
    bounds = linalg.rank_bounds(field, images)
    assert bounds == [linalg.rank_bound(field, I) for I in images]
    assert all((I == B).all() for I, B in zip(images, before))
    for (r, exact), rank, A in zip(bounds, _sympy_ranks(field, arrays), arrays):
        if field == QQ:
            assert r <= rank and exact == (r == min(A.shape))
            assert r == rank or not exact
        else:
            assert (r, exact) == (rank, True)


def _count_stacked(monkeypatch):
    """The number of matrices each stacked elimination ranks, one entry per call."""
    sizes = []
    real = linalg._stacked_ranks

    def counted(p, S):
        sizes.append(len(S))
        return real(p, S)

    monkeypatch.setattr(linalg, "_stacked_ranks", counted)
    return sizes


def test_rank_bounds_stacks_only_groups_worth_a_stack(monkeypatch):
    """One stack per int64 shape of two or more images and at least
    _NP_CELL_THRESHOLD cells in all; a single image, a small group and
    object arrays (p >= 2**31) keep the per-image path."""
    rng = np.random.default_rng(5)
    sizes = _count_stacked(monkeypatch)
    for p, shapes, stacks in (
        (GF.p, [(10, 12)], []),  # a group of one
        (GF.p, [(2, 2)] * 24, []),  # 96 cells in all
        (GF.p, [(2, 2)] * 25 + [(12, 10)] * 3 + [(0, 9)] * 30, [25, 3]),
        (LARGE_PRIME, [(12, 10)] * 3, []),
    ):
        field = PrimeField(p)
        images = [field_array(field, rng.integers(0, 50, s).tolist()).reshape(s) for s in shapes]
        sizes.clear()
        assert linalg.rank_bounds(field, images) == [linalg.rank_bound(field, I) for I in images]
        assert sorted(sizes) == sorted(stacks), (p, shapes)


def test_rank_bounds_at_the_int64_edge_and_for_unlucky_primes(monkeypatch):
    """At p = 2**31 - 1 a stack is reduced every two updates, since
    3 (p - 1)**2 > 2**63: in the first matrix below the last row takes three
    updates of (p - 1)**2 each in its last column, which must not wrap (its
    rank is 3); the others have every entry p - 1 but for a varying diagonal.
    Over Q the unlucky images of [[p, 0], [0, 1]] and [[1/p, 0], [0, 1]] rank
    1 in a stack, not exact, as does a 12 x 12 unimodular matrix with one
    entry p."""
    sizes = _count_stacked(monkeypatch)
    p = 2**31 - 1
    field = PrimeField(p)
    q = p - 1
    # rows 0-2 pivot in turn and the zero rows fill their places, so row 3,
    # -(row 0 + row 1 + row 2), is cleared last, by three products q * q
    edge = [[1, 0, 0, q], [0, 1, 0, q], [0, 0, 1, q], [q, q, q, 3]] + [[0] * 4] * 3
    images = [field_array(field, edge)] * 4
    assert linalg.rank_bounds(field, images) == [(3, True)] * 4 and sizes == [4]
    images = []
    for k in range(12):
        A = np.full((12, 12), q, dtype=np.int64)
        A[range(k), range(k)] = 1
        images.append(A)
    sizes.clear()
    bounds = linalg.rank_bounds(field, images)
    assert bounds == [(min(k + 1, 12), True) for k in range(12)]
    assert [b[0] for b in bounds] == _sympy_ranks(field, images) and sizes == [12]
    sizes.clear()
    unlucky = [[[P, 0], [0, 1]], [[Fraction(1, P), 0], [0, 1]]] * 13 + [[[1, 0], [0, 1]]]
    twelve = np.eye(12, dtype=object) + Fraction(0)
    twelve[3, 3] = Fraction(P)
    arrays = [_rational_array(e, 2) for e in unlucky] + [twelve, twelve + 0]
    bounds = linalg.rank_bounds(QQ, [linalg.check_image(QQ, A) for A in arrays])
    assert bounds == [(1, False)] * 26 + [(2, True), (11, False), (11, False)]
    assert sorted(sizes) == [2, 27]
    assert [array_rank(QQ, A) for A in arrays] == [2] * 27 + [12, 12]


def test_only_linalg_names_the_int64_decision():
    """np_modulus and mod_matmul, which choose and use the int64 arrays, the
    choice between the list and sparse-row eliminations (_echelon,
    _NP_CELL_THRESHOLD, _on_array, _rref_int, _rref_sparse) and the check
    prime of rational ranks (_CHECK_FIELD) are imported or named in
    linalg.py only."""
    decision = {
        "np_modulus", "mod_matmul", "_echelon", "_NP_CELL_THRESHOLD", "_on_array",
        "_rref_int", "_rref_sparse", "_CHECK_FIELD",
    }
    seen = {}
    for path in sorted(Path(totref.__file__).parent.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(a.asname or a.name for a in node.names)
                names.update(a.name for a in node.names)
            elif isinstance(node, ast.FunctionDef):
                names.add(node.name)
        if names & decision:
            seen[path.name] = names & decision
    assert seen == {"linalg.py": decision}


def test_frozen_arrays_keep_their_integer_forms_only_while_they_live(c4):
    """Tables, quotient projections and window differentials are frozen:
    they refuse assignment.  Over Q their integer forms and check images are
    kept while they live and dropped with them: nothing is left once the
    ring and the window are collected."""
    import gc

    from totref import EzdPair, ezd_complex, reduction_chain

    kept = set(linalg._FORMS) | set(linalg._IMAGES)
    chain = reduction_chain(c4, cutoff=3, field=QQ)
    R = chain.bottom
    x, y = R.generators()
    w = ezd_complex(R, EzdPair(x + y, x - y, True), half_length=3)
    frozen = [R.np_table(1, 1), chain.steps[0]._proj[1], w.diff(w.lo + 1)]
    for A in frozen:
        with pytest.raises(ValueError, match="read-only"):
            A[(0,) * A.ndim] = QQ.one
    assert w.graded_exactness().exact
    new = (set(linalg._FORMS) | set(linalg._IMAGES)) - kept
    assert {id(R.np_table(1, 1)), id(w.diff(w.lo + 1))} <= new
    # the integer form of a frozen array is built once, reshapes included
    T = R.np_table(1, 1)
    N, d = linalg._integer_form(T.reshape(T.shape[0], -1))
    assert N.base is linalg._FORMS[id(T)][0] and d == 1
    del chain, R, x, y, w, frozen, A, T, N
    gc.collect()
    assert not (set(linalg._FORMS) | set(linalg._IMAGES)) - kept
