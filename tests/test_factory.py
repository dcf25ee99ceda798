import functools
import sys
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import totref.factory as factory
import totref.linalg as linalg
from totref import (
    DEFAULT_PRIME,
    FactoryError,
    PrimeField,
    RationalField,
    Subspace,
    build_special_ring,
    build_window,
    canonical_blocks,
    canonical_window,
    distinct_modules,
    extend_backward,
    extend_forward,
    full_certification,
    linear_matrix,
    random_blocks,
)
from totref.factory import ExtensionError, PartialWindowError, _injective, induced_matrix, make_block

from conftest import (
    ARRAY_FIELDS, array_field, count_eliminations, element_rows, fraction_det, list_product,
)


def test_special_ring_properties(special_ring):
    assert list(special_ring.ring.dims) == [1, 8, 7, 0]
    assert special_ring.a1.dim == 4 and special_ring.b1.dim == 4
    assert special_ring.a2.dim == 4 and special_ring.b2.dim == 4
    assert special_ring.a1.sum(special_ring.b1).dim == 8
    assert special_ring.a2.sum(special_ring.b2).dim == 7
    assert special_ring.a2.intersection(special_ring.b2).dim == 1


def test_delta_is_block_product(special_ring):
    R = special_ring.ring
    lhs = R.linear_form({"x1": 1, "x2": 1}) * R.linear_form({"y1": 1, "y2": 1})
    rhs = R.linear_form({"x3": 1, "x4": 1}) * R.linear_form({"y3": 1, "y4": 1})
    assert (lhs + rhs).is_zero()  # (x1+x2)(y1+y2) = -(x3+x4)(y3+y4)
    # delta is normalized with leading coefficient one and spans the overlap
    overlap = special_ring.a2.intersection(special_ring.b2)
    assert overlap.contains(list(special_ring.delta.coords))
    assert list(special_ring.delta.coords) == list(lhs.coords)
    # the formula (sum of all x)(sum of all y) is itself a relation, hence zero
    sx = R.linear_form({f"x{i}": 1 for i in range(1, 5)})
    sy = R.linear_form({f"y{j}": 1 for j in range(1, 5)})
    assert (sx * sy).is_zero()


def test_special_ring_rejects_bad_partition(ten_vertex_g):
    from totref import reduction_chain
    from totref.factory import SpecialRing

    chain = reduction_chain(ten_vertex_g)
    with pytest.raises(FactoryError):
        SpecialRing(chain, ("x1", "x2", "y1", "y3"), ("x3", "x4", "y2", "y4"))
    # y5 meets x1 and x2: their sides decompose R_1 and R_2 but do not annihilate
    with pytest.raises(FactoryError, match="^the ideal product ab is nonzero$"):
        SpecialRing(chain, ("x1", "x2", "y1", "y2"), ("x3", "x4", "y3", "y5"))


def coefficient_layout_matrix(a, b, c, d):
    """The 8x8 coefficient matrix in the basis order (x1, y1, x2, y2):
    rows are the coefficient equations of x1y1, x2y1, x2y2, x1y2 for both
    output components, unknowns (f1..f4, g1..g4)."""
    z = 0
    return [
        [a[1], a[0], z, z, b[1], b[0], z, z],
        [c[1], c[0], z, z, d[1], d[0], z, z],
        [z, a[2], a[1], z, z, b[2], b[1], z],
        [z, c[2], c[1], z, z, d[2], d[1], z],
        [z, z, a[3], a[2], z, z, b[3], b[2]],
        [z, z, c[3], c[2], z, z, d[3], d[2]],
        [a[3], z, z, a[0], b[3], z, z, b[0]],
        [c[3], z, z, c[0], d[3], z, z, d[0]],
    ]


def test_canonical_even_block_determinant_frozen():
    # coefficients of the even A block in the (x1, y1, x2, y2) order
    a = [1, 1, 1, 1]       # x1 + x2 + y1 + y2
    b = [1, 1, -1, -1]     # x1 - x2 + y1 - y2
    c = [1, 1, -1, -1]
    d = [1, -1, 1, -1]     # x1 + x2 - y1 - y2
    M = coefficient_layout_matrix(a, b, c, d)
    assert fraction_det(M) == Fraction(-64)
    # odd parity A block
    b_odd = [1, -1, -1, 1]  # x1 - x2 - y1 + y2
    M_odd = coefficient_layout_matrix(a, b_odd, b_odd, d)
    assert fraction_det(M_odd) == Fraction(-64)


def test_injectivity_canonical_blocks_all_four(special_ring):
    for parity in (0, 1):
        blk = canonical_blocks(special_ring, parity)
        assert blk.all_injective
        # cross-check the flags against direct rank computations
        for side, mat in (("a", blk.A), ("b", blk.B)):
            (m8, m8t), scale = induced_matrix(special_ring, mat, side)
            assert scale == 1  # over GF(p) the maps themselves
            assert _injective(special_ring, m8) and _injective(special_ring, m8t)
            assert linalg.array_rank(special_ring.ring.field, m8) == 8


def test_induced_matrix_det_matches_independent_oracle(special_ring):
    # rank-8 over GF(p) agrees with a nonzero exact determinant over Q
    blk = canonical_blocks(special_ring, 0)
    (m8, _), _ = induced_matrix(special_ring, blk.A, "a")
    p = special_ring.ring.field.p
    # entries live in {0, 1, p-1}: map back to signed integers for the oracle
    signed = [[x if x <= 1 else x - p for x in row] for row in m8.tolist()]
    det = fraction_det(signed)
    assert det != 0
    assert abs(det) == 64


def test_injectivity_fails_for_equal_columns(special_ring):
    R = special_ring.ring
    col = [R.generator("x1") + R.generator("y1"), R.generator("x2")]
    A = linear_matrix(R, [[col[0], col[0]], [col[1], col[1]]])
    (M, _), _ = induced_matrix(special_ring, A, "a")
    assert not _injective(special_ring, M)


def test_injectivity_rejects_wrong_side_entry():
    """The membership check on the side maps' product: over the rationals it
    reads the integer product (``linalg.scaled_matmul``), whose zeros are
    the quotient's."""
    for p in (DEFAULT_PRIME, "QQ"):
        ring = special_ring_over(p)
        R = ring.ring
        x1, x2, x3, x4, y1, y2, y3, y4 = (
            R.generator(v) for v in ("x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4")
        )
        A = linear_matrix(R, [[x3, x1], [y1, y2]])
        B = linear_matrix(R, [[x3, x4], [y3 + y1, y4]])
        # one check serves the matrix and its transpose (the same four entries)
        with pytest.raises(FactoryError):
            induced_matrix(ring, A, "a")  # x3 is a b-side generator
        with pytest.raises(FactoryError):
            induced_matrix(ring, B, "b")  # y1 is an a-side generator
        # with x2 in place of x3 every entry of A lies in side a
        (M, Mt), scale = induced_matrix(ring, linear_matrix(R, [[x2, x1], [y1, y2]]), "a")
        assert M.shape == Mt.shape == (8, 8) and scale >= 1


def induced_matrix_oracle(ring, mat, side, transpose=False):
    """induced_matrix column by column: one list_product and one solve per
    column and output row, after a Subspace membership test of every entry."""
    s = ring.side(side)
    m = len(s.basis1)
    f = ring.ring.field
    sub = ring.a1 if side == "a" else ring.b1
    if not all(sub.contains(list(e.coords)) for row in mat for e in row):
        raise FactoryError("entry outside side_1")
    if transpose:
        mat = [[mat[c][r] for c in range(2)] for r in range(2)]
    columns = []
    for slot in range(2):
        for g in s.basis1:
            outs = []
            for r in range(2):
                rhs = linalg.field_array(f, [list_product(ring.ring, mat[r][slot], g).coords]).T
                coords = linalg.solve(f, s.cols2, rhs)
                if coords is None:
                    raise FactoryError("product outside side_2")
                outs.extend(coords[:, 0].tolist())
            columns.append(outs)
    rows = [[columns[j][i] for j in range(2 * m)] for i in range(2 * m)]
    return linalg.field_array(f, rows).reshape(2 * m, 2 * m)


@functools.lru_cache(maxsize=None)
def special_ring_over(p):
    return build_special_ring(field=array_field(p))


@pytest.mark.parametrize("p", [DEFAULT_PRIME, "QQ", 4294967311])
def test_special_ring_pieces_match_the_greedy_list_products(p):
    """a_2, b_2, the side_2 bases and delta as the element loops gave them:
    the products g h of each side's generators, h after g, taken greedily
    when they enlarge the span of those kept (by list_product), and ab = 0
    pair by pair."""
    ring = special_ring_over(p)
    R = ring.ring
    f = R.field

    def greedy(gens):
        kept = []
        for i, g in enumerate(gens):
            for h in gens[i:]:
                coords = list(list_product(R, g, h).coords)
                if Subspace.from_vectors(f, R.dims[2], kept + [coords]).dim > len(kept):
                    kept.append(coords)
        return kept

    a2, b2 = greedy(ring.a_gens), greedy(ring.b_gens)
    assert ring.side("a").cols2.T.tolist() == a2 and ring.side("b").cols2.T.tolist() == b2
    assert ring.a2 == Subspace.from_vectors(f, R.dims[2], a2)
    assert ring.b2 == Subspace.from_vectors(f, R.dims[2], b2)
    assert all(list_product(R, ga, gb).is_zero() for ga in ring.a_gens for gb in ring.b_gens)
    overlap = Subspace.from_vectors(f, R.dims[2], a2).intersection(Subspace.from_vectors(f, R.dims[2], b2))
    assert ring.delta.coords == overlap.basis[0]


@pytest.mark.parametrize("p", [DEFAULT_PRIME, "QQ", 4294967311])
def test_special_ring_multiplies_each_side_once(monkeypatch, ten_vertex_g, p):
    """Construction takes one ``times`` per side, the products e_i g_k, and
    reads the degree-two bases and ab = 0 off them: no ``matrix_product``."""
    import totref.complexes as complexes
    from totref import GradedAlgebra, SpecialRing, reduction_chain

    chain = reduction_chain(ten_vertex_g, field=array_field(p))
    calls, real = [], GradedAlgebra.times

    def times(self, V, d, t, *args, **kwargs):
        calls.append((V.shape[0], d, t))
        return real(self, V, d, t, *args, **kwargs)

    def no_product(*args):
        raise AssertionError("matrix_product while a special ring is constructed")

    monkeypatch.setattr(GradedAlgebra, "times", times)
    monkeypatch.setattr(complexes, "structure_product", no_product)
    ring = SpecialRing(chain, ("x1", "x2", "y1", "y2"), ("x3", "x4", "y3", "y4"))
    assert calls == [(4, 1, 1), (4, 1, 1)]
    assert ring.to_json() == special_ring_over(p).to_json()


def side_element(ring, side, coords):
    """sum_k coords[k] g_k by element arithmetic, independent of the arrays."""
    out = ring.ring.zero(1)
    for c, g in zip(coords, ring.side(side).basis1):
        out = out + g.scale(c)
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(ARRAY_FIELDS),
    st.sampled_from("ab"),
    st.booleans(),
    st.integers(0, 2**32),
    st.sampled_from([None, 0, 1, 2, 3]),
)
def test_induced_matrix_matches_per_column_solves(p, side, transpose, seed, stray):
    """Random side elements, on both sides, with and without transpose; with
    stray set, that entry also gets a component on the other side, which
    both constructions must refuse.  induced_matrix gives the maps over a
    scale s (integer arrays over the rationals): M / s is the oracle's."""
    ring = special_ring_over(p)
    R = ring.ring
    f, rng = R.field, Random(seed)
    m = len(ring.side(side).basis1)
    coords = [[f.zero if rng.random() < 0.2 else f.rand(rng) for _ in range(m)] for _ in range(4)]
    entries = [side_element(ring, side, c) for c in coords]
    forms = ring.side_forms(side, linalg.field_array(f, coords).reshape(4, m))
    assert element_rows(R, forms.reshape(2, 2, R.dims[1])) == [entries[:2], entries[2:]]
    if stray is not None:
        other = "b" if side == "a" else "a"
        extra = [f.rand(rng) or f.one for _ in range(len(ring.side(other).basis1))]
        entries[stray] = entries[stray] + side_element(ring, other, extra)
    mat = [entries[:2], entries[2:]]
    if stray is not None:
        with pytest.raises(FactoryError):
            induced_matrix_oracle(ring, mat, side, transpose)
        with pytest.raises(FactoryError):
            induced_matrix(ring, linear_matrix(R, mat), side)
    else:
        maps, scale = induced_matrix(ring, linear_matrix(R, mat), side)
        inv = f.inv(f.coerce(scale))
        quotient = [[f.mul(u, inv) for u in row] for row in maps[transpose].tolist()]
        assert np.array_equal(
            linalg.field_array(f, quotient), induced_matrix_oracle(ring, mat, side, transpose)
        )


def test_random_blocks_pass_and_deterministic(special_ring):
    b1 = random_blocks(special_ring, Random(5))
    b2 = random_blocks(special_ring, Random(5))
    assert b1.all_injective
    assert np.array_equal(b1.A, b2.A) and np.array_equal(b1.B, b2.B)


def block_column_span(ring, block):
    """The span of the two columns of A + B, each in (R_1)^2."""
    f = ring.ring.field
    n1 = ring.ring.dims[1]
    cols = block.combined.transpose(1, 0, 2).reshape(2, 2 * n1)
    return Subspace.from_vectors(f, 2 * n1, cols)


def test_extension_matches_odd_blocks_up_to_column_scaling(special_ring):
    even = canonical_blocks(special_ring, 0)
    odd = canonical_blocks(special_ring, 1)
    ext = extend_forward(special_ring, even)
    assert ext.all_injective
    assert block_column_span(special_ring, ext) == block_column_span(special_ring, odd)
    # but not the literal matrices: columns come out rescaled
    assert not np.array_equal(ext.combined, odd.combined)


def test_extension_kernel_dimension_two(special_ring):
    even = canonical_blocks(special_ring, 0)
    from totref.factory import _window_from_blocks

    w = _window_from_blocks(special_ring, {0: even, 1: extend_forward(special_ring, even)})
    f = special_ring.ring.field
    blk = w._block_array(0, 1)  # (R_1)^2 -> (R_2)^2
    assert blk.shape[1] - linalg.array_rank(f, blk) == 2
    # the extension's columns land in that kernel
    ext = extend_forward(special_ring, even)
    span = block_column_span(special_ring, ext)
    ker = linalg.kernel_basis(f, blk)
    assert span.sum(ker) == ker


def test_extension_solution_unique(special_ring):
    # the A-side system is invertible, so the column solves are unique
    even = canonical_blocks(special_ring, 0)
    (m8, _), _ = induced_matrix(special_ring, even.A, "a")
    assert linalg.kernel_basis(special_ring.ring.field, m8).dim == 0


def test_backward_then_forward_round_trip(special_ring):
    even = canonical_blocks(special_ring, 0)
    back = extend_backward(special_ring, even)
    assert back.all_injective
    forward_again = extend_forward(special_ring, back)
    assert block_column_span(special_ring, forward_again) == block_column_span(special_ring, even)


def test_extension_requires_flags(special_ring):
    R = special_ring.ring
    # a block with singular B (two equal columns)
    B = linear_matrix(
        R, [[R.generator("x3"), R.generator("x3")], [R.generator("x4"), R.generator("x4")]]
    )
    A = canonical_blocks(special_ring, 0).A
    blk = make_block(special_ring, 0, A, B)
    assert not blk.all_injective
    with pytest.raises(ExtensionError):
        extend_forward(special_ring, blk)
    with pytest.raises(ExtensionError):
        extend_backward(special_ring, blk)
    with pytest.raises(PartialWindowError):
        build_window(special_ring, blk, 1, 1)


def test_canonical_window_certified(special_ring):
    w, rep = canonical_window(special_ring, 3, 3)
    assert len(w.diffs) == 7
    assert rep.certified
    assert w.periodic.period == 2 and w.periodic.verified
    assert all(v == 2 for v in rep.kernel_dims.values())
    assert full_certification(w.dual()).certified


def test_build_window_random_certified(special_ring):
    start = random_blocks(special_ring, Random(12))
    w, rep = build_window(special_ring, start, 2, 2)
    assert rep.certified
    assert list(w.betti) == [2] * 6
    assert w.lo == -3 and w.hi == 2


def _callers():
    """The names of the functions on the stack above the caller's caller."""
    frame, names = sys._getframe(2), set()
    while frame is not None:
        names.add(frame.f_code.co_name)
        frame = frame.f_back
    return names


@pytest.mark.parametrize("p", [DEFAULT_PRIME, "QQ"])
def test_window_builds_each_induced_map_once(monkeypatch, p):
    """build_window from the canonical start block, 4 steps each way: 9
    blocks, each with one product of its entries with Side.maps per side (18
    in all, over one scale, none while a column system is solved: the
    extensions solve the maps their block kept), 16 solves (two per step)
    and 36 injectivity ranks (four per block)."""
    ring = special_ring_over(p)
    side_maps = [ring.side(s).maps for s in "ab"]
    products, solves, ranks = [], [], []
    real_matmul, real_solve, real_rank = factory.scaled_matmul, factory.solve, factory.array_rank

    def matmul(field, A, B):
        if any(B is S for S in side_maps):
            products.append(_callers())
        return real_matmul(field, A, B)

    def solve(field, A, B):
        solves.append(A.shape)
        return real_solve(field, A, B)

    def rank(field, A):
        if "_certify" not in _callers():
            ranks.append(A.shape)
        return real_rank(field, A)

    monkeypatch.setattr(factory, "scaled_matmul", matmul)
    monkeypatch.setattr(factory, "solve", solve)
    monkeypatch.setattr(factory, "array_rank", rank)
    _, rep = build_window(ring, canonical_blocks(ring, 0), 4, 4)
    assert rep.certified and len(rep.blocks) == 9
    assert len(products) == 18 and all("make_block" in names for names in products)
    assert not any("_solve_columns" in names for names in products)
    assert solves == [(8, 8)] * 16
    assert ranks == [(8, 8)] * 36


@pytest.mark.parametrize("p", [DEFAULT_PRIME, "QQ"])
def test_corrupted_solve_fails_the_composition_check(monkeypatch, p):
    """One entry of one column solve off by one: the step's composition
    check refuses the block, in either direction, so the kept induced maps
    do not let a wrong solution through."""
    ring = special_ring_over(p)
    f = ring.ring.field
    start = random_blocks(ring, Random(3))
    real, calls = factory.solve, []

    def corrupt(field, A, B):
        X = real(field, A, B)
        if not calls:
            X[0, 0] = f.add(X[0, 0], f.one)
        calls.append(1)
        return X

    monkeypatch.setattr(factory, "solve", corrupt)
    for extend in (extend_forward, extend_backward):
        calls.clear()
        with pytest.raises(ExtensionError, match="does not compose to zero"):
            extend(ring, start)
    monkeypatch.setattr(factory, "solve", real)
    assert extend_forward(ring, start).all_injective and extend_backward(ring, start).all_injective


def test_rational_factory_ranks_no_full_rank_block_in_fractions(monkeypatch):
    """Every block a rational factory window ranks is full rank (the 8 x 8
    induced maps of the sampled and extended blocks, and the window blocks),
    so the check prime certifies each one and array_rank never eliminates in
    Fractions."""
    ring = special_ring_over("QQ")
    exact = count_eliminations(monkeypatch, rational_ranks_only=True)
    w, rep = build_window(ring, random_blocks(ring, Random(3)), 2, 2)
    assert rep.certified and w.algebra.field.kind == "qq"
    assert exact == []


@pytest.mark.parametrize("p", [7, DEFAULT_PRIME, "QQ"])
def test_certify_reads_kernel_dims_off_the_exactness_records(monkeypatch, p):
    """kernel_dims equal the rank of every block (n, 1), with one rank bound
    in _certify: the image of the block of the last differential, the only
    one that no exactness record ranked.  The bound is full, so no block is
    assembled over the field for an exact rank."""
    ring = special_ring_over(p)
    f = ring.ring.field
    bounds, exact = [], []

    def spy(calls, real):
        def counting(field, A):
            # make_block ranks each induced matrix through array_rank too
            if sys._getframe(1).f_code.co_name == "_certify":
                calls.append(A.shape)
            return real(field, A)
        return counting

    monkeypatch.setattr(factory, "rank_bound", spy(bounds, linalg.rank_bound))
    monkeypatch.setattr(factory, "array_rank", spy(exact, linalg.array_rank))
    for make in (
        lambda: canonical_window(ring, 2, 2),
        lambda: build_window(ring, random_blocks(ring, Random(14)), 2, 1),
        lambda: build_window(ring, random_blocks(ring, Random(15)), 1, 3),
    ):
        bounds.clear()
        w, rep = make()
        assert bounds == [(14, 16)] and exact == []
        expected = {}
        for n in range(w.lo + 1, w.hi + 1):
            blk = w._block_array(n, 1)
            expected[n] = blk.shape[1] - linalg.array_rank(f, blk)
        assert rep.kernel_dims == expected


def _window_outcome(window, report):
    flags = {n: (b.inj_a, b.inj_at, b.inj_b, b.inj_bt) for n, b in report.blocks.items()}
    return flags, report.kernel_dims, window.to_json(), report.to_json()


@pytest.mark.parametrize("check_prime", [2, 3])
def test_rational_windows_same_through_the_exact_fallbacks(monkeypatch, check_prime):
    """With a tiny check prime many rank bounds of a rational window are not
    full (the prime divides a maximal minor, or the scale of an integer
    induced map), so the injectivity ranks and _certify's uncovered block
    fall back to exact elimination: the flags, kernel dims, window and
    report are those at the default check prime.  The rings are built fresh
    on each side, since the check images of frozen arrays are kept."""
    makes = {
        "random": lambda ring: build_window(ring, random_blocks(ring, Random(7)), 2, 2),
        "canonical": lambda ring: canonical_window(ring, 2, 2),
    }
    expected = {
        name: _window_outcome(*make(build_special_ring(field=RationalField())))
        for name, make in makes.items()
    }
    monkeypatch.setattr(linalg, "_CHECK_FIELD", PrimeField(check_prime))
    exact, real = [], linalg._elimination_rank

    def spy(field, A):
        if field.kind == "qq":
            exact.append(sys._getframe(2).f_code.co_name)  # array_rank's caller
        return real(field, A)

    monkeypatch.setattr(linalg, "_elimination_rank", spy)
    for name, make in makes.items():
        exact.clear()
        ring = build_special_ring(field=RationalField())
        assert _window_outcome(*make(ring)) == expected[name]
        if name == "random" or check_prime == 2:  # GF(3) divides no canonical minor
            assert "_injective" in exact and "_certify" in exact
    # negative control: two equal columns, not injective through the fallback
    R = ring.ring
    col = [R.generator("x1") + R.generator("y1"), R.generator("x2")]
    (M, _), _ = induced_matrix(ring, linear_matrix(R, [[col[0], col[0]], [col[1], col[1]]]), "a")
    exact.clear()
    assert not _injective(ring, M) and exact == ["_injective"]


def test_distinct_modules(special_ring):
    w1, _ = build_window(special_ring, random_blocks(special_ring, Random(31)), 1, 1)
    w2, _ = build_window(special_ring, random_blocks(special_ring, Random(32)), 1, 1)
    assert distinct_modules(special_ring, w1, w2)
    assert not distinct_modules(special_ring, w1, w1)


def test_rational_field_special_ring():
    ring = build_special_ring(field=RationalField())
    blk = canonical_blocks(ring, 0)
    assert blk.all_injective
    nxt = extend_forward(ring, blk)
    assert nxt.all_injective


def test_subspace_intersection_example_from_ring(special_ring):
    # the degree-2 overlap inside R_2 is one dimensional (exactla example)
    assert special_ring.a2.intersection(special_ring.b2).dim == 1
    assert special_ring.a2.sum(special_ring.b2).dim == 7


def test_ten_vertex_lift_betti_doubles_twice(ten_vertex_g, gf):
    # factory window lifted through the chain: betti 2 -> 4 -> 8
    from totref import lift_through_sequence, reduction_chain
    from totref.factory import SpecialRing

    chain = reduction_chain(ten_vertex_g, cutoff=5, field=gf)
    ring = SpecialRing(chain, ("x1", "x2", "y1", "y2"), ("x3", "x4", "y3", "y4"))
    w, rep = canonical_window(ring, 2, 2)
    assert rep.certified
    final, steps = lift_through_sequence(w, [chain.steps[1], chain.steps[0]])
    assert [set(s.window.betti) for s in steps] == [{4}, {8}]
    assert all(s.certified for s in steps)
