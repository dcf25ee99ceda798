import functools
import json
from itertools import accumulate, combinations_with_replacement
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from totref import (
    DEFAULT_PRIME,
    ComplexError,
    FreeComplexWindow,
    Graph,
    RationalField,
    algebra_from_relations,
    ezd_complex,
    find_ezd,
    fitting_support,
    full_certification,
    indecomposability_certificate,
    linear_matrix,
    reduction_chain,
    stanley_reisner,
    ten_vertex_graph,
)
from totref.analysis import EzdPair
from totref.complexes import _triangular_pieces, graded_block, matrix_product
from totref.linalg import (
    array_rank, field_array, field_reduce, image_matmul, kernel_basis, rank_bounds,
)

from conftest import (
    ARRAY_FIELDS,
    _sympy_rref,
    array_field,
    count_eliminations,
    dump_canonical,
    element_rows,
    list_product,
    naive_exactness,
)


@pytest.fixture(scope="module")
def xy_pair(c4_reduction):
    x, y = c4_reduction.generators()
    return x, y


def window_from_entries(R, entries, lo=None):
    """1x1 window from a list of linear elements."""
    k = len(entries)
    lo = -(k // 2) if lo is None else lo
    hi = lo + k
    return FreeComplexWindow(R, lo, hi, [1] * (k + 1), [[[e]] for e in entries], base_twist=lo)


def test_ezd_complex_periods(c4_reduction, xy_pair):
    x, y = xy_pair
    w1 = ezd_complex(c4_reduction, EzdPair(x, x, True), half_length=3)
    assert w1.periodic.period == 1 and w1.periodic.verified
    assert full_certification(w1).certified
    w2 = ezd_complex(c4_reduction, EzdPair(x + y, x - y, True), half_length=3)
    assert w2.periodic.period == 2 and w2.periodic.verified
    assert full_certification(w2).certified


def test_ezd_complex_rejects_uncertified(c4_reduction, xy_pair):
    x, y = xy_pair
    with pytest.raises(ComplexError):
        ezd_complex(c4_reduction, EzdPair(x, y, False), half_length=2)


def test_compose_check_negative_control(c4_reduction, xy_pair):
    x, y = xy_pair
    good = window_from_entries(c4_reduction, [x, x, x, x])
    assert good.compose_check()
    perturbed = window_from_entries(c4_reduction, [x, x, y, x])
    assert not perturbed.compose_check()


def test_minimal_holds_by_construction(c4_reduction, xy_pair):
    """A differential holds only the coordinates of linear forms, so every
    window is minimal: the boundary that turns elements into arrays refuses a
    unit (degree-0) entry, and one of degree 2."""
    x, y = xy_pair
    R = c4_reduction
    assert full_certification(window_from_entries(R, [x, y, x])).minimal
    assert full_certification(window_from_entries(R, [x], lo=0)).minimal  # no interior index
    for entry in (R.one(), x * y):
        with pytest.raises(ComplexError, match="degree 1"):
            window_from_entries(R, [entry], lo=0)
        with pytest.raises(ComplexError, match="degree 1"):
            linear_matrix(R, [[x], [entry]])


def test_exactness_negative_control_non_ezd_pair(gf):
    # a = b = x over k[x,y]/(x^2, y^2, xy): composes but is not exact
    R = algebra_from_relations(
        ["x", "y"], [{(2, 0): 1}, {(0, 2): 1}, {(1, 1): 1}], 3, field=gf
    )
    x = R.generator("x")
    w = window_from_entries(R, [x, x, x, x])
    assert w.compose_check()
    rep = w.graded_exactness()
    assert not rep.exact
    assert rep.failures()


def test_graded_exactness_matches_naive_oracle(c4_reduction, gf):
    R = c4_reduction
    rng = Random(77)
    m2zero = algebra_from_relations(
        ["x", "y"], [{(2, 0): 1}, {(0, 2): 1}, {(1, 1): 1}], 3, field=gf
    )
    for ring in (R, m2zero):
        for trial in range(12):
            k = rng.randrange(3, 5)
            entries = [ring.random_linear(rng) for _ in range(k)]
            w = window_from_entries(ring, entries)
            if not w.compose_check():
                continue
            rep = w.graded_exactness()
            oracle = naive_exactness(w)
            got = {(r.index, r.degree): r.exact for r in rep.records}
            for key, expected in oracle.items():
                assert got[key] == expected, key
    # and on random 2x2 windows built from certified ezd blocks
    pair = find_ezd(R, "bipartite-canonical", trials=32, rng=Random(5), x_labels={"x1", "x2"})
    a, b = pair.a, pair.b
    z = R.zero(1)
    d_even = [[a, z], [z, a]]
    d_odd = [[b, z], [z, b]]
    w = FreeComplexWindow(R, -2, 2, [2] * 5, [d_even, d_odd, d_even, d_odd], base_twist=-2)
    rep = w.graded_exactness()
    oracle = naive_exactness(w)
    assert rep.exact and all(oracle.values())


@pytest.mark.parametrize(
    "second, composes, exact, fallback",
    [
        ({"y": 1}, True, True, False),
        ({"y": DEFAULT_PRIME}, True, True, True),
        ({"x": DEFAULT_PRIME, "y": 1}, False, False, True),
    ],
    ids=["exact", "vanishes-mod-p", "composes-only-mod-p"],
)
def test_rational_pairwise_ranks_match_exact_ranks(monkeypatch, second, composes, exact, fallback):
    """Over Q[x, y]/(xy), which is not Artinian, the window x, y, x, y is exact
    and every block of degree >= 1 is rank-deficient: each record is certified
    by two mod-p lower bounds summing to cols, with no Fraction elimination.
    With p*y for the second entry the window is still exact, but that entry
    vanishes mod p, so the bounds fall short and the pairs are ranked exactly.
    With y + p*x the window is the same mod p but does not compose over Q; the
    bounds still sum to cols, and only the composition check sends those
    pairs to the exact ranks that see the failure.  Every time the records
    are those of exact ranks."""
    import totref.complexes as complexes
    import totref.linalg as linalg

    R = algebra_from_relations(["x", "y"], [{(1, 1): 1}], 5, field=RationalField())
    x, y = R.generator("x"), R.generator("y")
    w = window_from_entries(R, [x, R.linear_form(second), x, y])
    assert w.compose_check() is composes
    # every bound the exact rank of the block itself, assembled over Q
    exact_only = lambda field, images: [(linalg.array_rank(field, A), True) for A in images]
    with monkeypatch.context() as m:
        m.setattr(complexes, "image_matmul", linalg.field_matmul)
        m.setattr(complexes, "rank_bounds", exact_only)
        expected = w.graded_exactness()
    calls = count_eliminations(monkeypatch, rational_ranks_only=True)
    rep = w.graded_exactness()
    assert rep.records == expected.records and rep.exact is exact
    assert bool(calls) is fallback


def test_rank_nullity_per_block(c4_reduction, xy_pair):
    x, _ = xy_pair
    w = window_from_entries(c4_reduction, [x, x, x])
    R = c4_reduction
    for i in w.interior_indices():
        for t in range(0, R.cutoff):
            blk = w._block_array(i, t)
            assert kernel_basis(R.field, blk).dim + array_rank(R.field, blk) == (
                w.rank_of(i) * R.dims[t]
            )


def test_dual_involution_and_symmetry(c4_reduction, xy_pair):
    x, y = xy_pair
    pair = EzdPair(x + y, x - y, True)
    w = ezd_complex(c4_reduction, pair, half_length=3)
    dd = w.dual().dual()
    assert dd.to_json() == w.to_json()
    # dual of the (a, b) complex is the (b, a) complex up to reindexing:
    # the multiset of 1x1 differential entries swaps roles
    dw = w.dual()
    assert full_certification(dw).certified
    orig = {tuple(w.diff(i)[0, 0].tolist()) for i in range(w.lo + 1, w.hi + 1)}
    dualed = {tuple(dw.diff(j)[0, 0].tolist()) for j in range(dw.lo + 1, dw.hi + 1)}
    assert orig == dualed


def test_cokernel_presentation_and_boundary(c4_reduction, xy_pair):
    x, _ = xy_pair
    w = window_from_entries(c4_reduction, [x, x, x])
    mat = w.diff(w.lo + 1)  # d_i is the presentation matrix of its cokernel
    assert element_rows(c4_reduction, mat) == [[x]]
    with pytest.raises(ComplexError):
        w.diff(w.lo)  # boundary index has no differential


def test_fitting_support_examples(c4_reduction, xy_pair):
    x, y = xy_pair
    R = c4_reduction
    d1, d2 = fitting_support(R, linear_matrix(R, [[x]]))
    assert d1.dim == 1 and d2.dim == 1  # (span{x}, span{xy})
    assert d1.contains(list(x.coords))
    assert d2.contains(list((x * y).coords))
    z1, z2 = fitting_support(R, linear_matrix(R, [[R.zero(1)]]))
    assert z1.dim == 0 and z2.dim == 0


def test_indecomposability_certificate_cases(special_ring):
    from totref import canonical_window

    w, rep = canonical_window(special_ring, 2, 2)
    cert = {"disconnecting_pair": ["x5", "y5"]}
    verdict = indecomposability_certificate(special_ring.ring, w, 0, cert)
    assert verdict.verdict.startswith("indecomposable")
    assert verdict.certificate == cert
    # betti-1 windows are inconclusive (the cyclic case is not covered)
    R = w.algebra
    no = indecomposability_certificate(R, w, 0, None)
    assert no.verdict == "inconclusive"


def test_indecomposability_betti_one(c4_reduction, xy_pair):
    x, _ = xy_pair
    w = window_from_entries(c4_reduction, [x, x, x])
    v = indecomposability_certificate(c4_reduction, w, 0, {"disconnecting_pair": ["a", "b"]})
    assert v.verdict == "inconclusive"


def test_json_round_trip_bit_exact(c4_reduction, xy_pair):
    x, y = xy_pair
    w = ezd_complex(c4_reduction, EzdPair(x + y, x - y, True), half_length=2)
    s1 = dump_canonical(w.to_json())
    w2 = FreeComplexWindow.from_json(json.loads(s1))
    s2 = dump_canonical(w2.to_json())
    assert s1 == s2
    assert full_certification(w2).certified


def test_window_over_a_ring_without_descriptor_is_not_written(gf):
    from conftest import EXAMPLE_RING_RELATIONS

    R = algebra_from_relations(["X", "Y"], EXAMPLE_RING_RELATIONS, 3, field=gf)
    x, y = R.generators()
    w = FreeComplexWindow(R, 0, 2, [1, 1, 1], [[[x]], [[x - y]]])
    with pytest.raises(ComplexError):
        w.to_json()


def test_window_shape_validation(c4_reduction, xy_pair):
    x, _ = xy_pair
    with pytest.raises(ComplexError):
        FreeComplexWindow(c4_reduction, 0, 2, [1, 1, 1], [[[x]], [[x], [x]]])
    with pytest.raises(ComplexError):
        FreeComplexWindow(c4_reduction, 0, 1, [1, 1], [[[c4_reduction.basis_element(2, 0)]]])
    with pytest.raises(ComplexError, match="ragged"):
        FreeComplexWindow(c4_reduction, 0, 1, [2, 2], [[[x, x], [x]]])
    other = algebra_from_relations(["X", "Y", "Z"], [], 2, field=c4_reduction.field)
    z = other.generators()[0]
    with pytest.raises(ComplexError, match="algebra"):
        FreeComplexWindow(c4_reduction, 0, 1, [1, 1], [[[z]]])
    with pytest.raises(ComplexError, match="shape"):  # coordinates in another R_1
        FreeComplexWindow(c4_reduction, 0, 1, [1, 1], [linear_matrix(other, [[z]])])


# -- the array paths against the list oracle conftest.list_product -------------

@functools.lru_cache(maxsize=None)
def array_test_ring(kind, p):
    """A Stanley-Reisner ring (0/1 tables), a generic reduction (nine linear
    forms) or a quotient by relations, whose tables hold other entries.  In
    the dense quotient (ten variables, thirty random quadrics) an entry of a
    block sums up to nine nonzero products, more than the eight that fit in
    int64 at the default prime; at 2**31 - 1 two fit.  p = "QQ" gives the
    rationals."""
    field = array_field(p)
    if kind == "stanley_reisner":
        return stanley_reisner(ten_vertex_graph(), 3, field)
    if kind == "generic_reduction":
        g = Graph(
            ["u1", "u2"] + [f"w{j}" for j in range(1, 10)],
            [(u, f"w{j}") for u in ("u1", "u2") for j in range(1, 10)],
        )
        return reduction_chain(g, mode="generic", seed=1, cutoff=3, field=field).bottom
    if kind == "dense_relations":
        rng = Random(3)
        quadrics = [tuple(int(v in (i, j)) + int(i == j == v) for v in range(10))
                    for i, j in combinations_with_replacement(range(10), 2)]
        relations = [{m: rng.randrange(1, 50) for m in rng.sample(quadrics, 12)} for _ in range(30)]
        return algebra_from_relations([f"x{i}" for i in range(10)], relations, 2, field=field)
    relations = [{(2, 0, 0): 3, (0, 1, 1): -5}, {(0, 2, 0): 2, (1, 0, 1): 7, (0, 0, 2): -1}]
    return algebra_from_relations(["x", "y", "z"], relations, 4, field=field)


def random_forms(R, rng, rows, cols):
    return [
        [R.zero(1) if rng.random() < 0.2 else R.random_linear(rng) for _ in range(cols)]
        for _ in range(rows)
    ]


ring_kinds = st.sampled_from(
    ("stanley_reisner", "generic_reduction", "relations", "dense_relations")
)


@settings(max_examples=60, deadline=None)
@given(ring_kinds, st.sampled_from(ARRAY_FIELDS), st.integers(0, 2**32), st.data())
def test_element_product_matches_list_oracle(kind, p, seed, data):
    """a * b (through ``times``) is the list oracle's product for every pair
    of degrees d1 + d2 <= cutoff, degree 0 and zero elements included, in
    the same coordinates, entry types too."""
    R = array_test_ring(kind, p)
    f, rng = R.field, Random(seed)
    d1 = data.draw(st.integers(0, R.cutoff))
    d2 = data.draw(st.integers(0, R.cutoff - d1))

    def element(d):
        if rng.random() < 0.2:
            return R.zero(d)
        return R.element(d, [f.zero if rng.random() < 0.3 else f.rand(rng) for _ in range(R.dims[d])])

    a, b = element(d1), element(d2)
    got, want = a * b, list_product(R, a, b)
    assert got == want and got.degree == d1 + d2
    assert list(map(type, got.coords)) == list(map(type, want.coords))


@settings(max_examples=40, deadline=None)
@given(ring_kinds, st.sampled_from(ARRAY_FIELDS), st.integers(0, 2**32), st.data())
def test_array_matrix_product_matches_multiply(kind, p, seed, data):
    R = array_test_ring(kind, p)
    rng = Random(seed)
    rows, inner, cols = (data.draw(st.integers(1, 4)) for _ in range(3))
    A = random_forms(R, rng, rows, inner)
    B = random_forms(R, rng, inner, cols)
    expected = []
    for r in range(rows):
        row = []
        for c in range(cols):
            acc = R.zero(2)
            for m in range(inner):
                acc = acc + list_product(R, A[r][m], B[m][c])
            row.append(acc)
        expected.append(row)
    P = matrix_product(linear_matrix(R, A), linear_matrix(R, B), R)
    assert element_rows(R, P, degree=2) == expected


@settings(max_examples=40, deadline=None)
@given(ring_kinds, st.sampled_from(ARRAY_FIELDS), st.integers(0, 2**32), st.data())
def test_array_block_matches_entrywise_assembly(kind, p, seed, data):
    R = array_test_ring(kind, p)
    rng = Random(seed)
    b_out, b_in = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    t = data.draw(st.integers(0, R.cutoff - 1))
    w = FreeComplexWindow(R, 0, 1, [b_out, b_in], [random_forms(R, rng, b_out, b_in)])
    d = element_rows(R, w.diff(1))
    src, dst = R.dims[t], R.dims[t + 1]
    by_multiply = [[0] * (b_in * src) for _ in range(b_out * dst)]
    by_mult_map = [[0] * (b_in * src) for _ in range(b_out * dst)]
    for r in range(b_out):
        for c in range(b_in):
            for j in range(src):
                prod = list_product(R, d[r][c], R.basis_element(t, j)).coords
                for k in range(dst):
                    by_multiply[r * dst + k][c * src + j] = prod[k]
            for k, row in enumerate(R.mult_map_array(d[r][c].coords, 1, t).tolist()):
                by_mult_map[r * dst + k][c * src : (c + 1) * src] = row
    blk = w._block_array(1, t)
    assert blk.shape == (b_out * dst, b_in * src)
    assert blk.tolist() == by_multiply == by_mult_map


def _distinct_blocks(w, degree_bound=None):
    """What an exactness check of w eliminates, each at most once: the
    (i, t) blocks of each differential of the checked window without
    diagonal pieces, and (t, entries) of each distinct diagonal piece of
    one with them (``complexes._triangular_pieces``)."""
    checked = w._checked(degree_bound)
    pieces = _triangular_pieces(checked)
    keys = set()
    for i in checked.interior_indices():
        for t in range(checked.algebra.cutoff):
            for j, s in [(i, t)] + ([(i + 1, t - 1)] if t else []):
                if j in pieces:
                    keys.update((s, P.shape, P.tobytes()) for P in pieces[j])
                else:
                    keys.add((j, s))
    return keys


def test_graded_exactness_ranks_each_block_once(monkeypatch, c4, special_ring):
    """Each distinct block, or diagonal piece of a block-triangular one, is
    eliminated at most once."""
    from totref import canonical_window, lift_through_sequence

    canonical, _ = canonical_window(special_ring, 2, 2)
    rational_chain = reduction_chain(c4, cutoff=3, field=RationalField())
    x, y = rational_chain.bottom.generators()
    rational = ezd_complex(rational_chain.bottom, EzdPair(x + y, x - y, True), half_length=3)
    # lifted to the Stanley-Reisner ring at cutoff 5 and checked there (a bound
    # above the cutoff): blocks up to 80 x 64, above the list-elimination
    # threshold; without a bound it is checked on its Artinian reduction,
    # whose differentials are block lower-triangular
    chain = reduction_chain(c4, cutoff=5)
    x, y = chain.bottom.generators()
    source = ezd_complex(chain.bottom, EzdPair(x + y, x - y, True), half_length=3)
    lifted, _ = lift_through_sequence(source, [chain.steps[1], chain.steps[0]])
    ten_vertex, _ = lift_through_sequence(canonical, [special_ring.chain.steps[1]])
    cases = ((canonical, None), (rational, None), (lifted, None), (lifted, 1000), (ten_vertex, None))
    for w, bound in cases:
        calls = count_eliminations(monkeypatch)
        assert w.graded_exactness(bound).exact
        assert 0 < len(calls) <= len(_distinct_blocks(w, bound))
        monkeypatch.undo()
    assert _triangular_pieces(lifted._checked(None)) and _triangular_pieces(ten_vertex._checked(None))
    assert not _triangular_pieces(lifted) and not _triangular_pieces(canonical)


# -- diagonal pieces of block-triangular differentials -------------------------


def _triangular_forms(R, rng, parts, upper):
    """A random block lower-triangular (upper when asked) matrix of linear
    forms D[r, c, :] over R, its rows and columns cut into parts of the
    given sizes: the forms above (below) the diagonal blocks are zero, the
    others zero or multiples of one of two random forms, so that diagonal
    pieces are often rank-deficient and often hold zero forms.  The top
    right form of an upper one is nonzero, so that it has no lower cut."""
    f = R.field
    pool = [[f.rand(rng) for _ in range(R.dims[1])] for _ in range(2)]
    row_part = [k for k, (m, _) in enumerate(parts) for _ in range(m)]
    col_part = [k for k, (_, n) in enumerate(parts) for _ in range(n)]
    rows = []
    for a in row_part:
        row = []
        for b in col_part:
            if (a > b if upper else a < b) or rng.random() < 0.3 or (a != b and rng.random() < 0.5):
                row.append([f.zero] * R.dims[1])
            else:
                c = f.rand(rng)
                row.append([c * v for v in rng.choice(pool)])
        rows.append(row)
    if upper:
        rows[0][-1] = pool[0]
    return field_reduce(f, field_array(f, rows))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(("generic_reduction", "relations")),
    st.sampled_from((DEFAULT_PRIME, 4294967311, "QQ")),
    st.integers(0, 2**32),
    st.booleans(),
    st.data(),
)
def test_piece_bound_never_exceeds_the_rank(kind, p, seed, upper, data):
    """The sum of the rank bounds of a block-triangular matrix's diagonal
    pieces, in each degree, never exceeds the rank of its graded block
    (sympy), and equals it whenever it is full."""
    R = array_test_ring(kind, p)
    rng = Random(seed)
    parts = data.draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=2, max_size=3))
    D = _triangular_forms(R, rng, parts, upper)
    w = FreeComplexWindow(R, 0, 1, [len(D), D.shape[1]], [D])
    pieces = _triangular_pieces(w).get(1, [D])  # none when zero forms hide the pattern
    # the pieces are the diagonal blocks of cuts (p, r) with D[:p, r:] or D[p:, :r] zero
    ps, rs = ([0, *accumulate(P.shape[k] for P in pieces)] for k in (0, 1))
    assert (ps[-1], rs[-1]) == D.shape[:2]
    for k, P in enumerate(pieces):
        assert (P == D[ps[k] : ps[k + 1], rs[k] : rs[k + 1]]).all()
    cuts = list(zip(ps[1:-1], rs[1:-1]))
    assert all(not D[:p, r:].any() for p, r in cuts) or all(not D[p:, :r].any() for p, r in cuts)
    for t in range(R.cutoff):
        block = graded_block(R, D, t)
        if not block.size:
            continue
        images = [graded_block(R, P, t, image_matmul) for P in pieces if P.shape[0] and P.shape[1]]
        bound = sum(r for r, _ in rank_bounds(R.field, images))
        rank = len(_sympy_rref(R.field, block.tolist(), block.shape[1])[1])
        assert bound <= rank
        if bound == min(block.shape):
            assert bound == rank


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(("generic_reduction", "relations")),
    st.sampled_from((DEFAULT_PRIME, 4294967311, "QQ")),
    st.integers(0, 2**32),
    st.booleans(),
    st.data(),
)
def test_pieces_leave_the_records_of_any_window_unchanged(kind, p, seed, upper, data):
    """On a window of two block-triangular differentials that split their
    middle module alike, exact or not (it rarely composes), the records are
    those of ranking every block whole: a piece bound is taken as the rank
    only when full or confirmed, and any other block is ranked exactly."""
    import totref.complexes as complexes

    R = array_test_ring(kind, p)
    rng = Random(seed)
    sizes = st.lists(st.integers(1, 3), min_size=2, max_size=3)
    a = data.draw(sizes)
    b, c = (data.draw(st.lists(st.integers(1, 3), min_size=len(a), max_size=len(a))) for _ in "bc")
    D1 = _triangular_forms(R, rng, list(zip(a, b)), upper)
    D2 = _triangular_forms(R, rng, list(zip(b, c)), upper)
    w = FreeComplexWindow(R, 0, 2, [sum(a), sum(b), sum(c)], [D1, D2])
    with_pieces = complexes.exactness_reports([w])[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(complexes, "_triangular_pieces", lambda w: {})
        assert complexes.exactness_reports([w])[0] == with_pieces


def _lifts(field):
    """The one- and two-step lifts of the canonical ten-vertex window and of
    a four-cycle ezd window over the field."""
    from totref import build_special_ring, canonical_window, lift_through_sequence

    special = build_special_ring(field)
    ten_vertex, _ = canonical_window(special, 2, 2)
    chain = reduction_chain(
        Graph(
            ["x1", "x2", "y1", "y2"],
            [("x1", "y1"), ("x1", "y2"), ("x2", "y1"), ("x2", "y2")],
            bipartition=(("x1", "x2"), ("y1", "y2")),
        ),
        cutoff=3,
        field=field,
    )
    x, y = chain.bottom.generators()
    four_cycle = ezd_complex(chain.bottom, EzdPair(x + y, x - y, True), half_length=3)
    lifts = []
    for w, c in ((ten_vertex, special.chain), (four_cycle, chain)):
        for steps in (1, 2):
            lifts.append(lift_through_sequence(w, [c.steps[1], c.steps[0]][:steps])[0])
    return lifts


@pytest.mark.parametrize("p", [DEFAULT_PRIME, "QQ", 4294967311])
def test_pieces_leave_every_certificate_unchanged(monkeypatch, p):
    """full_certification of the lifted windows reads the same with the
    diagonal pieces as with every block ranked whole."""
    import totref.complexes as complexes

    lifts = _lifts(array_field(p))
    assert all(complexes._triangular_pieces(w._checked(None)) for w in lifts)
    with_pieces = [full_certification(w).to_json() for w in lifts]
    monkeypatch.setattr(complexes, "_triangular_pieces", lambda w: {})
    assert [full_certification(w).to_json() for w in lifts] == with_pieces
    assert all(c["certified"] for c in with_pieces)
