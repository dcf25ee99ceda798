import json
from itertools import product
from random import Random

import numpy as np
import pytest

from totref import (
    AlgebraError,
    GradedAlgebra,
    Graph,
    QuotientMap,
    algebra_from_relations,
    artinian_reduction,
    chain_from_descriptor,
    quotient_by_linear,
    reduction_chain,
    stanley_reisner,
)

from totref.fields import DEFAULT_PRIME, PrimeField, RationalField
from totref.linalg import field_array, field_matmul, image_matmul

from conftest import (
    EXAMPLE_RING_RELATIONS, _sympy_rref, array_field, list_product, random_bipartite_connected,
)


def test_stanley_reisner_dimension_formula(ten_vertex_g, c4, gf):
    # dim profile (1, n, n+e, n+2e, ...)
    rng = Random(2)
    graphs = [c4, ten_vertex_g] + [random_bipartite_connected(rng, 4, 9, rng.randrange(4, 12)) for _ in range(6)]
    for g in graphs:
        if not g.is_connected():
            continue
        A = stanley_reisner(g, 4, gf)
        expected = [1, g.n, g.n + g.e, g.n + 2 * g.e, g.n + 3 * g.e]
        assert list(A.dims) == expected


def test_stanley_reisner_single_edge(gf):
    g = Graph(["a", "b"], [("a", "b")])
    A = stanley_reisner(g, 3, gf)
    assert list(A.dims) == [1, 2, 3, 4]


def test_stanley_reisner_ten_vertex_degree2_count(ten_vertex_g, gf):
    A = stanley_reisner(ten_vertex_g, 2, gf)
    assert list(A.dims) == [1, 10, 26]
    # independent count: one square per vertex plus one monomial per edge
    assert A.dims[2] == ten_vertex_g.n + ten_vertex_g.e


def test_stanley_reisner_products(c4, gf):
    A = stanley_reisner(c4, 3, gf)
    x1, y1 = A.generator("x1"), A.generator("y1")
    x2 = A.generator("x2")
    assert not (x1 * y1).is_zero()  # edge
    assert (x1 * x2).is_zero()  # non-edge pair
    assert not (x1 * x1).is_zero()  # squares survive
    assert ((x1 * y1) * x2).is_zero()  # three distinct supports die


def _label_exponents(label):
    """{vertex: exponent} of a basis label such as "x1*y2^3" ("1": {})."""
    if label == "1":
        return {}
    out = {}
    for part in label.split("*"):
        v, _, e = part.partition("^")
        out[v] = int(e or 1)
    return out


def test_stanley_reisner_tables_match_label_arithmetic(c4, path4, ten_vertex_g, gf):
    """Every table entry from the labels alone: the exponents of the two
    labels add, and the product is the basis label with those exponents when
    its support is one vertex or an edge, and zero otherwise."""
    rng = Random(11)
    graphs = [c4, path4, ten_vertex_g] + [random_bipartite_connected(rng, 4, 8) for _ in range(3)]
    for g in graphs:
        edges = {frozenset(e) for e in g.edges}
        R = stanley_reisner(g, 4, gf)
        at = [
            {frozenset(_label_exponents(lab).items()): k for k, lab in enumerate(labels)}
            for labels in R.basis
        ]
        for d1 in range(5):
            for d2 in range(5 - d1):
                expected = []
                for a in R.basis[d1]:
                    row = []
                    for b in R.basis[d2]:
                        powers = _label_exponents(a)
                        for v, e in _label_exponents(b).items():
                            powers[v] = powers.get(v, 0) + e
                        vec = [0] * R.dims[d1 + d2]
                        if len(powers) <= 1 or frozenset(powers) in edges:
                            vec[at[d1 + d2][frozenset(powers.items())]] = 1
                        row.append(vec)
                    expected.append(row)
                assert R.np_table(d1, d2).tolist() == expected, (g.vertices, d1, d2)


def test_example_ring_dims(gf, qq):
    for field in (gf, qq):
        A = algebra_from_relations(["X", "Y"], EXAMPLE_RING_RELATIONS, 3, field=field)
        assert list(A.dims) == [1, 2, 1, 0]
        x, y = A.generator("X"), A.generator("Y")
        # X^2 = Y^2 = XY in the quotient
        assert (x * x - y * y).is_zero()
        assert (x * x - x * y).is_zero()
        assert not (x * x).is_zero()


def test_algebra_from_relations_trivial_cases(gf):
    A = algebra_from_relations(["T"], [], 3, field=gf)
    assert list(A.dims) == [1, 1, 1, 1]
    B = algebra_from_relations(
        ["U", "V"], [{(2, 0): 1}, {(1, 1): 1}, {(0, 2): 1}], 3, field=gf
    )
    assert list(B.dims) == [1, 2, 0, 0]
    with pytest.raises(AlgebraError):
        algebra_from_relations(["U"], [{(0,): 1}], 3, field=gf)  # degree-0 relation


def test_multiplication_axioms_small_algebras(c4_reduction, gf):
    rings = [
        c4_reduction,
        algebra_from_relations(["X", "Y"], EXAMPLE_RING_RELATIONS, 3, field=gf),
    ]
    for R in rings:
        one = R.one()
        for d in range(R.cutoff):
            for i in range(R.dims[d]):
                e = R.basis_element(d, i)
                assert (one * e) == e and (e * one) == e
        # commutativity and associativity over all basis triples within cutoff
        for d1, d2 in product(range(1, R.cutoff), repeat=2):
            if d1 + d2 > R.cutoff:
                continue
            for i in range(R.dims[d1]):
                for j in range(R.dims[d2]):
                    a, b = R.basis_element(d1, i), R.basis_element(d2, j)
                    assert (a * b) == (b * a)
        for d1, d2, d3 in product(range(1, R.cutoff), repeat=3):
            if d1 + d2 + d3 > R.cutoff:
                continue
            for i in range(R.dims[d1]):
                for j in range(R.dims[d2]):
                    for k in range(R.dims[d3]):
                        a = R.basis_element(d1, i)
                        b = R.basis_element(d2, j)
                        c = R.basis_element(d3, k)
                        assert ((a * b) * c) == (a * (b * c))


def test_quotient_hilbert_examples(c4, ten_vertex_g, gf):
    # 4-cycle: 1 + (n-2)t + (e-n+1)t^2 = (1, 2, 1)
    A = stanley_reisner(c4, 3, gf)
    q1 = QuotientMap(A, A.linear_form({"x1": 1, "x2": 1}))
    l2 = q1.project(A.linear_form({"y1": 1, "y2": 1}))
    B = quotient_by_linear(q1.target, l2)
    assert list(B.dims) == [1, 2, 1, 0]
    R4 = artinian_reduction(ten_vertex_g)
    assert list(R4.dims) == [1, 8, 7, 0]


def test_quotient_single_edge_polynomial_column(gf):
    g = Graph(["a", "b"], [("a", "b")])
    A = stanley_reisner(g, 4, gf)
    q = quotient_by_linear(A, A.generator("b"))
    assert list(q.dims) == [1, 1, 1, 1, 1]  # k[a] up to the cutoff


def test_quotient_rejects_zero_form(c4, gf):
    A = stanley_reisner(c4, 3, gf)
    with pytest.raises(AlgebraError):
        quotient_by_linear(A, A.zero(1))


def test_reduction_canonical_ten_vertex_relation(ten_vertex_g):
    R = artinian_reduction(ten_vertex_g)
    sx = R.linear_form({f"x{i}": 1 for i in range(1, 5)})
    sy = R.linear_form({f"y{j}": 1 for j in range(1, 5)})
    assert (sx * sy).is_zero()  # the single non-monomial degree-2 relation
    # and the non-killed products stay nonzero
    assert not (R.generator("x1") * R.generator("y1")).is_zero()
    assert (R.generator("x1") * R.generator("y3")).is_zero()  # in (x1,x2)(y3,y4)


def test_reduction_c4_is_xy_square_zero(c4_reduction):
    R = c4_reduction
    assert list(R.dims) == [1, 2, 1, 0]
    x, y = R.generators()
    assert (x * x).is_zero() and (y * y).is_zero()
    assert not (x * y).is_zero()


def test_reduction_tree_m2_zero(path4):
    R = artinian_reduction(path4)
    assert list(R.dims) == [1, 2, 0, 0]


def test_reduction_generic_mode_and_hilbert(gf):
    rng = Random(5)
    for _ in range(4):
        g = random_bipartite_connected(rng, 4, 10, rng.randrange(4, 14))
        R = artinian_reduction(g, mode="generic", seed=rng.randrange(10**6), field=gf)
        assert list(R.dims) == [1, g.n - 2, g.e - g.n + 1, 0]


def test_bipartite_squares_vanish(gf):
    # (images of X-side)^2 = (images of Y-side)^2 = 0 in canonical reductions
    rng = Random(9)
    for _ in range(5):
        g = random_bipartite_connected(rng, 4, 10)
        chain = reduction_chain(g, field=gf)
        R = chain.bottom
        xs, ys = g.bipartition

        def image(v):
            return chain.steps[1].project(chain.steps[0].project(chain.top.generator(v)))

        for side in (xs, ys):
            for u in side:
                for w in side:
                    assert (image(u) * image(w)).is_zero()
        # u * u' = 0 for random u = x + y, u' = x - y
        for _ in range(5):
            coeffs = {v: gf.rand(rng) for v in g.vertices}
            u = sum((image(v).scale(c) for v, c in coeffs.items()), R.zero(1))
            flip = sum(
                (image(v).scale(c if v in set(xs) else gf.neg(c)) for v, c in coeffs.items()),
                R.zero(1),
            )
            assert (u * flip).is_zero()


def test_quotient_order_swap_commutes(c4, ten_vertex_g, gf):
    for g in (c4, ten_vertex_g):
        A = stanley_reisner(g, 3, gf)
        xs, ys = g.bipartition
        l1 = A.linear_form({v: 1 for v in xs})
        l2 = A.linear_form({v: 1 for v in ys})
        q1 = QuotientMap(A, l1)
        B12 = quotient_by_linear(q1.target, q1.project(l2))
        q2 = QuotientMap(A, l2)
        B21 = quotient_by_linear(q2.target, q2.project(l1))
        assert B12.dims == B21.dims
        assert B12.basis == B21.basis
        for d1 in range(1, 3):
            for d2 in range(1, 4 - d1):
                assert B12.np_table(d1, d2).tolist() == B21.np_table(d1, d2).tolist()


def test_section_property_of_quotients(c4, gf):
    A = stanley_reisner(c4, 3, gf)
    q = QuotientMap(A, A.linear_form({"x1": 1, "x2": 1}))
    rng = Random(1)
    for d in range(0, 4):
        for _ in range(5):
            coords = [gf.rand(rng) for _ in range(q.target.dims[d])]
            elt = q.target.element(d, coords)
            assert q.project(q.lift(elt)) == elt


def test_multiply_degree_overflow(c4, c4_reduction):
    R = c4_reduction
    x = R.generators()[0]
    top = R.basis_element(2, 0)
    assert (top * x).is_zero()  # degree 3 exists (and vanishes) at cutoff 3
    # above the cutoff, in the quotient (by its table) and in the
    # Stanley-Reisner ring (by scatter), zero factors too
    S = stanley_reisner(c4, 3)
    for A in (R, S):
        for a, b in ((A.basis_element(2, 0), A.basis_element(2, 0)), (A.zero(3), A.generators()[0])):
            with pytest.raises(AlgebraError, match="exceeds cutoff"):
                _ = a * b
    # across rings, and with anything not an element
    for other in (artinian_reduction(c4).generators()[0], S.generators()[0], 2):
        with pytest.raises(AlgebraError, match="different algebras"):
            _ = x * other


def test_hilbert_helper(c4_reduction):
    assert tuple(c4_reduction.dims) == (1, 2, 1, 0)


def test_algebra_json_round_trip(c4_reduction):
    obj = c4_reduction.to_json()
    s1 = json.dumps(obj, sort_keys=True)
    back = GradedAlgebra.from_json(json.loads(s1))
    s2 = json.dumps(back.to_json(), sort_keys=True)
    assert s1 == s2
    # multiplication survives the round trip
    x1 = back.generator("x1")
    y1 = back.generator("y1")
    orig = c4_reduction.generator("x1") * c4_reduction.generator("y1")
    assert (x1 * y1).coords == orig.coords


def test_from_json_rebuilds_the_ring_and_ignores_tables(c4_chain5):
    for level in (0, 1, 2):
        ring = c4_chain5.ring(level)
        obj = json.loads(json.dumps(ring.to_json()))
        assert "mult" not in obj and obj["descriptor"]["level"] == level
        # a table entry, as earlier versions wrote them, is not read
        obj["mult"] = [{"d1": 1, "d2": 1, "table": [[[7] * ring.dims[2]] * ring.dims[1]] * ring.dims[1]}]
        back = GradedAlgebra.from_json(obj)
        assert back.to_json() == ring.to_json()
        for d1 in range(1, ring.cutoff):
            for d2 in range(1, ring.cutoff + 1 - d1):
                assert back.np_table(d1, d2).tolist() == ring.np_table(d1, d2).tolist(), (level, d1, d2)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda o: o.pop("descriptor"),
        lambda o: o["descriptor"].update(kind="other"),
        lambda o: o["descriptor"].pop("graph"),
        lambda o: o["descriptor"].update(mode="random"),
        lambda o: o["descriptor"].update(level=3),
        lambda o: o["descriptor"].update(seed=None),
        lambda o: o["basis"].pop(),
        lambda o: o["basis"][1].reverse(),
        lambda o: o.update(cutoff=4),
    ],
    ids=["no_descriptor", "kind", "no_graph", "mode", "level", "seed", "basis_length",
         "basis_labels", "cutoff"],
)
def test_from_json_refuses_a_ring_its_descriptor_does_not_name(c4_reduction, corrupt):
    obj = json.loads(json.dumps(c4_reduction.to_json()))
    corrupt(obj)
    with pytest.raises(AlgebraError):
        GradedAlgebra.from_json(obj)


def test_algebra_without_descriptor_is_not_written(gf):
    R = algebra_from_relations(["X", "Y"], EXAMPLE_RING_RELATIONS, 3, field=gf)
    with pytest.raises(AlgebraError):
        R.to_json()


def test_chain_from_descriptor_matches_reduction_chain(c4, ten_vertex_g, qq):
    for g, mode, field in ((c4, "canonical", None), (ten_vertex_g, "generic", qq)):
        chain = reduction_chain(g, mode=mode, seed=3, cutoff=4, field=field)
        again = chain_from_descriptor(chain.bottom.descriptor, chain.top.field, 4)
        assert [r.basis for r in (again.top, again.ring(1), again.bottom)] == [
            r.basis for r in (chain.top, chain.ring(1), chain.bottom)
        ]
        assert again.steps[1].form.coords == chain.steps[1].form.coords


def test_rational_mode_reduction(c4, qq):
    R = artinian_reduction(c4, field=qq)
    assert list(R.dims) == [1, 2, 1, 0]
    x, y = R.generators()
    assert (x * x).is_zero() and not (x * y).is_zero()


def test_mult_map_array_many_summands_do_not_overflow(gf):
    # 12 summands of (p-1)**2 ~ 2**60 each exceed int64 in a single einsum:
    # every a_i a_j is the monomial w, whose class is (p-1) u + (p-1) v
    p = gf.p
    labels = [f"a{i}" for i in range(12)]
    proj = [([0], field_array(gf, [[1]])), (list(range(12)), field_array(gf, np.eye(12))),
            ([1, 2], field_array(gf, [[p - 1, p - 1], [1, 0], [0, 1]]))]
    products = lambda d1, d2: np.zeros((12, 12), dtype=np.intp)  # w is the monomial 0
    A = GradedAlgebra(gf, 2, [["1"], labels, ["u", "v"]], products, proj)
    elt = A.element(1, [p - 1] * 12)
    got = A.mult_map_array(elt.coords, 1, 1)
    # exact list-path reference: column j is elt * e_j computed by list_product
    columns = [list_product(A, elt, A.basis_element(1, j)).coords for j in range(12)]
    assert got.tolist() == [[col[k] for col in columns] for k in range(2)]
    assert got.tolist() == [[12] * 12, [12] * 12]


# -- differential test of the quotient tables ------------------------------------
# The oracle is the per-entry normal form: sympy's RREF of the reversed
# relation rows (a trailing-pivot elimination), then each vector cleared
# pivot by pivot in list arithmetic.


def _complement_oracle(field, rows, ncols):
    """(echelon rows, pivots, kept coordinates) of field^ncols modulo the span
    of rows, pivoting on the trailing coordinate."""
    rr, piv = _sympy_rref(field, [list(r)[::-1] for r in rows], ncols)
    rr = [r[::-1] for r in rr]
    piv = [ncols - 1 - c for c in piv]
    return rr, piv, [c for c in range(ncols) if c not in set(piv)]


def _normal_form_oracle(field, red, vec):
    """Coordinates in the quotient basis of the class of vec."""
    rows, piv, keep = red
    v = list(vec)
    for row, pc in zip(rows, piv):
        c = v[pc]
        if not field.is_zero(c):
            v = [field.sub(a, field.mul(c, b)) for a, b in zip(v, row)]
    return [v[c] for c in keep]


def _check_tables(R, red, source_entry):
    """Every table of R against the normal forms of the source products."""
    f = R.field
    for d1 in range(1, R.cutoff):
        for d2 in range(1, R.cutoff + 1 - d1):
            expected = [
                [_normal_form_oracle(f, red[d1 + d2], source_entry(d1, i, d2, j)) for j in red[d2][2]]
                for i in red[d1][2]
            ]
            assert R.np_table(d1, d2).tolist() == expected, (d1, d2)


def _check_quotient_map(q, rng):
    S, B, f = q.source, q.target, q.source.field
    red = [([], [], [0])]
    for d in range(1, S.cutoff + 1):
        # the relations l * basis_i of degree d-1, by list multiplication
        rows = [list_product(S, q.form, S.basis_element(d - 1, i)).coords for i in range(S.dims[d - 1])]
        red.append(_complement_oracle(f, rows, S.dims[d]))
    for d in range(S.cutoff + 1):
        assert B.basis[d] == [S.basis[d][c] for c in red[d][2]]
        for _ in range(3):
            v = [f.rand(rng) for _ in range(S.dims[d])]
            assert list(q.project(S.element(d, v)).coords) == _normal_form_oracle(f, red[d], v)
    _check_tables(B, red, lambda d1, i, d2, j: S.np_table(d1, d2)[i, j].tolist())


C5 = Graph(list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])


@pytest.mark.parametrize(
    "mode, field, on_c5",
    [
        ("canonical", PrimeField(), False),
        ("canonical", PrimeField(4294967311), False),
        ("generic", RationalField(), False),
        ("generic", PrimeField(5), True),  # not bipartite; Hilbert function (1, 3, 1, 0, 0)
    ],
    ids=["canonical-default", "canonical-4294967311", "generic-QQ", "generic-GF5-C5"],
)
def test_quotient_tables_match_per_entry_normal_forms(c4, ten_vertex_g, mode, field, on_c5):
    rng = Random(37)
    for g in [C5] if on_c5 else (c4, ten_vertex_g):
        chain = reduction_chain(g, mode=mode, seed=5, cutoff=4, field=field)
        for q in chain.steps:
            _check_quotient_map(q, rng)


def _descending_monomials(nvars, d):
    return sorted((e for e in product(range(d + 1), repeat=nvars) if sum(e) == d), reverse=True)


@pytest.mark.parametrize("field", [PrimeField(), RationalField()], ids=["default", "QQ"])
def test_relation_tables_match_per_entry_normal_forms(field):
    cases = [
        (["X", "Y"], EXAMPLE_RING_RELATIONS, 3),
        (["x", "y"], [{(2, 0): 1}, {(0, 3): 1}], 4),
        (["a", "b", "c"], [{(1, 1, 0): 1, (0, 0, 2): -1}, {(2, 0, 0): 2, (0, 1, 1): 3}], 4),
    ]
    for variables, relations, cutoff in cases:
        R = algebra_from_relations(variables, relations, cutoff, field=field)
        mons = [_descending_monomials(len(variables), d) for d in range(cutoff + 1)]
        red = [([], [], [0])]
        for d in range(1, cutoff + 1):
            rows = []
            for rel in relations:
                r = sum(next(iter(rel)))
                for m in mons[d - r] if r <= d else []:
                    vec = [field.zero] * len(mons[d])
                    for e, c in rel.items():
                        k = mons[d].index(tuple(a + b for a, b in zip(e, m)))
                        vec[k] = field.add(vec[k], field.coerce(c))
                    rows.append(vec)
            red.append(_complement_oracle(field, rows, len(mons[d])))
            labels = [
                "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(variables, mons[d][c]) if e)
                for c in red[d][2]
            ]
            assert R.basis[d] == labels

        def entry(d1, i, d2, j):
            prod = tuple(a + b for a, b in zip(mons[d1][i], mons[d2][j]))
            vec = [field.zero] * len(mons[d1 + d2])
            vec[mons[d1 + d2].index(prod)] = field.one
            return vec

        _check_tables(R, red, entry)


def test_table_cells_follow_the_hilbert_function(c4, ten_vertex_g, path4):
    """table_cells(n, e, D) is the size of the top ring's tables R_1 x R_t ->
    R_(t+1), t < D, as a Stanley-Reisner ring builds them when asked, and a
    chain whose products have more structure constants than MAX_TABLE_CELLS
    is refused before it is built."""
    from totref.algebra import MAX_TABLE_CELLS, table_cells

    for g in (c4, ten_vertex_g, path4):
        for cutoff in range(2, 8):
            R = stanley_reisner(g, cutoff)
            cells = sum(R.np_table(1, t).size for t in range(1, cutoff))
            assert table_cells(g.n, g.e, cutoff) == cells
    assert table_cells(4, 4, 116) <= MAX_TABLE_CELLS < table_cells(4, 4, 117)
    desc = reduction_chain(c4, cutoff=3).top.descriptor
    with pytest.raises(AlgebraError, match="cutoff 117 is too high"):
        chain_from_descriptor(desc, PrimeField(), 117)


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 5, 4294967311, "QQ"])
def test_monomial_ring_times_is_its_table_product(c4, path4, ten_vertex_g, p):
    """A Stanley-Reisner ring multiplies by a scatter of coordinates, not by
    its table: several rows times a basis give what the product with the
    explicit table (np_table) gives, exact and as a rank-bound image, entry
    for entry and in the same representation."""
    field, rng = array_field(p), Random(11)
    graphs = [c4, path4, ten_vertex_g] + [random_bipartite_connected(rng, 4, 9) for _ in range(3)]
    for g in graphs:
        R = stanley_reisner(g, 3, field)
        for d, t in ((1, 0), (1, 1), (1, 2), (2, 1)):
            rows = [[field.rand(rng) for _ in range(R.dims[d])] for _ in range(4)]
            V = field_array(field, rows).reshape(4, R.dims[d])
            T = R.np_table(d, t).reshape(R.dims[d], -1)
            for product in (field_matmul, image_matmul):
                got = R.times(V, d, t, product)
                want = product(field, V, T).reshape(got.shape)
                assert got.dtype == want.dtype and got.tolist() == want.tolist(), (g.vertices, d, t)
                assert list(map(type, got.flat)) == list(map(type, want.flat)), (g.vertices, d, t)


def test_reduction_chain_builds_no_top_ring_table(c4, ten_vertex_g, qq):
    # the first quotient map multiplies by its form in the top ring by scatter
    for g, mode, field in ((c4, "canonical", None), (ten_vertex_g, "generic", qq)):
        for cutoff in (3, 5):
            chain = reduction_chain(g, mode, cutoff=cutoff, field=field)
            assert chain.top._np_tables == {}, (mode, cutoff)


def test_reduction_chain_peak_memory():
    """The traced peak of reduction_chain on K_{2,56}, hubs first: 35.4 MB
    while the top ring's tables R_1 x R_t -> R_(t+1) were built for the
    first quotient map, 9.8 MB (the middle ring's tables) without them."""
    import tracemalloc

    xs, ys = ["u1", "u2"], [f"w{j}" for j in range(1, 57)]
    g = Graph(xs + ys, [(x, y) for x in xs for y in ys])
    tracemalloc.start()
    try:
        reduction_chain(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak / 2**20
