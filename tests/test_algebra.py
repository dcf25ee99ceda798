import json
from itertools import product
from random import Random

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

from totref.fields import PrimeField, RationalField
from totref.linalg import field_array

from conftest import EXAMPLE_RING_RELATIONS, _sympy_rref, random_bipartite_connected


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
                assert B12.table(d1, d2) == B21.table(d1, d2)


def test_section_property_of_quotients(c4, gf):
    A = stanley_reisner(c4, 3, gf)
    q = QuotientMap(A, A.linear_form({"x1": 1, "x2": 1}))
    rng = Random(1)
    for d in range(0, 4):
        for _ in range(5):
            coords = [gf.rand(rng) for _ in range(q.target.dims[d])]
            elt = q.target.element(d, coords)
            assert q.project(q.lift(elt)) == elt


def test_multiply_degree_overflow(c4_reduction):
    R = c4_reduction
    x = R.generators()[0]
    top = R.basis_element(2, 0)
    assert (top * x).is_zero()  # degree 3 exists (and vanishes) at cutoff 3
    with pytest.raises(AlgebraError):
        _ = top * top  # degree 4 exceeds the cutoff


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
                assert back.table(d1, d2) == ring.table(d1, d2), (level, d1, d2)


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
        assert [r.basis for r in (again.top, again.mid, again.bottom)] == [
            r.basis for r in (chain.top, chain.mid, chain.bottom)
        ]
        assert again.steps[1].form.coords == chain.steps[1].form.coords


def test_rational_mode_reduction(c4, qq):
    R = artinian_reduction(c4, field=qq)
    assert list(R.dims) == [1, 2, 1, 0]
    x, y = R.generators()
    assert (x * x).is_zero() and not (x * y).is_zero()


def test_mult_map_array_many_summands_do_not_overflow(gf):
    # 12 summands of (p-1)**2 ~ 2**60 each exceed int64 in a single einsum
    p = gf.p
    labels = [f"a{i}" for i in range(12)]
    table = field_array(gf, [[[p - 1, p - 1]] * 12] * 12)
    A = GradedAlgebra(gf, 2, [["1"], labels, ["u", "v"]], lambda d1, d2: table)
    elt = A.element(1, [p - 1] * 12)
    got = A.mult_map_array(elt.coords, 1, 1)
    # exact list-path reference: column j is elt * e_j computed by multiply()
    columns = [(elt * A.basis_element(1, j)).coords for j in range(12)]
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
            assert R.table(d1, d2) == expected, (d1, d2)


def _check_quotient_map(q, rng):
    S, B, f = q.source, q.target, q.source.field
    red = [([], [], [0])]
    for d in range(1, S.cutoff + 1):
        # the relations l * basis_i of degree d-1, by list multiplication
        rows = [(q.form * S.basis_element(d - 1, i)).coords for i in range(S.dims[d - 1])]
        red.append(_complement_oracle(f, rows, S.dims[d]))
    for d in range(S.cutoff + 1):
        assert B.basis[d] == [S.basis[d][c] for c in red[d][2]]
        for _ in range(3):
            v = [f.rand(rng) for _ in range(S.dims[d])]
            assert list(q.project(S.element(d, v)).coords) == _normal_form_oracle(f, red[d], v)
    _check_tables(B, red, lambda d1, i, d2, j: S.table(d1, d2)[i][j])


@pytest.mark.parametrize(
    "mode, field",
    [("canonical", PrimeField()), ("canonical", PrimeField(4294967311)), ("generic", RationalField())],
    ids=["canonical-default", "canonical-4294967311", "generic-QQ"],
)
def test_quotient_tables_match_per_entry_normal_forms(c4, ten_vertex_g, mode, field):
    rng = Random(37)
    for g in (c4, ten_vertex_g):
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
    R_(t+1), t < D, as a built Stanley-Reisner ring has them, and a chain
    whose tables would exceed MAX_TABLE_CELLS is refused before it is built."""
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
