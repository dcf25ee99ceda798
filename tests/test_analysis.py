import time
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement, product
from random import Random

import pytest
import numpy as np
from hypothesis import example, given, settings, strategies as st

from totref import (
    DEFAULT_PRIME,
    AlgebraElement,
    Graph,
    PrimeField,
    RationalField,
    Subspace,
    algebra_from_relations,
    artinian_reduction,
    find_ezd,
    ideal_pair_analysis,
    kernel_system,
    reduction_chain,
    socle,
    stanley_reisner,
    ten_vertex_graph,
    verify_ezd,
    wlp_check,
    wlp_generic,
    necessary_ring_conditions,
)
from totref.analysis import (
    _relation_rows,
    annihilator_linear,
    m_squared_subspace,
    principal_ideal_subspace,
    principal_length_linear,
    quadratic_presentation,
    ring_length,
)
from totref.linalg import array_rank, field_array, field_reduce, kernel_basis

from conftest import EXAMPLE_RING_RELATIONS, array_field, list_product, random_bipartite_connected


@pytest.fixture(scope="module")
def example_ring(gf):
    return algebra_from_relations(["X", "Y"], EXAMPLE_RING_RELATIONS, 3, field=gf)


@pytest.fixture(scope="module")
def ten_vertex_reduction(ten_vertex_g):
    return artinian_reduction(ten_vertex_g)


def test_socle_m2_zero_ring(path4):
    R = artinian_reduction(path4)
    s = socle(R)
    assert s.dim == R.dims[1]  # socle is all of m


def test_socle_ten_vertex(ten_vertex_reduction):
    s = socle(ten_vertex_reduction)
    assert s.dim == 7
    # no linear part: every socle basis vector is supported in degree 2
    for v in s.basis:
        assert all(x == 0 for x in v[: ten_vertex_reduction.dims[1]])


def test_socle_example_ring_linear_element(example_ring, gf):
    R = example_ring
    s = socle(R)
    # one linear socle element plus the one-dimensional top degree
    assert s.dim == 2
    linear = [v[:2] for v in s.basis if any(x != 0 for x in v[:2])]
    assert len(linear) == 1
    # the computed element spans the same line as X - Y (char != 2)
    a, b = linear[0]
    assert a != 0 and (a + b) % gf.p == 0
    xm = R.generator("X")
    ym = R.generator("Y")
    elt = xm - ym
    assert (elt * xm).is_zero() and (elt * ym).is_zero()
    # while X + Y is not socle
    assert not ((xm + ym) * xm).is_zero()


def test_ring_conditions_ten_vertex(ten_vertex_reduction):
    rep = necessary_ring_conditions(ten_vertex_reduction)
    assert rep.verdict == "admits-possible"
    assert rep.type_r == 7 and rep.dims_match and rep.socle_equals_m2
    assert rep.quadratic_presentation and not rep.m2_zero


def test_ring_conditions_example_ring(example_ring):
    rep = necessary_ring_conditions(example_ring)
    assert not rep.socle_equals_m2
    assert rep.verdict == "no-non-free-TR"
    assert rep.linear_socle_labels  # recorded for the report


def test_ring_conditions_tree(path4):
    R = artinian_reduction(path4)
    rep = necessary_ring_conditions(R)
    assert rep.m2_zero and rep.verdict == "no-non-free-TR"


def m_squared_oracle(R):
    """m^2 spanned by every product R_a * R_b, empty degrees included."""
    f = R.field
    ambient = sum(R.dims[1:])
    vecs = []
    for d in range(2, R.cutoff + 1):
        offset = sum(R.dims[1:d])
        for a in range(1, d):
            for row in R.np_table(a, d - a).tolist():
                for vec in row:
                    v = [f.zero] * ambient
                    v[offset : offset + R.dims[d]] = list(vec)
                    vecs.append(v)
    return Subspace.from_vectors(f, ambient, vecs)


def test_ring_conditions_build_no_degree3_products(gf, monkeypatch):
    # R_3 = 0 on a graph reduction, so m^2 has no degree-3 part to span
    g = Graph(
        ["u1", "u2"] + [f"w{j}" for j in range(1, 7)],
        [(u, f"w{j}") for u in ("u1", "u2") for j in range(1, 7)],
    )
    R = artinian_reduction(g, field=gf)
    assert R.dims[3] == 0
    degrees = set()
    real = R.products

    def spy(d1, d2):
        degrees.add(d1 + d2)
        return real(d1, d2)

    monkeypatch.setattr(R, "products", spy)
    rep = necessary_ring_conditions(R)
    assert rep.socle_equals_m2 and rep.verdict == "admits-possible"
    assert degrees == {2}


def test_m_squared_matches_oracle(c4, path4, ten_vertex_reduction, example_ring, gf):
    # k[x, y]/(x^2, y^3) has x*y^2 in degree 3; the other rings stop at degree 2
    cube = algebra_from_relations(["x", "y"], [{(2, 0): 1}, {(0, 3): 1}], 4, field=gf)
    assert cube.dims[3] == 1
    rings = [artinian_reduction(c4), artinian_reduction(path4), ten_vertex_reduction,
             example_ring, cube]
    for R in rings:
        assert m_squared_subspace(R) == m_squared_oracle(R)
    assert [necessary_ring_conditions(R).socle_equals_m2 for R in rings[:4]] == [
        True, False, True, False
    ]


def test_quadratic_presentation_triangle(gf):
    # the 3-cycle forces the cubic x*y*z relation: not quadratically presented
    tri = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    R = artinian_reduction(tri, mode="generic", seed=3, field=gf)
    assert list(R.dims) == [1, 1, 1, 0]
    assert not quadratic_presentation(R)
    rep = necessary_ring_conditions(R)
    assert rep.verdict == "no-non-free-TR"


def sym3_quadratic_presentation(R):
    """Oracle: span{x_t * (degree-2 kernel)} == degree-3 kernel, both taken
    as explicit subspaces of Sym^3(R_1) (C(m+2, 3) columns)."""
    f = R.field
    m = R.dims[1]
    if m == 0:
        return True
    sym2 = list(combinations_with_replacement(range(m), 2))
    sym3 = list(combinations_with_replacement(range(m), 3))
    s3i = {mm: k for k, mm in enumerate(sym3)}

    tab11 = R.np_table(1, 1).tolist()
    rows2 = [[f.zero] * len(sym2) for _ in range(R.dims[2])]
    for k, (i, j) in enumerate(sym2):
        for t, c in enumerate(tab11[i][j]):
            rows2[t][k] = c
    k2 = kernel_basis(f, field_array(f, rows2).reshape(len(rows2), len(sym2)))

    if R.cutoff >= 3 and R.dims[3] > 0:
        rows3 = [[f.zero] * len(sym3) for _ in range(R.dims[3])]
        tab12 = R.np_table(1, 2).tolist()
        for k, (i, j, l) in enumerate(sym3):
            acc = [f.zero] * R.dims[3]
            for t, c in enumerate(tab11[j][l]):
                if f.is_zero(c):
                    continue
                for s, v in enumerate(tab12[i][t]):
                    if not f.is_zero(v):
                        acc[s] = f.add(acc[s], f.mul(c, v))
            for s in range(R.dims[3]):
                rows3[s][k] = acc[s]
        k3 = kernel_basis(f, field_array(f, rows3).reshape(len(rows3), len(sym3)))
    else:
        k3 = Subspace.full(f, len(sym3))

    generated = []
    for q in k2.basis:
        for t in range(m):
            v = [f.zero] * len(sym3)
            for k, (i, j) in enumerate(sym2):
                c = q[k]
                if f.is_zero(c):
                    continue
                key = tuple(sorted((t, i, j)))
                v[s3i[key]] = f.add(v[s3i[key]], c)
            generated.append(v)
    return Subspace.from_vectors(f, len(sym3), generated) == k3


FIELDS = [PrimeField(7), PrimeField(), PrimeField(4294967311), RationalField()]


def test_quadratic_presentation_matches_sym3_oracle_on_fixtures(c4, example_ring, ten_vertex_reduction):
    x2y3 = [{(2, 0): 1}, {(0, 3): 1}]
    x2y2z2xyz = [{(2, 0, 0): 1}, {(0, 2, 0): 1}, {(0, 0, 2): 1}, {(1, 1, 1): 1}]
    tri = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    cases = [(example_ring, False), (ten_vertex_reduction, True)]
    for f in FIELDS:
        cases += [
            (algebra_from_relations(["x", "y"], x2y3, 3, field=f), False),
            (algebra_from_relations(["x", "y", "z"], x2y2z2xyz, 3, field=f), False),
            # X^3 is not a multiple of the two quadrics
            (algebra_from_relations(["X", "Y"], EXAMPLE_RING_RELATIONS, 3, field=f), False),
            (artinian_reduction(c4, field=f), True),
            (artinian_reduction(tri, mode="generic", seed=3, field=f), False),
        ]
    for R, expected in cases:
        assert quadratic_presentation(R) == sym3_quadratic_presentation(R) == expected


def test_quadratic_presentation_matches_sym3_oracle_on_graph_rings():
    # Artinian reductions (R_3 = 0) and raw Stanley-Reisner rings (R_3 != 0,
    # so the rank of Sym^3 -> R_3 is exercised), over every field path
    rng = Random(52)
    for f in FIELDS:
        for _ in range(3):
            edges = None if rng.random() < 0.5 else rng.randrange(4, 9)
            g = random_bipartite_connected(rng, 4, 7, edge_count=edges)
            for cutoff in (3, 4):
                rings = [
                    artinian_reduction(g, mode="canonical", cutoff=cutoff, field=f),
                    artinian_reduction(g, mode="generic", seed=rng.randrange(100), cutoff=cutoff, field=f),
                    stanley_reisner(g, cutoff, field=f),
                ]
                for R in rings:
                    assert quadratic_presentation(R) == sym3_quadratic_presentation(R)


def _random_form(rng, nvars, degree, terms):
    """A homogeneous {exponent tuple: coefficient} form with small coefficients."""
    mons = list(product(range(degree + 1), repeat=nvars))
    mons = [e for e in mons if sum(e) == degree]
    return {e: rng.choice([-3, -2, -1, 1, 2, 3]) for e in rng.sample(mons, min(terms, len(mons)))}


def _random_relation_ring(rng, field):
    nvars = rng.randrange(2, 5)
    rels = [_random_form(rng, nvars, 2, rng.randrange(1, 4)) for _ in range(rng.randrange(0, 2 * nvars))]
    rels += [_random_form(rng, nvars, 3, rng.randrange(1, 3)) for _ in range(rng.randrange(0, 3))]
    names = ["x", "y", "z", "w"][:nvars]
    return algebra_from_relations(names, rels, rng.choice([3, 4]), field=field)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 2**32))
def test_quadratic_presentation_matches_sym3_oracle_hypothesis(field, seed):
    R = _random_relation_ring(Random(seed), field)
    assert quadratic_presentation(R) == sym3_quadratic_presentation(R)


def test_quadratic_presentation_sweep_sees_both_verdicts():
    # graph rings are all quadratic, so the sweep must also reach the other verdict
    rng = Random(2024)
    verdicts = []
    for k in range(80):
        R = _random_relation_ring(rng, FIELDS[k % len(FIELDS)])
        got = quadratic_presentation(R)
        assert got == sym3_quadratic_presentation(R)
        verdicts.append(got)
    assert True in verdicts and False in verdicts


def test_quadratic_presentation_k2_40_is_fast(gf):
    # the Sym^3 check needs C(42, 3) = 11480 columns here and ran out of memory
    g = Graph(
        ["u1", "u2"] + [f"w{j}" for j in range(1, 41)],
        [(u, f"w{j}") for u in ("u1", "u2") for j in range(1, 41)],
    )
    R = artinian_reduction(g, field=gf)
    start = time.perf_counter()
    assert quadratic_presentation(R)
    assert time.perf_counter() - start < 10


def test_quadratic_presentation_k2_58_in_little_memory(gf):
    # n = 60 with the hubs declared first and with vertices and edges
    # shuffled (seed 3): the relation rows are streamed sparse, so the check
    # holds no dense block of R_1 (x) R_2 columns (170 MB when it did)
    xs, ys = ["u1", "u2"], [f"w{j}" for j in range(1, 59)]
    vertices, edges = xs + ys, [(x, y) for x in xs for y in ys]
    shuffled_vertices, shuffled_edges = list(vertices), list(edges)
    rng = Random(3)
    rng.shuffle(shuffled_vertices)
    rng.shuffle(shuffled_edges)
    for g in (Graph(vertices, edges), Graph(shuffled_vertices, shuffled_edges)):
        R = artinian_reduction(g, field=gf)
        tracemalloc.start()
        try:
            assert quadratic_presentation(R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


def dense_relation_rows(R):
    """Oracle for ``_relation_rows``: the nonzero rows, as dicts of their
    nonzero entries, of the dense blocks x_i (x) x_j x_k - x_j (x) x_i x_k
    (j > i, all k), one (m - 1 - i, m, m, dim R_2) array per i."""
    m, d2 = R.dims[1], R.dims[2]
    T = R.np_table(1, 1)
    rows = []
    for i in range(m - 1):
        J = m - 1 - i
        block = np.zeros((J, m, m, d2), dtype=T.dtype)
        block[:, :, i, :] = T[i + 1 :]
        block[np.arange(J), :, np.arange(i + 1, m), :] = field_reduce(R.field, -T[i])
        rows += [{c: x for c, x in enumerate(row) if x} for row in block.reshape(J * m, m * d2).tolist()]
    return [row for row in rows if row]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["generic", "random"]), st.integers(0, 2**32))
@example("c4", 0)
@example("ten_vertex", 0)
@example("generic", 3)
def test_relation_rows_are_the_nonzero_dense_rows(c4, kind, seed):
    rng = Random(seed)
    for f in FIELDS:
        if kind == "c4":
            R = artinian_reduction(c4, field=f)
        elif kind == "ten_vertex":
            R = artinian_reduction(ten_vertex_graph(), field=f)
        elif kind == "generic":
            g = random_bipartite_connected(rng, 4, 7)
            R = artinian_reduction(g, mode="generic", seed=rng.randrange(100), field=f)
        else:
            R = _random_relation_ring(rng, f)
        rows = list(_relation_rows(R))
        assert rows == dense_relation_rows(R)
        entry = Fraction if f == RationalField() else int
        assert all(type(x) is entry for row in rows for x in row.values())


def test_wlp_example_ring(example_ring, gf):
    R = example_ring
    assert wlp_check(R, R.linear_form({"X": 1, "Y": 1}))
    assert wlp_check(R, R.linear_form({"X": 3, "Y": 2}))
    assert not wlp_check(R, R.linear_form({"X": 1, "Y": -1}))  # a + b = 0
    has, hits, witness = wlp_generic(R, Random(0), trials=8)
    assert has and hits == 8 and witness is not None


def test_wlp_ten_vertex_always_fails(ten_vertex_reduction):
    rng = Random(12)
    for _ in range(100):
        l = ten_vertex_reduction.random_linear(rng)
        assert not wlp_check(ten_vertex_reduction, l)


def test_kernel_system_koszul_bound(c4, ten_vertex_g, gf):
    rng = Random(8)
    graphs = [c4, ten_vertex_g] + [random_bipartite_connected(rng, 4, 9, rng.randrange(4, 11)) for _ in range(5)]
    for g in graphs:
        l1 = [gf.rand(rng) for _ in g.vertices]
        l2 = [gf.rand(rng) for _ in g.vertices]
        l = [gf.rand(rng) for _ in g.vertices]
        ks = kernel_system(g, l1, l2, l, gf)
        assert ks.koszul_contained
        assert ks.dimension >= 3
        assert ks.matrix.shape == (g.e + g.n, 3 * g.n)


def test_kernel_system_c4_dimension_four(c4, gf):
    rng = Random(15)
    xs, ys = c4.bipartition
    l1 = [1 if v in set(xs) else 0 for v in c4.vertices]
    l2 = [1 if v in set(ys) else 0 for v in c4.vertices]
    l = [gf.rand(rng) for _ in c4.vertices]
    ks = kernel_system(c4, l1, l2, l, gf)
    assert ks.dimension == 4
    assert ks.f4 is not None
    # the extra solution's f-part spans the kernel of multiplication by l
    chain = reduction_chain(c4, field=gf)
    R = chain.bottom

    def image(coeffs):
        top_elt = chain.top.linear_form({v: c for v, c in zip(c4.vertices, coeffs)})
        return chain.steps[1].project(chain.steps[0].project(top_elt))

    lbar = image(l)
    fbar = image(ks.f4_linear_coeffs())
    assert not fbar.is_zero()
    assert (lbar * fbar).is_zero()


def test_kernel_system_ten_vertex_dimension_exceeds_four(ten_vertex_g, gf):
    rng = Random(21)
    xs, ys = ten_vertex_g.bipartition
    l1 = [1 if v in set(xs) else 0 for v in ten_vertex_g.vertices]
    l2 = [1 if v in set(ys) else 0 for v in ten_vertex_g.vertices]
    for _ in range(5):
        l = [gf.rand(rng) for _ in ten_vertex_g.vertices]
        ks = kernel_system(ten_vertex_g, l1, l2, l, gf)
        assert ks.dimension > 4


def test_find_ezd_c4(c4_reduction):
    pair = find_ezd(c4_reduction, "bipartite-canonical", trials=64, rng=Random(1), x_labels={"x1", "x2"})
    assert pair is not None and pair.certified
    assert verify_ezd(c4_reduction, pair.a, pair.b)
    # a certified pair gives WLP and a one-dimensional multiplication kernel
    assert wlp_check(c4_reduction, pair.a)
    mm = c4_reduction.mult_map_array(pair.a.coords, 1, 1)
    assert mm.shape[1] - array_rank(c4_reduction.field, mm) == 1


def test_find_ezd_ten_vertex_none(ten_vertex_reduction):
    pair = find_ezd(
        ten_vertex_reduction, "bipartite-canonical", trials=300, rng=Random(2),
        x_labels={f"x{i}" for i in range(1, 5)},
    )
    assert pair is None
    assert find_ezd(ten_vertex_reduction, "random", trials=300, rng=Random(3)) is None


def test_find_ezd_m2_zero_none(path4):
    R = artinian_reduction(path4)
    assert find_ezd(R, "random", trials=32, rng=Random(0)) is None


def test_find_ezd_exhaustive_lines_small_field():
    R = artinian_reduction(
        Graph(
            ["x1", "x2", "y1", "y2"],
            [("x1", "y1"), ("x1", "y2"), ("x2", "y1"), ("x2", "y2")],
        ),
        field=PrimeField(5),
    )
    pair = find_ezd(R, "exhaustive-lines", trials=40)
    assert pair is not None and verify_ezd(R, pair.a, pair.b)


def test_verify_ezd_negative_cases(c4_reduction, example_ring):
    R = c4_reduction
    x, y = R.generators()
    assert not verify_ezd(R, x, y)  # x*y != 0
    assert verify_ezd(R, x + y, x - y)  # (x+y)(x-y) = x^2 - y^2 = 0
    assert not verify_ezd(R, R.zero(1), x)
    # a linear socle element can never be half of a pair
    E = example_ring
    soc_elt = E.generator("X") - E.generator("Y")
    for cand in (E.generator("X"), E.generator("Y"), E.generator("X") + E.generator("Y")):
        assert not verify_ezd(E, soc_elt, cand)


def brute_force_is_ezd(R, a, b):
    """Oracle: Ann(a) = (b) and Ann(b) = (a) as literal subspaces."""
    if a.is_zero() or b.is_zero():
        return False
    return (
        annihilator_linear(R, a) == principal_ideal_subspace(R, b)
        and annihilator_linear(R, b) == principal_ideal_subspace(R, a)
    )


def test_verify_ezd_matches_annihilator_oracle_small_field():
    gf5 = PrimeField(5)
    c4 = Graph(
        ["x1", "x2", "y1", "y2"],
        [("x1", "y1"), ("x1", "y2"), ("x2", "y1"), ("x2", "y2")],
    )
    rings = [
        artinian_reduction(c4, field=gf5),
        algebra_from_relations(["X", "Y"], EXAMPLE_RING_RELATIONS, 3, field=gf5),
    ]
    for R in rings:
        n = R.dims[1]
        vectors = list(product(range(5), repeat=n))
        for av in vectors:
            a = AlgebraElement(R, 1, list(av))
            for bv in vectors:
                b = AlgebraElement(R, 1, list(bv))
                expected = brute_force_is_ezd(R, a, b)
                if a.is_zero() or b.is_zero():
                    got = False
                else:
                    got = verify_ezd(R, a, b)
                assert got == expected, (av, bv)


def test_length_bookkeeping(c4_reduction):
    R = c4_reduction
    x, y = R.generators()
    assert ring_length(R) == 4
    assert principal_length_linear(R, x) == 2
    assert principal_length_linear(R, x + y) == 2


def test_ideal_pair_ten_vertex(ten_vertex_reduction):
    R = ten_vertex_reduction
    gens_a = [R.generator(l) for l in ("x1", "x2", "y1", "y2")]
    gens_b = [R.generator(l) for l in ("x3", "x4", "y3", "y4")]
    rep = ideal_pair_analysis(R, gens_a, gens_b)
    assert rep.sum_is_m and rep.product_zero
    assert rep.intersection_dims == (0, 1)
    assert not rep.direct_sum
    assert rep.verdict == "non-trivial-intersection"


def test_ideal_pair_direct_sum_graph(gf):
    g = Graph(
        ["x1", "x2", "x3", "y1", "y2", "y3"],
        [
            ("x1", "y1"), ("x2", "y2"), ("x3", "y1"), ("x3", "y2"),
            ("x3", "y3"), ("y3", "x1"), ("y3", "x2"),
        ],
    )
    chain = reduction_chain(g, field=gf)
    R = chain.bottom

    def image(v):
        return chain.steps[1].project(chain.steps[0].project(chain.top.generator(v)))

    rep = ideal_pair_analysis(R, [image("x1"), image("y1")], [image("x2"), image("y2")])
    assert rep.direct_sum and rep.nu_m >= 3
    assert rep.verdict == "no-non-free-TR"


def test_ideal_pair_degenerate(ten_vertex_reduction):
    R = ten_vertex_reduction
    gens = R.generators()
    rep = ideal_pair_analysis(R, gens, gens)
    assert rep.verdict is None  # a = b = m is not a decomposition
    assert not rep.direct_sum


@pytest.mark.parametrize("p", [DEFAULT_PRIME, 4294967311, "QQ"])
def test_ideal_pair_product_zero_is_every_pairwise_product(ten_vertex_g, p):
    """product_zero, one array product, against the pairs multiplied one by
    one in list arithmetic (conftest.list_product): ab = 0 for the hub
    partition, a single nonzero pair found wherever it sits."""
    chain = reduction_chain(ten_vertex_g, field=array_field(p))
    R, image = chain.bottom, chain.image
    gens_a = [image(v) for v in ("x1", "x2", "y1", "y2")]
    gens_b = [image(v) for v in ("x3", "x4", "y3", "y4")]
    for extra_a, extra_b in ((None, None), ("x5", None), (None, "y5"), ("y1", "x1")):
        a = gens_a + ([image(extra_a)] if extra_a else [])
        b = ([image(extra_b)] if extra_b else []) + gens_b
        want = all(list_product(R, ga, gb).is_zero() for ga in a for gb in b)
        assert ideal_pair_analysis(R, a, b).product_zero == want
        assert want == (extra_a is extra_b is None)


def block_hub_graph(sizes):
    """Two complete bipartite blocks joined through a hub pair, so that
    removing the hub disconnects the graph."""
    (k1, l1), (k2, l2) = sizes
    xs = [f"x{i}" for i in range(1, k1 + k2 + 2)]
    ys = [f"y{j}" for j in range(1, l1 + l2 + 2)]
    hub_x, hub_y = xs[-1], ys[-1]
    ax, ay = xs[:k1], ys[:l1]
    bx, by = xs[k1 : k1 + k2], ys[l1 : l1 + l2]
    edges = [(x, y) for x in ax for y in ay] + [(x, y) for x in bx for y in by]
    edges += [(hub_x, y) for y in ay + by] + [(x, hub_y) for x in ax + bx]
    return Graph(xs + ys, edges, (xs, ys))


def test_disconnecting_pair_implies_no_ezd(gf):
    # cross-module property: a disconnecting pair certifies the absence of
    # exact zero divisors in the canonical reduction
    from totref.graphs import disconnecting_pair

    rng = Random(99)
    graphs = [
        block_hub_graph(sizes)
        for sizes in (((2, 2), (2, 2)), ((1, 1), (1, 1)), ((2, 1), (1, 2)), ((2, 2), (1, 1)))
    ]
    for g in graphs:
        assert g.is_connected() and g.is_bipartite()
        pair = disconnecting_pair(g)
        assert pair is not None
        R = artinian_reduction(g, field=gf)
        found = find_ezd(
            R, "bipartite-canonical", trials=128, rng=rng, x_labels=set(g.bipartition[0])
        )
        assert found is None
        found = find_ezd(R, "random", trials=128, rng=rng)
        assert found is None
