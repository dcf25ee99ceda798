import json
from random import Random

import pytest

from totref import (
    ComplexError,
    FreeComplexWindow,
    algebra_from_relations,
    ezd_complex,
    find_ezd,
    fitting_support,
    full_certification,
    indecomposability_certificate,
)
from totref.analysis import EzdPair

from conftest import dump_canonical, naive_exactness


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


def test_rank_nullity_per_block(c4_reduction, xy_pair):
    x, _ = xy_pair
    w = window_from_entries(c4_reduction, [x, x, x])
    R = c4_reduction
    for i in w.interior_indices():
        for t in range(0, R.cutoff):
            blk = w.block_matrix(i, t)
            assert blk.kernel_basis().dim + blk.rank() == w.rank_of(i) * R.dims[t]


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
    orig = [w.diff(i)[0][0] for i in range(w.lo + 1, w.hi + 1)]
    dualed = [dw.diff(j)[0][0] for j in range(dw.lo + 1, dw.hi + 1)]
    assert set(e.coords for e in orig) == set(e.coords for e in dualed)


def test_cokernel_presentation_and_boundary(c4_reduction, xy_pair):
    x, _ = xy_pair
    w = window_from_entries(c4_reduction, [x, x, x])
    mat = w.diff(w.lo + 1)  # d_i is the presentation matrix of its cokernel
    assert mat[0][0] == x
    with pytest.raises(ComplexError):
        w.diff(w.lo)  # boundary index has no differential


def test_fitting_support_examples(c4_reduction, xy_pair):
    x, y = xy_pair
    R = c4_reduction
    d1, d2 = fitting_support(R, [[x]])
    assert d1.dim == 1 and d2.dim == 1  # (span{x}, span{xy})
    assert d1.contains(list(x.coords))
    assert d2.contains(list((x * y).coords))
    z1, z2 = fitting_support(R, [[R.zero(1)]])
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


def test_window_shape_validation(c4_reduction, xy_pair):
    x, _ = xy_pair
    with pytest.raises(ComplexError):
        FreeComplexWindow(c4_reduction, 0, 2, [1, 1, 1], [[[x]], [[x], [x]]])
    with pytest.raises(ComplexError):
        FreeComplexWindow(c4_reduction, 0, 1, [1, 1], [[[c4_reduction.basis_element(2, 0)]]])
