"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Everything is exact; there are no tolerances.
"""

import time
from contextlib import contextmanager
from itertools import combinations, product
from random import Random

from totref import (
    AlgebraElement,
    FreeComplexWindow,
    PrimeField,
    algebra_from_relations,
    artinian_reduction,
    build_window,
    canonical_blocks,
    canonical_window,
    disconnecting_pair,
    ezd_complex,
    find_ezd,
    fitting_support,
    kernel_system,
    lift_complex,
    lift_through_sequence,
    random_blocks,
    reduction_chain,
    socle,
    verify_ezd,
    wlp_check,
    wlp_generic,
    necessary_ring_conditions,
)
from totref.analysis import annihilator_linear, principal_ideal_subspace
from totref.linalg import Subspace, array_rank, kernel_basis

from conftest import EXAMPLE_RING_RELATIONS, naive_exactness, random_bipartite_connected


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({label}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({label}): PASS")


def test_criterion_1_hilbert_reproduction(ten_vertex_g, gf):
    with criterion(1, "Hilbert reproduction"):
        R = artinian_reduction(ten_vertex_g, field=gf)
        assert list(R.dims) == [1, 8, 7, 0]
        rng = Random(101)
        for _ in range(20):
            n_probe = rng.randrange(4, 13)
            e = rng.randrange(n_probe - 1, 2 * n_probe - 3)
            g = random_bipartite_connected(rng, n_probe, n_probe, edge_count=e)
            R = artinian_reduction(g, field=gf)
            assert list(R.dims) == [1, g.n - 2, g.e - g.n + 1, 0]


def test_criterion_2_ten_vertex_ring_properties(special_ring, ten_vertex_g):
    with criterion(2, "special ring properties and no-ezd certificates"):
        R = special_ring.ring
        # m = a + b, ab = 0, dim(a cap b) = 1
        assert special_ring.a1.sum(special_ring.b1).dim == R.dims[1]
        assert special_ring.a2.sum(special_ring.b2).dim == R.dims[2]
        for ga in special_ring.a_gens:
            for gb in special_ring.b_gens:
                assert (ga * gb).is_zero()
        assert special_ring.a2.intersection(special_ring.b2).dim == 1
        # structural certificate
        pair = disconnecting_pair(ten_vertex_g)
        assert pair == ("x5", "y5")
        # randomized certificate: >= 10^4 linear candidates find nothing
        found = find_ezd(R, trials=10_000, rng=Random(202))
        assert found is None
        # both certificates agree (neither found an exact zero divisor route)
        assert (pair is not None) and (found is None)


def test_criterion_3_canonical_factory_window(special_ring):
    with criterion(3, "canonical factory window"):
        t0 = time.monotonic()
        for parity in (0, 1):
            blk = canonical_blocks(special_ring, parity)
            assert blk.inj_a and blk.inj_at and blk.inj_b and blk.inj_bt
        w, rep = canonical_window(special_ring, forward=3, backward=3)
        assert len(w.diffs) == 7
        assert rep.certificate.composes
        assert rep.certificate.exactness.exact and rep.certificate.exactness.complete
        assert rep.certificate.dual_exactness.exact
        assert rep.certified
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"canonical window took {elapsed:.2f}s"


def test_criterion_4_randomized_factory(special_ring):
    with criterion(4, "randomized factory windows"):
        certified = []
        for seed in range(100):
            try:
                start = random_blocks(special_ring, Random(seed))
                w, rep = build_window(special_ring, start, forward=4, backward=4)
            except Exception:
                continue
            if rep.certified:
                certified.append(w)
        assert len(certified) >= 95
        supports = [fitting_support(special_ring.ring, w.diff(0)) for w in certified]
        pairs = list(combinations(range(len(certified)), 2))
        distinguished = sum(1 for i, j in pairs if supports[i] != supports[j])
        assert distinguished >= 0.9 * len(pairs)
        # the predicate agrees with the library entry point on a sample
        from totref import distinct_modules

        rng = Random(7)
        for i, j in rng.sample(pairs, 25):
            assert distinct_modules(special_ring, certified[i], certified[j]) == (
                supports[i] != supports[j]
            )


def test_criterion_5_lifting_pipeline(c4_chain5):
    with criterion(5, "lifting pipeline"):
        chain = c4_chain5
        R = chain.bottom
        pair = find_ezd(R, trials=64, rng=Random(3), x_labels={"x1", "x2"})
        assert pair is not None
        src = ezd_complex(R, pair, half_length=5)
        assert set(src.betti) == {1}
        final, steps = lift_through_sequence(src, [chain.steps[1], chain.steps[0]])
        assert [set(s.window.betti) for s in steps] == [{2}, {4}]
        for s in steps:
            # epsilon compositions vanish identically, exactness both ways,
            # minimality: every entry is homogeneous linear, an S_1 coordinate vector
            assert s.certificate.composes
            assert s.certificate.exactness.exact
            assert s.certificate.dual_exactness.exact
            assert s.cancellation_ok and s.regular_ok and s.certificate.minimal
            w = s.window
            for i in range(w.lo + 1, w.hi + 1):
                assert w.diff(i).shape == (w.rank_of(i - 1), w.rank_of(i), s.target.dims[1])
        # negative control: a composing but non-exact source fails after lift
        from totref import Graph

        tree = Graph(
            ["x1", "y1", "x2", "y2"],
            [("x1", "y1"), ("y1", "x2"), ("x2", "y2")],
        )
        tchain = reduction_chain(tree, cutoff=5)
        Rt = tchain.bottom
        x = Rt.generators()[0]
        wbad = FreeComplexWindow(Rt, -3, 3, [1] * 7, [[[x]] for _ in range(6)], base_twist=-3)
        assert wbad.compose_check() and not wbad.graded_exactness().exact
        step = lift_complex(wbad, tchain.steps[1], check=False)
        assert not step.certificate.exactness.exact


def test_criterion_6_wlp_ezd_consistency(ten_vertex_g, gf):
    with criterion(6, "WLP / kernel-system / ezd consistency"):
        rng = Random(606)
        graphs = [ten_vertex_g]
        while len(graphs) < 20:
            g = random_bipartite_connected(rng, 4, 12)  # e = 2n - 4
            graphs.append(g)
        for g in graphs:
            assert g.e == 2 * g.n - 4
            chain = reduction_chain(g, field=gf)
            R = chain.bottom
            xs, ys = g.bipartition
            l1 = [1 if v in set(xs) else 0 for v in g.vertices]
            l2 = [1 if v in set(ys) else 0 for v in g.vertices]
            l = [gf.rand(rng) for _ in g.vertices]
            ks = kernel_system(g, l1, l2, l, gf)
            assert ks.dimension >= 3 and ks.koszul_contained

            def image(coeffs):
                elt = chain.top.linear_form({v: c for v, c in zip(g.vertices, coeffs)})
                return chain.steps[1].project(chain.steps[0].project(elt))

            lbar = image(l)
            mm = R.mult_map_array(lbar.coords, 1, 1)
            kappa = mm.shape[1] - array_rank(R.field, mm)
            assert ks.dimension == kappa + 3
            assert (ks.dimension == 4) == wlp_check(R, lbar)
            has_wlp, _, _ = wlp_generic(R, rng, trials=8)
            pair = find_ezd(R, trials=64, rng=rng, x_labels=set(xs))
            assert (pair is not None) == has_wlp
            if pair is not None:
                assert verify_ezd(R, pair.a, pair.b)


def test_criterion_7_example_ring(gf):
    with criterion(7, "two-variable example ring"):
        R = algebra_from_relations(["X", "Y"], EXAMPLE_RING_RELATIONS, 3, field=gf)
        assert list(R.dims) == [1, 2, 1, 0]
        rng = Random(707)
        surjective = 0
        for _ in range(100):
            a, b = gf.rand(rng), gf.rand(rng)
            l = R.element(1, [a, b])
            ok = wlp_check(R, l)
            assert ok == ((a + b) % gf.p != 0)  # surjective exactly when a + b != 0
            if ok:
                surjective += 1
        assert surjective >= 99
        soc = socle(R)
        linear = [v[:2] for v in soc.basis if any(x != 0 for x in v[:2])]
        assert len(linear) == 1  # a linear socle element exists and is recorded
        rep = necessary_ring_conditions(R)
        assert rep.linear_socle_labels
        assert rep.verdict == "no-non-free-TR"


def test_criterion_8_property_suite(gf):
    with criterion(8, "brute-force property suite"):
        gf5 = PrimeField(5)
        from totref import Graph

        c4 = Graph(
            ["x1", "x2", "y1", "y2"],
            [("x1", "y1"), ("x1", "y2"), ("x2", "y1"), ("x2", "y2")],
        )
        k23 = Graph(
            ["x1", "x2", "y1", "y2", "y3"],
            [(x, y) for x in ("x1", "x2") for y in ("y1", "y2", "y3")],
        )
        rings = [
            artinian_reduction(c4, field=gf5),
            algebra_from_relations(["X", "Y"], EXAMPLE_RING_RELATIONS, 3, field=gf5),
            artinian_reduction(k23, field=gf5),
        ]
        for R in rings:
            assert R.dims[1] <= 3
            vectors = list(product(range(5), repeat=R.dims[1]))
            for av in vectors:
                a = AlgebraElement(R, 1, list(av))
                ann_a = annihilator_linear(R, a) if not a.is_zero() else None
                for bv in vectors:
                    b = AlgebraElement(R, 1, list(bv))
                    if a.is_zero() or b.is_zero():
                        expected = False
                    else:
                        expected = ann_a == principal_ideal_subspace(R, b) and annihilator_linear(
                            R, b
                        ) == principal_ideal_subspace(R, a)
                    got = (
                        verify_ezd(R, a, b)
                        if not (a.is_zero() or b.is_zero())
                        else False
                    )
                    assert got == expected, (R.basis[1], av, bv)

        # graded exactness agrees with the naive span oracle on random windows
        rng = Random(808)
        R4 = artinian_reduction(c4, field=gf)
        m2zero = algebra_from_relations(
            ["x", "y"], [{(2, 0): 1}, {(0, 2): 1}, {(1, 1): 1}], 3, field=gf
        )

        def compare(w):
            assert w.compose_check()
            rep = w.graded_exactness()
            oracle = naive_exactness(w)
            got = {(r.index, r.degree): r.exact for r in rep.records}
            for key, expected in oracle.items():
                assert got[key] == expected
            return rep.exact

        outcomes = []
        # over the 4-cycle reduction: pair a random form with a kernel partner
        for _ in range(8):
            a = R4.random_linear(rng)
            mm = R4.mult_map_array(a.coords, 1, 1)
            if mm.shape[1] - array_rank(R4.field, mm) != 1:
                continue
            b = AlgebraElement(R4, 1, kernel_basis(R4.field, mm).basis[0])
            k = rng.randrange(3, 5)
            entries = [a if i % 2 == 0 else b for i in range(k)]
            w1 = FreeComplexWindow(R4, 0, k, [1] * (k + 1), [[[e]] for e in entries])
            outcomes.append(compare(w1))
            z = R4.zero(1)
            d_even = [[a, z], [z, a]]
            d_odd = [[b, z], [z, b]]
            diffs = [d_even if i % 2 == 0 else d_odd for i in range(k)]
            w2 = FreeComplexWindow(R4, 0, k, [2] * (k + 1), diffs)
            outcomes.append(compare(w2))
        # over the m^2 = 0 ring every window composes and none is exact
        for _ in range(8):
            k = rng.randrange(3, 5)
            betti = rng.choice([1, 2])
            diffs = [
                [[m2zero.random_linear(rng) for _ in range(betti)] for _ in range(betti)]
                for _ in range(k)
            ]
            w = FreeComplexWindow(m2zero, 0, k, [betti] * (k + 1), diffs)
            outcomes.append(compare(w))
        assert len(outcomes) >= 16
        assert any(outcomes) and not all(outcomes)  # both verdicts were exercised

        # subspace dimension formula on 1000 random instances
        rng = Random(809)
        for _ in range(1000):
            n = rng.randrange(1, 13)
            a = Subspace.from_vectors(
                gf, n, [[gf.rand(rng) for _ in range(n)] for _ in range(rng.randrange(0, n + 1))]
            )
            b = Subspace.from_vectors(
                gf, n, [[gf.rand(rng) for _ in range(n)] for _ in range(rng.randrange(0, n + 1))]
            )
            assert a.dim + b.dim == a.sum(b).dim + a.intersection(b).dim
