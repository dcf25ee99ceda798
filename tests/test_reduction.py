"""Windows over the top and middle rings of a reduction chain are certified
through their reduction E/(l1, l2)E over the Artinian bottom ring.  These
tests hold that verdict against the check on the window's own ring up to its
cutoff (a degree bound above every cutoff selects it)."""

from random import Random

import numpy as np
import pytest

from totref import (
    ComplexError,
    EzdPair,
    FreeComplexWindow,
    SpecialRing,
    algebra_from_relations,
    canonical_window,
    ezd_complex,
    find_ezd,
    lift_through_sequence,
    quotient_by_linear,
    reduction_chain,
    stanley_reisner,
)
from totref.factory import TEN_VERTEX_PARTITION
from totref.linalg import field_zeros

from conftest import EXAMPLE_RING_RELATIONS

TRUNCATED = 1000  # above every cutoff: the check on the window's own ring


def _lifts(source, chain, check=True):
    """The windows over the middle and the top ring of the two-step lift."""
    _, steps = lift_through_sequence(source, [chain.steps[1], chain.steps[0]], check=check)
    return [s.window for s in steps]


def _zeroed(w, i):
    """w with d_i replaced by zero: it still composes, and is not exact at i."""
    zero = field_zeros(w.algebra.field, w.diff(i).shape)
    diffs = [zero if w.lo + 1 + k == i else D for k, D in enumerate(w.diffs)]
    return FreeComplexWindow(w.algebra, w.lo, w.hi, w.betti, diffs, w.base_twist)


@pytest.fixture(scope="module")
def chain_windows(c4, c4_chain5, path4, ten_vertex_g, qq):
    """Every kind of window over a top or middle ring that the suite builds."""
    windows = {}
    R = c4_chain5.bottom
    pair = find_ezd(R, "bipartite-canonical", trials=32, rng=Random(1), x_labels={"x1", "x2"})
    windows["c4"] = _lifts(ezd_complex(R, pair, half_length=5), c4_chain5)
    special = SpecialRing(reduction_chain(ten_vertex_g, cutoff=4), *TEN_VERTEX_PARTITION)
    windows["ten_vertex"] = _lifts(canonical_window(special, 2, 1)[0], special.chain)
    rational = reduction_chain(c4, cutoff=4, field=qq)
    x, y = rational.bottom.generators()
    source = ezd_complex(rational.bottom, EzdPair(x + y, x - y, True), half_length=3)
    windows["four_cycle_rational"] = _lifts(source, rational)
    # the path reduction has m^2 = 0: the x-multiplication window composes
    # but is not exact, and neither are its lifts
    tree = reduction_chain(path4, cutoff=5)
    x = tree.bottom.generators()[0]
    source = FreeComplexWindow(tree.bottom, -3, 3, [1] * 7, [[[x]]] * 6, base_twist=-3)
    windows["path4"] = _lifts(source, tree, check=False)
    mid, top = windows["c4"]
    windows["c4_zeroed"] = [_zeroed(mid, mid.lo + 2), _zeroed(top, top.hi - 1)]
    return windows


CASES = ["c4", "ten_vertex", "four_cycle_rational", "path4", "c4_zeroed"]


@pytest.mark.parametrize("name", CASES)
def test_reduced_verdict_equals_truncated_verdict(chain_windows, name):
    for w in chain_windows[name]:
        assert w.algebra.reduction is not None
        for v in (w, w.dual()):
            reduced = v.graded_exactness()
            assert reduced.complete and reduced.certified_degree_bound is None
            truncated = v.graded_exactness(TRUNCATED)
            assert not truncated.complete and truncated.certified_degree_bound is not None
            assert reduced.exact == truncated.exact, (name, v.lo, v.hi)
    expected = name in ("c4", "ten_vertex", "four_cycle_rational")
    assert all(w.graded_exactness().exact == expected for w in chain_windows[name])


@pytest.mark.parametrize("name", CASES)
def test_reduction_commutes_with_the_dual(chain_windows, name):
    for w in chain_windows[name]:
        a, b = w.dual().reduce(), w.reduce().dual()
        assert a.algebra is b.algebra is w.algebra.reduction.target
        assert (a.lo, a.hi, a.betti, a.base_twist) == (b.lo, b.hi, b.betti, b.base_twist)
        assert all(np.array_equal(x, y) for x, y in zip(a.diffs, b.diffs, strict=True))


def test_reduction_reaches_the_bottom_ring(c4_chain5):
    assert c4_chain5.top.reduction is c4_chain5.steps[0]
    assert c4_chain5.mid.reduction is c4_chain5.steps[1]
    assert c4_chain5.bottom.reduction is None


def test_rings_outside_a_chain_keep_the_truncated_check(c4, gf):
    top = stanley_reisner(c4, 4, gf)
    x, y = top.generator("x1"), top.generator("y1")
    rings = [
        top,
        quotient_by_linear(top, x + y),
        algebra_from_relations(["X", "Y"], EXAMPLE_RING_RELATIONS, 4, gf),
    ]
    for R in rings:
        assert R.reduction is None
        X = R.generators()[0]
        w = FreeComplexWindow(R, -2, 2, [1] * 5, [[[X]]] * 4, base_twist=-2)
        with pytest.raises(ComplexError, match="no certified reduction"):
            w.reduce()
        report = w.graded_exactness()
        assert report.records and report.complete == R.is_artinian()
