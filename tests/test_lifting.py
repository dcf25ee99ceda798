import functools
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from totref import (
    AlgebraElement,
    FreeComplexWindow,
    Graph,
    LiftError,
    assemble_epsilon,
    certify_regular,
    correction_matrix,
    ezd_complex,
    find_ezd,
    full_certification,
    lift_complex,
    lift_matrix,
    lift_through_sequence,
    linear_matrix,
    reduction_chain,
    ten_vertex_graph,
)
from totref.algebra import QuotientMap
from totref.factory import SpecialRing, build_window, random_blocks
from totref.fields import DEFAULT_PRIME
from totref.linalg import (
    array_rank, field_array, field_matmul, field_reduce, field_zeros, kernel_basis, solve,
)

from conftest import ARRAY_FIELDS, array_field, element_rows, list_product


@pytest.fixture(scope="module")
def c4_setup(c4_chain5):
    chain = c4_chain5
    R = chain.bottom
    pair = find_ezd(R, trials=32, rng=Random(1), x_labels={"x1", "x2"})
    w = ezd_complex(R, pair, half_length=5)
    return chain, R, pair, w


def ranked_regular(S, x):
    """The truncated oracle: multiplication by x is injective on every graded
    piece below the cutoff, by one rank per degree."""
    if x.degree != 1 or x.is_zero():
        return False
    return all(
        array_rank(S.field, S.mult_map_array(x.coords, 1, t)) == S.dims[t]
        for t in range(S.cutoff)
        if S.dims[t]
    )


def test_regularity_certificates(c4_setup):
    chain, R, _, _ = c4_setup
    q1, q2 = chain.steps
    assert certify_regular(q1) and certify_regular(q2)
    S = chain.ring(1)
    assert ranked_regular(chain.top, q1.form) and ranked_regular(S, q2.form)
    # x1 is a zero divisor of the middle ring (x1 x2 = 0 and x2 = -x1 there),
    # and a map that no chain certified is refused even when its form is regular
    x1 = S.generator("x1")
    assert not ranked_regular(S, x1) and not ranked_regular(S, S.zero(1))
    assert not certify_regular(QuotientMap(S, x1))
    other = QuotientMap(S, q2.form + x1)
    assert ranked_regular(S, other.form) and not certify_regular(other)


def test_lift_refuses_a_map_outside_the_chain(c4_setup):
    chain, _, _, _ = c4_setup
    q = QuotientMap(chain.ring(1), chain.steps[1].form + chain.ring(1).generator("x1"))
    R = q.target
    pair = find_ezd(R, trials=64, rng=Random(3))
    w = ezd_complex(R, pair, half_length=3)
    with pytest.raises(LiftError, match="regular"):
        lift_complex(w, q)
    step = lift_complex(w, q, check=False)
    assert not step.regular_ok and not step.certified


def test_lift_matrix_section_round_trip(c4_setup):
    chain, R, pair, _ = c4_setup
    q2 = chain.steps[1]
    mat = [[pair.a, R.zero(1)], [pair.b, pair.a]]
    lifted = element_rows(chain.ring(1), lift_matrix(linear_matrix(R, mat), q2))
    assert [[q2.project(e) for e in row] for row in lifted] == mat
    assert not lift_matrix(linear_matrix(R, [[R.zero(1)]]), q2).any()


def test_correction_matrix_properties(c4_setup):
    chain, R, pair, w = c4_setup
    q2 = chain.steps[1]
    S = chain.ring(1)
    x = q2.form
    xs = linear_matrix(S, [[x]])[0, 0]
    d1 = lift_matrix(w.diff(0), q2)
    d2 = lift_matrix(w.diff(1), q2)
    M = correction_matrix(d1, d2, xs, S)
    # M entries are linear, hence non-units, and x*M reproduces the product
    assert M.shape == (1, 1, S.dims[1])
    prod = element_rows(S, d1)[0][0] * element_rows(S, d2)[0][0]
    assert (x * element_rows(S, M)[0][0] - prod).is_zero()
    # a zero product gives a zero correction
    z = field_zeros(S.field, (1, 1, S.dims[1]))
    assert not correction_matrix(z, z, xs, S).any()
    # a product that x does not divide: two forms whose product is nonzero in R
    a, b = next((a, b) for a in R.generators() for b in R.generators() if not (a * b).is_zero())
    with pytest.raises(LiftError, match="not divisible"):
        correction_matrix(
            lift_matrix(linear_matrix(R, [[a]]), q2), lift_matrix(linear_matrix(R, [[b]]), q2), xs, S
        )


def test_assemble_epsilon_shape_and_signs(c4_setup):
    chain, R, pair, w = c4_setup
    q2 = chain.steps[1]
    S = chain.ring(1)
    x = q2.form
    xs = linear_matrix(S, [[x]])[0, 0]
    d_i = lift_matrix(w.diff(1), q2)
    d_im1 = lift_matrix(w.diff(0), q2)
    M = correction_matrix(d_im1, d_i, xs, S)
    even = element_rows(S, assemble_epsilon(d_i, d_im1, M, xs, S, 0))
    odd = element_rows(S, assemble_epsilon(d_i, d_im1, M, xs, S, 1))
    (m,), (d,), (dm,) = (element_rows(S, a)[0] for a in (M, d_i, d_im1))
    assert even == [[d, x], [m, dm]]
    assert odd == [[d, -x], [-m, dm]]
    with pytest.raises(LiftError, match="inconsistent"):
        assemble_epsilon(d_i, d_im1, np.concatenate([M, M]), xs, S, 0)


def test_cancellation_check_sees_a_wrong_correction(c4_setup, monkeypatch):
    # with x added to one entry of the first correction matrix, x * M_i no
    # longer equals the product, and x * (M_i d~_{i+1} - d~_{i-1} M_{i+1}) =
    # x^2 d~_{i+1} != 0.  lift_complex reads every correction off one
    # correction_matrix call, which returns them stacked, M[j] for i = lo + 2 + j
    import totref.lifting as lifting

    chain, _, _, w = c4_setup
    real, calls = lifting.correction_matrix, []

    def first_one_wrong(d_i, d_ip1, x, S):
        M = real(d_i, d_ip1, x, S)
        assert M.ndim == 4 and len(M) == w.hi - w.lo - 1
        M[0, 0, 0] = field_reduce(S.field, M[0, 0, 0] + x)
        calls.append(1)
        return M

    monkeypatch.setattr(lifting, "correction_matrix", first_one_wrong)
    step = lift_complex(w, chain.steps[1], check=False)
    assert calls == [1]
    assert not step.cancellation_ok and not step.certified


def count_certification_work(monkeypatch):
    """Counters of the calls a lift makes: ``rank_bounds`` (as complexes
    binds it), ``linalg.solve`` (as lifting binds it) and
    ``compose_check``, by the window it checks."""
    import totref.complexes as complexes
    import totref.lifting as lifting

    calls = {"rank_bounds": 0, "solve": 0, "compose_check": []}
    real_bounds, real_solve = complexes.rank_bounds, lifting.solve
    real_compose = FreeComplexWindow.compose_check

    def rank_bounds(field, images):
        calls["rank_bounds"] += 1
        return real_bounds(field, images)

    def solve(field, A, B):
        calls["solve"] += 1
        return real_solve(field, A, B)

    def compose_check(self):
        calls["compose_check"].append(self)
        return real_compose(self)

    monkeypatch.setattr(complexes, "rank_bounds", rank_bounds)
    monkeypatch.setattr(lifting, "solve", solve)
    monkeypatch.setattr(FreeComplexWindow, "compose_check", compose_check)
    return calls


@pytest.mark.parametrize(
    "name, p", [("ten_vertex", DEFAULT_PRIME), ("c4", DEFAULT_PRIME), ("c4", "QQ")]
)
def test_two_step_lift_certifies_each_window_once(monkeypatch, name, p):
    """A two-step lift checks its input once and each lifted window once:
    3 ``rank_bounds`` calls (the input's exactness, then the primal and dual
    blocks of each lifted window together), one correction solve per step,
    and one ``compose_check`` per window.  The ten-vertex window is a
    factory window of 4 steps each way, as ``build --mode factory`` makes."""
    chain = chain_over(name, p)
    R = chain.bottom
    if name == "ten_vertex":
        ring = SpecialRing(chain, ("x1", "x2", "y1", "y2"), ("x3", "x4", "y3", "y4"))
        w, rep = build_window(ring, random_blocks(ring, Random(0)), 4, 4)
        assert rep.certified
    else:
        pair = find_ezd(R, trials=32, rng=Random(1), x_labels={"x1", "x2"})
        w = ezd_complex(R, pair, half_length=4)
    calls = count_certification_work(monkeypatch)
    final, steps = lift_through_sequence(w, [chain.steps[1], chain.steps[0]])
    assert all(s.certified for s in steps) and final is steps[1].window
    assert calls["rank_bounds"] == 3 and calls["solve"] == 2
    assert [id(v) for v in calls["compose_check"]] == [id(w)] + [id(s.window) for s in steps]


def test_lift_c4_betti_doubles(c4_setup):
    chain, R, pair, w = c4_setup
    q2, q1 = chain.steps[1], chain.steps[0]
    step1 = lift_complex(w, q2)
    assert set(step1.window.betti) == {2}
    assert step1.certified and step1.cancellation_ok
    step2 = lift_complex(step1.window, q1)
    assert set(step2.window.betti) == {4}
    assert step2.certified
    # reduction of the top-left block of epsilon recovers the source diff
    for i in step1.window.interior_indices():
        eps = element_rows(chain.ring(1), step1.window.diff(i))
        src = element_rows(R, w.diff(i))
        for r in range(len(src)):
            for c in range(len(src[0])):
                assert q2.project(eps[r][c]) == src[r][c]


def test_lift_through_sequence_identity_and_chain(c4_setup):
    chain, R, pair, w = c4_setup
    final, steps = lift_through_sequence(w, [])
    assert final is w and steps == []
    final, steps = lift_through_sequence(w, [chain.steps[1], chain.steps[0]])
    assert [set(s.window.betti) for s in steps] == [{2}, {4}]
    assert all(s.certified for s in steps)
    cert = full_certification(final)
    assert cert.certified


def test_lift_rejects_non_complex_source(c4_setup):
    chain, R, pair, _ = c4_setup
    q2 = chain.steps[1]
    x, y = R.generators()
    bad = FreeComplexWindow(R, -2, 2, [1] * 5, [[[x]], [[y]], [[x]], [[y]]], base_twist=-2)
    assert not bad.compose_check()
    with pytest.raises(LiftError):
        lift_complex(bad, q2)


def test_lift_negative_control_non_exact_source(path4, gf):
    # the tree reduction has m^2 = 0: the x-multiplication window composes but
    # is not exact, and its lift must fail verification
    chain = reduction_chain(path4, cutoff=5, field=gf)
    R = chain.bottom
    assert list(R.dims)[:3] == [1, 2, 0]
    x = R.generators()[0]
    w = FreeComplexWindow(R, -3, 3, [1] * 7, [[[x]] for _ in range(6)], base_twist=-3)
    assert w.compose_check()
    assert not w.graded_exactness().exact
    with pytest.raises(LiftError):
        lift_complex(w, chain.steps[1])  # the exactness gate refuses
    step = lift_complex(w, chain.steps[1], check=False)
    assert not step.certificate.exactness.exact
    assert not step.certified


def test_lift_window_too_short(c4_setup):
    chain, R, pair, _ = c4_setup
    w = ezd_complex(R, pair, half_length=5)
    short = FreeComplexWindow(R, 0, 1, [1, 1], [w.diff(1)], base_twist=0)
    with pytest.raises(LiftError):
        lift_complex(short, chain.steps[1])
    # two differentials lift to one, which has no interior index: refused up
    # front, checked or not, naming the count; three lift
    two = FreeComplexWindow(R, -1, 1, [1, 1, 1], [w.diff(0), w.diff(1)], base_twist=-1)
    for check in (True, False):
        with pytest.raises(LiftError, match="has 2 differentials and needs at least 3"):
            lift_complex(two, chain.steps[1], check=check)
    three = FreeComplexWindow(R, -1, 2, [1] * 4, [w.diff(i) for i in range(3)], base_twist=-1)
    assert lift_complex(three, chain.steps[1]).certified


# -- the array lift against the per-entry element oracle ----------------------


@functools.lru_cache(maxsize=None)
def chain_over(name, p):
    c4 = Graph(
        ["x1", "x2", "y1", "y2"],
        [("x1", "y1"), ("x1", "y2"), ("x2", "y1"), ("x2", "y2")],
        bipartition=(("x1", "x2"), ("y1", "y2")),
    )
    return reduction_chain(c4 if name == "c4" else ten_vertex_graph(), cutoff=3, field=array_field(p))


def random_forms(R, rng, rows, cols):
    f = R.field
    coords = [
        [[f.zero] * R.dims[1] if rng.random() < 0.2 else [f.rand(rng) for _ in range(R.dims[1])]
         for _ in range(cols)]
        for _ in range(rows)
    ]
    return field_array(f, coords).reshape(rows, cols, R.dims[1])


def composing_forms(R, rng, rows, D):
    """A rows x b matrix E of linear forms with E D = 0 over R: each row a
    random vector of the kernel of v -> v D on (R_1)^b, which is the degree-1
    block of the transpose of D."""
    f = R.field
    b, c = D.shape[:2]
    transpose = FreeComplexWindow(R, -1, 0, [c, b], [D.transpose(1, 0, 2)])
    K = kernel_basis(f, transpose._block_array(0, 1)).rows
    coeffs = field_array(f, [[f.rand(rng) for _ in range(len(K))] for _ in range(rows)])
    return field_matmul(f, coeffs.reshape(rows, len(K)), K).reshape(rows, b, R.dims[1])


def correction_oracle(A, B, x, S):
    """One list_product per product term and one linalg.solve per entry."""
    X = S.mult_map_array(x.coords, 1, 1)
    out = []
    for r in range(len(A)):
        row = []
        for c in range(len(B[0])):
            prod = S.zero(2)
            for m in range(len(B)):
                prod = prod + list_product(S, A[r][m], B[m][c])
            sol = solve(S.field, X, field_array(S.field, [prod.coords]).T)
            if sol is None:
                raise LiftError("not divisible")
            row.append(AlgebraElement(S, 1, sol[:, 0].tolist()))
            assert list_product(S, x, row[-1]) == prod
        out.append(row)
    return out


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(ARRAY_FIELDS),
    st.sampled_from(["c4", "ten_vertex"]),
    st.sampled_from([0, 1]),
    st.integers(0, 2**32),
    st.tuples(*[st.integers(1, 3)] * 3),
    st.booleans(),
)
def test_array_lift_matches_element_oracle(p, name, level, seed, betti, perturb):
    """Random windows d_{i-1} d_i of 1-3 x 1-3 linear forms that compose over
    R = S/(x), on both steps of a chain: the lifts, the correction matrix and
    the block differential equal their per-entry element oracles
    (QuotientMap.lift, list_product and one linalg.solve per entry); with an entry
    of the lifted d_{i-1} perturbed, the array correction refuses exactly
    when some product entry is not divisible by x."""
    q = chain_over(name, p).steps[level]
    R, S, f, rng = q.target, q.source, q.source.field, Random(seed)
    b0, b1, b2 = betti
    d_i = random_forms(R, rng, b1, b0)
    d_im1 = composing_forms(R, rng, b2, d_i)
    lifted = [lift_matrix(D, q) for D in (d_im1, d_i)]
    for D, L in zip((d_im1, d_i), lifted):
        assert element_rows(S, L) == [[q.lift(e) for e in row] for row in element_rows(R, D)]
    if perturb:
        lifted[0][0, 0] = field_reduce(f, lifted[0][0, 0] + random_forms(S, rng, 1, 1)[0, 0])
    x = linear_matrix(S, [[q.form]])[0, 0]
    A, B = (element_rows(S, L) for L in lifted)
    try:
        expected = correction_oracle(A, B, q.form, S)
    except LiftError:
        with pytest.raises(LiftError, match="not divisible"):
            correction_matrix(lifted[0], lifted[1], x, S)
        assert perturb
        return
    M = correction_matrix(lifted[0], lifted[1], x, S)
    assert element_rows(S, M) == expected
    for index in (0, 1):
        sign = 1 if index % 2 == 0 else -1
        sx = q.form if sign == 1 else -q.form
        top = [B[r] + [sx if c == r else S.zero(1) for c in range(b1)] for r in range(b1)]
        bottom = [[m if sign == 1 else -m for m in expected[r]] + A[r] for r in range(b2)]
        eps = assemble_epsilon(lifted[1], lifted[0], M, x, S, index)
        assert element_rows(S, eps) == top + bottom


@pytest.mark.parametrize("p", ARRAY_FIELDS)
def test_stacked_lift_matches_the_lift_of_each_index(p):
    """lift_complex works on the padded stack of all differentials; on a
    window of unequal Betti numbers (random composing forms, so padding
    rows and columns are real) its block differentials equal those built
    one index at a time: lift_matrix, correction_matrix and
    assemble_epsilon of each pair, and its cancellation check holds."""
    q = chain_over("c4", p).steps[1]
    R, S, rng = q.target, q.source, Random(7)
    betti = [2, 1, 3, 2, 1]
    diffs = [random_forms(R, rng, betti[-2], betti[-1])]
    for rows in reversed(betti[:-2]):
        diffs.insert(0, composing_forms(R, rng, rows, diffs[0]))
    w = FreeComplexWindow(R, 0, len(betti) - 1, betti, diffs)
    assert w.compose_check()
    step = lift_complex(w, q, check=False)
    x = linear_matrix(S, [[q.form]])[0, 0]
    lifted = {i: lift_matrix(w.diff(i), q) for i in range(1, w.hi + 1)}
    expected = [
        assemble_epsilon(
            lifted[i], lifted[i - 1], correction_matrix(lifted[i - 1], lifted[i], x, S), x, S, i
        )
        for i in range(2, w.hi + 1)
    ]
    assert step.cancellation_ok
    assert step.window.betti == [b + a for a, b in zip(betti, betti[1:])]
    assert [D.tolist() for D in step.window.diffs] == [D.tolist() for D in expected]

