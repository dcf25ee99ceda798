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
from totref.linalg import (
    array_rank, field_array, field_matmul, field_reduce, field_zeros, kernel_basis, solve,
)

from conftest import ARRAY_FIELDS, array_field, element_rows


@pytest.fixture(scope="module")
def c4_setup(c4_chain5):
    chain = c4_chain5
    R = chain.bottom
    pair = find_ezd(R, "bipartite-canonical", trials=32, rng=Random(1), x_labels={"x1", "x2"})
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
    assert ranked_regular(chain.top, q1.form) and ranked_regular(chain.mid, q2.form)
    # x1 is a zero divisor of the middle ring (x1 x2 = 0 and x2 = -x1 there),
    # and a map that no chain certified is refused even when its form is regular
    x1 = chain.mid.generator("x1")
    assert not ranked_regular(chain.mid, x1) and not ranked_regular(chain.mid, chain.mid.zero(1))
    assert not certify_regular(QuotientMap(chain.mid, x1))
    other = QuotientMap(chain.mid, q2.form + x1)
    assert ranked_regular(chain.mid, other.form) and not certify_regular(other)


def test_lift_refuses_a_map_outside_the_chain(c4_setup):
    chain, _, _, _ = c4_setup
    q = QuotientMap(chain.mid, chain.steps[1].form + chain.mid.generator("x1"))
    R = q.target
    pair = find_ezd(R, "random", trials=64, rng=Random(3))
    w = ezd_complex(R, pair, half_length=3)
    with pytest.raises(LiftError, match="regular"):
        lift_complex(w, q)
    step = lift_complex(w, q, check=False)
    assert not step.regular_ok and not step.certified


def test_lift_matrix_section_round_trip(c4_setup):
    chain, R, pair, _ = c4_setup
    q2 = chain.steps[1]
    mat = [[pair.a, R.zero(1)], [pair.b, pair.a]]
    lifted = element_rows(chain.mid, lift_matrix(linear_matrix(R, mat), q2))
    assert [[q2.project(e) for e in row] for row in lifted] == mat
    assert not lift_matrix(linear_matrix(R, [[R.zero(1)]]), q2).any()


def test_correction_matrix_properties(c4_setup):
    chain, R, pair, w = c4_setup
    q2 = chain.steps[1]
    S = chain.mid
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
    S = chain.mid
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
    # with x added to the first correction matrix, x * M_i no longer equals
    # the product, and x * (M_i d~_{i+1} - d~_{i-1} M_{i+1}) = x^2 d~_{i+1} != 0
    import totref.lifting as lifting

    chain, _, _, w = c4_setup
    real, calls = lifting.correction_matrix, []

    def first_one_wrong(d_i, d_ip1, x, S):
        M = real(d_i, d_ip1, x, S)
        if not calls:
            M[0, 0] = field_reduce(S.field, M[0, 0] + x)
        calls.append(1)
        return M

    monkeypatch.setattr(lifting, "correction_matrix", first_one_wrong)
    step = lift_complex(w, chain.steps[1], check=False)
    assert not step.cancellation_ok and not step.certified


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
        eps = element_rows(chain.mid, step1.window.diff(i))
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
    """One multiply per product term and one linalg.solve per entry."""
    X = S.mult_map_array(x.coords, 1, 1)
    out = []
    for r in range(len(A)):
        row = []
        for c in range(len(B[0])):
            prod = S.zero(2)
            for m in range(len(B)):
                prod = prod + A[r][m] * B[m][c]
            sol = solve(S.field, X, field_array(S.field, [prod.coords]).T)
            if sol is None:
                raise LiftError("not divisible")
            row.append(AlgebraElement(S, 1, sol[:, 0].tolist()))
            assert x * row[-1] == prod
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
    (QuotientMap.lift, multiply and one linalg.solve per entry); with an entry
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
