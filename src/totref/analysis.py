"""Ring-structure analyses on Artinian reductions: socle, Lefschetz behaviour,
exact-zero-divisor search and certification, ideal-pair decompositions.

One search (``find_ezd``) looks for exact zero divisors; its input decides
how each candidate's partner is chosen: the X/Y sign flip when the X side
of a bipartite graph is given, the kernel of multiplication otherwise.

The Weak Lefschetz Property is tested as surjectivity of multiplication
R_1 -> R_2 by a linear form; for graphs with e = 2n - 4 this is equivalent to
the edge/vertex coefficient system having a 4-dimensional solution space,
which is computed independently as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Optional

import numpy as np

from .algebra import AlgebraElement, AlgebraError, GradedAlgebra
from .complexes import fitting_support, linear_matrix, matrix_product
from .graphs import Graph
from .linalg import (
    Subspace, array_rank, check_image, field_array, field_reduce, field_zeros, freeze,
    kernel_basis, rank_bounds, rank_reaches, reduce_rref,
)


def _require_artinian(R: GradedAlgebra):
    if not R.is_artinian():
        raise AlgebraError("operation requires an Artinian algebra (top degree must vanish)")


def _stacked_mult_kernel(R: GradedAlgebra, d: int) -> Subspace:
    """Kernel of u -> (u * g for every generator g), from degree d."""
    f = R.field
    src = R.dims[d]
    if src == 0:
        return Subspace.zero(f, 0)
    if d + 1 > R.cutoff or R.dims[d + 1] == 0:
        return Subspace.full(f, src)
    # rows of multiplication by generator i: the transposed table slice T[i].T
    return kernel_basis(f, R.np_table(1, d).transpose(0, 2, 1).reshape(-1, src))


def _graded_sum(R: GradedAlgebra, parts) -> Subspace:
    """The span inside R_1 + R_2 + ... of vectors of single graded pieces;
    parts maps a degree d >= 1 to an array whose rows are vectors of R_d."""
    f = R.field
    ambient = sum(R.dims[1:])
    blocks = [field_zeros(f, (0, ambient))]
    for d, part in parts.items():
        offset = sum(R.dims[1:d])
        block = field_zeros(f, (part.shape[0], ambient))
        block[:, offset : offset + R.dims[d]] = part
        blocks.append(block)
    return Subspace.from_vectors(f, ambient, np.vstack(blocks))


def _socle_sum(R: GradedAlgebra, parts) -> Subspace:
    return _graded_sum(R, {d: k.rows for d, k in enumerate(parts, start=1)})


def socle(R: GradedAlgebra) -> Subspace:
    """Canonical basis of (0 : m) inside R_1 + R_2 + ... as one vector space."""
    return _socle_sum(R, socle_degree_parts(R))


def socle_degree_parts(R: GradedAlgebra):
    """The socle kernel per degree, as a list of Subspaces of R_d."""
    _require_artinian(R)
    return [_stacked_mult_kernel(R, d) for d in range(1, R.cutoff + 1)]


def m_squared_subspace(R: GradedAlgebra) -> Subspace:
    """m^2 inside R_1 + R_2 + ...; degreewise the span of products R_a * R_b.
    A degree with R_d = 0 spans nothing, so its tables are never built."""
    _require_artinian(R)
    parts = {}
    for d in range(2, R.cutoff + 1):
        if R.dims[d] == 0:
            continue
        span = np.vstack([R.np_table(a, d - a).reshape(-1, R.dims[d]) for a in range(1, d)])
        parts[d] = Subspace.from_vectors(R.field, R.dims[d], span).rows
    return _graded_sum(R, parts)


def quadratic_presentation(R: GradedAlgebra) -> bool:
    """Do quadrics generate the degree-3 relations of the presentation on R_1?

    Let K_2 be the kernel of Sym^2(R_1) -> R_2 and A = Sym(R_1)/(K_2).  The
    quadrics generate the cubic relations iff dim A_3 equals r_3, the rank of
    Sym^3(R_1) -> R_3 (taken as 0 when R_3 is zero or beyond the cutoff).
    With m = dim R_1 and A_2 the image of Sym^2(R_1) in R_2, of dimension r_2,

        A_3 = (R_1 (x) A_2) / span{x_i (x) x_j x_k - x_j (x) x_i x_k : i < j, all k},

    so dim A_3 = m * r_2 - rank(Rel), with Rel spanned by those rows inside
    R_1 (x) R_2: m * dim R_2 columns instead of C(m+2, 3).  A_3 maps onto the
    image of Sym^3 in R_3, so rank(Rel) <= m * r_2 - r_3, with equality
    exactly when the presentation is quadratic.  The nonzero rows alone are
    streamed, as sparse rows, into a single echelon form, which stops as soon
    as the rank reaches that bound.
    """
    f = R.field
    m = R.dims[1]
    if m == 0:
        return True
    image2 = Subspace.from_vectors(f, R.dims[2], R.np_table(1, 1)[np.triu_indices(m)])
    r3 = 0
    if R.cutoff >= 3 and R.dims[3] > 0:
        # the image of Sym^3 is spanned by the products b * x_i, b in A_2
        r3 = array_rank(f, R.times(image2.rows, 2, 1).reshape(-1, R.dims[3]))
    target = m * image2.dim - r3
    return rank_reaches(f, _relation_rows(R), target)


def _relation_rows(R: GradedAlgebra):
    """The nonzero rows x_i (x) x_j x_k - x_j (x) x_i x_k (i < j, all k), in
    that order, in R_1 (x) R_2 coordinates, as sparse rows for
    ``linalg.rank_reaches``: dicts from column to nonzero field entry."""
    m, d2 = R.dims[1], R.dims[2]
    T = R.np_table(1, 1)  # T[j, k] = x_j * x_k in R_2
    nz = np.nonzero(T)
    prods = [{} for _ in range(m)]  # prods[j][k]: (e, v, -v) per entry v of x_j x_k
    for j, k, e, v, w in zip(
        *(a.tolist() for a in nz), T[nz].tolist(), field_reduce(R.field, -T[nz]).tolist()
    ):
        prods[j].setdefault(k, []).append((e, v, w))
    for i in range(m - 1):
        for j in range(i + 1, m):
            for k in sorted(prods[i].keys() | prods[j].keys()):
                row = {i * d2 + e: v for e, v, _ in prods[j].get(k, ())}
                row.update((j * d2 + e, w) for e, _, w in prods[i].get(k, ()))
                yield row


@dataclass
class RingConditionReport:
    """Necessary conditions for a non-Gorenstein m^3 = 0 ring to carry
    non-free totally reflexive modules."""

    socle_equals_m2: bool
    dim_r1: int
    dim_r2: int
    type_r: int
    dims_match: bool
    quadratic_presentation: bool
    m2_zero: bool
    linear_socle_labels: tuple
    verdict: str  # "admits-possible" | "no-non-free-TR"

    def to_json(self):
        return {
            "socle_equals_m2": self.socle_equals_m2,
            "dim_r1": self.dim_r1,
            "dim_r2": self.dim_r2,
            "type": self.type_r,
            "dims_match": self.dims_match,
            "quadratic_presentation": self.quadratic_presentation,
            "m2_zero": self.m2_zero,
            "linear_socle": list(self.linear_socle_labels),
            "verdict": self.verdict,
        }


def necessary_ring_conditions(R: GradedAlgebra) -> RingConditionReport:
    _require_artinian(R)
    if R.cutoff >= 4 and any(R.dims[3 : R.cutoff + 1]):
        raise AlgebraError("necessary_ring_conditions requires m^3 = 0")
    parts = socle_degree_parts(R)
    soc = _socle_sum(R, parts)
    socle_ok = soc == m_squared_subspace(R)
    linear_part = parts[0]
    f = R.field
    linear_labels = []
    for b in linear_part.basis:
        terms = [
            f"{c}*{lab}" for c, lab in zip(b, R.basis[1]) if not f.is_zero(c)
        ]
        linear_labels.append(" + ".join(terms))
    r = soc.dim
    dims_match = R.dims[1] == r + 1 and R.dims[2] == r
    quad = quadratic_presentation(R)
    m2_zero = R.dims[2] == 0
    ok = socle_ok and dims_match and quad and not m2_zero
    return RingConditionReport(
        socle_equals_m2=socle_ok,
        dim_r1=R.dims[1],
        dim_r2=R.dims[2],
        type_r=r,
        dims_match=dims_match,
        quadratic_presentation=quad,
        m2_zero=m2_zero,
        linear_socle_labels=tuple(linear_labels),
        verdict="admits-possible" if ok else "no-non-free-TR",
    )


# -- Weak Lefschetz ------------------------------------------------------------


def wlp_check(R: GradedAlgebra, l: AlgebraElement) -> bool:
    """True iff multiplication by l from R_1 to R_2 is surjective."""
    if l.degree != 1:
        raise AlgebraError("WLP check takes a linear form")
    return array_rank(R.field, R.mult_map_array(l.coords, 1, 1)) == R.dims[2]


def wlp_generic(R: GradedAlgebra, rng: Random, trials: int = 8):
    """Samples random linear forms; one surjective sample certifies WLP.

    Returns (has_wlp, number of surjective samples, a certifying form or None).
    """
    hits = 0
    witness = None
    for _ in range(trials):
        l = R.random_linear(rng)
        if wlp_check(R, l):
            hits += 1
            if witness is None:
                witness = l
    return hits > 0, hits, witness


# -- the edge/vertex coefficient system -----------------------------------------


@dataclass
class KernelSystem:
    """The (e+n) x 3n system expressing l1*f1 + l2*f2 + l*f = 0 in the graph ring."""

    matrix: np.ndarray  # (e+n) x 3n, over the field
    solutions: Subspace
    dimension: int
    koszul: Subspace
    koszul_contained: bool
    f4: Optional[tuple]  # canonical extra solution when dimension == 4

    def f4_linear_coeffs(self):
        """The f-part (last n coordinates) of the extra solution."""
        if self.f4 is None:
            return None
        return self.f4[2 * self.matrix.shape[1] // 3 :]

    def to_json(self):
        return {
            "equations": self.matrix.shape[0],
            "unknowns": self.matrix.shape[1],
            "dimension": self.dimension,
            "koszul_contained": self.koszul_contained,
        }


def kernel_system(g: Graph, l1_coeffs, l2_coeffs, l_coeffs, field) -> KernelSystem:
    """Assemble and solve the coefficient system for the three-form relation.

    Unknowns are ordered (u_1..u_n, v_1..v_n, w_1..w_n): the coefficients of
    f1, f2, f in the vertex variables.  One equation per edge and one per
    vertex; the three Koszul solutions (-l2, l1, 0), (-l, 0, l1), (0, -l, l2)
    are verified to lie in the solution space.
    """
    if not g.is_connected():
        raise AlgebraError("graph must be connected")
    n = g.n
    f = field
    alpha = [f.coerce(c) for c in l1_coeffs]
    beta = [f.coerce(c) for c in l2_coeffs]
    a = [f.coerce(c) for c in l_coeffs]
    if not (len(alpha) == len(beta) == len(a) == n):
        raise AlgebraError("coefficient vectors must have one entry per vertex")
    vidx = {v: i for i, v in enumerate(g.vertices)}

    rows = []
    for u, w in g.edges:
        i, j = vidx[u], vidx[w]
        row = [f.zero] * (3 * n)
        row[i] = f.add(row[i], alpha[j])
        row[j] = f.add(row[j], alpha[i])
        row[n + i] = f.add(row[n + i], beta[j])
        row[n + j] = f.add(row[n + j], beta[i])
        row[2 * n + i] = f.add(row[2 * n + i], a[j])
        row[2 * n + j] = f.add(row[2 * n + j], a[i])
        rows.append(row)
    for i in range(n):
        row = [f.zero] * (3 * n)
        row[i] = alpha[i]
        row[n + i] = beta[i]
        row[2 * n + i] = a[i]
        rows.append(row)

    m = field_array(f, rows).reshape(len(rows), 3 * n)
    sol = kernel_basis(f, m)
    koszul_vecs = [
        [f.neg(c) for c in beta] + list(alpha) + [f.zero] * n,
        [f.neg(c) for c in a] + [f.zero] * n + list(alpha),
        [f.zero] * n + [f.neg(c) for c in a] + list(beta),
    ]
    koszul = Subspace.from_vectors(f, 3 * n, koszul_vecs)
    contained = all(sol.contains(v) for v in koszul_vecs)

    f4 = None
    if sol.dim == 4:
        # reduce the canonical solution basis against the Koszul span and keep
        # the first surviving vector, renormalized to leading coefficient one
        for v in reduce_rref(f, koszul.rows, koszul.pivots, sol.rows).tolist():
            if any(not f.is_zero(x) for x in v):
                lead = next(x for x in v if not f.is_zero(x))
                inv = f.inv(lead)
                f4 = tuple(f.mul(inv, x) for x in v)
                break
    return KernelSystem(
        matrix=m,
        solutions=sol,
        dimension=sol.dim,
        koszul=koszul,
        koszul_contained=contained,
        f4=f4,
    )


# -- exact zero divisors ---------------------------------------------------------


@dataclass
class EzdPair:
    a: AlgebraElement
    b: AlgebraElement
    certified: bool

    def to_json(self):
        return {
            "a": [self.a.algebra.field.encode(c) for c in self.a.coords],
            "b": [self.b.algebra.field.encode(c) for c in self.b.coords],
            "certified": self.certified,
        }


def ring_length(R: GradedAlgebra) -> int:
    return sum(R.dims)


def principal_length_linear(R: GradedAlgebra, a: AlgebraElement) -> int:
    """Length of the ideal (a) for a nonzero linear a in an m^3 = 0 ring:
    1 (for a itself) + dim a*R_1."""
    return 1 + array_rank(R.field, R.mult_map_array(a.coords, a.degree, 1))


def verify_ezd(R: GradedAlgebra, a: AlgebraElement, b: AlgebraElement) -> bool:
    """Length certificate: a*b = 0 and l((a)) + l((b)) = l(R)."""
    _require_artinian(R)
    if a.degree != 1 or b.degree != 1:
        raise AlgebraError("exact zero divisors are certified for linear elements")
    if a.is_zero() or b.is_zero():
        return False
    if not (a * b).is_zero():
        return False
    return principal_length_linear(R, a) + principal_length_linear(R, b) == ring_length(R)


def annihilator_linear(R: GradedAlgebra, a: AlgebraElement) -> Subspace:
    """Ann(a) as a subspace of R_1 + R_2 (direct annihilator computation)."""
    _require_artinian(R)
    parts = {}
    for d in range(1, R.cutoff + 1):
        if R.dims[d] == 0:
            continue
        if d + a.degree > R.cutoff or R.dims[d + a.degree] == 0:
            parts[d] = Subspace.full(R.field, R.dims[d]).rows
        else:
            parts[d] = kernel_basis(R.field, R.mult_map_array(a.coords, a.degree, d)).rows
    return _graded_sum(R, parts)


def principal_ideal_subspace(R: GradedAlgebra, b: AlgebraElement) -> Subspace:
    """(b) = span{b} + b*R_1 as a subspace of R_1 + R_2 (for linear b)."""
    mm = R.mult_map_array(b.coords, b.degree, 1)
    return _graded_sum(R, {1: field_array(R.field, [b.coords]), 2: mm.T})


def find_ezd(
    R: GradedAlgebra,
    *,
    trials: int = 128,
    rng: Optional[Random] = None,
    x_labels=None,
) -> Optional[EzdPair]:
    """Search for a certified pair of exact zero divisors among linear forms.

    The candidates z are the degree-one generators, then ``trials`` random
    linear forms; a z whose multiplication map on R_1 has a one-dimensional
    kernel gets one partner.  With x_labels (the X side of a bipartite
    graph, reduced by its canonical forms) the partner is the X/Y sign flip
    of z: z = x + y becomes x - y.  Without them it is the generator of that
    kernel.  A pair is returned only once ``verify_ezd`` certifies it.

    The generators are ranked one by one; the random forms are drawn in
    chunks of d, 2d, 4d, ... forms (d = dim R_1, the last chunk cut at
    ``trials``), each chunk ranked together (``_ezd_candidates``) and then
    walked in draw order, so the pair found is the one a walk of single
    forms finds.  rng may therefore advance up to one chunk past the
    winner; when nothing is found it has drawn exactly ``trials`` forms.
    """
    _require_artinian(R)
    if R.dims[1] == 0 or R.dims[2] == 0:
        return None  # m^2 = 0 (or worse): no exact zero divisors among linear forms
    if rng is None:
        rng = Random(0)
    f = R.field
    on_x = None if x_labels is None else np.array([lab in x_labels for lab in R.basis[1]])
    for z, r in _ezd_candidates(R, trials, rng):
        if z.is_zero() or R.dims[1] - r != 1:
            continue
        if on_x is None:
            partner = AlgebraElement(R, 1, kernel_basis(f, R.mult_map_array(z.coords, 1, 1)).basis[0])
        else:
            coords = field_array(f, z.coords)
            partner = AlgebraElement(R, 1, np.where(on_x, coords, field_reduce(f, -coords)).tolist())
        if verify_ezd(R, z, partner):
            return EzdPair(a=z, b=partner, certified=True)
    return None


def _ezd_candidates(R: GradedAlgebra, trials, rng):
    """(z, rank of z * R_1 -> R_2) for the candidates of ``find_ezd`` in
    order: each generator, ranked alone, then ``trials`` random linear
    forms, drawn in chunks whose size doubles from the generator count.  A
    chunk's maps are one ``times`` product, ranked by one ``rank_bounds``
    call (a map has the rank of its transpose); a bound that is not exact
    is replaced by the map's ``array_rank``.  The maps are frozen, so over
    the rationals each integer form is computed once for both."""
    f = R.field
    for z in R.generators():
        yield z, array_rank(f, R.mult_map_array(z.coords, 1, 1))
    drawn, size = 0, R.dims[1]
    while drawn < trials:
        zs = [R.random_linear(rng) for _ in range(min(size, trials - drawn))]
        drawn, size = drawn + len(zs), 2 * size
        maps = [freeze(M) for M in R.times(field_array(f, [z.coords for z in zs]), 1, 1)]
        bounds = rank_bounds(f, [check_image(f, M) for M in maps])
        for z, M, (r, exact) in zip(zs, maps, bounds):
            yield z, r if exact else array_rank(f, M)


# -- ideal pair analysis -----------------------------------------------------------


@dataclass
class IdealPairReport:
    sum_is_m: bool
    product_zero: bool
    intersection_dims: tuple
    direct_sum: bool
    nu_m: int
    a_dims: tuple
    b_dims: tuple
    verdict: Optional[str]

    def to_json(self):
        return {
            "sum_is_m": self.sum_is_m,
            "product_zero": self.product_zero,
            "intersection_dims": list(self.intersection_dims),
            "direct_sum": self.direct_sum,
            "nu_m": self.nu_m,
            "a_dims": list(self.a_dims),
            "b_dims": list(self.b_dims),
            "verdict": self.verdict,
        }


def ideal_pair_analysis(R: GradedAlgebra, gens_a, gens_b) -> IdealPairReport:
    """Decomposition report for m = a + b generated by two sets of linear forms.

    When the sum is all of m, the product is zero and the intersection
    vanishes (so m = a (+) b) with at least three generators, the ring has no
    non-free totally reflexive modules at all.
    """
    _require_artinian(R)
    A, B = linear_matrix(R, [gens_a]), linear_matrix(R, [gens_b])
    a1, a2 = fitting_support(R, A)
    b1, b2 = fitting_support(R, B)
    sum1 = a1.sum(b1).dim == R.dims[1]
    sum2 = a2.sum(b2).dim == R.dims[2]
    # the column of generators of a times the row of those of b
    prod_zero = not matrix_product(A.transpose(1, 0, 2), B, R).any()
    int1 = a1.intersection(b1)
    int2 = a2.intersection(b2)
    direct = sum1 and sum2 and prod_zero and int1.dim == 0 and int2.dim == 0
    nu = R.dims[1]
    verdict = None
    if direct and nu >= 3 and a1.dim > 0 and b1.dim > 0:
        verdict = "no-non-free-TR"
    elif sum1 and sum2 and prod_zero and (int1.dim or int2.dim):
        verdict = "non-trivial-intersection"
    return IdealPairReport(
        sum_is_m=sum1 and sum2,
        product_zero=prod_zero,
        intersection_dims=(int1.dim, int2.dim),
        direct_sum=direct,
        nu_m=nu,
        a_dims=(a1.dim, a2.dim),
        b_dims=(b1.dim, b2.dim),
        verdict=verdict,
    )
