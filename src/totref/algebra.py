"""Degreewise presentations of standard graded algebras.

An algebra is stored as its graded components up to a cutoff D, given on
monomials: the product of two monomials is one monomial or zero, and a
quotient keeps, per degree, one projection array P
(``linalg.quotient_projection``) in which the class of the i-th monomial has
coordinates P[i].  A multiplication table is then P, with a zero row
appended, gathered at the monomial products: one rule for every ring, built
once per degree pair.  Where the basis is the monomials (P is the identity)
a product needs no table at all: it is a scatter of coordinates
(``GradedAlgebra.times``).  Every product, of two elements too, goes
through ``times``.  Three construction routes are provided:
Stanley-Reisner rings of graphs (whose basis is the monomials, so P is not
stored), quotients of a polynomial ring by homogeneous relations, and
quotients by a linear form (used twice to produce Artinian reductions).
Quotient complements are chosen by echelon pivoting on the *trailing*
coordinate, so quotienting by x1+...+xk eliminates xk and keeps the earlier
variables, matching the usual hand presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from random import Random

import numpy as np

from .fields import PrimeField, field_from_json, field_to_json
from .graphs import Graph, parse_graph
from .linalg import (
    check_image, field_array, field_matmul, field_zeros, freeze, identity, image_matmul,
    quotient_projection,
)


class AlgebraError(ValueError):
    pass


class AlgebraElement:
    """A homogeneous element: a coordinate vector in one graded component."""

    __slots__ = ("algebra", "degree", "coords")

    def __init__(self, algebra, degree, coords):
        self.algebra = algebra
        self.degree = degree
        self.coords = tuple(coords)
        if len(self.coords) != algebra.dims[degree]:
            raise AlgebraError(
                f"coordinate length {len(self.coords)} != dim_{degree} = {algebra.dims[degree]}"
            )

    def _peer(self, other):
        if not isinstance(other, AlgebraElement) or other.algebra is not self.algebra:
            raise AlgebraError("elements belong to different algebras")

    def __add__(self, other):
        self._peer(other)
        if other.degree != self.degree:
            raise AlgebraError("degree mismatch in addition")
        f = self.algebra.field
        return AlgebraElement(
            self.algebra, self.degree, [f.add(a, b) for a, b in zip(self.coords, other.coords)]
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.algebra.field
        return AlgebraElement(self.algebra, self.degree, [f.neg(a) for a in self.coords])

    def scale(self, c):
        f = self.algebra.field
        c = f.coerce(c)
        return AlgebraElement(self.algebra, self.degree, [f.mul(c, a) for a in self.coords])

    def __mul__(self, other):
        """The product, as multiplication by self (``mult_map_array``)
        applied to the coordinates of other."""
        self._peer(other)
        R, d, t = self.algebra, self.degree, other.degree
        M = R.mult_map_array(self.coords, d, t)
        v = field_array(R.field, [other.coords]).reshape(1, R.dims[t])
        return AlgebraElement(R, d + t, field_matmul(R.field, v, M.T)[0].tolist())

    def is_zero(self) -> bool:
        f = self.algebra.field
        return all(f.is_zero(c) for c in self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and other.algebra is self.algebra
            and other.degree == self.degree
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash((id(self.algebra), self.degree, self.coords))

    def __repr__(self):
        labels = self.algebra.basis[self.degree]
        f = self.algebra.field
        terms = [
            f"{c}*{m}" for c, m in zip(self.coords, labels) if not f.is_zero(c)
        ]
        return " + ".join(terms) if terms else "0"


class GradedAlgebra:
    """A standard graded algebra presented degreewise up to a cutoff.

    products(d1, d2) is an intp array whose entry (i, j) indexes the product
    of the i-th monomial of degree d1 and the j-th of degree d2 among the
    monomials of degree d1 + d2, or is -1 when the product is zero.  A
    quotient also has proj[d] = (keep, P): its basis is the kept monomials,
    and P[i] is the class of monomial i; without proj the basis is the
    monomials.  ``np_table`` builds a table from the two.  ``times``
    multiplies rows by a basis: through the table in a quotient, by a
    scatter of coordinates without proj, where no table is built unless
    one is asked for (``matrix_product`` asks for the (1, 1) table).
    Elements multiply through ``times`` as well (``AlgebraElement.__mul__``).
    """

    def __init__(self, field, cutoff, basis, products, proj=None, descriptor=None):
        self.field = field
        self.cutoff = cutoff
        self.basis = [list(labels) for labels in basis]
        if len(self.basis) != cutoff + 1:
            raise AlgebraError("basis list must cover degrees 0..cutoff")
        if len(self.basis[0]) != 1:
            raise AlgebraError("degree-0 component must be one dimensional")
        self.dims = [len(labels) for labels in self.basis]
        self.products = products
        self.proj = proj
        self.descriptor = descriptor
        # the QuotientMap to R/(x) for a linear form x certified regular on R,
        # so that a window is exact where its reduction is; set by reduction_chain only
        self.reduction = None
        self._np_tables = {}
        self._gen_index = {lab: i for i, lab in enumerate(self.basis[1])} if cutoff >= 1 else {}

    # -- element constructors ------------------------------------------------

    def element(self, degree, coords) -> AlgebraElement:
        f = self.field
        return AlgebraElement(self, degree, [f.coerce(c) for c in coords])

    def zero(self, degree) -> AlgebraElement:
        return AlgebraElement(self, degree, [self.field.zero] * self.dims[degree])

    def one(self) -> AlgebraElement:
        return AlgebraElement(self, 0, [self.field.one])

    def basis_element(self, degree, i) -> AlgebraElement:
        coords = [self.field.zero] * self.dims[degree]
        coords[i] = self.field.one
        return AlgebraElement(self, degree, coords)

    def generators(self):
        return [self.basis_element(1, i) for i in range(self.dims[1])]

    def generator(self, label) -> AlgebraElement:
        if label not in self._gen_index:
            raise AlgebraError(f"no degree-one basis element labelled {label!r}")
        return self.basis_element(1, self._gen_index[label])

    def linear_form(self, coeffs: dict) -> AlgebraElement:
        """Element of degree 1 from a {label: coefficient} mapping."""
        f = self.field
        coords = [f.zero] * self.dims[1]
        for lab, c in coeffs.items():
            if lab not in self._gen_index:
                raise AlgebraError(f"unknown generator {lab!r}")
            i = self._gen_index[lab]
            coords[i] = f.add(coords[i], f.coerce(c))
        return AlgebraElement(self, 1, coords)

    def random_linear(self, rng: Random) -> AlgebraElement:
        return AlgebraElement(self, 1, [self.field.rand(rng) for _ in range(self.dims[1])])

    # -- multiplication ------------------------------------------------------

    def np_table(self, d1, d2):
        """The array T[i, j, k] over the field, the coefficient of basis_k in
        e_i * e_j: the rows of P_(d1+d2) (the identity without proj), with a
        zero row appended for -1, gathered at the products of the basis
        monomials; built once and frozen (``linalg.freeze``)."""
        if d1 + d2 > self.cutoff:
            raise AlgebraError(f"product degree {d1 + d2} exceeds cutoff {self.cutoff}")
        key = (d1, d2)
        if key not in self._np_tables:
            idx = self.products(d1, d2)
            if self.proj is None:  # the basis is the monomials
                P = identity(self.field, self.dims[d1 + d2])
            else:
                (k1, _), (k2, _), (_, P) = self.proj[d1], self.proj[d2], self.proj[d1 + d2]
                idx = idx[np.ix_(k1, k2)]
            P = np.vstack([P, field_zeros(self.field, (1, P.shape[1]))])
            self._np_tables[key] = freeze(P[idx])
        return self._np_tables[key]

    def times(self, V, d, t, product=field_matmul):
        """X[r, j, :] = V[r] * basis_j for the rows of V (vectors of degree d)
        and the basis of degree t, as product(field, V, T) of the rows with
        the table gives it (``linalg.field_matmul``, or ``image_matmul`` for
        a rank bound).  A quotient takes that product.  A ring whose basis
        is the monomials builds no table: the product of two monomials is
        one monomial or zero, so X[r, j, products(d, t)[i, j]] = V[r, i] (or
        its image, ``linalg.check_image``) is one scatter, the zero products
        landing in a dump column that is dropped.  For a fixed j distinct i
        give distinct monomials (monomial products cancel), so no two
        writes of a nonzero product meet."""
        if d + t > self.cutoff:
            raise AlgebraError(f"product degree {d + t} exceeds cutoff {self.cutoff}")
        src, dst = self.dims[t], self.dims[d + t]
        if self.proj is not None:
            T = self.np_table(d, t).reshape(self.dims[d], src * dst)
            return product(self.field, V, T).reshape(V.shape[0], src, dst)
        zero = self.field.zero
        if product is image_matmul:
            V, zero = check_image(self.field, V), 0
        X = np.full((V.shape[0], src, dst + 1), zero, dtype=V.dtype)
        X[:, np.arange(src), self.products(d, t)] = V[:, :, None]
        return X[:, :, :dst]

    def mult_map_array(self, coords, d, t):
        """The array (dims[t + d] x dims[t]) of multiplication by the degree-d
        element with these coordinates, from degree t to degree t + d."""
        return self.times(field_array(self.field, [coords]).reshape(1, self.dims[d]), d, t)[0].T

    # -- presentation checks ---------------------------------------------------

    def is_artinian(self) -> bool:
        return self.dims[self.cutoff] == 0

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        """The algebra as a file names it: field, cutoff, basis and the
        descriptor from which the ring itself is rebuilt (no tables)."""
        if self.descriptor is None:
            raise AlgebraError("an algebra without a descriptor cannot be written")
        return {
            "format": "algebra",
            "field": field_to_json(self.field),
            "cutoff": self.cutoff,
            "dims": list(self.dims),
            "basis": [list(b) for b in self.basis],
            "descriptor": self.descriptor,
        }

    @classmethod
    def from_json(cls, obj, retries=64) -> "GradedAlgebra":
        """The ring a serialized algebra names, rebuilt from its descriptor at
        its own cutoff.  A ``mult`` entry (written by earlier versions) is ignored."""
        chain, level = chain_from_json(obj, retries=retries)
        return chain.ring(level)


# -- Stanley-Reisner rings of graphs ------------------------------------------


def _mono_label(vertex, power):
    return vertex if power == 1 else f"{vertex}^{power}"


def stanley_reisner(g: Graph, cutoff: int, field=None, descriptor=None) -> GradedAlgebra:
    """The Stanley-Reisner ring of a graph, presented up to the cutoff degree.

    Nonzero monomials are supported on a vertex or on an edge, so the degree-d
    basis (d >= 1) consists of v^d for each vertex and u^a w^(d-a) for each
    edge {u, w}; products are monomial products reduced to zero exactly when
    the support stops being a vertex or an edge.
    """
    if field is None:
        field = PrimeField()
    if cutoff < 2:
        raise AlgebraError("cutoff must be at least 2")
    if not g.is_connected():
        raise AlgebraError("graph must be connected")
    n, vidx = g.n, {v: i for i, v in enumerate(g.vertices)}
    edges = [sorted((vidx[u], vidx[w])) for u, w in g.edges]
    # monomial k of degree d: vertices V[d][k] = (i, j), i <= j, with exponents
    # X[d][k] = (a, d - a); v^d is (v, v), (d, 0), and 1 is (0, 0), (0, 0)
    V, X, labels = [], [], []
    for d in range(cutoff + 1):
        mons = [(i, i, d) for i in range(n)] if d else [(0, 0, 0)]
        mons += [(i, j, a) for i, j in edges for a in range(d - 1, 0, -1)]
        V.append(np.array([(i, j) for i, j, _ in mons], dtype=np.intp))
        X.append(np.array([(a, d - a) for _, _, a in mons], dtype=np.intp))
        labels.append([
            "*".join(_mono_label(g.vertices[v], e) for v, e in ((i, a), (j, d - a)) if e) or "1"
            for i, j, a in mons
        ])

    def key(V, X):
        """(key, ok) of monomials given on the last axis by vertices and
        exponents: ok when every vertex of positive exponent is the lowest or
        the highest such, and the key names both and the lowest's exponent."""
        live = X > 0
        lo, hi = np.where(live, V, n).min(-1), np.where(live, V, -1).max(-1)
        at_lo = V == lo[..., None]
        ok = (~live | at_lo | (V == hi[..., None])).all(-1)
        return (lo * (n + 1) + hi + 1) * (cutoff + 1) + (X * at_lo).sum(-1), ok

    keys = [key(v, x)[0] for v, x in zip(V, X)]
    order = [np.argsort(k) for k in keys]
    # kept per degree pair, for every ring of a chain (a quotient reuses them)
    memo = {}

    def products(d1, d2):
        """The key lookup is the support test: a product supported on a
        vertex or an edge is a monomial of its degree, any other is not."""
        if (d1, d2) not in memo:
            pair = lambda A: np.concatenate(np.broadcast_arrays(A[d1][:, None], A[d2][None]), -1)
            k, ok = key(pair(V), pair(X))
            at = order[d1 + d2]
            K = keys[d1 + d2][at]
            pos = np.minimum(np.searchsorted(K, k), len(K) - 1)
            memo[d1, d2] = np.where(ok & (K[pos] == k), at[pos], -1)
        return memo[d1, d2]

    return GradedAlgebra(field, cutoff, labels, products, descriptor=descriptor)


# -- quotients of a polynomial ring by homogeneous relations -------------------


def _monomials_of_degree(nvars, d):
    """Exponent tuples of total degree d, in descending lexicographic order:
    the lexicographic order of the multisets of d variables they count."""
    mons = combinations_with_replacement(range(nvars), d)
    return [tuple(m.count(v) for v in range(nvars)) for m in mons]


def _exp_label(variables, exps):
    parts = [_mono_label(v, e) for v, e in zip(variables, exps) if e]
    return "*".join(parts) if parts else "1"


def algebra_from_relations(variables, relations, cutoff, field=None, descriptor=None) -> GradedAlgebra:
    """k[variables] modulo homogeneous relation polynomials, degree by degree.

    Each relation is a {exponent tuple: coefficient} dict.  The degree-d
    component is the monomial span modulo span{relation * monomial}; the basis
    is the canonical complement picked by trailing-pivot echelon on the
    descending-lex monomial order, with its projection array per degree.
    """
    if field is None:
        field = PrimeField()
    nv = len(variables)
    rel_by_deg = {}
    for rel in relations:
        degs = {sum(e) for e in rel}
        if len(degs) != 1:
            raise AlgebraError("relations must be homogeneous")
        (d,) = degs
        if d == 0:
            raise AlgebraError("degree-zero relation makes the quotient trivial")
        if d > cutoff:
            raise AlgebraError("relation degree exceeds the cutoff")
        rel_by_deg.setdefault(d, []).append({e: field.coerce(c) for e, c in rel.items()})

    mons = [_monomials_of_degree(nv, d) for d in range(cutoff + 1)]
    midx = [{m: i for i, m in enumerate(ms)} for ms in mons]

    proj, labels = [], []
    for d in range(cutoff + 1):
        rows = []
        for r, rels in rel_by_deg.items():
            if r > d:
                continue
            for rel in rels:
                for m in mons[d - r]:
                    vec = [field.zero] * len(mons[d])
                    for e, c in rel.items():
                        prod = tuple(a + b for a, b in zip(e, m))
                        vec[midx[d][prod]] = field.add(vec[midx[d][prod]], c)
                    rows.append(vec)
        relations = field_array(field, rows).reshape(len(rows), len(mons[d]))
        proj.append(quotient_projection(field, relations))
        labels.append([_exp_label(variables, mons[d][i]) for i in proj[d][0]])

    def products(d1, d2):
        at = midx[d1 + d2]
        idx = [[at[tuple(a + b for a, b in zip(m1, m2))] for m2 in mons[d2]] for m1 in mons[d1]]
        return np.array(idx, dtype=np.intp).reshape(len(mons[d1]), len(mons[d2]))

    return GradedAlgebra(field, cutoff, labels, products, proj, descriptor)


# -- quotient by a linear form -------------------------------------------------


class QuotientMap:
    """The data of B = A/(l) for a degree-one form l, with a canonical section.

    Keeps, per degree, the complement columns of the trailing-pivot echelon
    form of span{l * A_(d-1)} and the frozen projection array P_d
    (``linalg.quotient_projection``): A_d -> B_d is v -> v P_d, and the
    section B_d -> A_d maps each kept basis label to the parent basis
    element of the same label.  B reuses the monomial products of A; its
    projection is A's followed by this one (P_A P_d, keeping the monomials
    A keeps at the columns kept here).
    """

    def __init__(self, source: GradedAlgebra, form: AlgebraElement, descriptor=None):
        if form.algebra is not source:
            raise AlgebraError("form does not live in the source algebra")
        if form.degree != 1 or form.is_zero():
            raise AlgebraError("quotient form must be a nonzero linear form")
        self.source = source
        self.form = form
        field = source.field
        self._keep = [[0]]
        self._proj = [freeze(identity(field, 1))]
        for d in range(1, source.cutoff + 1):
            # row i is l * (basis_i of degree d-1): a column of the mult map
            keep, P = quotient_projection(field, source.mult_map_array(form.coords, 1, d - 1).T)
            self._keep.append(keep)
            self._proj.append(freeze(P))
        proj = list(zip(self._keep, self._proj))
        if source.proj is not None:
            proj = [
                ([k0[c] for c in keep], freeze(field_matmul(field, P0, P)))
                for (k0, P0), (keep, P) in zip(source.proj, proj)
            ]
        labels = [[source.basis[d][c] for c in keep] for d, keep in enumerate(self._keep)]
        self.target = GradedAlgebra(field, source.cutoff, labels, source.products, proj, descriptor)

    def project_rows(self, d, V):
        """The rows of V (vectors of A_d, an array over the field) projected to B_d."""
        return field_matmul(self.source.field, V, self._proj[d])

    def lift_rows(self, d, V):
        """The rows of V (vectors of B_d) lifted through the section to A_d:
        each coordinate scattered to the parent label it keeps."""
        out = field_zeros(self.source.field, (V.shape[0], self.source.dims[d]))
        out[:, self._keep[d]] = V
        return out

    def project(self, elt: AlgebraElement) -> AlgebraElement:
        if elt.algebra is not self.source:
            raise AlgebraError("element does not live in the source algebra")
        v = field_array(self.source.field, [elt.coords])
        return AlgebraElement(self.target, elt.degree, self.project_rows(elt.degree, v)[0].tolist())

    def lift(self, elt: AlgebraElement) -> AlgebraElement:
        if elt.algebra is not self.target:
            raise AlgebraError("element does not live in the quotient algebra")
        v = field_array(self.source.field, [elt.coords])
        return AlgebraElement(self.source, elt.degree, self.lift_rows(elt.degree, v)[0].tolist())


def quotient_by_linear(algebra: GradedAlgebra, form: AlgebraElement) -> GradedAlgebra:
    return QuotientMap(algebra, form).target


# -- Artinian reductions of graph rings ----------------------------------------


@dataclass
class ReductionChain:
    """R_Gamma -> R_Gamma/(l1) -> R_Gamma/(l1, l2) with the two quotient maps."""

    graph: Graph
    top: GradedAlgebra
    steps: list  # [QuotientMap top->mid, QuotientMap mid->bottom]
    mode: str
    seed: int

    @property
    def mid(self) -> GradedAlgebra:
        return self.steps[0].target

    @property
    def bottom(self) -> GradedAlgebra:
        return self.steps[1].target

    def ring(self, level) -> GradedAlgebra:
        """The ring at a level of the chain: 0 top, 1 mid, 2 bottom."""
        return (self.top, self.mid, self.bottom)[level]

    def image(self, vertex) -> AlgebraElement:
        """The image in the bottom ring of the generator of a vertex."""
        q1, q2 = self.steps
        return q2.project(q1.project(self.top.generator(vertex)))

    def expected_artinian_hilbert(self):
        return artinian_hilbert(self.graph, self.top.cutoff)


def artinian_hilbert(g: Graph, cutoff: int) -> tuple:
    """(1, n - 2, e - n + 1, 0, ...) up to the cutoff (at least 2): the
    Hilbert function of the graph ring modulo a regular sequence of two
    linear forms."""
    return (1, g.n - 2, g.e - g.n + 1) + (0,) * (cutoff - 2)


def canonical_bipartite_forms(g: Graph):
    """l1 = sum of X-side vertices, l2 = sum of Y-side vertices (as labels)."""
    if not g.is_bipartite():
        raise AlgebraError("canonical forms require a bipartite graph")
    xs, ys = g.bipartition
    return ({v: 1 for v in xs}, {v: 1 for v in ys})


def reduction_chain(
    g: Graph,
    mode: str = "canonical",
    seed: int = 0,
    cutoff: int = 3,
    field=None,
    retries: int = 64,
) -> ReductionChain:
    """Quotient a graph ring by two linear forms and certify the result.

    Canonical mode uses the bipartite sums (a system of parameters for any
    connected bipartite graph); generic mode samples uniform coefficients and
    certifies regularity a posteriori through the Hilbert function
    (1, n-2, e-n+1, 0, ...), resampling on failure.
    """
    if field is None:
        field = PrimeField()
    if cutoff < 3:
        raise AlgebraError("reduction cutoff must be at least 3 to witness m^3 = 0")
    if not g.is_connected():
        raise AlgebraError("graph must be connected")
    if g.e == 0:
        raise AlgebraError("graph must have at least one edge")
    if mode == "canonical" and not g.is_bipartite():
        raise AlgebraError("canonical mode requires a bipartite graph")

    descriptor_base = {
        "kind": "graph_reduction",
        "graph": g.to_json(),
        "mode": mode,
        "seed": seed,
        "cutoff": cutoff,
    }
    top = stanley_reisner(g, cutoff, field, descriptor=dict(descriptor_base, level=0))
    expected = artinian_hilbert(g, cutoff)
    rng = Random(seed)

    attempts = retries if mode == "generic" else 1
    last = None
    for _ in range(attempts):
        if mode == "canonical":
            c1, c2 = canonical_bipartite_forms(g)
            l1 = top.linear_form(c1)
        else:
            l1 = top.random_linear(rng)
            if l1.is_zero():
                last = "first form is zero"
                continue
        q1 = QuotientMap(top, l1, descriptor=dict(descriptor_base, level=1))
        mid = q1.target
        if mode == "canonical":
            l2 = q1.project(top.linear_form(c2))
        else:
            l2 = q1.project(top.random_linear(rng))
        if l2.is_zero():
            last = "second form vanished in the quotient"
            continue
        q2 = QuotientMap(mid, l2, descriptor=dict(descriptor_base, level=2))
        bottom = q2.target
        if tuple(bottom.dims) == expected:
            # The ring of a connected graph with an edge is Cohen-Macaulay of
            # dimension 2 (Reisner), and an Artinian bottom makes (l1, l2) a
            # system of parameters, hence a regular sequence.
            top.reduction, mid.reduction = q1, q2
            return ReductionChain(graph=g, top=top, steps=[q1, q2], mode=mode, seed=seed)
        last = f"Hilbert function {tuple(bottom.dims)} != {expected}"
        if mode == "canonical":
            break
    raise AlgebraError(f"no regular reduction found ({last})")


# the most structure constants (``table_cells``) the top ring's products may
# have when a chain is rebuilt from its descriptor (``chain_from_descriptor``):
# what 256 MiB of dense tables would hold at 8 bytes per cell
MAX_TABLE_CELLS = 2**25


def table_cells(n: int, e: int, cutoff: int) -> int:
    """The structure constants of the products R_1 x R_t -> R_(t+1),
    0 < t < cutoff, of the ring of a graph with n vertices and e edges: the
    cells of those tables, were they built dense (``np_table``).  A
    reduction chain builds none of them (the top ring multiplies by a
    scatter, ``GradedAlgebra.times``); the count measures the ring that
    ``chain_from_descriptor`` refuses to rebuild.  The Hilbert function is
    dim R_d = n + e (d - 1) for d >= 1: the powers of a vertex and the
    d - 1 mixed monomials of each edge.  With h_k = dim R_(k+1) = n + e k,
    the cells are n times the sum over k < K = cutoff - 1 of
    h_k h_(k+1) = n (n + e) + e (2n + e) k + e^2 k^2."""
    K = max(cutoff - 1, 0)
    pairs = K * n * (n + e) + e * (2 * n + e) * K * (K - 1) // 2
    return n * (pairs + e * e * (K - 1) * K * (2 * K - 1) // 6)


def chain_from_descriptor(desc, field, cutoff, retries=64) -> ReductionChain:
    """The reduction chain a ``graph_reduction`` descriptor names, rebuilt at
    the cutoff; refused before any ring is built when its top ring's products
    R_1 x R_t -> R_(t+1) have more than ``MAX_TABLE_CELLS`` structure
    constants (``table_cells``)."""
    if not isinstance(desc, dict) or desc.get("kind") != "graph_reduction":
        raise AlgebraError("algebra has no graph-reduction descriptor to rebuild its ring from")
    seed, level = desc.get("seed", 0), desc.get("level")
    if not isinstance(desc.get("graph"), dict) or desc.get("mode") not in ("canonical", "generic"):
        raise AlgebraError("chain descriptor needs a graph and a mode, canonical or generic")
    if not (type(seed) is int and type(level) is int and level in (0, 1, 2)):
        raise AlgebraError("chain descriptor needs an integer seed and a level 0, 1 or 2")
    g = parse_graph(desc["graph"])
    cells = table_cells(g.n, g.e, cutoff)
    if cells > MAX_TABLE_CELLS:
        raise AlgebraError(
            f"cutoff {cutoff} is too high for this ring: its products "
            f"R_1 x R_t -> R_(t+1), t < {cutoff}, have {cells} structure constants, and the "
            f"limit is {MAX_TABLE_CELLS} (2^25; dim R_d = n + e(d - 1) with n = {g.n}, e = {g.e})"
        )
    return reduction_chain(g, desc["mode"], seed, cutoff, field, retries)


def chain_from_json(obj, cutoff=None, retries=64):
    """(chain, level): the chain a serialized algebra names, rebuilt at the
    cutoff (default: the algebra's own), and the level of the algebra in it.
    The basis must match the rebuilt ring in the degrees both cover, and
    dims must be the lengths of the basis."""
    if not isinstance(obj, dict):
        raise AlgebraError("algebra entry is not an object")
    for key, kind in (("field", dict), ("cutoff", int), ("basis", list)):
        if not isinstance(obj.get(key), kind):
            raise AlgebraError(f"algebra entry {key!r} is missing or not a {kind.__name__}")
    basis = obj["basis"]
    if len(basis) != obj["cutoff"] + 1:
        raise AlgebraError("algebra basis must cover degrees 0..cutoff")
    desc, field = obj.get("descriptor"), field_from_json(obj["field"])
    if isinstance(desc, dict) and not (type(desc.get("cutoff")) is int and desc["cutoff"] == obj["cutoff"]):
        raise AlgebraError("chain descriptor cutoff must be the integer cutoff of its algebra")
    chain = chain_from_descriptor(desc, field, obj["cutoff"] if cutoff is None else cutoff, retries)
    shared = min(len(basis), chain.top.cutoff + 1)
    if basis[:shared] != chain.ring(desc["level"]).basis[:shared]:
        raise AlgebraError("algebra basis does not match the ring its descriptor names")
    dims = obj.get("dims")
    if not (
        isinstance(dims, list)
        and len(dims) == len(basis)
        and all(type(n) is int and isinstance(b, list) and n == len(b) for n, b in zip(dims, basis))
    ):
        raise AlgebraError("algebra dims must be the lengths of its basis")
    return chain, desc["level"]


def artinian_reduction(g: Graph, mode="canonical", seed=0, cutoff=3, field=None, retries=64):
    """The Artinian quotient R_Gamma/(l1, l2); see reduction_chain for modes."""
    return reduction_chain(g, mode, seed, cutoff, field, retries).bottom
