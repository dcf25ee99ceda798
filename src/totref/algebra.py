"""Degreewise presentations of standard graded algebras.

An algebra is stored as its graded components up to a cutoff D: basis labels
and dimensions per degree plus multiplication tables between degrees, each an
array over the field built once per degree pair.  Three construction routes
are provided: Stanley-Reisner rings of graphs (monomial arithmetic, no
elimination needed), quotients of a polynomial ring by homogeneous relations,
and quotients by a linear form (used twice to produce Artinian reductions).

A quotient is given per degree by one projection array P
(``linalg.quotient_projection``): the class of a vector v has coordinates
v P.  A quotient table is then a source table restricted to the kept labels
times P, one product per degree pair.  Quotient complements are chosen by
echelon pivoting on the *trailing* coordinate, so quotienting by x1+...+xk
eliminates xk and keeps the earlier variables, matching the usual hand
presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

import numpy as np

from .fields import PrimeField, field_from_json, field_to_json
from .graphs import Graph, parse_graph
from .linalg import Matrix, field_array, field_matmul, field_zeros, freeze, quotient_projection


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
        self._peer(other)
        return self.algebra.multiply(self, other)

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

    table_fn(d1, d2) returns the multiplication table of two positive
    degrees as an array over the field (``linalg.field_array``: int64 or
    exact ``object`` entries); ``np_table`` calls it once per degree pair,
    and every multiplication map, block matrix and product of linear-form
    matrices is computed from these arrays.  ``multiply`` stays on their
    list view: it is the independent oracle.
    """

    def __init__(self, field, cutoff, basis, table_fn, descriptor=None):
        self.field = field
        self.cutoff = cutoff
        self.basis = [list(labels) for labels in basis]
        if len(self.basis) != cutoff + 1:
            raise AlgebraError("basis list must cover degrees 0..cutoff")
        if len(self.basis[0]) != 1:
            raise AlgebraError("degree-0 component must be one dimensional")
        self.dims = [len(labels) for labels in self.basis]
        self._table_fn = table_fn
        self.descriptor = descriptor
        # the QuotientMap to R/(x) for a linear form x certified regular on R,
        # so that a window is exact where its reduction is; set by reduction_chain only
        self.reduction = None
        self._tables = {}
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

    def table(self, d1, d2):
        """The list view T[i][j][k] of ``np_table``, kept for ``multiply``."""
        key = (d1, d2)
        if key not in self._tables:
            self._tables[key] = self.np_table(d1, d2).tolist()
        return self._tables[key]

    def np_table(self, d1, d2):
        """The array T[i, j, k] over the field, the coefficient of basis_k in
        e_i * e_j; built once and frozen (``linalg.freeze``)."""
        if d1 + d2 > self.cutoff:
            raise AlgebraError(f"product degree {d1 + d2} exceeds cutoff {self.cutoff}")
        key = (d1, d2)
        if key not in self._np_tables:
            shape = (self.dims[d1], self.dims[d2], self.dims[d1 + d2])
            if d1 == 0 or d2 == 0:
                table = Matrix.identity(self.field, self.dims[d1 + d2]).array.reshape(shape)
            else:
                table = self._table_fn(d1, d2)
            self._np_tables[key] = freeze(table)
        return self._np_tables[key]

    def multiply(self, a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
        if a.degree + b.degree > self.cutoff:
            raise AlgebraError("product degree exceeds cutoff")
        f = self.field
        tab = self.table(a.degree, b.degree)
        out = [f.zero] * self.dims[a.degree + b.degree]
        for i, ca in enumerate(a.coords):
            if f.is_zero(ca):
                continue
            row = tab[i]
            for j, cb in enumerate(b.coords):
                if f.is_zero(cb):
                    continue
                c = f.mul(ca, cb)
                vec = row[j]
                for k, vk in enumerate(vec):
                    if not f.is_zero(vk):
                        out[k] = f.add(out[k], f.mul(c, vk))
        return AlgebraElement(self, a.degree + b.degree, out)

    def mult_map_matrix(self, elt: AlgebraElement, t: int) -> Matrix:
        """Matrix of multiplication by elt from degree t to degree t + deg(elt)."""
        if t + elt.degree > self.cutoff:
            raise AlgebraError("multiplication map exceeds cutoff")
        return Matrix(self.field, self.mult_map_array(elt.coords, elt.degree, t))

    def mult_map_array(self, coords, d, t):
        """The array (dims[t + d] x dims[t]) of multiplication by the degree-d
        element with these coordinates, from degree t to degree t + d."""
        src, dst = self.dims[t], self.dims[t + d]
        T = self.np_table(d, t).reshape(self.dims[d], src * dst)
        c = field_array(self.field, [coords]).reshape(1, self.dims[d])
        return field_matmul(self.field, c, T).reshape(src, dst).T

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
    vidx = {v: i for i, v in enumerate(g.vertices)}
    edge_set = {frozenset((vidx[u], vidx[w])) for u, w in g.edges}

    # per-degree monomials: ((vi, a),) or ((vi, a), (vj, b)) with vi < vj
    monomials = [[((0, 0),)]]  # degree 0 placeholder; basis label "1"
    index = [{}]
    labels = [["1"]]
    for d in range(1, cutoff + 1):
        mons = [((vidx[v], d),) for v in g.vertices]
        for u, w in g.edges:
            i, j = vidx[u], vidx[w]
            if i > j:
                i, j = j, i
            for a in range(d - 1, 0, -1):
                mons.append(((i, a), (j, d - a)))
        monomials.append(mons)
        index.append({m: k for k, m in enumerate(mons)})
        labs = []
        for m in mons:
            labs.append("*".join(_mono_label(g.vertices[v], a) for v, a in m))
        labels.append(labs)

    def table_fn(d1, d2):
        d = d1 + d2
        T = field_zeros(field, (len(monomials[d1]), len(monomials[d2]), len(monomials[d])))
        for i, m1 in enumerate(monomials[d1]):
            for j, m2 in enumerate(monomials[d2]):
                powers = {}
                for v, a in m1 + m2:
                    powers[v] = powers.get(v, 0) + a
                support = sorted(powers)
                if len(support) == 1:
                    T[i, j, index[d][((support[0], d),)]] = field.one
                elif len(support) == 2 and frozenset(support) in edge_set:
                    key = ((support[0], powers[support[0]]), (support[1], powers[support[1]]))
                    T[i, j, index[d][key]] = field.one
        return T

    return GradedAlgebra(field, cutoff, labels, table_fn, descriptor=descriptor)


# -- quotients of a polynomial ring by homogeneous relations -------------------


def _monomials_of_degree(nvars, d):
    """Exponent tuples of total degree d, in descending lexicographic order."""
    if d == 0:
        return [tuple([0] * nvars)]
    out = []

    def rec(prefix, remaining, pos):
        if pos == nvars - 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, pos + 1)

    rec([], d, 0)
    return out


def _exp_label(variables, exps):
    parts = [_mono_label(v, e) for v, e in zip(variables, exps) if e]
    return "*".join(parts) if parts else "1"


def algebra_from_relations(variables, relations, cutoff, field=None, descriptor=None) -> GradedAlgebra:
    """k[variables] modulo homogeneous relation polynomials, degree by degree.

    Each relation is a {exponent tuple: coefficient} dict.  The degree-d
    component is the monomial span modulo span{relation * monomial}; the basis
    is the canonical complement picked by trailing-pivot echelon on the
    descending-lex monomial order, and the table entry of two basis monomials
    is the row of their product in the degree's projection array.
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

    proj = [([0], None)]
    labels = [["1"]]
    for d in range(1, cutoff + 1):
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

    def table_fn(d1, d2):
        (k1, _), (k2, _), (_, P) = proj[d1], proj[d2], proj[d1 + d2]
        idx = [
            [midx[d1 + d2][tuple(a + b for a, b in zip(mons[d1][i], mons[d2][j]))] for j in k2]
            for i in k1
        ]
        return P[np.array(idx, dtype=np.intp).reshape(len(k1), len(k2))]

    return GradedAlgebra(field, cutoff, labels, table_fn, descriptor=descriptor)


# -- quotient by a linear form -------------------------------------------------


class QuotientMap:
    """The data of B = A/(l) for a degree-one form l, with a canonical section.

    Keeps, per degree, the complement columns of the trailing-pivot echelon
    form of span{l * A_(d-1)} and the frozen projection array P_d
    (``linalg.quotient_projection``): A_d -> B_d is v -> v P_d, and the
    section B_d -> A_d maps each kept basis label to the parent basis
    monomial of the same label.  The table of B for (d1, d2) is the table of
    A restricted to the kept labels, times P_(d1+d2).
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
        self._proj = [freeze(Matrix.identity(field, 1).array)]
        labels = [["1"]]
        for d in range(1, source.cutoff + 1):
            # row i is l * (basis_i of degree d-1): a column of the mult map
            keep, P = quotient_projection(field, source.mult_map_array(form.coords, 1, d - 1).T)
            self._keep.append(keep)
            self._proj.append(freeze(P))
            labels.append([source.basis[d][c] for c in keep])
        self.target = GradedAlgebra(field, source.cutoff, labels, self._table, descriptor=descriptor)

    def _table(self, d1, d2):
        k1, k2, d = self._keep[d1], self._keep[d2], d1 + d2
        S = self.source.np_table(d1, d2)[np.ix_(k1, k2)]
        S = S.reshape(len(k1) * len(k2), self.source.dims[d])
        return self.project_rows(d, S).reshape(len(k1), len(k2), len(self._keep[d]))

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
        coords = [self.source.field.zero] * self.source.dims[elt.degree]
        for c, col in zip(elt.coords, self._keep[elt.degree]):
            coords[col] = c
        return AlgebraElement(self.source, elt.degree, coords)


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
        n, e = self.graph.n, self.graph.e
        out = [1, n - 2, e - n + 1] + [0] * (self.top.cutoff - 2)
        return tuple(out[: self.top.cutoff + 1])


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
    expected = [1, g.n - 2, g.e - g.n + 1] + [0] * (cutoff - 2)
    rng = Random(seed)

    attempts = retries if mode == "generic" else 1
    last = None
    for _ in range(attempts):
        if mode == "canonical":
            c1, c2 = canonical_bipartite_forms(g)
            l1 = top.linear_form(c1)
        else:
            l1 = top.random_linear(rng)
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
        if list(bottom.dims) == expected:
            # The ring of a connected graph with an edge is Cohen-Macaulay of
            # dimension 2 (Reisner), and an Artinian bottom makes (l1, l2) a
            # system of parameters, hence a regular sequence.
            top.reduction, mid.reduction = q1, q2
            return ReductionChain(graph=g, top=top, steps=[q1, q2], mode=mode, seed=seed)
        last = f"Hilbert function {tuple(bottom.dims)} != {tuple(expected)}"
        if mode == "canonical":
            break
    raise AlgebraError(f"no regular reduction found ({last})")


# the most cells the top ring's tables may hold when a chain is rebuilt from
# its descriptor (``chain_from_descriptor``): 256 MiB at 8 bytes per cell
MAX_TABLE_CELLS = 2**25


def table_cells(n: int, e: int, cutoff: int) -> int:
    """The cells of the tables R_1 x R_t -> R_(t+1), 0 < t < cutoff, of the
    ring of a graph with n vertices and e edges, which a reduction chain at
    the cutoff builds (one per degree of each quotient map).  The Hilbert
    function is dim R_d = n + e (d - 1) for d >= 1: the powers of a vertex
    and the d - 1 mixed monomials of each edge.  With h_k = dim R_(k+1) =
    n + e k, the cells are n times the sum over k < K = cutoff - 1 of
    h_k h_(k+1) = n (n + e) + e (2n + e) k + e^2 k^2."""
    K = max(cutoff - 1, 0)
    pairs = K * n * (n + e) + e * (2 * n + e) * K * (K - 1) // 2
    return n * (pairs + e * e * (K - 1) * K * (2 * K - 1) // 6)


def chain_from_descriptor(desc, field, cutoff, retries=64) -> ReductionChain:
    """The reduction chain a ``graph_reduction`` descriptor names, rebuilt at
    the cutoff; refused before any table is built when its top ring's tables
    would hold more than ``MAX_TABLE_CELLS`` cells (``table_cells``)."""
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
            f"cutoff {cutoff} is too high for this ring: its multiplication tables "
            f"R_1 x R_t -> R_(t+1), t < {cutoff}, would hold {cells} cells, and the limit "
            f"is {MAX_TABLE_CELLS} (2^25; dim R_d = n + e(d - 1) with n = {g.n}, e = {g.e})"
        )
    return reduction_chain(g, desc["mode"], seed, cutoff, field, retries)


def chain_from_json(obj, cutoff=None, retries=64):
    """(chain, level): the chain a serialized algebra names, rebuilt at the
    cutoff (default: the algebra's own), and the level of the algebra in it.
    The basis must match the rebuilt ring in the degrees both cover."""
    if not isinstance(obj, dict):
        raise AlgebraError("algebra entry is not an object")
    for key, kind in (("field", dict), ("cutoff", int), ("basis", list)):
        if not isinstance(obj.get(key), kind):
            raise AlgebraError(f"algebra entry {key!r} is missing or not a {kind.__name__}")
    basis = obj["basis"]
    if len(basis) != obj["cutoff"] + 1:
        raise AlgebraError("algebra basis must cover degrees 0..cutoff")
    desc, field = obj.get("descriptor"), field_from_json(obj["field"])
    chain = chain_from_descriptor(desc, field, obj["cutoff"] if cutoff is None else cutoff, retries)
    shared = min(len(basis), chain.top.cutoff + 1)
    if basis[:shared] != chain.ring(desc["level"]).basis[:shared]:
        raise AlgebraError("algebra basis does not match the ring its descriptor names")
    return chain, desc["level"]


def artinian_reduction(g: Graph, mode="canonical", seed=0, cutoff=3, field=None, retries=64):
    """The Artinian quotient R_Gamma/(l1, l2); see reduction_chain for modes."""
    return reduction_chain(g, mode, seed, cutoff, field, retries).bottom
