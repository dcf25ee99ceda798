"""The explicit no-exact-zero-divisor ring and its 2x2 block recursion.

The special ring is the canonical Artinian reduction of a ten-vertex
bipartite graph whose maximal ideal splits as m = a + b with ab = 0 and a
one-dimensional overlap (delta) in degree two.  Pairs of 2x2 matrices
(A_n with entries in a, B_n with entries in b) whose induced maps on
(a_1)^2 -> (a_2)^2 and (b_1)^2 -> (b_2)^2 are bijective extend both ways:

  * forward, by solving A_n c = (delta, 0), (0, delta) and B_n d = the
    negatives, the new columns spanning ker(A_n + B_n) on (R_1)^2;
  * backward, by running the forward step on the transposes and transposing.

Each side's linear algebra is built once per ring (``Side``), and a block is
an array of linear-form coordinates (see ``complexes.linear_matrix``), so
every sampled or solved block and every composition check is one array
product over the field.  ``make_block`` forms one product of a side's four
entries with ``Side.maps``, once per side: it checks that each entry lies in
its side and each product in the side's degree-two piece, and it yields the
side's induced maps of the matrix and of its transpose (the same four
entries in another order, so a reshape of the same product), whose four
ranks are the injectivity flags.  The block keeps those maps: the forward
step solves its matrices' maps and the backward step its transposes', with
no product of their own.  Every step still checks that the new block
composes to zero with the old one (the solve is not trusted), so a finished
window certifies itself.  The explicit
even/odd block pair gives a genuinely periodic window, and random
coefficient choices give fresh ones (distinguished by their entry ideals).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

import numpy as np

from .algebra import AlgebraElement, ReductionChain, reduction_chain
from .complexes import (
    FreeComplexWindow,
    Periodicity,
    WindowCertificate,
    fitting_support,
    full_certification,
    linear_matrix,
    matrix_product,
)
from .graphs import Graph
from .linalg import (
    Subspace, array_rank, field_array, field_matmul, field_reduce, freeze, identity, left_inverse,
    rref, solve,
)


class FactoryError(ValueError):
    pass


class ExtensionError(FactoryError):
    pass


class PartialWindowError(FactoryError):
    def __init__(self, step, message):
        super().__init__(f"window construction failed at step {step}: {message}")
        self.step = step


def ten_vertex_graph() -> Graph:
    """Two four-cycles glued through a hub pair; ten vertices, sixteen edges."""
    xs = [f"x{i}" for i in range(1, 6)]
    ys = [f"y{j}" for j in range(1, 6)]
    edges = [
        ("x1", "y1"), ("x1", "y2"), ("x2", "y1"), ("x2", "y2"),
        ("x3", "y3"), ("x3", "y4"), ("x4", "y3"), ("x4", "y4"),
    ]
    edges += [(f"x{i}", "y5") for i in range(1, 5)]
    edges += [("x5", f"y{j}") for j in range(1, 5)]
    return Graph(xs + ys, edges, bipartition=(xs, ys))


TEN_VERTEX_PARTITION = (("x1", "x2", "y1", "y2"), ("x3", "x4", "y3", "y4"))


@dataclass
class Side:
    """One side's linear algebra, built once per ring.

    basis1 holds the generators g_1..g_m of side_1 (their coordinates are
    the rows of coords, an m x n1 array over the field) and cols2 the side_2
    basis as the columns of an n2 x m array C2.  maps is the n1-row array
    [Res1 | Res2 | Phi]: for an entry e of R_1,
      * e . Res1 = 0 iff e lies in side_1 (Res1 = I - X G, X a right inverse
        of G = coords);
      * e . Res2 = 0 iff every product e g_k lies in side_2 (Res2 = Psi -
        Phi C2^t, with Psi[i, k, :] = e_i g_k);
      * e . Phi is then (L2 (e g_k))_k, the side_2 coordinates of the
        products (Phi = Psi L2^t, L2 a left inverse of C2).
    delta holds the side_2 coordinates of delta (a side) or -delta (b side).
    coords and maps are frozen (``linalg.freeze``).
    """

    basis1: list
    cols2: np.ndarray
    coords: object
    maps: object
    delta: list


class SpecialRing:
    """An Artinian graph reduction with a certified a/b ideal decomposition."""

    def __init__(self, chain: ReductionChain, part_a, part_b):
        self.chain = chain
        self.graph = chain.graph
        self.ring = chain.bottom
        R = self.ring
        f = R.field
        self.part_a = tuple(part_a)
        self.part_b = tuple(part_b)

        self.a_gens = [chain.image(v) for v in self.part_a]
        self.b_gens = [chain.image(v) for v in self.part_b]
        A = linear_matrix(R, [self.a_gens])[0]
        B = linear_matrix(R, [self.b_gens])[0]
        self.a1 = Subspace.from_vectors(f, R.dims[1], A)
        self.b1 = Subspace.from_vectors(f, R.dims[1], B)
        if self.a1.dim != len(self.a_gens) or self.b1.dim != len(self.b_gens):
            raise FactoryError("partition images are not linearly independent")
        if self.a1.dim + self.b1.dim != R.dims[1]:
            raise FactoryError("a_1 + b_1 does not decompose R_1")

        # psi[i, k * n2 + c] is coordinate c of e_i g_k, g a side's generators
        psi_a, psi_b = (R.times(G, 1, 1).transpose(1, 0, 2).reshape(R.dims[1], -1) for G in (A, B))
        a2_basis = self._degree2_basis(A, psi_a)
        b2_basis = self._degree2_basis(B, psi_b)
        self.a2 = Subspace.from_vectors(f, R.dims[2], a2_basis)
        self.b2 = Subspace.from_vectors(f, R.dims[2], b2_basis)
        if self.a2.dim != self.a1.dim or self.b2.dim != self.b1.dim:
            raise FactoryError("degree-two pieces do not match the degree-one dimensions")
        if self.a2.sum(self.b2).dim != R.dims[2]:
            raise FactoryError("a_2 + b_2 does not span R_2")
        if field_matmul(f, B, psi_a).any():
            raise FactoryError("the ideal product ab is nonzero")

        overlap = self.a2.intersection(self.b2)
        if overlap.dim != 1:
            raise FactoryError(f"a_2 and b_2 overlap in dimension {overlap.dim}, expected 1")
        self.delta = AlgebraElement(R, 2, overlap.basis[0])
        self._sides = {
            "a": self._side(self.a_gens, A, psi_a, a2_basis, self.delta),
            "b": self._side(self.b_gens, B, psi_b, b2_basis, -self.delta),
        }
        if any(s.delta is None for s in self._sides.values()):
            raise FactoryError("delta is not expressible on both sides")

    def _degree2_basis(self, G, psi):
        """The first products g_i g_j, i <= j in lexicographic order, of the
        generators with coordinates G that enlarge their span: the pivot
        columns of the products (G against psi) taken as columns."""
        R, m = self.ring, len(G)
        prods = field_matmul(R.field, G, psi).reshape(m, m, R.dims[2])[np.triu_indices(m)]
        return prods[rref(R.field, prods.T)[1]]

    def _side(self, gens, coords, psi, basis2, delta) -> Side:
        """The arrays of ``Side`` from the generators' coordinates (m x n1),
        their products psi (n1 x m n2) and the side_2 basis (m x n2); coords
        and basis2 have full rank, checked above."""
        R = self.ring
        f = R.field
        n1, n2, m = R.dims[1], R.dims[2], len(gens)
        cols2 = basis2.T
        X = left_inverse(f, coords.T).T
        L2 = left_inverse(f, cols2)
        psi = psi.reshape(n1 * m, n2)
        phi = field_matmul(f, psi, L2.T)
        res1 = field_reduce(f, identity(f, n1) - field_matmul(f, X, coords))
        res2 = field_reduce(f, psi - field_matmul(f, phi, cols2.T))
        maps = np.hstack([res1, res2.reshape(n1, m * n2), phi.reshape(n1, m * m)])
        d = solve(f, cols2, field_array(f, [delta.coords]).T)
        return Side(gens, cols2, freeze(coords), freeze(maps), d if d is None else d[:, 0].tolist())

    def side(self, which) -> Side:
        if which not in self._sides:
            raise FactoryError("side must be 'a' or 'b'")
        return self._sides[which]

    def side_forms(self, which, coeffs):
        """The linear forms sum_k coeffs[e, k] g_k of the side, one per row of
        the coefficient array, as one product."""
        return field_matmul(self.ring.field, coeffs, self.side(which).coords)

    def to_json(self):
        f = self.ring.field
        return {
            "partition": [list(self.part_a), list(self.part_b)],
            "hilbert": list(self.ring.dims),
            "delta": [f.encode(c) for c in self.delta.coords],
            "side_dims": {
                "a": [self.a1.dim, self.a2.dim],
                "b": [self.b1.dim, self.b2.dim],
            },
        }


def build_special_ring(field=None, partition=TEN_VERTEX_PARTITION, graph=None, seed=0) -> SpecialRing:
    """The ring of the ten-vertex construction (or a compatible custom graph)."""
    g = graph if graph is not None else ten_vertex_graph()
    chain = reduction_chain(g, mode="canonical", seed=seed, cutoff=3, field=field)
    return SpecialRing(chain, partition[0], partition[1])


@dataclass
class PairBlock:
    """A pair of 2x2 matrices of linear forms (arrays, see
    ``complexes.linear_matrix``) with entries in a_1 and b_1, plus their flags.

    maps holds each side's induced maps (M, Mt) of its matrix and of its
    transpose (``induced_matrix``): ``extend_forward`` solves the Ms and
    ``extend_backward`` the Mts.  combined is A + B, frozen: the
    differential the block contributes to a window, which the composition
    checks of the extensions read too."""

    index: int
    A: object
    B: object
    inj_a: bool
    inj_at: bool
    inj_b: bool
    inj_bt: bool
    maps: dict
    combined: object

    @property
    def all_injective(self) -> bool:
        return self.inj_a and self.inj_at and self.inj_b and self.inj_bt


def induced_matrix(ring: SpecialRing, mat, side: str):
    """(M, Mt): the arrays of (f, g) -> mat * (f, g)^t on (side_1)^2 ->
    (side_2)^2 and of the same map for the transpose of mat.

    Since the two sides annihilate each other, a wrong-side component would
    act as zero and go unnoticed; membership is checked explicitly instead.
    The four entries' coordinates E (4 x n1) meet the side's maps in one
    product: its Res1 and Res2 parts must vanish (every entry in side_1,
    every product with a g_k in side_2), and its Phi part Phi[r, slot, k, l]
    is the entry of M at row r*m + l, column slot*m + k.  The transpose has
    the same four entries in the order [0, 2, 1, 3], so Mt is Phi with r and
    slot swapped: the same product, checked once.
    """
    s = ring.side(side)
    R = ring.ring
    f, n1, n2, m = R.field, R.dims[1], R.dims[2], len(s.basis1)
    P = field_matmul(f, mat.reshape(4, n1), s.maps)
    if (P[:, :n1] != 0).any():
        raise FactoryError(f"block entry lies outside side {side!r}")
    outside = (P[:, n1 : n1 + m * n2] != 0).any(axis=1).nonzero()[0]
    if outside.size:
        r, slot = divmod(int(outside[0]), 2)
        raise FactoryError(f"block entry ({r},{slot}) lies outside side {side!r}")
    phi = P[:, n1 + m * n2 :].reshape(2, 2, m, m)
    M = phi.transpose(0, 3, 1, 2).reshape(2 * m, 2 * m)
    Mt = phi.transpose(1, 3, 0, 2).reshape(2 * m, 2 * m)
    return M, Mt


def _injective(ring: SpecialRing, M) -> bool:
    return array_rank(ring.ring.field, M) == M.shape[1]


def make_block(ring: SpecialRing, index: int, A, B) -> PairBlock:
    """The pair with its four flags, from one ``induced_matrix`` per side;
    the block keeps the induced maps for its extensions and A + B."""
    maps = {"a": induced_matrix(ring, A, "a"), "b": induced_matrix(ring, B, "b")}
    (inj_a, inj_at), (inj_b, inj_bt) = ([_injective(ring, M) for M in maps[s]] for s in "ab")
    combined = freeze(field_reduce(ring.ring.field, A + B))
    return PairBlock(index, A, B, inj_a, inj_at, inj_b, inj_bt, maps, combined)


_EVEN_A = [
    [{"x1": 1, "x2": 1, "y1": 1, "y2": 1}, {"x1": 1, "x2": -1, "y1": 1, "y2": -1}],
    [{"x1": 1, "x2": -1, "y1": 1, "y2": -1}, {"x1": 1, "x2": 1, "y1": -1, "y2": -1}],
]
_EVEN_B = [
    [{"x3": 1, "x4": 1, "y3": 1, "y4": 1}, {"x3": 1, "x4": -1, "y3": 1, "y4": -1}],
    [{"x3": 1, "x4": -1, "y3": 1, "y4": -1}, {"x3": 1, "x4": 1, "y3": -1, "y4": -1}],
]
_ODD_A = [
    [{"x1": 1, "x2": 1, "y1": 1, "y2": 1}, {"x1": 1, "x2": -1, "y1": -1, "y2": 1}],
    [{"x1": 1, "x2": -1, "y1": -1, "y2": 1}, {"x1": 1, "x2": 1, "y1": -1, "y2": -1}],
]
_ODD_B = [
    [{"x3": 1, "x4": 1, "y3": 1, "y4": 1}, {"x3": 1, "x4": -1, "y3": -1, "y4": 1}],
    [{"x3": 1, "x4": -1, "y3": -1, "y4": 1}, {"x3": 1, "x4": 1, "y3": -1, "y4": -1}],
]


def canonical_blocks(ring: SpecialRing, index: int) -> PairBlock:
    """The explicit block pair of the construction, chosen by index parity."""
    R = ring.ring
    try:
        A_coeffs, B_coeffs = (_EVEN_A, _EVEN_B) if index % 2 == 0 else (_ODD_A, _ODD_B)
        A = [[R.linear_form(d) for d in row] for row in A_coeffs]
        B = [[R.linear_form(d) for d in row] for row in B_coeffs]
    except Exception as exc:
        raise FactoryError(f"canonical blocks need the ten-vertex ring labels: {exc}") from exc
    return make_block(ring, index, linear_matrix(R, A), linear_matrix(R, B))


def random_blocks(ring: SpecialRing, rng: Random, index: int = 0, max_retries: int = 64) -> PairBlock:
    """Uniform coefficients on both sides, resampled until all four maps are
    bijective (a determinant condition, so failures are rare over a big field).
    Coefficients are drawn for A's entries row by row, then for B's."""
    f, n1 = ring.ring.field, ring.ring.dims[1]

    def sample(side):
        m = len(ring.side(side).basis1)
        coeffs = field_array(f, [[f.rand(rng) for _ in range(m)] for _ in range(4)])
        return ring.side_forms(side, coeffs).reshape(2, 2, n1)

    for _ in range(max_retries):
        A = sample("a")
        B = sample("b")
        block = make_block(ring, index, A, B)
        if block.all_injective:
            return block
    raise FactoryError(f"no injective block pair found in {max_retries} samples")


def _solve_columns(ring: SpecialRing, M, side: str):
    """Columns c1, c2 with M c_i = (delta, 0) resp. (0, delta), M an induced
    map of the side (``induced_matrix``), both from one ``linalg.solve`` of
    M X = [rhs1 rhs2]; the b-side right-hand sides carry -delta, baked into
    the side's delta.  The solution holds the side coordinates of c1 and c2,
    whose forms are one product with the side generators."""
    s = ring.side(side)
    m = len(s.basis1)
    f = ring.ring.field
    zeros = [f.zero] * m
    rhs = field_array(f, [s.delta + zeros, zeros + s.delta]).T
    sol = solve(f, M, rhs)
    if sol is None:
        raise ExtensionError(f"side {side!r} system is singular")
    # sol.T[slot, r*m:(r+1)*m] are the coordinates of the entry (r, slot)
    forms = ring.side_forms(side, sol.T.reshape(4, m)).reshape(2, 2, ring.ring.dims[1])
    return forms.transpose(1, 0, 2)


def extend_forward(ring: SpecialRing, block: PairBlock) -> PairBlock:
    """The successor pair: columns solving the two delta-column systems of
    the block's induced maps."""
    if not block.all_injective:
        raise ExtensionError("all four injectivity flags must hold before extending")
    A_next = _solve_columns(ring, block.maps["a"][0], "a")
    B_next = _solve_columns(ring, block.maps["b"][0], "b")
    new = make_block(ring, block.index + 1, A_next, B_next)
    if matrix_product(block.combined, new.combined, ring.ring).any():
        raise ExtensionError("extension does not compose to zero")
    return new


def extend_backward(ring: SpecialRing, block: PairBlock) -> PairBlock:
    """Run the forward step on the transposes (the block's transposed
    induced maps), then transpose the result."""
    if not block.all_injective:
        raise ExtensionError("all four injectivity flags must hold before extending")
    C = _solve_columns(ring, block.maps["a"][1], "a")
    D = _solve_columns(ring, block.maps["b"][1], "b")
    new = make_block(ring, block.index - 1, C.transpose(1, 0, 2), D.transpose(1, 0, 2))
    if matrix_product(new.combined, block.combined, ring.ring).any():
        raise ExtensionError("backward extension does not compose to zero")
    return new


@dataclass
class FactoryReport:
    blocks: dict
    certificate: WindowCertificate
    kernel_dims: dict  # differential index -> dim ker on (R_1)^2
    mode: str

    @property
    def certified(self) -> bool:
        return (
            all(b.all_injective for b in self.blocks.values())
            and self.certificate.certified
            and all(v == 2 for v in self.kernel_dims.values())
        )

    def to_json(self):
        return {
            "mode": self.mode,
            "steps": {
                str(n): {
                    "inj_a": b.inj_a,
                    "inj_a_transpose": b.inj_at,
                    "inj_b": b.inj_b,
                    "inj_b_transpose": b.inj_bt,
                }
                for n, b in sorted(self.blocks.items())
            },
            "kernel_dims": {str(k): v for k, v in sorted(self.kernel_dims.items())},
            "certificate": self.certificate.to_json(),
            "certified": self.certified,
        }


def _window_from_blocks(ring: SpecialRing, blocks, periodic=None) -> FreeComplexWindow:
    ns = sorted(blocks)
    lo, hi = ns[0] - 1, ns[-1]
    betti = [2] * (hi - lo + 1)
    diffs = [blocks[n].combined for n in ns]
    return FreeComplexWindow(ring.ring, lo, hi, betti, diffs, base_twist=lo, periodic=periodic)


def _certify(ring: SpecialRing, blocks, window, mode) -> FactoryReport:
    """The window's certificate and dim ker of each block (n, 1).  For an
    interior n that kernel is the primal exactness record at degree
    twist(n) + 1 (the Artinian ring has no reduction, so the records are the
    window's own); only the others, n = hi among them, are ranked here."""
    cert = full_certification(window)
    kernels = {(r.index, r.degree): r.kernel_dim for r in cert.exactness.records}
    kernel_dims = {}
    for n in sorted(blocks):
        ker = kernels.get((n, window.twist(n) + 1))
        if ker is None:
            blk = window._block_array(n, 1)
            ker = blk.shape[1] - array_rank(ring.ring.field, blk)
        kernel_dims[n] = ker
    return FactoryReport(blocks=blocks, certificate=cert, kernel_dims=kernel_dims, mode=mode)


def build_window(ring: SpecialRing, start: PairBlock, forward: int, backward: int):
    """Extend a start block both ways and certify the assembled window."""
    if not start.all_injective:
        raise PartialWindowError(start.index, "start block fails an injectivity check")
    blocks = {start.index: start}
    for extend, steps in ((extend_forward, forward), (extend_backward, backward)):
        cur = start
        for _ in range(steps):
            cur = extend(ring, cur)
            if not cur.all_injective:
                raise PartialWindowError(cur.index, "extension lost injectivity")
            blocks[cur.index] = cur
    window = _window_from_blocks(ring, blocks)
    report = _certify(ring, blocks, window, mode="extended")
    return window, report


def canonical_window(ring: SpecialRing, forward: int, backward: int):
    """The strictly periodic window made of the explicit even/odd blocks."""
    blocks = {n: canonical_blocks(ring, n) for n in range(-backward, forward + 1)}
    window = _window_from_blocks(ring, blocks, periodic=Periodicity(2, False))
    window.verify_periodicity()
    report = _certify(ring, blocks, window, mode="canonical")
    return window, report


def distinct_modules(ring: SpecialRing, w1: FreeComplexWindow, w2: FreeComplexWindow) -> bool:
    """Do the index-0 cokernels have different entry-ideal graded pieces?"""
    s1 = fitting_support(ring.ring, w1.diff(0))
    s2 = fitting_support(ring.ring, w2.diff(0))
    return s1 != s2
