"""Windows of complexes of graded free modules with linear differentials.

A window holds free modules F_i = R(-n_i)^{b_i} for i in [lo, hi], with the
twist n_i increasing by one per homological step, and differentials
d_i : F_i -> F_{i-1} whose entries are homogeneous of degree one.  Exactness
is certified degree by degree through exact rank computations: at (i, d) the
window is exact iff dim ker (d_i)_d equals rank (d_{i+1})_d, which together
with d_i d_{i+1} = 0 is the full condition.

For an Artinian algebra the finitely many nonzero internal degrees make the
certification complete.  A window over the top or middle ring of a reduction
chain is certified through its reduction E/xE over R/(x), down to the Artinian
bottom ring: x is regular, so exactness of E/xE at i gives H_i(E) = x H_i(E),
and H_i(E) = 0 in every degree by graded Nakayama; the same holds for the dual,
since Hom(E, R)/x = Hom(E/xE, R/x).  A window checked with a degree bound, or
over a ring with neither property, carries the degree bound it was checked to.
A matrix of linear forms has one representation: the array D[r, c, :] over
the field (``linalg.field_array``) of the R_1 coordinates of its entries.
Lists of degree-one elements become such arrays in one place,
``linear_matrix``; products, reductions, duals, periodicity and the JSON
round trip all work on the arrays.  A window freezes its differentials
(``linalg.freeze``); its composition check is one stacked product of them.
Each graded block of a differential is one product of D with the
multiplication table; its rank bound is read off the product of the two
factors' check images (``linalg.image_matmul``), the bounds of all the
blocks a certificate reads, the window's and its dual's, come from one
``linalg.rank_bounds`` call (``exactness_reports``), and only a block that
needs an exact rank is assembled over the field.

A checked window whose differentials are block-triangular is certified from
their diagonal pieces.  The reduction of a lifted window is an extension of
its source by the source's shift, so each differential is block
lower-triangular with the source's differentials on its diagonal (its dual,
block upper-triangular).  ``_triangular_pieces`` finds, once per window, the
finest such pattern of zero forms that splits each module alike for both its
differentials.  Ordering a block's rows and columns by those of D keeps it
block-triangular, so a nonzero maximal minor of each diagonal piece's block
gives a nonzero minor of the whole: the sum of the pieces' rank bounds is a
lower bound on the block's rank (over Q too, each piece's bound being one).
It is used as the rank only when it is full or when ``_exactness_records``
confirms it by the column count of its pair; any other block is ranked
whole and exactly, as without pieces, so no certificate changes.  Pieces
with the same entries are ranked once: a two-step lift repeats d_i,
d_(i-1), d_(i-1), d_(i-2) on each diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import AlgebraElement, GradedAlgebra
from .fields import PrimeField
from .linalg import (
    Subspace, array_rank, field_array, field_matmul, field_stack, freeze, image_matmul,
    rank_bounds, structure_product,
)


class ComplexError(ValueError):
    pass


@dataclass
class Periodicity:
    period: int
    verified: bool

    def to_json(self):
        return {"period": self.period, "verified": self.verified}


class FreeComplexWindow:
    """A finite window of a complex of graded free modules over one algebra."""

    def __init__(self, algebra, lo, hi, betti, differentials, base_twist=0, periodic=None):
        """betti: list of ranks for i = lo..hi; differentials: for i = lo+1..hi,
        each an array D[r, c, :] of linear forms (see ``linear_matrix``) or
        a list of rows of degree-1 AlgebraElements."""
        if hi < lo:
            raise ComplexError("empty window")
        self.algebra = algebra
        self.lo = lo
        self.hi = hi
        self.betti = list(betti)
        if len(self.betti) != hi - lo + 1:
            raise ComplexError("betti list does not match the index range")
        if len(differentials) != hi - lo:
            raise ComplexError("expected one differential per index above lo")
        self.base_twist = base_twist
        self.periodic = periodic
        self.diffs = []
        for k, mat in enumerate(differentials):
            i = lo + 1 + k
            shape = (self.rank_of(i - 1), self.rank_of(i), algebra.dims[1])
            D = linear_matrix(algebra, mat) if isinstance(mat, list) else mat
            # (an empty list of rows carries no column count)
            if D.shape != shape and not (len(D) == shape[0] == 0):
                raise ComplexError(f"differential at {i} has the wrong shape")
            self.diffs.append(freeze(D.reshape(shape)))

    def rank_of(self, i) -> int:
        return self.betti[i - self.lo]

    def twist(self, i) -> int:
        return self.base_twist + (i - self.lo)

    def diff(self, i):
        if not (self.lo < i <= self.hi):
            raise ComplexError(f"no differential at index {i}")
        return self.diffs[i - self.lo - 1]

    def interior_indices(self):
        return range(self.lo + 1, self.hi)

    # -- exact verification ----------------------------------------------------

    def _block_array(self, i, t, product=field_matmul):
        """The degree piece of d_i from R_t^{b_i} to R_{t+1}^{b_{i-1}}
        (``graded_block``)."""
        return graded_block(self.algebra, self.diff(i), t, product)

    def compose_check(self) -> bool:
        """All consecutive products d_i d_{i+1} vanish identically: one
        stacked product (``matrix_product``) of the differentials, as they
        are when they share one shape (over the rationals their integer
        forms are kept with them), else padded with zeros to b x b for the
        largest Betti number b."""
        if self.hi - self.lo < 2:
            return True
        shape = (max(self.betti),) * 2 + (self.algebra.dims[1],)
        D = self.diffs
        if any(d.shape != shape for d in D):
            D = field_stack(self.algebra.field, D, shape)
        return not matrix_product(D[:-1], D[1:], self.algebra).any()

    def reduce(self) -> "FreeComplexWindow":
        """The window E/xE over R/(x) for the reduction of its ring: each
        differential projected through ``R.reduction`` in one product."""
        q = self.algebra.reduction
        if q is None:
            raise ComplexError("the window's ring has no certified reduction")
        n1, m1 = self.algebra.dims[1], q.target.dims[1]
        diffs = [
            q.project_rows(1, D.reshape(D.shape[0] * D.shape[1], n1)).reshape(D.shape[:2] + (m1,))
            for D in self.diffs
        ]
        return FreeComplexWindow(q.target, self.lo, self.hi, self.betti, diffs, self.base_twist)

    def graded_exactness(self, degree_bound=None) -> "ExactnessReport":
        """Per-index, per-degree exactness comparison of kernels and images.

        Without a bound, a ring with a certified reduction is checked through
        ``reduce()``, complete in every degree.  Otherwise the block of d_{i+1}
        in degree t - 1 gives the incoming rank at (i, t) and the kernel at
        (i + 1, t - 1).  The blocks the records read are listed first, each
        once (``_exactness_blocks``), and all get their lower bounds from one
        ``rank_bounds`` call (the images of D times the table,
        ``image_matmul``; over GF(p) the ranks themselves), which ranks the
        blocks of one shape together; the records are then read off the
        bounds (``_exactness_records``).  ``exactness_reports`` does this for
        several windows with one ``rank_bounds`` call.
        """
        return exactness_reports([self], degree_bound)[0]

    def _checked(self, degree_bound):
        """The window whose blocks decide exactness: without a bound, the
        reduction down a chain of certified reductions, else this one."""
        w = self
        while degree_bound is None and w.algebra.reduction is not None:
            w = w.reduce()
        return w

    def _exactness_blocks(self, degree_bound):
        """(keys, ranked): the blocks (i, t) the records read, in the order
        they read them, and those of them with rows and columns, which get a
        rank bound (a block with no rows or no columns has rank 0 and is not
        built)."""
        R = self.algebra
        keys = {}
        for i in self.interior_indices():
            for t in range(0, R.cutoff):
                if degree_bound is not None and self.twist(i) + t > degree_bound:
                    break
                if self.rank_of(i) * R.dims[t]:
                    keys[i, t] = None
                if t:
                    keys[i + 1, t - 1] = None
        ranked = [
            (i, t) for i, t in keys
            if self.rank_of(i - 1) * self.rank_of(i) * R.dims[t] * R.dims[t + 1]
        ]
        return keys, ranked

    def _exactness_records(self, bounds, degree_bound, composes) -> "ExactnessReport":
        """The report read off bounds, (i, t) -> (lower bound on the rank of
        the block, whether it is the rank), for every block listed by
        ``_exactness_blocks``.

        At (i, t) the two blocks share cols = b_i dim R_t columns, and when
        the window composes, rank (i, t) + rank (i + 1, t - 1) <= cols.  So
        two lower bounds that sum to cols are both the ranks, and the record
        is exact; only a block whose bound is neither the rank nor so
        confirmed is assembled over the field and ranked exactly.  composes
        is None when the caller has not checked it: ``compose_check`` then
        runs once, when a pair first needs it.
        """
        R = self.algebra
        max_t = R.cutoff - 1

        def rank(i, t):
            if not bounds[i, t][1]:
                bounds[i, t] = array_rank(R.field, self._block_array(i, t)), True
            return bounds[i, t][0]

        def certify_pair(i, t, cols):
            """Mark the bounds at (i, t) and (i + 1, t - 1) as the ranks when
            they sum to cols and the window composes."""
            nonlocal composes
            (r, exact), (r_in, exact_in) = bounds[i, t], bounds[i + 1, t - 1]
            if r + r_in != cols or (exact and exact_in):
                return
            if composes is None:
                composes = self.compose_check()
            if composes:
                bounds[i, t], bounds[i + 1, t - 1] = (r, True), (r_in, True)

        records = []
        all_ok = True
        cut = False  # the bound skipped a nonzero graded piece
        for i in self.interior_indices():
            n_i = self.twist(i)
            for t in range(0, max_t + 1):
                d = n_i + t
                if degree_bound is not None and d > degree_bound:
                    cut = cut or any(R.dims[t : max_t + 1])
                    break
                cols = self.rank_of(i) * R.dims[t]
                if t and cols:
                    certify_pair(i, t, cols)
                ker = cols - rank(i, t) if cols else 0
                inc = 0 if t == 0 else rank(i + 1, t - 1)
                ok = ker == inc
                all_ok = all_ok and ok
                records.append(ExactnessRecord(i, d, ker, inc, ok))
        complete = R.is_artinian() and not cut
        if complete:
            bound = None  # every nonzero graded piece was covered
        else:
            bound = min(
                (self.twist(i) + max_t for i in self.interior_indices()),
                default=self.twist(self.hi),
            )
            if degree_bound is not None:
                bound = min(bound, degree_bound)
        return ExactnessReport(
            records=tuple(records),
            exact=all_ok and bool(records),  # no record: every degree lay above the bound
            certified_degree_bound=bound,
            complete=complete,
        )

    def dual(self) -> "FreeComplexWindow":
        """Apply Hom(-, R): reverse indices, transpose matrices, negate twists."""
        lo2, hi2 = -self.hi, -self.lo
        betti2 = [self.rank_of(-j) for j in range(lo2, hi2 + 1)]
        diffs2 = [self.diff(-j + 1).transpose(1, 0, 2) for j in range(lo2 + 1, hi2 + 1)]
        per = self.periodic
        return FreeComplexWindow(
            self.algebra,
            lo2,
            hi2,
            betti2,
            diffs2,
            base_twist=-self.twist(self.hi),
            periodic=Periodicity(per.period, per.verified) if per else None,
        )

    def verify_periodicity(self) -> bool:
        """d_i = d_{i+k} for the claimed period k >= 1, at every i where both
        lie in the window; false when no such pair exists (nothing was
        compared) or k < 1 (d_i = d_i compares nothing either)."""
        if self.periodic is None:
            return False
        k = self.periodic.period
        pairs = range(self.lo + 1, self.hi + 1 - k) if k >= 1 else ()
        ok = bool(pairs) and all(np.array_equal(self.diff(i), self.diff(i + k)) for i in pairs)
        self.periodic.verified = ok
        return ok

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        """The window as a complex file, whose ring is named by its descriptor."""
        if self.algebra.descriptor is None:
            raise ComplexError("a window over a ring without a descriptor cannot be written")
        f = self.algebra.field
        if isinstance(f, PrimeField):  # its coordinates are the ints encode writes
            as_json = np.ndarray.tolist
        else:
            as_json = lambda D: np.frompyfunc(f.encode, 1, 1)(D).tolist()
        return {
            "format": "complex",
            "algebra": self.algebra.to_json(),
            "lo": self.lo,
            "hi": self.hi,
            "base_twist": self.base_twist,
            "betti": list(self.betti),
            "differentials": [as_json(D) for D in self.diffs],
            "periodic": self.periodic.to_json() if self.periodic else None,
        }

    @classmethod
    def from_json(cls, obj, algebra=None, retries=64) -> "FreeComplexWindow":
        """A window from a complex file, over `algebra` when given, else over
        the ring its algebra entry names (``GradedAlgebra.from_json``)."""
        if not isinstance(obj, dict) or obj.get("format") != "complex":
            raise ComplexError("not a complex file")
        # exact types, as JSON gives them: a bool is no int
        for key, kind in _REQUIRED_FIELDS:
            if type(obj.get(key)) is not kind:
                raise ComplexError(f"complex file field {key!r} is missing or not a {kind.__name__}")
        if type(obj.get("base_twist", 0)) is not int:
            raise ComplexError("complex file field 'base_twist' is not an int")
        if any(type(b) is not int for b in obj["betti"]):
            raise ComplexError("complex file field 'betti' is not a list of ints")
        per = obj.get("periodic")
        if per is not None and not (
            type(per) is dict and type(per.get("period")) is int
            and type(per.get("verified", False)) is bool
        ):
            raise ComplexError("complex file field 'periodic' is not null or an int period")
        if algebra is None:
            algebra = GradedAlgebra.from_json(obj["algebra"], retries=retries)
        f = algebra.field
        try:
            diffs = [
                field_array(f, [[[f.decode(c) for c in e] for e in row] for row in mat])
                for mat in obj["differentials"]
            ]
        except (TypeError, ValueError) as exc:
            raise ComplexError(f"complex file differentials are malformed: {exc}") from exc
        return cls(
            algebra,
            obj["lo"],
            obj["hi"],
            obj["betti"],
            diffs,
            base_twist=obj.get("base_twist", 0),
            periodic=Periodicity(per["period"], per.get("verified", False)) if per else None,
        )


_REQUIRED_FIELDS = (
    ("algebra", dict), ("lo", int), ("hi", int), ("betti", list), ("differentials", list)
)


def linear_matrix(R: GradedAlgebra, rows):
    """The array D[r, c, :] over the field of the R_1 coordinates of a
    matrix given as a list of rows of degree-1 elements of R."""
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise ComplexError("ragged rows")
    for e in (e for row in rows for e in row):
        if not isinstance(e, AlgebraElement) or e.algebra is not R:
            raise ComplexError("entries must be elements of the given algebra")
        if e.degree != 1:
            raise ComplexError("entries must be homogeneous of degree 1")
    coords = [[e.coords for e in row] for row in rows]
    return field_array(R.field, coords).reshape(len(rows), width, R.dims[1])


def graded_block(R: GradedAlgebra, D, t, product=field_matmul):
    """The degree piece of a matrix of linear forms D[r, c, :] from
    R_t^cols to R_{t+1}^rows: its entry coordinates times the basis of R_t
    (``GradedAlgebra.times``) with this product.  ``field_matmul`` gives
    the block as an array over the field, ``image_matmul`` the image its
    rank bound is read off.  Row r of D becomes rows r dim R_{t+1} ...
    (r + 1) dim R_{t+1} of the block, and column c columns c dim R_t ...
    (c + 1) dim R_t, so a block-triangular D has a block-triangular block."""
    b_out, b_in, n1 = D.shape
    src, dst = R.dims[t], R.dims[t + 1]
    blocks = R.times(D.reshape(b_out * b_in, n1), 1, t, product)
    # blocks[r, c, j, k] is the coefficient of basis_k in D[r][c] * basis_j
    blocks = blocks.reshape(b_out, b_in, src, dst).transpose(0, 3, 1, 2)
    return blocks.reshape(b_out * dst, b_in * src)


def _lower_cuts(masks):
    """For each boolean matrix M of a stack masks (k, rows, cols), its cuts
    (p, r), 0 < p < rows and r < cols, with M[:p, r:] all false that no
    other such cut refines: r is the least for p (one past the last true
    column of the first p rows) and p the most for r (row p has a true
    entry at or after r).  Such cuts form one chain, increasing in both p
    and r.  Rows and columns of zeros appended to a matrix add no cut."""
    cols = masks.shape[2]
    last = np.where(masks.any(axis=2), cols - masks[:, :, ::-1].argmax(axis=2), 0)
    reach = np.maximum.accumulate(last, axis=1)  # reach[j, p - 1]: the least r for p
    cuts = [[] for _ in masks]
    reached = reach.tolist()
    for j, p in zip(*(a.tolist() for a in np.nonzero(reach[:, :-1] < reach[:, 1:]))):
        cuts[j].append((p + 1, reached[j][p]))
    return cuts


def _subcomplex_cuts(cuts):
    """The cuts of each differential d_lo+1 .. d_hi (lists of (p, r)) that
    split every module the same way for both its differentials: a cut
    (p, r) of d_i is kept while p is a kept row cut of d_i and a kept column
    cut of d_(i-1), and r a kept column cut of d_i and a kept row cut of
    d_(i+1).  The trailing (lower cuts) or leading (upper cuts) coordinates
    of the modules then span subcomplexes, so the diagonal pieces form
    complexes, one per level of the filtration; as dicts p -> r, all empty
    or none."""
    cuts = [dict(c) for c in cuts]
    while True:
        # the cut values kept at each module F_lo .. F_hi
        shared = (
            [set(cuts[0])]
            + [set(a.values()) & set(b) for a, b in zip(cuts, cuts[1:])]
            + [set(cuts[-1].values())]
        )
        kept = [
            {p: r for p, r in c.items() if p in shared[k] and r in shared[k + 1]}
            for k, c in enumerate(cuts)
        ]
        if kept == cuts:
            return kept
        cuts = kept


def _triangular_pieces(w: FreeComplexWindow):
    """i -> the diagonal pieces D[p_(k-1):p_k, r_(k-1):r_k] of d_i when the
    entries of w's differentials have a block-triangular pattern: the
    finest chains of cuts (p, r) with D[:p, r:] all zero forms (block
    lower-triangular, ``_lower_cuts``) or, failing that, with D[p:, :r] all
    zero (block upper-triangular, the dual of a lower one), that split each
    module the same way for both its differentials (``_subcomplex_cuts``).
    One test of all the entries finds the nonzero forms; a window without a
    zero form has no cut and returns {} there.  Otherwise the patterns,
    padded with zeros to one shape, are cut as one stack."""
    shapes = [D.shape[:2] for D in w.diffs]
    nonzero = (np.concatenate([D.reshape(-1, D.shape[2]) for D in w.diffs]) != 0).any(axis=1)
    if nonzero.all():
        return {}
    masks = np.zeros((len(shapes), max(r for r, _ in shapes), max(c for _, c in shapes)), bool)
    end = 0
    for j, (r, c) in enumerate(shapes):
        masks[j, :r, :c] = nonzero[end : end + r * c].reshape(r, c)
        end += r * c
    cuts = _subcomplex_cuts(_lower_cuts(masks))
    if not cuts[0]:
        upper = _lower_cuts(masks.transpose(0, 2, 1))
        cuts = _subcomplex_cuts([[(p, r) for r, p in c] for c in upper])
        if not cuts[0]:
            return {}
    pieces = {}
    for i, D, c in zip(range(w.lo + 1, w.hi + 1), w.diffs, cuts):
        ps, rs = zip((0, 0), *sorted(c.items()), D.shape[:2])
        pieces[i] = [D[ps[k] : ps[k + 1], rs[k] : rs[k + 1]] for k in range(len(c) + 1)]
    return pieces


def _entries_key(A):
    """A hashable key of an array's shape and entries."""
    return A.shape, tuple(A.flat) if A.dtype == object else A.tobytes()


def matrix_product(A, B, algebra: GradedAlgebra):
    """The product P[r, c, :] (entries in R_2) of two matrices of linear
    forms A[r, m, :] and B[m, c, :], or of each pair of two stacks of them
    (a leading batch axis): ``linalg.structure_product`` with the table of
    R_1 x R_1 -> R_2."""
    return structure_product(algebra.field, A, algebra.np_table(1, 1), B)


@dataclass
class ExactnessRecord:
    index: int
    degree: int
    kernel_dim: int
    incoming_rank: int
    exact: bool


@dataclass
class ExactnessReport:
    records: tuple
    exact: bool
    certified_degree_bound: Optional[int]  # None when every nonzero degree was covered
    # True when every nonzero degree was covered: over an Artinian ring when
    # no bound skipped a nonzero piece, and through a certified reduction
    complete: bool

    def failures(self):
        return [r for r in self.records if not r.exact]

    def to_json(self):
        return {
            "exact": self.exact,
            "complete": self.complete,
            "certified_degree_bound": self.certified_degree_bound,
            "failures": [
                {
                    "index": r.index,
                    "degree": r.degree,
                    "kernel_dim": r.kernel_dim,
                    "incoming_rank": r.incoming_rank,
                }
                for r in self.failures()
            ],
        }


def ezd_complex(R: GradedAlgebra, pair, half_length: int = 3) -> FreeComplexWindow:
    """The 2-periodic complex ... -> R -a-> R -b-> R -a-> ... of a certified pair."""
    from .analysis import verify_ezd  # local import to avoid a cycle

    if not verify_ezd(R, pair.a, pair.b):
        raise ComplexError("pair is not a certified pair of exact zero divisors")
    lo, hi = -half_length, half_length
    diffs = []
    for i in range(lo + 1, hi + 1):
        elt = pair.a if i % 2 == 0 else pair.b
        diffs.append([[elt]])
    period = 1 if pair.a == pair.b else 2
    w = FreeComplexWindow(
        R,
        lo,
        hi,
        [1] * (hi - lo + 1),
        diffs,
        base_twist=lo,  # so F_0 = R with no twist
        periodic=Periodicity(period, False),
    )
    w.verify_periodicity()
    return w


def fitting_support(R: GradedAlgebra, D):
    """Graded pieces (degree 1 and 2) of the ideal generated by the entries
    of a matrix of linear forms D[r, c, :]."""
    f, n1, n2 = R.field, R.dims[1], R.dims[2]
    C = D.reshape(D.shape[0] * D.shape[1], n1)
    # row (e, i) of the product is e * basis_i
    prods = R.times(C, 1, 1).reshape(C.shape[0] * n1, n2)
    return Subspace.from_vectors(f, n1, C), Subspace.from_vectors(f, n2, prods)


@dataclass
class IndecomposabilityVerdict:
    verdict: str  # "indecomposable" | "inconclusive"
    reason: str
    certificate: Optional[dict] = None

    def to_json(self):
        return {"verdict": self.verdict, "reason": self.reason, "certificate": self.certificate}


def indecomposability_certificate(
    R: GradedAlgebra, w: FreeComplexWindow, i: int, no_ezd_certificate=None
) -> IndecomposabilityVerdict:
    """A rank-2 cokernel in a certified window over a ring with no exact zero
    divisors cannot split: any summand would be cyclic, i.e. R/(a) for an
    exact zero divisor a."""
    if not (w.lo < i <= w.hi):
        return IndecomposabilityVerdict("inconclusive", "index outside the window")
    if w.rank_of(i - 1) != 2:
        return IndecomposabilityVerdict(
            "inconclusive", "criterion applies to two-generated cokernels only"
        )
    if not no_ezd_certificate:
        return IndecomposabilityVerdict("inconclusive", "no no-ezd certificate supplied")
    return IndecomposabilityVerdict(
        "indecomposable (conditional on no-ezd certificate)",
        "betti 2 and the ring admits no exact zero divisors",
        certificate=no_ezd_certificate,
    )


@dataclass
class WindowCertificate:
    composes: bool
    exactness: ExactnessReport
    dual_exactness: ExactnessReport
    minimal: bool
    periodic: Optional[Periodicity]

    @property
    def certified(self) -> bool:
        return self.composes and self.exactness.exact and self.dual_exactness.exact and self.minimal

    def to_json(self):
        return {
            "composes": self.composes,
            "exactness": self.exactness.to_json(),
            "dual_exactness": self.dual_exactness.to_json(),
            "minimal": self.minimal,
            "periodic": self.periodic.to_json() if self.periodic else None,
            "certified": self.certified,
        }


def exactness_reports(windows, degree_bound=None, composes=None):
    """The exactness report of each window (``graded_exactness``), all over
    one field.  The blocks of every window are listed first and all get
    their bounds from one ``rank_bounds`` call, so blocks of one shape are
    ranked in one stack whichever window they come from.  The block of a
    differential with diagonal pieces (``_triangular_pieces``) is bounded
    by the sum of its pieces' bounds, each distinct piece ranked once per
    degree.  composes is True when the caller has checked that every window
    composes; None lets each window check when its records first need it."""
    checked = [w._checked(degree_bound) for w in windows]
    listed = [w._exactness_blocks(degree_bound) for w in checked]
    images = []
    slots = {}  # (ring, degree, piece entries) -> the index of its image
    plans = []  # per window: (i, t) -> (None, index) or (full rank, piece indices)
    for w, (_, ranked) in zip(checked, listed):
        R, plan = w.algebra, {}
        pieces = {
            i: [(_entries_key(P), P) for P in Ps if P.shape[0] and P.shape[1]]
            for i, Ps in (_triangular_pieces(w) if ranked else {}).items()
        }
        for i, t in ranked:
            if i not in pieces:
                plan[i, t] = None, len(images)
                images.append(w._block_array(i, t, image_matmul))
                continue
            ks = []
            for entries, P in pieces[i]:
                key = id(R), t, entries
                if key not in slots:
                    slots[key] = len(images)
                    images.append(graded_block(R, P, t, image_matmul))
                ks.append(slots[key])
            full = min(w.rank_of(i - 1) * R.dims[t + 1], w.rank_of(i) * R.dims[t])
            plan[i, t] = full, ks
        plans.append(plan)
    ranks = rank_bounds(checked[0].algebra.field, images)
    reports = []
    for w, (keys, _), plan in zip(checked, listed, plans):
        # (i, t) -> (lower bound on the block's rank, whether it is the rank)
        bounds = dict.fromkeys(keys, (0, True))
        for key, (full, ks) in plan.items():
            if full is None:
                bounds[key] = ranks[ks]
            else:
                # the pieces lie on the diagonal of a block-triangular block:
                # a nonzero maximal minor of each is a nonzero minor of it
                r = sum(ranks[k][0] for k in ks)
                bounds[key] = r, r == full
        reports.append(w._exactness_records(bounds, degree_bound, composes))
    return reports


def full_certification(w: FreeComplexWindow, degree_bound=None) -> WindowCertificate:
    """Compose + exactness + dual exactness + minimality in one report: one
    ``compose_check``, then the blocks of the window and of its dual, both
    through the same reduction, ranked by one ``rank_bounds`` call
    (``exactness_reports``; when the window composes, so do its dual and
    its reduction).  A window without an interior index has no exactness to
    check: never certified."""
    composes = w.compose_check()
    if composes and w.interior_indices():
        checked = w._checked(degree_bound)
        ex, dex = exactness_reports([checked, checked.dual()], degree_bound, composes=True)
    else:
        empty = ExactnessReport(records=(), exact=False, certified_degree_bound=None, complete=False)
        ex = dex = empty
    if w.periodic is not None:
        w.verify_periodicity()
    return WindowCertificate(
        composes=composes,
        exactness=ex,
        dual_exactness=dex,
        # by construction: a differential holds only the coordinates of linear
        # forms (``linear_matrix`` refuses any other degree), so every entry
        # lies in the maximal ideal
        minimal=True,
        periodic=w.periodic,
    )
