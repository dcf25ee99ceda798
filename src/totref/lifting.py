"""Lifting a totally acyclic window along a degree-one regular element.

Given R = S/(x) and a window over R with differentials delta_i, every entry
is lifted through the canonical complement section to S, the correction
matrices M_i are solved from  lift(delta_{i-1}) lift(delta_i) = x * M_i
(uniquely, because multiplication by a regular x is injective), and the lifted
differentials are assembled blockwise with a sign that alternates with the
homological parity:

    even i:  [[d_i, x*I], [M_i, d_{i-1}]]     odd i: [[d_i, -x*I], [-M_i, d_{i-1}]]

Betti numbers double along the way; everything the construction promises
(composition zero, the x-cancellation identity, exactness and dual exactness,
minimality) is re-verified rather than trusted.  The rings of a reduction
chain carry their certified reductions, so both the source gate and the lifted
window's exactness are decided on the Artinian bottom ring, in every degree
(``FreeComplexWindow.graded_exactness``).
"""

from __future__ import annotations

from dataclasses import dataclass
from .algebra import AlgebraElement, GradedAlgebra, QuotientMap
from .complexes import FreeComplexWindow, WindowCertificate, full_certification, matrix_product


class LiftError(ValueError):
    pass


def certify_regular(S: GradedAlgebra, x: AlgebraElement) -> bool:
    """Multiplication by x is injective on every graded piece below the cutoff."""
    if x.degree != 1 or x.is_zero():
        return False
    for t in range(0, S.cutoff):
        if S.dims[t] == 0:
            continue
        m = S.mult_map_matrix(x, t)
        if m.rank() != S.dims[t]:
            return False
    return True


def lift_matrix(mat, qmap: QuotientMap):
    """Entrywise application of the canonical section R_1 -> S_1."""
    return [[qmap.lift(e) for e in row] for row in mat]


def correction_matrix(d_i, d_ip1, x: AlgebraElement, S: GradedAlgebra):
    """The unique M with  d_i d_ip1 = x * M, solved entry by entry in degree 2."""
    prod = matrix_product(d_i, d_ip1, S)
    xmap = S.mult_map_matrix(x, 1)  # S_1 -> S_2
    out = []
    for row in prod:
        orow = []
        for e in row:
            sol = xmap.solve(list(e.coords))
            if sol is None:
                raise LiftError(
                    "product is not divisible by x (is x regular, and the source a complex?)"
                )
            orow.append(AlgebraElement(S, 1, sol))
        out.append(orow)
    # uniqueness and correctness: x * M must reproduce the product exactly
    for r, row in enumerate(out):
        for c, m in enumerate(row):
            if not (x * m - prod[r][c]).is_zero():
                raise LiftError("correction solve failed to reproduce the product")
    return out


def assemble_epsilon(d_i, d_im1, M_i, x: AlgebraElement, index: int):
    """The 2x2 block differential at homological index `index`."""
    S = x.algebra
    sign = 1 if index % 2 == 0 else -1
    b_i = len(d_i[0]) if d_i else 0
    b_im1 = len(d_i)
    b_im2 = len(d_im1)
    if len(d_im1[0]) != b_im1 or len(M_i) != b_im2 or (M_i and len(M_i[0]) != b_i):
        raise LiftError("block shapes are inconsistent")
    zero1 = S.zero(1)
    sx = x if sign == 1 else -x
    top = [list(d_i[r]) + [sx if c == r else zero1 for c in range(b_im1)] for r in range(b_im1)]
    bottom = [
        [(M_i[r][c] if sign == 1 else -M_i[r][c]) for c in range(b_i)] + list(d_im1[r])
        for r in range(b_im2)
    ]
    return top + bottom


@dataclass
class LiftStep:
    """One application of the construction, with everything it verified."""

    source: GradedAlgebra
    target: GradedAlgebra
    form: AlgebraElement
    window: FreeComplexWindow
    regular_ok: bool
    cancellation_ok: bool
    certificate: WindowCertificate

    @property
    def certified(self) -> bool:
        return self.regular_ok and self.cancellation_ok and self.certificate.certified

    def to_json(self):
        return {
            "form": [self.form.algebra.field.encode(c) for c in self.form.coords],
            "regular": self.regular_ok,
            "cancellation": self.cancellation_ok,
            "certificate": self.certificate.to_json(),
        }


def lift_complex(w: FreeComplexWindow, qmap: QuotientMap, check: bool = True) -> LiftStep:
    """Lift a window over R = S/(x) to a window over S with doubled betti."""
    R = qmap.target
    S = qmap.source
    x = qmap.form
    if w.algebra is not R:
        raise LiftError("window does not live over the quotient ring of the map")
    if w.hi - w.lo < 2:
        raise LiftError("window is too short to lift (needs two differentials)")
    if check:
        if not w.compose_check():
            raise LiftError("source window is not a complex")
        ex = w.graded_exactness()
        if not ex.exact:
            raise LiftError("source window is not exact; refusing to lift")
    regular_ok = certify_regular(S, x)
    if check and not regular_ok:
        raise LiftError("the quotient form is not regular up to the cutoff")

    lifted = {i: lift_matrix(w.diff(i), qmap) for i in range(w.lo + 1, w.hi + 1)}
    corrections = {
        i: correction_matrix(lifted[i - 1], lifted[i], x, S) for i in range(w.lo + 2, w.hi + 1)
    }

    cancellation_ok = True
    for i in range(w.lo + 2, w.hi):
        # x * (M_i d~_{i+1} - d~_{i-1} M_{i+1}) = 0, entrywise in degree 3
        lhs = matrix_product(corrections[i], lifted[i + 1], S)
        rhs = matrix_product(lifted[i - 1], corrections[i + 1], S)
        for r in range(len(lhs)):
            for c in range(len(lhs[0])):
                if not (x * (lhs[r][c] - rhs[r][c])).is_zero():
                    cancellation_ok = False

    new_lo = w.lo + 1
    betti = [w.rank_of(i) + w.rank_of(i - 1) for i in range(new_lo, w.hi + 1)]
    diffs = [
        assemble_epsilon(lifted[i], lifted[i - 1], corrections[i], x, i)
        for i in range(new_lo + 1, w.hi + 1)
    ]
    window = FreeComplexWindow(S, new_lo, w.hi, betti, diffs, base_twist=w.base_twist + 1)
    certificate = full_certification(window)
    step = LiftStep(
        source=R,
        target=S,
        form=x,
        window=window,
        regular_ok=regular_ok,
        cancellation_ok=cancellation_ok,
        certificate=certificate,
    )
    if check and not step.certified:
        raise LiftError("lifted window failed verification")
    return step


def lift_through_sequence(w: FreeComplexWindow, qmaps, check: bool = True):
    """Iterate lift_complex along a chain of quotient maps, bottom ring first.

    qmaps[0] must have target equal to the algebra of w; each subsequent map's
    target is the previous map's source.  Returns (final window, [LiftStep]).
    """
    steps = []
    current = w
    for qmap in qmaps:
        step = lift_complex(current, qmap, check=check)
        steps.append(step)
        current = step.window
    return current, steps
