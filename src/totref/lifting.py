"""Lifting a totally acyclic window along a degree-one regular element.

Given R = S/(x) and a window over R with differentials delta_i, every entry
is lifted through the canonical complement section to S, the correction
matrices M_i are solved from  lift(delta_{i-1}) lift(delta_i) = x * M_i
(uniquely, because multiplication by a regular x is injective), and the lifted
differentials are assembled blockwise with a sign that alternates with the
homological parity:

    even i:  [[d_i, x*I], [M_i, d_{i-1}]]     odd i: [[d_i, -x*I], [-M_i, d_{i-1}]]

Every matrix here is an array D[r, c, :] of linear-form coordinates (see
``complexes.linear_matrix``), and a step works on every homological index at
once: the differentials, stacked along a leading axis, are lifted by one
scatter into the kept labels; every product lift(d_{i-1}) lift(d_i) is one
stacked product, every correction is read off one elimination, and both
sides of every cancellation gap are one more stacked product.  Each block
differential is a concatenation.  Betti numbers double along the way;
everything the construction promises (composition zero, the x-cancellation
identity, exactness and dual exactness) is re-verified rather than trusted.
The rings of a reduction chain carry their certified reductions, so x is
regular in every degree, and both the source gate and the lifted window's
exactness are decided on the Artinian bottom ring, in every degree
(``complexes.exactness_reports``); no check reads a degree above 3.  Along
a chain only the input is gated: each later source is the window the step
before certified.

Modulo x the blocks x*I vanish, so the reduced lift is an extension of the
source by its shift: every reduced differential is block lower-triangular,
[[d_i, 0], [M_i, d_{i-1}]] up to sign, with the source's differentials on
its diagonal (after two steps, d_i, d_{i-1}, d_{i-1}, d_{i-2}), and its dual
block upper-triangular.  The exactness check ranks those diagonal pieces in
place of the whole blocks (``complexes._triangular_pieces``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import GradedAlgebra, QuotientMap
from .complexes import (
    FreeComplexWindow,
    WindowCertificate,
    exactness_reports,
    full_certification,
    linear_matrix,
    matrix_product,
)
from .linalg import field_matmul, field_reduce, field_stack, field_zeros, solve


class LiftError(ValueError):
    pass


def certify_regular(qmap: QuotientMap) -> bool:
    """The form of the map is regular on its source in every degree.

    ``reduction_chain`` sets ``source.reduction`` to the map only after
    certifying (l1, l2) as a regular sequence: a system of parameters on a
    Cohen-Macaulay ring, by the Artinian bottom's Hilbert function."""
    return qmap.source.reduction is qmap


def lift_matrix(D, qmap: QuotientMap):
    """The canonical section R_1 -> S_1 applied to every entry of a matrix of
    forms D[r, c, :], or of a stack of them: one ``lift_rows``."""
    S = qmap.source
    return qmap.lift_rows(1, D.reshape(-1, D.shape[-1])).reshape(D.shape[:-1] + (S.dims[1],))


def correction_matrix(d_i, d_ip1, x, S: GradedAlgebra):
    """The unique M with  d_i d_ip1 = x * M (x given by its S_1 coordinates),
    for one pair of matrices of linear forms or for each pair of two stacks
    of them (a leading batch axis): one ``linalg.solve`` of x· M = every
    entry of every product (x·: S_1 -> S_2), then one exact check that
    x * M reproduces the products."""
    f, n1 = S.field, S.dims[1]
    P = matrix_product(d_i, d_ip1, S)
    entries = P.reshape(-1, P.shape[-1])
    X = S.mult_map_array(x, 1, 1)  # S_1 -> S_2
    M = solve(f, X, entries.T)
    if M is None:
        raise LiftError("product is not divisible by x (is x regular, and the source a complex?)")
    if (field_matmul(f, M.T, X.T) != entries).any():
        raise LiftError("correction solve failed to reproduce the product")
    return M.T.reshape(P.shape[:-1] + (n1,))


def assemble_epsilon(d_i, d_im1, M_i, x, S: GradedAlgebra, index: int):
    """The 2x2 block differential at homological index `index`."""
    f = S.field
    b_im1, b_i, n1 = d_i.shape
    b_im2 = d_im1.shape[0]
    if d_im1.shape[1] != b_im1 or M_i.shape != (b_im2, b_i, n1):
        raise LiftError("block shapes are inconsistent")
    sign = 1 if index % 2 == 0 else -1
    xI = field_zeros(f, (b_im1, b_im1, n1))
    xI[range(b_im1), range(b_im1)] = field_reduce(f, sign * x)
    top = np.concatenate([d_i, xI], axis=1)
    bottom = np.concatenate([field_reduce(f, sign * M_i), d_im1], axis=1)
    return np.concatenate([top, bottom])


@dataclass
class LiftStep:
    """One application of the construction, with everything it verified."""

    source: GradedAlgebra
    target: GradedAlgebra
    form: object  # the S_1 coordinates of x
    window: FreeComplexWindow
    regular_ok: bool
    cancellation_ok: bool
    certificate: WindowCertificate

    @property
    def certified(self) -> bool:
        return self.regular_ok and self.cancellation_ok and self.certificate.certified

    def to_json(self):
        return {
            "form": [self.target.field.encode(c) for c in self.form.tolist()],
            "regular": self.regular_ok,
            "cancellation": self.cancellation_ok,
            "certificate": self.certificate.to_json(),
        }


def lift_complex(w: FreeComplexWindow, qmap: QuotientMap, check: bool = True) -> LiftStep:
    """Lift a window over R = S/(x) to a window over S with doubled betti.

    Every homological index at once: the differentials, padded with zeros
    to b x b for the largest Betti number b, form one stack, whose padding
    rows and columns stay zero throughout; each block is cut back to its
    shape before it is assembled.  With check, the map must be certified
    regular, w must compose and be exact, and the lifted window must
    certify; each failure raises LiftError."""
    R, S = qmap.target, qmap.source
    if w.algebra is not R:
        raise LiftError("window does not live over the quotient ring of the map")
    if w.hi - w.lo < 3:
        raise LiftError(
            f"window is too short to lift: it has {w.hi - w.lo} differentials and needs at "
            "least 3, so that the lifted window has an interior index"
        )
    regular_ok = certify_regular(qmap)
    if check:
        if not regular_ok:
            raise LiftError("the quotient form is not certified regular by a reduction chain")
        if not w.compose_check():
            raise LiftError("source window is not a complex")
        if not exactness_reports([w], composes=True)[0].exact:
            raise LiftError("source window is not exact; refusing to lift")

    f, lo, b = S.field, w.lo, max(w.betti)
    x = linear_matrix(S, [[qmap.form]])[0, 0]
    L = lift_matrix(field_stack(f, w.diffs, (b, b, R.dims[1])), qmap)
    # M[j] is the correction M_i of i = lo + 2 + j: L[j] L[j + 1] = x * M[j]
    M = correction_matrix(L[:-1], L[1:], x, S)
    # x * (M_i d~_{i+1} - d~_{i-1} M_{i+1}) = 0 for i = lo + 2 + j: both
    # sides of every gap in one stacked product, every entry of degree 2
    # then in one product with x: S_2 -> S_3
    k = len(M) - 1
    sides = matrix_product(np.concatenate([M[:-1], L[:-2]]), np.concatenate([L[2:], M[1:]]), S)
    gaps = field_reduce(f, sides[:k] - sides[k:]).reshape(-1, S.dims[2])
    cancellation_ok = not field_matmul(f, gaps, S.mult_map_array(x, 1, 2).T).any()

    new_lo = lo + 1
    betti = [w.rank_of(i) + w.rank_of(i - 1) for i in range(new_lo, w.hi + 1)]
    diffs = []
    for j, i in enumerate(range(new_lo + 1, w.hi + 1)):
        # cut back to their shapes: d~_i, d~_{i-1} and M_i
        b0, b1, b2 = w.rank_of(i - 2), w.rank_of(i - 1), w.rank_of(i)
        diffs.append(assemble_epsilon(L[j + 1, :b1, :b2], L[j, :b0, :b1], M[j, :b0, :b2], x, S, i))
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
    With check, only w passes the source gate of ``lift_complex`` (composes,
    exact): every later source is the window of the step before, which was
    certified, exactness included, or raised; a later step that does not
    certify, its map's regularity included, raises too.
    """
    steps = []
    current = w
    for qmap in qmaps:
        step = lift_complex(current, qmap, check=check and not steps)
        if check and not step.certified:
            raise LiftError("lifted window failed verification")
        steps.append(step)
        current = step.window
    return current, steps
