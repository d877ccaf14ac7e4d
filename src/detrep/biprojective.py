"""The quadric-surface analogue: four sections on a product of two lines.

A quadruple F = (F1, F2, F3, F4) of bidegree-(ma, mb) forms determines the
bidegree-(2ma, 2mb) form psi(F) = F1*F4 - F2*F3 (the determinant of the 2x2
matrix the quadruple fills).  The derivative of psi at F is the linear map

    dpsi_F(f) = F1*f4 + F4*f1 - F2*f3 - F3*f2,

a bilinear shadow of the product rule; psi(F + t*f) expands exactly as
psi(F) + t*dpsi_F(f) + t^2*psi(f).  Its matrix is the multiplication-column
matrix of (F4, -F3, -F2, F1) from bidegree (ma, mb) into (2ma, 2mb), built by
``linalg.multiplication_matrix``, the same builder that makes the plane's
multiplication maps.  The forms are ``HomPoly`` forms whose degree is the
pair (a, b).

At the monomial witness quadruple (X0^ma*Y0^mb, X0^ma*Y1^mb, X1^ma*Y0^mb,
X1^ma*Y1^mb) surjectivity of dpsi has a combinatorial certificate: every
monomial of bidegree (2ma, 2mb) is divisible by one of the four corner
monomials (pigeonhole on each factor), and dividing out lands back in
bidegree (ma, mb).  Both the certificate and the rank verdict are computed
and compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .linalg import ExactMatrix, LinearMapReport, multiplication_matrix, report
from .polynomials import HomPoly, bimono_basis


@dataclass(frozen=True)
class QuadSections:
    """Four bidegree-(ma, mb) forms on the (a, b)-polarized product."""

    a: int
    b: int
    m: int
    components: Tuple[HomPoly, HomPoly, HomPoly, HomPoly]

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise ValueError("both factor degrees must be at least 1")
        if self.m < 1:
            raise ValueError("the multiple m must be at least 1")
        want = (self.m * self.a, self.m * self.b)
        for comp in self.components:
            if comp.degree != want:
                raise ValueError(
                    f"component of bidegree {comp.degree} where {want} is required"
                )


def witness_quad(a: int, b: int, m: int) -> QuadSections:
    """The corner-monomial quadruple."""
    ma, mb = m * a, m * b
    comps = (
        HomPoly.monomial((ma, 0, mb, 0)),
        HomPoly.monomial((ma, 0, 0, mb)),
        HomPoly.monomial((0, ma, mb, 0)),
        HomPoly.monomial((0, ma, 0, mb)),
    )
    return QuadSections(a, b, m, comps)


def psi(q: QuadSections) -> HomPoly:
    f1, f2, f3, f4 = q.components
    return f1 * f4 - f2 * f3


def dpsi_matrix(q: QuadSections) -> ExactMatrix:
    """Matrix of dpsi at q, columns in slot-major order.

    Slot i contributes the columns multiplier_i * m, for m over the
    bidegree-(ma, mb) basis, with multipliers (F4, -F3, -F2, F1), read in
    the bidegree-(2ma, 2mb) basis.
    """
    f1, f2, f3, f4 = q.components
    target = (2 * q.m * q.a, 2 * q.m * q.b)
    return multiplication_matrix((f4, -f3, -f2, f1), target)


def dpsi_report(q: QuadSections) -> LinearMapReport:
    return report(dpsi_matrix(q))


def monomial_cover_check(a: int, b: int, m: int) -> bool:
    """Check every bidegree-(2ma, 2mb) monomial against the four corners.

    True when each is divisible by X0^ma or X1^ma and by Y0^mb or Y1^mb,
    which is what surjectivity of dpsi at the witness quadruple needs.
    """
    if a < 1 or b < 1 or m < 1:
        raise ValueError("parameters must be positive")
    ma, mb = m * a, m * b
    for (a0, a1, b0, b1) in bimono_basis(2 * ma, 2 * mb):
        if not (a0 >= ma or a1 >= ma):
            return False
        if not (b0 >= mb or b1 >= mb):
            return False
    return True
