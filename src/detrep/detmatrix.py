"""Determinantal representations: polynomial matrices and degeneracy curves.

A plane curve of degree d is represented by a square matrix of homogeneous
forms whose determinant is the curve's equation.  The matrices built here
stack section rows of a rank-d bundle on top of the relation rows of the
bundle's defining sequence; the determinant is then the degeneracy locus of
those sections (the locus where they fail to stay pointwise independent).

Entry degrees must form a consistent pattern: every generalized diagonal has
to carry the same total degree, equivalently deg[i][j] decomposes as
row_i + col_j.  That is exactly the condition making fraction-free
elimination degree-safe, and it is checked at construction time.

``det_poly`` computes every determinant, at every size, by Kronecker
substitution (Kronecker 1882; Schoenhage 1982): each row's denominators are
cleared, z is set to 1, and each entry is packed into one integer by x -> 2^s
and y -> 2^(s(D+1)), D the determinant degree.  One integer determinant of the
packed matrix, taken by the package's one elimination core
(``linalg._bareiss_echelon``), is unpacked as balanced base-2^s digits; digit
a + (D+1)b is the coefficient of x^a y^b z^(D-a-b).  The unpacking is exact
by a norm bound, not a heuristic (Goldstein and Graham, "A Hadamard-type
bound on the coefficients of a determinant of polynomials", SIAM Review 16,
1974): every coefficient of the determinant is at most
B = ceil(sqrt(prod_i sum_j |a_ij|_1^2)) in absolute value, |a_ij|_1 the
1-norm of a cleared entry, and s is chosen with 2^(s-1) above B.  Proof: on
the torus |x| = |y| = 1 (z = 1) each |a_ij| is at most |a_ij|_1; Hadamard's
inequality bounds |det A| there by the product of the rows' 2-norms; and by
Parseval every coefficient is at most the maximum of |det A| on the torus.

The tests check it against two independent engines, labelled oracles in
``tests/oracles.py`` (criterion 10): cofactor expansion and fraction-free
elimination over the polynomial ring with exact polynomial division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Sequence, Tuple

from .bundles import (
    BundleSpec,
    ambient_degrees,
    bundle_rank,
    det_degree,
    relation_rows,
    relation_source_degrees,
)
from .linalg import CertificateError, _bareiss_echelon
from .polynomials import HomPoly, X, Y, Z, _plane_only


class GpliError(ValueError):
    """Sections that fail generic pointwise linear independence."""


class PolyMatrix:
    """Square matrix of HomPoly entries with a consistent degree pattern."""

    __slots__ = ("_size", "_entries")

    def __init__(self, entries: Sequence[Sequence[HomPoly]]):
        rows = tuple(tuple(row) for row in entries)
        size = len(rows)
        if size == 0:
            raise ValueError("empty matrix")
        for row in rows:
            if len(row) != size:
                raise ValueError("matrix must be square")
            for e in row:
                if not isinstance(e, HomPoly):
                    raise TypeError("entries must be HomPoly")
                _plane_only(e)
        deg = [[e.degree for e in row] for row in rows]
        # Constant generalized-diagonal degree == rank-1 additive pattern.
        for i in range(size):
            for j in range(size):
                if deg[i][j] + deg[0][0] != deg[i][0] + deg[0][j]:
                    raise ValueError(
                        "inconsistent degree pattern: "
                        f"entry ({i},{j}) of degree {deg[i][j]} breaks the "
                        f"row/column decomposition"
                    )
        self._size = size
        self._entries = rows

    size = property(attrgetter("_size"))
    entries = property(attrgetter("_entries"))

    @property
    def det_deg(self) -> int:
        return sum(self.entries[i][i].degree for i in range(self.size))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"PolyMatrix({self.size}x{self.size}, det degree {self.det_deg})"


def _unpack(value: int, s: int, degree: int, denominator: int) -> HomPoly:
    """The form whose Kronecker image is ``value``, over ``denominator``.

    Reads balanced base-2^s digits, least significant first; digit
    a + (degree+1)*b is the coefficient of x^a y^b z^(degree-a-b).  A nonzero
    digit outside the triangle a + b <= degree means the coefficient bound
    failed, and raises ``CertificateError``.
    """
    half, mask, width = 1 << (s - 1), (1 << s) - 1, degree + 1
    nums = {}
    k = 0
    while value:
        digit = value & mask
        if digit >= half:
            digit -= 1 << s
        value = (value - digit) >> s
        if digit:
            b, a = divmod(k, width)
            if a + b > degree:
                raise CertificateError(f"Kronecker digit {k} lies outside degree {degree}")
            nums[(a, b, degree - a - b)] = digit
        k += 1
    return HomPoly._of(degree, nums, denominator)


def det_poly(M: PolyMatrix) -> HomPoly:
    """Determinant of degree ``M.det_deg``, by Kronecker substitution.

    Each row is cleared of denominators (the product of the row multipliers
    is divided out at the end), z is set to 1, and every entry is packed as
    the integer p(2^s, 2^(s(D+1))), D = ``M.det_deg``.  That evaluation is a
    ring map, so the packed matrix's determinant, taken on
    ``linalg._bareiss_echelon``, is the image of the polynomial determinant.
    Every coefficient of the cleared determinant is at most
    B = ceil(sqrt(prod_i sum_j |a_ij|_1^2)) in absolute value (Goldstein and
    Graham 1974): on the torus |x| = |y| = 1 each |a_ij| is at most
    |a_ij|_1, Hadamard's inequality bounds |det A| there by the product of
    the rows' 2-norms, and by Parseval no coefficient exceeds the maximum of
    |det A| on the torus.  s is the least width with 2^(s-1) above B, so the
    balanced digits are the coefficients.
    A negative D or a singular packed matrix gives ``HomPoly.zero(D)``.
    """
    degree = M.det_deg
    if degree < 0:
        return HomPoly.zero(degree)
    rows, denominator, squared = [], 1, 1
    for row in M.entries:
        mult = math.lcm(*(e.den for e in row))
        cleared = [[(mono, c * (mult // e.den)) for mono, c in e.nums.items()] for e in row]
        squared *= sum(sum(abs(c) for _, c in terms) ** 2 for terms in cleared)
        denominator *= mult
        rows.append(cleared)
    root = math.isqrt(squared)
    # B = ceil(sqrt(squared)) bounds every coefficient.
    s = (root + (root * root < squared)).bit_length() + 1
    step = s * (degree + 1)
    packed = [
        [sum(c << (s * a + step * b) for (a, b, _), c in terms) for terms in row]
        for row in rows
    ]
    echelon, pivots, sign = _bareiss_echelon(packed)
    if len(pivots) < M.size:
        return HomPoly.zero(degree)
    return _unpack(sign * echelon[-1][-1], s, degree, denominator)


# ---------------------------------------------------------------------------
# Sections and degeneracy curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Section:
    """A global section presented by its tuple of ambient components."""

    bundle: BundleSpec
    components: Tuple[HomPoly, ...]

    def __post_init__(self):
        expected = ambient_degrees(self.bundle)
        if len(self.components) != len(expected):
            raise ValueError(
                f"{self.bundle.label()} sections have {len(expected)} components, "
                f"got {len(self.components)}"
            )
        for comp, deg in zip(self.components, expected):
            if comp.degree != deg:
                raise ValueError(
                    f"component of degree {comp.degree} where {deg} is required"
                )


def degeneracy_matrix(sections: Sequence[Section]) -> PolyMatrix:
    """Section rows stacked over the bundle's relation rows."""
    if not sections:
        raise ValueError("no sections given")
    bundle = sections[0].bundle
    for s in sections:
        if s.bundle != bundle:
            raise ValueError("sections live on different bundles")
    need = bundle_rank(bundle)
    if len(sections) != need:
        raise ValueError(
            f"{bundle.label()} needs exactly {need} section rows, got {len(sections)}"
        )
    rows = [list(s.components) for s in sections]
    rows.extend(list(r) for r in relation_rows(bundle))
    return PolyMatrix(rows)


def wedge_curve(*sections: Section) -> HomPoly:
    """Equation of the degeneracy locus of the given sections.

    The result is homogeneous of the determinant degree of the bundle;
    it is identically zero exactly when the sections fail to be generically
    pointwise independent.
    """
    M = degeneracy_matrix(sections)
    curve = det_poly(M)
    bundle = sections[0].bundle
    if curve.degree != det_degree(bundle):
        raise CertificateError(f"wedge curve has degree {curve.degree}, not {det_degree(bundle)}")
    return curve


def is_gpli(*sections: Section) -> bool:
    """Generic pointwise linear independence of the sections."""
    return not wedge_curve(*sections).is_zero()


def relation_shift(bundle: BundleSpec, f: HomPoly, row_index: int = 0) -> Tuple[HomPoly, ...]:
    """The ambient tuple obtained by feeding f through one defining relation.

    These tuples span exactly the ambient representatives of zero, so adding
    one to any section never moves its class (or any wedge against it).
    """
    rows = relation_rows(bundle)
    src = relation_source_degrees(bundle)[row_index]
    if f.degree != src:
        raise ValueError(f"shift multiplier must have degree {src}, got {f.degree}")
    return tuple(f * e for e in rows[row_index])


def shifted(sec: Section, f: HomPoly, row_index: int = 0) -> Section:
    """The same section class presented by a relation-shifted ambient tuple."""
    shift = relation_shift(sec.bundle, f, row_index)
    return Section(sec.bundle, tuple(c + s for c, s in zip(sec.components, shift)))


# ---------------------------------------------------------------------------
# Column reduction to the normalized last row (x, y, z^2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of normalizing a last row (l, m, Q) to (x, y, z^2).

    The new determinant equals (1/scale) times the substitution pullback of
    the old one: coordinates were changed by ``substitution`` (the matrix S
    with l o S = x, m o S = y), polynomial multiples of the first two columns
    were folded into the third (``col_op_a``, ``col_op_b``), and the third
    column was divided by ``scale``.
    """

    matrix: "PolyMatrix"
    substitution: Tuple[Tuple[Fraction, ...], ...]
    col_op_a: HomPoly
    col_op_b: HomPoly
    scale: Fraction


def _cross(a: Sequence, b: Sequence) -> Tuple:
    """The cross product a x b of two 3-vectors."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def column_reduce_normalize(M: PolyMatrix) -> ReductionResult:
    """Bring a 3x3 matrix with last row (l, m, Q) to last row (x, y, z^2).

    l and m must be independent linear forms and the quadric Q must lie
    outside the ideal (l, m); both conditions are tested exactly and
    violations raise ValueError.
    """
    if M.size != 3:
        raise ValueError("normalization applies to 3x3 matrices")
    last = M.entries[2]
    if [e.degree for e in last] != [1, 1, 2]:
        raise ValueError("last row must have degrees (1, 1, 2)")
    l, m, q = last
    # Deterministic completion of (l, m) to a coordinate frame: the first unit
    # row e_t with A = (l; m; e_t) invertible.  det A = (l x m)_t, so no e_t
    # completes it exactly when l and m are dependent.  By the adjugate, the
    # columns of A^-1 are m x e_t, e_t x l and l x m, each over det A.
    lc, mc = l.coeff_vector(), m.coeff_vector()
    normal = _cross(lc, mc)
    t = next((t for t in range(3) if normal[t]), None)
    if t is None:
        raise ValueError("the two linear forms are dependent")
    unit = tuple(int(j == t) for j in range(3))
    columns = (_cross(mc, unit), _cross(unit, lc), normal)
    frame = tuple(tuple(col[i] / normal[t] for col in columns) for i in range(3))
    images = [HomPoly.from_coeff_vector(1, row) for row in frame]
    moved = [[e.compose_linear(images) for e in row] for row in M.entries]
    # Split Q = x*A + y*B + scale*z^2: A takes the terms with x, B the other
    # terms with y.
    q2 = moved[2][2]
    scale = q2.coeff((0, 0, 2))
    if scale == 0:
        raise ValueError("quadric lies in the ideal of the two linear forms")
    col_a = HomPoly(1, {(a - 1, b, c): v for (a, b, c), v in q2.terms.items() if a})
    col_b = HomPoly(1, {(a, b - 1, c): v for (a, b, c), v in q2.terms.items() if not a and b})
    out = PolyMatrix(
        [[e1, e2, (e3 - col_a * e1 - col_b * e2).scale(1 / scale)] for e1, e2, e3 in moved]
    )
    if list(out.entries[2]) != [X, Y, Z * Z]:
        raise CertificateError("reduced last row must be (x, y, z^2)")
    return ReductionResult(
        matrix=out,
        substitution=frame,
        col_op_a=col_a,
        col_op_b=col_b,
        scale=scale,
    )
