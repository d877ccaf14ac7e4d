"""Section spaces, the tangent map of the degeneracy construction, and a
Jacobian smoothness certificate.

The space of global sections of each bundle is realized concretely: an
ambient direct sum of form spaces modulo the image of the defining relation.
One fraction-free echelon form of the relations is kept per bundle.  The
quotient by a pair is read from the pivots of that echelon with the pair's
two ambient vectors appended: the pivot columns of an echelon form depend
only on the row span, so the columns left without a pivot index monomials
whose classes form a basis of H0 / <v1, v2>.  ``SectionSpace.ambient_vector``
is the one packer of a section into the ambient space: integer numerators
block by block, over the lcm of the block denominators, which spans the same
line as the rational coefficient vector.

For a pair of sections (v1, v2) spanning V, the derivative of the map
"pair of sections -> degeneracy curve" sends a homomorphism phi in
Hom(V, H0/V) to the curve-restriction of

    v1 ^ phi(v2)  -  v2 ^ phi(v1)

where v ^ q is the determinant of the rows v and q over the relation row
r = (r1, r2, r3).  Expanding along q gives v ^ q = sum_j q_j * C_j(v) with
the cofactor forms

    C1 = c*r2 - b*r3,   C2 = a*r3 - c*r1,   C3 = b*r1 - a*r2

of v = (a, b, c).  Every canonical lift of a quotient basis vector is one
monomial m in one ambient block j, so the column of phi: v1 -> m is
-m*C_j(v2) and that of phi: v2 -> m is m*C_j(v1): the tangent matrix is a
column subset of the multiplication matrix of the cofactor forms, and no
polynomial determinant is taken per column (the tests take one per column,
with ``tangent_column`` of ``tests/oracles.py``, as the independent
reference).  The curve v1 ^ v2 = sum_j (v2)_j * C_j(v1) is read off the same
forms, so no determinant is taken at all (``detmatrix.wedge_curve`` is its
reference in the tests).  For T(n) the C_j of the two sections are exactly
the minors that ``ideals.u_generators`` calls U.  Surjectivity onto sections
of the curve is decided by ranking the matrix augmented with the curve's own
coefficient vector, since the curve spans the kernel of restriction.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import List, Sequence, Tuple

from .bundles import (
    BundleSpec,
    ambient_degrees,
    det_degree,
    h0_bundle,
    relation_rows,
    relation_source_degrees,
)
from .detmatrix import GpliError, Section
from .linalg import CertificateError, ExactMatrix, _bareiss_echelon, multiplication_matrix, rank
from .polynomials import HomPoly, h0_p2, mono_basis


@dataclass(frozen=True, eq=False)
class SectionSpace:
    """Global sections of a bundle as an explicit ambient quotient: the
    ambient blocks' degrees and first positions, the fraction-free echelon of
    the relations, and the ambient positions without a pivot.  The cached
    ``section_space`` hands one to every caller, so it is read-only, with
    tuples throughout."""

    bundle: BundleSpec
    ambient_degrees: Tuple[int, ...]
    block_offsets: Tuple[int, ...]
    ambient_dim: int
    relation_echelon: Tuple[Tuple[int, ...], ...]
    free_positions: Tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.free_positions)

    # -- ambient packing ------------------------------------------------

    def ambient_vector(self, components: Sequence[HomPoly]) -> Tuple[int, ...]:
        """The components' coefficient vectors, concatenated and cleared of
        denominators: each block's numerators scaled to the lcm L of the
        block denominators, so the vector is L times the rational one."""
        degrees = tuple(comp.degree for comp in components)
        if degrees != self.ambient_degrees:
            raise ValueError(f"components of degrees {degrees}, not {self.ambient_degrees}")
        den = math.lcm(*(comp.den for comp in components))
        return tuple(c * (den // comp.den) for comp in components for c in comp.num_vector())

    def _locate(self, pos: int) -> Tuple[int, int]:
        """The ambient block holding position ``pos``, and the offset in it."""
        j = bisect_right(self.block_offsets, pos) - 1
        return j, pos - self.block_offsets[j]


@lru_cache(maxsize=None)
def section_space(bundle: BundleSpec) -> SectionSpace:
    degs = ambient_degrees(bundle)
    *offsets, ambient_dim = accumulate(map(h0_p2, degs), initial=0)

    # Relation f*row for every monomial f of the row's source degree: one
    # ambient vector per relation, stacked block by block, which is the
    # column f of the row's multiplication matrices stacked.  Their span
    # is the row space of the matrix with one relation per row.
    relations: List[Tuple[int, ...]] = []
    for row, src in zip(relation_rows(bundle), relation_source_degrees(bundle)):
        blocks = [multiplication_matrix([entry], src + entry.degree) for entry in row]
        if any(den != 1 for block in blocks for den in block.dens):
            raise CertificateError("relation rows must have integer coefficients")
        relations.extend(zip(*(line for block in blocks for line in block.ints.tolist())))
    echelon, pivots, _ = _bareiss_echelon(relations)
    if len(pivots) != len(relations):
        raise CertificateError("defining relations must be independent")
    pivot_set = {c for _, c in pivots}
    free = tuple(i for i in range(ambient_dim) if i not in pivot_set)
    if len(free) != h0_bundle(bundle):
        raise CertificateError("rank-computed dimension must match")
    # The fraction-free echelon of the relations, which each pair extends.
    echelon = tuple(tuple(row) for row in echelon)
    return SectionSpace(bundle, degs, tuple(offsets), ambient_dim, echelon, free)


@dataclass(frozen=True)
class SectionQuotient:
    """H0(bundle) / <v1, v2> with canonical lifts of a quotient basis.

    Each canonical lift is the ambient unit vector at one position without a
    pivot, i.e. one monomial in one ambient block; ``lift_positions`` lists
    those ambient positions in increasing order.
    """

    space: SectionSpace
    lift_positions: Tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.lift_positions)

    @property
    def lifts(self) -> Tuple[Section, ...]:
        """The lifts as sections, built on demand: the unit monomial at each
        lift position, and zero in the other blocks."""
        space = self.space
        zeros = tuple(HomPoly.zero(d) for d in space.ambient_degrees)
        out = []
        for pos in self.lift_positions:
            j, offset = space._locate(pos)
            mono = mono_basis(space.ambient_degrees[j])[offset]
            out.append(Section(space.bundle, zeros[:j] + (HomPoly.monomial(mono),) + zeros[j + 1 :]))
        return tuple(out)


def quotient_by_pair(space: SectionSpace, v1: Section, v2: Section) -> SectionQuotient:
    """The quotient by <v1, v2>, from one elimination of the relation echelon
    with the pair's two ambient vectors appended."""
    for v in (v1, v2):
        if v.bundle != space.bundle:
            other, own = v.bundle.label(), space.bundle.label()
            raise ValueError(f"a section of {other} is not one of {own}")
    rows = space.relation_echelon + tuple(space.ambient_vector(v.components) for v in (v1, v2))
    _, pivots, _ = _bareiss_echelon(rows)
    if len(pivots) != len(rows):
        raise GpliError("the two sections do not span a two-dimensional subspace")
    pivot_set = {c for _, c in pivots}
    positions = tuple(pos for pos in range(space.ambient_dim) if pos not in pivot_set)
    return SectionQuotient(space=space, lift_positions=positions)


def cofactor_forms(v: Section) -> Tuple[HomPoly, HomPoly, HomPoly]:
    """The forms C_j(v) with v ^ q = sum_j q_j * C_j(v) for every q.

    They are the signed 2x2 minors of v over the relation row r of a rank-2
    family: C1 = c*r2 - b*r3, C2 = a*r3 - c*r1, C3 = b*r1 - a*r2.  On T(n),
    r = (x, y, z), and this is the one definition of the minors that span U.
    """
    [(r1, r2, r3)] = relation_rows(v.bundle)
    a, b, c = v.components
    return (c * r2 - b * r3, a * r3 - c * r1, b * r1 - a * r2)


# The rank-2 families presented by three summands over one relation row, the
# shape that ``cofactor_forms`` reads; ``detrep tangent --bundle`` offers these.
TANGENT_FAMILIES = ("T", "N")


@dataclass(frozen=True)
class TangentReport:
    bundle: BundleSpec
    matrix: ExactMatrix
    hom_dim: int
    curve: HomPoly
    target_dim: int
    augmented_rank: int
    surjective: bool


def tangent_map(bundle: BundleSpec, v1: Section, v2: Section) -> TangentReport:
    """Derivative of the degeneracy-curve map at (v1, v2), with verdict.

    Works for the two rank-2 families (degeneracy curves of section pairs).
    Columns are the values on phi: v1 -> lift, then on phi: v2 -> lift, with
    the lifts in order.  A lift is one monomial m in ambient block j, so its
    columns are -m*C_j(v2) and m*C_j(v1): one multiplication of each signed
    cofactor form by the monomials of its block, keeping the lift positions.
    Raises GpliError when the pair has identically dependent values, i.e.
    when its wedge curve vanishes.
    """
    if bundle.family not in TANGENT_FAMILIES:
        raise ValueError("tangent map is defined for the rank-2 families N and T")
    if v1.bundle != bundle or v2.bundle != bundle:
        raise ValueError("sections do not live on the stated bundle")
    return _tangent_report(bundle, v1, v2, cofactor_forms(v1), cofactor_forms(v2))


def _tangent_report(
    bundle: BundleSpec, v1: Section, v2: Section, c1: Sequence[HomPoly], c2: Sequence[HomPoly]
) -> TangentReport:
    """``tangent_map`` on validated input, given c1 and c2, the cofactor
    forms of v1 and v2, so that a caller holding them builds them once.  The
    curve is det(v1; v2; r) expanded along v2's row."""
    q1, q2, q3 = v2.components
    curve = q1 * c1[0] + q2 * c1[1] + q3 * c1[2]
    if curve.is_zero():
        raise GpliError("sections are generically dependent; no curve is cut")
    space = section_space(bundle)
    quot = quotient_by_pair(space, v1, v2)
    degree = det_degree(bundle)
    # Lift positions split by ambient block, as offsets inside the block.
    block_lifts: List[List[int]] = [[] for _ in space.block_offsets]
    for pos in quot.lift_positions:
        j, offset = space._locate(pos)
        block_lifts[j].append(offset)
    forms = [-form for form in c2] + list(c1)
    matrix = multiplication_matrix(forms, degree, keep=block_lifts * 2)
    # The curve's numerators: scaling a column by den leaves the rank as it is.
    augmented = matrix.augment_column(curve.num_vector())
    aug_rank = rank(augmented)
    return TangentReport(
        bundle=bundle,
        matrix=matrix,
        hom_dim=matrix.cols,
        curve=curve,
        target_dim=h0_p2(degree) - 1,
        augmented_rank=aug_rank,
        surjective=aug_rank == h0_p2(degree),
    )


def smoothness_check(F: HomPoly) -> bool:
    """Decide whether the curve F = 0 is smooth, from its partial derivatives.

    With e = deg F - 1 >= 1, the three partials are degree-e forms, and they
    have no common projective zero exactly when they form a regular sequence.
    The quotient by such a sequence has socle degree 3e-3, so 3e-2 is its
    Macaulay degree: the degree-(3e-2) piece of the Jacobian ideal is all of
    the degree-(3e-2) forms if and only if the partials have no common zero.
    One rank test at that rung therefore decides; a full piece in any lower
    degree d stays full above it, since R_{d+1} = R_1 * R_d.  By Euler's
    relation (e+1)F = x*F_x + y*F_y + z*F_z, a common zero of the partials
    lies on the curve, so False is a proof that the curve is singular.  A line
    (e = 0) has constant partials and is decided at degree 1.
    """
    if F.is_zero() or F.degree < 1:
        return False
    k = max(1, 3 * F.degree - 5)
    partials = [g for g in (F.derivative(v) for v in range(3)) if not g.is_zero()]
    return rank(multiplication_matrix(partials, k)) == h0_p2(k)
