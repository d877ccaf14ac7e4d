"""Section spaces, the tangent map of the degeneracy construction, and a
Jacobian smoothness certificate.

The space of global sections of each bundle is realized concretely: an
ambient direct sum of form spaces modulo the image of the defining relation.
One fraction-free echelon form of the relations is kept per bundle, with
each row's pivot column and nonzero positions.  The quotient by a pair
reduces only the pair's two ambient vectors by that echelon, row by row over
each row's nonzeros, and reads two more pivots off one elimination of the
two reduced rows.  The pivot columns of an echelon form depend only on the
row span, so the relations' pivots and those two are the pivots of the
relations with the pair appended, and the columns left without a pivot
index monomials whose classes form a basis of H0 / <v1, v2>.
``SectionSpace.ambient_terms`` is the one packer of a section into the
ambient space: integer numerators with their positions, block by block,
over the lcm of the block denominators, which spans the same line as the
rational coefficient vector; ``ambient_vector`` lays them out densely.

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
reference).  The curve v1 ^ v2 = sum_j (v2)_j * C_j(v1) is read off the
same multiplication matrix: its columns m*C_j(v1), over every monomial m of
every block, times v2's packed numerators.  So neither a determinant nor a
polynomial product is taken (``detmatrix.wedge_curve`` is the curve's
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

import numpy as np

from .bundles import BundleSpec, ambient_degrees, det_degree, h0_bundle, relation_rows
from .detmatrix import GpliError, Section
from .linalg import CertificateError, ExactMatrix, _bareiss_echelon, _exact_product, _lowest_terms
from .linalg import module_matrix, multiplication_matrix, rank
from .polynomials import HomPoly, _mono_index, h0_p2, mono_basis


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
    relation_pivots: Tuple[int, ...]
    relation_supports: Tuple[Tuple[int, ...], ...]
    free_positions: Tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.free_positions)

    # -- ambient packing ------------------------------------------------

    def ambient_terms(self, components: Sequence[HomPoly]) -> Tuple[List[int], List[int]]:
        """The components' nonzero numerators and their ambient positions:
        each block's numerators scaled to the lcm L of the block
        denominators, so they are L times the rational coefficients.  It
        costs one step per term, whatever the ambient dimension."""
        degrees = tuple(comp.degree for comp in components)
        if degrees != self.ambient_degrees:
            raise ValueError(f"components of degrees {degrees}, not {self.ambient_degrees}")
        den = math.lcm(*(comp.den for comp in components))
        positions, nums = [], []
        for offset, comp in zip(self.block_offsets, components):
            index, scale = _mono_index(comp.degree)[1], den // comp.den
            for mono, c in comp.nums.items():
                positions.append(offset + index[mono])
                nums.append(c * scale)
        return positions, nums

    def ambient_vector(self, components: Sequence[HomPoly]) -> Tuple[int, ...]:
        """The components' coefficient vectors, concatenated and cleared of
        denominators: ``ambient_terms`` laid out densely, so the vector is L
        times the rational one."""
        vector = [0] * self.ambient_dim
        for pos, c in zip(*self.ambient_terms(components)):
            vector[pos] = c
        return tuple(vector)

    def _locate(self, pos: int) -> Tuple[int, int]:
        """The ambient block holding position ``pos``, and the offset in it."""
        j = bisect_right(self.block_offsets, pos) - 1
        return j, pos - self.block_offsets[j]


@lru_cache(maxsize=None)
def section_space(bundle: BundleSpec) -> SectionSpace:
    degs = ambient_degrees(bundle)
    *offsets, ambient_dim = accumulate(map(h0_p2, degs), initial=0)

    # Relation f*row for every monomial f of the row's source degree: a row
    # is a module element over the ambient blocks, so the relations are the
    # columns of the rows' module matrix.
    matrix = module_matrix(relation_rows(bundle), degs)
    if matrix.den != 1:
        raise CertificateError("relation rows must have integer coefficients")
    relations = matrix.ints.T.tolist()
    echelon, pivots, _ = _bareiss_echelon(relations)
    if len(pivots) != len(relations):
        raise CertificateError("defining relations must be independent")
    # Every row holds a pivot, so row i's pivot column is pivots[i][1].
    pivot_cols = tuple(c for _, c in pivots)
    pivot_set = set(pivot_cols)
    free = tuple(i for i in range(ambient_dim) if i not in pivot_set)
    if len(free) != h0_bundle(bundle):
        raise CertificateError("rank-computed dimension must match")
    # The fraction-free echelon of the relations, which reduces each pair.
    echelon = tuple(tuple(row) for row in echelon)
    supports = tuple(tuple(j for j, e in enumerate(row) if e) for row in echelon)
    return SectionSpace(bundle, degs, tuple(offsets), ambient_dim, echelon, pivot_cols, supports, free)


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
    """The quotient by <v1, v2>: the pair's two ambient vectors, reduced by
    the relation echelon, then one elimination of the two reduced rows.

    Each vector w is reduced by the echelon rows in order, w <- piv*w -
    w[c]*row at the row's pivot column c, over the row's nonzeros only.  A
    row is zero left of its pivot and later rows left of theirs, so w ends
    zero on every relation pivot column, which is re-checked.  The reduced
    rows span, with the relations, what the pair does, and they share no
    nonzero vector with the relations' span (each such vector leads at a
    relation pivot column).  So the pivot columns of the whole are the
    relations' and those of the two reduced rows alone.
    """
    for v in (v1, v2):
        if v.bundle != space.bundle:
            other, own = v.bundle.label(), space.bundle.label()
            raise ValueError(f"a section of {other} is not one of {own}")
    reduced = [_reduce(space, space.ambient_vector(v.components)) for v in (v1, v2)]
    if any(w[c] for w in reduced for c in space.relation_pivots):
        raise CertificateError("a reduced section must vanish on every relation pivot column")
    _, pivots, _ = _bareiss_echelon(reduced)
    if len(pivots) != 2:
        raise GpliError("the two sections do not span a two-dimensional subspace")
    new = {c for _, c in pivots}
    return SectionQuotient(space=space, lift_positions=tuple(p for p in space.free_positions if p not in new))


def _reduce(space: SectionSpace, vector: Sequence[int]) -> List[int]:
    """The vector reduced by the relation echelon rows in order, each over
    its nonzero positions.  The result is a nonzero multiple of the vector
    plus a combination of relations, all that the quotient needs, so no
    division is taken."""
    w = list(vector)
    for row, c, support in zip(space.relation_echelon, space.relation_pivots, space.relation_supports):
        f = w[c]
        if not f:
            continue
        piv = row[c]
        if piv != 1:
            w = [piv * e for e in w]
        for j in support:
            w[j] -= f * row[j]
    return w


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
    forms of v1 and v2, so that a caller holding them builds them once.

    One multiplication matrix of the six signed forms, with all columns,
    serves both the matrix and the curve.  C_j's multiplier basis is ambient
    block j, so its half for v1 (columns m*C_j(v1)) times v2's packed
    numerators is the curve det(v1; v2; r), expanded along v2's row, times
    the matrix's and v2's denominators; the tangent matrix is its lift
    columns in each half."""
    space = section_space(bundle)
    degree = det_degree(bundle)
    full = multiplication_matrix([-form for form in c2] + list(c1), degree)
    column = _exact_product(full.ints[:, space.ambient_dim :], *space.ambient_terms(v2.components))
    nonzero = np.flatnonzero(column)
    if not nonzero.size:
        raise GpliError("sections are generically dependent; no curve is cut")
    basis = _mono_index(degree)[0]
    den = full.den * math.lcm(*(comp.den for comp in v2.components))
    curve = HomPoly._of(degree, dict(zip([basis[i] for i in nonzero.tolist()], column[nonzero].tolist())), den)
    quot = quotient_by_pair(space, v1, v2)
    lifts = quot.lift_positions
    matrix = _lowest_terms(full.ints[:, list(lifts + tuple(p + space.ambient_dim for p in lifts))], full.den)
    del full  # the rank below needs only the kept columns
    # The column is the curve times a positive integer, so the rank is the same.
    augmented = matrix.augment_column(column.tolist())
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
