"""The multiplication-map side of the surjectivity story.

A pair of ambient triples of degree n+1 determines six forms of degree n+2,
the 2x2 minors of each triple (a, b, c) against the coordinate row:

    c*y - b*z,  a*z - c*x,  b*x - a*y,  and the same for the other triple.

They are the cofactor forms of the triples as sections of T(n), and
``tangent.cofactor_forms`` is their one definition.  They span the space U.
Multiplying U by all forms of degree n+1 lands in degree 2n+3, and the image
of that multiplication map coincides with the image of the tangent map of the
degeneracy construction at the pair, after restriction to the curve.
``diagram_crosscheck`` computes both verdicts from one build of the minors and
compares them.  The two sides share the matrix builder
``linalg.multiplication_matrix``, the one-block case of ``module_matrix``: the
tangent matrix is a column subset of the multiplication matrix of the same six
forms, signed, and the curve column that augments it is read off that
matrix, as F = v1 ^ v2 = sum_j (v2)_j * C_j(v1).  So the augmented tangent
matrix lies in the span of the multiplication matrix by construction, and
the cross-check ranks it first.  When it is full, the multiplication map is
onto and its matrix is neither built nor ranked on its own; otherwise it is
ranked as well.  What tests the
tangent columns and the curve independently are the determinant-based oracles
of ``tests/oracles.py``.

The same graded machinery decides ideal containment: the power of the
irrelevant maximal ideal sits inside the ideal generated by given forms as
soon as one graded piece fills up, and filling is monotone upward (checked,
not assumed).  Every rung below the fill has a deficient rank.  Known
syzygies of the generators give kernel vectors of its matrix, re-checked in
integers, which bound that rank from above: the Koszul syzygies for any
generators, and five more that the construction gives for the minors U.  A
syzygy is a module element, one form per generator, so its kernel columns
m*s, stacked by generator, come from one ``linalg.module_matrix`` of all the
syzygies together.  Where the bound meets the mod-p rank the rung is decided
without integer elimination; elsewhere Bareiss decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .bundles import T, relation_rows
from .detmatrix import GpliError, Section
from .linalg import (
    CertificateError,
    ExactMatrix,
    LinearMapReport,
    module_matrix,
    multiplication_matrix,
    rank,
    report,
)
from .polynomials import HomPoly, h0_p2
from .tangent import _tangent_report, cofactor_forms

# A syzygy of generators g_i: one form s_i per generator, of degree d - deg g_i
# for one degree d, with sum_i s_i * g_i == 0.  A zero entry keeps its degree.
Syzygy = Tuple[HomPoly, ...]


@dataclass(frozen=True)
class USpace:
    """The six minor forms of a pair, with their provenance."""

    n: int
    generators: Tuple[HomPoly, ...]
    f: Section
    g: Section


def u_generators(
    f: Union[Section, Sequence[HomPoly]],
    g: Union[Section, Sequence[HomPoly]],
    n: Optional[int] = None,
) -> USpace:
    """The six degree-(n+2) minors of two degree-(n+1) triples.

    They are ``cofactor_forms`` of f, then of g, as sections of T(n):
    C1 = c*y - b*z, C2 = a*z - c*x, C3 = b*x - a*y for (a, b, c).  n defaults
    to the triples' degree minus one; ``Section`` and ``BundleSpec`` raise
    ``ValueError`` on a wrong component count, unequal degrees or n < -1.
    """
    ft = f.components if isinstance(f, Section) else tuple(f)
    gt = g.components if isinstance(g, Section) else tuple(g)
    if n is None:
        n = max((comp.degree for comp in ft), default=0) - 1
    fs, gs = Section(T(n), ft), Section(T(n), gt)
    return USpace(n=n, generators=cofactor_forms(fs) + cofactor_forms(gs), f=fs, g=gs)


def u_syzygies(u: USpace) -> List[Syzygy]:
    """Five syzygies of the six minors that the construction gives.

    With v ^ q = sum_j q_j * C_j(v) over the relation row r: v ^ r = 0 and
    v ^ v = 0 for each triple v (on T(n), r = (x, y, z) is Euler's relation),
    and f ^ g + g ^ f = 0.
    """
    [r] = relation_rows(T(u.n))
    r, f, g = tuple(r), u.f.components, u.g.components
    zero_r, zero_v = (tuple(HomPoly.zero(e.degree) for e in row) for row in (r, f))
    return [r + zero_r, zero_r + r, f + zero_v, zero_v + g, g + f]


def mult_map_matrix(u: USpace) -> ExactMatrix:
    """Matrix of multiplication H0(O(n+1)) (x) U -> H0(O(2n+3)).

    Columns run over (generator, monomial) pairs in that nesting order;
    rows over the degree-(2n+3) monomial basis.
    """
    return multiplication_matrix(u.generators, 2 * u.n + 3)


def mult_map_report(u: USpace) -> LinearMapReport:
    return report(mult_map_matrix(u))


# ---------------------------------------------------------------------------
# Graded ideal ladders
# ---------------------------------------------------------------------------


def component_matrix(generators: Sequence[HomPoly], k: int) -> ExactMatrix:
    """Matrix whose column space is the degree-k piece of the ideal."""
    return multiplication_matrix([gen for gen in generators if not gen.is_zero()], k)


def koszul_syzygies(generators: Sequence[HomPoly]) -> List[Syzygy]:
    """g_j * e_i - g_i * e_j for every pair i < j of nonzero generators.

    They hold for any generators, and for three forms with no common
    projective zero (a regular sequence) they generate every syzygy, since
    the Koszul complex of a regular sequence is exact.
    """
    live = [i for i, gen in enumerate(generators) if not gen.is_zero()]
    out: List[Syzygy] = []
    for a, i in enumerate(live):
        for j in live[a + 1 :]:
            d = generators[i].degree + generators[j].degree
            entries = [HomPoly.zero(d - gen.degree) for gen in generators]
            entries[i], entries[j] = generators[j], -generators[i]
            out.append(tuple(entries))
    return out


def component_dim(
    generators: Sequence[HomPoly], k: int, syzygies: Optional[Sequence[Syzygy]] = None
) -> int:
    """Dimension of the degree-k piece of the ideal.

    Below the degree of every nonzero generator the piece is 0, and no
    matrix is built.  A deficient rank is bounded above by the kernel
    columns of ``syzygies``, the Koszul syzygies of the generators by default
    (built only when the mod-p sweep comes out deficient), and Bareiss
    decides where that bound is not tight.
    """
    if all(gen.is_zero() or gen.degree > k for gen in generators):
        return 0

    def kernel():
        # The column m*s for every syzygy s and every monomial m of degree
        # k - deg s, its entry s_i in the rows of g_i: a zero generator has
        # no columns in the component matrix, so its entry is dropped.  The
        # stored columns are one common positive multiple of the m*s.
        live = [i for i, gen in enumerate(generators) if not gen.is_zero()]
        syz = koszul_syzygies(generators) if syzygies is None else syzygies
        elements = [[s[i] for i in live] for s in syz]
        return module_matrix(elements, [k - generators[i].degree for i in live]).ints.T

    return rank(component_matrix(generators, k), kernel=kernel)


@dataclass(frozen=True)
class LadderRow:
    k: int
    dim: int
    full: bool


@dataclass(frozen=True)
class ContainmentReport:
    """Smallest degree whose graded piece fills up, with the whole ladder.

    ``reached`` of k certifies that every form of degree >= k lies in the
    ideal (each degree-k monomial does, and higher degrees follow by
    multiplying); it is always double-checked at k+1.  The ladder climbs to
    ``bound``, the Macaulay degree 3D-2 of generators of largest degree D:
    an ideal whose generators share no projective zero fills by then, so
    None is a proof that the generators share a projective zero.
    """

    reached: Optional[int]
    bound: int
    ladder: Tuple[LadderRow, ...]


def containment_degree(
    generators: Sequence[HomPoly], syzygies: Optional[Sequence[Syzygy]] = None
) -> ContainmentReport:
    # Three generic forms of degree D in the ideal form a regular sequence
    # when the generators have no common zero, and a complete intersection
    # of three degree-D forms contains every form of degree 3D-2 (Macaulay).
    top = max((gen.degree for gen in generators if not gen.is_zero()), default=0)
    bound = max(0, 3 * top - 2)
    ladder: List[LadderRow] = []
    reached: Optional[int] = None
    for k in range(0, bound + 1):
        dim = component_dim(generators, k, syzygies)
        full = dim == h0_p2(k)
        ladder.append(LadderRow(k=k, dim=dim, full=full))
        if full:
            reached = k
            break
    if reached is not None:
        # Filling is monotone upward; verify rather than assume.
        nxt = reached + 1
        dim = component_dim(generators, nxt, syzygies)
        full = dim == h0_p2(nxt)
        ladder.append(LadderRow(k=nxt, dim=dim, full=full))
        if not full:
            raise CertificateError("a full graded piece must stay full one degree up")
    return ContainmentReport(reached=reached, bound=bound, ladder=tuple(ladder))


# ---------------------------------------------------------------------------
# Cross-checks between the two surjectivity computations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrosscheckReport:
    gpli: bool
    mult_surjective: bool
    tangent_surjective: bool
    agree: bool
    mult_rank: int


def diagram_crosscheck(
    f: Union[Section, Sequence[HomPoly]],
    g: Union[Section, Sequence[HomPoly]],
    n: Optional[int] = None,
) -> CrosscheckReport:
    """Compare the multiplication-map verdict with the tangent-map verdict.

    The two must agree whenever the pair is generically independent; a
    degenerate pair cuts no curve, and both sides then count as
    non-surjective.  The minors are built once and feed both sides.  The
    tangent side reads the curve F = sum_j (v2)_j * C_j(v1) off their
    multiplication matrix and raises ``GpliError`` when it vanishes, which
    marks the pair degenerate.

    The augmented tangent matrix is ranked first.  Each of its columns is a
    signed column of the multiplication matrix, and its curve column F is a
    combination of multiplication columns by its definition.  So when it has
    full rank the multiplication map is onto, and its matrix is not ranked on
    its own.  A tangent map that is not onto, or a degenerate pair, ranks the
    multiplication matrix as well.
    """
    u = u_generators(f, g, n)
    c1, c2 = u.generators[:3], u.generators[3:]
    try:
        tangent = _tangent_report(T(u.n), u.f, u.g, c1, c2)
    except GpliError:
        tangent = None
    gpli = tangent is not None
    tangent_surj = gpli and tangent.surjective
    target = h0_p2(2 * u.n + 3)
    mult_rank = target if tangent_surj else rank(mult_map_matrix(u))
    mult_surjective = mult_rank == target
    return CrosscheckReport(
        gpli=gpli,
        mult_surjective=mult_surjective,
        tangent_surjective=tangent_surj,
        agree=mult_surjective == tangent_surj if gpli else True,
        mult_rank=mult_rank,
    )


@dataclass(frozen=True)
class DisjointnessReport:
    disjoint_certified: bool
    containment: ContainmentReport


def disjointness_check(
    f: Union[Section, Sequence[HomPoly]],
    g: Union[Section, Sequence[HomPoly]],
) -> DisjointnessReport:
    """Certify that the two triples' degeneracy schemes share no point.

    The six minors cut the union of the two schemes' intersection loci; they
    have no common projective zero exactly when some power of the irrelevant
    ideal lies in the ideal they generate, which the containment ladder
    decides.  A ladder that never fills proves that the minors share one.
    Its deficient rungs are bounded by the five syzygies of ``u_syzygies``.
    """
    u = u_generators(f, g)
    containment = containment_degree(u.generators, u_syzygies(u))
    return DisjointnessReport(
        disjoint_certified=containment.reached is not None,
        containment=containment,
    )
