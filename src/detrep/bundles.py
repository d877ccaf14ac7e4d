"""Bundle families on the projective plane: bookkeeping and dimension audits.

Four families of vector bundles are tracked, each presented by a short exact
sequence of the shape

    0 -> O(source)^s -> O(ambient_1) + ... + O(ambient_m) -> E -> 0

* ``T(n)``   rank 2, ambient O(n+1)^3, one relation row (x, y, z)
* ``N(n)``   rank 2, ambient O(n)^2 + O(n+1), one relation row (x, y, z^2)
* ``M_k(n)`` rank binom(k+2,2) - 1, ambient O(n)^m with m = binom(k+2,2),
             one relation row listing every degree-k monomial
* ``E_r(n)`` rank r, ambient O(n)^(r+2), two linear relation rows

Twisting by O(1) is heavily used, so every n-dependent quantity takes the
twist as part of the spec.  ``T`` admits n >= -1 (its degree-1 determinant
lives there); the other families require n >= 0.

Each family is one record in ``_FAMILIES``, read by validation, the CLI and
every invariant: least twist, extra parameter, defining sequence and relation
rows.  Rank, determinant degree and section counts are ambient sums minus
source sums along the sequence.  For h0 this is exact because no line bundle on
the plane has first cohomology (Hartshorne III.5.1); ``tangent``'s section
spaces cross-check it against relation-matrix ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .linalg import CertificateError
from .polynomials import HomPoly, X, Y, Z, h0_p2, mono_basis


class _Family(NamedTuple):
    least_n: int
    param: Optional[Tuple[str, int, Optional[int]]]  # (letter, least, greatest or None)
    # (n, param) -> ambient summands and relation sources as (degree, count)
    # pairs in component order; unexpanded, so invariants cost O(1) in k
    sequence: Callable
    rows: Callable  # param -> the relation rows


_ZERO1 = HomPoly.zero(1)
_FAMILIES = {
    "N": _Family(0, None, lambda n, _: (((n, 2), (n + 1, 1)), ((n - 1, 1),)),
                 lambda _: ((X, Y, Z * Z),)),
    "T": _Family(-1, None, lambda n, _: (((n + 1, 3),), ((n, 1),)), lambda _: ((X, Y, Z),)),
    "M": _Family(0, ("k", 1, None), lambda n, k: (((n, h0_p2(k)),), ((n - k, 1),)),
                 lambda k: (tuple(map(HomPoly.monomial, mono_basis(k))),)),
    "E": _Family(0, ("r", 2, 4), lambda n, r: (((n, r + 2),), ((n - 1, 2),)),
                 lambda r: ((X, Y, Z) + (_ZERO1,) * (r - 1), (_ZERO1,) * (r - 1) + (X, Y, Z))),
}
FAMILIES = tuple(_FAMILIES)


def parameter_letter(family: str) -> Optional[str]:
    """The extra parameter's letter: k for M, r for E, None for T and N."""
    param = _FAMILIES[family].param
    return param[0] if param else None


@dataclass(frozen=True)
class BundleSpec:
    """One member of one family: family letter, twist n, and the extra
    parameter (k for M, r for E) or None."""

    family: str
    n: int
    param: Optional[int] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        family = _FAMILIES[self.family]
        if family.param:
            letter, least, greatest = family.param
            if (self.param is None or self.param < least
                    or greatest is not None and self.param > greatest):
                bound = f"{least} <= {letter} <= {greatest}" if greatest else f"{letter} >= {least}"
                raise ValueError(f"{self.family}_{letter} needs {bound}")
        if self.n < family.least_n:
            name = _label(self.family, "n", parameter_letter(self.family))
            raise ValueError(f"{name} needs n >= {family.least_n}")
        if not family.param and self.param is not None:
            raise ValueError(f"{self.family} takes no extra parameter")

    def twist(self, t: int) -> BundleSpec:
        return BundleSpec(self.family, self.n + t, self.param)

    def label(self) -> str:
        return _label(self.family, self.n, self.param)


def _label(family: str, n, param) -> str:
    """The printed name: ``T(n)`` and ``N(n)``, or ``M_k(n)`` and ``E_r(n)``."""
    return f"{family}({n})" if param is None else f"{family}_{param}({n})"


def N(n: int) -> BundleSpec:
    return BundleSpec("N", n)


def T(n: int) -> BundleSpec:
    return BundleSpec("T", n)


def M(k: int, n: int) -> BundleSpec:
    return BundleSpec("M", n, k)


def E(r: int, n: int) -> BundleSpec:
    return BundleSpec("E", n, r)


def _along_sequence(spec: BundleSpec, f: Callable[[int], int]) -> int:
    """sum c*f(a) over the ambient summands O(a)^c minus the same sum over
    the relation sources: an invariant additive on the sequence, read off it."""
    ambient, sources = _FAMILIES[spec.family].sequence(spec.n, spec.param)
    return sum(c * f(a) for a, c in ambient) - sum(c * f(s) for s, c in sources)


def _expanded(spec: BundleSpec, side: int) -> Tuple[int, ...]:
    """The ambient (side 0) or source (side 1) degrees, one per summand."""
    pairs = _FAMILIES[spec.family].sequence(spec.n, spec.param)[side]
    return tuple(d for d, c in pairs for _ in range(c))


def bundle_rank(spec: BundleSpec) -> int:
    return _along_sequence(spec, lambda a: 1)


def det_degree(spec: BundleSpec) -> int:
    """Degree of the determinant line bundle, i.e. of the degeneracy curve."""
    return _along_sequence(spec, lambda a: a)


def h0_bundle(spec: BundleSpec, t: int = 0) -> int:
    """Global-section dimension of the bundle twisted by O(t)."""
    return _along_sequence(spec, lambda a: h0_p2(a + t))


def ambient_degrees(spec: BundleSpec) -> Tuple[int, ...]:
    """Degrees of the ambient line-bundle summands, in component order."""
    return _expanded(spec, 0)


def relation_rows(spec: BundleSpec) -> Tuple[Tuple[HomPoly, ...], ...]:
    """Polynomial rows presenting the relations of the defining sequence.

    Row i, scaled by a form of degree ``relation_source_degrees()[i]``, lands
    in the ambient space; these rows also sit at the bottom of every
    degeneracy-locus determinant.
    """
    return _FAMILIES[spec.family].rows(spec.param)


def relation_source_degrees(spec: BundleSpec) -> Tuple[int, ...]:
    """Degree of the multiplier form feeding each relation row."""
    return _expanded(spec, 1)


@dataclass(frozen=True)
class AuditRow:
    m: int
    lhs: int
    rhs: int
    holds: bool


def inequality_audit(spec: BundleSpec, m_range: Sequence[int], g: int) -> List[AuditRow]:
    """Dimension-count rows lhs <= rhs at each extra twist m.

    lhs = h0(det E(m)) - 1 counts the curves cut by pairs of sections up to
    scale; rhs = d*(h0(E(m)) - d) + g counts section pairs modulo the
    automorphisms absorbed by g.  Both sides are exact integers.
    """
    d = bundle_rank(spec)
    rows = []
    for m in m_range:
        try:
            twisted = spec.twist(m)
        except ValueError as exc:
            name = _label(spec.family, spec.n + m, spec.param)
            raise ValueError(f"twist m = {m} gives {name}, outside the family: {exc}") from None
        lhs = h0_p2(det_degree(twisted)) - 1
        rhs = d * (h0_bundle(spec, m) - d) + g
        rows.append(AuditRow(m=m, lhs=lhs, rhs=rhs, holds=lhs <= rhs))
    return rows


def linearity_onset(values: Sequence[int]) -> Optional[int]:
    """First index from which the sequence is exactly linear (by finite
    differences); None when no tail of length >= 3 is linear."""
    n = len(values)
    if n < 3:
        return None
    second = [values[i + 2] - 2 * values[i + 1] + values[i] for i in range(n - 2)]
    onset = len(second)
    while onset > 0 and second[onset - 1] == 0:
        onset -= 1
    return onset if onset <= len(second) - 1 else None


def select_E_d(d: int) -> BundleSpec:
    """The bundle whose pairs of sections cut degree-d curves.

    Even d comes from the N family, odd d from the T family; the defining
    property, checked here, is det_degree == d.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    if d % 2 == 0:
        spec = N(d // 2 - 1)
    else:
        spec = T((d - 3) // 2)
    if det_degree(spec) != d:
        raise CertificateError(f"{spec.label()} cuts degree {det_degree(spec)}, not {d}")
    return spec
