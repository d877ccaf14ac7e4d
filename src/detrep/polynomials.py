"""Exact homogeneous polynomial arithmetic over the rationals.

Two flavours live here:

* ``HomPoly`` -- homogeneous polynomials in x, y, z of a fixed total degree,
  stored as a sparse map from exponent triples (a, b, c) to ``Fraction``
  coefficients.  The zero polynomial still carries a declared degree so that
  degree bookkeeping never degenerates.
* ``BigradedPoly`` -- bihomogeneous polynomials in X0, X1, Y0, Y1 of a fixed
  bidegree (a, b), stored as a sparse map from exponent quadruples
  (a0, a1, b0, b1).

All coefficient arithmetic is exact (``fractions.Fraction``); nothing in this
package ever touches floating point.  Monomial bases are enumerated in
descending lexicographic order on exponent tuples with x > y > z (resp.
X0 > X1 > Y0 > Y1), which fixes the coordinate order of every coefficient
vector in the package.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

Mono3 = Tuple[int, int, int]
Mono22 = Tuple[int, int, int, int]
Rat = Fraction
_ZERO = Fraction(0)


class ParseError(ValueError):
    """Raised when polynomial text does not match the input grammar."""


def _rat(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def mono_basis(d: int) -> List[Mono3]:
    """All exponent triples of total degree d, largest first in lex order.

    Degree 1 gives [x, y, z]; degree 2 gives [x^2, xy, xz, y^2, yz, z^2].
    A negative degree has no monomials at all.
    """
    if d < 0:
        return []
    out: List[Mono3] = []
    for a in range(d, -1, -1):
        for b in range(d - a, -1, -1):
            out.append((a, b, d - a - b))
    return out


@lru_cache(maxsize=None)
def _mono_index(d: int) -> Tuple[Tuple[Mono3, ...], Dict[Mono3, int]]:
    """The degree-d basis with its monomial -> position table; kept private
    because callers share the cached dict."""
    basis = tuple(mono_basis(d))
    return basis, {m: i for i, m in enumerate(basis)}


def multiple_columns(generators: Iterable[HomPoly], degree: int) -> List[List[Fraction]]:
    """Coefficient columns of m*g for every generator g and every monomial m
    of degree ``degree - g.degree``.

    Columns are generator-major, with m in ``mono_basis`` order inside each
    generator; each is ``(HomPoly.monomial(m) * g).coeff_vector()`` in the
    degree-``degree`` basis, written term by term through the index table
    without building a product.  A zero generator gives zero columns, and a
    generator of degree above ``degree`` gives none.
    """
    _, index = _mono_index(degree)
    width = len(index)
    columns: List[List[Fraction]] = []
    for gen in generators:
        terms = list(gen.terms.items())
        for a, b, c in _mono_index(degree - gen.degree)[0]:
            col = [_ZERO] * width
            for (ta, tb, tc), coeff in terms:
                col[index[(a + ta, b + tb, c + tc)]] = coeff
            columns.append(col)
    return columns


def bimono_basis(a: int, b: int) -> List[Mono22]:
    """Exponent quadruples of bidegree (a, b), descending lex.

    Bidegree (1, 1) gives [X0*Y0, X0*Y1, X1*Y0, X1*Y1].
    """
    if a < 0 or b < 0:
        return []
    out: List[Mono22] = []
    for a0 in range(a, -1, -1):
        for b0 in range(b, -1, -1):
            out.append((a0, a - a0, b0, b - b0))
    return out


def h0_p2(d: int) -> int:
    """Dimension of the space of degree-d forms in three variables."""
    if d < 0:
        return 0
    return (d + 1) * (d + 2) // 2


class HomPoly:
    """A homogeneous polynomial in x, y, z of one fixed total degree."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: Dict[Mono3, Fraction] | None = None):
        clean: Dict[Mono3, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            a, b, c = mono
            if a < 0 or b < 0 or c < 0:
                raise ValueError(f"negative exponent in {mono}")
            if a + b + c != degree:
                raise ValueError(f"monomial {mono} does not have degree {degree}")
            coeff = _rat(coeff)
            if coeff != 0:
                clean[mono] = clean.get(mono, Fraction(0)) + coeff
                if clean[mono] == 0:
                    del clean[mono]
        self.degree = degree
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(degree: int) -> HomPoly:
        return HomPoly(degree, {})

    @staticmethod
    def monomial(mono: Mono3, coeff=1) -> HomPoly:
        return HomPoly(sum(mono), {mono: _rat(coeff)})

    @staticmethod
    def from_coeff_vector(degree: int, coeffs: Sequence) -> HomPoly:
        basis, _ = _mono_index(degree)
        if len(coeffs) != len(basis):
            raise ValueError(
                f"need {len(basis)} coefficients for degree {degree}, got {len(coeffs)}"
            )
        return HomPoly(degree, {m: _rat(c) for m, c in zip(basis, coeffs)})

    # -- ring operations ----------------------------------------------

    def _require_same_degree(self, other: HomPoly) -> None:
        if self.degree != other.degree:
            raise ValueError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )

    def __add__(self, other: HomPoly) -> HomPoly:
        self._require_same_degree(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        return HomPoly(self.degree, terms)

    def __sub__(self, other: HomPoly) -> HomPoly:
        return self + (-other)

    def __neg__(self) -> HomPoly:
        return HomPoly(self.degree, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> HomPoly:
        if isinstance(other, HomPoly):
            terms: Dict[Mono3, Fraction] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                    terms[m] = terms.get(m, Fraction(0)) + c1 * c2
            return HomPoly(self.degree + other.degree, terms)
        return self.scale(other)

    def __rmul__(self, other) -> HomPoly:
        return self.scale(other)

    def scale(self, scalar) -> HomPoly:
        s = _rat(scalar)
        return HomPoly(self.degree, {m: s * c for m, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomPoly):
            return NotImplemented
        # Two zero polynomials of different declared degrees are distinct.
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    # -- coefficient access -------------------------------------------

    def coeff(self, mono: Mono3) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def coeff_vector(self) -> Tuple[Fraction, ...]:
        """Coefficients in the canonical mono_basis order of this degree."""
        _, index = _mono_index(self.degree)
        vec = [_ZERO] * len(index)
        for mono, coeff in self.terms.items():
            vec[index[mono]] = coeff
        return tuple(vec)

    def leading(self) -> Tuple[Mono3, Fraction]:
        """Largest monomial in lex order with its coefficient."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms)
        return mono, self.terms[mono]

    # -- calculus-flavoured helpers -----------------------------------

    def derivative(self, var: int) -> HomPoly:
        """Partial derivative with respect to x (var=0), y (1) or z (2)."""
        if self.degree == 0:
            return HomPoly.zero(0)
        terms: Dict[Mono3, Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono[var]
            if e == 0:
                continue
            lowered = list(mono)
            lowered[var] = e - 1
            m = (lowered[0], lowered[1], lowered[2])
            terms[m] = terms.get(m, Fraction(0)) + coeff * e
        return HomPoly(self.degree - 1, terms)

    def evaluate(self, point: Sequence) -> Fraction:
        px, py, pz = (_rat(v) for v in point)
        total = Fraction(0)
        for (a, b, c), coeff in self.terms.items():
            total += coeff * px**a * py**b * pz**c
        return total

    def compose_linear(self, images: Sequence[HomPoly]) -> HomPoly:
        """Substitute x, y, z by three degree-1 polynomials."""
        ix, iy, iz = images
        for img in (ix, iy, iz):
            if img.degree != 1:
                raise ValueError("substitution images must have degree 1")
        result = HomPoly.zero(self.degree)
        for (a, b, c), coeff in self.terms.items():
            piece = HomPoly(0, {(0, 0, 0): coeff})
            for base, exp in ((ix, a), (iy, b), (iz, c)):
                for _ in range(exp):
                    piece = piece * base
            result = result + piece
        return result

    # -- text ----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self.terms, ("x", "y", "z"))

    def __repr__(self) -> str:
        return f"HomPoly({self.degree}, {str(self)})"


class BigradedPoly:
    """A bihomogeneous polynomial in X0, X1, Y0, Y1 of fixed bidegree."""

    __slots__ = ("bidegree", "terms")

    def __init__(self, bidegree: Tuple[int, int], terms: Dict[Mono22, Fraction] | None = None):
        a, b = bidegree
        clean: Dict[Mono22, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            if mono[0] + mono[1] != a or mono[2] + mono[3] != b:
                raise ValueError(f"monomial {mono} does not have bidegree {bidegree}")
            coeff = _rat(coeff)
            if coeff != 0:
                clean[mono] = clean.get(mono, Fraction(0)) + coeff
                if clean[mono] == 0:
                    del clean[mono]
        self.bidegree = (a, b)
        self.terms = clean

    @staticmethod
    def zero(bidegree: Tuple[int, int]) -> BigradedPoly:
        return BigradedPoly(bidegree, {})

    @staticmethod
    def monomial(mono: Mono22, coeff=1) -> BigradedPoly:
        return BigradedPoly((mono[0] + mono[1], mono[2] + mono[3]), {mono: _rat(coeff)})

    def _require_same_bidegree(self, other: BigradedPoly) -> None:
        if self.bidegree != other.bidegree:
            raise ValueError(
                f"bidegree mismatch: {self.bidegree} vs {other.bidegree}"
            )

    def __add__(self, other: BigradedPoly) -> BigradedPoly:
        self._require_same_bidegree(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        return BigradedPoly(self.bidegree, terms)

    def __sub__(self, other: BigradedPoly) -> BigradedPoly:
        return self + (-other)

    def __neg__(self) -> BigradedPoly:
        return BigradedPoly(self.bidegree, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> BigradedPoly:
        if isinstance(other, BigradedPoly):
            a = self.bidegree[0] + other.bidegree[0]
            b = self.bidegree[1] + other.bidegree[1]
            terms: Dict[Mono22, Fraction] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                    terms[m] = terms.get(m, Fraction(0)) + c1 * c2
            return BigradedPoly((a, b), terms)
        return self.scale(other)

    def __rmul__(self, other) -> BigradedPoly:
        return self.scale(other)

    def scale(self, scalar) -> BigradedPoly:
        s = _rat(scalar)
        return BigradedPoly(self.bidegree, {m: s * c for m, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, BigradedPoly):
            return NotImplemented
        return self.bidegree == other.bidegree and self.terms == other.terms

    def __hash__(self):
        return hash((self.bidegree, frozenset(self.terms.items())))

    def coeff(self, mono: Mono22) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def coeff_vector(self) -> Tuple[Fraction, ...]:
        return tuple(
            self.terms.get(m, Fraction(0)) for m in bimono_basis(*self.bidegree)
        )

    def __str__(self) -> str:
        return format_poly(self.terms, ("X0", "X1", "Y0", "Y1"))

    def __repr__(self) -> str:
        return f"BigradedPoly({self.bidegree}, {str(self)})"


# Handy degree-1 generators; immutable by convention.
X = HomPoly.monomial((1, 0, 0))
Y = HomPoly.monomial((0, 1, 0))
Z = HomPoly.monomial((0, 0, 1))
X0 = BigradedPoly.monomial((1, 0, 0, 0))
X1 = BigradedPoly.monomial((0, 1, 0, 0))
Y0 = BigradedPoly.monomial((0, 0, 1, 0))
Y1 = BigradedPoly.monomial((0, 0, 0, 1))


def divide_exact(p: HomPoly, q: HomPoly) -> HomPoly:
    """Quotient p/q when q divides p exactly; raises otherwise.

    Standard leading-term division in lex order.  Because lex order is
    multiplicative, every step of an exact division must succeed, so a
    non-dividing leading term is proof that q does not divide p.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return HomPoly.zero(p.degree - q.degree)
    if p.degree < q.degree:
        raise ValueError("not divisible: quotient would have negative degree")
    qm, qc = q.leading()
    quotient: Dict[Mono3, Fraction] = {}
    rem = p
    while not rem.is_zero():
        rm, rc = rem.leading()
        step = (rm[0] - qm[0], rm[1] - qm[1], rm[2] - qm[2])
        if min(step) < 0:
            raise ValueError(f"not divisible: {q} does not divide {p}")
        coeff = rc / qc
        quotient[step] = coeff
        rem = rem - HomPoly.monomial(step, coeff) * q
    return HomPoly(p.degree - q.degree, quotient)


# ---------------------------------------------------------------------------
# Text format.  Grammar shared by both flavours:
#   poly   := term (('+' | '-') term)*   with an optional leading sign
#   term   := [rational ['*']] factor*   |  rational
#   factor := variable ['^' positive-int]  with optional '*' separators
#   rational := integer | integer '/' positive-integer
# Whitespace is insignificant.  Variables are x, y, z or X0, X1, Y0, Y1.
# ---------------------------------------------------------------------------

_COEFF_RE = re.compile(r"^(\d+(?:/\d+)?)")


def format_poly(terms: Dict, names: Tuple[str, ...]) -> str:
    if not terms:
        return "0"
    pieces: List[str] = []
    for mono in sorted(terms, reverse=True):
        coeff = terms[mono]
        factors = []
        for name, exp in zip(names, mono):
            if exp == 1:
                factors.append(name)
            elif exp > 1:
                factors.append(f"{name}^{exp}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append((" + " if coeff > 0 else " - ") + body)
    return "".join(pieces)


def _parse_terms(text: str, names: Tuple[str, ...]):
    """Split grammar text into (coefficient, exponent-tuple, has_vars) triples."""
    cleaned = re.sub(r"\s+", "", text).replace("−", "-")
    if not cleaned:
        raise ParseError("empty polynomial text")
    # Longest variable names first so X0 wins over a lone X.
    ordered = sorted(names, key=len, reverse=True)
    var_re = re.compile("|".join(re.escape(n) for n in ordered))
    chunks: List[Tuple[int, str]] = []
    sign, start = 1, 0
    if cleaned[0] in "+-":
        sign = -1 if cleaned[0] == "-" else 1
        start = 1
    cur = []
    for ch in cleaned[start:]:
        if ch in "+-":
            chunks.append((sign, "".join(cur)))
            sign = -1 if ch == "-" else 1
            cur = []
        else:
            cur.append(ch)
    chunks.append((sign, "".join(cur)))

    out = []
    for sgn, body in chunks:
        if not body:
            raise ParseError(f"empty term in {text!r}")
        coeff = Fraction(1)
        m = _COEFF_RE.match(body)
        pos = 0
        if m:
            try:
                coeff = Fraction(m.group(1))
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in term {body!r}") from None
            pos = m.end()
            if pos < len(body) and body[pos] == "*":
                pos += 1
                if pos == len(body):
                    raise ParseError(f"trailing '*' in term {body!r}")
        expo = [0] * len(names)
        has_vars = False
        while pos < len(body):
            vm = var_re.match(body, pos)
            if not vm:
                raise ParseError(f"unexpected {body[pos:]!r} in term {body!r}")
            idx = names.index(vm.group(0))
            pos = vm.end()
            power = 1
            if pos < len(body) and body[pos] == "^":
                pm = re.match(r"\^(\d+)", body[pos:])
                if not pm:
                    raise ParseError(f"malformed exponent in term {body!r}")
                power = int(pm.group(1))
                if power < 1:
                    raise ParseError(f"exponent must be positive in term {body!r}")
                pos += pm.end()
            has_vars = True
            expo[idx] += power
            if pos < len(body) and body[pos] == "*":
                pos += 1
                if pos == len(body):
                    raise ParseError(f"trailing '*' in term {body!r}")
        out.append((sgn * coeff, tuple(expo), has_vars))
    return out


def parse_hompoly(text: str, degree: int | None = None) -> HomPoly:
    """Parse a homogeneous polynomial in x, y, z.

    A declared degree is required only when the degree cannot be read off the
    terms (the literal zero polynomial); otherwise it is checked.  Terms of
    different degrees are rejected naming both offending degrees.
    """
    parsed = _parse_terms(text, ("x", "y", "z"))
    seen: Dict[int, Mono3] = {}
    terms: Dict[Mono3, Fraction] = {}
    for coeff, mono, has_vars in parsed:
        if coeff == 0 and not has_vars:
            continue  # a bare 0 constrains nothing
        d = sum(mono)
        seen.setdefault(d, mono)
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    if len(seen) > 1:
        lo, hi = min(seen), max(seen)
        raise ParseError(
            f"not homogeneous: {text!r} mixes degree {lo} and degree {hi} terms"
        )
    if seen:
        inferred = next(iter(seen))
        if degree is not None and degree != inferred:
            raise ParseError(
                f"declared degree {degree} but terms have degree {inferred}"
            )
        return HomPoly(inferred, terms)
    if degree is None:
        raise ParseError("zero polynomial needs a declared degree")
    return HomPoly.zero(degree)


def parse_bipoly(text: str, bidegree: Tuple[int, int] | None = None) -> BigradedPoly:
    """Parse a bihomogeneous polynomial in X0, X1, Y0, Y1."""
    parsed = _parse_terms(text, ("X0", "X1", "Y0", "Y1"))
    seen: Dict[Tuple[int, int], Mono22] = {}
    terms: Dict[Mono22, Fraction] = {}
    for coeff, mono, has_vars in parsed:
        if coeff == 0 and not has_vars:
            continue
        bd = (mono[0] + mono[1], mono[2] + mono[3])
        seen.setdefault(bd, mono)
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    if len(seen) > 1:
        pair = sorted(seen)[:2]
        raise ParseError(
            f"not bihomogeneous: {text!r} mixes bidegree {pair[0]} and bidegree {pair[1]} terms"
        )
    if seen:
        inferred = next(iter(seen))
        if bidegree is not None and tuple(bidegree) != inferred:
            raise ParseError(
                f"declared bidegree {tuple(bidegree)} but terms have bidegree {inferred}"
            )
        return BigradedPoly(inferred, terms)
    if bidegree is None:
        raise ParseError("zero polynomial needs a declared bidegree")
    return BigradedPoly.zero(tuple(bidegree))
