"""Exact graded polynomial arithmetic over the rationals.

One form type, ``HomPoly``, serves two rings:

* the plane: forms in x, y, z of one total degree, an ``int``, keyed by
  exponent triples (a, b, c);
* P1 x P1: bihomogeneous forms in X0, X1, Y0, Y1 of one bidegree, the pair
  (a, b), keyed by exponent quadruples (a0, a1, b0, b1).  ``BigradedPoly``
  is another name for the class.

A form stores what a ``linalg.ExactMatrix`` stores, but sparsely: a
map ``nums`` from monomials to nonzero integer numerators over one positive
denominator ``den``, in lowest terms (gcd(den, *nums) = 1, and den = 1 for
zero), so equal forms have equal stored parts.  A form cannot be changed:
``degree`` and ``den`` are read-only, ``nums`` is a read-only view of the
stored map, and ``terms``, the map to ``Fraction`` coefficients, is built
afresh on each read, so nothing hands out the stored map.  The public
constructor validates every monomial; the ring operations (sums,
differences, negation, products, ``scale``, ``derivative``, ``evaluate``
and ``compose_linear``) compute on the integers and build their results
through the trusted ``HomPoly._of``, which checks nothing and only reduces
by the gcd when den > 1.

The zero form still carries its declared degree so that degree bookkeeping
never degenerates.  ``_ring`` is the one place that tells the rings apart:
from a degree or an exponent tuple it picks the variable names, the monomial
basis and the degree arithmetic.  A sum requires equal degrees, and a
product adds the degrees with the ring's own arithmetic, so mixing a plane
form with a bidegree form raises a ``ValueError`` or ``TypeError`` instead of
giving a result.  ``derivative``, ``evaluate``, ``compose_linear`` and
``divide_exact`` are plane-only and refuse a bidegree form with a
``TypeError``; so does ``detmatrix.PolyMatrix``.

Products and multiplication matrices share one private primitive,
``_shift``: a cached table of the positions of t*m in the degree-D basis, for
a monomial t and a target degree D, with m running over the basis of the
complementary degree.  ``HomPoly.__mul__`` accumulates through it into a
sparse map keyed by position, and ``linalg.module_matrix`` writes each
element's numerators into its matrix's integer array through it.

Text comes in through ``parse_hompoly`` and ``parse_bipoly``, which share
one reader, ``_parse_form``.  It makes one pass: one split of the text at
its signs, then in each term the coefficient regex and the ring's factor
regex, adding each term straight into the term map; the degree is read off
the terms and checked against a declared one.

All coefficient arithmetic is exact (integers inside, ``fractions.Fraction``
at the interfaces); nothing in this package ever touches floating point.
Monomial bases are enumerated in descending lexicographic order on exponent
tuples with x > y > z (resp. X0 > X1 > Y0 > Y1), which fixes the coordinate
order of every coefficient vector in the package.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple, Sequence, Tuple

Mono3 = Tuple[int, int, int]
Mono22 = Tuple[int, int, int, int]
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


class _Ring(NamedTuple):
    names: Tuple[str, ...]
    prefix: str  # "" or "bi": messages say "degree" or "bidegree"
    basis: Callable  # degree -> exponent tuples, descending lex
    grade: Callable  # exponent tuple -> its degree
    add: Callable  # degree + degree
    sub: Callable  # degree - degree


_PLANE = _Ring(("x", "y", "z"), "", mono_basis, sum, operator.add, operator.sub)
_P1P1 = _Ring(
    ("X0", "X1", "Y0", "Y1"),
    "bi",
    lambda d: bimono_basis(*d),
    lambda m: (m[0] + m[1], m[2] + m[3]),
    lambda d, e: (d[0] + e[0], d[1] + e[1]),
    lambda d, e: (d[0] - e[0], d[1] - e[1]),
)


def _ring(key) -> _Ring:
    """The ring of a degree or an exponent tuple: an int degree or a triple
    is the plane's, a pair (a, b) or a quadruple is P1 x P1's."""
    return _PLANE if isinstance(key, int) or len(key) == 3 else _P1P1


def _plane_only(*forms: HomPoly) -> None:
    """Refuse a P1 x P1 form where only plane forms make sense."""
    for form in forms:
        if _ring(form._degree) is not _PLANE:
            raise TypeError(f"a plane form is required, not one of bidegree {form._degree}")


@lru_cache(maxsize=None)
def _mono_index(degree) -> Tuple[tuple, Dict[tuple, int]]:
    """The degree's basis with its monomial -> position table; kept private
    because callers share the cached dict."""
    basis = tuple(_ring(degree).basis(degree))
    return basis, {m: i for i, m in enumerate(basis)}


@lru_cache(maxsize=None)
def _shift(t: tuple, degree) -> Tuple[int, ...]:
    """Positions of t*m in the ``degree`` basis, for m over the basis of
    ``degree`` minus the degree of t (none when that is negative)."""
    ring = _ring(degree)
    index = _mono_index(degree)[1]
    cofactors = _mono_index(ring.sub(degree, ring.grade(t)))[0]
    return tuple(index[tuple(map(operator.add, t, m))] for m in cofactors)


class HomPoly:
    """A form of one fixed degree: an int on the plane, (a, b) on P1 x P1.

    ``nums`` over ``den`` in lowest terms, all read-only; ``nums`` is a view
    of the stored map, and ``terms`` a fresh ``Fraction`` one.
    """

    __slots__ = ("_degree", "_nums", "_den")

    def __init__(self, degree, terms: Dict[tuple, Fraction] | None = None):
        ring = _ring(degree)
        width, grade = len(ring.names), ring.grade
        ratios: Dict[tuple, Tuple[int, int]] = {}
        for mono, coeff in (terms or {}).items():
            if min(mono) < 0:
                raise ValueError(f"negative exponent in {mono}")
            if len(mono) != width or grade(mono) != degree:
                raise ValueError(f"monomial {mono} does not have {ring.prefix}degree {degree}")
            num, den = _rat(coeff).as_integer_ratio()
            if num:
                ratios[mono] = (num, den)
        den = math.lcm(*(d for _, d in ratios.values()))
        self._degree = degree
        self._nums = {m: n * (den // d) for m, (n, d) in ratios.items()}
        self._den = den

    @staticmethod
    def _of(degree, nums: Dict[tuple, int], den: int = 1) -> HomPoly:
        """The trusted constructor of ring operations: ``nums`` are nonzero
        integers on monomials of ``degree`` and den > 0, so nothing is
        checked; a den above 1 is reduced by the gcd to the canonical form.
        The form takes ownership of ``nums``."""
        if den > 1:
            g = math.gcd(den, *nums.values())
            if g > 1:
                nums = {m: c // g for m, c in nums.items()}
                den //= g
        out = object.__new__(HomPoly)
        out._degree, out._nums, out._den = degree, nums, den
        return out

    degree = property(operator.attrgetter("_degree"), doc="An int on the plane, (a, b) on P1 x P1.")
    den = property(operator.attrgetter("_den"), doc="The positive denominator of ``nums``.")

    @property
    def nums(self) -> Mapping[tuple, int]:
        """Monomial -> nonzero integer numerator, read-only."""
        return MappingProxyType(self._nums)

    @property
    def terms(self) -> Dict[tuple, Fraction]:
        """Monomial -> nonzero ``Fraction`` coefficient, built afresh."""
        den = self._den
        return {m: Fraction(c, den) for m, c in self._nums.items()}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(degree) -> HomPoly:
        return HomPoly._of(degree, {})

    @staticmethod
    def monomial(mono: tuple, coeff=1) -> HomPoly:
        return HomPoly(_ring(mono).grade(mono), {mono: _rat(coeff)})

    @staticmethod
    def from_coeff_vector(degree, coeffs: Sequence) -> HomPoly:
        basis, _ = _mono_index(degree)
        if len(coeffs) != len(basis):
            raise ValueError(
                f"need {len(basis)} coefficients for degree {degree}, got {len(coeffs)}"
            )
        return HomPoly(degree, {m: _rat(c) for m, c in zip(basis, coeffs)})

    # -- ring operations ----------------------------------------------

    def _combine(self, other: HomPoly, sign: int) -> HomPoly:
        """self + sign * other, over the lcm of the two denominators."""
        if self._degree != other._degree:
            raise ValueError(
                f"degree mismatch: {self._degree} vs {other._degree}"
            )
        den = math.lcm(self._den, other._den)
        a, b = den // self._den, sign * (den // other._den)
        nums = {m: a * c for m, c in self._nums.items()} if a != 1 else dict(self._nums)
        for mono, c in other._nums.items():
            if mono in nums:
                c = nums[mono] + b * c
                if c:
                    nums[mono] = c
                else:
                    del nums[mono]
            else:
                nums[mono] = b * c
        return HomPoly._of(self._degree, nums, den)

    def __add__(self, other: HomPoly) -> HomPoly:
        return self._combine(other, 1)

    def __sub__(self, other: HomPoly) -> HomPoly:
        return self._combine(other, -1)

    def __neg__(self) -> HomPoly:
        return HomPoly._of(self._degree, {m: -c for m, c in self._nums.items()}, self._den)

    def __mul__(self, other) -> HomPoly:
        if not isinstance(other, HomPoly):
            return self.scale(other)
        degree = _ring(self._degree).add(self._degree, other._degree)
        basis = _mono_index(degree)[0]
        index = _mono_index(other._degree)[1]
        right = [(index[m], c) for m, c in other._nums.items()]
        acc: Dict[int, int] = {}
        for t, c1 in self._nums.items():
            pos = _shift(t, degree)
            for j, c2 in right:
                p = pos[j]
                if p in acc:
                    acc[p] += c1 * c2
                else:
                    acc[p] = c1 * c2
        nums = {basis[p]: c for p, c in acc.items() if c}
        return HomPoly._of(degree, nums, self._den * other._den)

    def __rmul__(self, other) -> HomPoly:
        return self.scale(other)

    def scale(self, scalar) -> HomPoly:
        num, den = _rat(scalar).as_integer_ratio()
        if not num:
            return HomPoly.zero(self._degree)
        return HomPoly._of(self._degree, {m: num * c for m, c in self._nums.items()}, den * self._den)

    def is_zero(self) -> bool:
        return not self._nums

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomPoly):
            return NotImplemented
        # Two zero polynomials of different declared degrees are distinct.
        return self._degree == other._degree and self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self._degree, self._den, frozenset(self._nums.items())))

    # -- coefficient access -------------------------------------------

    def coeff(self, mono: tuple) -> Fraction:
        c = self._nums.get(mono)
        return _ZERO if c is None else Fraction(c, self._den)

    def num_vector(self) -> List[int]:
        """Numerators in the canonical basis order: ``coeff_vector`` times ``den``."""
        _, index = _mono_index(self._degree)
        vec = [0] * len(index)
        for mono, c in self._nums.items():
            vec[index[mono]] = c
        return vec

    def coeff_vector(self) -> Tuple[Fraction, ...]:
        """Coefficients in the canonical basis order of this degree."""
        den = self._den
        return tuple(Fraction(c, den) if c else _ZERO for c in self.num_vector())

    def leading(self) -> Tuple[tuple, Fraction]:
        """Largest monomial in lex order with its coefficient."""
        if not self._nums:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self._nums)
        return mono, Fraction(self._nums[mono], self._den)

    # -- plane-only calculus ------------------------------------------

    def derivative(self, var: int) -> HomPoly:
        """Partial derivative with respect to x (var=0), y (1) or z (2); the
        degree drops by one, so a constant's is the zero form of degree -1."""
        _plane_only(self)
        nums: Dict[Mono3, int] = {}
        for mono, c in self._nums.items():
            e = mono[var]
            if e:
                nums[mono[:var] + (e - 1,) + mono[var + 1 :]] = c * e
        return HomPoly._of(self._degree - 1, nums, self._den)

    def evaluate(self, point: Sequence) -> Fraction:
        """The value at a point; with the point over a common denominator q,
        it is one integer sum over den * q^degree, the form being homogeneous.
        A form with no terms, of negative degree among them, is 0."""
        _plane_only(self)
        (nx, dx), (ny, dy), (nz, dz) = (_rat(v).as_integer_ratio() for v in point)
        if not self._nums:
            return Fraction(0)
        q = math.lcm(dx, dy, dz)
        px, py, pz = nx * (q // dx), ny * (q // dy), nz * (q // dz)
        total = sum(c * px**a * py**b * pz**e for (a, b, e), c in self._nums.items())
        return Fraction(total, self._den * q**self._degree)

    def compose_linear(self, images: Sequence[HomPoly]) -> HomPoly:
        """Substitute x, y, z by three degree-1 polynomials."""
        _plane_only(self)
        ix, iy, iz = images
        for img in (ix, iy, iz):
            if img._degree != 1:
                raise ValueError("substitution images must have degree 1")
        result = HomPoly.zero(self._degree)
        for (a, b, c), coeff in self._nums.items():
            piece = HomPoly._of(0, {(0, 0, 0): coeff})
            for base, exp in ((ix, a), (iy, b), (iz, c)):
                for _ in range(exp):
                    piece = piece * base
            result = result + piece
        return HomPoly._of(self._degree, result._nums, result._den * self._den)

    # -- text ----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self.terms, _ring(self._degree).names)

    def __repr__(self) -> str:
        return f"HomPoly({self._degree}, {str(self)})"


BigradedPoly = HomPoly

# Handy degree-1 generators.
X = HomPoly.monomial((1, 0, 0))
Y = HomPoly.monomial((0, 1, 0))
Z = HomPoly.monomial((0, 0, 1))
X0 = HomPoly.monomial((1, 0, 0, 0))
X1 = HomPoly.monomial((0, 1, 0, 0))
Y0 = HomPoly.monomial((0, 0, 1, 0))
Y1 = HomPoly.monomial((0, 0, 0, 1))


def divide_exact(p: HomPoly, q: HomPoly) -> HomPoly:
    """Quotient p/q of plane forms when q divides p exactly; raises otherwise.

    Standard leading-term division in lex order.  Because lex order is
    multiplicative, every step of an exact division must succeed, so a
    non-dividing leading term is proof that q does not divide p.
    """
    _plane_only(p, q)
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
        coeff = quotient[step] = rc / qc
        term = HomPoly._of(p.degree - q.degree, {step: coeff.numerator}, coeff.denominator)
        rem = rem - term * q
    return HomPoly(p.degree - q.degree, quotient)


# ---------------------------------------------------------------------------
# Text format.  Grammar shared by both flavours:
#   poly   := term (('+' | '-') term)*   with an optional leading sign
#   term   := [rational ['*']] factor*   |  rational,  not ending in '*'
#   factor := variable ['^' positive-int] ['*']
#   rational := integer | integer '/' positive-integer
# Whitespace is insignificant.  Variables are x, y, z or X0, X1, Y0, Y1.
# ``_parse_form`` reads it in one pass: a split at the signs, then in each
# term the coefficient regex once and the factor regex until the term ends.
# ---------------------------------------------------------------------------

_COEFF_RE = re.compile(r"(\d+(?:/\d+)?)(\*?)")


def _digits(q: Fraction) -> str:
    """``str(q)`` for a rational, with no limit on its length: ``Decimal``
    prints an int's digits where ``str`` stops at 4300 of them."""
    num = str(Decimal(q.numerator))
    return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"


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
            body = _digits(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_digits(mag)] + factors)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append((" + " if coeff > 0 else " - ") + body)
    return "".join(pieces)


def _shown(text: str) -> str:
    """``repr(text)``, cut to its first 40 characters."""
    return repr(text) if len(text) <= 40 else repr(text[:40]) + "..."


def parse_integer(text: str, invalid: str, echo: str | None = None) -> int:
    """``int(text)``, or a ValueError: ``invalid`` followed by ``echo`` (``text``
    by default), shown cut to 40 characters.  An integer past the
    interpreter's int-string limit is not parsed, and its message names the
    limit."""
    try:
        return int(text)
    except ValueError:
        pass
    shown = _shown(text if echo is None else echo)
    if re.fullmatch(r"\s*[+-]?\d+\s*", text, re.ASCII):
        shown += f" (integers are limited to {sys.get_int_max_str_digits()} digits)"
    raise ValueError(invalid + shown)


def _too_long(body: str) -> ParseError:
    """The error for a term holding an integer with more digits than the
    interpreter converts; the term is shown cut short, as it is that long."""
    return ParseError(f"number with too many digits in term {_shown(body)}")


def _pairwise_sum(values: List[Fraction]) -> Fraction:
    """The sum of ``values``, added pairwise as a balanced tree.  A rational
    running total's denominator grows with every distinct denominator it
    takes in, so adding terms one by one costs quadratic time."""
    while len(values) > 1:
        values = [a + b for a, b in zip(values[::2], values[1::2])] + values[len(values) & ~1:]
    return values[0]


def _parse_form(text: str, ring: _Ring, degree) -> HomPoly:
    """Parse a form of ``ring`` in one pass, inferring its degree from the
    terms; a declared degree is checked, and is required for the literal zero."""
    cleaned = re.sub(r"\s+", "", text).replace("−", "-")
    if not cleaned:
        raise ParseError("empty polynomial text")
    names = ring.names  # tried longest first, so X0 wins over a lone X
    factor_re = re.compile(f"({'|'.join(sorted(names, key=len, reverse=True))})(\\^(\\d*))?(\\*?)")
    pieces = re.split(r"([+-])", cleaned)
    pieces = ["+"] + pieces if pieces[0] else pieces[1:]  # an unsigned first term is positive
    seen = set()
    terms: Dict[tuple, List[Fraction]] = {}
    for sign, body in zip(pieces[::2], pieces[1::2]):
        if not body:
            raise ParseError(f"empty term in {text!r}")
        coeff, star, pos = Fraction(1), "", 0
        m = _COEFF_RE.match(body)
        if m:
            try:
                coeff = Fraction(m[1])
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in term {body!r}") from None
            except ValueError:  # the interpreter's limit on digits in an int
                raise _too_long(body) from None
            star, pos = m[2], m.end()
        expo = [0] * len(names)
        while pos < len(body):
            m = factor_re.match(body, pos)
            if not m:
                raise ParseError(f"unexpected {body[pos:]!r} in term {body!r}")
            power = 1
            if m[2]:
                if not m[3]:
                    raise ParseError(f"malformed exponent in term {body!r}")
                try:
                    power = int(m[3])
                except ValueError:
                    raise _too_long(body) from None
                if power < 1:
                    raise ParseError(f"exponent must be positive in term {body!r}")
            expo[names.index(m[1])] += power
            star, pos = m[4], m.end()
        if star:
            raise ParseError(f"trailing '*' in term {body!r}")
        mono = tuple(expo)
        if coeff or any(mono):  # a bare 0 constrains nothing
            seen.add(ring.grade(mono))
            terms.setdefault(mono, []).append(coeff if sign == "+" else -coeff)
    noun = f"{ring.prefix}degree"
    if len(seen) > 1:
        raise ParseError(
            f"not {ring.prefix}homogeneous: {text!r} mixes "
            f"{noun} {min(seen)} and {noun} {max(seen)} terms"
        )
    if seen:
        inferred = seen.pop()
        if degree is not None and degree != inferred:
            raise ParseError(f"declared {noun} {degree} but terms have {noun} {inferred}")
        return HomPoly(inferred, {mono: _pairwise_sum(parts) for mono, parts in terms.items()})
    if degree is None:
        raise ParseError(f"zero polynomial needs a declared {noun}")
    return HomPoly.zero(degree)


def parse_hompoly(text: str, degree: int | None = None) -> HomPoly:
    """Parse a homogeneous polynomial in x, y, z.

    A declared degree is required only when the degree cannot be read off the
    terms (the literal zero polynomial); otherwise it is checked.  Terms of
    different degrees are rejected naming the lowest and the highest degree.
    """
    return _parse_form(text, _PLANE, degree)


def parse_bipoly(text: str, bidegree: Tuple[int, int] | None = None) -> HomPoly:
    """Parse a bihomogeneous polynomial in X0, X1, Y0, Y1, by the same rules."""
    return _parse_form(text, _P1P1, None if bidegree is None else tuple(bidegree))
