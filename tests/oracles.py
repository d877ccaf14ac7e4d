"""Independent reference engines that the tests compare the package against.

Each one computes something the package also computes, by a different and
plainer method, and is used only by the tests:

* ``det_cofactor`` and ``det_eliminate``: polynomial determinants by cofactor
  expansion and by fraction-free elimination over the polynomial ring, the
  oracles of ``detmatrix.det_poly`` (criterion 10);
* ``tangent_column``: a tangent-map column as one polynomial determinant,
  the oracle of the columns ``tangent.tangent_map`` takes from the cofactor
  forms (criterion 05);
* ``gpli_sample_check``: a point where the degeneracy matrix, evaluated,
  has full rank, searched at random; it witnesses independence, the oracle
  of ``detmatrix.is_gpli`` on pairs whose wedge is nonzero;
* ``multiple_columns``: multiplication columns as ``Fraction`` lists, one
  column at a time, the oracle of ``linalg.multiplication_matrix``;
* ``times`` and ``left_times``: dense rational matrix products on a matrix's
  public ``entries``, independent of the integer rows that the package's own
  certificate re-checks use;
* ``bundle_closed_forms`` and ``summand_closed_forms``: each family's rank,
  determinant degree, section count and summand degrees as hand-derived
  closed forms, the oracle of the values ``bundles`` reads off its table of
  defining sequences;
* ``terms_sum``, ``terms_scale``, ``terms_product``, ``terms_derivative``,
  ``terms_evaluate`` and ``terms_compose``: form arithmetic on plain
  ``Fraction`` term maps (exponent tuple -> nonzero coefficient), the oracle
  of ``HomPoly``'s ring operations on integer numerators.
"""

import random
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from detrep.detmatrix import Section, degeneracy_matrix, wedge_curve
from detrep.linalg import ExactMatrix, rank
from detrep.polynomials import HomPoly, _mono_index, _ring, _shift, divide_exact, h0_p2

_ZERO = Fraction(0)


def det_cofactor(entries, expected_degree: int) -> HomPoly:
    """Cofactor expansion along the first row."""
    n = len(entries)
    if n == 1:
        return entries[0][0]
    acc = HomPoly.zero(expected_degree)
    for j, top in enumerate(entries[0]):
        if top.is_zero():
            continue
        minor = [
            [entries[i][jj] for jj in range(n) if jj != j] for i in range(1, n)
        ]
        sub = det_cofactor(minor, expected_degree - top.degree)
        term = top * sub
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def det_eliminate(entries, expected_degree: int) -> HomPoly:
    """Fraction-free elimination over the polynomial ring.

    Every division is exact by the Bareiss identity (entries stay minors of
    the original matrix), which the degree pattern guarantees is degree-safe.
    """
    n = len(entries)
    work = [list(row) for row in entries]
    sign = 1
    prev = HomPoly.monomial((0, 0, 0), 1)
    for k in range(n - 1):
        piv_row = None
        for i in range(k, n):
            if not work[i][k].is_zero():
                piv_row = i
                break
        if piv_row is None:
            return HomPoly.zero(expected_degree)
        if piv_row != k:
            work[k], work[piv_row] = work[piv_row], work[k]
            sign = -sign
        piv = work[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = piv * work[i][j] - work[i][k] * work[k][j]
                work[i][j] = divide_exact(num, prev)
        prev = piv
    result = work[n - 1][n - 1]
    return result if sign == 1 else -result


def tangent_column(v1: Section, v2: Section, lift: Section, slot: int) -> HomPoly:
    """Value of the derivative on phi: v_slot -> lift (zero on the other),
    by one polynomial determinant."""
    if slot == 1:
        return -wedge_curve(v2, lift)
    if slot == 2:
        return wedge_curve(v1, lift)
    raise ValueError("slot must be 1 or 2")


def gpli_sample_check(
    sections: Sequence[Section], rng: random.Random, trials: int = 40
) -> Optional[Tuple[Fraction, Fraction, Fraction]]:
    """Search for a point witnessing pointwise independence of the sections.

    Evaluates the degeneracy matrix at random integer points and tests it for
    full rank.  A returned point is a proof of independence there (hence of
    the generic verdict); None proves nothing and is only used to cross-check
    the polynomial test on known-degenerate inputs.
    """
    M = degeneracy_matrix(sections)
    for _ in range(trials):
        point = tuple(Fraction(rng.randint(-20, 20)) for _ in range(3))
        if all(c == 0 for c in point):
            continue
        numeric = ExactMatrix([[e.evaluate(point) for e in row] for row in M.entries])
        if rank(numeric) == M.size:
            return point
    return None


def multiple_columns(generators: Iterable[HomPoly], degree) -> List[List[Fraction]]:
    """Coefficient columns of m*g for every generator g and every monomial m
    of degree ``degree - g.degree``.

    Columns are generator-major, with m in basis order inside each generator;
    each is ``(HomPoly.monomial(m) * g).coeff_vector()`` in the
    degree-``degree`` basis, written term by term through the shift table
    without building a product.  A zero generator gives zero columns, and a
    generator of degree above ``degree`` gives none.
    """
    width = len(_mono_index(degree)[0])
    sub = _ring(degree).sub
    columns: List[List[Fraction]] = []
    for gen in generators:
        block = [[_ZERO] * width for _ in _mono_index(sub(degree, gen.degree))[0]]
        for t, coeff in gen.terms.items():
            for col, pos in zip(block, _shift(t, degree)):
                col[pos] = coeff
        columns.extend(block)
    return columns


def times(M, v):
    """The column vector M @ v."""
    assert len(v) == M.cols
    return tuple(sum((e * x for e, x in zip(row, v)), Fraction(0)) for row in M.entries)


def left_times(w, M):
    """The row vector w @ M."""
    assert len(w) == M.rows
    rows = M.entries
    return tuple(sum((wi * row[j] for wi, row in zip(w, rows)), Fraction(0)) for j in range(M.cols))


def bundle_closed_forms(spec, t: int = 0):
    """Rank, determinant degree and h0 at twist t of ``spec``, keyed by the
    ``bundles`` function that computes each, one closed form per family."""
    n, p = spec.n, spec.param
    if spec.family == "N":
        return dict(
            bundle_rank=2,
            det_degree=2 * n + 2,
            h0_bundle=2 * h0_p2(n + t) + h0_p2(n + t + 1) - h0_p2(n + t - 1),
        )
    if spec.family == "T":
        return dict(
            bundle_rank=2,
            det_degree=2 * n + 3,
            h0_bundle=3 * h0_p2(n + t + 1) - h0_p2(n + t),
        )
    if spec.family == "M":
        return dict(
            bundle_rank=h0_p2(p) - 1,
            det_degree=(h0_p2(p) - 1) * n + p,
            h0_bundle=h0_p2(p) * h0_p2(n + t) - h0_p2(n + t - p),
        )
    return dict(
        bundle_rank=p,
        det_degree=p * n + 2,
        h0_bundle=(p + 2) * h0_p2(n + t) - 2 * h0_p2(n + t - 1),
    )


def summand_closed_forms(spec):
    """Degrees of the ambient summands and of the relation sources of
    ``spec``, keyed like ``bundle_closed_forms``."""
    n, p = spec.n, spec.param
    if spec.family == "N":
        ambient, sources = (n, n, n + 1), (n - 1,)
    elif spec.family == "T":
        ambient, sources = (n + 1, n + 1, n + 1), (n,)
    elif spec.family == "M":
        ambient, sources = (n,) * h0_p2(p), (n - p,)
    else:
        ambient, sources = (n,) * (p + 2), (n - 1, n - 1)
    return dict(ambient_degrees=ambient, relation_source_degrees=sources)


def terms_sum(p, q, sign=1):
    """The term map of p + sign * q."""
    out = dict(p)
    for mono, c in q.items():
        out[mono] = out.get(mono, _ZERO) + sign * c
    return {mono: c for mono, c in out.items() if c}


def terms_scale(p, scalar):
    """The term map of scalar * p."""
    return {mono: scalar * c for mono, c in p.items() if scalar * c}


def terms_product(p, q):
    """The term map of p * q, adding exponent tuples pairwise."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            out[mono] = out.get(mono, _ZERO) + c1 * c2
    return {mono: c for mono, c in out.items() if c}


def terms_derivative(p, var):
    """The term map of the partial derivative by variable ``var``."""
    out = {}
    for mono, c in p.items():
        e = mono[var]
        if e:
            out[mono[:var] + (e - 1,) + mono[var + 1 :]] = c * e
    return out


def terms_evaluate(p, point):
    """The value of p at ``point``, term by term."""
    total = _ZERO
    for mono, c in p.items():
        for value, e in zip(point, mono):
            c *= Fraction(value) ** e
        total += c
    return total


def terms_compose(p, images):
    """The term map of p with its variables replaced by the term maps
    ``images``, expanding each monomial as a product of images."""
    out = {}
    for mono, c in p.items():
        piece = {(0,) * len(mono): c}
        for image, e in zip(images, mono):
            for _ in range(e):
                piece = terms_product(piece, image)
        out = terms_sum(out, piece)
    return out
