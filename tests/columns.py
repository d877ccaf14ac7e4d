"""Reference multiplication columns for differential tests of
``linalg.multiplication_matrix``.

``multiple_columns`` writes each column m*g as a list of ``Fraction``s, one
column at a time; the library builds the same matrix as integer rows.
"""

from fractions import Fraction
from typing import Iterable, List

from detrep.polynomials import HomPoly, _mono_index, _ring, _shift

_ZERO = Fraction(0)


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
