"""Dense rational matrix products for checking certificates in tests.

They read only a matrix's public ``entries``, so they are independent of
the integer rows that the library's own re-checks use.
"""

from fractions import Fraction


def times(M, v):
    """The column vector M @ v."""
    assert len(v) == M.cols
    return tuple(sum((e * x for e, x in zip(row, v)), Fraction(0)) for row in M.entries)


def left_times(w, M):
    """The row vector w @ M."""
    assert len(w) == M.rows
    rows = M.entries
    return tuple(sum((wi * row[j] for wi, row in zip(w, rows)), Fraction(0)) for j in range(M.cols))
