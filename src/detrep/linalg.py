"""Exact linear algebra over the rationals with verifiable verdicts.

Everything here returns exact answers, from one elimination core:
fraction-free (Bareiss) elimination over the integers (``_bareiss_echelon``)
and back-substitution on its echelon form.  ``_solve`` back-substitutes one
column: a preimage, a cokernel functional solved on the transposed rows, or
a free column on the pivot columns left of it, which ``kernel_basis`` negates
and ``rref`` writes into its pivot rows (its one library caller is the 3x3
frame inverse of ``detmatrix.column_reduce_normalize``).  Section spaces
and their quotients read pivot columns off ``_bareiss_echelon`` directly,
since those depend only on the row span.  An ``ExactMatrix`` clears its
rows of denominators once, at construction, and stores them in the integer
form the core reads.  Pivoting is deterministic (first nonzero entry in
column order), so identical inputs give bit-identical outputs.  The
elimination leaves a row alone while its entry in the pivot column is zero
and divides its next update by the pivot that divided its last one (a lazy
divisor, exact by telescoping), so the sparse relation and multiplication
matrices cost only the updates they need.

Multiplication matrices, whose columns are the products m*g of generators g
with monomials m, come from one builder, ``multiplication_matrix``.  It
reads each generator's integer numerators and writes the stored integer rows
straight through the shift table of ``polynomials``; no ``Fraction`` is built
on the way.

``rank`` carries one internal shortcut: the matrix is first eliminated modulo
the prime 2^31 - 1.  A full-rank outcome there exhibits a nonzero minor mod p,
and an integer minor that is nonzero mod p is nonzero, so that verdict is
already exact.  Any deficient outcome is recomputed by integer Bareiss, which
is the sole authority for deficient ranks.  The sweep reduces the whole
matrix mod p in one int64 numpy call, and reduces entry by entry in Python
only when some entry needs more than 63 bits (numpy's ``OverflowError``).  At
each pivot it updates only the rows below whose pivot-column entry is
nonzero; the dense update would leave the others unchanged.

Membership and surjectivity verdicts come with certificates (a preimage or a
cokernel functional) that are re-verified against the original matrix before
being returned, and so are kernel vectors.  Every re-check is one integer
product with the stored cleared rows (``_annihilates``).  A failed re-check
raises ``CertificateError``, which ``python -O`` does not strip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .polynomials import HomPoly, _mono_index, _rat, _ring, _shift

Vector = Tuple[Fraction, ...]

_FAST_PRIME = 2**31 - 1
# Tests may flip this to exercise the pure-Bareiss path.
USE_MODP_FAST_PATH = True
_ZERO = Fraction(0)


class CertificateError(Exception):
    """A certificate or internal invariant failed its exact re-check.

    This is a defect of the program, never of its input, so it is not a
    ``ValueError``.
    """


class ExactMatrix:
    """Immutable dense rational matrix, stored as the elimination core reads it.

    Row i is ``ints[i] / dens[i]``: integer entries over one positive
    denominator, the lcm of the row's entry denominators.  Rows are cleared
    once, at construction; the form is canonical, so equal matrices have
    equal stored rows.  ``entries`` is the read-only Fraction view.
    """

    __slots__ = ("_rows", "_cols", "_ints", "_dens")

    def __init__(self, entries: Sequence[Sequence]):
        cleared = [_clear(row) for row in entries]
        cols = len(cleared[0][0]) if cleared else 0
        self._store(cols, [row for row, _ in cleared], [den for _, den in cleared])

    def _store(self, cols: int, ints: Sequence[Tuple[int, ...]], dens: Sequence[int]) -> None:
        if any(len(row) != cols for row in ints):
            raise ValueError("ragged rows")
        self._rows, self._cols, self._ints, self._dens = len(ints), cols, tuple(ints), tuple(dens)

    rows = property(attrgetter("_rows"))
    cols = property(attrgetter("_cols"))
    ints = property(attrgetter("_ints"), doc="Row i's integer entries, the row times ``dens[i]``.")
    dens = property(attrgetter("_dens"), doc="Row i's positive denominator.")

    @staticmethod
    def _of(cols: int, ints: Sequence[Tuple[int, ...]], dens: Sequence[int]) -> ExactMatrix:
        """A matrix from rows already in stored form; ``cols`` is kept even
        when there are no rows."""
        out = ExactMatrix.__new__(ExactMatrix)
        out._store(cols, ints, dens)
        return out

    @property
    def entries(self) -> Tuple[Vector, ...]:
        return tuple(tuple(Fraction(e, den) for e in row) for row, den in zip(self._ints, self._dens))

    @staticmethod
    def from_columns(cols: Sequence[Sequence], rows: int | None = None) -> ExactMatrix:
        """The matrix with these columns; ``rows`` is required when there are
        none, and checked against them otherwise."""
        cols = [tuple(col) for col in cols]
        if rows is None:
            if not cols:
                raise ValueError("row count is ambiguous for an empty column list")
            rows = len(cols[0])
        if any(len(col) != rows for col in cols):
            raise ValueError(f"every column needs {rows} entries")
        if rows == 0:
            return ExactMatrix.zero(0, len(cols))
        return ExactMatrix([[col[i] for col in cols] for i in range(rows)])

    @staticmethod
    def zero(rows: int, cols: int) -> ExactMatrix:
        return ExactMatrix._of(cols, [(0,) * cols] * rows, [1] * rows)

    def augment_column(self, v: Sequence) -> ExactMatrix:
        """The matrix (self | v); each row's denominator merges with v_i's."""
        if len(v) != self._rows:
            raise ValueError("column length does not match row count")
        ints, dens = [], []
        for row, den, e in zip(self._ints, self._dens, v):
            num, d = (e, 1) if type(e) is int else _rat(e).as_integer_ratio()
            merged = math.lcm(den, d)
            scale = merged // den
            if scale != 1:
                row = tuple(x * scale for x in row)
            ints.append(row + (num * (merged // d),))
            dens.append(merged)
        return ExactMatrix._of(self._cols + 1, ints, dens)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self._cols, self._ints, self._dens) == (other._cols, other._ints, other._dens)

    def __hash__(self):
        return hash((self._cols, self._ints, self._dens))

    def __repr__(self) -> str:
        return f"ExactMatrix({self._rows}x{self._cols})"


def multiplication_matrix(
    generators: Sequence[HomPoly], degree, keep: Optional[Sequence[Sequence[int]]] = None
) -> ExactMatrix:
    """The matrix whose columns are the coefficient vectors of m*g in the
    degree-``degree`` basis, for every generator g and every monomial m of
    degree ``degree - g.degree``.

    Columns are generator-major, with m in basis order inside each
    generator.  ``keep``, when given, holds one list per generator: the
    positions in its multiplier basis whose columns are kept, in that order.
    A zero generator gives zero columns, and a generator of degree above
    ``degree`` gives none.

    The integer rows are written straight through the shift table
    ``polynomials._shift`` from each generator's numerators, scaled to the
    lcm L of every generator's denominator; when L > 1 each row is divided
    by its gcd with L, which leaves the canonical stored form, so the result
    equals ``ExactMatrix.from_columns`` of the Fraction columns.
    """
    gens = list(generators)
    keep = [None] * len(gens) if keep is None else list(keep)
    if len(keep) != len(gens):
        raise ValueError("keep needs one list per generator")
    sub = _ring(degree).sub
    rows = len(_mono_index(degree)[0])
    widths = [
        len(_mono_index(sub(degree, gen.degree))[0]) if kept is None else len(kept)
        for gen, kept in zip(gens, keep)
    ]
    scale = math.lcm(*(gen.den for gen in gens))
    cols = sum(widths)
    ints = [[0] * cols for _ in range(rows)]
    start = 0
    for gen, kept, width in zip(gens, keep, widths):
        factor = scale // gen.den
        for t, num in gen.nums.items():
            pos = _shift(t, degree)
            value = num * factor
            for col, p in enumerate(pos if kept is None else [pos[m] for m in kept], start):
                ints[p][col] = value
        start += width
    if scale == 1:
        return ExactMatrix._of(cols, [tuple(row) for row in ints], [1] * rows)
    gcds = [math.gcd(scale, *row) for row in ints]
    return ExactMatrix._of(
        cols,
        [tuple(e // g for e in row) for row, g in zip(ints, gcds)],
        [scale // g for g in gcds],
    )


@dataclass(frozen=True)
class Membership:
    """Verdict of a column-space membership test with its certificate.

    ``preimage`` satisfies M @ preimage == v when member; ``functional`` is a
    row vector with functional @ M == 0 and functional @ v != 0 otherwise.
    """

    member: bool
    preimage: Optional[Vector]
    functional: Optional[Vector]


@dataclass(frozen=True)
class LinearMapReport:
    domain_dim: int
    target_dim: int
    rank: int
    surjective: bool
    cokernel_witness: Optional[Vector]


# ---------------------------------------------------------------------------
# Integer core
# ---------------------------------------------------------------------------


def _clear(row: Sequence) -> Tuple[Tuple[int, ...], int]:
    """A row of exact rationals as integers over the lcm of its denominators."""
    ratios = [_rat(e).as_integer_ratio() for e in row]
    den = math.lcm(*{d for _, d in ratios})
    return tuple([n * (den // d) for n, d in ratios]), den


def _combine(row: List[int], other: List[int], a: int, b: int, d: int, start: int) -> None:
    """row[j] = (a * row[j] - b * other[j]) / d for j >= start, in place."""
    for j in range(start, len(row)):
        q, rem = divmod(a * row[j] - b * other[j], d)
        if rem:
            raise CertificateError("Bareiss division must be exact")
        row[j] = q


def _bareiss_echelon(
    rows: List[List[int]], pivot_cols: int
) -> Tuple[List[List[int]], List[Tuple[int, int]], int]:
    """Fraction-free row echelon form: the one elimination routine.

    Only the first ``pivot_cols`` columns are eligible to host pivots; all
    columns (including any caller-appended ones) are updated.  Returns the
    echelon rows, the (row, col) pivot list and the sign (+1 or -1) of the
    row permutation.  On a nonsingular square input the last pivot times
    that sign is the determinant.

    Classic Bareiss updates every row below the pivot at every step; for a
    row whose entry in the pivot column is already zero that update is only
    the scaling piv/prev.  Here such a row is left alone, and ``div[i]``
    holds the pivot that divided row i's last update (1 for an input row).
    Over the skipped steps the classic scalings telescope to prev/div[i], so
    the row's next update (piv * row_i - f * row_r) / div[i] is the classic
    one, and its division is exact because the classic entries are minors
    of the input.  A lagging row is brought up to date by prev/div[i] when it
    becomes the pivot row, and the rows left below the last pivot, which are
    zero on the first ``pivot_cols`` columns, are brought up to date on the
    others at the end, so pivots and echelon are exactly classic Bareiss's.
    """
    work = [list(r) for r in rows]
    n = len(work)
    width = len(work[0]) if work else 0
    div = [1] * n
    pivots: List[Tuple[int, int]] = []
    prev = 1
    sign = 1

    def catch_up(i: int, start: int) -> None:
        # Scale a lagging row by prev/div[i].
        if div[i] != prev:
            _combine(work[i], work[i], prev, 0, div[i], start)
            div[i] = prev

    r = 0
    for col in range(min(pivot_cols, width)):
        if r == n:
            break
        piv_row = next((i for i in range(r, n) if work[i][col]), None)
        if piv_row is None:
            continue
        if piv_row != r:
            work[r], work[piv_row] = work[piv_row], work[r]
            div[r], div[piv_row] = div[piv_row], div[r]
            sign = -sign
        catch_up(r, col)
        row_r = work[r]
        piv = row_r[col]
        for i in range(r + 1, n):
            row_i = work[i]
            f = row_i[col]
            if not f:
                continue
            _combine(row_i, row_r, piv, f, div[i], col + 1)
            row_i[col] = 0
            div[i] = piv
        prev = piv
        pivots.append((r, col))
        r += 1
    for i in range(r, n):
        catch_up(i, pivot_cols)
    return work, pivots, sign


def _solve(echelon: List[List[int]], pivots: List[Tuple[int, int]], col: int) -> List[Fraction]:
    """The x over the columns before ``col``, zero off the pivot columns, with
    echelon @ (x, -1) == 0 on the pivot rows, where -1 sits at ``col``.

    Back-substitution on the pivot columns and column ``col`` alone, bottom
    row first, skipping the zero entries of x.  It solves the whole system
    when every echelon row below the pivots is zero at ``col``.
    """
    x = [_ZERO] * col
    known: List[Tuple[int, Fraction]] = []
    for r, c in reversed(pivots):
        row = echelon[r]
        acc = Fraction(row[col])
        for j, xj in known:
            if row[j]:
                acc -= row[j] * xj
        if acc:
            x[c] = acc / row[c]
            known.append((c, x[c]))
    return x


def _annihilates(rows: Sequence[Sequence[int]], x: Sequence[Fraction]) -> bool:
    """Whether rows @ x == 0, decided in integers on x's cleared form."""
    support = [(j, e) for j, e in enumerate(_clear(x)[0]) if e]
    return not any(sum(row[j] * e for j, e in support) for row in rows)


def _modp_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix modulo 2^31 - 1 (a lower bound on the rank).

    The matrix is reduced mod p in one numpy call; only when some entry does
    not fit in int64 (``OverflowError``) is each entry reduced in Python.
    Each pivot step updates only the rows below the pivot whose entry in the
    pivot column is nonzero: for any other row the dense update subtracts 0.
    """
    p = _FAST_PRIME
    n = len(rows)
    if n == 0:
        return 0
    try:
        arr = np.array(rows, dtype=np.int64) % p
    except OverflowError:
        arr = np.array([[e % p for e in row] for row in rows], dtype=np.int64)
    width = arr.shape[1]
    r = 0
    for col in range(width):
        if r == n:
            break
        nz = np.flatnonzero(arr[r:, col])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            # The old row r moves to i; it is zero in this column.
            arr[[r, i]] = arr[[i, r]]
        below = r + nz[1:]
        if below.size:
            inv = pow(int(arr[r, col]), -1, p)
            factors = (arr[below, col] * inv) % p
            # entries < p and factors < p, so products stay below 2^62 < int64 max
            arr[below, col:] = (arr[below, col:] - factors[:, None] * arr[r, col:]) % p
        r += 1
    return r


# ---------------------------------------------------------------------------
# Public verdicts
# ---------------------------------------------------------------------------


def rank(M: ExactMatrix) -> int:
    """Exact rank over the rationals."""
    if M.rows == 0 or M.cols == 0:
        return 0
    if USE_MODP_FAST_PATH:
        fast = _modp_rank(M.ints)
        if fast == min(M.rows, M.cols):
            return fast
    _, pivots, _ = _bareiss_echelon(M.ints, M.cols)
    return len(pivots)


def _free_columns(
    echelon: List[List[int]], pivots: List[Tuple[int, int]], cols: int
) -> Iterator[Tuple[int, List[Fraction]]]:
    """(f, y) for each column f without a pivot, solved as it is taken:
    column f == y @ the pivot columns left of f.

    With every column eligible for a pivot, only those pivots' rows are
    nonzero up to f, so ``_solve`` on them solves the whole system.
    """
    left = 0  # pivots[:left] are the pivots left of f
    for f in range(cols):
        if left < len(pivots) and pivots[left][1] == f:
            left += 1
            continue
        yield f, _solve(echelon, pivots[:left], f)


def _kernel(rows: Sequence[Sequence[int]], cols: int) -> Iterator[Vector]:
    """Right kernel basis of integer rows with ``cols`` columns, each vector
    re-checked as it is yielded: a caller pays only for the vectors it takes.

    Free column f gives x_f = 1, 0 on the other free columns, and -y on the
    pivot columns left of f, where column f is y @ those pivot columns.
    """
    echelon, pivots, _ = _bareiss_echelon(rows, cols)
    for f, y in _free_columns(echelon, pivots, cols):
        vec = (*(-e for e in y), Fraction(1), *[_ZERO] * (cols - f - 1))
        if not _annihilates(rows, vec):
            raise CertificateError("kernel vector must verify")
        yield vec


def kernel_basis(M: ExactMatrix) -> List[Vector]:
    """Deterministic basis of the right kernel, each vector verified; the
    vector of free column f is 1 there and 0 on the other free columns."""
    return list(_kernel(M.ints, M.cols))


def _functional(aug: ExactMatrix, pivots: List[Tuple[int, int]]) -> Vector:
    """The w with w @ aug == e_last, for aug = (M | v), v outside M's span.

    t @ aug.ints == e_last is solved on M's ``pivots`` columns and v's alone
    (rank(M) + 1 equations); t then kills M's other columns too, and the
    re-check, against every column, also catches a system with no solution.
    Row i of aug.ints is dens_i times row i of aug, so w_i = t_i * dens_i.
    """
    last = aug.cols - 1
    # Equation j: column j of aug.ints, right-hand side 1 at v's column, else 0.
    system = [(*col, int(j == last)) for j, col in enumerate(zip(*aug.ints))]
    chosen = [system[c] for _, c in pivots] + [system[last]]
    echelon, chosen_pivots, _ = _bareiss_echelon(chosen, aug.rows)
    t = tuple(_solve(echelon, chosen_pivots, aug.rows))
    if not _annihilates(system, t + (-1,)):
        raise CertificateError("functional must kill M and pair to 1 with v")
    return tuple(ti * di for ti, di in zip(t, aug.dens))


def in_column_space(M: ExactMatrix, v: Sequence) -> Membership:
    """Decide v in col-span(M) with a re-verified certificate either way.

    One elimination of (M | v) decides and gives a member's preimage; a
    non-member's functional (w @ v == 1) costs one of rank(M) + 1 rows.
    """
    aug = M.augment_column(v)
    echelon, pivots, _ = _bareiss_echelon(aug.ints, M.cols)
    # v lies in the span iff no leftover row has a nonzero entry in v's column.
    if any(echelon[i][M.cols] for i in range(len(pivots), M.rows)):
        return Membership(member=False, preimage=None, functional=_functional(aug, pivots))
    pre = tuple(_solve(echelon, pivots, M.cols))
    # M @ pre == v exactly when (M | v) @ (pre, -1) == 0.
    if not _annihilates(aug.ints, pre + (-1,)):
        raise CertificateError("preimage must verify")
    return Membership(member=True, preimage=pre, functional=None)


def _left_kernel(M: ExactMatrix) -> Iterator[Vector]:
    """The kernel of the integer transpose, t_i scaled to w_i = t_i * dens_i."""
    for t in _kernel(list(zip(*M.ints)), M.rows):
        yield tuple(ti * di for ti, di in zip(t, M.dens))


def left_kernel_basis(M: ExactMatrix) -> List[Vector]:
    """Basis of the left kernel (functionals vanishing on the column space)."""
    return list(_left_kernel(M))


def rref(M: ExactMatrix) -> Tuple[List[Vector], List[int]]:
    """Reduced row echelon form over the rationals.

    Returns the nonzero rows (pivot entries normalized to 1, pivot columns
    cleared elsewhere) and the pivot column indices, both deterministic.
    Row i holds, in each free column f, y at pivot i's column from
    ``_free_columns`` (0 when pivot i lies right of f).
    """
    echelon, pivots, _ = _bareiss_echelon(M.ints, M.cols)
    rows = [[_ZERO] * M.cols for _ in pivots]
    for row, (_, c) in zip(rows, pivots):
        row[c] = Fraction(1)
    for f, y in _free_columns(echelon, pivots, M.cols):
        for row, (_, c) in zip(rows, pivots):
            if c > f:
                break
            row[f] = y[c]
    return [tuple(row) for row in rows], [c for _, c in pivots]


def report(M: ExactMatrix) -> LinearMapReport:
    """Surjectivity report for the linear map with matrix M.

    The map goes from Q^cols to Q^rows; surjectivity means full row rank.
    Non-surjective maps come with one re-verified cokernel functional.
    """
    r = rank(M)
    surjective = r == M.rows
    witness: Optional[Vector] = None
    if not surjective:
        witness = next(_left_kernel(M))
    return LinearMapReport(
        domain_dim=M.cols,
        target_dim=M.rows,
        rank=r,
        surjective=surjective,
        cokernel_witness=witness,
    )
