"""Exact linear algebra over the rationals with verifiable verdicts.

Everything here returns exact answers, from one elimination core:
fraction-free (Bareiss) elimination over the integers (``_bareiss_echelon``),
in which every column may host a pivot, and back-substitution on its echelon
form.  ``_solve`` back-substitutes one column: a preimage; a separating
functional, from the transposed pivot columns and a unit right-hand side;
or a free column on the pivot columns left of it, which ``kernel_basis``
negates into a re-checked kernel vector.  ``rref`` (no library caller)
reads its rows off those vectors.  Section spaces read pivot columns off
``_bareiss_echelon`` directly, and the quotient by a pair off one of the
pair's two rows, reduced by the relations first, since pivot columns depend
only on the row span.
An ``ExactMatrix`` clears its denominators once, where it is built, into
one integer array over one denominator, and every verdict reads the array
as it is: int64, or Python ints when some entry needs more than 63 bits.
Since int64 wraps silently, int64 arithmetic on the array runs only under a
bound that rules out wrapping: the mod-p sweep's, and that of the one exact
integer product, ``_exact_product``, in int64 while max|entry| times a value
vector's 1-norm is below 2^63, and in Python ints otherwise.
Pivoting is deterministic (first nonzero entry in column order), so
identical inputs give bit-identical outputs.  The elimination leaves a row
alone while its entry in the pivot column is zero and divides its next
update by the pivot that divided its last one (a lazy divisor, exact by
telescoping), so the sparse relation and multiplication matrices cost only
the updates they need.

Multiplication matrices (columns m*e for monomials m and module elements e,
one form per stacked row block) come from one builder, ``module_matrix``,
which lays out the blocks and writes every integer numerator into the array
through the shift table of ``polynomials`` in one assignment, with no
``Fraction``; ``multiplication_matrix`` is its one-block case.

``rank``, membership and the left kernel peel the matrix on its integer
nonzero pattern (``_peel``): a column whose one nonzero lies in row i is a
multiple of e_i, so it and row i add exactly 1 to the rank and leave, and a
zero line adds 0.  Re-checked on the integer entries and gathered in peel
order, M is [[S, X], [0, core], [0, 0]], with S triangular on a nonzero
diagonal, hence invertible.  So v is in M's span iff its part below the
pivots is in the span of those rows, the only ones eliminated, and a
left-kernel vector is zero on the pivot rows.  A core with no rows or no
columns settles the rank with no arithmetic, as for the monomial special
pair; otherwise ``rank`` eliminates the core modulo a prime p below 2^26,
reducing the updated rows only once in every ``_LAZY_STEPS`` update steps
(``_modp_rank``).  A full-rank outcome there exhibits a nonzero minor mod p,
and an integer minor that is nonzero mod p is nonzero, so that verdict is
already exact.  A deficient outcome is a lower bound.  A caller that knows
vectors the matrix kills (the syzygy columns of a multiplication matrix)
may hand them to ``rank``; once the integer product re-checks that they
are killed, cols minus their rank mod p is an upper bound, and when the two
bounds meet the rank is exact.  Any other deficient core is recomputed by
integer Bareiss.

Membership and surjectivity verdicts come with certificates (a preimage or a
cokernel functional) that are re-verified against the original matrix before
being returned, and so are kernel vectors and the vectors behind a syzygy
bound.  Every re-check is one ``_exact_product`` with the stored array: a
vector's on its support (``_annihilates``), a syzygy bound's on the block of
all its vectors.  A failed re-check, of a vector or of the peel, raises
``CertificateError``, which ``python -O`` does not strip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, cycle
from operator import attrgetter
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .polynomials import HomPoly, _mono_index, _rat, _ring, _shift

Vector = Tuple[Fraction, ...]

_FAST_PRIME = 67108859  # the largest prime below 2^26
# Unreduced updates an int64 entry in [0, p) can take without wrapping.
_LAZY_STEPS = (2**63 - 1 - _FAST_PRIME) // (_FAST_PRIME - 1) ** 2
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

    The matrix is ``ints / den``: ``ints`` is one read-only integer array of
    its shape (int64 unless some entry needs more than 63 bits), and ``den``
    the lcm of the entries' denominators, so gcd(den, every entry) = 1 and
    equal matrices have equal stored parts.  Verdicts read ``ints`` alone:
    scaling a matrix changes no rank, kernel, preimage or left kernel.
    ``entries`` is the read-only Fraction view.
    """

    __slots__ = ("_ints", "_den")

    def __init__(self, entries: Sequence[Sequence]):
        rows = list(entries)
        cols = len(rows[0]) if rows else 0
        if any(len(row) != cols for row in rows):
            raise ValueError("ragged rows")
        flat, den = _clear([e for row in rows for e in row])
        self._store(_integer_array(flat).reshape(len(rows), cols), den)

    def _store(self, ints: np.ndarray, den: int) -> None:
        ints = _integer_array(ints)
        ints.flags.writeable = False
        self._ints, self._den = ints, den

    rows = property(lambda self: self._ints.shape[0])
    cols = property(lambda self: self._ints.shape[1])
    ints = property(attrgetter("_ints"), doc="The integer entries, the matrix times ``den``.")
    den = property(attrgetter("_den"), doc="The positive denominator of every entry.")

    @staticmethod
    def _of(ints: np.ndarray, den: int) -> ExactMatrix:
        """A matrix from a cleared integer array and its denominator."""
        out = ExactMatrix.__new__(ExactMatrix)
        out._store(ints, den)
        return out

    @property
    def entries(self) -> Tuple[Vector, ...]:
        return tuple(tuple(Fraction(e, self._den) for e in row) for row in self._ints.tolist())

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
        return ExactMatrix._of(np.zeros((rows, cols), dtype=np.int64), 1)

    def augment_column(self, v: Sequence) -> ExactMatrix:
        """The matrix (self | v); its denominator is the lcm of self's and v's."""
        if len(v) != self.rows:
            raise ValueError("column length does not match row count")
        column, d = _clear(v)
        den = math.lcm(self._den, d)
        ints = self._ints
        if den != self._den:
            # int64 wraps silently, so the array is rescaled in Python ints.
            ints = ints.astype(object) * (den // self._den)
        column = _integer_array([e * (den // d) for e in column])
        return ExactMatrix._of(np.column_stack([ints, column]), den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._den == other._den and np.array_equal(self._ints, other._ints)

    def __hash__(self):
        return hash((self._ints.shape, self._den))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"


def module_matrix(
    elements: Sequence[Sequence[HomPoly]], degrees: Sequence, keep: Optional[Sequence[int]] = None
) -> ExactMatrix:
    """The matrix whose columns are the coefficient vectors of m*e, for every
    module element e and every monomial m of e's multiplier degree.

    Entry i of an element fills row block i, the degree-``degrees[i]``
    basis.  Every entry, a zero one included, falls short of its target
    degree by the element's multiplier degree, or ``ValueError`` is raised;
    a negative one gives no columns.  Columns are element-major, with m in
    basis order.  ``keep``, when given, lists the column indices kept.

    All numerators, scaled to the lcm L of the denominators, are written in
    one assignment: term t of entry i of the element whose columns start at
    s fills row o_i + ``_shift(t, degrees[i])[j]`` of column s + j, where
    block i starts at row o_i.  Dividing L and the array by the gcd of L and
    every entry leaves the canonical form, so the result equals
    ``ExactMatrix.from_columns`` of the Fraction columns.
    """
    width = len(degrees)
    if any(map(width.__ne__, map(len, elements))):
        raise ValueError("an element needs one entry per target degree")
    entries = [entry for element in elements for entry in element]
    shorts = list(map(_ring(degrees[0]).sub, cycle(degrees), map(attrgetter("degree"), entries)))
    if any(shorts[i::width] != shorts[::width] for i in range(1, width)):
        raise ValueError("every entry of an element needs the same multiplier degree")
    blocks = [len(_mono_index(short)[0]) for short in shorts[::width]]
    sizes = [len(_mono_index(d)[0]) for d in degrees]
    rows, cols = sum(sizes), sum(blocks)
    scale = math.lcm(*(entry.den for entry in entries))
    values = _integer_array(
        [num * f for entry in entries for f in [scale // entry.den] for num in entry.nums.values()]
    )
    arr = np.zeros(rows * cols, dtype=values.dtype)
    # A term of an element with no columns shifts to no positions.
    shifts = (_shift(t, d) for entry, d in zip(entries, cycle(degrees)) for t in entry.nums)
    at = np.fromiter(chain.from_iterable(shifts), np.intp)
    # Row o_i + shift[j] of column s + j, as one flat position:
    # shift[j] * cols + (o_i * cols + s) + j.  Each term spans its element's
    # b columns, from the first position o_i * cols + s of its entry's block.
    terms = np.fromiter(map(len, map(attrgetter("nums"), entries)), np.intp, len(entries))
    b, o = np.array(blocks, dtype=np.intp), np.array(sizes, dtype=np.intp)
    widths = b.repeat(width).repeat(terms)
    firsts = np.add.outer(b.cumsum() - b, (o.cumsum() - o) * cols).ravel().repeat(terms)
    flat = at * cols + np.arange(at.size) - (widths.cumsum() - widths - firsts).repeat(widths)
    arr[flat] = values.repeat(widths)
    arr = arr.reshape(rows, cols)
    return _lowest_terms(arr if keep is None else arr[:, list(keep)], scale)


def _lowest_terms(arr: np.ndarray, scale: int) -> ExactMatrix:
    """The matrix arr / scale, from a writable integer array that it takes
    over: scale and arr are divided by the gcd of scale and every entry, so
    the result is canonical whatever common factor the two shared."""
    if scale > 1:
        # L may exceed int64, so the entries' gcd meets it in Python.
        g = math.gcd(scale, int(np.gcd.reduce(arr, axis=None)))
        if g > 1:
            scale //= g
            if arr.any():
                arr //= g
    return ExactMatrix._of(arr, scale)


def multiplication_matrix(
    generators: Sequence[HomPoly], degree, keep: Optional[Sequence[int]] = None
) -> ExactMatrix:
    """``module_matrix`` of one-entry elements: the columns m*g for every
    generator g and monomial m of degree ``degree - g.degree``, generator-major."""
    return module_matrix([(gen,) for gen in generators], (degree,), keep)


@dataclass(frozen=True)
class Membership:
    """Verdict of a column-space membership test with its certificate.

    ``preimage`` satisfies M @ preimage == v when member; ``functional`` is a
    row vector with functional @ M == 0 and functional @ v == 1 otherwise.
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


def _clear(values: Sequence) -> Tuple[Tuple[int, ...], int]:
    """Exact rationals as integers over the lcm of their denominators."""
    if all(type(e) is int for e in values):
        return tuple(values), 1
    ratios = [_rat(e).as_integer_ratio() for e in values]
    den = math.lcm(*{d for _, d in ratios})
    return tuple([n * (den // d) for n, d in ratios]), den


def _combine(row: List[int], other: List[int], a: int, b: int, d: int, start: int) -> None:
    """row[j] = (a * row[j] - b * other[j]) / d for j >= start, in place."""
    for j in range(start, len(row)):
        q, rem = divmod(a * row[j] - b * other[j], d)
        if rem:
            raise CertificateError("Bareiss division must be exact")
        row[j] = q


def _bareiss_echelon(rows: List[List[int]]) -> Tuple[List[List[int]], List[Tuple[int, int]], int]:
    """Fraction-free row echelon form: the one elimination routine.

    Every column may host a pivot.  Returns the echelon rows, the (row, col)
    pivot list and the sign (+1 or -1) of the row permutation; the rows below
    the last pivot are zero.  On a nonsingular square input the last pivot
    times that sign is the determinant.

    Classic Bareiss updates every row below the pivot at every step; for a
    row whose entry in the pivot column is already zero that update is only
    the scaling piv/prev.  Here such a row is left alone, and ``div[i]``
    holds the pivot that divided row i's last update (1 for an input row).
    Over the skipped steps the classic scalings telescope to prev/div[i], so
    the row's next update (piv * row_i - f * row_r) / div[i] is the classic
    one, and its division is exact because the classic entries are minors
    of the input.  A lagging row is brought up to date by prev/div[i] when it
    becomes the pivot row, so pivots and echelon are exactly classic
    Bareiss's.
    """
    work = [list(r) for r in rows]
    n = len(work)
    width = len(work[0]) if work else 0
    div = [1] * n
    pivots: List[Tuple[int, int]] = []
    prev = 1
    sign = 1
    r = 0
    for col in range(width):
        if r == n:
            break
        piv_row = next((i for i in range(r, n) if work[i][col]), None)
        if piv_row is None:
            continue
        if piv_row != r:
            work[r], work[piv_row] = work[piv_row], work[r]
            div[r], div[piv_row] = div[piv_row], div[r]
            sign = -sign
        row_r = work[r]
        if div[r] != prev:
            # Bring the lagging pivot row up to date: scale it by prev/div[r].
            _combine(row_r, row_r, prev, 0, div[r], col)
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


def _annihilates(rows: np.ndarray, x: Sequence[Fraction]) -> bool:
    """Whether rows @ x == 0 for a rational x, by ``_exact_product`` on x's support."""
    support = {j: e for j, e in enumerate(_clear(x)[0]) if e}
    return not _exact_product(rows, support, list(support.values())).any()


def _exact_product(arr: np.ndarray, support: Sequence[int], values: Sequence | np.ndarray) -> np.ndarray:
    """arr[:, support] @ values, exact, for integer values: a vector or a block
    of column vectors.  A partial sum is at most max|entry| times a column's
    1-norm; the product is taken in int64 while that bound is below 2^63, and
    in Python ints otherwise, with no bound work if either side holds them."""
    cols, vals = arr[:, list(support)], _integer_array(values)
    if cols.dtype != object and vals.dtype != object:
        top = max(int(cols.max()), -int(cols.min()), 1) if cols.size else 1
        if top * max((sum(map(abs, v)) for v in np.atleast_2d(vals.T).tolist()), default=0) < 2**63:
            return cols @ vals
    return cols.astype(object) @ vals.astype(object)


def _integer_array(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """Integer rows as one int64 array in one numpy call, or, when some entry
    does not fit in int64 (``OverflowError``), as an array of Python ints."""
    try:
        return np.asarray(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def _modp_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix modulo the prime ``_FAST_PRIME`` (a lower
    bound on the rank), by a sweep that delays its reductions (delayed
    modular reduction, as in Dumas, Giorgi and Pernet's FFLAS-FFPACK).

    The matrix is reduced mod p in one numpy call; only when some entry does
    not fit in int64 is each entry reduced in Python.  A pivot step reduces
    only the live part of the pivot column and the pivot row, then subtracts
    f * (pivot row) from every row below whose pivot-column entry is nonzero,
    with no reduction of the updated block.  A reduced entry lies in [0, p),
    and each update subtracts at most (p - 1)^2, so after s updates an entry
    lies in [-s (p - 1)^2, p); p < 2^26 keeps (p - 1)^2 below 2^52, and
    ``_LAZY_STEPS`` is the largest s with s (p - 1)^2 + p < 2^63.  The whole
    trailing block is reduced once after every ``_LAZY_STEPS`` update steps,
    so int64 never wraps, whatever the size.  Reducing a pivot column or row
    before it is read keeps the factors and the products below 2^52.

    The update is a plain slice of the rows below when more than a third of
    the live rows are hit, and a gather of the hit rows otherwise; a row with
    a zero factor changes by 0 either way.  The rule is speed only: the slice
    wins on the dense tangent matrices, the gather on the few sparse steps of
    the large ladder matrices.  Columns left of the pivot are never read
    again, so the swap and the update leave them stale.
    """
    p = _FAST_PRIME
    arr = (_integer_array(rows) % p).astype(np.int64, copy=False)
    n, width = arr.shape
    r = steps = 0
    for col in range(width):
        if r == n:
            break
        c = arr[r:, col]
        c %= p
        nz = c.nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            # The old row r moves down; it is zero in this column.
            i = r + int(nz[0])
            arr[[r, i], col:] = arr[[i, r], col:]
        k = nz.size - 1
        if k:
            inv = pow(int(c[0]), -1, p)
            prow = arr[r, col + 1:] % p
            if 3 * k < n - r:
                below = r + nz[1:]
                arr[below, col + 1:] -= ((c[nz[1:]] * inv) % p)[:, None] * prow
            else:
                arr[r + 1:, col + 1:] -= ((c[1:] * inv) % p)[:, None] * prow
            steps += 1
            if steps == _LAZY_STEPS:
                arr[r + 1:, col + 1:] %= p
                steps = 0
        r += 1
    return r


def _peel(nz: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray, int, int, int]]:
    """Column singletons of a nonzero pattern, peeled in bulk rounds, then
    the zero lines.

    A column whose one nonzero lies in row i is a multiple of e_i over any
    field, so it and row i add 1 to the rank together and leave.  Each round
    takes every column singleton at once (each hit row once, so at most one
    pivot per row), until no column left is a singleton.  The zero lines left
    then add 0 and are set aside once: dropping a zero line never makes a
    column singleton.

    Returns the row and column orders, pivots first in peel order, then the
    core's lines, then the zero lines; the pivot count k; and the core's
    shape.  Returns None when there is nothing to peel.
    """
    n, m = nz.shape
    cc = nz.sum(0)
    if cc.min() > 1 and nz.sum(1).min() > 0:
        return None
    ri, ci = np.divmod(np.flatnonzero(nz), m)  # the nonzeros left, as (row, column) pairs
    rows_left, cols_left = np.ones(n, dtype=bool), np.ones(m, dtype=bool)
    prows, pcols = [], []
    while True:
        single = cols_left & (cc == 1)
        if not single.any():
            break
        hit = single[ci]
        r, first = np.unique(ri[hit], return_index=True)
        c = ci[hit][first]
        prows.append(r)
        pcols.append(c)
        rows_left[r], cols_left[c] = False, False
        live = rows_left[ri] & cols_left[ci]
        ri, ci = ri[live], ci[live]
        cc = np.bincount(ci, minlength=m)
    zero_rows = rows_left & (np.bincount(ri, minlength=n) == 0)
    zero_cols = cols_left & (cc == 0)
    core_rows, core_cols = np.flatnonzero(rows_left & ~zero_rows), np.flatnonzero(cols_left & ~zero_cols)
    return (
        np.concatenate(prows + [core_rows, np.flatnonzero(zero_rows)]),
        np.concatenate(pcols + [core_cols, np.flatnonzero(zero_cols)]),
        sum(map(len, prows)),
        core_rows.size,
        core_cols.size,
    )


def _peeled_core(arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int, int, int]:
    """``_peel``'s row and column orders, pivot count k and core shape (a, b),
    re-checked; when nothing peels, identity orders with all of arr as core.

    The nonzero pattern of the integer entries, gathered in peel order, is
    N = [[S, *], [*, core]], then the zero lines.  S has a nonzero diagonal
    and pivot column j is zero below N[j, j], so pivot by pivot the rank
    drops by exactly 1; past the pivots, N is zero outside the core
    ``arr[rows[k:k + a]][:, cols[k:k + b]]``, and rank(arr) = k + rank(core).
    A failed re-check raises ``CertificateError``.
    """
    n, m = arr.shape
    nz = arr != 0
    peel = _peel(nz) if nz.size else None
    if peel is None:
        return np.arange(n), np.arange(m), 0, n, m
    rows, cols, k, a, b = peel
    if not (np.array_equal(np.sort(rows), np.arange(n)) and np.array_equal(np.sort(cols), np.arange(m))):
        raise CertificateError("the peel must order every line once")
    pattern = nz[rows][:, cols]
    last_row = n - 1 - pattern[::-1, :k].argmax(0)
    if not (
        pattern.diagonal()[:k].all()
        and np.array_equal(last_row, np.arange(k))
        and not pattern[k + a:, k:].any()
        and not pattern[k:k + a, k + b:].any()
    ):
        raise CertificateError("peeled pivots must be triangular on a nonzero diagonal")
    return peel


# ---------------------------------------------------------------------------
# Public verdicts
# ---------------------------------------------------------------------------


def rank(M: ExactMatrix, kernel: Optional[Callable[[], Sequence[Sequence[int]] | np.ndarray]] = None) -> int:
    """Exact rank over the rationals.

    The column singletons and zero lines are peeled first (``_peel``), and
    the peel is re-checked on the integer entries, so rank(M) = peeled +
    rank(core): a core with no rows or no columns settles the rank with no
    elimination.  A matrix with no column singleton and no zero line goes to
    the sweep whole, even where its rows are singletons.
    The core is then swept mod p, which bounds the rank below by peeled +
    rank_p(core) and above by peeled + min(core shape); when they meet, the
    lower bound is exact.

    ``kernel``, when given, returns integer vectors of length ``M.cols`` that
    M kills, as the rows of a sequence or an array (syzygy columns, say),
    and is called only when the two bounds differ.  Once one exact product
    re-checks M @ K == 0 for their block K, cols - rank_p(K) bounds the rank
    above: where it meets the lower bound it is exact; else Bareiss decides.
    """
    if USE_MODP_FAST_PATH:
        arr = M.ints
        rows, cols, peeled, a, b = _peeled_core(arr)
        core = arr if (a, b) == arr.shape else arr[rows[peeled:peeled + a]][:, cols[peeled:peeled + b]]
        if core.size == 0:
            return peeled
        lower = peeled + _modp_rank(core)
        if lower == peeled + min(core.shape):
            return lower
        if kernel is not None:
            vectors = kernel()
            block = _integer_array([v for v in vectors if len(v) == M.cols]).reshape(-1, M.cols).T
            if block.shape[1] < len(vectors) or _exact_product(arr, range(M.cols), block).any():
                raise CertificateError("syzygy vectors must lie in the kernel")
            if lower + _modp_rank(block) == M.cols:
                return lower
        _, pivots, _ = _bareiss_echelon(core.tolist())
        return peeled + len(pivots)
    _, pivots, _ = _bareiss_echelon(M.ints.tolist())
    return len(pivots)


def _kernel(arr: np.ndarray) -> Iterator[Vector]:
    """Right kernel basis of an integer array, each vector re-checked as it
    is yielded: a caller pays only for the vectors it takes.

    Free column f gives x_f = 1, 0 on the other free columns, and -y on the
    pivot columns left of f, where column f is y @ those pivot columns.  The
    free column f hosts no pivot, so only the rows of the pivots left of f are
    nonzero up to f, and ``_solve`` on them solves the whole system.
    """
    cols = arr.shape[1]
    echelon, pivots, _ = _bareiss_echelon(arr.tolist())
    left = 0  # pivots[:left] are the pivots left of f
    for f in range(cols):
        if left < len(pivots) and pivots[left][1] == f:
            left += 1
            continue
        y = _solve(echelon, pivots[:left], f)
        vec = (*(-e for e in y), Fraction(1), *[_ZERO] * (cols - f - 1))
        if not _annihilates(arr, vec):
            raise CertificateError("kernel vector must verify")
        yield vec


def kernel_basis(M: ExactMatrix) -> List[Vector]:
    """Deterministic basis of the right kernel, each vector verified; the
    vector of free column f is 1 there and 0 on the other free columns."""
    return list(_kernel(M.ints))


def in_column_space(M: ExactMatrix, v: Sequence) -> Membership:
    """Decide v in col-span(M) with a re-verified certificate either way.

    v is a member exactly when its column hosts no pivot of the rows B of
    (M | v) below the peel's pivots, the only rows eliminated.  A member's
    preimage is back-substituted through their echelon and then the pivot
    rows.  Otherwise the pivot columns P of that echelon, M's and then v's,
    are independent, so t @ B[:, P] = (0, ..., 0, 1) is one exact solve of
    the transposed system.  Every column of M is zero on B's rows or a
    combination of M's pivot columns there, so w = t times (M | v)'s
    denominator, zero on the peel's pivot rows, has w @ M == 0 and
    w @ v == 1, re-checked at once: W @ ``aug.ints`` is (0, ..., 0, q * den).
    """
    aug = M.augment_column(v)
    rows, cols, k, _, _ = _peeled_core(M.ints)
    order = np.append(cols, M.cols)
    part = aug.ints[rows[k:]][:, order]
    below, pivots, _ = _bareiss_echelon(part.tolist())
    if pivots and pivots[-1][1] == M.cols:
        system = [row + [0] for row in part[:, [c for _, c in pivots]].T.tolist()]
        system[-1][-1] = 1
        echelon, tpivots, _ = _bareiss_echelon(system)
        t = np.full(M.rows, _ZERO, dtype=object)
        t[rows[k:]] = _solve(echelon, tpivots, len(part))
        w = tuple(ti * aug.den if ti else ti for ti in t)
        W, q = _clear(w)  # w = W / q
        support = {i: e for i, e in enumerate(W) if e}
        image = _exact_product(aug.ints.T, support, list(support.values()))
        if image[:-1].any() or int(image[-1]) != q * aug.den:
            raise CertificateError("a separating functional must kill M and take v to 1")
        return Membership(member=False, preimage=None, functional=w)
    echelon = aug.ints[rows[:k]][:, order].tolist() + below
    x = _solve(echelon, [(j, j) for j in range(k)] + [(k + r, c) for r, c in pivots], M.cols)
    pre = tuple(x[j] for j in np.argsort(cols).tolist())
    # M @ pre == v exactly when (M | v) @ (pre, -1) == 0.
    if not _annihilates(aug.ints, pre + (-1,)):
        raise CertificateError("preimage must verify")
    return Membership(member=True, preimage=pre, functional=None)


def _left_kernel(M: ExactMatrix) -> Iterator[Vector]:
    """Left kernel basis of M, read off its re-checked peel
    (``_peeled_core``), each vector re-checked against every column.

    Since S is invertible, a left-kernel vector t is zero on the pivot rows,
    and below them it is a kernel vector of the transpose of those rows on
    the core's columns.  M and ``M.ints`` have the same left kernel.
    """
    rows, cols, k, _, b = _peeled_core(M.ints)
    for s in _kernel(M.ints[rows[k:]][:, cols[k:k + b]].T):
        t = np.full(M.rows, _ZERO, dtype=object)
        t[rows[k:]] = s
        if not _annihilates(M.ints.T, t):
            raise CertificateError("left kernel vector must verify")
        yield tuple(t)


def left_kernel_basis(M: ExactMatrix) -> List[Vector]:
    """Basis of the left kernel (functionals vanishing on the column space)."""
    return list(_left_kernel(M))


def rref(M: ExactMatrix) -> Tuple[List[Vector], List[int]]:
    """Reduced row echelon form over the rationals.

    Returns the nonzero rows (pivot entries normalized to 1, pivot columns
    cleared elsewhere) and the pivot column indices, both deterministic.
    Both are read off the re-checked kernel basis: the vector of free column
    f ends in its 1 at f, the pivot columns are the columns with no vector,
    and the row of pivot column c holds -vec_f[c] at each free column f.
    """
    free = {max(j for j, e in enumerate(vec) if e): vec for vec in _kernel(M.ints)}
    pivots = [c for c in range(M.cols) if c not in free]
    rows = [
        tuple(-free[j][c] if j in free else Fraction(int(j == c)) for j in range(M.cols))
        for c in pivots
    ]
    return rows, pivots


def report(M: ExactMatrix) -> LinearMapReport:
    """Surjectivity report for the linear map with matrix M.

    The map goes from Q^cols to Q^rows; surjectivity means full row rank.
    Non-surjective maps come with one re-verified cokernel functional.
    """
    r = rank(M)
    surjective = r == M.rows
    witness = None if surjective else next(_left_kernel(M))
    return LinearMapReport(
        domain_dim=M.cols,
        target_dim=M.rows,
        rank=r,
        surjective=surjective,
        cokernel_witness=witness,
    )
