"""Exact linear algebra over the rationals with verifiable verdicts.

Everything here returns exact answers, from one elimination core:
fraction-free (Bareiss) elimination over the integers (``_bareiss_echelon``),
in which every column may host a pivot, and back-substitution on its echelon
form.  ``_solve`` back-substitutes one column: a preimage, or a free column
on the pivot columns left of it, which ``kernel_basis`` negates into a
re-checked kernel vector; ``rref`` (no library caller) reads its rows off
those vectors.  Section spaces and their quotients read pivot columns off
``_bareiss_echelon`` directly, since those depend only on the row span.
An ``ExactMatrix`` clears its rows of denominators once, where it is built,
and stores them as one integer array that every verdict reads as it is:
int64, or Python ints when some entry needs more than 63 bits.  Since int64
wraps silently, a value leaves the array for Python arithmetic only through
``tolist``.  Pivoting is deterministic (first nonzero entry in column
order), so identical inputs give bit-identical outputs.  The elimination
leaves a row alone while its entry in the pivot column is zero and divides
its next update by the pivot that divided its last one (a lazy divisor,
exact by telescoping), so the sparse relation and multiplication matrices
cost only the updates they need.

Multiplication matrices (columns m*g for generators g and monomials m) come
from one builder, ``multiplication_matrix``, which writes every generator's
integer numerators into the array through the shift table of
``polynomials`` in one assignment, with no ``Fraction``.

``rank``, membership and the left kernel peel the matrix on its integer
nonzero pattern (``_peel``): a column whose one nonzero lies in row i is a
multiple of e_i, so it and row i add exactly 1 to the rank and leave, and a
zero line adds 0.  Re-checked on the integer entries and gathered in peel
order, M is [[S, X], [0, core], [0, 0]], with S triangular on a nonzero
diagonal, hence invertible.  So v is in M's span iff its part below the
pivots is in the span of those rows, the only ones eliminated, and a
left-kernel vector is zero on the pivot rows.  A core with no rows or no
columns settles the rank with no arithmetic, as for the monomial special
pair; otherwise ``rank`` eliminates the core modulo the prime 2^31 - 1.  A
full-rank outcome there exhibits a nonzero minor mod p, and an integer minor
that is nonzero mod p is nonzero, so that verdict is already exact.  A
deficient outcome is a lower bound.  A caller that knows vectors the matrix
kills (the syzygy columns of a multiplication matrix) may hand them to
``rank``; once the integer product re-checks that they are killed, cols
minus their rank mod p is an upper bound, and when the two bounds meet the
rank is exact.  Any other deficient core is recomputed by integer Bareiss.

Membership and surjectivity verdicts come with certificates (a preimage or a
cokernel functional) that are re-verified against the original matrix before
being returned, and so are kernel vectors and the vectors behind a syzygy
bound.  Every re-check of a vector is one product in Python ints with the
stored array's columns in the vector's support (``_annihilates``).  A failed
re-check, of a vector or of the peel, raises ``CertificateError``, which
``python -O`` does not strip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from operator import attrgetter, mul
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

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

    Row i is ``ints[i] / dens[i]``: ``ints`` is one read-only integer array of
    the matrix's shape (int64 unless some entry needs more than 63 bits), and
    ``dens[i]`` the lcm of row i's entry denominators.  The form is canonical,
    so equal matrices have equal stored rows.  ``entries`` is the read-only
    Fraction view.
    """

    __slots__ = ("_ints", "_dens")

    def __init__(self, entries: Sequence[Sequence]):
        cleared = [_clear(row) for row in entries]
        cols = len(cleared[0][0]) if cleared else 0
        if any(len(row) != cols for row, _ in cleared):
            raise ValueError("ragged rows")
        ints = _integer_array([row for row, _ in cleared]).reshape(len(cleared), cols)
        self._store(ints, [den for _, den in cleared])

    def _store(self, ints: np.ndarray, dens: Sequence[int]) -> None:
        ints = _integer_array(ints)
        ints.flags.writeable = False
        self._ints, self._dens = ints, tuple(dens)

    rows = property(lambda self: self._ints.shape[0])
    cols = property(lambda self: self._ints.shape[1])
    ints = property(attrgetter("_ints"), doc="Row i's integer entries, the row times ``dens[i]``.")
    dens = property(attrgetter("_dens"), doc="Row i's positive denominator.")

    @staticmethod
    def _of(ints: np.ndarray, dens: Sequence[int]) -> ExactMatrix:
        """A matrix from a cleared integer array and its row denominators."""
        out = ExactMatrix.__new__(ExactMatrix)
        out._store(ints, dens)
        return out

    @property
    def entries(self) -> Tuple[Vector, ...]:
        return tuple(tuple(Fraction(e, d) for e in row) for row, d in zip(self._ints.tolist(), self._dens))

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
        return ExactMatrix._of(np.zeros((rows, cols), dtype=np.int64), [1] * rows)

    def augment_column(self, v: Sequence) -> ExactMatrix:
        """The matrix (self | v); each row's denominator merges with v_i's."""
        if len(v) != self.rows:
            raise ValueError("column length does not match row count")
        ratios = [(e, 1) if type(e) is int else _rat(e).as_integer_ratio() for e in v]
        dens = [math.lcm(den, d) for den, (_, d) in zip(self._dens, ratios)]
        scales = [merged // den for merged, den in zip(dens, self._dens)]
        ints = self._ints
        if set(scales) - {1}:
            # int64 wraps silently, so rows are rescaled in Python ints.
            ints = ints.astype(object) * np.array(scales, dtype=object)[:, None]
        column = _integer_array([num * (merged // d) for (num, d), merged in zip(ratios, dens)])
        return ExactMatrix._of(np.column_stack([ints, column]), dens)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._dens == other._dens and np.array_equal(self._ints, other._ints)

    def __hash__(self):
        return hash((self._ints.shape, self._dens))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"


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

    All numerators, scaled to the lcm L of the denominators, are written in
    one assignment: term t of the block at column s fills row
    ``_shift(t, degree)[j]`` of column s + j.  Dividing each nonzero row by
    its gcd with L leaves the canonical form, so the result equals
    ``ExactMatrix.from_columns`` of the Fraction columns.
    """
    gens = list(generators)
    if keep is not None and len(keep) != len(gens):
        raise ValueError("keep needs one list per generator")
    sub = _ring(degree).sub
    rows = len(_mono_index(degree)[0])
    blocks = [len(_mono_index(sub(degree, gen.degree))[0]) for gen in gens]
    starts = list(accumulate(blocks, initial=0))
    scale = math.lcm(*(gen.den for gen in gens))
    values = [num * f for gen in gens for f in [scale // gen.den] for num in gen.nums.values()]
    wide = values and max(map(abs, values)).bit_length() > 63
    arr = np.zeros((rows, starts[-1]), dtype=object if wide else np.int64)
    shifts = (_shift(t, degree) for gen, b in zip(gens, blocks) if b for t in gen.nums)
    at = np.fromiter(chain.from_iterable(shifts), np.intp)
    spans = np.array([blocks, starts[:-1]], dtype=np.intp)
    widths, firsts = spans.repeat([len(gen.nums) for gen in gens], axis=1)
    # Entry j of a term whose block starts at column s goes to column s + j.
    cols = np.arange(at.size) - (widths.cumsum() - widths - firsts).repeat(widths)
    arr[at, cols] = np.array(values, dtype=arr.dtype).repeat(widths)
    if keep is not None:
        arr = arr[:, [s + m for s, kept in zip(starts, keep) for m in kept]]
    dens = [1] * rows
    if scale > 1:
        live = np.flatnonzero(arr.any(1))
        gcds = np.gcd.reduce(arr[live], axis=1).tolist()
        # L may exceed int64, so each distinct row gcd meets it in Python once.
        divisor = {g: math.gcd(g, scale) for g in set(gcds)}
        arr[live] //= np.array([divisor[g] for g in gcds], dtype=arr.dtype)[:, None]
        for i, g in zip(live.tolist(), gcds):
            dens[i] = scale // divisor[g]
    return ExactMatrix._of(arr, dens)


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
    if all(type(e) is int for e in row):
        return tuple(row), 1
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
    """Whether rows @ x == 0, decided in Python ints on x's cleared form;
    only the columns in x's support leave the array."""
    support = {j: e for j, e in enumerate(_clear(x)[0]) if e}
    return not any(sum(map(mul, row, support.values())) for row in rows[:, list(support)].tolist())


def _integer_array(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """Integer rows as one int64 array in one numpy call, or, when some entry
    does not fit in int64 (``OverflowError``), as an array of Python ints."""
    try:
        return np.asarray(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def _modp_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix modulo 2^31 - 1 (a lower bound on the rank).

    The matrix is reduced mod p in one numpy call; only when some entry does
    not fit in int64 is each entry reduced in Python.  Each pivot step
    updates only the rows below the pivot whose entry in the pivot column is
    nonzero: for any other row the dense update subtracts 0.
    """
    p = _FAST_PRIME
    arr = (_integer_array(rows) % p).astype(np.int64, copy=False)
    n, width = arr.shape
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


def rank(M: ExactMatrix, kernel: Optional[Callable[[], Sequence[Sequence[int]]]] = None) -> int:
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
    M is known to kill, such as the kernel columns that syzygies of a
    multiplication matrix's generators give.  It is called only when the
    two bounds differ.  Once M @ K == 0 is re-checked in integers,
    rank(M) <= cols - rank(K) <= cols - rank_p(K), so when that meets the
    lower bound the rank is exact; otherwise Bareiss decides on the core.
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
            if not all(len(v) == M.cols and _annihilates(M.ints, v) for v in vectors):
                raise CertificateError("syzygy vectors must lie in the kernel")
            if vectors and lower + _modp_rank(vectors) == M.cols:
                return lower
        _, pivots, _ = _bareiss_echelon(core.tolist())
        return peeled + len(pivots)
    _, pivots, _ = _bareiss_echelon(M.ints.tolist())
    return len(pivots)


def _kernel(arr: np.ndarray, cols: int) -> Iterator[Vector]:
    """Right kernel basis of an integer array of ``cols`` columns, each vector
    re-checked as it is yielded: a caller pays only for the vectors it takes.

    Free column f gives x_f = 1, 0 on the other free columns, and -y on the
    pivot columns left of f, where column f is y @ those pivot columns.  The
    free column f hosts no pivot, so only the rows of the pivots left of f are
    nonzero up to f, and ``_solve`` on them solves the whole system.
    """
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
    return list(_kernel(M.ints, M.cols))


def in_column_space(M: ExactMatrix, v: Sequence) -> Membership:
    """Decide v in col-span(M) with a re-verified certificate either way.

    v is a member exactly when its column hosts no pivot of the rows of
    (M | v) below the peel's pivots, the only rows eliminated.  A member's
    preimage is back-substituted through their echelon and then the pivot
    rows; a non-member's functional is the first left-kernel vector w with
    w @ v != 0, solved on M's pivot columns of that echelon.
    """
    arr = M.augment_column(v).ints
    rows, cols, k, _, _ = _peeled_core(arr[:, :-1])
    order = np.append(cols, M.cols)
    below, pivots, _ = _bareiss_echelon(arr[rows[k:]][:, order].tolist())
    if pivots and pivots[-1][1] == M.cols:
        for w in _left_kernel(M, cols[[c for _, c in pivots[:-1]]]):
            if sum(wi * _rat(vi) for wi, vi in zip(w, v) if wi):
                return Membership(member=False, preimage=None, functional=w)
        raise CertificateError("a non-member must have a separating functional")
    echelon = arr[rows[:k]][:, order].tolist() + below
    x = _solve(echelon, [(j, j) for j in range(k)] + [(k + r, c) for r, c in pivots], M.cols)
    pre = tuple(x[j] for j in np.argsort(cols).tolist())
    # M @ pre == v exactly when (M | v) @ (pre, -1) == 0.
    if not _annihilates(arr, pre + (-1,)):
        raise CertificateError("preimage must verify")
    return Membership(member=True, preimage=pre, functional=None)


def _left_kernel(M: ExactMatrix, span: Optional[np.ndarray] = None) -> Iterator[Vector]:
    """Left kernel basis of M, each vector re-checked against every column.

    Since S is invertible, a left-kernel vector w is zero on the pivot rows:
    t = w / dens is a kernel vector of the transpose of the rows below them
    on the core's columns, or on the columns ``span`` that span those.
    """
    arr = M.ints
    rows, cols, k, _, b = _peeled_core(arr)
    below = arr[rows[k:]][:, cols[k:k + b] if span is None else span]
    for s in _kernel(below.T, M.rows - k):
        t = np.full(M.rows, _ZERO, dtype=object)
        t[rows[k:]] = s
        if not _annihilates(arr.T, t):
            raise CertificateError("left kernel vector must verify")
        yield tuple(ti * di if ti else ti for ti, di in zip(t, M.dens))


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
    free = {max(j for j, e in enumerate(vec) if e): vec for vec in _kernel(M.ints, M.cols)}
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
