"""Exact linear algebra over the rationals with verifiable verdicts.

Everything here returns exact answers.  The workhorse is fraction-free
(Bareiss) elimination over the integers after clearing denominators row by
row; pivoting is deterministic (first nonzero entry in column order), so
identical inputs give bit-identical outputs.

``rank`` carries one internal shortcut: the matrix is first eliminated modulo
the prime 2^31 - 1.  A full-rank outcome there exhibits a nonzero minor mod p,
and an integer minor that is nonzero mod p is nonzero, so that verdict is
already exact.  Any deficient outcome is recomputed by integer Bareiss, which
is the sole authority for deficient ranks.

Membership and surjectivity verdicts come with certificates (a preimage or a
cokernel functional) that are re-verified against the original matrix before
being returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

Vector = Tuple[Fraction, ...]

_FAST_PRIME = 2**31 - 1
# Tests may flip this to exercise the pure-Bareiss path.
USE_MODP_FAST_PATH = True


def _rat(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class ExactMatrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(tuple(_rat(e) for e in row) for row in entries)
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
        self.entries = rows

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> ExactMatrix:
        return ExactMatrix(rows)

    @staticmethod
    def from_columns(cols: Sequence[Sequence], rows: int | None = None) -> ExactMatrix:
        cols = [tuple(col) for col in cols]
        if cols:
            rows = len(cols[0])
        elif rows is None:
            raise ValueError("row count is ambiguous for an empty column list")
        return ExactMatrix([[col[i] for col in cols] for i in range(rows)])

    @staticmethod
    def zero(rows: int, cols: int) -> ExactMatrix:
        return ExactMatrix([[0] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> ExactMatrix:
        return ExactMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def transpose(self) -> ExactMatrix:
        return ExactMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def augment_column(self, v: Sequence) -> ExactMatrix:
        if len(v) != self.rows:
            raise ValueError("column length does not match row count")
        return ExactMatrix(
            [list(self.entries[i]) + [v[i]] for i in range(self.rows)]
        )

    def times_vector(self, v: Sequence) -> Vector:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        vv = [_rat(e) for e in v]
        return tuple(
            sum((self.entries[i][j] * vv[j] for j in range(self.cols)), Fraction(0))
            for i in range(self.rows)
        )

    def left_times_vector(self, w: Sequence) -> Vector:
        if len(w) != self.rows:
            raise ValueError("vector length does not match row count")
        ww = [_rat(e) for e in w]
        return tuple(
            sum((ww[i] * self.entries[i][j] for i in range(self.rows)), Fraction(0))
            for j in range(self.cols)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"


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


def _int_rows(M: ExactMatrix) -> Tuple[List[List[int]], List[int]]:
    """Clear denominators row by row; returns integer rows and the scalars."""
    out: List[List[int]] = []
    scales: List[int] = []
    for row in M.entries:
        mult = math.lcm(*[e.denominator for e in row])
        out.append([e.numerator * (mult // e.denominator) for e in row])
        scales.append(mult)
    return out, scales


def _bareiss_echelon(
    rows: List[List[int]], pivot_cols: int, track: bool = False
) -> Tuple[List[List[int]], List[Tuple[int, int]], Optional[List[List[int]]]]:
    """Fraction-free row echelon form.

    Only the first ``pivot_cols`` columns are eligible to host pivots; all
    columns (including any caller-appended ones) are updated.  Returns the
    echelon rows, the (row, col) pivot list, and, when ``track`` is set, the
    row-operation tracker T with T @ input == echelon (up to the Bareiss row
    scalings, which never change row spans or zero patterns).
    """
    work = [list(r) for r in rows]
    n = len(work)
    width = len(work[0]) if work else 0
    tracker = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if track else None
    pivots: List[Tuple[int, int]] = []
    prev = 1
    r = 0
    for col in range(min(pivot_cols, width)):
        if r == n:
            break
        piv_row = None
        for i in range(r, n):
            if work[i][col]:
                piv_row = i
                break
        if piv_row is None:
            continue
        if piv_row != r:
            work[r], work[piv_row] = work[piv_row], work[r]
            if tracker is not None:
                tracker[r], tracker[piv_row] = tracker[piv_row], tracker[r]
        piv = work[r][col]
        row_r = work[r]
        for i in range(r + 1, n):
            row_i = work[i]
            f = row_i[col]
            for j in range(col + 1, width):
                num = piv * row_i[j] - f * row_r[j]
                q, rem = divmod(num, prev)
                assert rem == 0, "Bareiss division must be exact"
                row_i[j] = q
            row_i[col] = 0
            if tracker is not None:
                trk_i, trk_r = tracker[i], tracker[r]
                for j in range(n):
                    num = piv * trk_i[j] - f * trk_r[j]
                    q, rem = divmod(num, prev)
                    assert rem == 0, "Bareiss division must be exact"
                    trk_i[j] = q
        prev = piv
        pivots.append((r, col))
        r += 1
    return work, pivots, tracker


def _modp_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix modulo 2^31 - 1 (a lower bound on the rank)."""
    p = _FAST_PRIME
    n = len(rows)
    if n == 0:
        return 0
    arr = np.array([[e % p for e in row] for row in rows], dtype=np.int64)
    width = arr.shape[1]
    r = 0
    for col in range(width):
        if r == n:
            break
        nz = np.nonzero(arr[r:, col])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            arr[[r, i]] = arr[[i, r]]
        inv = pow(int(arr[r, col]), p - 2, p)
        if r + 1 < n:
            factors = (arr[r + 1 :, col] * inv) % p
            # entries < p and factors < p, so products stay below 2^62 < int64 max
            arr[r + 1 :, col:] = (arr[r + 1 :, col:] - factors[:, None] * arr[r, col:]) % p
        r += 1
    return r


# ---------------------------------------------------------------------------
# Public verdicts
# ---------------------------------------------------------------------------


def rank(M: ExactMatrix) -> int:
    """Exact rank over the rationals."""
    if M.rows == 0 or M.cols == 0:
        return 0
    introws, _ = _int_rows(M)
    if USE_MODP_FAST_PATH:
        fast = _modp_rank(introws)
        if fast == min(M.rows, M.cols):
            return fast
    _, pivots, _ = _bareiss_echelon(introws, M.cols)
    return len(pivots)


def kernel_basis(M: ExactMatrix) -> List[Vector]:
    """Deterministic basis of the right kernel, each vector verified."""
    if M.cols == 0:
        return []
    if M.rows == 0:
        basis = [
            tuple(Fraction(1 if j == f else 0) for j in range(M.cols))
            for f in range(M.cols)
        ]
        return basis
    introws, _ = _int_rows(M)
    echelon, pivots, _ = _bareiss_echelon(introws, M.cols)
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(M.cols) if c not in pivot_cols]
    basis: List[Vector] = []
    for f in free_cols:
        x = [Fraction(0)] * M.cols
        x[f] = Fraction(1)
        for r, c in reversed(pivots):
            if c > f:
                continue
            row = echelon[r]
            s = sum((Fraction(row[j]) * x[j] for j in range(c + 1, M.cols)), Fraction(0))
            x[c] = -s / row[c]
        vec = tuple(x)
        assert all(e == 0 for e in M.times_vector(vec)), "kernel vector must verify"
        basis.append(vec)
    return basis


def in_column_space(M: ExactMatrix, v: Sequence) -> Membership:
    """Decide v in col-span(M) with a re-verified certificate either way."""
    vv = tuple(_rat(e) for e in v)
    if len(vv) != M.rows:
        raise ValueError("vector length does not match row count")
    aug = M.augment_column(vv)
    introws, scales = _int_rows(aug)
    echelon, pivots, tracker = _bareiss_echelon(introws, M.cols, track=True)
    rank_m = len(pivots)
    # v lies in the span iff no leftover row has a nonzero entry in v's column.
    bad_row = None
    for i in range(rank_m, len(echelon)):
        if echelon[i][M.cols]:
            bad_row = i
            break
    if bad_row is not None:
        w = tuple(Fraction(tracker[bad_row][i] * scales[i]) for i in range(M.rows))
        assert any(e != 0 for e in w)
        assert all(e == 0 for e in M.left_times_vector(w)), "functional must kill M"
        pairing = sum((w[i] * vv[i] for i in range(M.rows)), Fraction(0))
        assert pairing != 0, "functional must separate v"
        return Membership(member=False, preimage=None, functional=w)
    x = [Fraction(0)] * M.cols
    for r, c in reversed(pivots):
        row = echelon[r]
        s = sum((Fraction(row[j]) * x[j] for j in range(c + 1, M.cols)), Fraction(0))
        x[c] = (Fraction(row[M.cols]) - s) / row[c]
    pre = tuple(x)
    assert M.times_vector(pre) == vv, "preimage must verify"
    return Membership(member=True, preimage=pre, functional=None)


def left_kernel_basis(M: ExactMatrix) -> List[Vector]:
    """Basis of the left kernel (functionals vanishing on the column space)."""
    if M.rows == 0:
        return []
    introws, scales = _int_rows(M)
    echelon, pivots, tracker = _bareiss_echelon(introws, M.cols, track=True)
    out: List[Vector] = []
    for i in range(len(pivots), M.rows):
        w = tuple(Fraction(tracker[i][j] * scales[j]) for j in range(M.rows))
        assert all(e == 0 for e in M.left_times_vector(w))
        assert any(e != 0 for e in w)
        out.append(w)
    return out


def rref(M: ExactMatrix) -> Tuple[List[Vector], List[int]]:
    """Reduced row echelon form over the rationals.

    Returns the nonzero rows (pivot entries normalized to 1, pivot columns
    cleared elsewhere) and the pivot column indices, both deterministic.
    """
    rows = [list(row) for row in M.entries]
    pivots: List[int] = []
    r = 0
    for col in range(M.cols):
        if r == len(rows):
            break
        piv_row = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                piv_row = i
                break
        if piv_row is None:
            continue
        rows[r], rows[piv_row] = rows[piv_row], rows[r]
        piv = rows[r][col]
        rows[r] = [e / piv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return [tuple(row) for row in rows[:r]], pivots


def report(M: ExactMatrix) -> LinearMapReport:
    """Surjectivity report for the linear map with matrix M.

    The map goes from Q^cols to Q^rows; surjectivity means full row rank.
    Non-surjective maps come with a cokernel functional, re-verified.
    """
    r = rank(M)
    surjective = r == M.rows
    witness: Optional[Vector] = None
    if not surjective:
        witness = left_kernel_basis(M)[0]
    return LinearMapReport(
        domain_dim=M.cols,
        target_dim=M.rows,
        rank=r,
        surjective=surjective,
        cokernel_witness=witness,
    )
