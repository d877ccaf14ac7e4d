"""Exact linear algebra: ranks, kernels, membership certificates."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detrep.linalg as la
from detrep.linalg import (
    ExactMatrix,
    in_column_space,
    kernel_basis,
    left_kernel_basis,
    rank,
    report,
    rref,
)


def frac_matrix(rows):
    return ExactMatrix.from_rows([[Fraction(e) for e in row] for row in rows])


def test_rank_hand_examples():
    assert rank(frac_matrix([[1, 0], [0, 1]])) == 2
    assert rank(frac_matrix([[1, 2], [2, 4]])) == 1
    assert rank(frac_matrix([[0, 0], [0, 0]])) == 0
    assert rank(frac_matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2


def test_rank_rational_entries():
    m = frac_matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]])
    assert rank(m) == 1


def test_rank_of_transpose_equal():
    rng = random.Random(11)
    for _ in range(20):
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(4)] for _ in range(3)]
        m = ExactMatrix.from_rows(rows)
        assert rank(m) == rank(m.transpose())


def test_rank_invariant_under_row_permutation():
    rng = random.Random(12)
    for _ in range(20):
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(5)] for _ in range(4)]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rank(ExactMatrix.from_rows(rows)) == rank(ExactMatrix.from_rows(shuffled))


def test_fast_path_and_bareiss_agree():
    # same verdicts with the residue shortcut on and off
    rng = random.Random(13)
    mats = []
    for _ in range(25):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        mats.append(
            ExactMatrix.from_rows(
                [[Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(c)] for _ in range(r)]
            )
        )
    # a few deliberately singular ones
    mats.append(frac_matrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]]))
    mats.append(ExactMatrix.zero(4, 4))
    old = la.USE_MODP_FAST_PATH
    try:
        ranks_fast = []
        la.USE_MODP_FAST_PATH = True
        ranks_fast = [rank(m) for m in mats]
        la.USE_MODP_FAST_PATH = False
        ranks_exact = [rank(m) for m in mats]
    finally:
        la.USE_MODP_FAST_PATH = old
    assert ranks_fast == ranks_exact


def test_kernel_vectors_annihilate():
    m = frac_matrix([[1, 2, 3], [4, 5, 6]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    vec = basis[0]
    assert all(e == 0 for e in m.times_vector(vec))


def test_kernel_dimension_rank_nullity():
    rng = random.Random(14)
    for _ in range(15):
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(5)] for _ in range(3)]
        m = ExactMatrix.from_rows(rows)
        assert rank(m) + len(kernel_basis(m)) == 5


def test_full_rank_kernel_trivial():
    assert kernel_basis(frac_matrix([[2, 0], [0, 3]])) == []


def test_membership_with_preimage():
    m = frac_matrix([[1, 0], [0, 1], [1, 1]])
    v = (Fraction(2), Fraction(3), Fraction(5))
    res = in_column_space(m, v)
    assert res.member
    assert m.times_vector(res.preimage) == v


def test_non_membership_functional_certificate():
    m = frac_matrix([[1, 0], [0, 1], [1, 1]])
    v = (Fraction(1), Fraction(1), Fraction(3))
    res = in_column_space(m, v)
    assert not res.member
    w = res.functional
    # w kills every column but not v
    assert all(e == 0 for e in m.left_times_vector(w))
    assert sum(wi * vi for wi, vi in zip(w, v)) != 0


def test_membership_random_consistency():
    # v built from columns is a member; rank-increasing v is not
    rng = random.Random(15)
    for _ in range(10):
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(3)] for _ in range(4)]
        m = ExactMatrix.from_rows(rows)
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        v = m.times_vector(tuple(coeffs))
        assert in_column_space(m, v).member


def test_rref_pivots_normalized():
    m = frac_matrix([[2, 4, 2], [1, 3, 3]])
    rows, pivots = rref(m)
    assert pivots == [0, 1]
    for r, c in enumerate(pivots):
        assert rows[r][c] == 1
        for other in range(len(rows)):
            if other != r:
                assert rows[other][c] == 0


def test_report_surjective_and_witness():
    wide = frac_matrix([[1, 0, 2], [0, 1, 1]])
    rep = report(wide)
    assert rep.surjective
    assert rep.rank == 2
    tall = frac_matrix([[1, 0], [0, 1], [1, 1]])
    rep2 = report(tall)
    assert not rep2.surjective
    w = rep2.cokernel_witness
    assert w is not None
    assert all(e == 0 for e in tall.left_times_vector(w))


def test_left_kernel_annihilates_rows():
    m = frac_matrix([[1, 2], [2, 4], [0, 1]])
    for w in left_kernel_basis(m):
        assert all(e == 0 for e in m.left_times_vector(w))
    assert len(left_kernel_basis(m)) == 3 - rank(m)


def reference_int_rows(M):
    """Row-wise lcm of denominators, then int(e * lcm) in Fraction arithmetic."""
    out, scales = [], []
    for row in M.entries:
        mult = 1
        for e in row:
            mult = math.lcm(mult, e.denominator)
        out.append([int(e * mult) for e in row])
        scales.append(mult)
    return out, scales


def test_int_rows_match_fraction_scaling():
    rng = random.Random("int-rows")
    cases = [
        ExactMatrix.from_rows([
            [Fraction(1, 2), Fraction(-2, 3), Fraction(5), Fraction(-7, 12)],
            [Fraction(0), Fraction(0), Fraction(0), Fraction(0)],
            [Fraction(-3, 4), Fraction(9, 10), Fraction(-1, 15), Fraction(2)],
        ]),
        ExactMatrix.from_rows([[0, 0], [0, 0]]),
        ExactMatrix.from_rows([[], [], []]),
        ExactMatrix.from_rows([
            [Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(7)]
            for _ in range(6)
        ]),
    ]
    for M in cases:
        rows, scales = la._int_rows(M)
        assert (rows, scales) == reference_int_rows(M)
        assert all(type(e) is int for row in rows for e in row)
    assert la._int_rows(cases[2]) == ([[], [], []], [1, 1, 1])


entry = st.integers(min_value=-7, max_value=7)


@settings(max_examples=40)
@given(st.lists(st.lists(entry, min_size=3, max_size=3), min_size=2, max_size=4))
def test_rank_bounded_by_dims(rows):
    m = ExactMatrix.from_rows([[Fraction(e) for e in row] for row in rows])
    r = rank(m)
    assert 0 <= r <= min(m.rows, m.cols)


@settings(max_examples=40)
@given(st.lists(st.lists(entry, min_size=4, max_size=4), min_size=4, max_size=4))
def test_duplicating_a_row_preserves_rank(rows):
    m = ExactMatrix.from_rows([[Fraction(e) for e in row] for row in rows])
    doubled = ExactMatrix.from_rows([list(m.entries[0])] + [list(r) for r in m.entries])
    assert rank(doubled) == rank(m)
