"""Exact linear algebra: ranks, kernels, membership certificates."""

import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detrep.linalg as la
from detrep.ideals import mult_map_matrix, u_generators
from detrep.linalg import (
    ExactMatrix,
    in_column_space,
    kernel_basis,
    left_kernel_basis,
    rank,
    report,
    rref,
)
from detrep.bundles import T
from detrep.detmatrix import Section
from detrep.polynomials import BigradedPoly, HomPoly, bimono_basis, h0_p2, mono_basis
from detrep.tangent import tangent_map
from oracles import left_times, multiple_columns, times


def frac_matrix(rows):
    return ExactMatrix([[Fraction(e) for e in row] for row in rows])


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
        m = ExactMatrix(rows)
        assert rank(m) == rank(ExactMatrix.from_columns(m.entries))


def test_rank_invariant_under_row_permutation():
    rng = random.Random(12)
    for _ in range(20):
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(5)] for _ in range(4)]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rank(ExactMatrix(rows)) == rank(ExactMatrix(shuffled))


def test_fast_path_and_bareiss_agree():
    # same verdicts with the residue shortcut on and off
    rng = random.Random(13)
    mats = []
    for _ in range(25):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        mats.append(
            ExactMatrix(
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


# ------------------------------------------------- the peel
#
# rank peels singleton and zero lines before the sweep; every rank must be
# the one pure Bareiss gives.


WIDE = [2**63 - 1, -(2**63 - 1), -(2**63), 2**63, 2**70, -(2**70)]


def peel_pool():
    """Seeded matrices [[B, X], [0, C]] with their lines shuffled and zero
    lines added: B upper bidiagonal, a chain whose column singletons appear
    one at a time, and C a core of sparse or dense entries or of low rank.
    Some nonzeros are widened past 63 bits."""
    rng = random.Random("peel")
    pool = []
    for trial in range(400):
        chain, rows, cols = rng.randint(0, 5), rng.randint(0, 6), rng.randint(0, 6)
        if trial % 4 == 0:
            r = rng.randint(0, min(rows, cols))
            left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(rows)]
            right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(r)]
            core = [[sum(a * right[t][j] for t, a in enumerate(row)) for j in range(cols)] for row in left]
        else:
            density = [1.0, 0.5, 0.25][trial % 3]
            core = [[rng.choice([-2, -1, 1, 3]) if rng.random() < density else 0 for _ in range(cols)]
                    for _ in range(rows)]
        m = [[0] * (chain + cols) for _ in range(chain + rows)]
        for i in range(chain):
            m[i][i] = rng.choice([-1, 1, 2])
            if i + 1 < chain:
                m[i][i + 1] = rng.choice([-1, 1, 5])
            for j in range(cols):
                m[i][chain + j] = rng.choice([0, 0, 1, -4])
        for i, row in enumerate(core):
            m[chain + i][chain:] = row
        m += [[0] * (chain + cols) for _ in range(rng.randint(0, 2))]
        m = [row + [0] * extra for extra in [rng.randint(0, 1)] for row in m]
        if not m or not m[0]:
            continue
        if trial % 5 == 2:
            spots = [(i, j) for i, row in enumerate(m) for j, e in enumerate(row) if e]
            for i, j in rng.sample(spots, min(len(spots), 3)):
                m[i][j] = rng.choice(WIDE)
        pool.append(shuffled(rng, m))
    # Transposes of staircases the column peel takes whole: r x (r + s),
    # upper triangular with a nonzero diagonal and superdiagonal and no zero
    # column.  Each transpose's only singletons are row singletons, so the
    # peel leaves it whole to the sweep.
    for _ in range(40):
        r, s = rng.randint(1, 6), rng.randint(1, 3)
        m = [[0] * (r + s) for _ in range(r)]
        for i in range(r):
            m[i][i], m[i][i + 1] = rng.choice([-1, 1, 2]), rng.choice([-1, 1, 5])
            for j in range(i + 2, r + s):
                m[i][j] = rng.choice([0, 0, 1, -4])
        for j in range(r + 1, r + s):
            m[rng.randrange(r)][j] = rng.choice([3, -2])
        if rng.random() < 0.2:
            i, j = rng.choice([(i, j) for i, row in enumerate(m) for j, e in enumerate(row) if e])
            m[i][j] = rng.choice(WIDE)
        pool.append(shuffled(rng, [list(col) for col in zip(*m)]))
    return pool


def shuffled(rng, m):
    """The matrix with its rows and its columns shuffled."""
    rng.shuffle(m)
    order = list(range(len(m[0])))
    rng.shuffle(order)
    return ExactMatrix([[row[j] for j in order] for row in m])


def peeled(m):
    """The peel's pivot count and the core ``rank`` sweeps, sliced from the
    peel's re-checked orders."""
    rows, cols, k, a, b = la._peeled_core(m.ints)
    return k, m.ints[rows[k:k + a]][:, cols[k:k + b]]


def test_peeled_rank_matches_bareiss(monkeypatch):
    pool = peel_pool()
    monkeypatch.setattr(la, "USE_MODP_FAST_PATH", False)
    wants = [rank(m) for m in pool]
    monkeypatch.setattr(la, "USE_MODP_FAST_PATH", True)
    assert [rank(m) for m in pool] == wants
    # The pool reaches every outcome: peeled whole, a core left, a matrix the
    # peel leaves alone, one it leaves alone despite its row singletons, a
    # deficient rank, and entries past int64.
    peels = [peeled(m) for m in pool]
    assert any(k and core.size == 0 for k, core in peels)
    assert any(k and core.size for k, core in peels)
    assert any(core.shape == (m.rows, m.cols) for m, (_, core) in zip(pool, peels))
    assert any(
        core.shape == (m.rows, m.cols) and min(sum(map(bool, row)) for row in m.ints) == 1
        for m, (_, core) in zip(pool, peels)
    )
    assert sum(want < min(m.rows, m.cols) for m, want in zip(pool, wants)) > 50
    assert any(la._integer_array(m.ints).dtype == object for m in pool)


def test_special_pair_ranks_need_no_elimination(monkeypatch):
    # The monomial special pair at k = 3, 5, 7: its mult and augmented tangent
    # matrices peel whole, so neither the sweep nor Bareiss runs on them.
    def refuse(*args):
        raise AssertionError("eliminated")

    for k, want in ((3, 54), (5, 126), (7, 225)):
        n = (3 * k - 3) // 2
        zero = HomPoly.zero(n + 1)
        f = (HomPoly.monomial((0, 0, n + 1)), HomPoly.monomial((n + 1, 0, 0)), zero)
        g = (zero, HomPoly.monomial((0, 0, n + 1)), HomPoly.monomial((0, n + 1, 0)))
        bundle = T(n)
        report = tangent_map(bundle, Section(bundle, f), Section(bundle, g))
        mult = mult_map_matrix(u_generators(f, g, n=n))
        tangent = report.matrix.augment_column(report.curve.num_vector())
        with monkeypatch.context() as mp:
            mp.setattr(la, "_modp_rank", refuse)
            mp.setattr(la, "_bareiss_echelon", refuse)
            assert rank(mult) == rank(tangent) == report.augmented_rank == want


# ------------------------------------------------- syzygy upper bounds
#
# rank(M, kernel) against pure Bareiss: vectors M kills bound the rank from
# above, and a deficient rank is exact where that bound meets the sweep's.


def integer_kernel(m):
    """The kernel basis of m, each vector scaled to integers."""
    out = []
    for vec in kernel_basis(m):
        den = math.lcm(*(e.denominator for e in vec))
        out.append(tuple(int(e * den) for e in vec))
    return out


def deficient_pool():
    """Seeded matrices of rank below min(rows, cols): a product of random
    rows x r and r x cols factors, each row over its own denominator."""
    rng = random.Random("syzygy-bound")
    pool = []
    while len(pool) < 40:
        rows, cols = rng.randint(1, 7), rng.randint(2, 8)
        r = rng.randint(0, min(rows, cols) - 1)
        left = [[rng.randint(-5, 5) for _ in range(r)] for _ in range(rows)]
        right = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(r)]
        pool.append(ExactMatrix([
            [Fraction(sum(a * right[t][j] for t, a in enumerate(row)), den) for j in range(cols)]
            for row, den in ((row, rng.choice([1, 1, 2, 3, 35])) for row in left)
        ]))
    return pool


def bareiss_rank(m, monkeypatch):
    monkeypatch.setattr(la, "USE_MODP_FAST_PATH", False)
    want = rank(m)
    monkeypatch.setattr(la, "USE_MODP_FAST_PATH", True)
    return want


def test_a_whole_kernel_decides_a_deficient_rank_without_bareiss(monkeypatch):
    pool = deficient_pool()
    wants = [bareiss_rank(m, monkeypatch) for m in pool]
    kernels = [integer_kernel(m) for m in pool]

    def refuse(*args):
        raise AssertionError("Bareiss ran")

    monkeypatch.setattr(la, "_bareiss_echelon", refuse)
    for m, want, kern in zip(pool, wants, kernels):
        assert want < min(m.rows, m.cols)
        # repeats and a scaled copy leave the bound as it is
        padded = kern + kern[:1] + [tuple(-3 * e for e in v) for v in kern[1:2]]
        assert rank(m, kernel=lambda: kern) == want
        assert rank(m, kernel=lambda: padded) == want


def test_a_partial_kernel_falls_back_and_agrees(monkeypatch):
    calls = []
    real = la._bareiss_echelon

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(la, "_bareiss_echelon", counted)
    pool, fell_back = deficient_pool(), 0
    for m in pool:
        want = bareiss_rank(m, monkeypatch)
        kern = integer_kernel(m)
        # Bareiss runs exactly when the peeled core stays deficient mod p.
        _, core = peeled(m)
        deficient = core.size > 0 and la._modp_rank(core) < min(core.shape)
        fell_back += deficient
        for given in (kern[:-1], [], [(0,) * m.cols]):
            calls.clear()
            assert rank(m, kernel=lambda: given) == want
            assert len(calls) == deficient
    assert 0 < fell_back < len(pool)  # the fallback stays covered


def test_kernel_is_asked_for_only_on_a_deficient_sweep(monkeypatch):
    asked = []

    def kernel():
        asked.append(1)
        return []

    assert rank(frac_matrix([[1, 0], [0, 1], [1, 1]]), kernel=kernel) == 2
    assert rank(ExactMatrix.zero(0, 3), kernel=kernel) == 0
    assert asked == []
    monkeypatch.setattr(la, "USE_MODP_FAST_PATH", False)
    assert rank(frac_matrix([[1, 2], [2, 4]]), kernel=kernel) == 1
    assert asked == []
    monkeypatch.setattr(la, "USE_MODP_FAST_PATH", True)
    assert rank(frac_matrix([[1, 2], [2, 4]]), kernel=kernel) == 1
    assert asked == [1]


@pytest.mark.parametrize("vectors", [[(1, 0)], [(1, -1), (1, 0)], [(1, -1, 0)], [(1,)]],
                         ids=["outside", "one-outside", "too-long", "too-short"])
def test_a_vector_the_matrix_does_not_kill_is_a_defect(vectors):
    with pytest.raises(la.CertificateError, match="syzygy"):
        rank(frac_matrix([[1, 1], [1, 1]]), kernel=lambda: vectors)


def test_kernel_vectors_annihilate():
    m = frac_matrix([[1, 2, 3], [4, 5, 6]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    vec = basis[0]
    assert all(e == 0 for e in times(m, vec))


def test_kernel_dimension_rank_nullity():
    rng = random.Random(14)
    for _ in range(15):
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(5)] for _ in range(3)]
        m = ExactMatrix(rows)
        assert rank(m) + len(kernel_basis(m)) == 5


def test_full_rank_kernel_trivial():
    assert kernel_basis(frac_matrix([[2, 0], [0, 3]])) == []


def test_membership_with_preimage():
    m = frac_matrix([[1, 0], [0, 1], [1, 1]])
    v = (Fraction(2), Fraction(3), Fraction(5))
    res = in_column_space(m, v)
    assert res.member
    assert times(m, res.preimage) == v


def test_non_membership_functional_certificate():
    m = frac_matrix([[1, 0], [0, 1], [1, 1]])
    v = (Fraction(1), Fraction(1), Fraction(3))
    res = in_column_space(m, v)
    assert not res.member
    w = res.functional
    # w kills every column but not v
    assert all(e == 0 for e in left_times(w, m))
    assert sum(wi * vi for wi, vi in zip(w, v)) != 0


def test_membership_random_consistency():
    # v built from columns is a member; rank-increasing v is not
    rng = random.Random(15)
    for _ in range(10):
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(3)] for _ in range(4)]
        m = ExactMatrix(rows)
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        v = times(m, tuple(coeffs))
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


def test_report_surjective_and_witness(monkeypatch):
    wide = frac_matrix([[1, 0, 2], [0, 1, 1]])
    rep = report(wide)
    assert rep.surjective
    assert rep.rank == 2
    tall = frac_matrix([[1, 0], [0, 1], [1, 1]])
    rep2 = report(tall)
    assert not rep2.surjective
    w = rep2.cokernel_witness
    assert w is not None
    assert all(e == 0 for e in left_times(w, tall))
    # With a left kernel of dimension 2, only the one witness is solved for.
    taller = frac_matrix([[1, 0], [0, 1], [1, 1], [2, 3]])
    assert len(left_kernel_basis(taller)) == 2
    solves = []
    original = la._solve

    def counting_solve(*args):
        solves.append(args)
        return original(*args)

    monkeypatch.setattr(la, "_solve", counting_solve)
    rep3 = report(taller)
    assert len(solves) == 1
    assert all(e == 0 for e in left_times(rep3.cokernel_witness, taller))
    assert rep3.cokernel_witness == left_kernel_basis(taller)[0]


def test_left_kernel_annihilates_rows():
    m = frac_matrix([[1, 2], [2, 4], [0, 1]])
    for w in left_kernel_basis(m):
        assert all(e == 0 for e in left_times(w, m))
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


def test_stored_rows_are_the_canonical_cleared_rows():
    rng = random.Random("int-rows")
    cases = [
        ExactMatrix([
            [Fraction(1, 2), Fraction(-2, 3), Fraction(5), Fraction(-7, 12)],
            [Fraction(0), Fraction(0), Fraction(0), Fraction(0)],
            [Fraction(-3, 4), Fraction(9, 10), Fraction(-1, 15), Fraction(2)],
        ]),
        ExactMatrix([[0, 0], [0, 0]]),
        ExactMatrix([[], [], []]),
        ExactMatrix([
            [Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(7)]
            for _ in range(6)
        ]),
    ]
    for M in cases:
        assert (M.ints.tolist(), list(M.dens)) == reference_int_rows(M)
        assert all(type(e) is int for row in M.ints.tolist() for e in row)
        with pytest.raises(ValueError):
            M.ints[...] = 0
    assert (cases[2].ints.tolist(), cases[2].dens) == ([[], [], []], (1, 1, 1))

    # Equal rationals written differently store the same rows.
    a = ExactMatrix([[Fraction(2, 4), 3], ["5/10", Fraction(-4, 6)]])
    b = ExactMatrix([[Fraction(1, 2), Fraction(6, 2)], [Fraction(1, 2), Fraction(-2, 3)]])
    assert a == b and hash(a) == hash(b)
    assert (a.ints.tolist(), a.dens) == ([[1, 6], [3, -4]], (2, 6))

    # Augmenting merges each row's denominator with the new entry's.
    M = cases[0]
    v = [Fraction(1, 5), Fraction(7, 8), Fraction(-5, 4)]
    augmented = M.augment_column(v)
    assert augmented == ExactMatrix([list(row) + [e] for row, e in zip(M.entries, v)])
    assert (augmented.rows, augmented.cols) == (3, 5)
    for v in (v[:2], v + [1]):
        with pytest.raises(ValueError, match="column length"):
            M.augment_column(v)

    empty = ExactMatrix.from_columns([], rows=3)
    assert (empty.rows, empty.cols, empty.ints.tolist()) == (3, 0, [[], [], []])
    with pytest.raises(TypeError):
        ExactMatrix([[1, 0.5]])
    with pytest.raises(ValueError, match="ragged"):
        ExactMatrix([[1, 2], [3]])

    # A matrix cannot be changed.
    for attr in ("rows", "cols", "ints", "dens", "entries", "extra"):
        with pytest.raises(AttributeError):
            setattr(M, attr, 5)
    assert M == cases[0] and (M.rows, M.cols) == (3, 4)


def test_matrices_without_rows_keep_their_columns():
    empty = ExactMatrix.zero(0, 3)
    assert (empty.rows, empty.cols, empty.ints.tolist(), empty.dens) == (0, 3, [], ())
    with pytest.raises(ValueError):
        empty.ints[...] = 1
    assert repr(empty) == "ExactMatrix(0x3)"
    assert empty.__eq__(((0, 0, 0),)) is NotImplemented
    assert empty != ()
    assert ExactMatrix.from_columns([(), ()]) == ExactMatrix.zero(0, 2)
    assert ExactMatrix.from_columns([(), ()], rows=0) == ExactMatrix.zero(0, 2)
    # Columns of different lengths, or of a length other than rows, and no
    # columns without rows, are refused rather than cut or padded.
    for cols, rows in (([(1,), (2, 3)], None), ([(1, 2), (3,)], None), ([(1,), (2,)], 2), ([()], 1), ([], None)):
        with pytest.raises(ValueError):
            ExactMatrix.from_columns(cols, rows=rows)
    assert ExactMatrix.zero(2, 3) == frac_matrix([[0, 0, 0], [0, 0, 0]])
    # Every vector of Q^3 is in the kernel of the map to Q^0.
    assert rank(empty) == 0 and len(kernel_basis(empty)) == 3
    assert in_column_space(empty, []).preimage == (0, 0, 0)
    # Target bases with no monomials: degree -1, bidegree (2, -1).
    for gen, degree, cols in ((HomPoly.zero(-1), -1, 2), (BigradedPoly.zero((1, -1)), (2, -1), 4)):
        built = la.multiplication_matrix([gen, gen], degree)
        assert (built.rows, built.cols) == (0, cols)
        assert built == ExactMatrix.from_columns(multiple_columns([gen, gen], degree))


entry = st.integers(min_value=-7, max_value=7)


@settings(max_examples=40)
@given(st.lists(st.lists(entry, min_size=3, max_size=3), min_size=2, max_size=4))
def test_rank_bounded_by_dims(rows):
    m = ExactMatrix([[Fraction(e) for e in row] for row in rows])
    r = rank(m)
    assert 0 <= r <= min(m.rows, m.cols)


@settings(max_examples=40)
@given(st.lists(st.lists(entry, min_size=4, max_size=4), min_size=4, max_size=4))
def test_duplicating_a_row_preserves_rank(rows):
    m = ExactMatrix([[Fraction(e) for e in row] for row in rows])
    doubled = ExactMatrix([list(m.entries[0])] + [list(r) for r in m.entries])
    assert rank(doubled) == rank(m)


# ---------------------------------------------------------------- the one core
#
# Differential tests of the elimination core against sympy and against
# classic Bareiss, which updates every row below the pivot at every step.


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def seeded_matrices(seed, count):
    """Rational matrices up to 8x8, sparse and dense, with forced zero rows,
    zero columns and dependent rows among them."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        density = rng.choice([0.15, 0.3, 0.6, 1.0])
        m = [
            [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7])) if rng.random() < density else Fraction(0)
             for _ in range(cols)]
            for _ in range(rows)
        ]
        shape = rng.randrange(4)
        if shape == 1:
            m[rng.randrange(rows)] = [Fraction(0)] * cols
        elif shape == 2:
            dead = rng.randrange(cols)
            for row in m:
                row[dead] = Fraction(0)
        elif shape == 3 and rows > 2:
            a, b = rng.sample(range(rows), 2)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            m[rng.randrange(rows)] = [x + c * y for x, y in zip(m[a], m[b])]
        out.append(ExactMatrix(m))
    return out


def to_sympy(sympy, M):
    return sympy.Matrix(M.rows, M.cols, lambda i, j: sympy.Rational(M.entries[i][j].numerator,
                                                                     M.entries[i][j].denominator))


def test_rref_matches_sympy(sympy):
    for M in seeded_matrices("rref-vs-sympy", 150):
        ref, ref_pivots = to_sympy(sympy, M).rref()
        rows, pivots = rref(M)
        assert pivots == list(ref_pivots)
        assert rows == [
            tuple(Fraction(int(e.p), int(e.q)) for e in ref.row(i)) for i in range(len(ref_pivots))
        ]


def test_rref_matches_sympy_on_empty_and_zero_matrices(sympy):
    # seeded_matrices draws no empty dimension and no all-zero 2x2.
    for M in (ExactMatrix.zero(0, 3), ExactMatrix([[], [], []]), ExactMatrix.zero(2, 2)):
        ref, ref_pivots = to_sympy(sympy, M).rref()
        assert rref(M) == ([], list(ref_pivots)) == ([], [])
        assert ref == sympy.zeros(M.rows, M.cols)


def test_augment_column_matches_rebuilt_matrix():
    # Integral entries keep every stored row as it is; entries over a
    # divisor of the row's denominator keep it too; the others rescale it.
    rng = random.Random("augment-column")
    for M in seeded_matrices("augment-column", 120):
        integral = [Fraction(rng.randint(-9, 9)) for _ in range(M.rows)]
        dividing = [Fraction(rng.randint(-9, 9), rng.choice([1, den])) for den in M.dens]
        fractional = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 5, 12])) for _ in range(M.rows)]
        for v in (integral, dividing, fractional):
            augmented = M.augment_column(v)
            assert augmented == ExactMatrix([row + (e,) for row, e in zip(M.entries, v)])
            assert augmented.cols == M.cols + 1


def rationals(sympy, rows, cols, values):
    """The sympy matrix of these Fractions, row by row."""
    return sympy.Matrix(rows, cols, [sympy.Rational(e.numerator, e.denominator) for e in values])


def with_rational_rows(rng, m):
    """m with each row divided by a small denominator; the nonzero pattern,
    and so the peel, is m's."""
    dens = rng.choices([1, 2, 6, 35], k=m.rows)
    return ExactMatrix([[e / d for e in row] for row, d in zip(m.entries, dens)])


def test_certificates_verify_with_sympy_dimensions(sympy):
    rng = random.Random("certificates-vs-sympy")
    # Past the seeded matrices: an M with no columns, one with no rows, and
    # a non-member whose last row lags: it skips both pivot steps of M, then
    # hosts the pivot in v's column.
    extra = {
        ExactMatrix.from_columns([], rows=3): [(1, 0, 2), (0, 0, 0)],
        ExactMatrix.zero(0, 3): [()],
        frac_matrix([[2, 1], [0, 3], [0, 0]]): [(0, 0, 5), (1, 3, 0)],
    }
    # Then the peel pool, every third matrix with rational rows, each with
    # a rational random v, so that denominators merge in (M | v).
    pool = [with_rational_rows(rng, m) if i % 3 == 0 else m for i, m in enumerate(peel_pool())]
    peels = [peeled(m) for m in pool]
    assert any(k and core.size == 0 for k, core in peels)
    assert any(k and core.size for k, core in peels)
    assert any(core.shape == (m.rows, m.cols) for m, (_, core) in zip(pool, peels))
    assert any(la._integer_array(m.ints).dtype == object for m in pool)
    assert any(d > 1 for m in pool for d in m.dens)
    matrices = seeded_matrices("certificates-vs-sympy", 120) + list(extra)
    pool_verdicts = set()
    for i, M in enumerate(matrices + pool):
        S = to_sympy(sympy, M)
        r = S.rank()
        assert rank(M) == r
        kernel = kernel_basis(M)
        assert len(kernel) == len(S.nullspace()) == M.cols - r
        # Both normalise each vector to 1 on its free column, 0 on the others.
        assert kernel == [tuple(Fraction(int(e.p), int(e.q)) for e in x) for x in S.nullspace()]
        for x in kernel:
            assert all(e == 0 for e in times(M, x))
        left = left_kernel_basis(M)
        assert len(left) == M.rows - r
        # The left kernel vectors are independent and kill S.
        W = rationals(sympy, len(left), M.rows, [e for w in left for e in w])
        assert W.rank() == len(left) and (W * S).is_zero_matrix
        for w in left:
            assert any(e != 0 for e in w)
            assert all(e == 0 for e in left_times(w, M))
        member_v = times(M, [Fraction(rng.randint(-3, 3)) for _ in range(M.cols)])
        dens = [1] if i < len(matrices) else [1, 1, 2, 5]
        random_v = tuple(Fraction(rng.randint(-3, 3), rng.choice(dens)) for _ in range(M.rows))
        for v in [member_v, random_v] + [tuple(map(Fraction, v)) for v in extra.get(M, [])]:
            res = in_column_space(M, v)
            if i >= len(matrices):
                pool_verdicts.add((peels[i - len(matrices)][0] > 0, res.member))
            V = rationals(sympy, M.rows, 1, v)
            assert res.member == (S.row_join(V).rank() == r)
            if res.member:
                assert times(M, res.preimage) == v
                assert S * rationals(sympy, M.cols, 1, res.preimage) == V
            else:
                w = rationals(sympy, 1, M.rows, res.functional)
                assert (w * S).is_zero_matrix and (w * V)[0] != 0
                assert all(e == 0 for e in left_times(res.functional, M))
                assert sum(wi * vi for wi, vi in zip(res.functional, v)) != 0
    # Members and non-members, with and without peeled pivots.
    assert pool_verdicts == {(True, True), (True, False), (False, True), (False, False)}


def classic_bareiss(rows):
    """Reference: Bareiss updating every row below the pivot at every step."""
    work = [list(r) for r in rows]
    n = len(work)
    width = len(work[0]) if work else 0
    pivots = []
    prev, r, sign = 1, 0, 1
    for col in range(width):
        if r == n:
            break
        piv_row = next((i for i in range(r, n) if work[i][col]), None)
        if piv_row is None:
            continue
        if piv_row != r:
            sign = -sign
        work[r], work[piv_row] = work[piv_row], work[r]
        piv = work[r][col]
        for i in range(r + 1, n):
            f = work[i][col]
            work[i] = [(piv * a - f * b) // prev for a, b in zip(work[i], work[r])]
        prev = piv
        pivots.append((r, col))
        r += 1
    return work, pivots, sign


def check_against_classic(m):
    echelon, pivots, sign = la._bareiss_echelon(m)
    assert (echelon, pivots, sign) == classic_bareiss(m)
    return pivots


def test_lagging_row_becomes_pivot_row():
    # [0, 0, 3, 1] skips the pivot steps at columns 0 and 1, then hosts the
    # pivot at column 2 and is first brought up to date.
    m = [[2, 1, 1, 0], [0, 0, 3, 1], [4, 5, 0, 2]]
    assert check_against_classic(m) == [(0, 0), (1, 1), (2, 2)]


def test_skipped_rows_match_classic_bareiss():
    # Row 0 hosts the first pivot, row 1 the second, and the last row is zero
    # in both pivot columns, so it skips at least two pivot steps.
    rng = random.Random("lazy-divisor")
    for _ in range(300):
        rows, cols = rng.randint(3, 8), rng.randint(3, 8)
        m = [[rng.randint(-9, 9) if rng.random() < 0.3 else 0 for _ in range(cols)] for _ in range(rows)]
        m[0][0] = rng.choice([-3, -2, 2, 5])
        m[1][0], m[1][1] = 0, rng.choice([-7, 3, 4])
        m[-1][0] = m[-1][1] = 0
        assert check_against_classic(m)[:2] == [(0, 0), (1, 1)]


def test_special_pair_k3_verdicts(monkeypatch):
    # The monomial special pair at k = 3 (n = 3) and k = 5 (n = 6), mapped
    # into degree 3k.  x^k y^k z^k is never in the image; x^(k+1) y^k z^(k-1)
    # is at k = 3 only.  The matrix peels whole, so a member costs one
    # elimination, of the rows - rank rows of (M | v) below the peel's pivots;
    # a non-member's functional costs a second one, of the transpose of those
    # rows on the empty core, which has no rows.
    heights = []
    real = la._bareiss_echelon

    def counted(rows):
        heights.append(len(rows))
        return real(rows)

    monkeypatch.setattr(la, "_bareiss_echelon", counted)
    for k, rows, r, shifted_member in ((3, 55, 54, True), (5, 136, 126, False)):
        n = (3 * k - 3) // 2
        zero = HomPoly.zero(n + 1)
        f = (HomPoly.monomial((0, 0, n + 1)), HomPoly.monomial((n + 1, 0, 0)), zero)
        g = (zero, HomPoly.monomial((0, 0, n + 1)), HomPoly.monomial((0, n + 1, 0)))
        matrix = mult_map_matrix(u_generators(f, g, n=n))
        assert (matrix.rows, rank(matrix)) == (rows, r)
        for mono, member in (((k, k, k), False), ((k + 1, k, k - 1), shifted_member)):
            v = HomPoly.monomial(mono).coeff_vector()
            heights.clear()
            res = in_column_space(matrix, v)
            assert res.member == member
            if member:
                assert heights == [rows - r]
                assert times(matrix, res.preimage) == v
            else:
                assert heights == [rows - r, 0]
                assert all(e == 0 for e in left_times(res.functional, matrix))
                assert sum(wi * vi for wi, vi in zip(res.functional, v)) != 0


def test_bareiss_last_pivot_is_the_determinant():
    # sign * last pivot == det on nonsingular square inputs, by Leibniz.
    rng = random.Random("bareiss-det")
    for n in range(1, 6):
        for _ in range(30):
            m = [[rng.choice([0, 0, rng.randint(-9, 9), rng.randint(-2**40, 2**40)]) for _ in range(n)] for _ in range(n)]
            det = sum(
                math.prod(m[i][p[i]] for i in range(n))
                * (-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
                for p in itertools.permutations(range(n))
            )
            echelon, pivots, sign = la._bareiss_echelon(m)
            assert (sign * echelon[-1][-1] if len(pivots) == n else 0) == det


CHECKS_UNDER_O = textwrap.dedent(
    """
    import sys
    import detrep.linalg as la
    from detrep.detmatrix import _unpack

    real_solve = la._solve

    def corrupt_solve(echelon, pivots, col):
        x = real_solve(echelon, pivots, col)
        x[0] += 1
        return x

    real_peel = la._peel

    def corrupt_peel(corrupt, verdict=lambda m: la.rank(m)):
        # a verdict on [[1, 1], [0, 1]] with the peel's order corrupted: it
        # peels column 0, then column 1, each a column singleton
        def check():
            la._peel = lambda nz: corrupt(*real_peel(nz))
            try:
                verdict(la.ExactMatrix([[1, 1], [0, 1]]))
            finally:
                la._peel = real_peel
        return check

    def with_kernel(vectors, verdict):
        # a verdict with ``_kernel`` yielding these vectors
        def check():
            real_kernel = la._kernel
            la._kernel = lambda rows, cols: iter(vectors)
            try:
                verdict()
            finally:
                la._kernel = real_kernel
        return check

    def raises(check):
        try:
            check()
        except la.CertificateError:
            return True
        return False

    def each(*checks):
        def check():
            if all(map(raises, checks)):
                raise la.CertificateError("every check raised")
        return check

    def membership(m):
        return la.in_column_space(m, [0, 1])

    # a pivot moved onto the zero entry, the triangle turned over, and an
    # order that misses a row
    corruptions = [
        lambda rows, cols, *rest: (rows, cols[::-1], *rest),
        lambda rows, cols, *rest: (rows[::-1], cols[::-1], *rest),
        lambda rows, cols, *rest: (rows[:1], cols, *rest),
    ]
    checks = {
        "bareiss": lambda: la._combine([1], [0], 1, 0, 2, 0),
        "kronecker": lambda: _unpack(1 << 12, 4, 1, 1),
        # [[1, 1], [1, 1]] peels nothing, so its left kernel is solved for
        "membership": lambda: la.in_column_space(la.ExactMatrix([[1, 1], [1, 1]]), [0, 1]),
        "left_kernel": lambda: la.left_kernel_basis(la.ExactMatrix([[1, 1], [1, 1]])),
        "preimage": lambda: la.in_column_space(la.ExactMatrix([[1, 0], [0, 0]]), [1, 0]),
        "kernel": lambda: la.kernel_basis(la.ExactMatrix([[1, 1]])),
        "rref": lambda: la.rref(la.ExactMatrix([[1, 1]])),
        "syzygy": lambda: la.rank(la.ExactMatrix([[1, 1], [1, 1]]), kernel=lambda: [(1, 0)]),
        "peel_diagonal": corrupt_peel(corruptions[0]),
        "peel_triangle": corrupt_peel(corruptions[1]),
        "peel_order": corrupt_peel(corruptions[2]),
        "peel_membership": each(*(corrupt_peel(c, membership) for c in corruptions)),
        # a non-member whose left kernel comes out empty
        "no_separating": with_kernel([], lambda: membership(la.ExactMatrix([[1, 1], [1, 1]]))),
        # a left-kernel vector that kills no column of M
        "left_kernel_columns": with_kernel(
            [(1, 1)], lambda: la.left_kernel_basis(la.ExactMatrix([[1, 1], [1, 2]]))
        ),
    }
    la._solve = corrupt_solve
    raised = [name for name, check in checks.items() if raises(check)]
    print(sys.flags.optimize, *raised)
    """
)


def test_certificate_checks_raise_under_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-O", "-c", CHECKS_UNDER_O],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    ).stdout.split()
    assert out == ["1", "bareiss", "kronecker", "membership", "left_kernel", "preimage", "kernel", "rref", "syzygy",
                   "peel_diagonal", "peel_triangle", "peel_order", "peel_membership", "no_separating",
                   "left_kernel_columns"]


# ------------------------------------------------- builder and mod-p sweep
#
# multiplication_matrix against Fraction columns, and the row-sparse mod-p
# sweep against the dense one it replaces.


def random_form(rng, degree, basis):
    """A form with rational coefficients of mixed denominators, or zero."""
    if rng.random() < 0.15:
        return HomPoly.zero(degree)
    return HomPoly(degree, {
        m: Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6, 35]))
        for m in basis if rng.random() < 0.5
    })


def reference_matrix(gens, degree, keep=None):
    """from_columns of the Fraction columns, keeping the chosen ones."""
    columns = []
    for i, gen in enumerate(gens):
        block = multiple_columns([gen], degree)
        kept = range(len(block)) if keep is None else keep[i]
        columns.extend(block[m] for m in kept)
    return ExactMatrix.from_columns(columns, rows=len(la._mono_index(degree)[0]))


def test_multiplication_matrix_matches_fraction_columns_on_the_plane():
    rng = random.Random("builder-plane")
    for _ in range(60):
        degree = rng.randint(0, 7)
        gens = [random_form(rng, d, mono_basis(d)) for d in rng.choices(range(9), k=rng.randint(1, 5))]
        built = la.multiplication_matrix(gens, degree)
        assert built == reference_matrix(gens, degree)
        assert (built.rows, built.cols) == (
            h0_p2(degree), sum(h0_p2(degree - g.degree) for g in gens)
        )
    # degree-0 generators, and one of degree above the target
    gens = [HomPoly(0, {(0, 0, 0): Fraction(5, 3)}), HomPoly.zero(0), HomPoly.monomial((3, 0, 0))]
    for degree in (0, 1, 2, 3):
        assert la.multiplication_matrix(gens, degree) == reference_matrix(gens, degree)


def test_multiplication_matrix_matches_fraction_columns_on_p1p1():
    rng = random.Random("builder-p1p1")
    for _ in range(40):
        target = (rng.randint(0, 4), rng.randint(0, 4))
        gens = []
        for _ in range(rng.randint(1, 4)):
            d = (rng.randint(0, 3), rng.randint(0, 3))
            gens.append(random_form(rng, d, bimono_basis(*d)))
        assert la.multiplication_matrix(gens, target) == reference_matrix(gens, target)


def test_multiplication_matrix_keeps_chosen_columns():
    # Shaped like tangent_map's lift columns: three signed forms, each keeping
    # an increasing subset of its block, twice over, some blocks empty.
    rng = random.Random("builder-keep")
    for _ in range(40):
        degree = rng.randint(2, 7)
        forms = [random_form(rng, d, mono_basis(d)) for d in rng.choices(range(1, degree + 1), k=3)]
        gens = [-f for f in forms] + forms
        lifts = [sorted(rng.sample(range(h0_p2(degree - f.degree)), rng.randint(0, h0_p2(degree - f.degree))))
                 for f in forms]
        keep = lifts * 2
        assert la.multiplication_matrix(gens, degree, keep=keep) == reference_matrix(gens, degree, keep)
    with pytest.raises(ValueError):
        la.multiplication_matrix([HomPoly.monomial((1, 0, 0))], 2, keep=[])


def dense_modp_rank(rows):
    """Reference: reduce each entry in Python, update every row below the pivot."""
    p = la._FAST_PRIME
    arr = np.array([[e % p for e in row] for row in rows], dtype=np.int64)
    n, width = arr.shape
    r = 0
    for col in range(width):
        if r == n:
            break
        nz = np.nonzero(arr[r:, col])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        arr[[r, i]] = arr[[i, r]]
        inv = pow(int(arr[r, col]), p - 2, p)
        factors = (arr[r + 1:, col] * inv) % p
        arr[r + 1:, col:] = (arr[r + 1:, col:] - factors[:, None] * arr[r, col:]) % p
        r += 1
    return r


def test_sparse_modp_sweep_matches_dense_sweep():
    rng = random.Random("modp-sweep")
    for trial in range(300):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        if trial % 3 == 0:
            m = [[rng.randint(-10**6, 10**6) for _ in range(cols)] for _ in range(rows)]
        else:
            m = [[rng.choice([0, 0, 0, 0, 1, -1]) for _ in range(cols)] for _ in range(rows)]
        if trial % 4 == 1:
            m[rng.randrange(rows)] = list(m[rng.randrange(rows)])  # a repeated row
        if trial % 5 == 2:
            # entries at and past the int64 limits: the second half overflow
            wide = WIDE[:3] if trial % 2 else WIDE
            for _ in range(rng.randint(1, 4)):
                m[rng.randrange(rows)][rng.randrange(cols)] = rng.choice(wide)
        assert la._modp_rank(m) == dense_modp_rank(m)
    # 2^63 - 1 and -2^63 convert in one numpy call; 2^63 and 2^70 overflow it.
    np.array([WIDE[:3]], dtype=np.int64)
    for big in WIDE[3:]:
        with pytest.raises(OverflowError):
            np.array([[big]], dtype=np.int64)
    p = la._FAST_PRIME
    assert la._modp_rank([[2**70, 2**70 + p], [1, 1]]) == dense_modp_rank([[2**70, 2**70 + p], [1, 1]]) == 1
    assert la._modp_rank([[2**63 - 1, 0], [0, -(2**63)]]) == 2


# ------------------------------------------------- the int64 array's boundary
#
# int64 products wrap silently, so every value leaves the stored array for
# Python arithmetic through ``tolist``.


def test_annihilates_does_not_wrap_in_int64():
    # In int64, 2^62 * 4 wraps to 0.
    row = np.array([[2**62]], dtype=np.int64)
    assert not la._annihilates(row, (4,))
    assert not la._annihilates(row, (Fraction(1, 3),))
    assert la._annihilates(np.array([[2**62, 4]], dtype=np.int64), (4, -(2**62)))
    assert la._annihilates(row, (0,))


def wide_rows(rng):
    """A seeded matrix up to 5x5 whose nonzero integers lie between 2^40 and
    2^62 in absolute value, often with one row the sum of two others, a zero
    row or a row divided by 3."""
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    m = [[rng.choice([-1, 1]) * rng.randint(2**40, 2**61) if rng.random() < 0.7 else 0 for _ in range(cols)]
         for _ in range(rows)]
    if rows >= 3 and rng.random() < 0.5:
        a, b, c = rng.sample(range(rows), 3)
        m[c] = [x + y for x, y in zip(m[a], m[b])]
    if rng.random() < 0.2:
        m[rng.randrange(rows)] = [0] * cols
    if rng.random() < 0.3:
        i = rng.randrange(rows)
        m[i] = [Fraction(e, 3) for e in m[i]]
    return m


def verdicts(M, rng):
    """rank, kernel, left kernel and two memberships (a member and a random v)."""
    member_v = times(M, [Fraction(rng.randint(-3, 3)) for _ in range(M.cols)])
    random_v = [Fraction(rng.randint(-2**62, 2**62), rng.choice([1, 7])) for _ in range(M.rows)]
    return (
        rank(M),
        kernel_basis(M),
        left_kernel_basis(M),
        [in_column_space(M, v) for v in (member_v, random_v)],
    )


def test_int64_and_object_arrays_give_the_same_verdicts(sympy, monkeypatch):
    pool = [wide_rows(random.Random(f"wide-{i}")) for i in range(150)]
    stored = [ExactMatrix(m) for m in pool]
    assert all(M.ints.dtype == np.int64 for M in stored)
    got = [verdicts(M, random.Random(i)) for i, M in enumerate(stored)]
    # The same matrices stored, and every array formed, as Python ints.
    monkeypatch.setattr(la, "_integer_array", lambda rows: np.array(rows, dtype=object))
    objects = [ExactMatrix(m) for m in pool]
    assert all(M.ints.dtype == object for M in objects) and objects == stored
    assert [verdicts(M, random.Random(i)) for i, M in enumerate(objects)] == got
    monkeypatch.undo()
    ranks = set()
    for M, (r, kernel, left, memberships) in zip(stored, got):
        S = to_sympy(sympy, M)
        assert r == S.rank()
        ranks.add(r < min(M.rows, M.cols))
        assert kernel == [tuple(Fraction(int(e.p), int(e.q)) for e in x) for x in S.nullspace()]
        W = rationals(sympy, len(left), M.rows, [e for w in left for e in w])
        assert len(left) == M.rows - r and W.rank() == len(left) and (W * S).is_zero_matrix
        assert memberships[0].member
        certificates = [mem.preimage if mem.member else mem.functional for mem in memberships]
        coordinates = [e for vec in kernel + left + certificates for e in vec] + [e for row in M.entries for e in row]
        assert all(type(e.numerator) is int and type(e.denominator) is int for e in coordinates)
        assert all(type(e) is int for row in M.ints.tolist() for e in row)
    # Deficient and full ranks both occur, and non-members too.
    assert ranks == {True, False}
    assert any(not mem.member for *_, memberships in got for mem in memberships)


def test_multiplication_matrix_past_int64():
    # Small numerators over a 30-digit denominator: L exceeds int64 and the
    # entries do not.  A row holding one term divides by its numerator.
    big = 105 * 10**27
    assert big.bit_length() > 63
    slim = HomPoly(2, {(2, 0, 0): Fraction(3, big), (0, 1, 1): Fraction(-5, big), (0, 0, 2): Fraction(7, big)})
    # A numerator past 63 bits, and one that reaches -2^63 once scaled to
    # L = 2^63: its rows divide back into int64.
    wide = HomPoly(1, {(1, 0, 0): Fraction(2**70), (0, 1, 0): Fraction(1, 3)})
    edge = [HomPoly(1, {(1, 0, 0): Fraction(1, 2**63)}), HomPoly(1, {(0, 1, 0): Fraction(-1)})]
    for gens, degree, dtype in (
        ([slim], 2, np.int64),
        ([slim], 4, np.int64),
        ([slim, HomPoly(1, {(0, 1, 0): Fraction(2, big)})], 3, np.int64),
        ([slim, HomPoly(1, {(0, 1, 0): Fraction(1, 2)})], 3, object),
        ([wide, slim], 3, object),
        (edge, 1, np.int64),
        (edge, 3, np.int64),
    ):
        built = la.multiplication_matrix(gens, degree)
        want = reference_matrix(gens, degree)
        assert built == want and hash(built) == hash(want)
        assert built.ints.dtype == want.ints.dtype == dtype
        assert all(type(e) is int for row in built.ints.tolist() for e in row)
        assert all(type(d) is int for d in built.dens)
    assert la.multiplication_matrix([slim], 2).dens == (big // 3, 1, 1, 1, big // 5, big // 7)
