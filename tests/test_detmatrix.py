"""Degeneracy matrices: determinants, wedges, GPLI checks, normalization."""

import random
from fractions import Fraction

import pytest

from detrep.bundles import E, M, N, T, ambient_degrees
from detrep.detmatrix import (
    GpliError,
    PolyMatrix,
    Section,
    column_reduce_normalize,
    degeneracy_matrix,
    det_poly,
    gpli_sample_check,
    is_gpli,
    relation_shift,
    shifted,
    wedge_curve,
)
from detrep.detmatrix import _unpack
from detrep.linalg import CertificateError
from detrep.polynomials import HomPoly, X, Y, Z, mono_basis, parse_bipoly, parse_hompoly
from detrep.sampling import derive_rng, random_hompoly, random_section
from oracles import det_cofactor, det_eliminate


def sec(bundle, *texts):
    degs = ambient_degrees(bundle)
    comps = tuple(
        parse_hompoly(t, degree=d) if t != "0" else HomPoly.zero(d)
        for t, d in zip(texts, degs)
    )
    return Section(bundle, comps)


# ---------------------------------------------------------------- PolyMatrix


def test_degree_pattern_consistency_enforced():
    # degrees (1,1),(1,2) cannot come from a row/column degree split
    good = PolyMatrix([[X, Y], [Y, Z]])
    assert good.det_deg == 2
    with pytest.raises(ValueError) as err:
        PolyMatrix([[X, X * Y], [Y, Z]])
    assert "degree pattern" in str(err.value)
    for entries, error, message in (
        ([], ValueError, "empty"),
        ([[X, Y]], ValueError, "square"),
        ([[1]], TypeError, "HomPoly"),
    ):
        with pytest.raises(error, match=message):
            PolyMatrix(entries)


def test_poly_matrix_refuses_bidegree_entries():
    for entries in (
        [[X, Y], [Y, parse_bipoly("X0*Y0")]],
        [[parse_bipoly("X0"), parse_bipoly("X1")], [parse_bipoly("Y0"), parse_bipoly("Y1")]],
    ):
        with pytest.raises(TypeError, match="plane form"):
            PolyMatrix(entries)


def test_det_two_by_two():
    m = PolyMatrix([[X, Y], [Y, Z]])
    assert det_poly(m) == X * Z - Y * Y


def test_det_engines_agree_random():
    rng = random.Random(21)
    for size, trials in ((3, 12), (4, 6)):
        for _ in range(trials):
            entries = [[random_hompoly(rng, 1) for _ in range(size)] for _ in range(size)]
            m = PolyMatrix(entries)
            assert det_cofactor(m.entries, m.det_deg) == det_eliminate(m.entries, m.det_deg)


def test_det_eliminate_handles_zero_pivots():
    zero1 = HomPoly.zero(1)
    m = PolyMatrix([[zero1, X], [Y, zero1]])
    assert det_eliminate(m.entries, 2) == (X * Y).scale(Fraction(-1))
    m2 = PolyMatrix([[zero1, zero1], [zero1, zero1]])
    assert det_eliminate(m2.entries, 2).is_zero()


def test_det_row_swap_changes_sign():
    rng = random.Random(22)
    entries = [[random_hompoly(rng, 1) for _ in range(3)] for _ in range(3)]
    m = PolyMatrix(entries)
    swapped = PolyMatrix([entries[1], entries[0], entries[2]])
    assert det_poly(swapped) == det_poly(m).scale(Fraction(-1))


def oracle(m):
    return det_cofactor(m.entries, m.det_deg)


def test_det_poly_matches_elimination_on_seeded_m21():
    rng = derive_rng(1729, "kronecker-m21", 0)
    m = degeneracy_matrix(tuple(random_section(rng, M(2, 1)) for _ in range(5)))
    assert (m.size, m.det_deg) == (6, 7)
    got = det_poly(m)
    assert not got.is_zero()
    assert got == det_eliminate(m.entries, m.det_deg)


def test_det_poly_matches_elimination_on_mixed_patterns():
    # Row/column degree splits with zero entries of negative degree, entries
    # above the determinant degree and rational coefficients.
    rng = random.Random("kronecker-patterns")
    for size in range(1, 6):
        for _ in range(10):
            rows = [rng.randint(0, 1) for _ in range(size)]
            cols = [rng.randint(-1, 1) for _ in range(size)]
            entries = []
            for r in rows:
                row = []
                for c in cols:
                    e = random_hompoly(rng, r + c) if r + c >= 0 else HomPoly.zero(r + c)
                    row.append(e.scale(Fraction(1, rng.randint(1, 6))))
                entries.append(row)
            m = PolyMatrix(entries)
            assert det_poly(m) == det_eliminate(m.entries, m.det_deg)


def test_det_poly_zero_determinant_is_zero_of_its_degree():
    m = PolyMatrix([[X, Y, Z], [X * 2, Y * 2, Z * 2], [Z, X, Y]])
    assert det_poly(m) == HomPoly.zero(3)
    assert det_poly(PolyMatrix([[HomPoly.zero(2)]])) == HomPoly.zero(2)


def test_det_poly_rows_with_different_denominators():
    third = Fraction(1, 3)
    m = PolyMatrix([
        [X.scale(Fraction(1, 2)), Y.scale(Fraction(-3, 4)), Z],
        [Y.scale(third), Z.scale(Fraction(5, 6)), X.scale(Fraction(7, 9))],
        [Z, X.scale(Fraction(-1, 5)), Y.scale(Fraction(2, 7))],
    ])
    got = det_poly(m)
    assert got == oracle(m)
    assert any(c.denominator > 1 for c in got.terms.values())


def test_det_poly_balanced_digit_borrows():
    big = 2**40
    # -1 beside large coefficients: negative digits borrow from their
    # neighbours on both sides.
    m = PolyMatrix([
        [X.scale(big) - Y + Z.scale(big - 1), -X + Y.scale(big), Z.scale(-1)],
        [Y.scale(-1), X.scale(-big) + Z, Y.scale(big + 1)],
        [Z.scale(big) - X, -Y, X.scale(-1) + Y.scale(-big)],
    ])
    assert det_poly(m) == oracle(m)
    # A coefficient of magnitude exactly the bound, prod_i sum_j |a_ij|_1,
    # with both signs, at and one below a power of two.
    for c in (big - 1, -(big - 1), big, -big):
        m = PolyMatrix([[X.scale(c), HomPoly.zero(1)], [HomPoly.zero(1), Y]])
        assert det_poly(m) == (X * Y).scale(c)
        m = PolyMatrix([[(X * Z).scale(c)]])
        assert det_poly(m) == (X * Z).scale(c)


def test_det_poly_one_by_one():
    q = parse_hompoly("3*x^2 - 1/2*y*z + z^2")
    assert det_poly(PolyMatrix([[q]])) == q


def test_det_poly_negative_and_oversized_entry_degrees():
    # Degrees [[1, 0], [0, -1]]: the (1, 1) entry is a zero of degree -1.
    m = PolyMatrix([[X, HomPoly.monomial((0, 0, 0), 2)], [HomPoly.monomial((0, 0, 0), 3), HomPoly.zero(-1)]])
    assert det_poly(m) == HomPoly.monomial((0, 0, 0), -6)
    # Degrees [[2, 0], [1, -1]]: the (0, 0) entry has degree 2 > D = 1.
    big = parse_hompoly("x^2 - 5*x*y + 7*y^2 + z^2")
    m = PolyMatrix([[big, HomPoly.monomial((0, 0, 0), 4)], [X - Z, HomPoly.zero(-1)]])
    assert m.det_deg == 1
    assert det_poly(m) == (X - Z).scale(-4) == oracle(m)
    # A negative determinant degree leaves only the zero form.
    assert det_poly(PolyMatrix([[HomPoly.zero(-1)]])) == HomPoly.zero(-1)


def test_kronecker_unpack_guards_the_triangle():
    # Degree 1, digits of 4 bits: digit 2 is y, digit 3 is x*y, outside a + b <= 1.
    assert _unpack(-5 << 8, 4, 1, 2) == HomPoly(1, {(0, 1, 0): Fraction(-5, 2)})
    with pytest.raises(CertificateError, match="outside degree 1"):
        _unpack(1 << 12, 4, 1, 1)


# ---------------------------------------------------------------- wedges


def test_cubic_from_two_tangent_sections():
    b = T(0)
    v1 = sec(b, "x", "2*y", "3*z")
    v2 = sec(b, "y", "z", "x")
    curve = wedge_curve(v1, v2)
    assert curve == parse_hompoly("x^2*y - 2*x*z^2 + y^2*z")


def test_conic_from_kernel_bundle_sections():
    b = N(0)
    v1 = sec(b, "0", "1", "y")
    v2 = sec(b, "1", "0", "x")
    curve = wedge_curve(v1, v2)
    assert curve == parse_hompoly("x^2 + y^2 - z^2")


def test_relation_row_position_is_even_permutation():
    # relation row first vs last: a 3-cycle of rows, so determinants agree
    b = N(0)
    v1 = sec(b, "0", "1", "y")
    v2 = sec(b, "1", "0", "x")
    stacked = degeneracy_matrix((v1, v2))
    rows = stacked.entries
    cycled = PolyMatrix([rows[2], rows[0], rows[1]])
    assert det_poly(cycled) == det_poly(stacked)


def test_wedge_antisymmetry():
    rng = derive_rng(3, "antisym", 0)
    b = T(1)
    v1, v2 = random_section(rng, b), random_section(rng, b)
    assert wedge_curve(v2, v1) == wedge_curve(v1, v2).scale(Fraction(-1))


def test_wedge_on_syzygy_bundle_three_sections():
    rng = derive_rng(3, "syz", 0)
    b = M(2, 1)
    secs = tuple(random_section(rng, b) for _ in range(5))
    curve = wedge_curve(*secs)
    assert curve.degree == 7


def test_wedge_rejects_wrong_count():
    rng = derive_rng(3, "count", 0)
    b = T(0)
    with pytest.raises(ValueError):
        wedge_curve(random_section(rng, b))
    with pytest.raises(ValueError, match="no sections"):
        degeneracy_matrix(())
    with pytest.raises(ValueError, match="different bundles"):
        degeneracy_matrix((random_section(rng, b), random_section(rng, N(0))))
    # A section carries exactly one component per ambient summand.
    for comps in ((X, Y), (X, Y, Z, X)):
        with pytest.raises(ValueError, match=r"T\(0\) sections have 3 components, got"):
            Section(b, comps)


def test_gpli_negative_controls():
    # both sections vanish along x = y = 0, so the wedge collapses
    for n in (0, 1, 2):
        b = T(n)
        zero = HomPoly.zero(n + 1)
        v1 = Section(b, (HomPoly.monomial((n + 1, 0, 0)), zero, zero))
        v2 = Section(b, (HomPoly.monomial((0, n + 1, 0)), zero, zero))
        assert wedge_curve(v1, v2).is_zero()
        assert not is_gpli(v1, v2)


def test_gpli_positive_on_clean_pair():
    b = T(0)
    v1 = sec(b, "x", "2*y", "3*z")
    v2 = sec(b, "y", "z", "x")
    assert is_gpli(v1, v2)


def test_sample_check_agrees_with_wedge():
    rng = derive_rng(4, "sample", 0)
    b = T(1)
    v1, v2 = random_section(rng, b), random_section(rng, b)
    witness = gpli_sample_check((v1, v2), derive_rng(4, "sample", 1))
    assert is_gpli(v1, v2) == (witness is not None)
    # degenerate pair has no witness point
    zero = HomPoly.zero(2)
    w1 = Section(b, (HomPoly.monomial((2, 0, 0)), zero, zero))
    w2 = Section(b, (HomPoly.monomial((0, 2, 0)), zero, zero))
    assert gpli_sample_check((w1, w2), derive_rng(4, "sample", 2)) is None


def test_euler_shift_leaves_wedge_unchanged():
    # adding a multiple of the relation row to a section fixes the determinant
    rng = derive_rng(5, "euler", 0)
    for b, shift_deg in ((T(1), 1), (N(1), 0)):
        v1, v2 = random_section(rng, b), random_section(rng, b)
        h = random_hompoly(rng, shift_deg)
        assert wedge_curve(shifted(v1, h), v2) == wedge_curve(v1, v2)
        assert wedge_curve(v1, shifted(v2, h)) == wedge_curve(v1, v2)


def test_euler_shift_on_double_relation_bundle():
    rng = derive_rng(5, "euler2", 0)
    b = E(3, 1)
    secs = tuple(random_section(rng, b) for _ in range(3))
    h = random_hompoly(rng, 0)
    for row_index in (0, 1):
        moved = (shifted(secs[0], h, row_index),) + secs[1:]
        assert wedge_curve(*moved) == wedge_curve(*secs)
    with pytest.raises(ValueError, match="shift multiplier must have degree 0, got 1"):
        relation_shift(b, X)


# ---------------------------------------------------------------- normalization


def test_normalize_already_normal():
    quad = parse_hompoly("z^2 + x*y")
    m = PolyMatrix(
        [
            [HomPoly.zero(0), parse_hompoly("1"), parse_hompoly("y")],
            [parse_hompoly("1"), HomPoly.zero(0), parse_hompoly("x")],
            [X, Y, quad],
        ]
    )
    res = column_reduce_normalize(m)
    last = res.matrix.entries[2]
    assert last[0] == X and last[1] == Y and last[2] == Z * Z
    assert res.scale == 1
    assert res.col_op_a == Y  # the x*y term folds into column one


def test_normalize_general_frame():
    quad = parse_hompoly("x^2 + y^2 - z^2")
    m = PolyMatrix(
        [
            [parse_hompoly("1"), HomPoly.zero(0), parse_hompoly("z")],
            [HomPoly.zero(0), parse_hompoly("1"), parse_hompoly("y")],
            [parse_hompoly("x + z"), parse_hompoly("y - z"), quad],
        ]
    )
    res = column_reduce_normalize(m)
    last = res.matrix.entries[2]
    assert last[0] == X and last[1] == Y and last[2] == Z * Z
    # determinant transforms by substitution then the 1/scale column division
    images = tuple(
        HomPoly(1, {basis: row[j] for j, basis in enumerate(mono_basis(1)) if row[j]})
        for row in res.substitution
    )
    pulled = det_poly(m).compose_linear(images)
    assert det_poly(res.matrix) == pulled.scale(1 / res.scale)


def test_normalize_rejects_dependent_linear_forms():
    m = PolyMatrix(
        [
            [parse_hompoly("1"), HomPoly.zero(0), parse_hompoly("z")],
            [HomPoly.zero(0), parse_hompoly("1"), parse_hompoly("y")],
            [X, parse_hompoly("2*x"), parse_hompoly("z^2")],
        ]
    )
    with pytest.raises(ValueError) as err:
        column_reduce_normalize(m)
    assert "dependent" in str(err.value)
    # Only a 3x3 matrix whose last row has degrees (1, 1, 2) is normalized.
    with pytest.raises(ValueError, match="3x3"):
        column_reduce_normalize(PolyMatrix([[X, Y], [Y, Z]]))
    one, zero = parse_hompoly("1"), HomPoly.zero(0)
    constant = PolyMatrix([[one, zero, zero], [zero, one, zero], [zero, zero, one]])
    with pytest.raises(ValueError, match=r"last row must have degrees \(1, 1, 2\)"):
        column_reduce_normalize(constant)


def test_normalize_rejects_quadric_in_ideal():
    m = PolyMatrix(
        [
            [parse_hompoly("1"), HomPoly.zero(0), parse_hompoly("z")],
            [HomPoly.zero(0), parse_hompoly("1"), parse_hompoly("y")],
            [X, Y, parse_hompoly("x*z + y*z")],
        ]
    )
    with pytest.raises(ValueError) as err:
        column_reduce_normalize(m)
    assert "ideal" in str(err.value)


def test_normalize_frames_match_sympy_for_every_completion():
    # The frame completes (l; m) with the first unit row e_t that makes it
    # invertible; sparse small coefficients reach every t and the dependent case.
    sympy = pytest.importorskip("sympy")
    rng = random.Random("normalize-frames")
    unit = sympy.eye(3)
    seen = set()
    for _ in range(150):
        l, m = (
            HomPoly(1, {mono: Fraction(rng.choice([-2, -1, 0, 0, 0, 1, 3])) for mono in mono_basis(1)})
            for _ in range(2)
        )
        q = random_hompoly(rng, 2)
        matrix = PolyMatrix(
            [[random_hompoly(rng, 0), random_hompoly(rng, 0), random_hompoly(rng, 1)] for _ in range(2)]
            + [[l, m, q]]
        )
        lm = sympy.Matrix([list(l.coeff_vector()), list(m.coeff_vector())])
        t = next((t for t in range(3) if lm.col_join(unit[t, :]).det() != 0), None)
        seen.add(t)
        if t is None:
            with pytest.raises(ValueError, match="dependent"):
                column_reduce_normalize(matrix)
            continue
        # q lies in the ideal (l, m) exactly when it vanishes at their common zero.
        [zero] = lm.nullspace()
        if q.evaluate(tuple(Fraction(int(e.p), int(e.q)) for e in zero)) == 0:
            with pytest.raises(ValueError, match="ideal"):
                column_reduce_normalize(matrix)
            continue
        res = column_reduce_normalize(matrix)
        inverse = lm.col_join(unit[t, :]).inv()
        assert res.substitution == tuple(
            tuple(Fraction(int(e.p), int(e.q)) for e in inverse.row(i)) for i in range(3)
        )
        images = tuple(HomPoly.from_coeff_vector(1, row) for row in res.substitution)
        pulled = det_poly(matrix).compose_linear(images)
        assert det_poly(res.matrix) == pulled.scale(1 / res.scale)
    assert seen == {0, 1, 2, None}


def test_det_poly_matches_sympy_on_a_syzygy_degeneracy_matrix():
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x y z")

    def expr(p):
        return sympy.Add(*(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(v**e for v, e in zip(gens, mono)))
            for mono, c in p.terms.items()
        ))

    rng = derive_rng(3, "det-vs-sympy", 0)
    b = M(2, 1)
    m = degeneracy_matrix(tuple(random_section(rng, b) for _ in range(5)))
    assert m.size == 6
    ref = sympy.Matrix([[expr(e) for e in row] for row in m.entries]).det(method="domain-ge")
    ref = sympy.Poly(ref, *gens)
    got = det_poly(m)
    assert got.degree == 7 and not got.is_zero()
    assert {mono: sympy.Rational(c.numerator, c.denominator) for mono, c in got.terms.items()} == ref.as_dict()
