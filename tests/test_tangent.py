"""Section spaces, tangent-map surjectivity, smoothness ladders."""

import math
from fractions import Fraction

import pytest

import detrep.tangent
from detrep.bundles import E, M, N, T, ambient_degrees, det_degree, h0_bundle, relation_source_degrees
from detrep.detmatrix import GpliError, Section, relation_shift, shifted, wedge_curve
from detrep.linalg import ExactMatrix, rank
from detrep.polynomials import HomPoly, X, Y, h0_p2, mono_basis, parse_hompoly
from detrep.sampling import derive_rng, random_hompoly, random_pair, random_section
from detrep.tangent import (
    cofactor_forms,
    quotient_by_pair,
    section_space,
    smoothness_check,
    tangent_map,
)
from oracles import tangent_column


def sec(bundle, *texts):
    degs = ambient_degrees(bundle)
    comps = tuple(
        parse_hompoly(t, degree=d) if t != "0" else HomPoly.zero(d)
        for t, d in zip(texts, degs)
    )
    return Section(bundle, comps)


# ---------------------------------------------------------------- section spaces


def test_section_space_dims_match_closed_form():
    for spec in (T(0), T(1), N(0), N(2), M(1, 0), M(2, 1), E(2, 0), E(3, 1)):
        assert section_space(spec).dim == h0_bundle(spec)


def test_tangent_twist_dim_eight():
    assert section_space(T(0)).dim == 8


def test_kernel_twist_dim_five():
    assert section_space(N(0)).dim == 5


def test_small_syzygy_dim_three():
    # ambient rank 3 in degree 0, one relation row consuming nothing yet:
    # constants (a, b, c) modulo no relations of negative source degree
    assert section_space(M(1, 0)).dim == 3


# ---------------------------------------------------------------- quotients


def relation_vectors(spec):
    """The ambient vectors of the relations: every defining row fed a monomial
    multiplier, built from ``relation_shift`` rather than the section space."""
    space = section_space(spec)
    return [
        space.ambient_vector(relation_shift(spec, HomPoly.monomial(mono), i))
        for i, src in enumerate(relation_source_degrees(spec))
        for mono in mono_basis(src)
    ]


def test_relation_shift_keeps_lift_positions():
    for spec in (T(1), N(1)):
        space = section_space(spec)
        v1, v2 = random_pair(derive_rng(8, "reduce", spec.label()), spec)
        h = random_hompoly(derive_rng(8, "reduce", 1), relation_source_degrees(spec)[0])
        base = quotient_by_pair(space, v1, v2)
        moved = quotient_by_pair(space, shifted(v1, h), v2)
        assert moved.lift_positions == base.lift_positions


def test_quotient_lift_count():
    spec = T(0)
    space = section_space(spec)
    v1 = sec(spec, "x", "2*y", "3*z")
    v2 = sec(spec, "y", "z", "x")
    quot = quotient_by_pair(space, v1, v2)
    assert len(quot.lifts) == space.dim - 2


def test_quotient_lifts_are_unit_coordinates():
    # each lift is one monomial in one ambient block, and the relations, the
    # pair and the lifts together span the whole ambient space
    for spec in (T(1), N(1), M(2, 1), E(3, 1)):
        space = section_space(spec)
        v1, v2 = random_pair(derive_rng(9, "lifts", 0), spec)
        quot = quotient_by_pair(space, v1, v2)
        assert quot.dim == space.dim - 2
        for pos, lift in zip(quot.lift_positions, quot.lifts, strict=True):
            [(j, comp)] = [(j, c) for j, c in enumerate(lift.components) if not c.is_zero()]
            [(mono, coeff)] = comp.terms.items()
            assert coeff == 1
            offset = pos - space.block_offsets[j]
            assert 0 <= offset < h0_p2(space.ambient_degrees[j])
            assert mono == mono_basis(space.ambient_degrees[j])[offset]
        vectors = relation_vectors(spec) + [
            space.ambient_vector(s.components) for s in (v1, v2, *quot.lifts)
        ]
        assert len(vectors) == space.ambient_dim
        assert rank(ExactMatrix(vectors)) == space.ambient_dim


def test_quotient_matches_sympy_rref():
    # The lift positions are the columns without a pivot in the reduced row
    # echelon form of [relations; v1; v2], and the free positions those of
    # the relations alone, as sympy computes them over the rationals.
    sympy = pytest.importorskip("sympy")

    def non_pivots(rows, width):
        _, pivots = sympy.Matrix(rows).rref()
        return tuple(c for c in range(width) if c not in pivots)

    for family, twists in ((T, range(4)), (N, range(3))):
        for n in twists:
            spec = family(n)
            space = section_space(spec)
            for i in range(2):
                v1, v2 = random_pair(derive_rng(10, f"sympy:{spec.label()}", i), spec)
                rows = relation_vectors(spec) + [space.ambient_vector(s.components) for s in (v1, v2)]
                quot = quotient_by_pair(space, v1, v2)
                assert quot.lift_positions == non_pivots(rows, space.ambient_dim), spec.label()
    for spec in (M(1, 0), M(1, 2), M(2, 3), M(3, 4), E(2, 1), E(3, 2), E(2, 3)):
        space = section_space(spec)
        expected = non_pivots(relation_vectors(spec), space.ambient_dim)
        assert tuple(space.free_positions) == expected, spec.label()


def test_rational_sections_match_their_rational_rows():
    # Components over different denominators: the quotient's cleared rows
    # and the curve's numerator column give the lift positions and the
    # augmented rank of the Fraction rows they stand for.
    sympy = pytest.importorskip("sympy")
    for spec in (T(1), T(2), N(1)):
        space = section_space(spec)
        pair = random_pair(derive_rng(12, "rational-rows", spec.label()), spec)
        scales = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7))
        v1, v2 = (Section(spec, tuple(c.scale(s) for c, s in zip(v.components, scales))) for v in pair)
        assert all(c.den > 1 for v in (v1, v2) for c in v.components if not c.is_zero())
        # The packed vector is the coefficient vector times the lcm of its
        # denominators: integers on the same line.
        for v in (v1, v2):
            coeffs = [e for c in v.components for e in c.coeff_vector()]
            lcm = math.lcm(*(e.denominator for e in coeffs))
            assert lcm > 1
            assert space.ambient_vector(v.components) == tuple(int(lcm * e) for e in coeffs)
            assert rank(ExactMatrix([space.ambient_vector(v.components), coeffs])) == 1
        # A pair whose span holds a monomial: v1 and 2*v1 + (0, 0, m).
        a, b, c = v1.components
        m = HomPoly.monomial(mono_basis(c.degree)[-1])
        special = (v1, Section(spec, (a.scale(2), b.scale(2), c.scale(2) + m)))
        for w1, w2 in ((v1, v2), special):
            rows = relation_vectors(spec) + [space.ambient_vector(s.components) for s in (w1, w2)]
            _, pivots = sympy.Matrix(rows).rref()
            quot = quotient_by_pair(space, w1, w2)
            assert quot.lift_positions == tuple(c for c in range(space.ambient_dim) if c not in pivots)
        report = tangent_map(spec, v1, v2)
        assert report.curve.den > 1
        assert report.augmented_rank == rank(report.matrix.augment_column(report.curve.coeff_vector()))


def test_quotient_takes_one_integer_elimination(monkeypatch):
    import detrep.linalg

    assert not hasattr(detrep.tangent, "rref")
    cases = [
        (section_space(spec), *random_pair(derive_rng(9, "one-echelon", spec.label()), spec))
        for spec in (T(2), N(2))
    ]
    calls = []
    original = detrep.tangent._bareiss_echelon

    def counting_echelon(rows, pivot_cols):
        calls.append(len(rows))
        return original(rows, pivot_cols)

    def no_rref(M):
        raise AssertionError("quotient_by_pair must not take an rref")

    monkeypatch.setattr(detrep.tangent, "_bareiss_echelon", counting_echelon)
    monkeypatch.setattr(detrep.linalg, "rref", no_rref)
    for space, v1, v2 in cases:
        calls.clear()
        quotient_by_pair(space, v1, v2)
        assert calls == [len(space.relation_echelon) + 2]


def test_quotient_rejects_dependent_pair():
    spec = T(0)
    space = section_space(spec)
    v1 = sec(spec, "x", "y", "z")
    v2 = sec(spec, "2*x", "2*y", "2*z")
    with pytest.raises(GpliError):
        quotient_by_pair(space, v1, v2)


def test_quotient_rejects_pair_from_another_bundle():
    # E_4(1) and M_2(1) share the ambient O(1)^6 but not their relations
    v1, v2 = random_pair(derive_rng(7, "other-bundle", 0), E(4, 1))
    with pytest.raises(ValueError, match=r"^a section of E_4\(1\) is not one of M_2\(1\)$"):
        quotient_by_pair(section_space(M(2, 1)), v1, v2)
    # Packing checks the components against the space's ambient degrees.
    space = section_space(T(0))
    for comps in (v1.components, v1.components[:2], (X, Y, X * Y)):
        with pytest.raises(ValueError, match=r"components of degrees .*, not \(1, 1, 1\)"):
            space.ambient_vector(comps)


# ---------------------------------------------------------------- tangent maps


def test_cubic_tangent_map_surjects():
    spec = T(0)
    rep = tangent_map(spec, sec(spec, "x", "2*y", "3*z"), sec(spec, "y", "z", "x"))
    assert rep.hom_dim == 12
    assert rep.target_dim == 9
    assert rep.augmented_rank == 10
    assert rep.surjective


def test_conic_tangent_map_surjects():
    spec = N(0)
    rep = tangent_map(spec, sec(spec, "0", "1", "y"), sec(spec, "1", "0", "x"))
    assert rep.hom_dim == 6
    assert rep.target_dim == 5
    assert rep.augmented_rank == 6
    assert rep.surjective


def test_tangent_map_rejects_degenerate_pair():
    spec = T(0)
    with pytest.raises(GpliError):
        tangent_map(spec, sec(spec, "x", "y", "z"), sec(spec, "2*x", "2*y", "2*z"))


def test_tangent_map_only_rank_two_families():
    rng = derive_rng(9, "fam", 0)
    spec = M(2, 0)
    with pytest.raises(ValueError):
        tangent_map(spec, random_section(rng, spec), random_section(rng, spec))
    # Sections of another bundle than the stated one are refused.
    v1, v2 = random_pair(rng, T(1))
    for bundle, pair in ((T(0), (v1, v2)), (T(1), (v1, random_section(rng, N(1))))):
        with pytest.raises(ValueError, match="stated bundle"):
            tangent_map(bundle, *pair)


def test_special_pair_misses_one_direction():
    # monomial sections with disjoint vanishing loci; the image falls short
    spec = T(3)
    zero = HomPoly.zero(4)
    v1 = Section(spec, (HomPoly.monomial((0, 0, 4)), HomPoly.monomial((4, 0, 0)), zero))
    v2 = Section(spec, (zero, HomPoly.monomial((0, 0, 4)), HomPoly.monomial((0, 4, 0))))
    rep = tangent_map(spec, v1, v2)
    assert rep.curve == parse_hompoly("x^5*y^4 - y^5*z^4 + z^9")
    assert rep.augmented_rank == h0_p2(9) - 1
    assert not rep.surjective


def reference_tangent_matrix(spec, v1, v2):
    """One polynomial determinant per column: slot 1 over the lifts, then slot 2."""
    quot = quotient_by_pair(section_space(spec), v1, v2)
    columns = [
        tangent_column(v1, v2, lift, slot).coeff_vector()
        for slot in (1, 2)
        for lift in quot.lifts
    ]
    return ExactMatrix.from_columns(columns, rows=h0_p2(det_degree(spec)))


def special_pair(k):
    n = (3 * k - 3) // 2
    spec = T(n)
    zero = HomPoly.zero(n + 1)
    v1 = Section(spec, (HomPoly.monomial((0, 0, n + 1)), HomPoly.monomial((n + 1, 0, 0)), zero))
    v2 = Section(spec, (zero, HomPoly.monomial((0, 0, n + 1)), HomPoly.monomial((0, n + 1, 0))))
    return spec, v1, v2


def test_tangent_map_matches_determinant_columns():
    cases = []
    for family, twists in ((T, range(5)), (N, range(4))):
        for n in twists:
            spec = family(n)
            cases.append((spec, *random_pair(derive_rng(9, "oracle", spec.label()), spec)))
    cases.append(special_pair(3))
    cases.append((T(0), sec(T(0), "x", "2*y", "3*z"), sec(T(0), "y", "z", "x")))
    cases.append((N(0), sec(N(0), "0", "1", "y"), sec(N(0), "1", "0", "x")))
    for spec, v1, v2 in cases:
        rep = tangent_map(spec, v1, v2)
        assert rep.matrix == reference_tangent_matrix(spec, v1, v2), spec.label()
        assert rep.hom_dim == 2 * (section_space(spec).dim - 2)


def test_wedge_curve_is_cofactor_expansion():
    rng = derive_rng(9, "cofactor", 0)
    for spec in (T(0), T(1), T(2), N(0), N(1), N(2)):
        for _ in range(3):
            v, q = random_section(rng, spec), random_section(rng, spec)
            expansion = HomPoly.zero(det_degree(spec))
            for q_j, c_j in zip(q.components, cofactor_forms(v)):
                expansion = expansion + q_j * c_j
            assert wedge_curve(v, q) == expansion


def test_tangent_map_takes_one_determinant(monkeypatch):
    import detrep.detmatrix

    calls = []
    original = detrep.detmatrix.det_poly

    def counting_det_poly(M):
        calls.append(M)
        return original(M)

    monkeypatch.setattr(detrep.detmatrix, "det_poly", counting_det_poly)
    spec = T(2)
    v1, v2 = random_pair(derive_rng(9, "one-det", 0), spec)
    rep = tangent_map(spec, v1, v2)
    assert rep.hom_dim > 0
    assert len(calls) == 1


def test_column_shift_by_other_generator_cancels():
    rng = derive_rng(9, "vshift", 0)
    spec = T(1)
    v1, v2 = random_section(rng, spec), random_section(rng, spec)
    quot = quotient_by_pair(section_space(spec), v1, v2)
    lift = quot.lifts[0]
    c = Fraction(7)
    moved = Section(spec, tuple(p + q * c for p, q in zip(lift.components, v2.components)))
    assert tangent_column(v1, v2, moved, 1) == tangent_column(v1, v2, lift, 1)
    moved1 = Section(spec, tuple(p + q * c for p, q in zip(lift.components, v1.components)))
    assert tangent_column(v1, v2, moved1, 2) == tangent_column(v1, v2, lift, 2)


def test_column_shift_by_same_generator_adds_curve_multiple():
    from detrep.polynomials import divide_exact

    rng = derive_rng(9, "vshift", 1)
    spec = T(1)
    v1, v2 = random_section(rng, spec), random_section(rng, spec)
    curve = wedge_curve(v1, v2)
    quot = quotient_by_pair(section_space(spec), v1, v2)
    lift = quot.lifts[0]
    c = Fraction(3)
    moved = Section(spec, tuple(p + q * c for p, q in zip(lift.components, v1.components)))
    diff = tangent_column(v1, v2, moved, 1) + tangent_column(v1, v2, lift, 1).scale(Fraction(-1))
    if not diff.is_zero():
        ratio = divide_exact(diff, curve)
        assert ratio.degree == 0  # an exact scalar multiple of the curve
    # either way the augmented column space is unchanged, so the verdict holds


def test_verdict_invariant_under_lift_choice_and_euler_shift():
    rng = derive_rng(9, "invar", 0)
    for spec in (T(1), N(1)):
        v1, v2 = random_section(rng, spec), random_section(rng, spec)
        base = tangent_map(spec, v1, v2)
        h = random_hompoly(rng, spec.n if spec.family == "T" else spec.n - 1)
        moved = tangent_map(spec, shifted(v1, h), v2)
        assert base.surjective == moved.surjective
        assert base.augmented_rank == moved.augmented_rank


def test_verdict_invariant_under_basis_change():
    rng = derive_rng(9, "basis", 0)
    spec = T(1)
    v1, v2 = random_section(rng, spec), random_section(rng, spec)
    a, b, c, d = Fraction(2), Fraction(3), Fraction(1), Fraction(2)  # det 1
    w1 = Section(spec, tuple(p * a + q * b for p, q in zip(v1.components, v2.components)))
    w2 = Section(spec, tuple(p * c + q * d for p, q in zip(v1.components, v2.components)))
    det = a * d - b * c
    assert wedge_curve(w1, w2) == wedge_curve(v1, v2).scale(det)
    r1 = tangent_map(spec, v1, v2)
    r2 = tangent_map(spec, w1, w2)
    assert r1.surjective == r2.surjective
    assert r1.augmented_rank == r2.augmented_rank


def test_small_syzygy_twist_matches_tangent_twist():
    # rank-two syzygy presentation at twist n+1 is the tangent presentation at n
    rng = derive_rng(9, "match", 0)
    for n in (0, 1):
        t_spec = T(n)
        m_spec = M(1, n + 1)
        assert ambient_degrees(t_spec) == ambient_degrees(m_spec)
        assert det_degree(t_spec) == det_degree(m_spec)
        comps1 = tuple(random_hompoly(rng, n + 1) for _ in range(3))
        comps2 = tuple(random_hompoly(rng, n + 1) for _ in range(3))
        wt = wedge_curve(Section(t_spec, comps1), Section(t_spec, comps2))
        wm = wedge_curve(Section(m_spec, comps1), Section(m_spec, comps2))
        assert wt == wm


# ---------------------------------------------------------------- smoothness


def test_cubic_is_smooth():
    assert smoothness_check(parse_hompoly("x^2*y - 2*x*z^2 + y^2*z"))


def test_conic_is_smooth():
    assert smoothness_check(parse_hompoly("x^2 + y^2 - z^2"))


def test_fermat_cubic_is_smooth():
    assert smoothness_check(parse_hompoly("x^3 + y^3 + z^3"))


def test_triangle_of_lines_not_certified():
    # xyz has three singular points, so no graded piece of its Jacobian ideal fills
    assert not smoothness_check(parse_hompoly("x*y*z"))
    # Neither the zero form nor a nonzero constant cuts a curve.
    for form in (HomPoly.zero(3), HomPoly.zero(0), parse_hompoly("5")):
        assert not smoothness_check(form)


def test_cuspidal_cubic_not_certified():
    assert not smoothness_check(parse_hompoly("x^3 - y^2*z"))


def reference_smoothness(F):
    """The full ladder: some rung d <= 3*deg F - 5 fills with degree-d forms."""
    if F.is_zero() or F.degree < 1:
        return False
    partials = [F.derivative(v) for v in range(3)]
    e = F.degree - 1
    for d in range(1, max(1, 3 * F.degree - 5) + 1):
        columns = []
        for g in partials:
            if g.is_zero() or d < e:
                continue
            for mono in mono_basis(d - e):
                columns.append((HomPoly.monomial(mono) * g).coeff_vector())
        if columns and rank(ExactMatrix.from_columns(columns)) == h0_p2(d):
            return True
    return False


def smoothness_cases():
    curves = []
    for family in (T, N):
        for n in range(3):
            v1, v2 = random_pair(derive_rng(31, f"smoothness:{family.__name__}", n), family(n))
            curves.append(wedge_curve(v1, v2))
    texts = [
        "x*y*z",
        "x^3 - y^2*z",
        "y^2*z - x^3 - x^2*z",  # nodal cubic
        "x^2 + y^2",  # a cone: the z-partial is zero
        "x^2",  # double line
        "x - 2*y + z",
    ]
    return curves + [parse_hompoly(t) for t in texts]


def test_one_rung_smoothness_matches_full_ladder(monkeypatch):
    calls = []

    def counting_rank(matrix):
        calls.append(matrix)
        return rank(matrix)

    monkeypatch.setattr(detrep.tangent, "rank", counting_rank)
    verdicts = []
    for F in smoothness_cases():
        calls.clear()
        verdict = smoothness_check(F)
        assert len(calls) == 1, f"{F}: {len(calls)} rank calls"
        assert verdict == reference_smoothness(F), str(F)
        verdicts.append(verdict)
    # the six wedge curves are smooth and the five special forms singular;
    # the line closes the list
    assert verdicts == [True] * 6 + [False] * 5 + [True]


def test_smoothness_matches_a_groebner_basis_of_the_partials():
    # The partials have only the trivial common zero exactly when their ideal
    # has finite colength, i.e. when a grevlex Groebner basis has a pure power
    # of each variable among its leading monomials.
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x y z")

    def expr(p):
        return sympy.Add(*(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(v**e for v, e in zip(gens, mono)))
            for mono, c in p.terms.items()
        ))

    def groebner_smooth(F):
        partials = [sympy.diff(expr(F), v) for v in gens]
        basis = sympy.groebner(partials, *gens, order="grevlex")
        leads = [sympy.Poly(g, *gens).monoms(order="grevlex")[0] for g in basis.exprs]
        return all(
            any(lead[i] > 0 and sum(lead) == lead[i] for lead in leads) for i in range(3)
        )

    rng = derive_rng(37, "smoothness-vs-groebner", 0)
    cubics = [parse_hompoly(t) for t in ("x^3 + y^3 + z^3", "x^3 - y^2*z", "x*y*z")]
    cubics += [random_hompoly(rng, 3) for _ in range(3)]
    verdicts = [smoothness_check(F) for F in cubics]
    assert verdicts == [groebner_smooth(F) for F in cubics]
    assert verdicts[:3] == [True, False, False]
