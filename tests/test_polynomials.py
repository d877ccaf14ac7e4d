"""Graded polynomial core: bases, arithmetic, parsing, calculus."""

from fractions import Fraction
from pathlib import Path

import json
import math
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    multiple_columns,
    terms_compose,
    terms_derivative,
    terms_evaluate,
    terms_product,
    terms_scale,
    terms_sum,
)
from detrep.polynomials import (
    BigradedPoly,
    HomPoly,
    ParseError,
    X,
    Y,
    Z,
    bimono_basis,
    divide_exact,
    h0_p2,
    mono_basis,
    parse_bipoly,
    parse_hompoly,
)


# ---------------------------------------------------------------- bases


def test_h0_small_values():
    # dim of degree-d forms in three variables, (d+1)(d+2)/2
    assert [h0_p2(d) for d in range(6)] == [1, 3, 6, 10, 15, 21]
    assert h0_p2(-1) == 0
    assert h0_p2(-5) == 0


def test_mono_basis_degree_one_order():
    assert mono_basis(1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_mono_basis_degree_two_order():
    # descending lex with x > y > z
    assert mono_basis(2) == [
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    ]


def test_mono_basis_counts_match_h0():
    for d in range(8):
        assert len(mono_basis(d)) == h0_p2(d)
    assert mono_basis(-1) == []


def test_bimono_basis_one_one():
    assert bimono_basis(1, 1) == [
        (1, 0, 1, 0),
        (1, 0, 0, 1),
        (0, 1, 1, 0),
        (0, 1, 0, 1),
    ]


def test_bimono_basis_counts():
    for a in range(4):
        for b in range(4):
            assert len(bimono_basis(a, b)) == (a + 1) * (b + 1)


# ---------------------------------------------------------------- arithmetic


def test_constructor_rejects_wrong_degree_monomial():
    # the public constructor's messages, the last one for a tuple too wide
    for degree, mono, message in [
        (2, (-1, 1, 2), "negative exponent in (-1, 1, 2)"),
        (2, (1, 0, 0), "monomial (1, 0, 0) does not have degree 2"),
        ((1, 1), (1, 0, 0, 0), "monomial (1, 0, 0, 0) does not have bidegree (1, 1)"),
        (2, (1, 0, 1, 0), "monomial (1, 0, 1, 0) does not have degree 2"),
    ]:
        with pytest.raises(ValueError) as info:
            HomPoly(degree, {mono: Fraction(1)})
        assert str(info.value) == message, mono


def test_add_same_degree():
    p = X * X + Y * Y
    q = X * X
    assert (p + q).coeff((2, 0, 0)) == 2


def test_add_degree_mismatch_raises():
    with pytest.raises(ValueError):
        X + X * X


def test_zero_polynomial_keeps_degree():
    z3 = HomPoly.zero(3)
    assert z3.is_zero()
    assert z3.degree == 3
    assert z3 != HomPoly.zero(2)
    with pytest.raises(ValueError, match="no leading term"):
        z3.leading()


def test_repr_and_equality_with_other_types():
    assert repr(parse_hompoly("x^2 - 1/2*y*z")) == "HomPoly(2, x^2 - 1/2*y*z)"
    assert repr(parse_bipoly("X0*Y1")) == "HomPoly((1, 1), X0*Y1)"
    one = parse_hompoly("1")
    assert one.__eq__(1) is NotImplemented
    assert one != 1 and X != "x"


def test_mul_degrees_add():
    p = X + Y
    q = X + Z
    assert (p * q).degree == 2
    assert (p * q).coeff((1, 0, 1)) == 1
    assert (p * q).coeff((1, 1, 0)) == 1


def test_scalar_mul_and_scale_agree():
    p = X * Y - Z * Z
    assert p * Fraction(3, 2) == p.scale(Fraction(3, 2))


def test_coeff_vector_roundtrip():
    p = parse_hompoly("x^2 - 3*x*z + 1/2*y^2")
    v = p.coeff_vector()
    assert len(v) == h0_p2(2)
    assert v == tuple(p.coeff(m) for m in mono_basis(2))
    assert HomPoly.from_coeff_vector(2, v) == p
    assert HomPoly.zero(2).coeff_vector() == (0,) * h0_p2(2)
    for short_or_long in (v[:-1], v + (0,)):
        with pytest.raises(ValueError, match="need 6 coefficients"):
            HomPoly.from_coeff_vector(2, short_or_long)


# ---------------------------------------------------------------- multiple columns


def reference_columns(generators, degree):
    """One product and one coefficient vector per (generator, monomial)."""
    return [
        list((HomPoly.monomial(m) * g).coeff_vector())
        for g in generators
        for m in mono_basis(degree - g.degree)
    ]


def random_rational_form(rng, degree):
    terms = {}
    for m in mono_basis(degree):
        if rng.random() < 0.6:
            terms[m] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return HomPoly(degree, terms)


def test_multiple_columns_match_products_on_random_generators():
    rng = random.Random("multiple-columns")
    for _ in range(20):
        gens = [random_rational_form(rng, rng.randint(0, 4)) for _ in range(rng.randint(1, 4))]
        degree = rng.randint(0, 7)
        assert multiple_columns(gens, degree) == reference_columns(gens, degree)


def test_multiple_columns_zero_generator_gives_zero_columns():
    gens = [HomPoly.zero(2), parse_hompoly("x*y - 3/4*z^2")]
    cols = multiple_columns(gens, 4)
    assert cols == reference_columns(gens, 4)
    assert len(cols) == 2 * h0_p2(2)
    assert all(e == 0 for col in cols[: h0_p2(2)] for e in col)


def test_multiple_columns_degree_zero_generators():
    gens = [HomPoly(0, {(0, 0, 0): Fraction(5, 3)}), HomPoly.zero(0)]
    for degree in (0, 1, 3):
        assert multiple_columns(gens, degree) == reference_columns(gens, degree)
    assert multiple_columns(gens[:1], 2)[1] == [0, Fraction(5, 3), 0, 0, 0, 0]


def test_multiple_columns_target_below_generator_degree():
    gens = [parse_hompoly("x^3 + y*z^2"), parse_hompoly("x - 2*y")]
    cols = multiple_columns(gens, 2)
    assert cols == reference_columns(gens, 2)
    assert len(cols) == h0_p2(1)  # only the linear generator contributes
    assert multiple_columns(gens, -1) == []


def test_cancellation_drops_terms():
    p = X * Y + Y * X.scale(Fraction(-1))
    assert p.is_zero()
    assert p.degree == 2


small_coeff = st.integers(min_value=-9, max_value=9)


def poly_strategy(degree):
    basis = mono_basis(degree) if isinstance(degree, int) else bimono_basis(*degree)
    return st.lists(small_coeff, min_size=len(basis), max_size=len(basis)).map(
        lambda cs: HomPoly(degree, {m: Fraction(c) for m, c in zip(basis, cs) if c})
    )


@given(poly_strategy(2), poly_strategy(2))
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(poly_strategy(1), poly_strategy(1), poly_strategy(1))
def test_multiplication_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(poly_strategy(1), poly_strategy(2))
def test_multiplication_commutes(p, q):
    assert p * q == q * p


@settings(max_examples=60)
@given(poly_strategy(3))
def test_parse_of_str_roundtrips(p):
    assert parse_hompoly(str(p), degree=3) == p


@settings(max_examples=60)
@given(st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(poly_strategy))
def test_parse_of_str_roundtrips_on_bidegree_forms(p):
    assert parse_bipoly(str(p), bidegree=p.degree) == p


# ---------------------------------------------------------------- parsing


def test_parse_basic_forms():
    assert parse_hompoly("x^2*y") == X * X * Y
    assert parse_hompoly("x + y + z") == X + Y + Z
    assert parse_hompoly("-x") == X.scale(Fraction(-1))
    assert parse_hompoly("3/4*x*y") == (X * Y).scale(Fraction(3, 4))


def test_parse_example_curve():
    p = parse_hompoly("x^2*y - 2*x*z^2 + y^2*z")
    assert p.degree == 3
    assert p.coeff((1, 0, 2)) == -2


def test_parse_constant():
    assert parse_hompoly("5").degree == 0
    assert parse_hompoly("0", degree=4) == HomPoly.zero(4)


def test_parse_sums_repeated_monomials_to_the_left_to_right_sum():
    # 16 000 terms over distinct denominators, alternating in sign, split
    # between x^2 and y^2 (and a pair that cancels): the parser adds each
    # monomial's terms pairwise, and must get the running total's value.
    coeffs = [Fraction((-1) ** k, k + 2) for k in range(16000)]
    text = " ".join(f"{'+' if c > 0 else '-'} {abs(c)}*{'xy'[k % 2]}^2" for k, c in enumerate(coeffs))
    want = [Fraction(0), Fraction(0)]
    for k, c in enumerate(coeffs):
        want[k % 2] += c
    assert parse_hompoly(text + " + 3*z^2 - 3*z^2") == HomPoly(2, {(2, 0, 0): want[0], (0, 2, 0): want[1]})
    assert parse_hompoly("x - 1/2*x - 1/2*x + y") == Y


def test_parse_rejects_inhomogeneous():
    with pytest.raises(ParseError) as err:
        parse_hompoly("x + y^2")
    assert "degree" in str(err.value)


def test_parse_rejects_garbage():
    for bad in ("x +", "2*", "x^", "w", "x^-1", "1/0*x", "", " ", "x^0", "x*"):
        with pytest.raises(ParseError):
            parse_hompoly(bad)


def test_parse_zero_needs_declared_degree():
    with pytest.raises(ParseError):
        parse_hompoly("0")


def test_parse_degree_mismatch_rejected():
    with pytest.raises(ParseError):
        parse_hompoly("x*y", degree=3)


def test_parse_bipoly():
    p = parse_bipoly("X0*Y0 - X1*Y1")
    assert p.degree == (1, 1)
    assert p.coeff((1, 0, 1, 0)) == 1
    assert p.coeff((0, 1, 0, 1)) == -1


def test_parse_bipoly_rejects_mixed_bidegree():
    with pytest.raises(ParseError):
        parse_bipoly("X0 + Y0")


def parse_outcome(parse, text, degree):
    """A parse as golden-file JSON: degree and "p/q" terms, or the error text."""
    try:
        p = parse(text, degree)
    except ParseError as err:
        return {"error": str(err)}
    degree = p.degree if isinstance(p.degree, int) else list(p.degree)
    return {"degree": degree, "terms": [[list(m), str(c)] for m, c in sorted(p.terms.items())]}


def test_parse_replays_the_golden_corpus():
    """tests/parse_golden.json pins every parser outcome: one hand-written row
    per error message first, then seeded random texts over both rings."""
    rows = json.loads(Path(__file__).with_name("parse_golden.json").read_text(encoding="utf-8"))
    assert len(rows) > 300
    for row in rows:
        parse = parse_hompoly if row["ring"] == "plane" else parse_bipoly
        assert parse_outcome(parse, row["text"], row["degree"]) == row["result"], row


# ---------------------------------------------------------------- calculus


def test_derivative_of_cubic():
    f = parse_hompoly("x^2*y - 2*x*z^2 + y^2*z")
    assert f.derivative(0) == parse_hompoly("2*x*y - 2*z^2")
    assert f.derivative(1) == parse_hompoly("x^2 + 2*y*z")
    assert f.derivative(2) == parse_hompoly("-4*x*z + y^2")


def test_derivative_constant_is_zero():
    assert parse_hompoly("7").derivative(0).is_zero()


def test_euler_identity():
    # x f_x + y f_y + z f_z = deg(f) f for homogeneous f
    f = parse_hompoly("x^3 - 2*x*y*z + 5*z^3")
    total = X * f.derivative(0) + Y * f.derivative(1) + Z * f.derivative(2)
    assert total == f.scale(Fraction(3))


def test_evaluate():
    f = parse_hompoly("x^2*y - 2*x*z^2 + y^2*z")
    assert f.evaluate((Fraction(1), Fraction(1), Fraction(1))) == 0
    assert f.evaluate((Fraction(1), Fraction(2), Fraction(0))) == 2


def test_compose_linear_identity():
    f = parse_hompoly("x^2 - y*z")
    assert f.compose_linear((X, Y, Z)) == f


def test_compose_linear_swap():
    f = parse_hompoly("x^2 - y*z")
    g = f.compose_linear((Y, X, Z))
    assert g == parse_hompoly("y^2 - x*z")
    for images in ((Y, X * X, Z), (Y, X, HomPoly.zero(0))):
        with pytest.raises(ValueError, match="degree 1"):
            f.compose_linear(images)


def test_divide_exact_recovers_factor():
    p = parse_hompoly("x + 2*y")
    q = parse_hompoly("x^2 - y*z + z^2")
    assert divide_exact(p * q, p) == q
    assert divide_exact(p * q, q) == p


def test_divide_exact_rejects_non_multiple():
    with pytest.raises(ValueError):
        divide_exact(parse_hompoly("x^2 + y^2"), parse_hompoly("x + y"))
    with pytest.raises(ValueError, match="negative degree"):
        divide_exact(X, X * Y)
    for p in (X, HomPoly.zero(1)):
        with pytest.raises(ZeroDivisionError):
            divide_exact(p, HomPoly.zero(1))


def test_bigraded_product():
    p = parse_bipoly("X0*Y0")
    q = parse_bipoly("X1*Y1")
    assert (p * q).degree == (2, 2)
    assert (p * q).coeff((1, 1, 1, 1)) == 1


# ---------------------------------------------------------------- one type, two rings
#
# The 3-tuple column kernel that the shift table replaced, kept here as the
# reference for the kernel; ``terms_product`` of ``oracles`` is the one for
# the product.

BIDEGREES = [(a, b) for a in range(4) for b in range(4)]


def tuple_kernel(generators, degree):
    """Columns of m*g written through a plain monomial -> position dict."""
    index = {m: i for i, m in enumerate(mono_basis(degree))}
    columns = []
    for gen in generators:
        for a, b, c in mono_basis(degree - gen.degree):
            col = [Fraction(0)] * len(index)
            for (ta, tb, tc), coeff in gen.terms.items():
                col[index[(a + ta, b + tb, c + tc)]] = coeff
            columns.append(col)
    return columns


def seeded_forms(rng, degrees, basis_of):
    """A sparse, a dense and a zero form of every degree, with rational
    coefficients."""
    forms = []
    for degree in degrees:
        for density in (0.2, 1.0, 0.0):
            terms = {
                m: Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 5]))
                for m in basis_of(degree)
                if rng.random() < density
            }
            forms.append(HomPoly(degree, terms))
    return forms


def test_products_match_dict_product_on_both_rings():
    rng = random.Random("shift-table-products")
    rings = (
        (seeded_forms(rng, range(7), mono_basis), lambda d, e: d + e),
        (
            seeded_forms(rng, BIDEGREES, lambda d: bimono_basis(*d)),
            lambda d, e: (d[0] + e[0], d[1] + e[1]),
        ),
    )
    for forms, add in rings:
        for p in forms:
            for q in rng.sample(forms, 8):
                assert p * q == HomPoly(add(p.degree, q.degree), terms_product(p.terms, q.terms))


def test_multiple_columns_match_tuple_kernel_and_products():
    rng = random.Random("shift-table-columns")
    plane = seeded_forms(rng, range(7), mono_basis)
    for _ in range(40):
        gens = rng.sample(plane, rng.randint(1, 4))
        degree = rng.randint(0, 9)
        assert multiple_columns(gens, degree) == tuple_kernel(gens, degree)
    for gen in seeded_forms(rng, BIDEGREES, lambda d: bimono_basis(*d)):
        target = (rng.randint(0, 5), rng.randint(0, 5))
        cofactor_degree = (target[0] - gen.degree[0], target[1] - gen.degree[1])
        expected = []
        for m in bimono_basis(*cofactor_degree):
            prod = terms_product(gen.terms, BigradedPoly.monomial(m).terms)
            expected.append([prod.get(t, 0) for t in bimono_basis(*target)])
        assert multiple_columns([gen], target) == expected


def test_plane_and_bidegree_forms_do_not_mix_in_arithmetic():
    plane = [X, X * Y, HomPoly.zero(1), HomPoly.zero(2)]
    bidegree = [parse_bipoly("X0*Y0"), parse_bipoly("X0"), BigradedPoly.zero((1, 0))]
    for p in plane:
        for q in bidegree:
            for a, b in ((p, q), (q, p)):
                for op in (operator.add, operator.sub, operator.mul):
                    with pytest.raises((TypeError, ValueError)):
                        op(a, b)
                with pytest.raises((TypeError, ValueError)):
                    multiple_columns([a], b.degree)


def test_divide_exact_refuses_bidegree_forms():
    p = parse_bipoly("X0^2*Y0 - X1^2*Y0")
    q = parse_bipoly("X0 + X1")
    for num, den in ((p, q), (BigradedPoly.zero((2, 1)), q), (X * X, q), (p, X)):
        with pytest.raises(TypeError, match="plane form"):
            divide_exact(num, den)


def test_derivative_refuses_bidegree_forms():
    for p in (parse_bipoly("X0^2*Y1"), BigradedPoly.zero((1, 1)), parse_bipoly("3")):
        for var in range(3):
            with pytest.raises(TypeError, match="plane form"):
                p.derivative(var)


def test_bigraded_poly_is_hom_poly_with_bidegree_alias():
    assert BigradedPoly is HomPoly
    p = parse_bipoly("X0*Y0 - 2*X1*Y1")
    assert p.degree == (1, 1)
    assert str(p) == "X0*Y0 - 2*X1*Y1"
    assert p.coeff_vector() == (1, 0, 0, -2)
    with pytest.raises(AttributeError):
        p.degree = (2, 2)
    with pytest.raises(ValueError):
        BigradedPoly((1, 1), {(1, 0, 1): 1})
    with pytest.raises(ValueError):
        HomPoly(2, {(1, 0, 1, 0): 1})


def test_parse_error_messages_name_lowest_and_highest_degree():
    with pytest.raises(ParseError) as err:
        parse_hompoly("x + y^3 + z^2")
    assert str(err.value) == "not homogeneous: 'x + y^3 + z^2' mixes degree 1 and degree 3 terms"
    with pytest.raises(ParseError) as err:
        parse_bipoly("X0 + Y0")
    assert str(err.value) == "not bihomogeneous: 'X0 + Y0' mixes bidegree (0, 1) and bidegree (1, 0) terms"
    with pytest.raises(ParseError) as err:
        parse_bipoly("X0*Y0", bidegree=[2, 1])
    assert str(err.value) == "declared bidegree (2, 1) but terms have bidegree (1, 1)"
    with pytest.raises(ParseError) as err:
        parse_bipoly("0")
    assert str(err.value) == "zero polynomial needs a declared bidegree"
    assert parse_bipoly("0", bidegree=[1, 2]) == BigradedPoly.zero((1, 2))


# ---------------------------------------------------------------- integer storage


def test_terms_is_a_view_that_mutation_does_not_reach():
    product = (X + Y) * (X - Z)
    saved = [(form, str(form), hash(form)) for form in (X, product)]
    for form in (X, product):
        view = form.terms
        view[(1, 0, 0)] = Fraction(5)
        view[(0, 2, 0)] = Fraction(-1, 3)
        view.clear()
    for form, text, digest in saved:
        assert str(form) == text and hash(form) == digest
        with pytest.raises(TypeError):
            form.nums[(1, 0, 0)] = 5
        for attr, value in (("degree", 2), ("den", 2), ("nums", {}), ("terms", {}), ("extra", 0)):
            with pytest.raises(AttributeError):
                setattr(form, attr, value)
    assert X == HomPoly.monomial((1, 0, 0))
    assert str(X + X) == "2*x"
    assert product == parse_hompoly("x^2 + x*y - x*z - y*z")


def assert_canonical(form):
    """Integer numerators over one positive denominator, in lowest terms."""
    assert type(form.den) is int and form.den > 0
    assert all(type(c) is int and c for c in form.nums.values())
    assert math.gcd(form.den, *form.nums.values()) == 1
    assert form.den == 1 or not form.is_zero()


def assert_matches(got, degree, reference):
    """``got`` has the reference terms and degree, is canonical, and equals,
    with the same hash, the form the public constructor builds from them."""
    assert got.degree == degree
    assert got.terms == reference
    assert_canonical(got)
    public = HomPoly(degree, reference)
    assert got == public and hash(got) == hash(public)


def arithmetic_forms(rng, degrees, basis_of):
    """Per degree: an integral, a non-integral and a sparse form, and zero."""
    forms = []
    for degree in degrees:
        basis = basis_of(degree)
        for density, dens in ((1.0, (1,)), (1.0, (1, 2, 3, 4, 6)), (0.3, (1, 5, 7)), (0.0, (1,))):
            terms = {
                m: Fraction(rng.randint(-9, 9), rng.choice(dens))
                for m in basis
                if rng.random() < density
            }
            forms.append(HomPoly(degree, terms))
    return forms


PLANE_DEGREES = range(5)
BI_DEGREES = [(a, b) for a in range(3) for b in range(3)]
SCALARS = [0, 1, -3, Fraction(2, 3), Fraction(-7, 4), Fraction(6, 5)]


def both_rings(rng):
    """Plane and P1 x P1 forms, each with its degree arithmetic."""
    return (
        (arithmetic_forms(rng, PLANE_DEGREES, mono_basis), lambda d, e: d + e),
        (
            arithmetic_forms(rng, BI_DEGREES, lambda d: bimono_basis(*d)),
            lambda d, e: (d[0] + e[0], d[1] + e[1]),
        ),
    )


def test_ring_operations_match_the_fraction_reference():
    rng = random.Random("integer-forms")
    for forms, add in both_rings(rng):
        for p in forms:
            for q in (f for f in forms if f.degree == p.degree):
                assert_matches(p + q, p.degree, terms_sum(p.terms, q.terms))
                assert_matches(p - q, p.degree, terms_sum(p.terms, q.terms, -1))
                assert p - q == p + (-q) and hash(p - q) == hash(p + (-q))
            assert_matches(-p, p.degree, terms_scale(p.terms, -1))
            for q in rng.sample(forms, 6):
                assert_matches(p * q, add(p.degree, q.degree), terms_product(p.terms, q.terms))
                assert p * q == q * p and hash(p * q) == hash(q * p)
            for s in SCALARS:
                assert_matches(p.scale(s), p.degree, terms_scale(p.terms, Fraction(s)))
                assert s * p == p.scale(s)


def test_plane_calculus_matches_the_fraction_reference():
    rng = random.Random("integer-calculus")
    forms = arithmetic_forms(rng, PLANE_DEGREES, mono_basis)
    linear = [f for f in arithmetic_forms(rng, [1], mono_basis) if not f.is_zero()]
    for p in forms:
        for var in range(3):
            assert_matches(p.derivative(var), p.degree - 1, terms_derivative(p.terms, var))
        for _ in range(3):
            point = [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 7))) for _ in range(3)]
            assert p.evaluate(point) == terms_evaluate(p.terms, point)
            for var in range(3):
                dp = p.derivative(var)
                assert dp.evaluate(point) == terms_evaluate(dp.terms, point)
        images = [rng.choice(linear) for _ in range(3)]
        reference = terms_compose(p.terms, [image.terms for image in images])
        assert_matches(p.compose_linear(images), p.degree, reference)


def test_form_arithmetic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random("integer-forms-sympy")
    plane_gens = sympy.symbols("x y z")

    def rational(c):
        return sympy.Rational(c.numerator, c.denominator)

    def poly(form):
        gens = plane_gens if isinstance(form.degree, int) else sympy.symbols("X0 X1 Y0 Y1")
        terms = {m: rational(c) for m, c in form.terms.items()}
        return sympy.Poly.from_dict(terms, *gens) if terms else sympy.Poly(0, *gens)

    def same(got, ref):
        assert {m: rational(c) for m, c in got.terms.items()} == ref.as_dict()

    rings = both_rings(rng)
    for forms, _ in rings:
        for p in forms:
            q = rng.choice([f for f in forms if f.degree == p.degree])
            r = rng.choice(forms)
            same(p + q, poly(p) + poly(q))
            same(p - q, poly(p) - poly(q))
            same(-p, -poly(p))
            same(p * r, poly(p) * poly(r))
            same(p.scale(Fraction(-7, 4)), poly(p) * sympy.Rational(-7, 4))
    images = [X - Fraction(1, 2) * Z, Y.scale(3) + X, Z - Fraction(2, 3) * Y]
    substitution = dict(zip(plane_gens, (poly(i).as_expr() for i in images)))
    for p in rings[0][0]:
        for var, sym in enumerate(plane_gens):
            same(p.derivative(var), poly(p).diff(sym))
        point = [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(3)]
        value = poly(p).as_expr().subs(dict(zip(plane_gens, map(rational, point))))
        assert rational(p.evaluate(point)) == value
        expr = poly(p).as_expr().subs(substitution, simultaneous=True)
        same(p.compose_linear(images), sympy.Poly(expr, *plane_gens))
