"""Two-by-two determinants of bidegree forms on a product of lines."""

import random
from fractions import Fraction

import pytest

from detrep.biprojective import (
    QuadSections,
    dpsi_matrix,
    dpsi_report,
    monomial_cover_check,
    psi,
    quad_sections,
    witness_quad,
)
from detrep.linalg import ExactMatrix, rank
from detrep.polynomials import BigradedPoly, bimono_basis, parse_bipoly
from oracles import times


def random_biform(rng, a, b):
    terms = {}
    for mono in bimono_basis(a, b):
        c = rng.randint(-9, 9)
        if c:
            terms[mono] = Fraction(c)
    return BigradedPoly((a, b), terms)


def random_quad(rng, a, b, m):
    return QuadSections(a, b, m, tuple(random_biform(rng, m * a, m * b) for _ in range(4)))


# ---------------------------------------------------------------- validation


def test_rejects_zero_factor_degree():
    comps = (parse_bipoly("X0"), parse_bipoly("X1"), parse_bipoly("X1"), parse_bipoly("X0"))
    with pytest.raises(ValueError):
        QuadSections(1, 0, 1, comps)


def test_rejects_zero_multiple():
    q = witness_quad(1, 1, 1)
    with pytest.raises(ValueError):
        QuadSections(1, 1, 0, q.components)


def test_rejects_wrong_bidegree_component():
    bad = (
        parse_bipoly("X0*Y0"),
        parse_bipoly("X0*Y1"),
        parse_bipoly("X1*Y0"),
        parse_bipoly("X0^2*Y1"),  # bidegree (2,1), not (1,1)
    )
    with pytest.raises(ValueError):
        quad_sections(1, 1, 1, bad)


# ---------------------------------------------------------------- psi


def test_psi_of_witness():
    q = witness_quad(1, 1, 1)
    # X0Y0*X1Y1 - X0Y1*X1Y0 = 0: the corner quadruple itself is degenerate
    assert psi(q).is_zero()


def test_psi_bidegree_doubles():
    rng = random.Random(41)
    q = random_quad(rng, 1, 2, 1)
    assert psi(q).bidegree == (2, 4)


def test_psi_hand_example():
    comps = (
        parse_bipoly("X0*Y0"),
        parse_bipoly("X1*Y1"),
        parse_bipoly("X1*Y0"),
        parse_bipoly("X0*Y1"),
    )
    q = quad_sections(1, 1, 1, comps)
    expected = parse_bipoly("X0^2*Y0*Y1 - X1^2*Y0*Y1")
    assert psi(q) == expected


# ---------------------------------------------------------------- derivative


def test_dpsi_matrix_shape():
    q = witness_quad(1, 1, 1)
    m = dpsi_matrix(q)
    assert m.cols == 4 * 4        # four slots, four bidegree-(1,1) monomials
    assert m.rows == 9            # bidegree-(2,2) monomials


def test_dpsi_witness_surjective_one_one_one():
    rep = dpsi_report(witness_quad(1, 1, 1))
    assert rep.domain_dim == 16
    assert rep.target_dim == 9
    assert rep.rank == 9
    assert rep.surjective


def test_dpsi_is_the_linearization():
    # psi(F + t f) - psi(F) - t dpsi_F(f) = t^2 psi(f), checked at t = 1 and t = -2
    rng = random.Random(42)
    F = random_quad(rng, 1, 1, 1)
    f = random_quad(rng, 1, 1, 1)
    m = dpsi_matrix(F)
    fvec = []
    for comp in f.components:
        fvec.extend(comp.coeff_vector())
    dpsi_f = times(m, fvec)
    target = bimono_basis(2, 2)
    for t in (Fraction(1), Fraction(-2)):
        moved = QuadSections(
            1, 1, 1, tuple(a + b.scale(t) for a, b in zip(F.components, f.components))
        )
        lhs = psi(moved) + psi(F).scale(Fraction(-1))
        lin = BigradedPoly((2, 2), {mo: t * c for mo, c in zip(target, dpsi_f) if c})
        assert lhs + lin.scale(Fraction(-1)) == psi(f).scale(t * t)


def test_dpsi_slot_partners():
    # perturbing one slot multiplies by the diagonal-opposite entry, signed
    rng = random.Random(43)
    F = random_quad(rng, 1, 1, 1)
    F1, F2, F3, F4 = F.components
    partners = (F4, -F3, -F2, F1)
    probe = parse_bipoly("X0*Y0")
    m = dpsi_matrix(F)
    target = bimono_basis(2, 2)
    for slot in range(4):
        f_comps = [BigradedPoly((1, 1), {}) for _ in range(4)]
        f_comps[slot] = probe
        vec = []
        for comp in f_comps:
            vec.extend(comp.coeff_vector())
        image = times(m, vec)
        got = BigradedPoly((2, 2), {mo: c for mo, c in zip(target, image) if c})
        assert got == partners[slot] * probe


def reference_dpsi(q):
    """The column loop that dpsi_matrix replaced: one product (by adding
    exponent quadruples) per slot and bidegree-(ma, mb) monomial, read off
    in the target basis."""
    f1, f2, f3, f4 = q.components
    ma, mb = q.m * q.a, q.m * q.b
    target = bimono_basis(2 * ma, 2 * mb)
    columns = []
    for mult in (f4, -f3, -f2, f1):
        for mono in bimono_basis(ma, mb):
            prod = {}
            for t, c in mult.terms.items():
                key = tuple(u + v for u, v in zip(t, mono))
                prod[key] = prod.get(key, 0) + c
            columns.append([prod.get(t, 0) for t in target])
    return ExactMatrix.from_columns(columns, rows=len(target))


def test_dpsi_matrix_matches_the_product_loop():
    rng = random.Random("dpsi-vs-loop")
    for a in (1, 2):
        for b in (1, 2):
            for m in (1, 2):
                for q in (random_quad(rng, a, b, m), witness_quad(a, b, m)):
                    got, want = dpsi_matrix(q), reference_dpsi(q)
                    assert (got.rows, got.cols) == (want.rows, want.cols)
                    assert got.entries == want.entries


def test_psi_matches_sympy_expand():
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("X0 X1 Y0 Y1")

    def expr(p):
        return sympy.Add(*(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(v**e for v, e in zip(gens, mono)))
            for mono, c in p.terms.items()
        ))

    rng = random.Random("psi-vs-sympy")
    for (a, b, m) in ((1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 2, 1)):
        q = random_quad(rng, a, b, m)
        f1, f2, f3, f4 = (expr(c) for c in q.components)
        ref = sympy.Poly(sympy.expand(f1 * f4 - f2 * f3), *gens).as_dict()
        got = psi(q)
        assert got.bidegree == (2 * m * a, 2 * m * b)
        assert {mono: sympy.Rational(c.numerator, c.denominator) for mono, c in got.terms.items()} == ref


# ---------------------------------------------------------------- cover


def test_cover_check_small_grid():
    for a in (1, 2):
        for b in (1, 2):
            for m in (1, 2):
                assert monomial_cover_check(a, b, m)


def test_cover_check_documented_case():
    assert monomial_cover_check(2, 3, 1)


def test_cover_check_rejects_bad_parameters():
    with pytest.raises(ValueError):
        monomial_cover_check(0, 1, 1)


def test_cover_matches_rank_verdict():
    rng = random.Random(44)
    for (a, b, m) in ((1, 1, 1), (2, 1, 1), (1, 2, 2)):
        assert monomial_cover_check(a, b, m) == dpsi_report(witness_quad(a, b, m)).surjective
