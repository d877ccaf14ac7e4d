"""Minor ideals, multiplication maps, containment ladders, cross-checks."""

from fractions import Fraction

import pytest

import detrep.linalg
from detrep.ideals import (
    component_dim,
    component_matrix,
    containment_degree,
    diagram_crosscheck,
    disjointness_check,
    mult_map_matrix,
    mult_map_report,
    u_generators,
)
from detrep.bundles import T
from detrep.detmatrix import Section, wedge_curve
from detrep.linalg import ExactMatrix, in_column_space, multiplication_matrix, rank
from detrep.polynomials import HomPoly, X, Y, Z, h0_p2, mono_basis, parse_hompoly
from detrep.sampling import derive_rng, random_hompoly, random_pair
from detrep.tangent import cofactor_forms, smoothness_check


def triple(*texts):
    return tuple(parse_hompoly(t) for t in texts)


# ---------------------------------------------------------------- generators


def test_u_generators_hand_expansion():
    f = triple("x", "2*y", "3*z")
    g = triple("y", "z", "x")
    u = u_generators(f, g)
    assert u.n == 0
    assert len(u.generators) == 6
    # cofactor forms C1 = c*y - b*z, C2 = a*z - c*x, C3 = b*x - a*y of f
    assert u.generators[0] == parse_hompoly("y*z")         # 3*z*y - 2*y*z
    assert u.generators[1] == parse_hompoly("-2*x*z")      # x*z - 3*z*x
    assert u.generators[2] == parse_hompoly("x*y")         # 2*y*x - x*y
    # and of g
    assert u.generators[3] == parse_hompoly("x*y - z^2")
    assert u.generators[4] == parse_hompoly("y*z - x^2")
    assert u.generators[5] == parse_hompoly("x*z - y^2")
    s_f, s_g = Section(T(0), f), Section(T(0), g)
    assert u.generators == cofactor_forms(s_f) + cofactor_forms(s_g)


def test_u_generators_degree_checks():
    with pytest.raises(ValueError):
        u_generators(triple("x", "y", "z"), triple("x^2", "y^2", "z^2"))
    with pytest.raises(ValueError):
        u_generators(triple("x", "y", "z"), triple("x", "y", "z"), n=3)


def test_generators_vanish_where_triple_matches_coordinates():
    # at a point where (f1,f2,f3) is proportional to (x,y,z) all f-minors die
    f = triple("y", "z", "x")
    u = u_generators(f, f)
    pt = (Fraction(1), Fraction(1), Fraction(1))
    for gen in u.generators:
        assert gen.evaluate(pt) == 0


# ---------------------------------------------------------------- mult map


def test_mult_map_rank_matches_ideal_component():
    # two code paths: column rank of the bilinear map vs the graded piece
    rng = derive_rng(31, "mult", 0)
    for n in (0, 1):
        f = tuple(random_hompoly(rng, n + 1) for _ in range(3))
        g = tuple(random_hompoly(rng, n + 1) for _ in range(3))
        u = u_generators(f, g)
        assert rank(mult_map_matrix(u)) == component_dim(list(u.generators), 2 * n + 3)


def reference_mult_map_matrix(u):
    """One product and one coefficient vector per (generator, monomial)."""
    columns = [
        (HomPoly.monomial(mono) * gen).coeff_vector()
        for gen in u.generators
        for mono in mono_basis(u.n + 1)
    ]
    return ExactMatrix.from_columns(columns, rows=h0_p2(2 * u.n + 3))


def test_mult_map_matrix_matches_reference_products():
    for n in range(5):
        s1, s2 = random_pair(derive_rng(31, "mult-reference", n), T(n))
        u = u_generators(s1.components, s2.components)
        assert mult_map_matrix(u) == reference_mult_map_matrix(u)
    # the special pair at k = 3, which is n = 3
    n = 3
    zero = HomPoly.zero(n + 1)
    f = (HomPoly.monomial((0, 0, n + 1)), HomPoly.monomial((n + 1, 0, 0)), zero)
    g = (zero, HomPoly.monomial((0, 0, n + 1)), HomPoly.monomial((0, n + 1, 0)))
    u = u_generators(f, g)
    assert mult_map_matrix(u) == reference_mult_map_matrix(u)


def test_mult_map_keeps_zero_generator_columns():
    u = u_generators(triple("x", "y", "z"), triple("x", "y", "z"))
    matrix = mult_map_matrix(u)
    assert matrix == reference_mult_map_matrix(u)
    assert matrix.cols == 6 * h0_p2(1)
    assert mult_map_report(u).domain_dim == 6 * h0_p2(1)


def test_mult_map_surjective_generic_small():
    rng = derive_rng(31, "mult", 1)
    f = tuple(random_hompoly(rng, 1) for _ in range(3))
    g = tuple(random_hompoly(rng, 1) for _ in range(3))
    rep = mult_map_report(u_generators(f, g))
    assert rep.target_dim == h0_p2(3)
    assert rep.surjective


def test_mult_map_collapses_for_equal_triples():
    f = triple("x", "y", "z")
    u = u_generators(f, f)
    assert all(gen.is_zero() for gen in u.generators)
    assert not mult_map_report(u).surjective


def test_recombining_the_pair_preserves_the_image():
    rng = derive_rng(31, "gl2", 0)
    f = tuple(random_hompoly(rng, 2) for _ in range(3))
    g = tuple(random_hompoly(rng, 2) for _ in range(3))
    f2 = tuple(p * Fraction(2) + q * Fraction(3) for p, q in zip(f, g))
    g2 = tuple(p + q * Fraction(2) for p, q in zip(f, g))
    ua, ub = u_generators(f, g), u_generators(f2, g2)
    assert rank(mult_map_matrix(ua)) == rank(mult_map_matrix(ub))
    # span equality in the generating degree
    A = component_matrix(list(ua.generators), ua.n + 2)
    assert all(in_column_space(A, gen.coeff_vector()).member for gen in ub.generators)


# ---------------------------------------------------------------- ladders


def brute_monomial_ideal_dim(exps, k):
    # valid for monomial generators only: count divisible monomials
    count = 0
    for m in mono_basis(k):
        if any(all(m[i] >= e[i] for i in range(3)) for e in exps):
            count += 1
    return count


def test_component_dim_against_divisibility_count():
    cases = [
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(2, 0, 0), (0, 2, 0), (0, 0, 2)],
        [(2, 1, 0), (0, 0, 3)],
        [(1, 1, 0), (0, 1, 1), (1, 0, 1)],
    ]
    for exps in cases:
        gens = [HomPoly.monomial(e) for e in exps]
        for k in range(0, 7):
            assert component_dim(gens, k) == brute_monomial_ideal_dim(exps, k)


def test_containment_degree_coordinate_ideal():
    rep = containment_degree([X, Y, Z])
    assert rep.reached == 1


def test_containment_degree_squares():
    rep = containment_degree([X * X, Y * Y, Z * Z])
    assert rep.reached == 4
    dims = {row.k: row.dim for row in rep.ladder}
    assert dims[3] == 9  # only x^3 alone misses... the monomial count says 9 of 10
    assert dims[4] == h0_p2(4)


def test_containment_not_reached_reports_none():
    # two squares share the zero point (0:0:1), the ladder can never fill
    rep = containment_degree([X * X, Y * Y])
    assert rep.reached is None
    assert len(rep.ladder) == 5


def test_component_dim_of_principal_ideal():
    f = parse_hompoly("x^2 + y*z")
    for k in (2, 3, 4):
        assert component_dim([f], k) == h0_p2(k - 2)


# ---------------------------------------------------------------- cross-checks


def test_crosscheck_generic_pair_all_green():
    rng = derive_rng(31, "cross", 0)
    f = tuple(random_hompoly(rng, 1) for _ in range(3))
    g = tuple(random_hompoly(rng, 1) for _ in range(3))
    rep = diagram_crosscheck(f, g)
    assert rep.gpli
    assert rep.mult_surjective
    assert rep.tangent_surjective
    assert rep.agree


def test_crosscheck_equal_triples_degenerate():
    f = triple("x", "y", "z")
    rep = diagram_crosscheck(f, f)
    assert not rep.gpli
    assert not rep.mult_surjective
    assert not rep.tangent_surjective
    assert rep.agree


def test_crosscheck_builds_one_wedge_curve(monkeypatch):
    # One wedge curve, and the pair's minors built once: the cofactor forms
    # of each section feed both the multiplication and the tangent matrix.
    import detrep.detmatrix
    import detrep.ideals
    import detrep.tangent

    results = {"wedge_curve": [], "cofactor_forms": []}
    for name, owner, sites in (
        ("wedge_curve", detrep.detmatrix, (detrep.detmatrix, detrep.tangent)),
        ("cofactor_forms", detrep.tangent, (detrep.tangent, detrep.ideals)),
    ):
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original):
            results[_name].append(_original(*args))
            return results[_name][-1]

        for module in sites:
            monkeypatch.setattr(module, name, counted)
    s1, s2 = random_pair(derive_rng(31, "cross-count", 0), T(1))
    rep = diagram_crosscheck(s1, s2)
    assert rep.gpli and rep.agree
    assert {name: len(out) for name, out in results.items()} == {"wedge_curve": 1, "cofactor_forms": 2}
    c1, c2 = results["cofactor_forms"]
    assert rep.mult_matrix == multiplication_matrix(c1 + c2, 5)


def test_ring_operations_skip_the_validating_constructor(monkeypatch):
    # Every form a cross-check or a smoothness check makes comes from a ring
    # operation or an unpacked determinant, so the public constructor, which
    # validates every term, never runs there.
    pairs = [random_pair(derive_rng(31, "init-count", n), T(n)) for n in range(1, 5)]
    calls = []
    original = HomPoly.__init__

    def counted(self, *args):
        calls.append(args)
        original(self, *args)

    monkeypatch.setattr(HomPoly, "__init__", counted)
    for s1, s2 in pairs:
        rep = diagram_crosscheck(s1, s2)
        assert rep.gpli and rep.agree
        smoothness_check(wedge_curve(s1, s2))
    assert calls == []
    assert HomPoly(1, {(1, 0, 0): 1}) == X and len(calls) == 1


def test_crosscheck_takes_no_cokernel_witness(monkeypatch):
    # The cross-check's report has no field for a cokernel functional, so a
    # non-surjective pair ranks its multiplication matrix and solves nothing.
    calls = []
    original = detrep.linalg._left_kernel

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(detrep.linalg, "_left_kernel", counted)
    n = 3  # the special pair at k = 3
    zero = HomPoly.zero(n + 1)
    f = (HomPoly.monomial((0, 0, n + 1)), HomPoly.monomial((n + 1, 0, 0)), zero)
    g = (zero, HomPoly.monomial((0, 0, n + 1)), HomPoly.monomial((0, n + 1, 0)))
    rep = diagram_crosscheck(f, g)
    assert (rep.mult_rank, rep.mult_surjective, rep.tangent_surjective) == (54, False, False)
    assert rep.gpli and rep.agree
    assert calls == []


def test_disjointness_of_the_special_pair():
    # vanishing loci {y=z=0} and {x=z=0} share no projective point
    n = 1
    zero = HomPoly.zero(n + 1)
    f = (HomPoly.monomial((0, 0, n + 1)), HomPoly.monomial((n + 1, 0, 0)), zero)
    g = (zero, HomPoly.monomial((0, 0, n + 1)), HomPoly.monomial((0, n + 1, 0)))
    rep = disjointness_check(f, g)
    assert rep.disjoint_certified


def test_disjointness_fails_for_equal_triples():
    f = triple("x", "y", "z")
    rep = disjointness_check(f, f)
    assert not rep.disjoint_certified
