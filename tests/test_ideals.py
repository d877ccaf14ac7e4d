"""Minor ideals, multiplication maps, containment ladders, cross-checks."""

from fractions import Fraction

import pytest

import detrep.ideals
import detrep.linalg
from detrep.ideals import (
    component_dim,
    component_matrix,
    containment_degree,
    diagram_crosscheck,
    disjointness_check,
    koszul_syzygies,
    mult_map_matrix,
    mult_map_report,
    u_generators,
    u_syzygies,
)
from detrep.bundles import T
from detrep.detmatrix import GpliError, Section, shifted, wedge_curve
from detrep.linalg import ExactMatrix, in_column_space, multiplication_matrix, rank
from detrep.polynomials import HomPoly, X, Y, Z, h0_p2, mono_basis, parse_hompoly
from detrep.sampling import derive_rng, random_hompoly, random_pair
from detrep.tangent import cofactor_forms, section_space, smoothness_check, tangent_map


def triple(*texts):
    return tuple(parse_hompoly(t) for t in texts)


def special_pair(n):
    """The monomial pair (z^(n+1), x^(n+1), 0), (0, z^(n+1), y^(n+1)); at
    n = (3k - 3)/2 it is the special pair at k."""
    zero = HomPoly.zero(n + 1)
    f = (HomPoly.monomial((0, 0, n + 1)), HomPoly.monomial((n + 1, 0, 0)), zero)
    g = (zero, HomPoly.monomial((0, 0, n + 1)), HomPoly.monomial((0, n + 1, 0)))
    return f, g


def signed_columns_inside(small, big):
    """Every column of ``small`` is plus or minus some column of ``big``."""
    big_columns = set(zip(*big.entries))
    return all(
        col in big_columns or tuple(-x for x in col) in big_columns
        for col in zip(*small.entries)
    )


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
    f, g = special_pair(n)
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


def test_component_dim_below_every_generator_builds_no_matrix(monkeypatch):
    # A zero generator has no columns, so it does not count.
    gens = [X * X, HomPoly.zero(0), (Y * Y * Z).scale(Fraction(3, 2))]
    built = [rank(component_matrix(gens, k)) for k in range(4)]
    assert built == [0, 0, 1, 4]

    def refuse(*args, **kwargs):
        raise AssertionError("a rung below every generator built a matrix")

    monkeypatch.setattr(detrep.ideals, "multiplication_matrix", refuse)
    assert [component_dim(gens, k) for k in (0, 1)] == built[:2]
    assert component_dim([HomPoly.zero(1)], 3) == component_dim([], 0) == 0
    with pytest.raises(AssertionError, match="built a matrix"):
        component_dim(gens, 2)


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
    # The pair's minors built once, and no determinant taken: the cofactor
    # forms of each section feed the multiplication matrix, the tangent
    # matrix and the curve, which is their expansion along v2's row.
    import detrep.detmatrix
    import detrep.ideals
    import detrep.tangent

    results = {"det_poly": [], "cofactor_forms": []}
    for name, owner, sites in (
        ("det_poly", detrep.detmatrix, (detrep.detmatrix,)),
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
    assert {name: len(out) for name, out in results.items()} == {"det_poly": 0, "cofactor_forms": 2}
    # The inclusion the surjective verdict rests on: every tangent column is
    # a signed column of the multiplication matrix of the same minors, and
    # the curve column lies in its span.
    c1, c2 = results["cofactor_forms"]
    tangent = tangent_map(T(1), s1, s2)
    mult = multiplication_matrix(c1 + c2, 5)
    assert signed_columns_inside(tangent.matrix, mult)
    assert in_column_space(mult, tangent.curve.coeff_vector()).member


@pytest.mark.parametrize("n", [0, 1, 2])
def test_generically_dependent_pair_cuts_no_curve(n):
    # v2 = c*v1 plus a relation shift is the class of c*v1: the expansion of
    # det(v1; v2; r) vanishes, with no determinant engine to say so.
    rng = derive_rng(31, "dependent", n)
    v1, _ = random_pair(rng, T(n))
    scaled = Section(T(n), tuple(comp.scale(Fraction(-3, 2)) for comp in v1.components))
    v2 = shifted(scaled, random_hompoly(rng, n))
    assert v2.components != scaled.components
    with pytest.raises(GpliError):
        tangent_map(T(n), v1, v2)
    rep = diagram_crosscheck(v1, v2)
    assert not rep.gpli and not rep.mult_surjective and not rep.tangent_surjective
    assert rep.agree


def test_verdicts_take_no_determinant(monkeypatch):
    # Both verdicts rest on the cofactor forms alone: with the determinant
    # engine gone, onto, deficient and degenerate pairs report as before.
    import detrep.detmatrix

    pairs = [random_pair(derive_rng(31, "no-det", n), T(n)) for n in range(4)]
    pairs += [tuple(Section(T(3), triple) for triple in special_pair(3)), (pairs[0][0], pairs[0][0])]
    tangents = []
    for s1, s2 in pairs:
        try:
            tangents.append(tangent_map(s1.bundle, s1, s2))
        except GpliError as exc:
            tangents.append(str(exc))
    crosschecks = [diagram_crosscheck(s1, s2) for s1, s2 in pairs]
    assert [rep.mult_surjective for rep in crosschecks] == [True] * 4 + [False, False]

    def no_determinant(M):
        raise AssertionError("det_poly must not run")

    monkeypatch.setattr(detrep.detmatrix, "det_poly", no_determinant)
    for (s1, s2), tangent, cross in zip(pairs, tangents, crosschecks):
        try:
            assert tangent_map(s1.bundle, s1, s2) == tangent
        except GpliError as exc:
            assert str(exc) == tangent
        assert diagram_crosscheck(s1, s2) == cross


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
    f, g = special_pair(n)
    rep = diagram_crosscheck(f, g)
    assert (rep.mult_rank, rep.mult_surjective, rep.tangent_surjective) == (54, False, False)
    assert rep.gpli and rep.agree
    assert calls == []


def crosscheck_pairs():
    """Seeded T(0..4) pairs, the special pairs at k = 3 and k = 5, and the
    degenerate pair f = g."""
    pairs = []
    for n in range(5):
        for i in range(2):
            s1, s2 = random_pair(derive_rng(31, f"shortcut:{n}", i), T(n))
            pairs.append((s1.components, s2.components))
    pairs += [special_pair(3), special_pair(6)]
    f = triple("x^2", "y^2", "x*z")
    return pairs + [(f, f)]


def test_crosscheck_verdicts_match_the_ranked_multiplication_matrix():
    # On a surjective pair the multiplication rank is not computed but
    # implied; it must be the rank an elimination of the matrix gives.
    verdicts = set()
    for f, g in crosscheck_pairs():
        rep = diagram_crosscheck(f, g)
        u = u_generators(f, g)
        matrix = mult_map_matrix(u)
        mult_rank = rank(matrix)
        assert rep.mult_rank == mult_rank
        assert rep.mult_surjective == (mult_rank == matrix.rows)
        assert rep.tangent_surjective == (rep.gpli and rep.mult_surjective)
        assert rep.agree
        verdicts.add((rep.gpli, rep.mult_surjective))
        if rep.gpli:
            bundle = T(u.n)
            tangent = tangent_map(bundle, Section(bundle, f), Section(bundle, g))
            assert signed_columns_inside(tangent.matrix, matrix)
    assert verdicts == {(True, True), (True, False), (False, False)}


def count_calls(monkeypatch, owner, name, sites):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in sites:
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 4, "special"])
def test_crosscheck_eliminates_once_on_a_surjective_pair(n, monkeypatch):
    # A full augmented tangent matrix decides both verdicts with one rank and
    # one matrix build; the special pair at k = 3 ranks and builds both.
    import detrep.ideals
    import detrep.tangent

    if n == "special":
        n, (f, g), want = 3, special_pair(3), 2
    else:
        s1, s2 = random_pair(derive_rng(31, "one-elimination", n), T(n))
        f, g, want = s1.components, s2.components, 1
    section_space(T(n))  # built and cached outside the count
    sites = (detrep.linalg, detrep.ideals, detrep.tangent)
    ranks = count_calls(monkeypatch, detrep.linalg, "rank", sites)
    builds = count_calls(monkeypatch, detrep.linalg, "multiplication_matrix", sites)
    rep = diagram_crosscheck(f, g)
    assert rep.gpli and rep.agree and rep.mult_surjective == (want == 1)
    assert (len(ranks), len(builds)) == (want, want)


def test_disjointness_of_the_special_pair():
    # vanishing loci {y=z=0} and {x=z=0} share no projective point
    n = 1
    f, g = special_pair(n)
    rep = disjointness_check(f, g)
    assert rep.disjoint_certified


def test_disjointness_fails_for_equal_triples():
    f = triple("x", "y", "z")
    rep = disjointness_check(f, f)
    assert not rep.disjoint_certified


# ---------------------------------------------------------------- syzygy bounds
#
# A deficient rung is decided from the mod-p sweep and the kernel columns of
# known syzygies when the two bounds meet, and by Bareiss otherwise; either
# way it must be the rank that Bareiss alone gives.


def rung(generators, k, syzygies=None):
    """component_dim at k, whether it ran Bareiss, and the Bareiss-only rank."""
    with pytest.MonkeyPatch.context() as mp:
        calls = count_calls(mp, detrep.linalg, "_bareiss_echelon", [detrep.linalg])
        got = component_dim(generators, k, syzygies)
        fell_back = bool(calls)
        mp.setattr(detrep.linalg, "USE_MODP_FAST_PATH", False)
        want = rank(component_matrix(generators, k))
    return got, fell_back, want


def deficient_rungs(generators, ladder):
    """The rungs of a ladder whose rank is below both sides of the matrix."""
    out = []
    for row in ladder:
        matrix = component_matrix(generators, row.k)
        if row.dim < min(matrix.rows, matrix.cols):
            out.append(row.k)
    return out


def disjointness_pairs(n):
    """Two seeded T(n) pairs, and one with rational coefficients."""
    pairs = []
    for i in range(2):
        s1, s2 = random_pair(derive_rng(41, f"syzygy:{n}", i), T(n))
        pairs.append((s1.components, s2.components))
    f, g = pairs[0]
    pairs.append((tuple(c.scale(Fraction(1, j + 2)) for j, c in enumerate(f)), g))
    return pairs


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_u_syzygies_decide_every_disjointness_rung(n):
    for f, g in disjointness_pairs(n):
        u = u_generators(f, g)
        ladder = disjointness_check(f, g).containment.ladder
        rungs = deficient_rungs(u.generators, ladder)
        assert bool(rungs) == (n > 1)  # T(1) ladders have none
        for k in rungs:
            assert rung(u.generators, k, u_syzygies(u)) == (ladder[k].dim, False, ladder[k].dim)


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_koszul_syzygies_decide_every_rung_of_three_generic_forms(degree):
    rng = derive_rng(43, "koszul", degree)
    gens = [random_hompoly(rng, degree) for _ in range(3)]
    rep = containment_degree(gens)
    assert rep.reached == 3 * degree - 2
    rungs = deficient_rungs(gens, rep.ladder)
    assert bool(rungs) == (degree > 2)  # three quadrics have none
    for k in rungs:
        assert rung(gens, k) == (rep.ladder[k].dim, False, rep.ladder[k].dim)


@pytest.mark.parametrize("n", [2, 3])
def test_disjointness_takes_no_bareiss(n, monkeypatch):
    pairs = disjointness_pairs(n)
    monkeypatch.setattr(detrep.linalg, "USE_MODP_FAST_PATH", False)
    want = [disjointness_check(f, g) for f, g in pairs]
    monkeypatch.setattr(detrep.linalg, "USE_MODP_FAST_PATH", True)

    def refuse(*args):
        raise AssertionError("Bareiss ran")

    monkeypatch.setattr(detrep.linalg, "_bareiss_echelon", refuse)
    assert [disjointness_check(f, g) for f, g in pairs] == want


def kernel_of(generators, k, syzygies=None):
    """The kernel columns that ``component_dim`` hands to ``rank`` at k."""
    seen = []

    def ranked(matrix, kernel):
        seen.append(kernel)
        return rank(matrix, kernel=kernel)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detrep.ideals, "rank", ranked)
        component_dim(generators, k, syzygies)
    [kernel] = seen
    return kernel()


def stacked_products(generators, k, syzygies):
    """m*s for every syzygy s and monomial m of degree k - deg s, each entry's
    products concatenated over the nonzero generators, as ``HomPoly``
    products."""
    live = [i for i, gen in enumerate(generators) if not gen.is_zero()]
    out = []
    for syz in syzygies:
        short = k - syz[0].degree - generators[0].degree
        for mono in mono_basis(short):
            m = HomPoly.monomial(mono)
            out.append([e for i in live for e in (m * syz[i]).coeff_vector()])
    return out


def zero_generator_pair():
    """A T(0) pair whose first triple (0, 0, z) has the zero minor b*x - a*y."""
    zero = HomPoly.zero(1)
    s1, s2 = random_pair(derive_rng(41, "zero-minor", 0), T(0))
    return (zero, zero, Z), s2.components


@pytest.mark.parametrize("source", ["koszul", "u"])
def test_kernel_columns_are_one_positive_multiple_of_the_syzygy_products(source):
    cases = []
    if source == "koszul":
        rng = derive_rng(43, "kernel-columns", 0)
        gens = [random_hompoly(rng, 2), HomPoly.zero(1), (X * Y).scale(Fraction(3, 7)), random_hompoly(rng, 3)]
        cases.append((gens, None, koszul_syzygies(gens)))
    else:
        for f, g in disjointness_pairs(2) + [zero_generator_pair()]:
            u = u_generators(f, g)
            cases.append((u.generators, u_syzygies(u), u_syzygies(u)))
    assert any(gen.is_zero() for gens, _, _ in cases for gen in gens)
    assert any(gen.den > 1 for gens, _, _ in cases for gen in gens)
    for gens, given, syzygies in cases:
        top = max(gen.degree for gen in gens)
        for k in range(top, 3 * top):
            columns = kernel_of(gens, k, given)
            want = stacked_products(gens, k, syzygies)
            assert len(columns) == len(want)
            ratios = {Fraction(c, w) for col, ref in zip(columns, want) for c, w in zip(col, ref) if w}
            assert all(not c for col, ref in zip(columns, want) for c, w in zip(col, ref) if not w)
            assert len(ratios) <= 1 and all(r > 0 for r in ratios)
            assert bool(ratios) == any(any(ref) for ref in want)


def test_a_deficient_rung_builds_its_kernel_in_one_call(monkeypatch):
    # One build for the component matrix and one for the kernel columns of
    # every syzygy, however many generators there are.
    rng = derive_rng(43, "one-kernel-build", 0)
    gens = [random_hompoly(rng, 3), HomPoly.zero(2), random_hompoly(rng, 3), random_hompoly(rng, 3)]
    [k, *_] = deficient_rungs(gens, containment_degree(gens).ladder)
    got, fell_back, want = rung(gens, k)
    assert got == want and not fell_back
    builds = count_calls(monkeypatch, detrep.linalg, "module_matrix", [detrep.linalg, detrep.ideals])
    assert component_dim(gens, k) == got
    assert [len(args[1]) for args in builds] == [1, 3]


@pytest.mark.parametrize("source", ["koszul", "u"])
def test_a_deficient_rung_re_checks_its_kernel_in_one_product(source, monkeypatch):
    # Every vector that one kernel() call returns is re-checked by one exact
    # product of the component matrix with their block, one column each.
    if source == "koszul":
        rng = derive_rng(43, "koszul", 4)
        gens, syzygies = [random_hompoly(rng, 4) for _ in range(3)], None
    else:
        u = u_generators(*disjointness_pairs(3)[0])
        gens, syzygies = u.generators, u_syzygies(u)
    rungs = deficient_rungs(gens, containment_degree(gens).ladder)
    assert rungs
    products = count_calls(monkeypatch, detrep.linalg, "_exact_product", [detrep.linalg])
    asked = []

    def ranked(matrix, kernel):
        def counted():
            asked.append(kernel())
            return asked[-1]

        return rank(matrix, kernel=counted)

    monkeypatch.setattr(detrep.ideals, "rank", ranked)
    for k in rungs:
        products.clear()
        asked.clear()
        component_dim(gens, k, syzygies)
        assert len(asked) == 1, k
        [(arr, support, block)] = products
        assert list(support) == list(range(arr.shape[1]))
        assert block.shape == (arr.shape[1], len(asked[0])), k


def common_factor_pair(n):
    """f = L*f', g = L*g' with L = x + 2y + 3z and seeded f', g'."""
    L = parse_hompoly("x + 2*y + 3*z")
    s1, s2 = random_pair(derive_rng(47, "common-factor", n), T(n - 1))
    return tuple(L * c for c in s1.components), tuple(L * c for c in s2.components)


def peeled_core(matrix):
    """The core ``rank`` leaves to the sweep once the peel is done."""
    rows, cols, k, a, b = detrep.linalg._peeled_core(matrix.ints)
    return matrix.ints[rows[k:k + a]][:, cols[k:k + b]]


@pytest.mark.parametrize(
    "f, g, n, peeled_whole",
    [(*special_pair(3), 3, True), (*special_pair(6), 6, True), (*common_factor_pair(2), 2, False)],
    ids=["special-k3", "special-k5", "common-factor"],
)
def test_u_syzygies_that_fall_short_fall_back(f, g, n, peeled_whole):
    # The five syzygies of U fall short at these rungs.  The monomial special
    # pair's matrix peels whole, so no elimination runs at all; the L-multiple
    # pair's has no singleton or zero line, so Bareiss decides.
    u = u_generators(f, g)
    k = 2 * n + 3
    got, fell_back, want = rung(u.generators, k, u_syzygies(u))
    assert got == want < h0_p2(k)
    matrix = component_matrix(u.generators, k)
    core = peeled_core(matrix)
    if peeled_whole:
        assert not fell_back and core.size == 0
    else:
        assert fell_back and core.shape == (matrix.rows, matrix.cols) == (36, 60) and want == 28


def through_a_point(rng, degree, count, point):
    """Seeded forms of one degree, all vanishing at ``point``, one of whose
    coordinates is 1."""
    i = point.index(1)
    power = HomPoly.monomial(tuple(degree * (j == i) for j in range(3)))
    forms = []
    for _ in range(count):
        form = random_hompoly(rng, degree)
        forms.append(form - power.scale(form.evaluate(point)))
    return forms


@pytest.mark.parametrize("case", ["three-through-a-point", "four-through-a-point", "shared-factors",
                                  "three-through-1-2-3", "four-through-1-2-3"])
def test_koszul_syzygies_that_fall_short_fall_back(case):
    # Koszul syzygies generate all syzygies of a regular sequence only.  Four
    # or more generic forms have no deficient rung at all (every rung below
    # the fill has full column rank), so the cases that fall short are forms
    # with a common zero, or x*q1, x*q2, y*q3, y*q4, whose shared factors also
    # give syzygies below the Koszul degree.  A common zero at [0:0:1], or the
    # factors x and y, leave the z^k row of every rung zero: the peel drops
    # it and the sweep decides the core.  Through [1:2:3] no line is zero or
    # a singleton, and Bareiss decides.
    rng = derive_rng(53, "koszul-short", case)
    count = 3 if case.startswith("three") else 4
    if case == "shared-factors":
        gens = [v * random_hompoly(rng, 2) for v in (X, X, Y, Y)]
    elif case.endswith("a-point"):
        gens = through_a_point(rng, 3, count, (0, 0, 1))
    else:
        gens = through_a_point(rng, 3, count, (1, 2, 3))
    rep = containment_degree(gens)
    assert rep.reached is None
    rungs = deficient_rungs(gens, rep.ladder)
    outcomes = [rung(gens, k) for k in rungs]
    assert all(got == want for got, _, want in outcomes)
    cores = [peeled_core(component_matrix(gens, k)).shape[0] for k in rungs]
    if case.endswith("1-2-3"):
        assert any(fell_back for _, fell_back, _ in outcomes)
        assert cores == [h0_p2(k) for k in rungs]
    else:
        assert not any(fell_back for _, fell_back, _ in outcomes)
        assert cores == [h0_p2(k) - 1 for k in rungs]
