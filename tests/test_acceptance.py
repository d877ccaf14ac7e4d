"""Acceptance gate: the headline checks, one verdict line per criterion.

Each test prints ``ACCEPTANCE nn [PASS|FAIL] summary`` and then asserts,
so a verbose run reads as a checklist.  Randomized criteria derive all
their streams from the master seed (DETREP_SEED overrides the default),
making every run reproducible.
"""

import time
from fractions import Fraction

from detrep.biprojective import dpsi_report, monomial_cover_check, witness_quad
from detrep.bundles import (
    BundleSpec,
    E,
    M,
    N,
    T,
    det_degree,
    h0_bundle,
    inequality_audit,
    linearity_onset,
    select_E_d,
)
from detrep.detmatrix import (
    PolyMatrix,
    Section,
    degeneracy_matrix,
    det_poly,
    shifted,
    wedge_curve,
)
from detrep.ideals import diagram_crosscheck, mult_map_matrix, u_generators
from detrep.linalg import in_column_space, rank
from detrep.polynomials import HomPoly, h0_p2, parse_hompoly
from detrep.sampling import derive_rng, random_hompoly, random_pair, resolve_seed
from detrep.tangent import section_space, smoothness_check, tangent_map
from oracles import det_cofactor, det_eliminate

MASTER = resolve_seed()


def verdict(num, ok, summary):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {summary}")
    assert ok, f"criterion {num} failed: {summary}"


def special_pair(n):
    zero = HomPoly.zero(n + 1)
    v1 = (HomPoly.monomial((0, 0, n + 1)), HomPoly.monomial((n + 1, 0, 0)), zero)
    v2 = (zero, HomPoly.monomial((0, 0, n + 1)), HomPoly.monomial((0, n + 1, 0)))
    return v1, v2


def test_criterion_01_cubic_end_to_end():
    t0 = time.perf_counter()
    b = T(0)
    v1 = Section(b, tuple(parse_hompoly(s) for s in ("x", "2*y", "3*z")))
    v2 = Section(b, tuple(parse_hompoly(s) for s in ("y", "z", "x")))
    curve = wedge_curve(v1, v2)
    ok = curve == parse_hompoly("x^2*y - 2*x*z^2 + y^2*z")
    ok = ok and smoothness_check(curve)
    rep = tangent_map(b, v1, v2)
    ok = ok and rep.hom_dim == 12 and rep.target_dim == 9
    ok = ok and rep.augmented_rank == 10 and rep.surjective
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    verdict(1, ok, f"cubic: determinant, smoothness, tangent rank 10 ({elapsed:.3f}s)")


def test_criterion_02_conic_end_to_end():
    t0 = time.perf_counter()
    b = N(0)
    one = parse_hompoly("1")
    zero = HomPoly.zero(0)
    v1 = Section(b, (zero, one, parse_hompoly("y")))
    v2 = Section(b, (one, zero, parse_hompoly("x")))
    curve = wedge_curve(v1, v2)
    ok = curve == parse_hompoly("x^2 + y^2 - z^2")
    # relation row on top is a 3-cycle away, determinants must agree exactly
    rows = degeneracy_matrix((v1, v2)).entries
    cycled = PolyMatrix([rows[2], rows[0], rows[1]])
    ok = ok and det_poly(cycled) == curve
    rep = tangent_map(b, v1, v2)
    ok = ok and rep.hom_dim == 6 and rep.target_dim == 5 and rep.surjective
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    verdict(2, ok, f"conic: determinant, row-cycle equality, tangent onto 5 dims ({elapsed:.3f}s)")


def test_criterion_03_degenerate_pairs_have_zero_wedge():
    ok = True
    for n in (0, 1, 2):
        b = T(n)
        zero = HomPoly.zero(n + 1)
        v1 = Section(b, (HomPoly.monomial((n + 1, 0, 0)), zero, zero))
        v2 = Section(b, (HomPoly.monomial((0, n + 1, 0)), zero, zero))
        ok = ok and wedge_curve(v1, v2).is_zero()
    verdict(3, ok, "coaxial monomial pairs wedge to zero for n = 0, 1, 2")


def test_criterion_04_invariance_suites():
    t0 = time.perf_counter()
    failures = 0
    checked = 0
    for family in ("T", "N"):
        for i in range(100):
            n = i % 4
            spec = BundleSpec(family, n)
            rng = derive_rng(MASTER, f"invariance:{family}:{n}", i)
            s1, s2 = random_pair(rng, spec)
            base = wedge_curve(s1, s2)
            shift_deg = n if family == "T" else n - 1
            h = random_hompoly(rng, shift_deg) if shift_deg >= 0 else HomPoly.zero(0)
            if shift_deg >= 0 and not wedge_curve(shifted(s1, h), s2) == base:
                failures += 1
            a, b, c, d = (Fraction(rng.randint(-5, 5)) for _ in range(4))
            while a * d - b * c == 0:
                a, b, c, d = (Fraction(rng.randint(-5, 5)) for _ in range(4))
            w1 = Section(spec, tuple(p * a + q * b for p, q in zip(s1.components, s2.components)))
            w2 = Section(spec, tuple(p * c + q * d for p, q in zip(s1.components, s2.components)))
            if wedge_curve(w1, w2) != base.scale(a * d - b * c):
                failures += 1
            # verdict-level invariance on a slice of the instances
            if i < 8 and not base.is_zero():
                r0 = tangent_map(spec, s1, s2)
                r1 = tangent_map(spec, w1, w2)
                if (r0.surjective, r0.augmented_rank) != (r1.surjective, r1.augmented_rank):
                    failures += 1
                if shift_deg >= 0:
                    r2 = tangent_map(spec, shifted(s1, h), s2)
                    if (r0.surjective, r0.augmented_rank) != (r2.surjective, r2.augmented_rank):
                        failures += 1
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and checked == 200 and elapsed < 30.0
    verdict(4, ok, f"shift and basis-change invariance, 200 instances, {failures} failures ({elapsed:.1f}s)")


def test_criterion_05_generic_pairs_surject():
    t0 = time.perf_counter()
    trials = surjective = agreements = 0
    for n in (0, 1, 2, 3):
        for i in range(100):
            rng = derive_rng(MASTER, f"genericity:{n}", i)
            s1, s2 = random_pair(rng, T(n))
            rep = diagram_crosscheck(s1.components, s2.components, n=n)
            trials += 1
            surjective += rep.mult_surjective
            agreements += rep.agree
    elapsed = time.perf_counter() - t0
    ok = trials == 400 and agreements == 400
    ok = ok and surjective >= 380  # expected all 400
    ok = ok and elapsed < 120.0
    verdict(
        5,
        ok,
        f"genericity: {surjective}/400 surjective, {agreements}/400 cross-checks agree ({elapsed:.1f}s)",
    )


def test_criterion_06_special_pair_misses_monomials():
    t0 = time.perf_counter()
    details = []
    bar_met = False
    for k in (3, 5):
        n = (3 * k - 3) // 2
        v1, v2 = special_pair(n)
        u = u_generators(v1, v2, n=n)
        matrix = mult_map_matrix(u)
        balanced = in_column_space(matrix, HomPoly.monomial((k, k, k)).coeff_vector())
        skewed = in_column_space(matrix, HomPoly.monomial((k + 1, k, k - 1)).coeff_vector())
        tangent = tangent_map(T(n), Section(T(n), v1), Section(T(n), v2))
        details.append(
            f"k={k}: balanced {'in' if balanced.member else 'out'},"
            f" skewed {'in' if skewed.member else 'out'},"
            f" tangent {'onto' if tangent.surjective else 'short'}"
        )
        if not balanced.member and not skewed.member and not tangent.surjective:
            bar_met = True
            break
    elapsed = time.perf_counter() - t0
    ok = bar_met and elapsed < 60.0
    verdict(6, ok, f"special pair: {'; '.join(details)} ({elapsed:.1f}s)")


def test_criterion_07_section_counts_match_closed_forms():
    ok = True
    specs = []
    for n in range(0, 6):
        specs.append(T(n))
        specs.append(N(n))
        specs.extend(M(k, n) for k in (1, 2, 3))
        specs.extend(E(r, n) for r in (2, 3, 4))
    for spec in specs:
        if section_space(spec).dim != h0_bundle(spec):
            ok = False
    ok = ok and h0_bundle(T(0)) == 8 and h0_bundle(N(0)) == 5
    verdict(7, ok, f"closed-form section counts match computed ranks, {len(specs)} bundles")


def test_criterion_08_inequality_audit():
    ok = True
    onsets = []
    specs = [N(0), T(0)] + [M(k, 0) for k in (1, 2, 3)] + [E(r, 0) for r in (2, 3, 4)]
    for spec in specs:
        rows = inequality_audit(spec, range(0, 11), 8)
        if not all(r.holds for r in rows):
            ok = False
        gaps = [r.rhs - r.lhs for r in rows]
        onset = linearity_onset(gaps)
        if onset is None:
            ok = False
        onsets.append(onset)
    verdict(8, ok, f"count inequality holds to twist 10 with linear tails, onsets {onsets}")


def test_criterion_09_product_of_lines():
    t0 = time.perf_counter()
    ok = True
    for a in (1, 2):
        for b in (1, 2):
            for m in (1, 2):
                cover = monomial_cover_check(a, b, m)
                rep = dpsi_report(witness_quad(a, b, m))
                if not (cover and rep.surjective):
                    ok = False
                if a == b == m == 1:
                    ok = ok and rep.domain_dim == 16 and rep.target_dim == 9 and rep.rank == 9
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    verdict(9, ok, f"derivative surjective at all eight witness quadruples ({elapsed:.2f}s)")


def test_criterion_10_determinant_engines_agree():
    mismatches = 0
    for size, trials in ((3, 25), (4, 25)):
        for i in range(trials):
            rng = derive_rng(MASTER, f"detagree:{size}", i)
            entries = [[random_hompoly(rng, 1) for _ in range(size)] for _ in range(size)]
            m = PolyMatrix(entries)
            kronecker = det_poly(m)
            if not (
                kronecker
                == det_cofactor(m.entries, m.det_deg)
                == det_eliminate(m.entries, m.det_deg)
            ):
                mismatches += 1
    verdict(10, mismatches == 0, "Kronecker, cofactor and elimination determinants agree on 50 matrices")


def test_criterion_11_degree_selector():
    ok = all(det_degree(select_E_d(d)) == d for d in range(1, 51))
    verdict(11, ok, "selected rank-two bundle hits every degree 1..50")
