#!/usr/bin/env python3
"""Benchmark of the detrep verifier: time to verdict on four seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop: one client in this single-threaded process
calls the library, waits for the verdict, checks it against a fixed table of
expected answers (and re-checks any certificate the verdict carries), then
makes the next call.  Whole passes over the workload's instances repeat until
``--seconds`` have elapsed; the pass under way is always finished, so every
run sees the same mix of instances.

``--trace 0`` reports the end-to-end metrics.  Times are scaled to a nominal
machine speed by a reference computation timed between instances (see
REFERENCE_NOMINAL_S), and an instance's time to verdict is the median over
the passes.  ``--trace 1`` instead runs one
pass untraced and one pass with spans wrapped around the public functions of
the package's modules (installed from this file, removed afterwards) and
reports per-module counts and self times, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the run conditions and every metric with its unit.  Inputs derive from
``--seed`` alone; ``DETREP_SEED`` is ignored.  Seed 8128 is held out: no
tuning used it, and a claimed gain must be re-checked on it.

Only the standard library is used here; the package under test is imported
from ``src/`` next to this directory, and the run refuses to start without it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1729
HELD_OUT_SEED = 8128
# Set-up is timed in this process and in SETUP_CHILDREN fresh processes that
# stop after set-up; the median of all of them is setup_s.  Import cost needs
# a fresh interpreter each time, since modules are imported only once.
SETUP_CHILDREN = 4

WORKLOADS = {
    "generic_pairs": (
        "random T(n) pairs, n = 1..4, through the multiplication/tangent cross-check: "
        "mod-p full ranks, polynomial products and 3x3 cofactor determinants"
    ),
    "special_pairs": (
        "the monomial special pair at k = 3, 5, 7: deficient ranks, so Bareiss, "
        "tracked elimination and certificate re-checks dominate"
    ),
    "ladders": (
        "smoothness, disjointness and containment ladders: many rank calls on growing "
        "graded pieces, every rung below the fill deficient"
    ),
    "wedge_dets": (
        "6x6 and 10x10 polynomial Bareiss determinants, invariance identities, the "
        "product-of-lines map and CLI parsing; little linear algebra"
    ),
}

# The tail is read at a fixed percentile of the instances' times, so that two
# commits compare the same statistic.  Each leaves at least ten instances
# beyond it and falls inside a group of like instances, not between two.
# special_pairs has only 13 distinct instances: its p90, one beyond, is the
# k = 7 tangent map.  The count beyond is printed.
TAIL_PERCENTILE = {"generic_pairs": 75, "special_pairs": 90, "ladders": 70, "wedge_dets": 75}

# Fixed expected answers.  None of them is read back from the package: the
# special-pair ranks and memberships are the paper's, generic instances follow
# from genericity, fill degrees from Macaulay's bound for complete
# intersections, and the smallest instance of each workload is re-derived
# with sympy in bench/tests.
EXPECTED = {
    "generic_pairs": {
        "crosscheck": {"gpli": True, "mult_surjective": True, "tangent_surjective": True, "agree": True},
    },
    "special_pairs": {
        # k: rank of multiplication into degree 3k (target h0(3k)), tangent
        # verdict and its augmented rank; at k = 3 and 5 also membership of
        # x^k y^k z^k and x^(k+1) y^k z^(k-1) and the exit code of
        # `detrep tangent`.  At k = 7 those take 1 to 3 s each, and a pass
        # that long leaves two passes per run, too few for steady medians.
        3: {"mult_rank": 54, "mult_target": 55, "tangent_surjective": False, "tangent_rank": 54,
            "balanced_member": False, "shifted_member": True, "cli_exit": 1},
        5: {"mult_rank": 126, "mult_target": 136, "tangent_surjective": False, "tangent_rank": 126,
            "balanced_member": False, "shifted_member": False, "cli_exit": 1},
        7: {"mult_rank": 225, "mult_target": 253, "tangent_surjective": False, "tangent_rank": 225},
    },
    "ladders": {
        "smooth": True,
        # random T(n) pairs: the six minors fill at 2n + 2
        "pair_fill": {1: 4, 2: 6, 3: 8},
        # three random quadrics: a complete intersection, fills at 3 * 2 - 2
        "containment_fill": 4,
        "containment_exit": 0,
    },
    "wedge_dets": {
        "wedge_degree": {"M_2(1)": 7, "M_2(2)": 12, "M_3(1)": 12, "E_4(2)": 10},
        "identity": True,
        # (a, b, m): rank of dpsi at the witness quadruple, (2ma + 1)(2mb + 1)
        "dpsi_rank": {(1, 1, 1): 9, (2, 1, 1): 15, (1, 2, 1): 15, (2, 2, 1): 25,
                      (3, 3, 1): 49, (1, 1, 2): 25, (2, 2, 2): 81, (3, 3, 2): 169},
        "cli_exit": {"verify-example1": 0, "verify-example2": 0, "audit-M": 0,
                     "audit-select": 0, "p1p1": 0},
        "example1_curve": "x^2*y - 2*x*z^2 + y^2*z",
        "example1_augmented_rank": 10,
    },
}


# Times are scaled to a nominal machine speed.  On a shared 2-core virtual
# machine, other tenants slowed plain Python loops by up to 1.9x, for seconds
# to minutes at a time; raw times of one seed varied by 40% between runs.  A fixed computation that does not use detrep is timed between
# consecutive instances, and each instance's time is multiplied by
# REFERENCE_NOMINAL_S over the mean of the two reference times around it.
# Runs then agreed to within a few percent.
REFERENCE_NOMINAL_S = 0.0025


def reference_work():
    """Fixed pure-Python work in the package's style: rational arithmetic,
    dictionaries keyed by exponent tuples, and big-integer products."""
    acc = Fraction(0)
    terms = {}
    for i in range(1, 300):
        f = Fraction(i, i % 7 + 1)
        acc += f * Fraction(i + 1, i % 5 + 2)
        key = (i % 5, i % 3, i % 11)
        terms[key] = terms.get(key, Fraction(0)) + f
    x = 3**300
    for _ in range(200):
        x = (x * 1234567891011) // 7
    return acc, len(terms), x


def reference_seconds():
    """Best of two timings of reference_work."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - start)
    return best


class UsageError(Exception):
    """The run cannot measure the real program; no result is printed."""


# ---------------------------------------------------------------------------
# Instances and their checks
# ---------------------------------------------------------------------------


class Instance:
    """One public call that returns a verdict, with the check of that verdict.

    ``check`` returns None when the verdict matches the expected answer and
    every certificate re-verifies, and a description of the mismatch otherwise.
    """

    __slots__ = ("label", "call", "check")

    def __init__(self, label, call, check):
        self.label = label
        self.call = call
        self.check = check


def run_instance(inst):
    """Time one call; returns (seconds, problem or None)."""
    start = time.perf_counter()
    try:
        result = inst.call()
    except Exception as exc:  # a failed verdict is counted, not fatal
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        problem = inst.check(result)
    except Exception as exc:
        problem = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, problem


def compare(got, want):
    return None if got == want else f"got {got}, expected {want}"


def left_times(w, M):
    """w @ M over the rationals, computed here rather than by the package."""
    out = [Fraction(0)] * M.cols
    for wi, row in zip(w, M.entries):
        if wi:
            for j, e in enumerate(row):
                if e:
                    out[j] += wi * e
    return out


def check_cokernel(w, M):
    if w is None or not any(w):
        return "no nonzero cokernel functional"
    if any(left_times(w, M)):
        return "cokernel functional does not kill the matrix"
    return None


def check_membership(mem, M, v, want):
    if mem.member != want:
        return f"membership {mem.member}, expected {want}"
    if mem.member:
        for row, target in zip(M.entries, v):
            if sum((e * x for e, x in zip(row, mem.preimage) if e), Fraction(0)) != target:
                return "preimage does not map to the vector"
        return None
    w = mem.functional
    if check_cokernel(w, M) is not None:
        return "separating functional does not kill the matrix"
    if sum((a * b for a, b in zip(w, v)), Fraction(0)) == 0:
        return "functional does not separate the vector"
    return None


def evaluate(poly, point):
    x, y, z = point
    return sum((c * x**a * y**b * z**e for (a, b, e), c in poly.terms.items()), Fraction(0))


def det_exact(rows):
    """Determinant of a square rational matrix by Gaussian elimination."""
    work = [list(r) for r in rows]
    n = len(work)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if work[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        p = work[col][col]
        det *= p
        for i in range(col + 1, n):
            f = work[i][col] / p
            if f:
                for j in range(col, n):
                    work[i][j] -= f * work[col][j]
    return det


def check_wedge(lib, curve, sections, degree, rng):
    """Degree, nonvanishing, and agreement with the numeric determinant of
    the degeneracy matrix at a seeded point."""
    if curve.is_zero() or curve.degree != degree:
        return f"wedge curve of degree {curve.degree}, zero={curve.is_zero()}, expected degree {degree}"
    rows = [list(s.components) for s in sections] + [list(r) for r in lib.relation_rows(sections[0].bundle)]
    point = tuple(Fraction(rng.randint(-30, 30)) for _ in range(3))
    numeric = det_exact([[evaluate(e, point) for e in row] for row in rows])
    if numeric != evaluate(curve, point):
        return f"wedge curve disagrees with the determinant at {point}"
    return None


def quiet_cli(lib, argv):
    """Run the CLI in-process; returns (exit code, parsed JSON report)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lib.cli.main(argv)
    text = out.getvalue()
    return code, (json.loads(text) if text.strip() else None)


def check_cli(got, exit_want, verdicts_want=None, data_want=None):
    code, report = got
    if code != exit_want:
        return f"exit code {code}, expected {exit_want}"
    if report is None:
        return "no JSON report"
    if verdicts_want is not None and report["verdicts"] != verdicts_want:
        return f"verdicts {report['verdicts']}, expected {verdicts_want}"
    for key, want in (data_want or {}).items():
        if report["data"].get(key) != want:
            return f"{key} = {report['data'].get(key)!r}, expected {want!r}"
    return None


def special_pair(lib, n):
    mono = lib.HomPoly.monomial
    zero = lib.HomPoly.zero(n + 1)
    return (
        (mono((0, 0, n + 1)), mono((n + 1, 0, 0)), zero),
        (zero, mono((0, 0, n + 1)), mono((0, n + 1, 0))),
    )


def form_text(polys):
    return ", ".join(str(p) for p in polys)


# ---------------------------------------------------------------------------
# Workloads.  Each build function returns its instances, in pass order, and the
# bundles whose section spaces set-up builds.  The library is reached through
# ``lib`` at call time, so a traced run sees the wrapped functions.
# ---------------------------------------------------------------------------


def build_generic_pairs(lib, seed, workdir):
    want = EXPECTED["generic_pairs"]["crosscheck"]
    instances = []
    # Weighted toward the larger n, so that the median and the tail fall
    # inside a cluster of like instances rather than between two.
    for n, count in ((1, 8), (2, 8), (3, 12), (4, 12)):
        for i in range(count):
            s1, s2 = lib.random_pair(lib.derive_rng(seed, f"generic_pairs:{n}", i), lib.T(n))
            instances.append(Instance(
                f"crosscheck T({n}) #{i}",
                functools.partial(lambda f, g, n: lib.diagram_crosscheck(f, g, n=n), s1.components, s2.components, n),
                lambda r: compare({k: getattr(r, k) for k in want}, want),
            ))
    return instances, [lib.T(n) for n in (1, 2, 3, 4)]


def build_special_pairs(lib, seed, workdir):
    instances = []
    bundles = []
    for k, want in EXPECTED["special_pairs"].items():
        n = (3 * k - 3) // 2
        bundle = lib.T(n)
        bundles.append(bundle)
        f, g = special_pair(lib, n)
        u = lib.u_generators(f, g, n=n)
        s1, s2 = lib.Section(bundle, f), lib.Section(bundle, g)
        instances.append(Instance(
            f"mult-rank k={k}",
            functools.partial(lambda u: lib.rank(lib.mult_map_matrix(u)), u),
            functools.partial(lambda r, want: compare(r, want), want=want["mult_rank"]),
        ))
        instances.append(Instance(
            f"tangent-map k={k}",
            functools.partial(lambda b, a, c: lib.tangent_map(b, a, c), bundle, s1, s2),
            functools.partial(lambda r, w: compare((r.surjective, r.augmented_rank),
                                                   (w["tangent_surjective"], w["tangent_rank"])), w=want),
        ))
        if "cli_exit" not in want:
            continue
        M = lib.mult_map_matrix(u)
        if k == 3:
            # The cokernel certificate costs 1.3 s at k = 5 and 14 s at k = 7.
            def check_report(r, M=M, want=want):
                return compare((r.rank, r.target_dim, r.surjective),
                               (want["mult_rank"], want["mult_target"], False)) \
                    or check_cokernel(r.cokernel_witness, M)

            instances.append(Instance(f"mult-report k={k}", functools.partial(lambda u: lib.mult_map_report(u), u),
                                      check_report))
        for name, mono in (("balanced", (k, k, k)), ("shifted", (k + 1, k, k - 1))):
            v = lib.HomPoly.monomial(mono).coeff_vector()
            instances.append(Instance(
                f"{name}-probe k={k}",
                functools.partial(lambda M, v: lib.in_column_space(M, v), M, v),
                functools.partial(lambda r, M, v, w: check_membership(r, M, v, w), M=M, v=v, w=want[f"{name}_member"]),
            ))
        argv = ["tangent", "--bundle", "T", "--n", str(n), "--v1", form_text(f), "--v2", form_text(g), "--json"]
        instances.append(Instance(
            f"detrep tangent k={k}",
            functools.partial(quiet_cli, lib, argv),
            functools.partial(lambda r, w: check_cli(r, w["cli_exit"], {"gpli": True, "surjective": False},
                                                     {"augmented_rank": w["tangent_rank"]}), w=want),
        ))
    return instances, bundles


def build_ladders(lib, seed, workdir):
    exp = EXPECTED["ladders"]
    instances = []
    for family in ("T", "N"):
        for n in (0, 1, 2):
            bundle = lib.BundleSpec(family, n)
            # two degree-7 curves: one alone is half the pass, and its cost
            # varies with its coefficients by a fifth
            for i in range(2 if bundle == lib.T(2) else 1):
                s1, s2 = lib.random_pair(lib.derive_rng(seed, f"ladders:smooth:{bundle.label()}", i), bundle)
                curve = lib.wedge_curve(s1, s2)
                instances.append(Instance(
                    f"smoothness {bundle.label()} #{i}",
                    functools.partial(lambda F: lib.smoothness_check(F), curve),
                    lambda r: compare(r, exp["smooth"]),
                ))
    # Counts set so that the median falls among the T(2) pairs and the tail
    # among the T(3) pairs, each a group of like costs.
    for n, fill in exp["pair_fill"].items():
        for i in range({1: 6, 2: 8, 3: 10}[n]):
            s1, s2 = lib.random_pair(lib.derive_rng(seed, f"ladders:disjoint:{n}", i), lib.T(n))
            instances.append(Instance(
                f"disjointness T({n}) #{i}",
                functools.partial(lambda f, g: lib.disjointness_check(f, g), s1, s2),
                functools.partial(lambda r, fill: compare((r.disjoint_certified, r.containment.reached), (True, fill)), fill=fill),
            ))
    for i in range(6):
        rng = lib.derive_rng(seed, "ladders:containment", i)
        path = Path(workdir) / f"gens-{i}.txt"
        path.write_text("".join(f"{lib.random_hompoly(rng, 2)}\n" for _ in range(3)), encoding="utf-8")
        instances.append(Instance(
            f"detrep containment #{i}",
            functools.partial(quiet_cli, lib, ["containment", "--gens-file", str(path), "--json"]),
            lambda r: check_cli(r, exp["containment_exit"], {"reached": True},
                                {"containment_degree": exp["containment_fill"]}),
        ))
    return instances, []


def build_wedge_dets(lib, seed, workdir):
    exp = EXPECTED["wedge_dets"]
    point_rng = random.Random(f"{seed}:wedge_dets:points")
    instances = []

    def wedge_instance(label, sections, degree):
        return Instance(
            label,
            functools.partial(lambda secs: lib.wedge_curve(*secs), sections),
            functools.partial(lambda r, secs, d, rng: check_wedge(lib, r, secs, d, rng),
                              secs=sections, d=degree, rng=random.Random(point_rng.random())),
        )

    for bundle in (lib.M(2, 1), lib.M(2, 2), lib.M(3, 1), lib.E(4, 2)):
        rng = lib.derive_rng(seed, f"wedge_dets:{bundle.label()}", 0)
        sections = tuple(lib.random_section(rng, bundle) for _ in range(lib.bundle_rank(bundle)))
        instances.append(wedge_instance(f"wedge {bundle.label()}", sections, exp["wedge_degree"][bundle.label()]))

    # Criterion-04 identities: a relation shift of one section leaves the
    # curve unchanged; a change of basis of the pair scales it by the
    # determinant of the change.
    for family in ("T", "N"):
        for n in (0, 1, 2, 3):
            bundle = lib.BundleSpec(family, n)
            rng = lib.derive_rng(seed, f"wedge_dets:identity:{family}", n)
            s1, s2 = lib.random_pair(rng, bundle)
            base = lib.wedge_curve(s1, s2)
            degree = lib.det_degree(bundle)
            instances.append(wedge_instance(f"wedge {bundle.label()}", (s1, s2), degree))
            shift_degree = n if family == "T" else n - 1
            if shift_degree >= 0:
                moved = lib.shifted(s1, lib.random_hompoly(rng, shift_degree))
                instances.append(Instance(
                    f"shift identity {bundle.label()}",
                    functools.partial(lambda a, b: lib.wedge_curve(a, b), moved, s2),
                    functools.partial(lambda r, base: compare(r == base, exp["identity"]), base=base),
                ))
            a, b, c, d = (Fraction(rng.randint(-5, 5)) for _ in range(4))
            while a * d - b * c == 0:
                a, b, c, d = (Fraction(rng.randint(-5, 5)) for _ in range(4))
            w1 = lib.Section(bundle, tuple(p * a + q * b for p, q in zip(s1.components, s2.components)))
            w2 = lib.Section(bundle, tuple(p * c + q * d for p, q in zip(s1.components, s2.components)))
            instances.append(Instance(
                f"basis-change identity {bundle.label()}",
                functools.partial(lambda x, y: lib.wedge_curve(x, y), w1, w2),
                functools.partial(lambda r, want: compare(r == want, exp["identity"]), want=base.scale(a * d - b * c)),
            ))

    for (a, b, m), want in exp["dpsi_rank"].items():
        instances.append(Instance(
            f"dpsi ({a},{b},{m})",
            functools.partial(lambda a, b, m: lib.dpsi_report(lib.witness_quad(a, b, m)), a, b, m),
            functools.partial(lambda r, want: compare((r.surjective, r.rank), (True, want)), want=want),
        ))

    codes = exp["cli_exit"]
    cli_cases = [
        ("verify-example1", ["verify-example1", "--json"],
         {"curve": exp["example1_curve"], "augmented_rank": exp["example1_augmented_rank"]}),
        ("verify-example2", ["verify-example2", "--json"], None),
        ("audit-M", ["audit", "--family", "M", "--params", "n=0,k=2", "--m-range", "0:10", "--g", "8", "--json"], None),
        ("audit-select", ["audit", "--select-degree", "7", "--json"], {"det_degree": 7}),
        ("p1p1", ["p1p1", "--a", "2", "--b", "2", "--m", "2", "--json"], {"rank": exp["dpsi_rank"][(2, 2, 2)]}),
    ]
    for name, argv, data in cli_cases:
        instances.append(Instance(
            f"detrep {name}",
            functools.partial(quiet_cli, lib, argv),
            functools.partial(lambda r, code, data: check_cli(r, code, None, data), code=codes[name], data=data),
        ))
    return instances, []


WORKLOAD_BUILD = {
    "generic_pairs": build_generic_pairs,
    "special_pairs": build_special_pairs,
    "ladders": build_ladders,
    "wedge_dets": build_wedge_dets,
}


def first_of_each_kind(instances):
    """Warm-up set: the first instance of each kind (the label's first word)."""
    seen = {}
    for inst in instances:
        seen.setdefault(inst.label.split()[0], inst)
    return list(seen.values())


# ---------------------------------------------------------------------------
# Tracing, from outside the package
# ---------------------------------------------------------------------------

# (module, attribute path, kind).  A span records calls and self time (its
# duration minus the spans it encloses); a counter records calls only, and
# its time stays with the enclosing span.
TRACE_TARGETS = [
    ("polynomials", "HomPoly.__init__", "counter"),
    ("polynomials", "HomPoly.__mul__", "span"),
    ("polynomials", "HomPoly.coeff_vector", "span"),
    ("polynomials", "divide_exact", "span"),
    ("polynomials", "BigradedPoly.__mul__", "span"),
    ("polynomials", "parse_hompoly", "span"),
    ("linalg", "rank", "rank"),
    ("linalg", "in_column_space", "span"),
    ("linalg", "left_kernel_basis", "span"),
    ("linalg", "rref", "span"),
    ("linalg", "ExactMatrix.from_columns", "span"),
    ("detmatrix", "det_poly", "det_poly"),
    ("detmatrix", "wedge_curve", "counter"),
    ("tangent", "tangent_map", "span"),
    ("tangent", "quotient_by_pair", "span"),
    ("tangent", "section_space", "section_space"),
    ("tangent", "smoothness_check", "span"),
    ("ideals", "mult_map_matrix", "span"),
    ("ideals", "component_matrix", "span"),
    ("ideals", "containment_degree", "span"),
    ("ideals", "diagram_crosscheck", "span"),
    ("biprojective", "dpsi_matrix", "span"),
    ("sampling", "random_pair", "span"),
    ("cli", "main", "span"),
]

# Per-layer metrics in report order: name -> (unit, better).
LAYER_METRICS = {
    "polynomials.HomPoly.__init__.calls": ("count", "lower"),
    "polynomials.HomPoly.__mul__.calls": ("count", "lower"),
    "polynomials.HomPoly.__mul__.self_s": ("s", "lower"),
    "polynomials.HomPoly.coeff_vector.self_s": ("s", "lower"),
    "polynomials.divide_exact.calls": ("count", "lower"),
    "polynomials.divide_exact.self_s": ("s", "lower"),
    "polynomials.BigradedPoly.__mul__.self_s": ("s", "lower"),
    "polynomials.parse_hompoly.self_s": ("s", "lower"),
    "linalg.rank.calls": ("count", "lower"),
    "linalg.rank.full.self_s": ("s", "lower"),
    "linalg.rank.deficient.self_s": ("s", "lower"),
    "linalg.rank.full_ratio": ("ratio", "higher"),
    "linalg.rank.max_cells": ("count", "lower"),
    "linalg.rank.max_coeff_bits": ("bits", "lower"),
    "linalg.in_column_space.calls": ("count", "lower"),
    "linalg.in_column_space.self_s": ("s", "lower"),
    "linalg.left_kernel_basis.self_s": ("s", "lower"),
    "linalg.rref.calls": ("count", "lower"),
    "linalg.rref.self_s": ("s", "lower"),
    "linalg.ExactMatrix.from_columns.self_s": ("s", "lower"),
    "detmatrix.det_poly.cofactor.calls": ("count", "lower"),
    "detmatrix.det_poly.cofactor.self_s": ("s", "lower"),
    "detmatrix.det_poly.eliminate.calls": ("count", "lower"),
    "detmatrix.det_poly.eliminate.self_s": ("s", "lower"),
    "detmatrix.wedge_curve.calls": ("count", "lower"),
    "tangent.tangent_map.calls": ("count", "lower"),
    "tangent.tangent_map.self_s": ("s", "lower"),
    "tangent.quotient_by_pair.self_s": ("s", "lower"),
    "tangent.section_space.self_s": ("s", "lower"),
    "tangent.section_space.misses": ("count", "lower"),
    "tangent.smoothness_check.self_s": ("s", "lower"),
    "tangent.smoothness_check.rank_calls": ("count", "lower"),
    "ideals.mult_map_matrix.calls": ("count", "lower"),
    "ideals.mult_map_matrix.self_s": ("s", "lower"),
    "ideals.component_matrix.calls": ("count", "lower"),
    "ideals.component_matrix.self_s": ("s", "lower"),
    "ideals.containment_degree.self_s": ("s", "lower"),
    "ideals.containment_degree.rungs": ("count", "lower"),
    "ideals.diagram_crosscheck.self_s": ("s", "lower"),
    "biprojective.dpsi_matrix.self_s": ("s", "lower"),
    "sampling.random_pair.self_s": ("s", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

WRAPPED_MARK = "__detrep_bench_span__"


def coeff_bits(M):
    return max(
        (max(e.numerator.bit_length(), e.denominator.bit_length()) for row in M.entries for e in row),
        default=0,
    )


class Tracer:
    """Spans around the package's public functions, installed by patching
    every place a function is bound: the defining module, each module that
    imported it by name, and the package namespace."""

    def __init__(self):
        self.calls = {}
        self.self_ns = {}
        self.values = {}
        self.stack = []  # open spans: [name, nanoseconds covered by children]
        self.patches = []  # (owner, attribute, original) in installation order

    # -- recording ----------------------------------------------------------

    def add(self, key, amount=1):
        self.values[key] = self.values.get(key, 0) + amount

    def active(self, name):
        return any(frame[0] == name for frame in self.stack)

    def _span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = time.perf_counter_ns()
            frame = [name, 0]
            tracer.stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer.stack.pop()
            key = after(args, result) if after else name
            tracer.calls[key] = tracer.calls.get(key, 0) + 1
            tracer.self_ns[key] = tracer.self_ns.get(key, 0) + (end - start - frame[1])
            if tracer.stack:
                # the parent's self time excludes this span and its bookkeeping
                tracer.stack[-1][1] += time.perf_counter_ns() - enter
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] = tracer.calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def _after_rank(self, args, result):
        M = args[0]
        self.values["linalg.rank.max_cells"] = max(self.values.get("linalg.rank.max_cells", 0), M.rows * M.cols)
        self.values["linalg.rank.max_coeff_bits"] = max(self.values.get("linalg.rank.max_coeff_bits", 0), coeff_bits(M))
        if self.active("tangent.smoothness_check"):
            self.add("tangent.smoothness_check.rank_calls")
        if self.active("ideals.containment_degree"):
            self.add("ideals.containment_degree.rungs")
        self.add("linalg.rank.calls")
        return "linalg.rank.full" if result == min(M.rows, M.cols) else "linalg.rank.deficient"

    def _wrapper_for(self, name, kind, fn):
        if kind == "counter":
            return self._counter(name, fn)
        if kind == "rank":
            return self._span(name, fn, self._after_rank)
        if kind == "det_poly":
            return self._span(name, fn, lambda args, result: name + (".cofactor" if args[0].size <= 4 else ".eliminate"))
        if kind == "section_space":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                before = fn.cache_info().misses
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.add("tangent.section_space.misses", fn.cache_info().misses - before)
            return self._span(name, counted)
        return self._span(name, fn)

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, new):
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "detrep" or key.startswith("detrep.")]
        for module_name, path, kind in TRACE_TARGETS:
            name = f"{module_name}.{path}"
            module = importlib.import_module(f"detrep.{module_name}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    self._patch(cls, attr, staticmethod(self._wrapper_for(name, kind, raw.__func__)))
                else:
                    self._patch(cls, attr, self._wrapper_for(name, kind, raw))
                continue
            original = getattr(module, path)
            wrapper = self._wrapper_for(name, kind, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []
        assert_untraced()

    def metrics(self):
        out = {}
        for name, (unit, _) in LAYER_METRICS.items():
            base, _, field = name.rpartition(".")
            if field == "calls" and name in self.values:
                value = self.values[name]
            elif field == "calls":
                value = self.calls.get(base, 0)
            elif field == "self_s":
                value = self.self_ns.get(base, 0) / 1e9
            elif field == "full_ratio":
                total = self.values.get("linalg.rank.calls", 0)
                value = self.calls.get("linalg.rank.full", 0) / total if total else 0.0
            else:
                value = self.values.get(name, 0)
            out[name] = {"value": value, "unit": unit}
        return out


def assert_untraced():
    """Raise if any attribute of the package still holds a tracing wrapper."""
    for key, module in list(sys.modules.items()):
        if key != "detrep" and not key.startswith("detrep."):
            continue
        for attr, value in vars(module).items():
            holders = [value] + (list(vars(value).values()) if isinstance(value, type) else [])
            for obj in holders:
                if isinstance(obj, staticmethod):
                    obj = obj.__func__
                if getattr(obj, WRAPPED_MARK, False):
                    raise RuntimeError(f"tracing wrapper still installed at {key}.{attr}")


# ---------------------------------------------------------------------------
# Set-up, passes and metrics
# ---------------------------------------------------------------------------


def import_library():
    """Import the package from src/ of this checkout, with the guards that
    keep the timed run measuring the real program."""
    if sys.flags.optimize > 0:
        raise UsageError("refusing to run under -O: it strips the certificate asserts")
    if not (SRC / "detrep" / "__init__.py").is_file():
        raise UsageError(f"no package at {SRC / 'detrep'}")
    sys.path.insert(0, str(SRC))
    lib = importlib.import_module("detrep")
    importlib.import_module("detrep.cli")
    if Path(lib.__file__).resolve().parent != (SRC / "detrep").resolve():
        raise UsageError(f"detrep was imported from {lib.__file__}, not from {SRC}")
    if lib.linalg.USE_MODP_FAST_PATH is not True:
        raise UsageError("detrep.linalg.USE_MODP_FAST_PATH is not at its default (True)")
    return lib


def prepare(lib, workload, seed, workdir):
    """Instance generation and warm-up: build the instances, the section
    spaces they use, and run the first instance of each kind once."""
    instances, bundles = WORKLOAD_BUILD[workload](lib, seed, workdir)
    for bundle in bundles:
        lib.section_space(bundle)
    failures = []
    run_pass(first_of_each_kind(instances), failures)
    return instances, failures


def run_pass(instances, failures):
    for inst in instances:
        _, problem = run_instance(inst)
        if problem:
            failures.append((inst.label, problem))


def nearest_rank(sorted_values, percentile):
    """Value at a percentile by the nearest-rank rule, and how many lie beyond."""
    rank = max(1, math.ceil(percentile / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is KiB on Linux


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def child_setup_times(workload, seed):
    times = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def print_conditions(lib, args, detrep_seed):
    import numpy

    print(f"workload: {args.workload} - {WORKLOADS[args.workload]}")
    print(f"seed: {args.seed} (held-out seed {HELD_OUT_SEED}); DETREP_SEED "
          + (f"was {detrep_seed!r} and is ignored" if detrep_seed is not None else "not set (ignored if set)"))
    print(f"git: {git_sha()}; python {platform.python_version()}; numpy {numpy.__version__}; "
          f"nproc {len(os.sched_getaffinity(0))}; detrep from {Path(lib.__file__).parent}")
    print("loop: closed, one client, single-threaded; whole passes until --seconds have elapsed")


def main(argv=None):
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Inputs come from --seed only; keep the library's own seed variable out.
    detrep_seed = os.environ.pop("DETREP_SEED", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    try:
        lib = import_library()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
        instances, failures = prepare(lib, args.workload, args.seed, workdir)
        setup_raw = time.perf_counter() - t_start
        ref = statistics.median(reference_seconds() for _ in range(3))
        setup_own = setup_raw * REFERENCE_NOMINAL_S / ref
        if args.setup_only:
            print(setup_own)
            return 0 if not failures else 1
        print_conditions(lib, args, detrep_seed)
        attempted = len(first_of_each_kind(instances))
        if args.trace:
            metrics, ran = traced_run(lib, args, workdir, failures)
        else:
            setups = [setup_own] + child_setup_times(args.workload, args.seed)
            metrics, ran = timed_run(instances, args, failures, setups)
        attempted += ran
    for label, problem in failures[:20]:
        print(f"FAILED {label}: {problem}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


def timed_run(instances, args, failures, setups):
    """Whole passes until --seconds have elapsed.  An instance's time to
    verdict is the median over the passes of its scaled time."""
    times = [[] for _ in instances]
    refs = [reference_seconds()]
    passes = 0
    assert_untraced()
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < args.seconds:
        for i, inst in enumerate(instances):
            elapsed, problem = run_instance(inst)
            refs.append(reference_seconds())
            times[i].append(elapsed * REFERENCE_NOMINAL_S / ((refs[-2] + refs[-1]) / 2))
            if problem:
                failures.append((inst.label, problem))
        passes += 1
    wall = time.perf_counter() - start
    assert_untraced()
    ordered = sorted(statistics.median(t) for t in times)
    pct = TAIL_PERCENTILE[args.workload]
    tail, beyond = nearest_rank(ordered, pct)
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "instances_per_s": (len(ordered) / sum(ordered), "1/s"),
        "verdict_p50_s": (statistics.median(ordered), "s"),
        "verdict_tail_s": (tail, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    n = len(instances)
    ref = statistics.median(refs)
    print(f"passes: {passes} over {n} instances in {wall:.3f} s wall")
    print(f"reference: median {ref * 1e3:.3f} ms against {REFERENCE_NOMINAL_S * 1e3:.3f} ms nominal; "
          f"times below are scaled to nominal speed (raw ~ x{ref / REFERENCE_NOMINAL_S:.3f})")
    print(f"setup_s: {values['setup_s'][0]:.6f} s (median of {len(setups)} set-ups: "
          + ", ".join(f"{s:.4f}" for s in setups) + ")")
    print(f"instances_per_s: {values['instances_per_s'][0]:.6f} 1/s (instances over summed time to verdict)")
    print(f"verdict_p50_s: {values['verdict_p50_s'][0]:.6f} s (n = {n}, each the median of {passes} passes)")
    print(f"verdict_tail_s: {tail:.6f} s (p{pct}, {beyond} instances beyond it, n = {n})")
    print(f"peak_rss_mb: {values['peak_rss_mb'][0]:.3f} MB")
    print(f"error_rate: {len(failures)}/{passes * n + len(first_of_each_kind(instances))} failed")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, passes * n


def traced_run(lib, args, workdir, failures):
    """One untraced and one traced unit of work, each regenerating the
    instances with a cold section-space cache and running one pass."""
    section_space = lib.tangent.section_space

    def unit():
        section_space.cache_clear()
        instances, _ = WORKLOAD_BUILD[args.workload](lib, args.seed, workdir)
        run_pass(instances, failures)
        return len(instances)

    start = time.perf_counter()
    ran = unit()
    untraced = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        ran += unit()
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"]["value"] = traced / untraced
    print(f"trace: traced unit {traced:.3f} s, untraced unit {untraced:.3f} s, "
          f"overhead {traced / untraced - 1:+.1%}; wrappers removed")
    for name, entry in metrics.items():
        print(f"{name}: {entry['value']} {entry['unit']}")
    return metrics, ran


if __name__ == "__main__":
    sys.exit(main())
