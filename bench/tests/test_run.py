"""Tests of the benchmark itself.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.  The
oracle tests re-derive the expected answers of the smallest instance of each
workload with sympy, independently of detrep; the others check the tracing
wrappers, the guards and the error accounting.
"""

import contextlib
import functools
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
import run  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


@pytest.fixture(scope="module")
def built(lib, tmp_path_factory):
    """Instances of every workload at the default seed, by label."""
    workdir = tmp_path_factory.mktemp("gens")
    return {
        name: {inst.label: inst for inst in build(lib, run.DEFAULT_SEED, workdir)[0]}
        for name, build in run.WORKLOAD_BUILD.items()
    }


def call_args(inst):
    """Arguments an instance hands the library (its call is a partial)."""
    call = inst.call
    return call.args if isinstance(call, functools.partial) else ()


# ---------------------------------------------------------------------------
# sympy oracle for the expected answers
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


def to_sympy(sp, poly):
    x, y, z = sp.symbols("x y z")
    return sum(
        (sp.Rational(c.numerator, c.denominator) * x**a * y**b * z**e for (a, b, e), c in poly.terms.items()),
        sp.Integer(0),
    )


def monomials(sp, d):
    x, y, z = sp.symbols("x y z")
    return [x**a * y**b * z**(d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1)]


def graded_rank(sp, generators, k, extra=()):
    """Rank of the degree-k piece of the ideal (plus extra columns), over QQ."""
    from sympy.polys.matrices import DomainMatrix

    x, y, z = sp.symbols("x y z")
    basis = monomials(sp, k)
    columns = []
    for g in generators:
        d = sp.Poly(g, x, y, z).total_degree()
        if g == 0 or d > k:
            continue
        for m in monomials(sp, k - d):
            poly = sp.Poly(sp.expand(m * g), x, y, z)
            columns.append([poly.coeff_monomial(b) for b in basis])
    columns.extend([[sp.Poly(e, x, y, z).coeff_monomial(b) for b in basis] for e in extra])
    matrix = sp.Matrix(columns).T
    return DomainMatrix.from_Matrix(matrix).convert_to(sp.QQ).rank(), len(basis)


def minors(sp, f, g):
    x, y, z = sp.symbols("x y z")
    out = []
    for t1, t2, t3 in (f, g):
        out += [sp.expand(t1 * y - t2 * x), sp.expand(t1 * z - t3 * x), sp.expand(t2 * z - t3 * y)]
    return out


def test_oracle_generic_pairs_smallest(sp, built):
    f, g, n = call_args(built["generic_pairs"]["crosscheck T(1) #0"])
    x, y, z = sp.symbols("x y z")
    fs, gs = [to_sympy(sp, p) for p in f], [to_sympy(sp, p) for p in g]
    wedge = sp.expand(sp.Matrix([fs, gs, [x, y, z]]).det())
    rank, target = graded_rank(sp, minors(sp, fs, gs), 2 * n + 3)
    surjective = rank == target
    # By the paper's diagram the tangent verdict equals the multiplication one.
    oracle = {"gpli": wedge != 0, "mult_surjective": surjective, "tangent_surjective": surjective, "agree": True}
    assert oracle == run.EXPECTED["generic_pairs"]["crosscheck"]


def test_oracle_special_pairs_k3(sp):
    x, y, z = sp.symbols("x y z")
    k, n = 3, 3
    f = (z ** (n + 1), x ** (n + 1), sp.Integer(0))
    g = (sp.Integer(0), z ** (n + 1), y ** (n + 1))
    gens = minors(sp, f, g)
    rank, target = graded_rank(sp, gens, 2 * n + 3)
    balanced, _ = graded_rank(sp, gens, 2 * n + 3, extra=[x**k * y**k * z**k])
    shifted, _ = graded_rank(sp, gens, 2 * n + 3, extra=[x ** (k + 1) * y**k * z ** (k - 1)])
    want = run.EXPECTED["special_pairs"][k]
    assert (rank, target) == (want["mult_rank"], want["mult_target"]) == (54, 55)
    assert (balanced == rank) == want["balanced_member"]
    assert (shifted == rank) == want["shifted_member"]
    # tangent image plus the curve equals the multiplication image
    assert want["tangent_rank"] == rank and want["tangent_surjective"] == (rank == target)
    assert want["cli_exit"] == (0 if rank == target else 1)


def test_oracle_ladders_smallest(sp, built, tmp_path):
    x, y, z = sp.symbols("x y z")
    exp = run.EXPECTED["ladders"]
    ladders = built["ladders"]
    # the cubic: its partials generate every form of degree 3 * 2 - 2 = 4
    (curve,) = call_args(ladders["smoothness T(0) #0"])
    F = to_sympy(sp, curve)
    partials = [sp.diff(F, v) for v in (x, y, z)]
    rank, target = graded_rank(sp, partials, 4)
    assert (rank == target) == exp["smooth"]
    # the six minors of a random T(1) pair fill at degree 4, not before
    s1, s2 = call_args(ladders["disjointness T(1) #0"])
    gens = minors(sp, [to_sympy(sp, p) for p in s1.components], [to_sympy(sp, p) for p in s2.components])
    r3, t3 = graded_rank(sp, gens, 3)
    r4, t4 = graded_rank(sp, gens, 4)
    assert r3 < t3 and r4 == t4 and exp["pair_fill"][1] == 4
    # three random quadrics fill at degree 4
    argv = call_args(ladders["detrep containment #0"])[1]
    text = Path(argv[argv.index("--gens-file") + 1]).read_text()
    quadrics = [sp.sympify(line.replace("^", "**")) for line in text.splitlines()]
    r3, t3 = graded_rank(sp, quadrics, 3)
    r4, t4 = graded_rank(sp, quadrics, 4)
    assert r3 < t3 and r4 == t4 and exp["containment_fill"] == 4


def test_oracle_wedge_dets_smallest(sp, lib, built):
    x, y, z = sp.symbols("x y z")
    exp = run.EXPECTED["wedge_dets"]
    # M_2(1): five sections over the row of all degree-2 monomials
    (sections,) = call_args(built["wedge_dets"]["wedge M_2(1)"])
    rows = [[to_sympy(sp, p) for p in s.components] for s in sections]
    rows.append(monomials(sp, 2))
    det = sp.Poly(sp.Matrix(rows).det(method="berkowitz"), x, y, z)
    assert det.total_degree() == exp["wedge_degree"]["M_2(1)"]
    assert sp.expand(det.as_expr() - to_sympy(sp, lib.wedge_curve(*sections))) == 0
    # the worked cubic of verify-example1
    cubic = sp.expand(sp.Matrix([[x, 2 * y, 3 * z], [y, z, x], [x, y, z]]).det())
    assert cubic == sp.expand(sp.sympify(exp["example1_curve"].replace("^", "**")))
    # dpsi at the (1, 1, 1) witness: 16 columns onto the 9 forms of bidegree (2, 2)
    X0, X1, Y0, Y1 = sp.symbols("X0 X1 Y0 Y1")
    F1, F2, F3, F4 = X0 * Y0, X0 * Y1, X1 * Y0, X1 * Y1
    target = [X0**a * X1 ** (2 - a) * Y0**b * Y1 ** (2 - b) for a in range(3) for b in range(3)]
    cols = []
    for mult in (F4, -F3, -F2, F1):
        for mono in (X0 * Y0, X0 * Y1, X1 * Y0, X1 * Y1):
            poly = sp.Poly(sp.expand(mult * mono), X0, X1, Y0, Y1)
            cols.append([poly.coeff_monomial(t) for t in target])
    assert sp.Matrix(cols).rank() == exp["dpsi_rank"][(1, 1, 1)]


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def bindings():
    """Every attribute of the package's modules and of their classes."""
    out = {}
    for key, module in list(sys.modules.items()):
        if key == "detrep" or key.startswith("detrep."):
            for attr, value in vars(module).items():
                out[(key, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("detrep"):
                    for cattr, cvalue in vars(value).items():
                        out[(key, attr, cattr)] = cvalue
    return out


def test_trace_sees_every_import_site_and_restores(lib):
    s1, s2 = lib.random_pair(lib.derive_rng(run.DEFAULT_SEED, "coverage", 0), lib.T(0))
    lib.diagram_crosscheck(s1.components, s2.components, n=0)  # warm: section space built
    before = bindings()
    tracer = run.Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            run.assert_untraced()
        lib.diagram_crosscheck(s1.components, s2.components, n=0)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["linalg.rank.calls"]["value"] == 2
    assert m["linalg.rref.calls"]["value"] == 1
    assert m["detmatrix.wedge_curve.calls"]["value"] == 14
    assert m["detmatrix.det_poly.cofactor.calls"]["value"] == 14
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    run.assert_untraced()


def test_trace_counts_repeat(lib, tmp_path):
    def counts():
        tracer = run.Tracer()
        lib.tangent.section_space.cache_clear()
        tracer.install()
        try:
            for build in run.WORKLOAD_BUILD.values():
                instances, _ = build(lib, run.DEFAULT_SEED, tmp_path)
                failures = []
                run.run_pass(run.first_of_each_kind(instances), failures)
                assert not failures, failures
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        return {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "bits")}

    first = counts()
    assert first == counts()
    assert first["tangent.section_space.misses"] > 0
    assert first["polynomials.divide_exact.calls"] > 0


# ---------------------------------------------------------------------------
# Guards and error accounting
# ---------------------------------------------------------------------------


def test_refuses_optimized_interpreter():
    proc = subprocess.run(
        [sys.executable, "-O", str(BENCH / "run.py"), "--workload", "generic_pairs", "--seconds", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert "-O" in proc.stderr


def test_refuses_modp_switch_off(lib, monkeypatch):
    monkeypatch.setattr(lib.linalg, "USE_MODP_FAST_PATH", False)
    with pytest.raises(run.UsageError):
        run.import_library()


def test_refuses_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(BENCH / "run.py", tmp_path / "bench" / "run.py")
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ladders", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_wrong_expected_answer_is_counted(lib, monkeypatch):
    monkeypatch.setitem(run.EXPECTED["special_pairs"][3], "mult_rank", 55)
    monkeypatch.setitem(run.EXPECTED["special_pairs"][3], "cli_exit", 0)
    instances, _ = run.build_special_pairs(lib, run.DEFAULT_SEED, None)
    failures = []
    run.run_pass([i for i in instances if i.label.endswith("k=3")], failures)
    assert {label for label, _ in failures} == {"mult-rank k=3", "mult-report k=3", "detrep tangent k=3"}


def test_wrong_expected_answer_reaches_the_result(monkeypatch):
    monkeypatch.setitem(run.EXPECTED["generic_pairs"]["crosscheck"], "agree", False)
    monkeypatch.setattr(run, "SETUP_CHILDREN", 0)
    monkeypatch.setattr(os, "environ", dict(os.environ))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "generic_pairs", "--seed", "3", "--seconds", "0"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0  # every verdict disagrees with the table


def test_bad_certificate_is_a_failure(lib):
    M = lib.ExactMatrix([[1, 0], [0, 0]])
    v = (0, 1)
    good = lib.in_column_space(M, v)
    assert run.check_membership(good, M, v, False) is None
    forged = lib.Membership(member=False, preimage=None, functional=(1, 1))
    assert run.check_membership(forged, M, v, False) is not None


def test_benchmark_json_matches_the_script():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"] and doc["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == run.WORKLOADS
    assert [m["name"] for m in doc["per_layer"]] == list(run.LAYER_METRICS)
    assert {m["name"] for m in doc["end_to_end"]} == {
        "setup_s", "instances_per_s", "verdict_p50_s", "verdict_tail_s", "peak_rss_mb"}
