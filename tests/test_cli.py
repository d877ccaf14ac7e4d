"""Command-line surface: exit codes, report formats, flag validation."""

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import detrep.cli
import detrep.ideals
import detrep.polynomials
from detrep.bundles import T
from detrep.cli import RunReport, build_parser, main
from detrep.ideals import mult_map_matrix, u_generators
from detrep.detmatrix import Section, wedge_curve
from detrep.linalg import CertificateError, in_column_space
from detrep.polynomials import HomPoly, mono_basis, parse_hompoly
from detrep.sampling import derive_rng, random_hompoly


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def str_rendered(form):
    """``str(form)`` with every coefficient printed by ``str()`` itself, the
    interpreter's limit on int-string digits lifted for the call."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(detrep.polynomials, "_digits", str)
            return str(form)
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------- examples


def test_verify_example1_passes(capsys):
    code, rep = run_json(capsys, ["verify-example1"])
    assert code == 0
    assert rep["subcommand"] == "verify-example1"
    assert rep["verdicts"] == {
        "determinant_matches": True,
        "smooth": True,
        "tangent_surjective": True,
    }
    assert rep["data"]["curve"] == "x^2*y - 2*x*z^2 + y^2*z"
    assert rep["data"]["augmented_rank"] == 10


def test_verify_example1_rejects_bundle_flag(capsys):
    assert main(["verify-example1", "--bundle", "N"]) == 2


def test_verify_example2_passes(capsys):
    code, rep = run_json(capsys, ["verify-example2"])
    assert code == 0
    assert rep["data"]["curve"] == "x^2 + y^2 - z^2"
    assert rep["data"]["hom_dim"] == 6
    assert rep["data"]["augmented_rank"] == 6


def test_text_output_lists_verdicts(capsys):
    code = main(["verify-example2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict determinant_matches: pass" in out
    assert "verdict tangent_surjective: pass" in out


# ---------------------------------------------------------------- tangent


def test_tangent_explicit_pair(capsys):
    code, rep = run_json(
        capsys,
        ["tangent", "--bundle", "T", "--n", "0", "--v1", "x, 2*y, 3*z", "--v2", "y, z, x"],
    )
    assert code == 0
    assert rep["verdicts"]["gpli"] is True
    assert rep["verdicts"]["surjective"] is True
    assert rep["data"]["augmented_rank"] == 10


def test_tangent_proportional_pair_fails(capsys):
    code, rep = run_json(
        capsys,
        ["tangent", "--bundle", "T", "--n", "0", "--v1", "x, y, z", "--v2", "2*x, 2*y, 2*z"],
    )
    assert code == 1
    assert rep["verdicts"] == {"gpli": False}


def test_tangent_special_pair_not_surjective(capsys):
    code, rep = run_json(
        capsys,
        ["tangent", "--bundle", "T", "--n", "3", "--v1", "z^4, x^4, 0", "--v2", "0, z^4, y^4"],
    )
    assert code == 1
    assert rep["verdicts"]["gpli"] is True
    assert rep["verdicts"]["surjective"] is False
    assert rep["data"]["curve"] == "x^5*y^4 - y^5*z^4 + z^9"


def test_tangent_renders_coefficients_past_the_int_string_limit(capsys):
    # The curve's coefficients have about 6000 digits, more than str() of an
    # int converts; the report still prints each one whole.
    sevens = "7" * 3000
    v1, v2 = f"{sevens}*x, 2*y, 3*z", f"y, {sevens}*z, x"
    code = main(["tangent", "--bundle", "T", "--n", "0", "--v1", v1, "--v2", v2, "--json"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    rep = json.loads(captured.out)
    curve = wedge_curve(*(Section(T(0), tuple(map(parse_hompoly, v.split(",")))) for v in (v1, v2)))
    assert max(abs(c).numerator for c in curve.terms.values()) > 10**4300
    assert rep["data"]["curve"] == str_rendered(curve)


def test_tangent_bad_polynomial_usage_error(capsys):
    code = main(["tangent", "--bundle", "T", "--n", "0", "--v1", "x, y", "--v2", "y, z, x"])
    assert code == 2


def test_tangent_inhomogeneous_component_usage_error(capsys):
    code = main(
        ["tangent", "--bundle", "T", "--n", "0", "--v1", "x+y^2, y, z", "--v2", "y, z, x"]
    )
    assert code == 2


# ---------------------------------------------------------------- mult


def test_mult_seeded_deterministic(monkeypatch, capsys):
    code1, rep1 = run_json(capsys, ["mult", "--n", "0", "--seed", "5"])
    code2, rep2 = run_json(capsys, ["mult", "--n", "0", "--seed", "5"])
    assert code1 == code2 == 0
    rep1.pop("timing")
    rep2.pop("timing")
    assert rep1 == rep2
    assert rep1["seed"] == 5
    # Without --seed the environment's seed must be an integer.
    monkeypatch.setenv("DETREP_SEED", "abc")
    assert main(["mult", "--n", "0"]) == 2
    assert capsys.readouterr().err == "error: DETREP_SEED must be an integer, got 'abc'\n"


@pytest.mark.parametrize("value, limit", [("9" * 5000, True), ("x" * 5000, False)], ids=["digits", "letters"])
def test_a_long_env_seed_is_echoed_cut_short(value, limit, monkeypatch, capsys):
    # DETREP_SEED is read by the rule of the integer options: the echo is cut
    # to 40 characters, and a value past the int-string limit names it.
    monkeypatch.setenv("DETREP_SEED", value)
    assert main(["mult", "--n", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    shown = f"error: DETREP_SEED must be an integer, got {value[:40]!r}..."
    note = f" (integers are limited to {sys.get_int_max_str_digits()} digits)" if limit else ""
    assert captured.err == shown + note + "\n"


def test_mult_equal_triples_fail(capsys):
    code, rep = run_json(
        capsys, ["mult", "--n", "0", "--f", "x, y, z", "--g", "x, y, z"]
    )
    assert code == 1
    assert rep["verdicts"]["gpli"] is False


def test_mult_requires_both_triples(capsys):
    assert main(["mult", "--n", "0", "--f", "x, y, z"]) == 2


def test_mult_membership_probes_at_multiple_of_three(capsys):
    code, rep = run_json(
        capsys, ["mult", "--n", "3", "--f", "z^4, x^4, 0", "--g", "0, z^4, y^4"]
    )
    assert code == 1
    assert rep["data"]["probe_balanced"] == "x^3*y^3*z^3"
    assert rep["data"]["probe_balanced_member"] is False
    assert rep["verdicts"]["crosscheck_agree"] is True


def counting(monkeypatch, name, *modules):
    """Count the calls to ``name`` at each module's import site; the original,
    read from the first module, still answers them."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("n", [2, 0])
def test_mult_builds_the_mult_side_once(n, monkeypatch, capsys):
    # On a surjective pair the cross-check ranks only the tangent side and
    # builds no multiplication matrix, and the membership probes (2n+3
    # divisible by 3) read the onto verdict without building one either.
    calls = {name: counting(monkeypatch, name, detrep.ideals, detrep.cli)
             for name in ("u_generators", "mult_map_matrix")}
    code, rep = run_json(capsys, ["mult", "--n", str(n), "--seed", "1"])
    assert code == 0
    assert "mult_rank" in rep["data"]
    probes = int("probe_balanced" in rep["data"])
    assert probes == (n == 0)
    assert {name: len(made) for name, made in calls.items()} == {"u_generators": 1, "mult_map_matrix": 0}


@pytest.mark.parametrize("n", [0, 3])
def test_mult_probes_of_an_onto_pair_match_the_column_space(n, monkeypatch, capsys):
    # The probes of an onto pair are read off its verdict; a membership query
    # on the built multiplication matrix gives the same answers.
    queries = counting(monkeypatch, "in_column_space", detrep.cli)
    code, rep = run_json(capsys, ["mult", "--n", str(n), "--seed", "1"])
    assert code == 0
    assert rep["verdicts"]["mult_surjective"] is True
    assert queries == []
    f, g = ([parse_hompoly(p, degree=n + 1) for p in rep["inputs"][key]] for key in ("f", "g"))
    matrix = mult_map_matrix(u_generators(f, g, n))
    for name in ("balanced", "shifted"):
        probe = parse_hompoly(rep["data"][f"probe_{name}"])
        assert rep["data"][f"probe_{name}_member"] == in_column_space(matrix, probe.coeff_vector()).member


def test_mult_probes_a_pair_that_is_not_onto(monkeypatch, capsys):
    # f = L*f' and g = L*g': L divides every minor and so every form in the
    # image, which no monomial probe is.
    line = parse_hompoly("x + 2*y + 3*z")
    rng = derive_rng(1, "mult-not-onto", 0)
    f, g = ([line * random_hompoly(rng, 0) for _ in range(3)] for _ in range(2))
    builds = counting(monkeypatch, "mult_map_matrix", detrep.cli)
    queries = counting(monkeypatch, "in_column_space", detrep.cli)
    argv = ["mult", "--n", "0", "--f", ", ".join(map(str, f)), "--g", ", ".join(map(str, g))]
    code, rep = run_json(capsys, argv)
    assert code == 1
    assert rep["verdicts"]["gpli"] is True
    assert rep["verdicts"]["mult_surjective"] is False
    assert (len(builds), len(queries)) == (1, 2)
    assert rep["data"]["probe_balanced_member"] is False
    assert rep["data"]["probe_shifted_member"] is False


# ---------------------------------------------------------------- others


def test_p1p1_small_case(capsys):
    code, rep = run_json(capsys, ["p1p1", "--a", "1", "--b", "1", "--m", "1"])
    assert code == 0
    assert rep["data"] == {"domain_dim": 16, "target_dim": 9, "rank": 9}


def test_p1p1_rejects_zero(capsys):
    assert main(["p1p1", "--a", "0", "--b", "1", "--m", "1"]) == 2


def test_p1p1_degree_bound(capsys):
    # ma = bound with mb = 1 keeps the matrix small; one over is refused
    # before anything is built.
    bound = detrep.cli.MAX_P1P1_DEGREE
    code, rep = run_json(capsys, ["p1p1", "--a", str(bound), "--b", "1", "--m", "1"])
    assert code == 0
    assert rep["data"]["target_dim"] == (2 * bound + 1) * 3
    assert main(["p1p1", "--a", "1", "--b", str(bound + 1), "--m", "1"]) == 2
    assert "must be at most" in capsys.readouterr().err


def test_audit_table(capsys):
    code, rep = run_json(
        capsys, ["audit", "--family", "N", "--params", "n=0", "--m-range", "0:4", "--g", "8"]
    )
    assert code == 0
    assert rep["verdicts"]["all_hold"] is True
    assert len(rep["data"]["rows"]) == 5


def test_audit_twist_bound(capsys):
    # Both ends at the bound are audited; one past it, at either end, is
    # refused before any row is computed.
    bound = detrep.cli.MAX_AUDIT_TWIST
    code, rep = run_json(capsys, ["audit", "--family", "T", f"--m-range={bound - 1}:{bound}"])
    assert code == 0
    assert [row["m"] for row in rep["data"]["rows"]] == [bound - 1, bound]
    code, rep = run_json(
        capsys, ["audit", "--family", "T", "--params", f"n={bound}", f"--m-range=-{bound}:-{bound}"]
    )
    assert code == 0
    assert [row["m"] for row in rep["data"]["rows"]] == [-bound]
    for m_range, past in ((f"{bound}:{bound + 1}", bound + 1), (f"-{bound + 1}:-{bound}", -bound - 1)):
        assert main(["audit", "--family", "T", f"--m-range={m_range}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --m-range endpoints must be at most {bound} in absolute value, got {past}\n"
        )
    # A 2200-digit twist gives rows past 4300 digits, which neither format could print.
    long_twist = "9" * 2200
    for fmt in ([], ["--json"]):
        assert main(["audit", "--family", "T", f"--m-range={long_twist}:{long_twist}", *fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --m-range endpoints must be at most")


def test_audit_bad_family(capsys):
    assert main(["audit", "--family", "Q"]) == 2


def test_audit_bad_params(capsys):
    assert main(["audit", "--family", "N", "--params", "n=x"]) == 2


def test_audit_select_degree(capsys):
    code, rep = run_json(capsys, ["audit", "--select-degree", "7"])
    assert code == 0
    assert rep["data"]["bundle"] == "T(2)"
    assert rep["data"]["det_degree"] == 7


def test_containment_file(tmp_path, capsys):
    path = tmp_path / "gens.txt"
    path.write_text("x^2\ny^2\nz^2\n")
    code, rep = run_json(capsys, ["containment", "--gens-file", str(path)])
    assert code == 0
    assert rep["data"]["containment_degree"] == 4


def test_containment_not_reached(tmp_path, capsys):
    path = tmp_path / "gens.txt"
    path.write_text("x^2\ny^2\n")
    code, rep = run_json(capsys, ["containment", "--gens-file", str(path)])
    assert code == 1
    assert rep["data"]["containment_degree"] is None


def test_containment_generator_bound(tmp_path, capsys):
    # The ten cubic monomials sit at the bound; one more is refused before
    # any generator is parsed.
    bound = detrep.cli.MAX_CONTAINMENT_GENERATORS
    cubics = [str(HomPoly.monomial(mono)) for mono in mono_basis(3)]
    assert len(cubics) == bound
    path = tmp_path / "gens.txt"
    path.write_text("\n".join(cubics) + "\n")
    code, rep = run_json(capsys, ["containment", "--gens-file", str(path)])
    assert code == 0
    assert rep["data"]["containment_degree"] == 3
    path.write_text("\n".join(cubics) + "\nnot a form\n")
    assert main(["containment", "--gens-file", str(path)]) == 2
    assert capsys.readouterr().err == f"error: at most {bound} generators are accepted, got {bound + 1}\n"


def test_containment_missing_file(capsys):
    assert main(["containment", "--gens-file", "/nonexistent/gens.txt"]) == 2


def test_containment_bad_polynomial(tmp_path, capsys):
    path = tmp_path / "gens.txt"
    path.write_text("x + w\n")
    assert main(["containment", "--gens-file", str(path)]) == 2


def test_containment_overlong_number(tmp_path, capsys):
    # Past the interpreter's limit on digits in an int, the usage error names
    # the term instead of passing on the interpreter's advice.
    path = tmp_path / "gens.txt"
    path.write_text("x^" + "9" * 5000 + "\n")
    assert main(["containment", "--gens-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: number with too many digits in term {'x^' + '9' * 38!r}...\n"


def test_containment_renders_a_generator_past_the_int_string_limit(tmp_path, capsys):
    # x^2 over 2400 distinct 16-digit denominators sums to one coefficient
    # whose denominator has far more digits than str() of an int converts.
    line = " + ".join(f"1/{10**15 + i}*x^2" for i in range(2400))
    assert len(line) < detrep.cli.MAX_GENS_FILE_BYTES
    path = tmp_path / "gens.txt"
    path.write_text(line + "\n")
    code = main(["containment", "--gens-file", str(path), "--json"])
    captured = capsys.readouterr()
    assert code == 1  # (x^2) alone never fills a degree
    assert captured.err == ""
    rep = json.loads(captured.out)
    [gen] = rep["inputs"]["gens"]
    assert gen == str_rendered(parse_hompoly(line))
    assert len(gen) > 4300


def test_containment_byte_order_mark(tmp_path, capsys):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(b"x^2\ny^2\nz^2\n")
    marked.write_bytes(b"\xef\xbb\xbfx^2\ny^2\nz^2\n")
    reports = [run_json(capsys, ["containment", "--gens-file", str(path)]) for path in (plain, marked)]
    for _, rep in reports:
        rep.pop("timing")
    assert reports[0] == reports[1]
    assert reports[0][0] == 0


def test_containment_file_size_bound(tmp_path, capsys):
    # A file of exactly the bound is read; one byte more is refused unparsed.
    bound = detrep.cli.MAX_GENS_FILE_BYTES
    gens = b"x^2\ny^2\nz^2\n"
    padding = bound - len(gens)
    path = tmp_path / "gens.txt"
    path.write_bytes(b"#" * (padding - 1) + b"\n" + gens)
    assert path.stat().st_size == bound
    code, rep = run_json(capsys, ["containment", "--gens-file", str(path)])
    assert code == 0
    assert rep["data"]["containment_degree"] == 4
    path.write_bytes(b"#" * padding + b"\n" + gens)
    assert main(["containment", "--gens-file", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path} holds more than {bound} bytes\n"


def test_report_renders_through_json():
    # Values JSON has no type for render as their text; tuples become lists.
    rep = RunReport(
        inputs={"n": 1},
        verdicts={"ok": True},
        data={"half": Fraction(1, 2), "pair": (1, "x"), "none": None},
        seed=7,
        subcommand="demo",
    )
    out = json.loads(rep.to_json())
    assert list(out) == ["subcommand", "inputs", "seed", "verdicts", "data", "timing"]
    assert out["data"] == {"half": "1/2", "pair": [1, "x"], "none": None}
    assert (out["subcommand"], out["seed"], out["timing"]) == ("demo", 7, 0.0)
    assert "seed" not in json.loads(RunReport(inputs={}, verdicts={}).to_json())


def test_every_subcommand_takes_json_last():
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == {"verify-example1", "verify-example2", "tangent", "mult",
                                "p1p1", "audit", "containment"}
    for name, parser in sub.choices.items():
        assert parser.get_default("json") is False, name
        options = [line.split()[0] for line in parser.format_help().splitlines()
                   if line.startswith("  -")]
        assert options[-1] == "--json", name


def test_unknown_subcommand_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_failed_certificate_is_an_internal_error(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise CertificateError("preimage must verify")

    monkeypatch.setattr(detrep.cli, "diagram_crosscheck", fail)
    code = main(["mult", "--n", "1", "--seed", "3"])
    captured = capsys.readouterr()
    assert code == detrep.cli.INTERNAL_ERROR == 3
    assert captured.err == "internal error: preimage must verify\n"
    assert captured.out == ""


def _huge_integer_cases():
    """Every integer the CLI reads, at 2200 and 4299 digits, with both signs
    where the parser takes them: argv, and the DETREP_SEED value or None."""
    pair = ["--v1", "x, y, z", "--v2", "y, z, x"]
    for digits in (2200, 4299):
        for sign in ("", "-"):
            big = sign + "9" * digits
            yield f"tangent-n{sign}{digits}", ["tangent", "--bundle", "T", "--n", big, *pair], None
            yield f"mult-n{sign}{digits}", ["mult", "--n", big, "--seed", "1"], None
            yield f"mult-seed{sign}{digits}", ["mult", "--n", "0", "--seed", big], None
            yield f"mult-env-seed{sign}{digits}", ["mult", "--n", "0"], big
            yield f"p1p1-a{sign}{digits}", ["p1p1", "--a", big, "--b", "1", "--m", "1"], None
            yield f"p1p1-b{sign}{digits}", ["p1p1", "--a", "1", "--b", big, "--m", "1"], None
            yield f"p1p1-m{sign}{digits}", ["p1p1", "--a", "1", "--b", "1", "--m", big], None
            # m*a is 2 digits longer than a.
            yield f"p1p1-product{sign}{digits}", ["p1p1", "--a", big, "--b", "1", "--m", "99"], None
            yield f"audit-g{sign}{digits}", ["audit", "--family", "T", "--g", big], None
            yield f"audit-select-degree{sign}{digits}", ["audit", "--select-degree", big], None
            yield f"audit-m-lo{sign}{digits}", ["audit", "--family", "T", f"--m-range={big}:0"], None
            yield f"audit-m-hi{sign}{digits}", ["audit", "--family", "T", f"--m-range=0:{big}"], None
            yield f"audit-params-n{sign}{digits}", ["audit", "--family", "T", "--params", f"n={big}"], None
            yield f"audit-params-k{sign}{digits}", ["audit", "--family", "M", "--params", f"n=0,k={big}"], None
    yield "audit-params-blank-item", ["audit", "--family", "M", "--params", "n=0,,k=2"], None


HUGE_INTEGER_CASES = list(_huge_integer_cases())


@pytest.mark.parametrize("fmt", [["--json"], []], ids=["json", "text"])
@pytest.mark.parametrize("argv, env_seed", [case[1:] for case in HUGE_INTEGER_CASES],
                         ids=[case[0] for case in HUGE_INTEGER_CASES])
def test_huge_integers_keep_the_exit_code_contract(argv, env_seed, fmt, monkeypatch, capsys):
    # An integer of any length is answered, a verdict failed or a usage error,
    # never a crash or the interpreter's advice on int-string limits.
    if env_seed is None:
        monkeypatch.delenv("DETREP_SEED", raising=False)
    else:
        monkeypatch.setenv("DETREP_SEED", env_seed)
    code = main(argv + fmt)
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 2:
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert "set_int_max_str_digits" not in captured.err
    else:
        assert captured.err == ""
        if fmt:
            json.loads(captured.out)
        else:
            assert captured.out.startswith(f"subcommand: {argv[0]}")


def _past_int_string_limit_cases():
    """Every integer option and parser, given 5000 digits."""
    big = "9" * 5000
    pair = ["--v1", "x, y, z", "--v2", "y, z, x"]
    yield "tangent-n", ["tangent", "--bundle", "T", "--n", big, *pair]
    yield "mult-n", ["mult", "--n", big, "--seed", "1"]
    yield "mult-seed", ["mult", "--n", "0", "--seed", "-" + big]
    yield "p1p1-a", ["p1p1", "--a", big, "--b", "1", "--m", "1"]
    yield "p1p1-b", ["p1p1", "--a", "1", "--b", big, "--m", "1"]
    yield "p1p1-m", ["p1p1", "--a", "1", "--b", "1", "--m", big]
    yield "audit-g", ["audit", "--family", "T", "--g", big]
    yield "audit-select-degree", ["audit", "--select-degree", big]
    yield "audit-params", ["audit", "--family", "M", "--params", f"n=0,k={big}"]
    yield "audit-m-lo", ["audit", "--family", "T", f"--m-range=-{big}:0"]


@pytest.mark.parametrize("argv", [case[1] for case in _past_int_string_limit_cases()],
                         ids=[case[0] for case in _past_int_string_limit_cases()])
def test_integers_past_the_int_string_limit_name_it(argv, capsys):
    # Past 4300 digits the interpreter parses no integer: the usage error
    # names that limit and echoes at most 40 characters of the value.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert last.endswith(f"... (integers are limited to {sys.get_int_max_str_digits()} digits)")
    assert len(last) < 200


# ---------------------------------------------------------------- golden reports

# Every subcommand's full report, pinned: the JSON minus "timing" (key order
# included), the text minus its "time:" line, the exit code and stderr.
# "{tmp}" in an argument or a message stands for a per-test directory that
# holds the case's files; a lone surrogate \udc80-\udcff in a file's content
# stands for the byte 0x80-0xff, which is not UTF-8 on its own.
GOLDEN_CASES = [
    dict(case)
    for case in json.loads(
        Path(__file__).with_name("cli_golden.json").read_text(encoding="utf-8"),
        object_pairs_hook=list,
    )
]


def _ordered(text):
    """A JSON report as nested key/value lists, so that key order counts."""
    return [pair for pair in json.loads(text, object_pairs_hook=list) if pair[0] != "timing"]


def _untimed_text(out):
    return [line for line in out.splitlines() if not line.startswith("  time: ")]


def check_golden(case, fmt, tmp_path, capsys):
    """Run one golden row in ``fmt`` and compare it with its pinned report."""
    for name, content in case["files"]:
        (tmp_path / name).write_text(content, encoding="utf-8", errors="surrogateescape")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in case["argv"]]
    code = main(argv + ["--json"] if fmt == "json" else argv)
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert captured.err.replace(str(tmp_path), "{tmp}") == case["stderr"]
    if case[fmt] is None:
        assert captured.out == ""
    elif fmt == "json":
        assert _ordered(captured.out) == case["json"]
    else:
        assert _untimed_text(captured.out) == case["text"]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[case["id"] for case in GOLDEN_CASES])
def test_golden_report(case, fmt, tmp_path, capsys):
    check_golden(case, fmt, tmp_path, capsys)


def test_golden_rows_replay_in_reverse_in_one_process(tmp_path, capsys):
    # main reuses one parser for the whole process: no row may depend on the
    # rows run before it, usage lines on stderr included.
    detrep.cli._parser.cache_clear()
    for case in reversed(GOLDEN_CASES):
        for fmt in ("text", "json"):
            check_golden(case, fmt, tmp_path, capsys)


# ---------------------------------------------------------------- one parser per process


def run_plain(capsys, argv):
    """The exit code, stderr and report of one run; the report is the JSON
    minus "timing", or the text minus its "time:" line."""
    code = main(argv)
    captured = capsys.readouterr()
    report = _ordered(captured.out) if "--json" in argv else _untimed_text(captured.out)
    return code, captured.err, report


LEAK_PAIRS = {
    "seed-then-pair": (["mult", "--n", "1", "--seed", "3", "--json"], 0,
                       ["mult", "--n", "1", "--f", "x^2, y^2, z^2", "--g", "y*z, x*z, x*y", "--json"]),
    "select-degree-then-family": (["audit", "--select-degree", "7", "--json"], 0,
                                  ["audit", "--family", "M", "--params", "n=0,k=2", "--json"]),
    "json-then-text": (["verify-example2", "--json"], 0, ["verify-example2"]),
    "usage-error-then-run": (["tangent", "--bundle", "T", "--n", "0"], 2,
                             ["tangent", "--bundle", "T", "--n", "0", "--v1", "x, 2*y, 3*z",
                              "--v2", "y, z, x", "--json"]),
}


@pytest.mark.parametrize("first, first_exit, second", LEAK_PAIRS.values(), ids=LEAK_PAIRS)
def test_a_run_leaks_nothing_into_the_next(first, first_exit, second, capsys):
    # The second of two runs in a row reports what it reports on a fresh parser.
    detrep.cli._parser.cache_clear()
    want = run_plain(capsys, second)
    detrep.cli._parser.cache_clear()
    before = run_plain(capsys, first)
    assert before[0] == first_exit
    assert run_plain(capsys, second) == want
    if "--seed" in first:
        assert "seed" in dict(before[2]) and "seed" not in dict(want[2])


def test_main_builds_the_parser_once(monkeypatch, tmp_path, capsys):
    detrep.cli._parser.cache_clear()
    builds = counting(monkeypatch, "build_parser", detrep.cli)
    firsts = {}
    for case in GOLDEN_CASES:
        firsts.setdefault(case["argv"][0], case)
    assert set(firsts) == {"verify-example1", "verify-example2", "tangent", "mult",
                           "p1p1", "audit", "containment"}
    for case in firsts.values():
        check_golden(case, "json", tmp_path, capsys)
    assert main(["frobnicate"]) == 2
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: detrep")
    assert len(builds) == 1
    assert build_parser() is not build_parser()
