"""Command-line surface: exit codes, report formats, flag validation."""

import json
from pathlib import Path

import pytest

import detrep.cli
import detrep.ideals
from detrep.cli import main
from detrep.linalg import CertificateError
from detrep.polynomials import HomPoly, mono_basis


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


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


@pytest.mark.parametrize("n", [2, 0])
def test_mult_builds_the_mult_side_once(n, monkeypatch, capsys):
    # The cross-check builds the minors and their matrix and reports both;
    # the membership probes (2n+3 divisible by 3) read its matrix.
    calls = {"u_generators": 0, "mult_map_matrix": 0}
    for name in calls:
        original = getattr(detrep.ideals, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(detrep.ideals, name, counted)
    code, rep = run_json(capsys, ["mult", "--n", str(n), "--seed", "1"])
    assert code == 0
    assert "mult_rank" in rep["data"]
    assert calls == {"u_generators": 1, "mult_map_matrix": 1}


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


# ---------------------------------------------------------------- golden reports

# Every subcommand's full report, pinned: the JSON minus "timing" (key order
# included), the text minus its "time:" line, the exit code and stderr.
# "{tmp}" in an argument or a message stands for a per-test directory that
# holds the case's files.
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


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[case["id"] for case in GOLDEN_CASES])
def test_golden_report(case, fmt, tmp_path, capsys):
    for name, content in case["files"]:
        (tmp_path / name).write_text(content, encoding="utf-8")
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
        lines = [line for line in captured.out.splitlines() if not line.startswith("  time: ")]
        assert lines == case["text"]
