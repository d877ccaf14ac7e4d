"""Command-line entry point: every verification as a subcommand.

Output is a human-readable listing by default or JSON with --json; all
mathematical values are exact (rationals rendered as "p/q").  Exit codes:
0 when every verdict passes, 1 when a mathematical verdict fails, 2 on
usage or parse errors, 3 when a certificate or internal invariant fails its
re-check (a defect of the program, not of the input).

Each ``cmd_*`` function returns a ``RunReport`` of inputs, verdicts, data and
seed, and raises ``ValueError`` (``ParseError`` included) on bad input.
``build_parser`` returns a fresh parser with ``--json`` on every subcommand.
``main`` builds one on its first call and reuses it for the rest of the
process, so an in-process caller pays the build once.  The parser binds each
subcommand's ``cmd_*`` and the ``_int_option`` type when it is built; the
``MAX_*`` limits and the library functions are looked up when a command
runs, so a test should patch those, not a ``cmd_*``.  ``main`` owns the
rest of the run: it stamps the subcommand's name, times it, picks the exit
code, renders the report, and maps a ``ValueError`` to ``error: ...`` with
exit 2 and a ``CertificateError`` to ``internal error: ...`` with exit 3.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
import time
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Dict, Optional, Sequence

from .bundles import (
    FAMILIES,
    BundleSpec,
    ambient_degrees,
    det_degree,
    inequality_audit,
    linearity_onset,
    parameter_letter,
    select_E_d,
)
from .detmatrix import GpliError, Section
from .ideals import containment_degree, diagram_crosscheck, mult_map_matrix, u_generators
from .linalg import CertificateError, in_column_space
from .biprojective import dpsi_report, monomial_cover_check, witness_quad
from .polynomials import HomPoly, ParseError, h0_p2, parse_hompoly, parse_integer
from .sampling import derive_rng, random_pair, resolve_seed
from .tangent import TANGENT_FAMILIES, smoothness_check, tangent_map

USAGE_ERROR = 2
VERDICT_ERROR = 1
INTERNAL_ERROR = 3

# The largest --n that mult and tangent accept.  The slowest mult pair is one
# whose multiplication map is not onto: both sides of the cross-check fall
# back to Bareiss, and so do the membership probes when 3 divides 2n + 3.
# With f = L*f' and g = L*g', L = x + 2y + 3z and f', g' dense and seeded,
# nothing peels.  It took 40-53 s at n = 9 (probes included, 11-14 s each)
# and 83-95 s at n = 11 (no probes) on a 2-core machine shared with other
# work.  An onto pair reads its probes off the verdict: `detrep mult
# --seed 1` took 0.09 s at n = 9.  `detrep tangent` stayed under 2 s up to
# n = 16.
MAX_N = 11

# The largest m*a and m*b that p1p1 accepts; dpsi_matrix is a dense int64
# array of (2ma+1)(2mb+1) x 4(ma+1)(mb+1) cells.  `detrep p1p1` at ma = mb =
# 16 and 20 on a 2-core machine took 0.01 and 0.03 s with a maximum RSS of 43
# and 60 MB; its report at 24, called directly, 0.05 s and 90 MB.
MAX_P1P1_DEGREE = 20

# The largest generator degree D that containment accepts; its ladder climbs to
# 3D - 2.  Three dense random forms with no common zero are decided by their
# Koszul syzygy bounds: 0.1 and 0.4 s at D = 6 and 8 on a 2-core machine,
# where Bareiss alone took 0.75 s and, on another draw, 16 s.  Forms with a common zero fall back
# to Bareiss on the rungs those bounds miss: three dense degree-8 forms through
# [0:0:1] took 8.7 s (maximum RSS 40 MB), and by Bareiss alone three dense
# forms at D = 10 took 133 s.
MAX_CONTAINMENT_DEGREE = 8

# The most generators containment accepts; each adds columns to every rung.
# With g dense random degree-8 forms sharing one zero, so that every rung up
# to 22 is deficient, Bareiss alone took 24, 84, 161 and 186 s at g = 3, 6, 10
# and 12 on a 2-core machine (maximum RSS 42, 54, 71 and 75 MB).  The Koszul
# bounds miss by the zero on the upper rungs, and another draw of such forms
# took 8.7 and 122 s at g = 3 and 10 (23 and 129 s by Bareiss alone; maximum
# RSS 40 and 83 MB); ten such forms without a common zero took 0.05 s.  Those
# forms shared the zero [0:0:1], so every rung has a zero row, and since
# ``linalg.rank`` peels it a draw of three and ten such forms takes 0.26 and
# 0.8 s.  A zero off the coordinate points leaves no line to peel: three and
# ten forms through [1:2:3] took 31 and 492 s.  The bound admits the six
# minors of a T(n) pair and the ten cubic monomials.
MAX_CONTAINMENT_GENERATORS = 10

# The most twists one audit accepts, hi - lo + 1.  `detrep audit --family N
# --json` on a 2-core machine took 0.5, 1.9 and 3.4 s for 10^4, 10^5 and
# 2 * 10^5 twists, printing 1.1, 11 and 23 MB with a maximum RSS of 43, 170
# and 312 MB.
MAX_AUDIT_TWISTS = 10_000

# The largest absolute value of every integer an audit row is computed from:
# either end of --m-range and each --params value.  An audit row's lhs and rhs
# grow like m^2 (about 2m^2 for T(n)), and Python prints no int of more than
# 4300 digits: a T twist of 2200 digits made both report formats fail, and so
# did n = 10^2200.  The paper's twists are below 100; at |m| = 10^6 the rows of
# every family at small parameters (n <= 1, k <= 6, r <= 4) have at most 15
# digits, and with every parameter at the bound too a report stays under 1 KB.
MAX_AUDIT_TWIST = 10**6

# The most bytes a containment --gens-file may hold; a larger file is refused
# after reading one byte past the bound.  Parsing sums the coefficients of a
# repeated monomial, and distinct denominators make that sum's denominator
# grow with every term: for one generator repeating x^2 over distinct
# 16-digit denominators, parsing took 0.07, 0.15, 0.3 and 3.7 s at 64, 128,
# 256 KiB and 1 MiB on a 2-core machine, and `containment_degree` 0.08, 0.2,
# 0.8 and 12 s (single runs), most of it three gcds of the sum's numerator
# and denominator, which grow with the file.  Repeating a plain x^2 took
# 0.05 s at 64 KiB and 1.2 s at 1 MiB; maximum RSS stayed under 70 MB.  Ten
# dense degree-8 forms with 100-digit coefficients fit in the bound.
MAX_GENS_FILE_BYTES = 64 * 1024


@dataclass
class RunReport:
    """One subcommand's outcome: inputs echoed, verdicts, numbers, timing.

    ``main`` stamps ``subcommand`` and ``timing``; values that JSON has no
    type for, a ``Fraction`` among them, render as their ``str``."""

    inputs: Dict[str, object]
    verdicts: Dict[str, bool]
    data: Dict[str, object] = field(default_factory=dict)
    seed: Optional[int] = None
    subcommand: str = ""
    timing: float = 0.0

    def to_json(self) -> str:
        out: Dict[str, object] = {"subcommand": self.subcommand, "inputs": self.inputs}
        if self.seed is not None:
            out["seed"] = self.seed
        out.update(verdicts=self.verdicts, data=self.data, timing=round(self.timing, 6))
        return json.dumps(out, indent=2, default=str)

    def to_text(self) -> str:
        lines = [f"subcommand: {self.subcommand}"]
        for key, value in self.inputs.items():
            lines.append(f"  input {key}: {_textual(value)}")
        if self.seed is not None:
            lines.append(f"  seed: {self.seed}")
        for key, value in self.data.items():
            lines.append(f"  {key}: {_textual(value)}")
        for key, value in self.verdicts.items():
            lines.append(f"  verdict {key}: {'pass' if value else 'FAIL'}")
        lines.append(f"  time: {self.timing:.3f}s")
        return "\n".join(lines)


def _textual(value):
    if isinstance(value, (list, tuple)):
        return ", ".join(str(v) for v in value)
    return str(value)


def _int_option(text: str) -> int:
    """The ``type`` of every integer option: argparse's message for an
    invalid int, cut short and naming the int-string limit as ``parse_integer``'s."""
    try:
        return parse_integer(text, "invalid int value: ")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _check_n(n: int) -> None:
    if n > MAX_N:
        raise ValueError(f"--n must be at most {MAX_N}, got {n}")


def _parse_section(bundle: BundleSpec, text: str) -> Section:
    degrees = ambient_degrees(bundle)
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != len(degrees):
        raise ParseError(f"expected {len(degrees)} comma-separated components, got {len(parts)}")
    return Section(bundle, tuple(parse_hompoly(p, degree=d) for p, d in zip(parts, degrees)))


# ---------------------------------------------------------------- commands

# The worked examples: bundle, the two sections, and the expected curve with
# the signs it is allowed (the conic is fixed only up to sign).
EXAMPLES = {
    "verify-example1": (BundleSpec("T", 0), "x, 2*y, 3*z", "y, z, x",
                        "x^2*y - 2*x*z^2 + y^2*z", (1,)),
    "verify-example2": (BundleSpec("N", 0), "0, 1, y", "1, 0, x",
                        "x^2 + y^2 - z^2", (1, -1)),
}


def cmd_verify_example(args) -> RunReport:
    bundle, text1, text2, expected, signs = EXAMPLES[args.command]
    v1 = _parse_section(bundle, text1)
    v2 = _parse_section(bundle, text2)
    tangent = tangent_map(bundle, v1, v2)
    curve = tangent.curve
    expected_curve = parse_hompoly(expected)
    return RunReport(
        inputs={"v1": text1, "v2": text2},
        verdicts={
            "determinant_matches": any(curve == expected_curve.scale(s) for s in signs),
            "smooth": smoothness_check(curve),
            "tangent_surjective": tangent.surjective,
        },
        data={
            "curve": str(curve),
            "hom_dim": tangent.hom_dim,
            "target_dim": tangent.target_dim,
            "augmented_rank": tangent.augmented_rank,
        },
    )


def cmd_tangent(args) -> RunReport:
    _check_n(args.n)
    bundle = BundleSpec(args.bundle, args.n)
    v1 = _parse_section(bundle, args.v1)
    v2 = _parse_section(bundle, args.v2)
    try:
        tangent = tangent_map(bundle, v1, v2)
    except GpliError as exc:
        verdicts: Dict[str, bool] = {"gpli": False}
        data: Dict[str, object] = {"reason": str(exc)}
    else:
        verdicts = {"gpli": True, "surjective": tangent.surjective}
        data = {
            "curve": str(tangent.curve),
            "curve_degree": tangent.curve.degree,
            "hom_dim": tangent.hom_dim,
            "target_dim": tangent.target_dim,
            "augmented_rank": tangent.augmented_rank,
        }
    return RunReport(
        inputs={"bundle": args.bundle, "n": args.n, "v1": args.v1, "v2": args.v2},
        verdicts=verdicts,
        data=data,
    )


def cmd_mult(args) -> RunReport:
    n = args.n
    _check_n(n)
    bundle = BundleSpec("T", n)
    seed = None
    if args.f is not None or args.g is not None:
        if args.f is None or args.g is None:
            raise ValueError("--f and --g must be given together")
        if args.seed is not None:
            raise ValueError("--seed draws a random pair and cannot be given with --f and --g")
        f = _parse_section(bundle, args.f).components
        g = _parse_section(bundle, args.g).components
        inputs = {"n": n, "f": args.f, "g": args.g}
    else:
        seed = resolve_seed(args.seed)
        rng = derive_rng(seed, "mult", n)
        s1, s2 = random_pair(rng, bundle)
        f, g = s1.components, s2.components
        inputs = {"n": n, "f": [str(p) for p in f], "g": [str(p) for p in g]}

    cross = diagram_crosscheck(f, g, n=n)
    data: Dict[str, object] = {
        "u_degree": n + 2,
        "product_degree": 2 * n + 3,
    }
    if cross.gpli:
        data["mult_rank"] = cross.mult_rank
        data["target_dim"] = h0_p2(2 * n + 3)
        if (2 * n + 3) % 3 == 0:
            k = (2 * n + 3) // 3
            # An onto map, a certified verdict, has every form in its image.
            matrix = None if cross.mult_surjective else mult_map_matrix(u_generators(f, g, n))
            for name, mono in (("balanced", (k, k, k)), ("shifted", (k + 1, k, k - 1))):
                probe = HomPoly.monomial(mono)
                member = matrix is None or in_column_space(matrix, probe.coeff_vector()).member
                data[f"probe_{name}"] = str(probe)
                data[f"probe_{name}_member"] = member
    verdicts = {
        "gpli": cross.gpli,
        "mult_surjective": cross.mult_surjective,
        "tangent_surjective": cross.tangent_surjective,
        "crosscheck_agree": cross.agree,
    }
    return RunReport(inputs=inputs, verdicts=verdicts, data=data, seed=seed)


def cmd_p1p1(args) -> RunReport:
    if args.a < 1 or args.b < 1 or args.m < 1:
        raise ValueError("a, b, m must all be at least 1")
    ma, mb = args.m * args.a, args.m * args.b
    if max(ma, mb) > MAX_P1P1_DEGREE:
        # Decimal prints an int of any length; m*a can pass the 4300-digit limit of str().
        raise ValueError(
            f"m*a and m*b must be at most {MAX_P1P1_DEGREE}, got {Decimal(ma)} and {Decimal(mb)}"
        )
    cover = monomial_cover_check(args.a, args.b, args.m)
    quad = witness_quad(args.a, args.b, args.m)
    rep = dpsi_report(quad)
    return RunReport(
        inputs={"a": args.a, "b": args.b, "m": args.m},
        verdicts={
            "monomial_cover": cover,
            "dpsi_surjective": rep.surjective,
            "agree": cover == rep.surjective,
        },
        data={
            "domain_dim": rep.domain_dim,
            "target_dim": rep.target_dim,
            "rank": rep.rank,
        },
    )


def _parse_params(text: Optional[str]) -> Dict[str, int]:
    params: Dict[str, int] = {}
    if not text:
        return params
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"malformed parameter {item!r}, expected key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        if key in params:
            raise ValueError(f"--params: {key} is given twice")
        params[key] = parse_integer(value, f"--params: {key} must be an integer, got ", value.strip())
        if abs(params[key]) > MAX_AUDIT_TWIST:
            raise ValueError(
                f"--params: {key} must be at most {MAX_AUDIT_TWIST} in absolute value, got {params[key]}"
            )
    return params


def _parse_range(text: str):
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"malformed range {text!r}, expected lo:hi")
    lo, hi = (parse_integer(end, "--m-range: expected integers lo:hi, got ", text) for end in (lo, hi))
    m_range = range(lo, hi + 1)
    if not m_range:
        raise ValueError(f"empty range {text!r}, expected lo <= hi")
    width = m_range.stop - m_range.start
    if width > MAX_AUDIT_TWISTS:
        raise ValueError(f"--m-range must span at most {MAX_AUDIT_TWISTS} twists, got {width}")
    for m in (m_range[0], m_range[-1]):
        if abs(m) > MAX_AUDIT_TWIST:
            raise ValueError(
                f"--m-range endpoints must be at most {MAX_AUDIT_TWIST} in absolute value, got {m}"
            )
    return m_range


def cmd_audit(args) -> RunReport:
    if args.select_degree is not None:
        table = [f"--{key.replace('_', '-')}" for key in ("family", "params", "m_range", "g")
                 if vars(args)[key] is not None]
        if table:
            raise ValueError(f"--select-degree echoes one bundle and cannot be given with {', '.join(table)}")
        spec = select_E_d(args.select_degree)
        return RunReport(
            inputs={"select_degree": args.select_degree},
            verdicts={"degree_matches": det_degree(spec) == args.select_degree},
            data={"bundle": spec.label(), "det_degree": det_degree(spec)},
        )
    if args.family is None:
        raise ValueError("--family (or --select-degree) is required")
    # The table's defaults live here, so that --select-degree can refuse a given value.
    m_text = "0:10" if args.m_range is None else args.m_range
    g = 8 if args.g is None else args.g
    params = _parse_params(args.params)
    m_range = _parse_range(m_text)
    n = params.pop("n", 0)
    param = params.pop(parameter_letter(args.family), None)  # None pops nothing
    if params:
        raise ValueError(f"unknown parameters {sorted(params)}")
    spec = BundleSpec(args.family, n, param)
    rows = inequality_audit(spec, m_range, g)
    gaps = [row.rhs - row.lhs for row in rows]
    onset = linearity_onset(gaps)
    return RunReport(
        inputs={"family": args.family, "bundle": spec.label(), "m_range": m_text, "g": g},
        verdicts={"all_hold": all(row.holds for row in rows)},
        data={
            "rows": [
                {"m": row.m, "lhs": row.lhs, "rhs": row.rhs, "holds": row.holds}
                for row in rows
            ],
            "gap_linear_from": m_range[onset] if onset is not None else None,
        },
    )


def cmd_containment(args) -> RunReport:
    try:
        with open(args.gens_file, "rb") as fh:
            raw = fh.read(MAX_GENS_FILE_BYTES + 1)
    except OSError as exc:
        raise ValueError(f"cannot read {args.gens_file}: {exc}") from exc
    if len(raw) > MAX_GENS_FILE_BYTES:
        raise ValueError(f"{args.gens_file} holds more than {MAX_GENS_FILE_BYTES} bytes")
    # utf-8-sig drops a leading byte-order mark; the lines split as in a text file.
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ValueError(f"{args.gens_file} is not UTF-8 text ({exc.reason} 0x{byte:02x})") from exc
    lines = [line.strip() for line in io.StringIO(text, newline=None)]
    texts = [line for line in lines if line and not line.startswith("#")]
    if not texts:
        raise ValueError("no generators in file")
    if len(texts) > MAX_CONTAINMENT_GENERATORS:
        raise ValueError(f"at most {MAX_CONTAINMENT_GENERATORS} generators are accepted, got {len(texts)}")
    gens = [parse_hompoly(text) for text in texts]
    top = max(gen.degree for gen in gens)
    if top > MAX_CONTAINMENT_DEGREE:
        raise ValueError(f"generator degrees must be at most {MAX_CONTAINMENT_DEGREE}, got {top}")
    result = containment_degree(gens)
    return RunReport(
        inputs={"gens": [str(g) for g in gens]},
        verdicts={"reached": result.reached is not None},
        data={
            "containment_degree": result.reached,
            "ladder": [
                {"k": row.k, "dim": row.dim, "full_dim": h0_p2(row.k), "full": row.full}
                for row in result.ladder
            ],
        },
    )


# ---------------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detrep",
        description="Exact checks for determinantal representations of plane curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-example1", help="cubic from two tangent-bundle sections")
    p.set_defaults(func=cmd_verify_example)

    p = sub.add_parser("verify-example2", help="smooth conic from the rank-two kernel bundle")
    p.set_defaults(func=cmd_verify_example)

    p = sub.add_parser("tangent", help="tangent-map surjectivity for an explicit pair")
    p.add_argument("--bundle", choices=TANGENT_FAMILIES, required=True)
    p.add_argument("--n", type=_int_option, required=True)
    p.add_argument("--v1", required=True, help="comma-separated components")
    p.add_argument("--v2", required=True, help="comma-separated components")
    p.set_defaults(func=cmd_tangent)

    p = sub.add_parser("mult", help="multiplication-map image audit with cross-check")
    p.add_argument("--n", type=_int_option, required=True)
    p.add_argument("--seed", type=_int_option, default=None)
    p.add_argument("--f", default=None, help="comma-separated triple of degree n+1 forms")
    p.add_argument("--g", default=None, help="comma-separated triple of degree n+1 forms")
    p.set_defaults(func=cmd_mult)

    p = sub.add_parser("p1p1", help="derivative-of-determinant audit on a product of lines")
    p.add_argument("--a", type=_int_option, required=True)
    p.add_argument("--b", type=_int_option, required=True)
    p.add_argument("--m", type=_int_option, required=True)
    p.set_defaults(func=cmd_p1p1)

    p = sub.add_parser("audit", help="section-count inequality table for a bundle family")
    p.add_argument("--family", choices=FAMILIES, default=None)
    p.add_argument("--params", default=None, help="e.g. n=2 or n=1,k=2")
    p.add_argument("--m-range", default=None,
                   help="inclusive lo:hi twist range, 0:10 by default; write a negative lo as --m-range=-3:0")
    p.add_argument("--g", type=_int_option, default=None, help="8 by default")
    p.add_argument("--select-degree", type=_int_option, default=None,
                   help="echo the rank-two bundle selected for a target degree")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("containment", help="power-of-variables containment ladder")
    p.add_argument("--gens-file", required=True, help="one polynomial per line")
    p.set_defaults(func=cmd_containment)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="emit a JSON report")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    t0 = time.perf_counter()
    try:
        report = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except CertificateError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    report.subcommand = args.command
    report.timing = time.perf_counter() - t0
    print(report.to_json() if args.json else report.to_text())
    return 0 if all(report.verdicts.values()) else VERDICT_ERROR


if __name__ == "__main__":
    sys.exit(main())
