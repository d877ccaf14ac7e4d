"""The benchmark's hooks into the package still resolve.

``bench/run.py`` traces the functions named in its ``TRACE_TARGETS``, calls
the package as ``lib.<name>`` and refuses to run unless
``linalg.USE_MODP_FAST_PATH`` is at its default.  A rename in ``src/detrep``
would break the tracer silently or the benchmark only when it runs, so this
imports the script (without writing bytecode next to it) and resolves every
hook the way its tracer does, and every ``lib.<name>`` it reads.  It also
checks that a form still offers what the benchmark reads off one.
"""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.fixture(scope="module")
def run():
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_trace_target_resolves(run):
    assert run.TRACE_TARGETS
    for module_name, path, _ in run.TRACE_TARGETS:
        module = importlib.import_module(f"detrep.{module_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(module, cls_name)), f"{module_name}.{path}"
        else:
            assert callable(getattr(module, path, None)), f"{module_name}.{path}"


def test_fast_path_switch_resolves():
    import detrep.linalg

    assert detrep.linalg.USE_MODP_FAST_PATH is True


def test_every_library_name_resolves():
    import detrep
    import detrep.cli  # noqa: F401  (the benchmark imports it too)

    names = set(re.findall(r"\blib\.(\w+)", RUN.read_text(encoding="utf-8")))
    assert names
    missing = sorted(name for name in names if not hasattr(detrep, name))
    assert not missing, missing
    assert callable(detrep.tangent.section_space.cache_clear)


def test_forms_offer_what_the_benchmark_reads():
    # The benchmark and its tests read a form's degree, is_zero, scale,
    # coeff_vector and monomial, and expand its terms as Fractions, so a
    # change of representation has to keep these.
    from collections.abc import Mapping
    from fractions import Fraction

    from detrep.polynomials import HomPoly, parse_bipoly, parse_hompoly

    forms = (parse_hompoly("x^2 - 1/3*y*z"), parse_bipoly("2*X0*Y1 + X1*Y0"), HomPoly.zero(2))
    for form, degree in zip(forms, (2, (1, 1), 2)):
        terms = form.terms
        assert isinstance(terms, Mapping)
        assert all(type(c) is Fraction and c for c in terms.values())
        assert form.degree == degree
        assert form.is_zero() == (not terms)
        half = Fraction(1, 2)
        assert form.scale(half).terms == {m: half * c for m, c in terms.items()}
        vector = form.coeff_vector()
        assert all(type(c) is Fraction for c in vector)
        assert sorted(c for c in vector if c) == sorted(terms.values())
    assert HomPoly.monomial((0, 2, 0)).coeff_vector() == (0, 0, 0, 1, 0, 0)
