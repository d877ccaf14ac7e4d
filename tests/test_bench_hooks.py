"""The benchmark's hooks into the package still resolve.

``bench/run.py`` traces the functions named in its ``TRACE_TARGETS``, calls
the package as ``lib.<name>`` and refuses to run unless
``linalg.USE_MODP_FAST_PATH`` is at its default.  A rename in ``src/detrep``
would break the tracer silently or the benchmark only when it runs, so this
imports the script (without writing bytecode next to it) and resolves every
hook the way its tracer does, and every ``lib.<name>`` it reads.
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
