"""Guards for code that names package members from outside the package.

The benchmark tracer (perfbench/tracer.py) wraps functions by module and
name, and the package exports __all__; deleting or renaming a member must
fail here, in the default suite, not only in the benchmark's own tests.
"""

import importlib
import importlib.util
from pathlib import Path

import stokesbesov
from stokesbesov.harness import CHECKS, DRIFT_CHECKS

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _tracer()
    missing = [f"{module}.{name}"
               for module, names in tracer.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"stokesbesov.{module}"),
                                       name, None))]
    assert missing == []


def test_traced_check_ids_match_registry():
    assert list(_tracer().CHECK_IDS) == list(CHECKS) + list(DRIFT_CHECKS)


def test_exported_names_import():
    for module in (stokesbesov, stokesbesov.harness):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
