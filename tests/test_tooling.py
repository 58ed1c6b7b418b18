"""Guards for code that names package members from outside the package.

The benchmark tracer (perfbench/tracer.py) wraps functions by module and
name, and the package exports __all__; deleting or renaming a member must
fail here, in the default suite, not only in the benchmark's own tests.
The config key table must stay in step with the config dataclasses: a
field with no key is a knob nobody can set, a key with no field an error
at load time, and the solver defaults RunConfig shares with SolverConfig
must agree.  Every exported function must have a caller inside the
package, or a reason on record why not: an export that only the tests
call is a duplicate of the code path the program really runs.  The
package runs on numpy and the standard library alone, as pyproject
declares; scipy and mpmath are the tests' oracles, never the code's.
Which grid a quadrature runs on is decided in one place, PolarGrid.rule_for:
a second caller of exact_subgrid or refined would be a second policy.
J_n has one evaluator, bessel_j_table: a second caller of its recurrences
would be a second one.  Reference counting alone frees tables and grids:
a collector call in the package would hide a reference cycle.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import sys
from collections import Counter
from pathlib import Path

import stokesbesov
from stokesbesov.harness import _CONFIG_KEYS, CHECKS, DRIFT_CHECKS, DataSpec, RunConfig

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PACKAGE = Path(stokesbesov.__file__).resolve().parent

# exported functions with no caller in the package, and why they stay
UNCALLED_EXPORTS = {
    "duhamel_apply": "the benchmark's contract: perfbench/tracer.py traces it and "
                     "perfbench/tests call it",
    "tail_smallness": "the paper's local-solvability smallness diagnostic",
    "zero_field": "a constructor",
}


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


def _fields(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_config_keys_name_real_fields():
    stray = [(section, key) for (section, key), (_, name) in _CONFIG_KEYS.items()
             if name not in _fields(DataSpec if section == "data" else RunConfig)]
    assert stray == []


def test_every_config_field_has_one_key():
    reached = Counter((section == "data", name)
                      for (section, _), (_, name) in _CONFIG_KEYS.items())
    want = ({(False, name) for name in _fields(RunConfig) - {"experiment", "data"}}
            | {(True, name) for name in _fields(DataSpec)})
    assert {k: n for k, n in reached.items() if n != 1} == {}
    assert set(reached) == want


def test_solver_defaults_agree_with_the_run_config():
    # two homes, both needed: the CLI fills SolverConfig from RunConfig, and
    # the benchmark's self-test builds a SolverConfig from its own defaults
    solver = {f.name: f.default for f in dataclasses.fields(stokesbesov.SolverConfig)}
    run = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    shared = ("gamma", "picard_tol", "max_picard")
    assert [solver[name] for name in shared] == [run[name] for name in shared]


def _called_names():
    """Names of everything called in the package source, as f(...) or x.f(...)."""
    called = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return called


def test_every_exported_function_has_a_caller_in_the_package():
    exported = {name for name in stokesbesov.__all__
                if inspect.isfunction(getattr(stokesbesov, name))}
    assert set(UNCALLED_EXPORTS) <= exported
    assert sorted(exported - _called_names() - set(UNCALLED_EXPORTS)) == []
    assert sorted(set(UNCALLED_EXPORTS) & _called_names()) == []


def test_package_imports_only_numpy_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"numpy", "stokesbesov"}
    foreign = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign |= {(path.name, name) for name in names
                        if name.split(".")[0] not in allowed}
    assert sorted(foreign) == []


def _call_sites(*names):
    """(module, innermost enclosing function, name) of every call, as f(...)
    or x.f(...), of one of the names in the package source."""
    found = set()

    def scan(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    found.add((module, where, name))
            scan(child, module, child.name if isinstance(child, ast.FunctionDef) else where)

    for path in PACKAGE.glob("*.py"):
        scan(ast.parse(path.read_text()), path.name, None)
    return found


def test_only_the_resolution_policy_picks_a_grid():
    assert _call_sites("exact_subgrid", "refined") == {("basis.py", "rule_for", "exact_subgrid"),
                                                      ("basis.py", "rule_for", "refined")}


def test_only_bessel_j_table_runs_the_recurrences():
    assert _call_sites("_miller_table", "_upward_table") == {
        ("specfun.py", "bessel_j_table", "_miller_table"),
        ("specfun.py", "bessel_j_table", "_upward_table")}


def test_no_collector_calls_in_the_package():
    """Tables and grids are freed by reference counting alone (basis module
    docstring): nothing in the package runs or tunes the cyclic collector."""
    named = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                named |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "gc":
                named.add(node.attr)
    assert not named & {"collect", "disable", "set_threshold"}
