"""Self-tests of the benchmark: metric names, the traced counters, the
correctness and determinism gates, and the run contract.

    python3 -m pytest perfbench/tests -q

The traced tests run real (tiny where possible) CLI children; the whole file
takes about 35 s.
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from run import Bench, baseline_table, measure, run_child
from tracer import CHECK_IDS, per_layer_metrics, traced_names
from workloads import CLI_UNREACHABLE, TINY_SOLVE_MESH, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SEED = 7


def _rewrite(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_benchmark_json_matches_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == per_layer_metrics()
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])


@pytest.fixture(scope="module")
def traced_docs():
    """Each workload traced: two traced runs and one untraced run.  The
    solve is tiny; verify runs at its real size (its drift checks fix the
    truncations)."""
    return {name: measure(name, SEED, 0.0, trace=True, tiny=True, log=sys.stderr)
            for name in WORKLOADS}


def test_traced_runs_pass_and_repeat_counts(traced_docs):
    for name, doc in traced_docs.items():
        result = doc["result"]
        assert result["correct"], (name, doc["runs"])
        assert result["attempted"] == 3 and sum(r["traced"] for r in doc["runs"]) == 2
        assert set(result["metrics"]) == {m for m, _, _ in per_layer_metrics()}


def test_every_wrapped_name_is_called(traced_docs):
    called = set()
    for doc in traced_docs.values():
        called |= {n for n, k in doc["trace_sample"]["calls"].items() if k > 0}
    assert set(traced_names()) - CLI_UNREACHABLE <= called
    assert {f"harness.check.{c}" for c in CHECK_IDS} <= called


def test_convection_count_matches_picard_and_diagnostics(traced_docs):
    # Picard: (M+1) per iteration; trajectory_rows: (M+1) evaluate_at calls of
    # (M+1) each; residual: (M+1) once
    metrics = traced_docs["solve-band"]["result"]["metrics"]
    iterations = metrics["solver.picard.iterations"]["value"]
    points = TINY_SOLVE_MESH + 1
    expected = iterations * points + points * points + points
    assert iterations >= 1
    assert metrics["nonlinear.nonlinear_coeffs.calls"]["value"] == expected
    assert metrics["nonlinear.useful_ratio"]["value"] == pytest.approx(
        iterations * points / expected)


def test_unreachable_functions_are_traced_when_called():
    code = f"""
import json, sys
sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(SRC)!r}]
import numpy as np
from tracer import Recorder, install
rec = Recorder()
install(rec)
import stokesbesov as sb
basis = sb.build_basis(2, 2)
grid = sb.build_grid(16, 32)
sb.kernel_matrix(np.array([[0.1, 0.2]]), np.array([[0.3, -0.1]]), 1.0, basis)
cfg = sb.SolverConfig(basis=basis, grid=grid, p=4.0, T=0.5, mesh_count=2)
sb.duhamel_apply(sb.linear_trajectory(sb.zero_field(basis), cfg), 1, cfg)
print(json.dumps(rec.calls))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, check=True)
    calls = json.loads(out.stdout.strip().splitlines()[-1])
    for name in CLI_UNREACHABLE:
        assert calls.get(name, 0) >= 1, name


@pytest.fixture
def solve_artifacts(tmp_path):
    """Artifacts of one tiny solve run, made by the CLI."""
    ini = tmp_path / "run.ini"
    ini.write_text(WORKLOADS["solve-band"].ini(SEED, tiny=True))
    out = tmp_path / "out"
    env = {**run.os.environ, **run.PINNED_THREADS, "PYTHONPATH": str(SRC)}
    code, _, _ = run_child([sys.executable, "-m", "stokesbesov.cli", "solve",
                            "--config", str(ini), "--out", str(out)],
                           env, tmp_path / "log", timeout=120)
    assert code == 0
    return out


def test_tampered_solve_artifacts_fail(solve_artifacts, tmp_path):
    w = WORKLOADS["solve-band"]
    assert w.problems(solve_artifacts, tiny=True) == []

    def tampered(edit):
        copy = tmp_path / f"copy-{edit.__name__}"
        shutil.copytree(solve_artifacts, copy)
        edit(copy)
        return w.problems(copy, tiny=True)

    def flag(d):
        path = d / "trajectory.csv"
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:-1] + "0"
        path.write_text("\n".join(lines) + "\n")

    def l2(d):
        path = d / "trajectory.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[1][1] = repr(float(rows[1][1]) * (1 + 1e-9))
        path.write_text("\n".join(",".join(r) for r in rows) + "\n")

    def diverged(d):
        _rewrite(d / "summary.json", '"diverged": false', '"diverged": true')

    def residual(d):
        doc = json.loads((d / "summary.json").read_text())
        doc["residual"] = 1e-7
        (d / "summary.json").write_text(json.dumps(doc))

    def missing(d):
        (d / "trajectory.csv").unlink()

    for edit in (flag, l2, diverged, residual, missing):
        assert tampered(edit), edit.__name__


def test_tampered_verify_artifacts_fail(tmp_path):
    verify = WORKLOADS["verify-doubled"]
    rows = ["check_id,value,threshold,passed"] + [f"{c},0.0,1.0,pass" for c in CHECK_IDS]
    for name in ("summary.json", "manifest.json"):
        (tmp_path / name).write_text("{}")
    (tmp_path / "checks.csv").write_text("\n".join(rows) + "\n")
    assert verify.problems(tmp_path) == []
    _rewrite(tmp_path / "checks.csv", "helmholtz,0.0,1.0,pass", "helmholtz,2.0,1.0,FAIL")
    assert verify.problems(tmp_path) == ["check helmholtz is FAIL"]
    (tmp_path / "checks.csv").write_text("\n".join(rows[:-1]) + "\n")
    assert verify.problems(tmp_path) == [f"checks missing from checks.csv: {CHECK_IDS[-1]}"]


def test_changed_artifacts_fail_determinism_gate():
    bench = Bench("solve-band", 990001, tiny=True)
    try:
        bench.digest_file.unlink(missing_ok=True)
        first = bench.cli_run(traced=False)
        second = bench.cli_run(traced=False)
        assert first.ok and second.ok, (first.problems, second.problems)
        reference = json.loads(bench.digest_file.read_text())
        reference["trajectory.csv"] = "0" * 64
        bench.digest_file.write_text(json.dumps(reference))
        third = bench.cli_run(traced=False)
        assert not third.ok
        assert any("artifacts differ" in p for p in third.problems)
    finally:
        bench.digest_file.unlink(missing_ok=True)
        bench.close()


def test_untraced_result_line():
    doc = measure("solve-band", SEED, 0.0, trace=False, tiny=True, log=sys.stderr)
    result = doc["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = doc["environment"]
    for key in ("numpy", "blas_name", "blas_version", "python", "nproc",
                "git_revision", "thread_vars"):
        assert key in env
    assert env["thread_vars"]["OPENBLAS_NUM_THREADS"] == "1"


def test_baseline_table_shows_traced_next_to_baseline():
    trace = {"by_shape": {"basis.synthesize@(16,16)/128x256": [10, 0.0132],
                          "norms.besov_norm@(16,16)/128x256": [4, 0.0304]}}
    text = "\n".join(baseline_table(trace, 1.02))
    assert "1.320ms" in text and "0.66ms" in text and "2.00" in text
    assert "7.600ms" in text and "7.60ms" in text
    assert "not called on this workload" in text
    assert "why the columns can differ" in text and "1.020x" in text


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve-band",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
