"""stokes-besov benchmark: CLI workloads timed cold, and a per-layer
traced run.

One workload, as the benchmark contract runs it (from the repository root):

    python3 perfbench/run.py --workload solve-band --seed 7 --seconds 50 --trace 0

Every workload, with a readable table (and error_rate) per workload:

    python3 perfbench/run.py --all --seed 7 --seconds 50

With --trace 0 each measured run is a fresh `python -m stokesbesov.cli`
process with BLAS pinned to one thread, timed from outside; runs repeat in a
closed loop (one client, the next run starts when the previous one exits)
for about --seconds, and the medians are reported.  With --trace 1
traced and untraced runs alternate and the per-layer counters of the traced
runs are reported (see tracer.py).  Every run passes the workload's
correctness gate and the determinism gate (byte-identical artifacts for one
workload and seed, manifest.json excepted) or counts as failed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Raw runs and the environment record go to
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import (CHECK_IDS, WITH_TOTAL,  # noqa: E402
                    per_layer_metrics, traced_names)
from workloads import WORKLOADS, artifact_digests  # noqa: E402

# Set-up probes are short (0.3-0.8 s) and the machine's speed drifts, so
# they are spread over the run: SETUP_FIRST at the start, then one after
# each CLI run.
SETUP_FIRST = 2
MIN_TRACED_RUNS = 2         # so that call counts are compared in every traced run
# A run starts only while at least half of it is expected to fall inside the
# measuring window, so an invocation lasts about --seconds on a fast or a slow
# machine.  A child still running at DEADLINE_S is killed and counted as
# failed, so that an invocation ends within 180 s.
DEADLINE_S = 170.0
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_THREAD_LIMIT")
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

_ENV_PROBE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"numpy": numpy.__version__, "blas_name": blas.get("name"),
                  "blas_version": blas.get("version"),
                  "blas_config": blas.get("openblas configuration")}))
"""


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, broken environment)."""


@dataclass
class Run:
    traced: bool
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: list = field(default_factory=list)
    trace: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def _median(values):
    return statistics.median(values) if values else 0.0


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_revision() -> str:
    # the ceiling keeps git from reading a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def run_child(argv, env, log_path: Path, timeout: float):
    """Run one child process to completion; returns (exit code, wall seconds,
    rusage).  The child is reaped with os.wait4 so that its rusage is its own
    (RUSAGE_CHILDREN would be a running maximum over every child)."""
    lock = threading.Lock()
    exited = False
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)

        def expire():
            with lock:
                if not exited:
                    proc.kill()

        timer = threading.Timer(max(timeout, 1.0), expire)
        timer.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            raise
        finally:
            with lock:
                exited = True
            timer.cancel()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


class Bench:
    """Runs of one workload and seed inside the checkout."""

    def __init__(self, workload: str, seed: int, tiny: bool = False):
        self.src = ROOT / "src"
        if not (self.src / "stokesbesov" / "cli.py").is_file():
            raise BenchError(f"no stokesbesov source tree under {self.src}")
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.tiny = tiny
        self.state = ROOT / ".perfbench"
        self.work = self.state / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.ini = self.work / "run.ini"
        self.ini.write_text(self.workload.ini(seed, tiny))
        self.tmp = self.work / "tmp"
        self.tmp.mkdir(exist_ok=True)
        env = dict(os.environ)
        env.update(PINNED_THREADS)
        env["PYTHONPATH"] = str(self.src)
        env["TMPDIR"] = str(self.tmp)       # the cache-roundtrip check writes a temp file
        self.env = env
        self.source_digest = _source_digest(self.src)
        variant = "tiny-" if tiny else ""
        self.digest_file = (self.state / "digests"
                            / f"{self.source_digest[:16]}-{variant}{workload}-seed{seed}.json")
        self.count = 0
        self.deadline = time.perf_counter() + DEADLINE_S
        # byte-compile once, so that no set-up probe pays for it
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(self.src)],
                       env=self.env, cwd=ROOT, check=True, capture_output=True,
                       timeout=120)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def environment(self) -> dict:
        out = subprocess.run([sys.executable, "-c", _ENV_PROBE, str(self.src)],
                             env=self.env, cwd=ROOT, capture_output=True,
                             text=True, timeout=60)
        if out.returncode != 0:
            raise BenchError(f"environment probe failed: {out.stderr.strip()}")
        doc = json.loads(out.stdout.strip().splitlines()[-1])
        affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
        doc.update({
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": affinity,
            "cpu_count": os.cpu_count(),
            "thread_vars": {k: self.env[k] for k in THREAD_VARS if k in self.env},
            "git_revision": _git_revision(),
            "source_digest": self.source_digest,
        })
        return doc

    def setup_probe(self) -> float:
        n, k, radial, angular = self.workload.setup
        if self.tiny:
            n, k, radial, angular = 4, 4, 32, 64
        log = self.work / "setup.log"
        code, _, _ = run_child([sys.executable, str(HERE / "setup_probe.py"), str(self.src),
                                str(n), str(k), str(radial), str(angular)],
                               self.env, log, self.remaining())
        text = log.read_text()
        if code != 0:
            raise BenchError(f"set-up probe exited with {code}: {text.strip()[-400:]}")
        doc = json.loads(text.strip().splitlines()[-1])
        if not Path(doc["module"]).resolve().is_relative_to(self.src.resolve()):
            raise BenchError(f"imported stokesbesov from {doc['module']}, not {self.src}")
        return doc["setup_s"]

    def cli_run(self, traced: bool) -> Run:
        self.count += 1
        out = self.work / f"run-{self.count}"
        trace_path = self.work / f"trace-{self.count}.json"
        args = [*self.workload.cli, "--config", str(self.ini), "--out", str(out)]
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(self.src),
                    str(trace_path), *args]
        else:
            argv = [sys.executable, "-m", "stokesbesov.cli", *args]
        log = self.work / f"run-{self.count}.log"
        code, wall, usage = run_child(argv, self.env, log, self.remaining())
        run = Run(traced=traced, code=code, wall_s=wall,
                  cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0)
        if code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            run.problems.append(f"exit code {code}: {' | '.join(tail)}")
        if out.is_dir():
            run.problems.extend(self.workload.problems(out, self.tiny))
            if code == 0:
                run.problems.extend(self._determinism(artifact_digests(out)))
        else:
            run.problems.append("no artifact directory")
        if traced:
            if trace_path.is_file():
                run.trace = json.loads(trace_path.read_text())
            else:
                run.problems.append("traced run wrote no trace")
        shutil.rmtree(out, ignore_errors=True)
        return run

    def _determinism(self, digests: dict) -> list:
        """Compare with the first run of this workload, seed and source tree
        in this checkout; the first run records the reference."""
        if self.digest_file.is_file():
            reference = json.loads(self.digest_file.read_text())
        else:
            self.digest_file.parent.mkdir(parents=True, exist_ok=True)
            self.digest_file.write_text(json.dumps(digests, indent=1, sort_keys=True))
            return []
        if digests == reference:
            return []
        changed = sorted(k for k in set(digests) | set(reference)
                         if digests.get(k) != reference.get(k))
        return [f"artifacts differ from an earlier run of the same seed: {', '.join(changed)}"]


# ---------------------------------------------------------------------------
# metrics

def end_to_end_metrics(runs, setups) -> dict:
    return {
        "wall_s": _median([r.wall_s for r in runs]),
        "cpu_s": _median([r.cpu_s for r in runs]),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([r.peak_rss_mb for r in runs]),
    }


def _count_signature(trace: dict):
    return (trace["calls"], trace["picard_iterations"], trace["picard_useful"],
            trace["synth_flops"])


def layer_values(trace: dict) -> dict:
    """Per-layer metric values of one traced run (trace.overhead excluded)."""
    calls, self_s, total_s = trace["calls"], trace["self_s"], trace["total_s"]
    values = {}
    for name in traced_names():
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
        if name in WITH_TOTAL:
            values[f"{name}.total_s"] = total_s.get(name, 0.0)
    synth_s = self_s.get("basis.synthesize", 0.0)
    values["basis.synthesize.gflops_computed"] = (
        trace["synth_flops"] / synth_s / 1e9 if synth_s > 0 else 0.0)
    convections = calls.get("nonlinear.nonlinear_coeffs", 0)
    values["nonlinear.useful_ratio"] = (
        trace["picard_useful"] / convections if convections else 0.0)
    iterations = trace["picard_iterations"]
    values["solver.picard.iterations"] = iterations
    values["solver.picard.s_per_iteration"] = (
        total_s.get("solver.picard_solve", 0.0) / iterations if iterations else 0.0)
    for cid in CHECK_IDS:
        values[f"harness.check.{cid}.total_s"] = total_s.get(f"harness.check.{cid}", 0.0)
    return values


def trace_problems(workload, traces) -> list:
    """Zero calls where the workload must call, and call counts that differ
    between traced runs of one seed."""
    problems = []
    first = traces[0]
    silent = sorted(n for n in workload.expected if first["calls"].get(n, 0) == 0)
    if silent:
        problems.append(f"traced functions with zero calls: {', '.join(silent)}")
    reference = _count_signature(first)
    for i, trace in enumerate(traces[1:], start=2):
        if _count_signature(trace) != reference:
            diff = sorted(n for n in set(trace["calls"]) | set(first["calls"])
                          if trace["calls"].get(n) != first["calls"].get(n))
            problems.append(f"traced run {i} call counts differ from run 1: "
                            f"{', '.join(diff) or 'derived counters'}")
    return problems


def per_layer_report(runs) -> dict:
    traced = [r for r in runs if r.traced and r.trace is not None]
    untraced = [r for r in runs if not r.traced]
    per_run = [layer_values(r.trace) for r in traced]
    values = {}
    for name, unit, _ in per_layer_metrics():
        if name == "trace.overhead":
            base = _median([r.wall_s for r in untraced])
            values[name] = _median([r.wall_s for r in traced]) / base if base else 0.0
        elif not per_run:
            values[name] = 0
        elif unit == "count":       # equal across traced runs, or the runs failed
            values[name] = per_run[0][name]
        else:
            values[name] = _median([v[name] for v in per_run])
    return values


# ROADMAP baseline: warm medians of repeated calls, (16,16) or (32,32), one thread
BASELINE = (
    ("basis.synthesize", "(16,16)/128x256", 0.66e-3, "self"),
    ("basis.analyze", "(16,16)/128x256", 0.65e-3, "self"),
    ("nonlinear.nonlinear_coeffs", "(16,16)/128x256", 1.9e-3, "total"),
    ("norms.besov_norm", "(16,16)/128x256", 7.6e-3, "total"),
    ("norms.besov_norm", "(32,32)/128x256", 9.6e-3, "total"),
    ("norms.besov_norm", "(32,32)/256x512", 28e-3, "total"),
)


def baseline_table(trace: dict, overhead: float) -> list:
    """Lines comparing the traced per-call times with the ROADMAP baseline."""
    lines = ["per call, this traced run vs ROADMAP baseline:",
             f"  {'function':28} {'shape':18} {'calls':>7} {'traced':>10} "
             f"{'baseline':>10} {'ratio':>6}"]
    for name, shape, base, kind in BASELINE:
        calls, seconds = trace["by_shape"].get(f"{name}@{shape}", (0, 0.0))
        if not calls:
            lines.append(f"  {name:28} {shape:18} {0:>7} {'-':>10} "
                         f"{base * 1e3:>8.2f}ms {'-':>6}  (not called on this workload)")
            continue
        per = seconds / calls
        ratio = per / base
        lines.append(f"  {name:28} {shape:18} {calls:>7} {per * 1e3:>8.3f}ms "
                     f"{base * 1e3:>8.2f}ms {ratio:>6.2f}  ({kind} time)")
    lines += [
        "  why the columns can differ:",
        "  - baseline: median of 20-50 warm repeats on one full-spectrum field;",
        "    traced: mean over every call of a cold run, on the workload's own fields",
        "  - synthesize and curl_values skip (n, parity) groups whose coefficients",
        "    are all zero, so band-projected inputs (besov_norm bands) cost less per call",
        "  - the first call on a new (basis, grid) builds ModeTables; that time is",
        "    under basis.ModeTables, not in self time, but warms caches for the caller",
        f"  - each traced call pays a few microseconds of wrapper cost; whole-run "
        f"tracing overhead here {overhead:.3f}x",
        "  - the sandbox is shared: co-tenant load inflates both columns unevenly",
    ]
    return lines


# ---------------------------------------------------------------------------
# driver

def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, log=sys.stderr) -> dict:
    """Run one workload for `seconds`; returns the result document."""
    bench = Bench(workload, seed, tiny)
    try:
        env = bench.environment()
        setups, runs = [], []
        start = time.perf_counter()
        for _ in range(0 if trace else SETUP_FIRST):
            setups.append(bench.setup_probe())
        while True:
            n_traced = sum(r.traced for r in runs)
            n_plain = len(runs) - n_traced
            if trace:
                needed = n_traced < MIN_TRACED_RUNS or n_plain < 1
            else:
                needed = not runs
            cycle = (time.perf_counter() - start) / max(len(runs), 1)
            fits = time.perf_counter() - start + cycle / 2 <= seconds
            if not (needed or fits):
                break
            if runs and bench.remaining() < 0.5 * DEADLINE_S:
                if needed:
                    runs[-1].problems.append("too few runs before the deadline")
                break
            # traced and untraced runs alternate, starting traced
            runs.append(bench.cli_run(traced=trace and n_traced <= n_plain))
            if not trace:
                setups.append(bench.setup_probe())
            r = runs[-1]
            print(f"[{workload} seed {seed}] run {len(runs)}{' traced' if r.traced else ''}: "
                  f"wall {r.wall_s:.3f} s, cpu {r.cpu_s:.3f} s, rss {r.peak_rss_mb:.1f} MB"
                  + ("" if r.ok else f"  FAILED: {'; '.join(r.problems)}"), file=log)
        if trace:
            traced = [r for r in runs if r.traced and r.trace is not None]
            problems = (trace_problems(bench.workload, [r.trace for r in traced])
                        if traced else [])
            if problems:
                for r in runs:
                    if r.traced:
                        r.problems.extend(problems)
            values = per_layer_report(runs)
            units = {name: unit for name, unit, _ in per_layer_metrics()}
        else:
            values = end_to_end_metrics(runs, setups)
            units = dict(END_TO_END)
        failed = sum(not r.ok for r in runs)
        doc = {
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "tiny": tiny, "environment": env,
            "setup_s_samples": setups,
            "runs": [{"traced": r.traced, "code": r.code, "wall_s": r.wall_s,
                      "cpu_s": r.cpu_s, "peak_rss_mb": r.peak_rss_mb,
                      "problems": r.problems} for r in runs],
            "error_rate": failed / len(runs),
            "result": {
                "correct": failed == 0,
                "attempted": len(runs),
                "failed": failed,
                "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            },
        }
        if trace:
            first = next((r.trace for r in runs if r.trace is not None), None)
            if first is not None:
                doc["trace_sample"] = first
                doc["baseline_table"] = baseline_table(first, values["trace.overhead"])
        results = bench.state / "results"
        results.mkdir(parents=True, exist_ok=True)
        tag = f"{'tiny-' if tiny else ''}{workload}-seed{seed}-trace{int(trace)}"
        (results / f"{tag}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return doc
    finally:
        bench.close()


def _print_environment(env: dict, log) -> None:
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()), file=log)


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced, with a readable table; exit 1 on any error."""
    rows = []
    for name in WORKLOADS:
        doc = measure(name, seed, seconds, trace=False)
        rows.append((name, doc))
    _print_environment(rows[0][1]["environment"], sys.stdout)
    print(f"\n{'workload':16} {'metric':12} {'value':>12} unit")
    worst = 0.0
    for name, doc in rows:
        metrics = doc["result"]["metrics"]
        for metric, _ in END_TO_END:
            m = metrics[metric]
            print(f"{name:16} {metric:12} {m['value']:>12.4f} {m['unit']}")
        print(f"{name:16} {'error_rate':12} {doc['error_rate']:>12.4f} ratio "
              f"({doc['result']['failed']}/{doc['result']['attempted']} runs failed)")
        worst = max(worst, doc["error_rate"])
    return 0 if worst == 0.0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, untraced")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        doc = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    _print_environment(doc["environment"], sys.stderr)
    print(f"error_rate {doc['error_rate']:.4f} "
          f"({doc['result']['failed']}/{doc['result']['attempted']} runs failed)",
          file=sys.stderr)
    for line in doc.get("baseline_table", ()):
        print(line, file=sys.stderr)
    for name, m in doc["result"]["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}", file=sys.stderr)
    print(json.dumps(doc["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
