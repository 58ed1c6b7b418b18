"""Artifacts across repeated CLI runs and BLAS thread counts.

Byte-identity of the artifacts holds per host and BLAS thread count (see
the README).  A small `solve` and a `verify` of six checks each run twice
at OPENBLAS_NUM_THREADS=1 and twice at 2, as fresh processes;
multiplier-uniformity brings in the p = inf norms, whose angular products
run on fixed blocks of refined circles.  The runs at one thread count must
agree byte for byte.  Across the two counts the largest relative
difference of any number is recorded (as the test property
max_rel_diff_1_vs_2_threads, and on stdout) but not asserted: another BLAS
blocking may round differently, and the program does nothing to hide that.
"""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_GRID = """
[basis]
n_max = 8
k_max = 8
[grid]
radial_order = 64
angular_count = 128
"""

_RUNS = {
    "solve": ("solve", _GRID + """
[solver]
t_final = 0.25
mesh_count = 8
[data]
kind = band_random
band = 2
amplitude = 0.5
seed = 3
"""),
    "verify": ("verify all", _GRID + """
[verify]
checks = reconstruction, gram-orthonormality, nonlinear-energy, helmholtz, picard-small,
    multiplier-uniformity
"""),
}

_NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)")


def _run(command, ini, out, threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads))
    run = subprocess.run([sys.executable, "-m", "stokesbesov.cli", *command.split(),
                          "--config", str(ini), "--out", str(out)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.is_file() and p.name != "manifest.json"}


def _rel_diff(a: bytes, b: bytes) -> float:
    if a == b:
        return 0.0
    xs = [float(t) for t in _NUMBER.findall(a.decode())]
    ys = [float(t) for t in _NUMBER.findall(b.decode())]
    if len(xs) != len(ys):
        return math.inf
    return max((abs(x - y) / max(abs(x), abs(y)) for x, y in zip(xs, ys)
                if x != y), default=0.0)


def test_artifacts_per_blas_thread_count(tmp_path, record_property):
    worst = 0.0
    for name, (command, text) in _RUNS.items():
        ini = tmp_path / f"{name}.ini"
        ini.write_text(text)
        per_threads = {}
        for threads in (1, 2):
            first, second = (_run(command, ini, tmp_path / f"{name}-{threads}-{i}", threads)
                             for i in (0, 1))
            assert first and first == second, (name, threads)
            per_threads[threads] = first
        for artifact, data in per_threads[1].items():
            worst = max(worst, _rel_diff(data, per_threads[2][artifact]))
    record_property("max_rel_diff_1_vs_2_threads", worst)
    print(f"largest relative difference, 1 vs 2 BLAS threads: {worst:.3e}")
