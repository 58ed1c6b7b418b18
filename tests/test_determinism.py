"""Artifacts across repeated CLI runs and BLAS thread counts.

A small `solve`, a `solve` at the default truncation (32, 32) on 128 x 256
and a `verify` of six checks each run twice at OPENBLAS_NUM_THREADS=1 and
twice at 2, as fresh processes; multiplier-uniformity brings in the p = inf
norms, whose angular products run on fixed blocks of refined circles.  The
default-truncation solve integrates |u|^4 on 128 x 133 nodes, a sum long
enough that a BLAS dot would split it across threads.  All four runs of
each must agree byte for byte (see the README); on a mismatch across the
counts the largest relative difference of any number is reported.  A
(128, 128) coefficient norm and spectral_slope data on the (128, 128)
basis, long enough for a BLAS dot to split, are compared the same way.
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
    "solve-default": ("solve", """
[basis]
n_max = 32
k_max = 32
[grid]
radial_order = 128
angular_count = 256
[solver]
p = 4
t_final = 0.5
mesh_count = 16
[data]
kind = band_random
band = 3
amplitude = 1.0
seed = 7
"""),
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


def test_artifacts_per_blas_thread_count(tmp_path):
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
            assert data == per_threads[2][artifact], (
                name, artifact, _rel_diff(data, per_threads[2][artifact]))


def _printed_per_blas_thread_count(code):
    """What a fresh interpreter running code prints at 1 and at 2 BLAS
    threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    printed = []
    for threads in (1, 2):
        env.update(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
                   MKL_NUM_THREADS=str(threads))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        printed.append(run.stdout)
    return printed


_COEFF_L2 = """
import numpy as np
from stokesbesov.basis import coeff_l2
print(repr(coeff_l2(np.random.default_rng(5).standard_normal(128 * 257))))
"""


def test_coeff_l2_per_blas_thread_count():
    """The L^2 norm of a coefficient vector at (128, 128), 32,896 entries,
    has the same bits at 1 and 2 BLAS threads: a dot that long can be split
    across threads (OpenBLAS's np.linalg.norm of this vector moves in its
    last bit), a one-thread sum cannot."""
    values = _printed_per_blas_thread_count(_COEFF_L2)
    assert values[0] == values[1]


_SLOPE_DATA = """
from stokesbesov import build_basis
from stokesbesov.harness import DataSpec, generate_data
f = generate_data(DataSpec(kind="spectral_slope", slope=1.0, seed=7), build_basis(128, 128), None)
print(f.coeffs.tobytes().hex())
"""


def test_spectral_slope_data_per_blas_thread_count():
    """spectral_slope data on the (128, 128) basis, 32,896 coefficients,
    has the same bytes at 1 and 2 BLAS threads: generate_data scales the
    seeded draw by a one-thread sum of squares, where np.linalg.norm's dot
    moved its last bits with the thread count."""
    data = _printed_per_blas_thread_count(_SLOPE_DATA)
    assert data[0] == data[1]
