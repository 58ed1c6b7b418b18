"""The benchmark's workloads: the INI each one runs, the truncation its
set-up probe builds, the correctness gate on its artifacts and the traced
functions it must call.

Every workload is one `stokesbesov` CLI run.  The program sees only the
generated INI; the benchmark seed reaches it through that file.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracer import CHECK_IDS, traced_names

SOLVE_AMPLITUDE = 1.0
SOLVE_TOL = 1e-9
SOLVE_MESH = 64
TINY_SOLVE_MESH = 4

_SOLVE_INI = """\
[basis]
n_max = {n}
k_max = {n}

[grid]
radial_order = {radial}
angular_count = {angular}

[solver]
p = 4
t_final = 0.5
mesh_count = {mesh}
picard_tol = {tol!r}

[data]
kind = band_random
band = 3
amplitude = {amplitude!r}
seed = {seed}
"""


def _solve_ini(seed: int, tiny: bool) -> str:
    # the tiny variant keeps every code path at a fraction of the cost; it
    # is for the benchmark's self-tests only
    n, radial, angular, mesh = ((6, 32, 64, TINY_SOLVE_MESH) if tiny
                                else (16, 128, 256, SOLVE_MESH))
    return _SOLVE_INI.format(n=n, radial=radial, angular=angular, mesh=mesh,
                             tol=SOLVE_TOL, amplitude=SOLVE_AMPLITUDE, seed=seed)


def _verify_ini(seed: int, tiny: bool) -> str:
    return f"[run]\nseed = {seed}\n"


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _gate_solve(out_dir: Path, tiny: bool) -> list:
    bad = []
    summary = json.loads((out_dir / "summary.json").read_text())
    picard = summary["picard"]
    if picard["converged"] is not True or picard["diverged"] is not False:
        bad.append(f"picard converged={picard['converged']} diverged={picard['diverged']}")
    if not summary["residual"] <= 10.0 * SOLVE_TOL:
        bad.append(f"residual {summary['residual']!r} > 10 x picard_tol")
    with open(out_dir / "trajectory.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    points = (TINY_SOLVE_MESH if tiny else SOLVE_MESH) + 1
    if len(rows) != points:
        bad.append(f"trajectory.csv has {len(rows)} rows, expected {points}")
    flags = [r["residual_flag"] for r in rows]
    if any(f != "1" for f in flags):
        bad.append(f"{sum(f != '1' for f in flags)} residual_flag(s) not 1")
    # band_random normalizes the datum to the amplitude in l2
    l2_0 = float(rows[0]["l2_norm"])
    if not _rel(l2_0, SOLVE_AMPLITUDE) <= 1e-12:
        bad.append(f"row-0 l2_norm {l2_0!r} differs from amplitude {SOLVE_AMPLITUDE!r}")
    return bad


def _gate_verify(out_dir: Path, tiny: bool) -> list:
    with open(out_dir / "checks.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    seen = {r["check_id"] for r in rows}
    bad = [f"check {r['check_id']} is {r['passed']}" for r in rows if r["passed"] != "pass"]
    absent = [c for c in CHECK_IDS if c not in seen]
    if absent:
        bad.append(f"checks missing from checks.csv: {', '.join(absent)}")
    return bad


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cli: tuple            # stokesbesov subcommand and its arguments
    make_ini: Callable    # (seed, tiny) -> INI text
    setup: tuple          # (n_max, k_max, radial_order, angular_count)
    artifacts: tuple      # files every successful run writes
    gate: Callable        # (out_dir, tiny) -> list of problems
    expected: frozenset   # traced names that must record at least one call

    def ini(self, seed: int, tiny: bool = False) -> str:
        return self.make_ini(seed, tiny)

    def problems(self, out_dir: Path, tiny: bool = False) -> list:
        """Reasons the artifacts in out_dir are wrong; empty when correct."""
        missing = [a for a in self.artifacts if not (out_dir / a).is_file()]
        if missing:
            return [f"missing artifact(s): {', '.join(missing)}"]
        try:
            return self.gate(out_dir, tiny)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable artifact: {exc!r}"]


def artifact_digests(out_dir: Path) -> dict:
    """sha256 of every artifact except manifest.json (which records wall
    time and so is allowed to differ between runs)."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())
            if p.is_file() and p.name != "manifest.json"}


# Public functions that no CLI command calls at this revision: kernel_matrix is
# imported by harness but unused, duhamel_apply is API-only.  They stay
# wrapped (a later change may route the CLI through them) and the self-tests
# call them directly.
CLI_UNREACHABLE = frozenset({"semigroup.kernel_matrix", "solver.duhamel_apply"})

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="solve-band",
            why="Picard solve of random band-3 data; the only workload where "
                "solver, nonlinear and norms do most of the work",
            cli=("solve",),
            make_ini=_solve_ini,
            setup=(16, 16, 128, 256),
            artifacts=("trajectory.csv", "summary.json", "manifest.json"),
            gate=_gate_solve,
            expected=frozenset({
                "specfun.bessel_j_table", "specfun.bessel_zeros_row",
                "specfun.gauss_legendre", "basis.build_basis", "basis.ModeTables",
                "basis.synthesize", "basis.curl_values", "dyadic.apply_band",
                "norms.lp_norm", "norms.besov_norm", "norms.trajectory_norm",
                "semigroup.heat_apply", "nonlinear.nonlinear_coeffs",
                "solver.picard_solve", "solver.evaluate_at", "solver.residual",
                "harness.generate_data", "harness.trajectory_rows",
            }),
        ),
        Workload(
            name="verify-doubled",
            why="all 29 checks touch every layer and build mode tables for many "
                "(basis, grid) pairs; the solver share is small",
            cli=("verify", "all", "--doubled"),
            make_ini=_verify_ini,
            setup=(32, 32, 128, 256),
            artifacts=("checks.csv", "summary.json", "manifest.json"),
            gate=_gate_verify,
            expected=frozenset(traced_names()) - CLI_UNREACHABLE
            - {"harness.trajectory_rows"},
        ),
    )
}
