"""Per-layer tracer for stokesbesov, applied from outside the package.

`install` wraps the public functions of every module listed in TRACED and
records, per function, the number of calls, the self time (wall time minus
the time spent in traced callees) and the total time (outermost activations
only, so recursion is not counted twice).  Nothing under src/ is modified:
the wrappers are swapped into every module namespace that bound the function
through `from .x import y`, and into the CHECKS / DRIFT_CHECKS registries.

Run as a script it is the traced CLI child:

    python3 perfbench/tracer.py <src-dir> <trace.json> <stokesbesov args...>

which runs `stokesbesov.cli.main(args)` under the tracer and writes the raw
counters to trace.json.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# module -> public functions wrapped; every one gets .calls and .self_s.
# basis.ModeTables is the class: its construction is a miss of
# PolarGrid.tables, and it is wrapped on the class itself.
TRACED = {
    "specfun": ("bessel_j_table", "bessel_zeros_row", "gauss_legendre"),
    "basis": ("build_basis", "ModeTables", "synthesize", "analyze", "curl_values",
              "field_gradient_values", "mode_values_at"),
    "dyadic": ("apply_band", "apply_window"),
    "norms": ("lp_norm", "besov_norm", "trajectory_norm", "gradient_lp_norm",
              "dual_pairing"),
    "semigroup": ("heat_apply", "kernel_matrix", "scan_smoothing",
                  "scan_besov_bounded", "scan_gradient", "gradient_vs_besov",
                  "weak_star_continuity"),
    "nonlinear": ("nonlinear_coeffs", "dealiasing_check",
                  "energy_identity_residual"),
    "solver": ("picard_solve", "evaluate_at", "residual", "etd_timestep",
               "duhamel_apply"),
    "harness": ("generate_data", "trajectory_rows", "embedding_experiment",
                "verify_checks"),
}

# functions that also report .total_s (they call other traced layers)
WITH_TOTAL = ("basis.build_basis", "basis.ModeTables", "norms.trajectory_norm", "solver.picard_solve",
              "harness.trajectory_rows", "harness.embedding_experiment",
              "harness.verify_checks")

# the 26 + 3 registry entries of `stokesbesov verify all --doubled`
CHECK_IDS = (
    "partition-residual", "band-support", "reconstruction",
    "gram-orthonormality", "boundary-traces", "spectrum-min",
    "cache-roundtrip", "multiplier-uniformity", "semigroup-bounded",
    "semigroup-smoothing", "semigroup-continuity", "kernel-gaussian",
    "gradient-smoothing", "gradient-besov", "beta-pi", "beta-duhamel",
    "nonlinear-energy", "nonlinear-homogeneity", "weak-strong", "helmholtz",
    "dealiasing", "picard-small", "etd-agreement", "duality-pairing",
    "weak-star", "embedding",
    "multiplier-drift", "kernel-drift", "gradient-drift",
)


def traced_names():
    """Every wrapped function name, as '<module>.<function>'."""
    return [f"{module}.{fn}" for module, functions in TRACED.items() for fn in functions]


def per_layer_metrics():
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for name in traced_names():
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        if name in WITH_TOTAL:
            out.append((f"{name}.total_s", "s", "lower"))
        if name == "basis.synthesize":
            out.append(("basis.synthesize.gflops_computed", "GFLOP/s", "higher"))
        if name == "nonlinear.energy_identity_residual":
            out.append(("nonlinear.useful_ratio", "ratio", "higher"))
        if name == "solver.duhamel_apply":
            out.append(("solver.picard.iterations", "count", "lower"))
            out.append(("solver.picard.s_per_iteration", "s", "lower"))
    out.extend((f"harness.check.{cid}.total_s", "s", "lower") for cid in CHECK_IDS)
    out.append(("trace.overhead", "ratio", "lower"))
    return out


class Recorder:
    """Call counts and self/total time per traced name, kept in memory."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self._active = Counter()
        self._stack = []               # child time accumulated per open frame
        self.synth_flops = 0.0         # angular-matmul flops of synthesize
        self.picard_iterations = 0
        self.picard_useful = 0         # iterations x mesh points, summed
        # "<name>@(n_max,k_max)/RxA" -> [calls, seconds]: self time for the
        # transforms, time including callees for besov_norm and nonlinear_coeffs
        self.by_shape = defaultdict(lambda: [0, 0.0])

    def wrap(self, name, fn, on_return=None):
        stack, active = self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                active[name] -= 1
                self.calls[name] += 1
                own = elapsed - frame[0]
                self.self_s[name] += own
                if active[name] == 0:
                    self.total_s[name] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if on_return is not None:
                on_return(args, kwargs, result, own, elapsed)
            return result

        return traced

    # hooks: derived counters read from the arguments and results
    def _on_synthesize(self, args, kwargs, result, own, elapsed):
        f = args[0] if args else kwargs["f"]
        grid = result.grid
        q = f.basis.n_max + 3
        # four (R, Q+1) @ (Q+1, A) products: ux = xc.T cos + xs.T sin, same for uy
        self.synth_flops += 8.0 * grid.radial_order * q * grid.angular_count
        self._shape("basis.synthesize", f.basis, grid, own)

    def _on_analyze(self, args, kwargs, result, own, elapsed):
        grid = args[2] if len(args) > 2 else kwargs["grid"]
        self._shape("basis.analyze", result.basis, grid, own)

    def _on_besov(self, args, kwargs, result, own, elapsed):
        f = args[0] if args else kwargs["f"]
        grid = args[2] if len(args) > 2 else kwargs["grid"]
        self._shape("norms.besov_norm", f.basis, grid, elapsed)

    def _on_nonlinear(self, args, kwargs, result, own, elapsed):
        ws = args[1] if len(args) > 1 else kwargs["ws"]
        self._shape("nonlinear.nonlinear_coeffs", ws.basis, ws.grid, elapsed)

    def _on_picard(self, args, kwargs, result, own, elapsed):
        config = args[1] if len(args) > 1 else kwargs["config"]
        report = result[1]
        self.picard_iterations += report.iterations
        self.picard_useful += report.iterations * (config.mesh_count + 1)

    def _shape(self, name, basis, grid, seconds):
        key = f"{name}@({basis.n_max},{basis.k_max})/{grid.radial_order}x{grid.angular_count}"
        slot = self.by_shape[key]
        slot[0] += 1
        slot[1] += seconds

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "synth_flops": self.synth_flops,
            "picard_iterations": self.picard_iterations,
            "picard_useful": self.picard_useful,
            "by_shape": {k: list(v) for k, v in self.by_shape.items()},
        }


def install(recorder: Recorder) -> None:
    """Swap the wrappers into every stokesbesov namespace that binds a traced
    function, and into the check registries."""
    importlib.import_module("stokesbesov.cli")     # loads every module
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "stokesbesov" or n.startswith("stokesbesov.")]
    hooks = {
        "basis.synthesize": recorder._on_synthesize,
        "basis.analyze": recorder._on_analyze,
        "norms.besov_norm": recorder._on_besov,
        "nonlinear.nonlinear_coeffs": recorder._on_nonlinear,
        "solver.picard_solve": recorder._on_picard,
    }
    for module, functions in TRACED.items():
        home = importlib.import_module(f"stokesbesov.{module}")
        for fn_name in functions:
            name = f"{module}.{fn_name}"
            original = getattr(home, fn_name)
            if isinstance(original, type):
                original.__init__ = recorder.wrap(name, original.__init__)
                continue
            wrapper = recorder.wrap(name, original, hooks.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
    harness = importlib.import_module("stokesbesov.harness")
    for registry in (harness.CHECKS, harness.DRIFT_CHECKS):
        for check_id, fn in registry.items():
            registry[check_id] = recorder.wrap(f"harness.check.{check_id}", fn)


def main(argv) -> int:
    src, out_path, cli_args = argv[0], argv[1], argv[2:]
    sys.path.insert(0, src)
    recorder = Recorder()
    install(recorder)
    from stokesbesov.cli import main as cli_main
    try:
        code = cli_main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump(recorder.snapshot(), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
