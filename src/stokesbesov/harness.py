"""Reproducible experiment harness: data generators, the verification check
registry, and deterministic artifact writers.

Everything here is driven by a RunConfig, which can be loaded from an INI
file.  Identical config (including seeds) produces byte-identical CSV and
JSON artifacts; the manifest is the one file allowed to differ between runs
(it records wall time and the environment byte-identity depends on).

Each check is declared once, by the @_check decorator on its function: the
declaration holds the check's id, threshold and sense, and verify_checks is
the one place that compares a check's value with them.
"""

from __future__ import annotations

import configparser
import dataclasses
import json
import math
import operator
import os
import time
from pathlib import Path

import numpy as np

from .errors import ConfigError, ResolutionError
from .specfun import MAX_QUADRATURE_ORDER, bessel_zero, bessel_zeros_row, beta_function
from .basis import (
    MAX_K_MAX,
    MAX_N_MAX,
    MAX_RADIAL_ORDER,
    REFINE_FACTOR,
    _PARITY_NAME,
    Basis,
    GridVectorField,
    PolarGrid,
    SpectralField,
    analyze,
    boundary_traces,
    build_basis,
    build_grid,
    coeff_l2,
    curl_l2,
    load_basis,
    mode_values_at,
    save_basis,
    synthesize,
)
from .dyadic import _multiplier, active_bands, apply_band, eta, phi, window
from .norms import (
    INF,
    BesovIndex,
    besov_norm,
    critical_index,
    dual_pairing,
    lp_norm,
    trajectory_norm,
    trajectory_terms,
)
from .semigroup import (
    gradient_vs_besov,
    heat_apply,
    kernel_matrix,
    kernel_tail_threshold,
    scan_besov_bounded,
    scan_gradient,
    scan_smoothing,
    weak_star_continuity,
)
from .nonlinear import (
    dealiasing_check,
    energy_identity_residual,
    helmholtz_project,
    nonlinear_coeffs,
)
from .solver import (
    SolverConfig,
    Trajectory,
    etd_timestep,
    evaluate_at,
    picard_solve,
    residual,
)

__all__ = [
    "DataSpec",
    "RunConfig",
    "CheckResult",
    "CHECKS",
    "VerifyContext",
    "load_config",
    "generate_data",
    "weak_l2_proxy",
    "embedding_experiment",
    "verify_checks",
    "trajectory_rows",
    "write_csv",
    "write_json",
    "run_experiment",
    "LAMBDA_MIN_REFERENCE",
]

FORMAT_PREFIX = "stokes-besov"
LAMBDA_MIN_REFERENCE = 5.783185962946785     # first Dirichlet eigenvalue, j_{0,1}^2

# Reference values for the two Duhamel time-weight constants at (d, p) = (2, 4):
# B(1/2, 1/2) and B(1/2, 1/4).  Frozen from an independent quadrature oracle
# (see tests/oracles.py); the pi identity pins the first analytically.
BETA_HALF_HALF = math.pi
BETA_HALF_QUARTER = 5.244115108584239

# What byte-identity of the artifacts depends on besides the config: the
# numpy build and the BLAS thread count, read once when the harness loads.
_ENVIRONMENT = {
    "numpy": np.__version__,
    **{name: os.environ.get(name)
       for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
}


# ---------------------------------------------------------------------------
# configuration

@dataclasses.dataclass(frozen=True)
class DataSpec:
    """Declarative initial-data description; realized by generate_data."""

    kind: str = "single_mode"
    n: int = 0
    parity: str = "cos"
    k: int = 1
    amplitude: float = 1e-3
    band: int = 3
    seed: int = 7
    slope: float = 1.0
    center: tuple = (0.0, 0.0)
    width: float = 0.2


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """One experiment run: discretization, solver, data, and output knobs."""

    experiment: str = "verify"
    n_max: int = 32
    k_max: int = 32
    radial_order: int = 128
    angular_count: int = 256
    basis_cache: str = ""
    p: float = 4.0
    T: float = 0.5
    mesh_count: int = 64
    gamma: float = 3.0
    picard_tol: float = 1e-9
    max_picard: int = 25
    data: DataSpec = DataSpec()
    embed_p: float = 4.0
    embed_widths: tuple = (0.4, 0.2, 0.1)
    checks: tuple = ()           # empty = full registry
    doubled: bool = False
    seed: int = 2025
    out_dir: str = "artifacts"


def _number(raw: str) -> float:
    return INF if raw.strip().lower() in ("inf", "infinity") else float(raw)


def _boolean(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(raw) from None


def _center(raw: str) -> tuple:
    x0, y0 = (float(v) for v in raw.split(","))
    return (x0, y0)


# value parsers: (what the error message says was expected, converter that
# raises ValueError on bad input)
_INT = ("an integer", int)
_NUMBER = ("a number", _number)
_TEXT = ("text", str.strip)

# (section, key) -> (parser, RunConfig field); [data] keys fill the DataSpec
# field of the same name.  The experiment is no key: the CLI subcommand (or
# the overrides of load_config) picks it.
_CONFIG_KEYS = {
    ("run", "seed"): (_INT, "seed"),
    ("basis", "n_max"): (_INT, "n_max"),
    ("basis", "k_max"): (_INT, "k_max"),
    ("basis", "cache"): (_TEXT, "basis_cache"),
    ("grid", "radial_order"): (_INT, "radial_order"),
    ("grid", "angular_count"): (_INT, "angular_count"),
    ("solver", "p"): (_NUMBER, "p"),
    ("solver", "t_final"): (_NUMBER, "T"),
    ("solver", "mesh_count"): (_INT, "mesh_count"),
    ("solver", "gamma"): (_NUMBER, "gamma"),
    ("solver", "picard_tol"): (_NUMBER, "picard_tol"),
    ("solver", "max_picard"): (_INT, "max_picard"),
    ("embed", "p"): (_NUMBER, "embed_p"),
    ("embed", "widths"): (("comma-separated numbers",
                           lambda raw: tuple(float(w) for w in raw.split(","))),
                          "embed_widths"),
    ("verify", "doubled"): (("a boolean", _boolean), "doubled"),
    ("verify", "checks"): (("check ids", lambda raw: tuple(
        c.strip() for c in raw.split(",") if c.strip())), "checks"),
    ("output", "dir"): (_TEXT, "out_dir"),
    ("data", "kind"): (_TEXT, "kind"),
    ("data", "n"): (_INT, "n"),
    ("data", "k"): (_INT, "k"),
    ("data", "parity"): (_TEXT, "parity"),
    ("data", "amplitude"): (_NUMBER, "amplitude"),
    ("data", "band"): (_INT, "band"),
    ("data", "seed"): (_INT, "seed"),
    ("data", "slope"): (_NUMBER, "slope"),
    ("data", "width"): (_NUMBER, "width"),
    ("data", "center"): (("'x,y'", _center), "center"),
}
_KNOWN_SECTIONS = {section for section, _ in _CONFIG_KEYS}
_DATA_KINDS = {"single_mode", "band_random", "spectral_slope", "bump_family"}


def load_config(path=None, overrides=None) -> RunConfig:
    """Build a RunConfig from an INI file (all sections optional).

    Unknown sections or keys are errors: a typo silently falling back to a
    default would defeat the point of a declarative config.
    """
    values: dict = {}
    data_values: dict = {}
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from None
        for section in parser.sections():
            if section not in _KNOWN_SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if (section, key) not in _CONFIG_KEYS:
                    raise ConfigError(f"unknown config key [{section}] {key}")
                (what, convert), field = _CONFIG_KEYS[section, key]
                target = data_values if section == "data" else values
                try:
                    target[field] = convert(raw)
                except ValueError:
                    raise ConfigError(f"[{section}] {key}: expected {what}, "
                                      f"got {raw!r}") from None
    if overrides:
        values.update(overrides)
    if data_values:
        values["data"] = dataclasses.replace(RunConfig().data, **data_values)
    try:
        cfg = dataclasses.replace(RunConfig(), **values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    if cfg.experiment not in ("verify", "solve", "embed", "basis"):
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    if not 0 <= cfg.n_max <= MAX_N_MAX:
        raise ConfigError(f"[basis] n_max must lie in [0, {MAX_N_MAX}]")
    if not 1 <= cfg.k_max <= MAX_K_MAX:
        raise ConfigError(f"[basis] k_max must lie in [1, {MAX_K_MAX}]")
    if not 4 <= cfg.radial_order <= MAX_RADIAL_ORDER:
        raise ConfigError(
            f"[grid] radial_order must lie in [4, {MAX_RADIAL_ORDER}]: p = inf norms "
            f"sample a grid {REFINE_FACTOR}x denser, and quadrature stops at order "
            f"{MAX_QUADRATURE_ORDER}")
    if cfg.angular_count < 8 or cfg.angular_count % 2:
        raise ConfigError("[grid] angular_count must be even and at least 8")
    if not 2.0 < cfg.p < INF:
        raise ConfigError("[solver] p: the solution space requires d < p < inf (here d = 2)")
    # every bound is written as what it accepts, so that NaN fails it
    if not 0.0 < cfg.T < INF or cfg.mesh_count < 1:
        raise ConfigError("[solver] t_final must be positive and finite, and mesh_count >= 1")
    if not 1.0 <= cfg.gamma < INF:
        raise ConfigError("[solver] gamma must be finite and >= 1 (gamma = 1 is the uniform mesh)")
    if not cfg.picard_tol > 0.0 or cfg.max_picard < 1:
        raise ConfigError("[solver] picard_tol must be positive and max_picard >= 1")
    for key, seed in (("[run] seed", cfg.seed), ("[data] seed", cfg.data.seed)):
        if seed < 0:
            raise ConfigError(f"{key} must be >= 0, got {seed}")
    for key in ("amplitude", "slope", "width", "center"):
        if not np.all(np.isfinite(getattr(cfg.data, key))):
            raise ConfigError(f"[data] {key} must be finite")
    if not cfg.data.width > 0.0:
        raise ConfigError("[data] width must be positive")
    if cfg.data.kind not in _DATA_KINDS:
        raise ConfigError(f"[data] kind: unknown generator {cfg.data.kind!r}")
    if cfg.data.parity not in _PARITY_NAME:
        raise ConfigError(f"[data] parity: expected cos or sin, got {cfg.data.parity!r}")
    if not 2.0 < cfg.embed_p < INF:
        raise ConfigError("[embed] p must satisfy 2 < p < inf")
    if not all(0.0 < w < INF for w in cfg.embed_widths):
        raise ConfigError("[embed] widths must be positive and finite")
    if len(set(cfg.embed_widths)) < 2:
        raise ConfigError("[embed] widths must hold at least two distinct values")
    if cfg.experiment == "basis" and cfg.basis_cache:
        raise ConfigError("[basis] cache: 'basis build' writes a cache, it does not "
                          "read one; remove the cache key")
    _resolve_checks(cfg.checks, cfg.doubled)


def _resolve_checks(check_ids, doubled: bool) -> list:
    """Check ids to run: the named ones in their order, else the whole
    registry, followed when doubled is set by the drift checks not named."""
    unknown = [c for c in check_ids if c not in _LIMITS]
    if unknown:
        raise ConfigError(f"[verify] checks: unknown check ids {unknown}; "
                          f"known ids: {', '.join(sorted(_LIMITS))}")
    ids = list(check_ids) or list(CHECKS)
    return ids + [c for c in DRIFT_CHECKS if doubled and c not in ids]


def _run_basis(config: RunConfig) -> Basis:
    """The run's (n_max, k_max) basis: read from the [basis] cache file when
    one is set, else built.  A cache that cannot be read, is not a basis
    cache, or holds another truncation is a configuration error."""
    if not config.basis_cache:
        return build_basis(config.n_max, config.k_max)
    try:
        basis = load_basis(config.basis_cache)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"[basis] cache: cannot load {config.basis_cache}: {exc}") from None
    if basis.cache_key != (config.n_max, config.k_max):
        raise ConfigError(
            f"[basis] cache: {config.basis_cache} holds the {basis.cache_key} "
            f"truncation, the config asks for ({config.n_max}, {config.k_max})")
    return basis


# ---------------------------------------------------------------------------
# data generators

def generate_data(spec: DataSpec, basis: Basis, grid: PolarGrid) -> SpectralField:
    """Realize a DataSpec as a coefficient vector on the given basis."""
    if spec.kind == "single_mode":
        key = (spec.n, _PARITY_NAME.index(spec.parity))
        group = basis.group_index.get(key)
        if group is None or not 1 <= spec.k <= len(group):
            raise ConfigError(
                f"[data] mode (n={spec.n}, parity={spec.parity}, k={spec.k}) "
                f"not in the ({basis.n_max}, {basis.k_max}) truncation")
        coeffs = np.zeros(basis.n_modes)
        coeffs[group[spec.k - 1]] = spec.amplitude
        return SpectralField(basis, coeffs)
    if spec.kind in ("band_random", "spectral_slope"):
        if spec.kind == "band_random":
            weights = _multiplier(basis, spec.band, False)
            if not np.any(weights > 0.0):
                raise ConfigError(f"[data] band {spec.band} contains no basis frequencies")
        else:
            weights = np.sqrt(basis.lam) ** (-spec.slope)
        coeffs = weights * np.random.default_rng(spec.seed).standard_normal(basis.n_modes)
        return SpectralField(basis, coeffs * (spec.amplitude / coeff_l2(coeffs)))
    if spec.kind == "bump_family":
        return _bump_field(spec, basis, grid)
    raise ConfigError(f"[data] kind: unknown generator {spec.kind!r}")


def _bump_field(spec: DataSpec, basis: Basis, grid: PolarGrid) -> SpectralField:
    """Swirl around `center` with the 1/rho singularity cut off below `width`.

    The raw profile chi(rho/h) * (x - x0)^perp / rho^2 has |u| ~ 1/rho on
    h < rho < 1: borderline for L^2 but inside weak-L^2 uniformly in h.
    Projection onto the basis removes any normal boundary component.
    """
    h = float(spec.width)
    spacing = 1.0 / grid.radial_rule.order
    if not h >= 3.0 * spacing:            # NaN fails it too
        raise ResolutionError(
            f"bump width {h} must be positive and at least three radial grid "
            f"spacings ({3.0 * spacing:.6g}); refine the grid or widen the bump")
    x0, y0 = spec.center
    dx = grid.x - x0
    dy = grid.y - y0
    rho2 = dx * dx + dy * dy
    rho = np.sqrt(rho2)
    # transition of the dyadic partition reused as the cutoff: 0 below h, 1 above 2h
    chi = 1.0 - eta(rho / h)
    safe = np.where(rho2 > 0.0, rho2, 1.0)
    ux = spec.amplitude * chi * (-dy) / safe
    uy = spec.amplitude * chi * dx / safe
    return analyze(GridVectorField(grid, ux, uy), basis, grid)


def weak_l2_proxy(v) -> float:
    """Computable weak-L^2 stand-in: sup over dyadic thresholds s of
    s * measure{|u| > s}^{1/2}, on the grid the samples live on."""
    if isinstance(v, SpectralField):
        raise TypeError("weak_l2_proxy needs grid samples; synthesize first")
    mag = v.magnitude().ravel()
    w = v.grid.weights.ravel()
    top = float(mag.max(initial=0.0))
    if top == 0.0:
        return 0.0
    best = 0.0
    k_hi = int(math.floor(math.log2(top)))
    for k in range(k_hi, k_hi - 40, -1):
        s = math.ldexp(1.0, k)
        measure = float(w[mag > s].sum())
        best = max(best, s * math.sqrt(measure))
    return best


def embedding_experiment(p: float, widths, basis: Basis, grid: PolarGrid) -> dict:
    """Sharpness probe for the critical embedding: a width family whose
    weak-L^2 size stays put while the L^p norm grows as the width shrinks.

    The bump family is critically scaled (u_h(x) ~ h^-1 U(x/h)), so
    ||u_h||_p grows like h^(-1+2/p): at p = 4 like h^(-1/2), a factor
    close to sqrt(2) per halving of the width, while the critical Besov
    norm B^{-1+2/p}_{p,inf} stays bounded.

    Returns per-width rows plus the spread (max/min) of each column.
    """
    if not 2.0 < p < INF:
        raise ValueError("embedding probe requires 2 < p < inf")
    idx = BesovIndex(critical_index(p), p, INF)
    rows = []
    for h in widths:
        spec = DataSpec(kind="bump_family", width=float(h), amplitude=1.0)
        u = generate_data(spec, basis, grid)
        v = synthesize(u, grid)
        rows.append({
            "width": float(h),
            "lp_norm": lp_norm(v, grid, p),
            "weak_l2_proxy": weak_l2_proxy(v),
            "besov_critical": besov_norm(u, idx, grid).value,
        })
    def spread(key):
        vals = [r[key] for r in rows]
        lo = min(vals)
        return INF if lo == 0.0 else max(vals) / lo
    return {
        "p": float(p),
        "rows": rows,
        "lp_spread": spread("lp_norm"),
        "weak_spread": spread("weak_l2_proxy"),
        "besov_spread": spread("besov_critical"),
    }


# ---------------------------------------------------------------------------
# verification checks

@dataclasses.dataclass(frozen=True)
class CheckResult:
    check_id: str
    value: float
    threshold: float
    passed: bool
    sense: str                   # how value relates to threshold when passing
    note: str

    def row(self):
        return [self.check_id, self.value, self.threshold,
                "pass" if self.passed else "FAIL"]


class VerifyContext:
    """Shared lazily-built state for the check registry.

    Checks draw bases, grids and shared statistics from here so verify-all
    builds each once; `config` is the run's RunConfig.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        self._memo = {}

    def basis(self, n_max=None, k_max=None) -> Basis:
        key = (self.config.n_max if n_max is None else n_max,
               self.config.k_max if k_max is None else k_max)
        run_key = (self.config.n_max, self.config.k_max)
        return self.cached(("basis", key), lambda: (
            _run_basis(self.config) if key == run_key else build_basis(*key)))

    def grid(self, radial=None, angular=None) -> PolarGrid:
        key = (self.config.radial_order if radial is None else radial,
               self.config.angular_count if angular is None else angular)
        return self.cached(("grid", key), lambda: build_grid(*key))

    def cached(self, key, build):
        """build() once per key; a drift check reuses through it the
        statistic its single-truncation check computed at the same truncation."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def random_fields(self, basis: Basis, count: int, seed: int,
                      decay: float = 0.05):
        """Seeded sample family with mildly decaying spectra, unit l2.
        Subnormal tails are flushed to zero: they carry no signal and
        subnormal arithmetic is pathologically slow."""
        rng = np.random.default_rng(seed)
        fields = []
        tiny = np.finfo(float).tiny
        for _ in range(count):
            c = rng.standard_normal(basis.n_modes) * np.exp(-decay * basis.lam)
            c[np.abs(c) < tiny] = 0.0
            fields.append(SpectralField(basis, c / coeff_l2(c)))
        return fields


# id -> check(ctx), in run order; the drift checks run only when doubled
CHECKS: dict = {}
DRIFT_CHECKS: dict = {}
_LIMITS: dict = {}               # id -> (threshold, sense)
_SENSES = {"<=": operator.le, ">=": operator.ge, "<": operator.lt}


def _check(check_id: str, threshold, sense: str = "<=", drift: bool = False):
    """Register the decorated check(ctx) under check_id.  It returns (value,
    note), or (value, note, also) when it needs a condition of its own, and
    passes when also holds and `value sense threshold` does; threshold is a
    number or a function of the RunConfig."""
    def register(fn):
        (DRIFT_CHECKS if drift else CHECKS)[check_id] = fn
        _LIMITS[check_id] = (threshold, sense)
        return fn
    return register


@_check("partition-residual", 1e-13)
def _check_partition_residual(ctx: VerifyContext):
    rng = np.random.default_rng(ctx.config.seed)
    x = np.exp(rng.uniform(math.log(1e-2), math.log(1e3), size=20000))
    j_lo = int(math.floor(math.log2(x.min()))) - 1
    j_hi = int(math.ceil(math.log2(x.max()))) + 1
    total = np.zeros_like(x)
    for j in range(j_lo, j_hi + 1):
        total += phi(j, x)
    worst = float(np.max(np.abs(total - 1.0)))
    return worst, "20000 log-uniform arguments, telescoped band sum"


@_check("band-support", 0.0)
def _check_band_support(ctx: VerifyContext):
    worst = 0.0
    for j in (-3, 0, 2, 7):
        lo, hi = math.ldexp(1.0, j - 1), math.ldexp(1.0, j + 1)
        outside = np.array([lo * 0.999999, lo, hi, hi * 1.000001, lo / 3, hi * 3])
        worst = max(worst, float(np.max(np.abs(phi(j, outside)))))
        worst = max(worst, abs(float(phi(j, math.ldexp(1.0, j))) - 1.0))
        probe = np.exp(np.linspace(math.log(lo * 1.01), math.log(hi * 0.99), 64))
        worst = max(worst, float(np.max(np.abs(window(j, probe) - 1.0))))
    return worst, "support and plateau are exact by construction"


@_check("reconstruction", 1e-13)
def _check_reconstruction(ctx: VerifyContext):
    basis = ctx.basis()
    worst = 0.0
    for f in ctx.random_fields(basis, 100, ctx.config.seed + 1):
        total = sum(apply_band(f, j).coeffs for j in active_bands(basis))
        worst = max(worst, float(np.max(np.abs(total - f.coeffs))))
    return worst, "100 seeded fields, band sums vs identity"


def _gram_deviation(basis: Basis, grid: PolarGrid) -> float:
    worst = 0.0
    eye = np.eye(basis.n_modes)
    for i in range(basis.n_modes):
        row = analyze(synthesize(SpectralField(basis, eye[i]), grid),
                      basis, grid).coeffs
        row[i] -= 1.0
        worst = max(worst, float(np.max(np.abs(row))))
    return worst


@_check("gram-orthonormality", 1e-9)
def _check_gram(ctx: VerifyContext):
    n = min(ctx.config.n_max, 16)
    k = min(ctx.config.k_max, 16)
    worst = _gram_deviation(ctx.basis(n, k), ctx.grid())
    return worst, f"dense Gram via analyze(synthesize) at ({n}, {k})"


@_check("boundary-traces", 1e-8)
def _check_boundary(ctx: VerifyContext):
    normal, curl = boundary_traces(ctx.basis())
    worst = max(float(normal.max()), float(curl.max()))
    return worst, "max over modes of |u.nu| and |curl u| at r = 1"


@_check("spectrum-min", 1e-9)
def _check_spectrum_min(ctx: VerifyContext):
    return abs(ctx.basis().lambda_min - LAMBDA_MIN_REFERENCE), ""


@_check("cache-roundtrip", 0.0)
def _check_cache_roundtrip(ctx: VerifyContext):
    import tempfile
    basis = ctx.basis(min(ctx.config.n_max, 8), min(ctx.config.k_max, 8))
    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "basis.json"
        save_basis(basis, path)
        loaded = load_basis(path)
    same = (np.array_equal(loaded.lam, basis.lam)
            and np.array_equal(loaded.stream_norm, basis.stream_norm)
            and np.array_equal(loaded.velocity_norm, basis.velocity_norm)
            and np.array_equal(loaded.zero, basis.zero))
    return (0.0 if same else 1.0), "save/load reproduces every table bit for bit"


_BERNSTEIN_PAIRS = ((2.0, 4.0), (2.0, INF), (1.0, 2.0))


_BERNSTEIN_POINTS = np.array([[0.35, -0.2], [-0.1, 0.6]])


def _bernstein_stat(basis: Basis, grid: PolarGrid, seed: int) -> tuple:
    """(stats, band_ratios): stats maps each (r, p) to the (max, median) over
    bands of the normalized ratio |u_j|_p / (2^{2j(1/r - 1/p)} |u_j|_r) on
    band-limited samples u_j, band_ratios maps it to {j: ratio}.

    The sample family must exercise the scaling uniformly in j or the
    statistic measures the family, not the multiplier: band-filtered
    kernel columns (coefficients phi_j(sqrt(lambda_m)) e_m(x0) . v) are
    the concentrated extremizers and saturate every band the same way;
    two seeded random band samples ride along as non-extremal ballast.
    p = inf stays spectral so the sup runs on the refined grid, held here.
    """
    bands = active_bands(basis)
    p_values = sorted({q for pair in _BERNSTEIN_PAIRS for q in pair},
                      key=lambda q: (math.isinf(q), q))
    point_vals = mode_values_at(basis, _BERNSTEIN_POINTS)   # (P, M, 2)
    companion = grid.rule_for(SpectralField(basis, point_vals[0, :, 0]), INF)  # for all bands
    per_band = {}
    for j in bands:
        mask = _multiplier(basis, j, False)
        members = []
        for pi in range(point_vals.shape[0]):
            for comp in range(2):
                c = mask * point_vals[pi, :, comp]
                if np.linalg.norm(c) > 0.0:
                    members.append(SpectralField(basis, c))
        for s in range(2):
            spec = DataSpec(kind="band_random", band=j, amplitude=1.0,
                            seed=seed + 101 * j + s)
            members.append(generate_data(spec, basis, grid))
        norms = []
        for u in members:
            v = synthesize(u, grid)
            norms.append({q: (lp_norm(u, grid, q) if math.isinf(q)
                              else lp_norm(v, grid, q))
                          for q in p_values})
        per_band[j] = norms
    del companion                   # before the statistics allocate
    stats = {}
    band_ratios = {}
    for r, p in _BERNSTEIN_PAIRS:
        ratios = {}
        for j in bands:
            scale = 2.0 ** (2 * j * (1.0 / r - 1.0 / p))
            ratios[j] = max(norms[p] / (scale * norms[r])
                            for norms in per_band[j])
        vals = np.array(list(ratios.values()))
        stats[(r, p)] = (float(vals.max()), float(np.median(vals)))
        band_ratios[(r, p)] = ratios
    return stats, band_ratios


def _bernstein(ctx: VerifyContext, basis: Basis):
    return ctx.cached(("bernstein", basis.cache_key),
                      lambda: _bernstein_stat(basis, ctx.grid(), ctx.config.seed + 2))


@_check("multiplier-uniformity", 10.0)
def _check_multiplier(ctx: VerifyContext):
    stats, _ = _bernstein(ctx, ctx.basis())
    worst = max(mx / med for mx, med in stats.values())
    return worst, "; ".join(f"(r={r:g}, p={p:g}): max/median {mx / med:.3f}"
                            for (r, p), (mx, med) in stats.items())


def _resolved_radius(n_max: int, k_max: int) -> float:
    """Largest frequency R such that the (n_max, k_max) rectangle contains
    every mode with sqrt(lambda) <= R.  The rectangle is not a ball: the
    first excluded zeros are j_{n_max+1,1} (order side) and j_{0,k_max+1}
    (radial side), and completeness ends at whichever comes first."""
    order_side = bessel_zeros_row(n_max + 1, k_max + 1)[0]     # one block holds both
    return min(order_side, bessel_zero(0, k_max + 1))


@_check("multiplier-drift", 0.25, drift=True)
def _check_multiplier_drift(ctx: VerifyContext):
    """Per-band constants compared across a truncation doubling, on the
    bands inside the coarse (16,16) resolved ball.  The fine truncation's
    ball contains it; outside it the coarse basis is missing modes (high
    order, low radial index), so a changed constant there measures the
    cutoff geometry rather than the multiplier.
    """
    _, coarse = _bernstein(ctx, ctx.basis(16, 16))
    _, fine = _bernstein(ctx, ctx.basis(32, 32))
    top = _resolved_radius(16, 16)
    worst = 0.0
    compared = []
    for key in coarse:
        for j in sorted(set(coarse[key]) & set(fine[key])):
            if math.ldexp(1.0, j + 1) > top:
                continue
            c, f = coarse[key][j], fine[key][j]
            worst = max(worst, abs(f - c) / c)
            compared.append(j)
    return worst, ("per-band constant drift on fully resolved bands "
                   f"{sorted(set(compared))}, (16,16) vs (32,32)")


def _scan_samples(ctx: VerifyContext, basis: Basis, count: int = 8):
    """Mix of band-concentrated and broadband unit-l2 data for the scans."""
    fields = []
    for j in active_bands(basis)[:count - 1]:
        spec = DataSpec(kind="band_random", band=j, amplitude=1.0,
                        seed=ctx.config.seed + 10 + j)
        fields.append(generate_data(spec, basis, ctx.grid()))
    fields.extend(ctx.random_fields(basis, 2, ctx.config.seed + 3))
    return fields


@_check("semigroup-bounded", 2.0)
def _check_bounded(ctx: VerifyContext):
    basis = ctx.basis()
    samples = _scan_samples(ctx, basis)
    t_grid = np.exp(np.linspace(math.log(1e-3), 0.0, 6))
    scan = scan_besov_bounded(0.0, 4.0, INF, t_grid, samples, ctx.grid())
    return (scan.max_ratio, "sup-t Besov ratio over band and broadband samples",
            np.all(np.isfinite(scan.ratio)))


_SMOOTHING_TUPLES = ((0.0, 0.0, 4.0, 4.0), (0.0, -0.5, 4.0, 4.0), (1.0, 0.0, 2.0, 4.0))


@_check("semigroup-smoothing", 0.1)
def _check_smoothing(ctx: VerifyContext):
    basis = ctx.basis()
    grid = ctx.grid()
    samples = _scan_samples(ctx, basis)
    t_grid = np.exp(np.linspace(math.log(1.0 / (10.0 * basis.lambda_min)),
                                0.0, 8))
    worst = -INF
    notes = []
    profiles = {}       # the tuples share left and right norms
    for s, s0, p, p0 in _SMOOTHING_TUPLES:
        scan = scan_smoothing(s, s0, p, p0, t_grid, samples, grid, profiles=profiles)
        if not np.all(np.isfinite(scan.ratio)):
            return INF, f"non-finite ratio at tuple ({s}, {s0}, {p}, {p0})"
        excess = scan.slope - scan.slope_claimed
        worst = max(worst, excess)
        notes.append(f"({s:g},{s0:g},{p:g},{p0:g}): slope {scan.slope:.3f} "
                     f"vs claimed {scan.slope_claimed:.3f}")
    return worst, "; ".join(notes)


@_check("semigroup-continuity", 1e-6)
def _check_continuity(ctx: VerifyContext):
    basis = ctx.basis()
    f = ctx.random_fields(basis, 1, ctx.config.seed + 4)[0]
    idx = BesovIndex(0.0, 4.0, 1.0)
    grid = ctx.grid()
    base = besov_norm(f, idx, grid).value
    drift = abs(besov_norm(heat_apply(f, 1e-9), idx, grid).value - base) / base
    return drift, "Besov norm ratio at t = 1e-9 vs t = 0"


def _fit_gaussian_constant(basis: Basis, seed: int, t_values) -> float:
    """Smallest C with |K_t(x,y)|_F <= C t^{-1} exp(-|x-y|^2 / (C t))
    over the _kernel_points(seed) pairs and all times; monotone in C, so
    bisection."""
    t_values = np.asarray(t_values, dtype=float)
    pts = _kernel_points(seed)
    xs, ys = pts[:_KERNEL_PAIRS], pts[_KERNEL_PAIRS:]
    dist2 = np.sum((xs - ys) ** 2, axis=1)
    kern = kernel_matrix(xs, ys, t_values, basis)         # (n_t, n_pairs, 2, 2)
    frob = np.sqrt(np.sum(kern ** 2, axis=(2, 3)))
    t_arr = t_values[:, None]

    def admissible(c: float) -> bool:
        bound = (c / t_arr) * np.exp(-dist2[None, :] / (c * t_arr))
        return bool(np.all(frob <= bound))

    lo, hi = 1e-2, 1e4
    if not admissible(hi):
        return INF
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if admissible(mid):
            hi = mid
        else:
            lo = mid
    return hi


_KERNEL_PAIRS = 200


def _kernel_points(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(0.0, 0.9, size=2 * _KERNEL_PAIRS))
    th = rng.uniform(0.0, 2 * math.pi, size=2 * _KERNEL_PAIRS)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def _gaussian_constant(ctx: VerifyContext, basis: Basis):
    """kernel-gaussian's fitted C at this truncation, and its smallest time."""
    def build():
        t_lo = max(0.02, 1.2 * kernel_tail_threshold(basis))
        t_values = np.exp(np.linspace(math.log(t_lo), math.log(0.2), 5))
        return _fit_gaussian_constant(basis, ctx.config.seed + 5, t_values), t_lo
    return ctx.cached(("kernel", basis.cache_key), build)


@_check("kernel-gaussian", 50.0)
def _check_kernel_gaussian(ctx: VerifyContext):
    c, t_lo = _gaussian_constant(ctx, ctx.basis())
    return c, f"fitted C over {_KERNEL_PAIRS} pairs, t in [{t_lo:.4g}, 0.2]"


def _drift(ctx: VerifyContext, constant):
    """Relative change of constant(basis) from the (16,16) to the (32,32)
    truncation, and the note that shows both."""
    a, b = (constant(ctx.basis(*trunc)) for trunc in ((16, 16), (32, 32)))
    return abs(b - a) / a, f"C: {a:.4f} -> {b:.4f}"


@_check("kernel-drift", 0.25, drift=True)
def _check_kernel_drift(ctx: VerifyContext):
    return _drift(ctx, lambda basis: _gaussian_constant(ctx, basis)[0])


@_check("gradient-smoothing", 5.0)
def _check_gradient_smoothing(ctx: VerifyContext):
    basis = ctx.basis()
    samples = _scan_samples(ctx, basis, count=5)
    t_grid = np.exp(np.linspace(math.log(1e-3), 0.0, 6))
    scan = scan_gradient(4.0, t_grid, samples, ctx.grid())
    return (scan.max_ratio, "sup of t^{1/2} |grad e^{-tA} u|_p / |u|_p, p = 4",
            np.all(np.isfinite(scan.ratio)))


def _gradient_constant(ctx: VerifyContext, basis: Basis) -> float:
    return ctx.cached(("gradient", basis.cache_key), lambda: gradient_vs_besov(
        4.0, _scan_samples(ctx, basis, count=5), ctx.grid()).max_ratio)


@_check("gradient-besov", 5.0)
def _check_gradient_besov(ctx: VerifyContext):
    return (_gradient_constant(ctx, ctx.basis()),
            "gradient L^p vs inhomogeneous Besov s = 1 bound")


@_check("gradient-drift", 0.25, drift=True)
def _check_gradient_drift(ctx: VerifyContext):
    # drift is exactly zero when the extremal sample lives in the low
    # bands shared by both truncations; that is stability, not a bug
    return _drift(ctx, lambda basis: _gradient_constant(ctx, basis))


@_check("beta-pi", 1e-10)
def _check_beta_pi(ctx: VerifyContext):
    return abs(beta_function(0.5, 0.5) - BETA_HALF_HALF), "B(1/2, 1/2) = pi"


@_check("beta-duhamel", 1e-8)
def _check_beta_duhamel(ctx: VerifyContext):
    d, p = 2.0, 4.0
    first = abs(beta_function(d / p, 1.0 - d / p) - BETA_HALF_HALF)
    second = abs(beta_function(d / p, 0.5 - d / (2 * p)) - BETA_HALF_QUARTER)
    return max(first, second), "the two time-weight constants at (d, p) = (2, 4)"


def _nonlinear_ctx(ctx: VerifyContext):
    n = min(ctx.config.n_max, 16)
    k = min(ctx.config.k_max, 16)
    basis = ctx.basis(n, k)
    return basis, ctx.grid().tables(basis)


@_check("nonlinear-energy", 1e-9)
def _check_nonlinear_energy(ctx: VerifyContext):
    basis, tables = _nonlinear_ctx(ctx)
    worst = 0.0
    for f in ctx.random_fields(basis, 100, ctx.config.seed + 6, decay=0.08):
        res = energy_identity_residual(f, tables)
        worst = max(worst, abs(res.advection))
    return worst, "max |<N(u), u>| over 100 unit-l2 samples"


@_check("nonlinear-homogeneity", 1e-12)
def _check_homogeneity(ctx: VerifyContext):
    basis, tables = _nonlinear_ctx(ctx)
    f = ctx.random_fields(basis, 1, ctx.config.seed + 7, decay=0.08)[0]
    base = nonlinear_coeffs(f, tables).coeffs
    worst = 0.0
    for s in (2.0, -1.0, 0.5):
        scaled = nonlinear_coeffs(f * s, tables).coeffs
        worst = max(worst, float(np.max(np.abs(scaled - s * s * base)))
                    / float(np.max(np.abs(base))))
    return worst, "N(s u) = s^2 N(u), relative"


@_check("weak-strong", 1e-7)
def _check_weak_strong(ctx: VerifyContext):
    basis, tables = _nonlinear_ctx(ctx)
    worst = 0.0
    for f in ctx.random_fields(basis, 3, ctx.config.seed + 8, decay=0.08):
        weak = nonlinear_coeffs(f, tables).coeffs
        strong = _strong_form_coeffs(f, basis, tables.grid)
        worst = max(worst, float(np.max(np.abs(weak - strong)))
                    / float(np.max(np.abs(weak))))
    return worst, "integrated-by-parts vs pointwise (u . grad) u"


def _strong_form_coeffs(u: SpectralField, basis: Basis, grid: PolarGrid) -> np.ndarray:
    from .basis import field_gradient_values
    v = synthesize(u, grid)
    g = field_gradient_values(u, grid)
    adv_x = v.ux * g[..., 0, 0] + v.uy * g[..., 0, 1]
    adv_y = v.ux * g[..., 1, 0] + v.uy * g[..., 1, 1]
    return analyze(GridVectorField(grid, adv_x, adv_y), basis, grid).coeffs


@_check("helmholtz", 1e-8)
def _check_helmholtz(ctx: VerifyContext):
    basis, _ = _nonlinear_ctx(ctx)
    grid = ctx.grid()
    # non-solenoidal grid field: solenoidal sample plus a gradient
    f = ctx.random_fields(basis, 1, ctx.config.seed + 9, decay=0.08)[0]
    v = synthesize(f, grid)
    x, y = grid.x, grid.y
    gx = x * np.exp(-x ** 2 - y ** 2)
    gy = y * np.exp(-x ** 2 - y ** 2)
    mixed = GridVectorField(grid, v.ux + gx, v.uy + gy)
    proj, rem = helmholtz_project(mixed, basis, grid)
    # idempotence and pythagoras in the quadrature metric
    again, rem2 = helmholtz_project(synthesize(proj, grid), basis, grid)
    idem = float(np.max(np.abs(again.coeffs - proj.coeffs)))
    total = lp_norm(mixed, grid, 2.0) ** 2
    parts = proj.l2() ** 2 + lp_norm(rem, grid, 2.0) ** 2
    pyth = abs(total - parts) / total
    leftover = float(max(np.max(np.abs(rem2.ux)), np.max(np.abs(rem2.uy))))
    return max(idem, pyth, leftover), "projection idempotent, energies split"


@_check("dealiasing", 10.0, sense=">=")
def _check_dealiasing(ctx: VerifyContext):
    basis, tables = _nonlinear_ctx(ctx)
    f = ctx.random_fields(basis, 1, ctx.config.seed + 10, decay=0.3)[0]
    report = dealiasing_check(f, tables)
    return (report.margin, "refinement margin on a decayed-spectrum sample",
            report.passed)


def _small_solve(ctx: VerifyContext, seed: int, mesh_count: int):
    """(traj, report, u0, cfg) of seeded small data at (8, 8) on 64 x 128."""
    cfg = _solver_config(ctx.config, ctx.basis(8, 8), ctx.grid(64, 128),
                         p=4.0, T=0.5, mesh_count=mesh_count)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(cfg.basis.n_modes) * np.exp(-0.1 * cfg.basis.lam)
    u0 = SpectralField(cfg.basis, 1e-3 * c / np.linalg.norm(c))
    return (*picard_solve(u0, cfg), u0, cfg)


@_check("picard-small", lambda config: 10 * config.picard_tol)
def _check_picard_small(ctx: VerifyContext):
    traj, report, u0, cfg = _small_solve(ctx, ctx.config.seed + 11, 64)
    return (residual(traj, u0, cfg),
            f"iterations {report.iterations}, "
            f"ratios {[f'{r:.2e}' for r in report.ratios]}",
            report.converged and not report.diverged)


@_check("etd-agreement", 1e-6)
def _check_etd_agreement(ctx: VerifyContext):
    traj, report, u0, cfg = _small_solve(ctx, ctx.config.seed + 12, 96)
    t_star = 0.1
    mild = evaluate_at(traj, u0, t_star, cfg)
    etd = etd_timestep(u0, t_star / 512, 512, cfg)
    rel = (mild - etd.field(-1)).l2() / etd.field(-1).l2()
    return (rel, "mild evaluation vs two-stage exponential integrator at t = 0.1",
            report.converged)


@_check("duality-pairing", 1e-10)
def _check_duality(ctx: VerifyContext):
    basis = ctx.basis(8, 8)
    grid = ctx.grid()
    fields = ctx.random_fields(basis, 4, ctx.config.seed + 13)
    worst = 0.0
    for i in range(0, len(fields), 2):
        f, g = fields[i], fields[i + 1]
        pair = dual_pairing(f, g, grid)
        worst = max(worst, abs(pair - float(f.coeffs @ g.coeffs)))
    return worst, "band-sum pairing vs spectral inner product"


@_check("weak-star", 1.0, sense="<")
def _check_weak_star(ctx: VerifyContext):
    basis = ctx.basis(8, 8)
    grid = ctx.grid()
    f, g = ctx.random_fields(basis, 2, ctx.config.seed + 14)
    t_seq = np.array([0.4, 0.2, 0.1, 0.05, 0.01, 0.001])
    # the increment pairing <e^{-tA}f - f, .> must vanish with t; against f
    # itself every term carries the same sign, so the decay is strict
    vals = np.abs(weak_star_continuity(f, f, t_seq, grid))
    worst = float(np.max(vals[1:] / vals[:-1]))
    mixed = np.abs(weak_star_continuity(f, g, t_seq, grid))
    settled = bool(mixed[-1] <= 0.1 * mixed[0])
    return (worst, "self-pairing defect strictly decreasing; mixed "
                   "pairing settles to its limit", settled)


@_check("embedding", 4.0)
def _check_embedding(ctx: VerifyContext):
    p, widths = ctx.config.embed_p, ctx.config.embed_widths
    report = embedding_experiment(p, widths, ctx.basis(), ctx.grid())
    # 3/4 of the scaling law's L^p spread (max w / min w)^(1 - 2/p)
    lp_floor = 0.75 * (max(widths) / min(widths)) ** (1.0 - 2.0 / p)
    return (report["besov_spread"],
            f"L{p:g} spread {report['lp_spread']:.3f}, "
            f"weak-L2 spread {report['weak_spread']:.3f}",
            report["weak_spread"] <= 2.0 and report["lp_spread"] > lp_floor)


def verify_checks(config: RunConfig) -> list:
    """Run the checks _resolve_checks(config.checks, config.doubled) names,
    once the config is valid.  Every check runs to completion before the
    result list is returned; nothing short-circuits."""
    _validate_config(config)
    selected = _resolve_checks(config.checks, config.doubled)
    ctx = VerifyContext(config)
    if config.basis_cache:
        ctx.basis()             # refuse a bad cache even if no selected check reads it
    results = []
    for check_id in selected:
        threshold, sense = _LIMITS[check_id]
        if callable(threshold):
            threshold = threshold(config)
        try:
            value, note, *also = {**CHECKS, **DRIFT_CHECKS}[check_id](ctx)
        except (ResolutionError, ConfigError):
            raise
        except Exception as exc:     # a crashed check is a failed check
            value, note, also = INF, f"error: {exc}", [False]
        passed = all(also) and _SENSES[sense](value, threshold)
        results.append(CheckResult(check_id, value, threshold, bool(passed),
                                   sense, note))
    return results


# ---------------------------------------------------------------------------
# artifact writers

def _fmt(x) -> str:
    """Shortest-roundtrip decimal form; byte-stable for identical doubles."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))           # 'inf' and '-inf' included
    return str(x)


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(_sanitize(doc), indent=2, sort_keys=True) + "\n")


def _sanitize(doc):
    """Plain JSON values throughout: numpy scalars and arrays become Python
    ones, and non-finite floats None, so the JSON stays strictly standard."""
    if isinstance(doc, dict):
        return {k: _sanitize(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple, np.ndarray)):
        return [_sanitize(v) for v in doc]
    if isinstance(doc, np.generic):
        doc = doc.item()
    if isinstance(doc, float) and not math.isfinite(doc):
        return None
    return doc


def write_manifest(out_dir: Path, config: RunConfig, artifacts,
                   wall_time: float) -> None:
    from . import __version__
    doc = {
        "format": f"{FORMAT_PREFIX}-manifest/1",
        "version": __version__,
        "config": dataclasses.asdict(config),
        "artifacts": sorted(artifacts),
        "wall_time_s": wall_time,
        "environment": _ENVIRONMENT,
    }
    write_json(out_dir / "manifest.json", doc)


# ---------------------------------------------------------------------------
# experiment drivers

def trajectory_rows(traj: Trajectory, config: SolverConfig, evaluated: Trajectory,
                    terms) -> list:
    """Per-mesh-point diagnostics for the trajectory CSV.

    residual_flag is 1 when the mesh point's integral-equation defect is
    within 10x the Picard tolerance, else 0.  evaluated is
    evaluate_at(traj, u0, traj.times, config) and terms traj's
    trajectory_terms.
    """
    rows = []
    for (t, f), value, block, weighted in zip(traj, evaluated.coeffs, *terms):
        defect = (SpectralField(f.basis, value) - f).l2()
        rows.append([
            float(t),
            f.l2(),
            weighted,
            block,
            0.5 * f.l2() ** 2,
            curl_l2(f, config.grid),
            1 if defect <= 10.0 * config.picard_tol else 0,
        ])
    return rows


def _solver_config(config: RunConfig, basis: Basis, grid: PolarGrid,
                   **pinned) -> SolverConfig:
    """The run's [solver] section as a SolverConfig on (basis, grid); a
    check pins the fields that define it (p, T, mesh_count) in pinned."""
    fields = {"p": config.p, "T": config.T, "mesh_count": config.mesh_count,
              "gamma": config.gamma, "picard_tol": config.picard_tol,
              "max_picard": config.max_picard, **pinned}
    return SolverConfig(basis=basis, grid=grid, **fields)


def run_experiment(config: RunConfig) -> int:
    """Execute one experiment and write its artifacts; returns the exit code."""
    _validate_config(config)
    started = time.monotonic()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = ["summary.json"]
    code = 0

    if config.experiment == "basis":
        basis = _run_basis(config)
        save_basis(basis, out / "basis.json")
        artifacts.append("basis.json")
        summary = {"n_modes": basis.n_modes, "lambda_min": basis.lambda_min,
                   "lambda_max": basis.lambda_max}

    elif config.experiment == "verify":
        results = verify_checks(config)
        write_csv(out / "checks.csv",
                  ["check_id", "value", "threshold", "passed"],
                  [r.row() for r in results])
        artifacts.append("checks.csv")
        failed = [r.check_id for r in results if not r.passed]
        summary = {"checks": [dataclasses.asdict(r) for r in results],
                   "failed": failed, "all_passed": not failed}
        code = 4 if failed else 0

    elif config.experiment == "solve":
        basis = _run_basis(config)
        grid = build_grid(config.radial_order, config.angular_count)
        solver_cfg = _solver_config(config, basis, grid)
        u0 = generate_data(config.data, basis, grid)
        traj, report = picard_solve(u0, solver_cfg)
        evaluated = evaluate_at(traj, u0, traj.times, solver_cfg)
        terms = trajectory_terms(traj, solver_cfg.p, grid)
        write_csv(out / "trajectory.csv",
                  ["t", "l2_norm", "lp_norm_weighted", "besov_crit_norm",
                   "energy", "curl_l2", "residual_flag"],
                  trajectory_rows(traj, solver_cfg, evaluated, terms))
        artifacts.append("trajectory.csv")
        norm = trajectory_norm(traj, solver_cfg.p, grid, terms=terms)
        summary = {"picard": dataclasses.asdict(report),
                   "residual": residual(traj, u0, solver_cfg, evaluated, norm),
                   "trajectory_norm": norm}
        code = 0 if report.converged and not report.diverged else 3

    else:                                   # embed
        basis = _run_basis(config)
        grid = build_grid(config.radial_order, config.angular_count)
        report = embedding_experiment(config.embed_p, config.embed_widths, basis, grid)
        header = ["width", "lp_norm", "weak_l2_proxy", "besov_critical"]
        write_csv(out / "embedding.csv", header,
                  [[r[key] for key in header] for r in report["rows"]])
        artifacts.append("embedding.csv")
        summary = {key: report[key]
                   for key in ("p", "lp_spread", "weak_spread", "besov_spread")}

    write_json(out / "summary.json",
               {"format": f"{FORMAT_PREFIX}-{config.experiment}-summary/1", **summary})
    write_manifest(out, config, artifacts, time.monotonic() - started)
    return code
