"""Mild solutions of the projected Navier-Stokes equation on the disk.

The integral equation is solved in coefficient space,

    u(t) = e^{-tA} u0 - integral_0^t e^{-(t-s)A} N(u)(s) ds,

by Picard iteration on a graded mesh t_i = T (i/M)^gamma.  The grading
absorbs the t -> 0 weight singularity of the critical norms (the Duhamel
integrand carries a tau^{-(1-d/p)} factor near zero); gamma = 3 integrates
that weight accurately with piecewise-linear interpolation for every p > 2.

Duhamel integrals use exact exponential moments per mode and mesh cell: for
forcing linear on a cell of width h and decay z = lambda h,

    integral = a(z) g_left + b(z) g_right,
    a = (g(z) - e^{-z})/lambda,  b = (1 - g(z))/lambda,  g(z) = (1-e^{-z})/z,

so there is no stiffness restriction from lambda_max; small z switches to
series to dodge cancellation.  A second-order exponential integrator
(etd_timestep) provides an independent discretization of the same equation
for cross-validation; divergence and blow-up are reported, never raised.

A Trajectory is one (len(times), n_modes) coefficient array; the Picard
updates, the Duhamel sweeps and evaluate_at act on whole arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import Basis, PolarGrid, SpectralField, coeff_l2
from .nonlinear import nonlinear_coeffs
from .norms import D, trajectory_norm
from .semigroup import heat_apply

_SERIES_Z = 1e-4


@dataclass(eq=False, frozen=True)
class SolverConfig:
    basis: Basis
    grid: PolarGrid
    p: float
    T: float
    mesh_count: int
    gamma: float = 3.0
    picard_tol: float = 1e-9
    max_picard: int = 25

    def __post_init__(self):
        if not (D < self.p < math.inf):
            raise ValueError("solver requires 2 < p < inf")
        if not (self.T > 0.0):
            raise ValueError("horizon T must be positive")
        if self.mesh_count < 1:
            raise ValueError("mesh needs at least one cell")
        if not self.gamma >= 1.0:
            raise ValueError("grading exponent must be >= 1")

    def mesh(self) -> np.ndarray:
        i = np.arange(self.mesh_count + 1, dtype=float)
        return self.T * (i / self.mesh_count) ** self.gamma


@dataclass(eq=False)
class Trajectory:
    """Finite sample of a solution path: row i of the (len(times), n_modes)
    array coeffs is the field at times[i]."""

    basis: Basis
    times: np.ndarray
    coeffs: np.ndarray
    blowup_time: float | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (len(self.times), self.basis.n_modes):
            raise ValueError("coefficient array does not match the times and the basis size")

    def field(self, i: int) -> SpectralField:
        return SpectralField(self.basis, self.coeffs[i])

    def __iter__(self):
        return ((t, self.field(i)) for i, t in enumerate(self.times))


@dataclass(frozen=True)
class PicardReport:
    differences: tuple            # Y-norm of successive iterate differences
    ratios: tuple                 # contraction quotients of the above
    final_residual: float
    iterations: int
    converged: bool
    diverged: bool


def _cell_step(acc, left, right, h, lam: np.ndarray) -> np.ndarray:
    """e^{-lambda h} acc plus the exact moment (a, b of the module docstring)
    of a forcing linear from left to right over a cell of width h; series
    below z = 1e-4, where the closed forms cancel."""
    z = lam * h
    small = z < _SERIES_Z
    zs = np.where(small, 1.0, z)            # keep the closed form finite
    ez = np.exp(-zs)
    g = -np.expm1(-zs) / zs
    a = np.where(small,
                 z / 2.0 - z * z / 3.0 + z ** 3 / 8.0 - z ** 4 / 30.0,
                 g - ez)
    b = np.where(small,
                 z / 2.0 - z * z / 6.0 + z ** 3 / 24.0 - z ** 4 / 120.0,
                 1.0 - g)
    return np.exp(-z) * acc + (a * left + b * right) / lam


def linear_trajectory(u0: SpectralField, config: SolverConfig) -> Trajectory:
    """Heat flow of the data sampled on the graded mesh."""
    times = config.mesh()
    return Trajectory(u0.basis, times, np.stack([heat_apply(u0, t).coeffs for t in times]))


def _duhamel_sweep(forcing_coeffs: np.ndarray, times: np.ndarray,
                   lam: np.ndarray) -> np.ndarray:
    """All mesh-point Duhamel integrals of a piecewise-linear forcing.

    forcing_coeffs has shape (len(times), n_modes); returns the same shape:
    row i is integral_0^{t_i} e^{-(t_i - s) lambda} forcing(s) ds, built by
    the stable recurrence I_i = e^{-lambda h_i} I_{i-1} + cell_i.
    """
    out = np.zeros_like(forcing_coeffs)
    acc = np.zeros_like(lam)
    for i in range(1, times.size):
        acc = _cell_step(acc, forcing_coeffs[i - 1], forcing_coeffs[i],
                         times[i] - times[i - 1], lam)
        out[i] = acc
    return out


def duhamel_apply(forcing: Trajectory, t_index: int, config: SolverConfig) -> SpectralField:
    """Duhamel integral of a forcing trajectory at mesh point t_index."""
    times = config.mesh()[:t_index + 1]
    if times.size <= t_index or not np.array_equal(forcing.times[:t_index + 1], times):
        raise ValueError("forcing is not sampled on the config mesh up to t_index")
    swept = _duhamel_sweep(forcing.coeffs[:t_index + 1], times, config.basis.lam)
    return SpectralField(config.basis, swept[t_index])


def mild_forcing(traj: Trajectory, config: SolverConfig):
    """The forcing side of a mesh trajectory's mild formula, one row per mesh
    time: (N(u) at every mesh field, its mesh-point Duhamel integrals).
    Checks that traj is sampled on the config mesh."""
    times = config.mesh()
    if not np.array_equal(traj.times, times):
        raise ValueError("trajectory is not sampled on the config mesh")
    tables = config.grid.tables(config.basis)
    forcing = np.stack([nonlinear_coeffs(f, tables).coeffs for _, f in traj])
    return forcing, _duhamel_sweep(forcing, times, config.basis.lam)


def picard_solve(u0: SpectralField, config: SolverConfig):
    """Fixed-point iteration for the integral equation.

    Starts from the heat flow and applies the Duhamel map until the
    solution-space norm of the update drops below picard_tol.  Divergence
    (update ratio >= 1 three times in a row, or an update norm that is not
    finite) stops the iteration and is reported, not raised: contraction is
    only guaranteed for small data.
    """
    times = config.mesh()
    linear = current = linear_trajectory(u0, config).coeffs
    diffs, ratios = [], []
    converged = diverged = False
    rising = 0
    iterations = 0
    for iterations in range(1, config.max_picard + 1):
        updated = linear - mild_forcing(Trajectory(config.basis, times, current),
                                        config)[1]
        diff = trajectory_norm(Trajectory(config.basis, times, updated - current),
                               config.p, config.grid)
        diffs.append(diff)
        if len(diffs) >= 2 and diffs[-2] > 0.0:
            ratio = diffs[-1] / diffs[-2]
            ratios.append(ratio)
            rising = rising + 1 if ratio >= 1.0 else 0
        current = updated
        if diff <= config.picard_tol:
            converged = True
            break
        if rising >= 3 or not math.isfinite(diff):
            diverged = True
            break
    traj = Trajectory(config.basis, times, current)
    report = PicardReport(differences=tuple(diffs), ratios=tuple(ratios),
                          final_residual=diffs[-1] if diffs else 0.0,
                          iterations=iterations, converged=converged,
                          diverged=diverged)
    return traj, report


def _phi12(z: np.ndarray):
    """phi1(z) = (1 - e^{-z})/z and phi2(z) = (e^{-z} - 1 + z)/z^2."""
    small = z < _SERIES_Z
    zs = np.where(small, 1.0, z)
    phi1 = np.where(small,
                    1.0 - z / 2.0 + z * z / 6.0 - z ** 3 / 24.0,
                    -np.expm1(-zs) / zs)
    phi2 = np.where(small,
                    0.5 - z / 6.0 + z * z / 24.0 - z ** 3 / 120.0,
                    (np.expm1(-zs) + zs) / (zs * zs))
    return phi1, phi2


def etd_timestep(u0: SpectralField, dt: float, steps: int,
                 config: SolverConfig) -> Trajectory:
    """Second-order exponential time differencing on a uniform step.

    The linear part is propagated exactly by e^{-dt lambda}; the
    nonlinearity enters through the standard two-stage phi1/phi2 update.
    This is an independent discretization of the same mild equation, used
    as an oracle for picard_solve.  Non-finite values end the run early and
    stamp blowup_time with the last valid time.
    """
    if dt <= 0.0 or steps < 1:
        raise ValueError("need dt > 0 and at least one step")
    if not math.isfinite(dt * config.basis.lambda_max):
        raise ValueError("dt * lambda_max is not finite")
    tables = config.grid.tables(config.basis)
    z = config.basis.lam * dt
    decay = np.exp(-z)
    phi1, phi2 = _phi12(z)
    rows = [u0.coeffs.copy()]
    blowup = None
    for _ in range(steps):
        u = rows[-1]
        f_u = -nonlinear_coeffs(SpectralField(config.basis, u), tables).coeffs
        stage = decay * u + dt * phi1 * f_u
        f_s = -nonlinear_coeffs(SpectralField(config.basis, stage), tables).coeffs
        nxt = stage + dt * phi2 * (f_s - f_u)
        if not np.all(np.isfinite(nxt)):
            blowup = (len(rows) - 1) * dt
            break
        rows.append(nxt)
    return Trajectory(config.basis, np.arange(len(rows)) * dt, np.array(rows),
                      blowup_time=blowup)


def evaluate_at(traj: Trajectory, u0: SpectralField, t, config: SolverConfig):
    """Mild evaluation of a mesh trajectory at an arbitrary time in [0, T]:

        u(t) = e^{-tA} u0 - integral_0^t e^{-(t-s)A} N(u)(s) ds

    with N(u) interpolated linearly between its mesh samples.  Exact for the
    interpolant (partial-cell exponential moments), so mesh points reproduce
    the stored fields and off-mesh times carry only interpolation error.

    t is a scalar (one SpectralField back) or a 1-D array of times (a
    Trajectory on those times, all from one forcing evaluation).
    """
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError("evaluation times must be a scalar or a 1-D array")
    if not np.all((ts >= 0.0) & (ts <= config.T)):
        raise ValueError("evaluation time outside the trajectory horizon")
    forcing, swept = mild_forcing(traj, config)
    times = traj.times
    lam = config.basis.lam
    flat = ts.reshape(-1)
    # the cell of each time; t == T lies in the last cell
    j = np.minimum(np.searchsorted(times, flat, side="right") - 1, times.size - 2)
    acc = swept[j]
    part = np.flatnonzero(flat > times[j])        # off-mesh times: partial cells
    jp = j[part]
    h = (flat[part] - times[jp])[:, None]
    cell_w = (times[jp + 1] - times[jp])[:, None]
    g_right = forcing[jp] + (forcing[jp + 1] - forcing[jp]) * (h / cell_w)
    acc[part] = _cell_step(acc[part], forcing[jp], g_right, h, lam)
    values = -flat[:, None] * lam
    np.exp(values, out=values)
    values *= u0.coeffs
    values -= acc
    if ts.ndim == 0:
        return SpectralField(config.basis, values[0])
    return Trajectory(config.basis, ts, values)


def residual(traj: Trajectory, u0: SpectralField, config: SolverConfig,
             evaluated: Trajectory | None = None, scale: float | None = None) -> float:
    """Defect of the integral equation over the mesh, relative to the
    trajectory's own solution-space norm: the largest L^2 distance between
    a mesh field and evaluate_at at its time (the defect trajectory_rows
    flags point by point).

    evaluated (evaluate_at(traj, u0, traj.times, config)) and scale (traj's
    trajectory_norm) are computed here when not given.
    """
    if evaluated is None:
        evaluated = evaluate_at(traj, u0, traj.times, config)
    defect = evaluated.coeffs - traj.coeffs
    worst = max(coeff_l2(row) for row in defect)
    if scale is None:
        scale = trajectory_norm(traj, config.p, config.grid)
    return worst / scale if scale > 0.0 else worst
