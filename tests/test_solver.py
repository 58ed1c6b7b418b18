"""Graded mesh, Duhamel machinery, Picard iteration, and the ETD oracle."""

import csv
import json
import math

import numpy as np
import pytest

from stokesbesov import (BesovIndex, ConfigError, SolverConfig, SpectralField,
                         besov_norm, build_basis, build_grid, critical_index,
                         duhamel_apply, etd_timestep, evaluate_at, heat_apply,
                         linear_trajectory, picard_solve, residual,
                         trajectory_norm, zero_field)
from stokesbesov.cli import main
from stokesbesov.harness import DataSpec, generate_data, load_config
from stokesbesov.semigroup import loglog_slope
from stokesbesov.solver import Trajectory

from oracles import quad_duhamel

LAMBDA_MIN = 5.783185962946785


def _cfg(basis, grid, mesh=16, T=0.5, **kw):
    return SolverConfig(basis=basis, grid=grid, p=4.0, T=T, mesh_count=mesh,
                        **kw)


def _mode_index(basis, n, parity, k):
    return basis.group_index[(n, ("cos", "sin").index(parity))][k - 1]


def _two_mode(basis, eps):
    u = zero_field(basis)
    u.coeffs[_mode_index(basis, 0, "cos", 1)] = eps
    u.coeffs[_mode_index(basis, 1, "cos", 1)] = eps
    return u


def test_mesh_grading(basis_88, grid_small):
    cfg = _cfg(basis_88, grid_small, mesh=10, T=2.0)
    mesh = cfg.mesh()
    assert mesh[0] == 0.0
    assert mesh[-1] == 2.0
    i = np.arange(11, dtype=float)
    assert np.array_equal(mesh, 2.0 * (i / 10.0) ** 3.0)


def test_config_validation(basis_88, grid_small):
    with pytest.raises(ValueError):
        SolverConfig(basis=basis_88, grid=grid_small, p=2.0, T=0.5,
                     mesh_count=8)
    with pytest.raises(ValueError):
        _cfg(basis_88, grid_small, T=0.0)
    with pytest.raises(ValueError):
        _cfg(basis_88, grid_small, mesh=0)
    with pytest.raises(ValueError):
        _cfg(basis_88, grid_small, gamma=0.5)


def test_solver_q_key_rejected(tmp_path, capsys):
    # the solution norm is the sup in time; a q entry would be ignored, so
    # the config loader refuses it like any other unknown key
    path = tmp_path / "q.ini"
    path.write_text("[solver]\nq = 2\n")
    with pytest.raises(ConfigError, match=r"unknown config key \[solver\] q"):
        load_config(path)
    assert main(["solve", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_linear_trajectory_zero_data(basis_88, grid_small):
    cfg = _cfg(basis_88, grid_small)
    traj = linear_trajectory(zero_field(basis_88), cfg)
    assert trajectory_norm(traj, cfg.p, grid=grid_small) == 0.0


def test_linear_bound_mesh_stable(basis_88, grid_small):
    # Y-norm of the heat flow against the critical block norm of the data;
    # the constant must not move when the mesh doubles twice
    rng = np.random.default_rng(61)
    u0 = SpectralField(basis_88, rng.standard_normal(basis_88.n_modes))
    idx = BesovIndex(critical_index(4.0), 4.0, math.inf)
    denom = besov_norm(u0, idx, grid_small).value
    ratios = []
    for mesh in (16, 32, 64):
        cfg = _cfg(basis_88, grid_small, mesh=mesh)
        ratios.append(trajectory_norm(linear_trajectory(u0, cfg), 4.0,
                                      grid=grid_small) / denom)
    assert abs(ratios[-1] - ratios[0]) / ratios[0] <= 0.25


def test_duhamel_zero_forcing(basis_88, grid_small):
    cfg = _cfg(basis_88, grid_small)
    traj = linear_trajectory(zero_field(basis_88), cfg)
    out = duhamel_apply(traj, cfg.mesh_count, cfg)
    assert not out.coeffs.any()


def test_duhamel_constant_forcing(basis_88, grid_small):
    """Constant one-mode forcing has the closed form c (1 - e^{-t lam})/lam,
    which the exponential cell moments reproduce to machine accuracy; an
    adaptive quadrature of the same integral agrees independently."""
    cfg = _cfg(basis_88, grid_small, mesh=12, T=0.8)
    times = cfg.mesh()
    c = 0.7
    coeffs = np.zeros((times.size, basis_88.n_modes))
    coeffs[:, 0] = c
    forcing = Trajectory(basis_88, times, coeffs)
    for idx in (1, 5, 12):
        t = times[idx]
        got = duhamel_apply(forcing, idx, cfg).coeffs[0]
        closed = c * -math.expm1(-t * LAMBDA_MIN) / LAMBDA_MIN
        assert got == pytest.approx(closed, rel=1e-13)
        assert got == pytest.approx(quad_duhamel(lambda s: c, t, LAMBDA_MIN),
                                    rel=1e-10)


def test_duhamel_linear_forcing(basis_88, grid_small):
    # g(s) = s is reproduced exactly by the piecewise-linear moments
    cfg = _cfg(basis_88, grid_small, mesh=12, T=0.8)
    times = cfg.mesh()
    coeffs = np.zeros((times.size, basis_88.n_modes))
    coeffs[:, 0] = times
    forcing = Trajectory(basis_88, times, coeffs)
    t = times[9]
    got = duhamel_apply(forcing, 9, cfg).coeffs[0]
    lam = LAMBDA_MIN
    closed = t / lam - -math.expm1(-t * lam) / lam ** 2
    assert got == pytest.approx(closed, rel=1e-12)
    assert got == pytest.approx(quad_duhamel(lambda s: s, t, lam), rel=1e-10)


def test_duhamel_rejects_foreign_mesh(basis_88, grid_small):
    cfg = _cfg(basis_88, grid_small, mesh=12)
    other = _cfg(basis_88, grid_small, mesh=10)
    traj = linear_trajectory(zero_field(basis_88), other)
    with pytest.raises(ValueError):
        duhamel_apply(traj, 5, cfg)
    with pytest.raises(ValueError):         # past the end of the mesh
        duhamel_apply(linear_trajectory(zero_field(basis_88), cfg), 13, cfg)


def test_picard_zero_data(basis_88, grid_small):
    traj, report = picard_solve(zero_field(basis_88), _cfg(basis_88, grid_small))
    assert report.converged
    assert report.iterations == 1
    assert not traj.coeffs.any()


def test_picard_single_mode_immediate(basis_88, grid_small):
    """One eigenmode is a steady shape: its convection term projects to
    zero, so the heat flow is already the fixed point and the first update
    is pure roundoff."""
    u0 = zero_field(basis_88)
    u0.coeffs[0] = 1e-3
    cfg = _cfg(basis_88, grid_small)
    traj, report = picard_solve(u0, cfg)
    assert report.converged
    assert report.iterations <= 2
    assert report.final_residual <= cfg.picard_tol
    for t, f in traj:
        assert f.coeffs[0] == pytest.approx(1e-3 * math.exp(-t * LAMBDA_MIN),
                                            rel=1e-9)


def test_picard_contraction_scales_with_data(basis_88, grid_small):
    """The first contraction quotient is linear in the data size: fitting
    ratio against eps across two decades gives slope 1.  Needs genuinely
    interacting modes, a single mode produces no quotient at all."""
    cfg = _cfg(basis_88, grid_small, mesh=24)
    eps = np.array([1e-3, 1e-2, 1e-1])
    quotients = []
    for e in eps:
        _, report = picard_solve(_two_mode(basis_88, e), cfg)
        assert report.converged
        quotients.append(report.ratios[0])
    slope = loglog_slope(eps, np.array(quotients))
    assert slope == pytest.approx(1.0, abs=0.15)


def test_trajectory_norm_of_a_nan_field_is_nan(basis_88, grid_small):
    # a NaN update norm must not read as 0.0, or Picard would call it converged
    cfg = _cfg(basis_88, grid_small, mesh=4)
    traj = linear_trajectory(_two_mode(basis_88, 1e-3), cfg)
    traj.coeffs[2] = np.nan
    assert math.isnan(trajectory_norm(traj, cfg.p, grid_small))


@pytest.mark.parametrize("amplitude", [1e100, 1e200])
def test_picard_overflow_reports_diverged(amplitude):
    basis, grid = build_basis(4, 4), build_grid(32, 64)
    u0 = generate_data(DataSpec(kind="band_random", band=2, amplitude=amplitude),
                       basis, grid)
    _, report = picard_solve(u0, _cfg(basis, grid, mesh=4))
    assert report.diverged
    assert not report.converged
    assert not math.isfinite(report.differences[-1])


def test_picard_iteration_counts_on_the_solve_band_truncation(basis_1616, grid_default):
    """Guard for the solver's numerics: band-3 random data at the benchmark's
    solve settings contracts in the same number of Picard steps per seed
    (seeds 2, 4 and 5 take 4, 5 and 5; two seeds keep the test near 1.5 s)."""
    cfg = SolverConfig(basis=basis_1616, grid=grid_default, p=4.0, T=0.5,
                       mesh_count=64, picard_tol=1e-9)
    counts = []
    for seed in (1, 3):
        u0 = generate_data(DataSpec(kind="band_random", band=3, amplitude=1.0, seed=seed),
                           basis_1616, grid_default)
        _, report = picard_solve(u0, cfg)
        assert report.converged
        counts.append(report.iterations)
    assert counts == [4, 5]


_OVERFLOW_INI = """[basis]
n_max = 4
k_max = 4
[grid]
radial_order = 32
angular_count = 64
[solver]
mesh_count = 4
[data]
kind = band_random
band = 2
amplitude = 1e100
"""


def test_cli_solve_exits_3_on_overflow(tmp_path):
    path = tmp_path / "overflow.ini"
    path.write_text(_OVERFLOW_INI)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 3
    picard = json.loads((out / "summary.json").read_text())["picard"]
    assert picard["diverged"] is True
    assert picard["converged"] is False


def test_cli_solve_keeps_tiny_amplitudes(tmp_path):
    # |u|^4 of 1e-100 data underflows to 0 unless the power sum is rescaled
    path = tmp_path / "tiny.ini"
    path.write_text(_OVERFLOW_INI.replace("n_max = 4", "n_max = 6")
                    .replace("k_max = 4", "k_max = 6").replace("1e100", "1e-100"))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["trajectory_norm"] > 0.0
    # the Picard update, about 1e-200, squares to below the smallest double,
    # and so do the defects, up to 1.3e-218
    assert summary["picard"]["differences"][0] > 0.0
    assert summary["residual"] > 0.0
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    column = lines[0].split(",").index("lp_norm_weighted")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 5
    assert all(float(r[column]) > 0.0 for r in rows if float(r[0]) > 0.0)


def test_cli_solve_writes_the_l2_columns_of_tiny_data(tmp_path):
    # band_random normalizes the datum to the amplitude in l2; unscaled, the
    # squares of 1e-200 underflow and l2_norm and curl_l2 read 0.0
    path = tmp_path / "tiny.ini"
    path.write_text(_OVERFLOW_INI.replace("n_max = 4", "n_max = 6")
                    .replace("k_max = 4", "k_max = 6").replace("1e100", "1e-200"))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    with open(out / "trajectory.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    assert float(row["l2_norm"]) == pytest.approx(1e-200, rel=1e-12, abs=0.0)
    assert float(row["curl_l2"]) > 0.0


def test_picard_update_norm_evaluates_a_third_of_its_terms(monkeypatch):
    """The update norm of one Picard step at (8,8) on 32x64, M = 16: the
    exhaustive sup takes 17 x (6 bands + 1) = 119 L^p norms, the bounded
    one at most a third of them, with the same value."""
    import stokesbesov.norms
    import stokesbesov.solver
    from stokesbesov.norms import trajectory_terms
    basis, grid = build_basis(8, 8), build_grid(32, 64)
    u0 = generate_data(DataSpec(kind="band_random", band=2, amplitude=1.0), basis, grid)
    calls, seen = [], []
    real_lp, real_norm = stokesbesov.norms.lp_norm, stokesbesov.solver.trajectory_norm

    def counted_lp(*args):
        calls.append(1)
        return real_lp(*args)

    def recorded_norm(traj, p, grid):
        calls.clear()
        value = real_norm(traj, p, grid)
        seen.append((traj, value, len(calls)))
        return value

    monkeypatch.setattr(stokesbesov.norms, "lp_norm", counted_lp)
    monkeypatch.setattr(stokesbesov.solver, "trajectory_norm", recorded_norm)
    picard_solve(u0, _cfg(basis, grid, mesh=16, max_picard=1))
    (delta, value, bounded), = seen
    calls.clear()
    block, weighted = trajectory_terms(delta, 4.0, grid)
    assert len(calls) == 119
    assert value == float(max(block) + max(weighted))
    assert bounded <= 119 // 3


def test_etd_linear_decay(basis_88, grid_small):
    u0 = zero_field(basis_88)
    u0.coeffs[0] = 1.0
    cfg = _cfg(basis_88, grid_small)
    traj = etd_timestep(u0, 0.01, 20, cfg)
    assert traj.blowup_time is None
    assert traj.times[-1] == pytest.approx(0.2, rel=1e-12)
    for t, f in traj:
        assert f.coeffs[0] == pytest.approx(math.exp(-t * LAMBDA_MIN),
                                            rel=1e-12)


def test_etd_validation(basis_88, grid_small):
    cfg = _cfg(basis_88, grid_small)
    with pytest.raises(ValueError):
        etd_timestep(zero_field(basis_88), 0.0, 5, cfg)
    with pytest.raises(ValueError):
        etd_timestep(zero_field(basis_88), 0.01, 0, cfg)


def test_etd_matches_picard(basis_88, grid_small):
    # two independent discretizations of the mild equation meet at t = 0.1
    u0 = _two_mode(basis_88, 1e-2)
    cfg = _cfg(basis_88, grid_small, mesh=64)
    traj, report = picard_solve(u0, cfg)
    assert report.converged
    via_picard = evaluate_at(traj, u0, 0.1, cfg)
    via_etd = etd_timestep(u0, 0.1 / 256, 256, cfg).field(-1)
    num = np.linalg.norm(via_picard.coeffs - via_etd.coeffs)
    den = np.linalg.norm(via_etd.coeffs)
    assert num / den < 1e-6


def test_evaluate_at_nodes_and_origin(basis_88, grid_small):
    u0 = _two_mode(basis_88, 1e-3)
    cfg = _cfg(basis_88, grid_small, mesh=24)
    traj, report = picard_solve(u0, cfg)
    assert report.converged
    at0 = evaluate_at(traj, u0, 0.0, cfg)
    assert np.array_equal(at0.coeffs, u0.coeffs)
    times = cfg.mesh()
    for i in (1, 12, 24):
        got = evaluate_at(traj, u0, times[i], cfg)
        assert np.max(np.abs(got.coeffs - traj.coeffs[i])) < 1e-8


def test_evaluate_at_array_matches_scalar(basis_88, grid_small):
    u0 = _two_mode(basis_88, 1e-2)
    cfg = _cfg(basis_88, grid_small, mesh=12)
    traj, report = picard_solve(u0, cfg)
    assert report.converged
    mesh = cfg.mesh()
    off = 0.5 * (mesh[:-1] + mesh[1:])
    ts = np.concatenate([mesh, off, [0.3, cfg.T]])
    many = evaluate_at(traj, u0, ts, cfg)
    assert isinstance(many, Trajectory) and np.array_equal(many.times, ts)
    for t, got in many:
        assert np.array_equal(got.coeffs, evaluate_at(traj, u0, t, cfg).coeffs)
    with pytest.raises(ValueError):
        evaluate_at(traj, u0, np.array([0.1, cfg.T + 0.1]), cfg)
    with pytest.raises(ValueError):
        evaluate_at(traj, u0, np.zeros((2, 2)), cfg)


def test_evaluate_at_validation(basis_88, grid_small):
    cfg = _cfg(basis_88, grid_small, mesh=12)
    u0 = zero_field(basis_88)
    traj = linear_trajectory(u0, cfg)
    with pytest.raises(ValueError):
        evaluate_at(traj, u0, cfg.T + 0.1, cfg)
    with pytest.raises(ValueError):
        evaluate_at(traj, u0, -0.1, cfg)
    with pytest.raises(ValueError):
        evaluate_at(traj, u0, 0.1, _cfg(basis_88, grid_small, mesh=10))


def test_residual_linear_single_mode(basis_88, grid_small):
    # no nonlinearity to defect against: the heat flow plugs in exactly
    u0 = zero_field(basis_88)
    u0.coeffs[0] = 1.0
    cfg = _cfg(basis_88, grid_small)
    traj = linear_trajectory(u0, cfg)
    assert residual(traj, u0, cfg) < 1e-12


def test_residual_converged_and_perturbed(basis_88, grid_small):
    u0 = _two_mode(basis_88, 1e-2)
    cfg = _cfg(basis_88, grid_small, mesh=24)
    traj, report = picard_solve(u0, cfg)
    assert report.converged
    base = residual(traj, u0, cfg)
    assert base <= 10.0 * cfg.picard_tol

    bent = traj.coeffs.copy()
    bent[8] *= 1.01
    worse = residual(Trajectory(basis_88, traj.times, bent), u0, cfg)
    assert worse > 100.0 * max(base, 1e-12)
    assert worse > 1e-6


def test_trajectory_rejects_mismatched_coefficients(basis_88, basis_11):
    times = np.array([0.0, 0.1, 0.2])
    Trajectory(basis_88, times, np.zeros((3, basis_88.n_modes)))
    for coeffs in (np.zeros((2, basis_88.n_modes)), np.zeros((3, basis_11.n_modes)),
                   np.zeros(basis_88.n_modes)):
        with pytest.raises(ValueError, match="does not match"):
            Trajectory(basis_88, times, coeffs)


def test_residual_rejects_foreign_mesh(basis_88, grid_small):
    cfg = _cfg(basis_88, grid_small, mesh=12)
    traj = linear_trajectory(zero_field(basis_88), cfg)
    with pytest.raises(ValueError):
        residual(traj, zero_field(basis_88), _cfg(basis_88, grid_small, mesh=8))
