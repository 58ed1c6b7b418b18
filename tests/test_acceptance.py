"""Acceptance gate: one test per shipped guarantee.

Each test pins the advertised tolerance and, where stated, a wall-time
budget.  The terminal summary (see conftest) prints one pass/fail line per
criterion.  These tests intentionally re-derive their inputs through the
public machinery rather than reusing unit-test shortcuts.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from stokesbesov import (BesovIndex, SolverConfig, SpectralField,
                         active_bands, besov_norm, beta_function,
                         critical_index, etd_timestep, evaluate_at,
                         gradient_vs_besov, phi, picard_solve, residual,
                         scan_gradient, scan_smoothing, zero_field)
from stokesbesov.basis import COS, boundary_traces
from stokesbesov.harness import (RunConfig, VerifyContext,
                                 _bernstein_stat, _fit_gaussian_constant,
                                 _gram_deviation, _resolved_radius,
                                 _scan_samples,
                                 embedding_experiment, run_experiment)
from stokesbesov.semigroup import kernel_tail_threshold, loglog_slope

from oracles import quad_beta, swirl_l4_norm

LAMBDA_MIN = 5.783185962946785


@pytest.fixture(scope="module")
def ctx():
    return VerifyContext(RunConfig())


def test_criterion_01_partition_reconstruction(ctx):
    started = time.perf_counter()
    basis = ctx.basis()                      # (32, 32)
    bands = active_bands(basis)
    freq = np.sqrt(basis.lam)
    rows = [phi(j, freq) for j in bands]
    worst = 0.0
    for f in ctx.random_fields(basis, 100, ctx.config.seed + 1):
        total = np.zeros(basis.n_modes)
        for row in rows:
            total += row * f.coeffs
        worst = max(worst, float(np.max(np.abs(total - f.coeffs))))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-13
    assert elapsed < 5.0


def test_criterion_02_basis_integrity(ctx):
    started = time.perf_counter()
    basis = ctx.basis()
    assert basis.lambda_min == pytest.approx(5.783185962946785, abs=1e-9)
    normal, curl = boundary_traces(basis)
    assert float(normal.max()) <= 1e-8
    assert float(curl.max()) <= 1e-8
    assert _gram_deviation(basis, ctx.grid()) <= 1e-9
    assert time.perf_counter() - started < 30.0


def test_criterion_03_multiplier_bounds(ctx):
    stats, coarse_bands = _bernstein_stat(ctx.basis(16, 16), ctx.grid(),
                                          ctx.config.seed + 2)
    stats32, fine_bands = _bernstein_stat(ctx.basis(), ctx.grid(),
                                          ctx.config.seed + 2)
    assert set(stats32) == {(2.0, 4.0), (2.0, math.inf), (1.0, 2.0)}
    for pair, (mx, med) in stats32.items():
        assert mx / med <= 10.0, pair
    # stability under truncation doubling, on bands both truncations resolve
    top = min(_resolved_radius(16, 16), _resolved_radius(32, 32))
    compared = 0
    for pair in coarse_bands:
        for j in sorted(set(coarse_bands[pair]) & set(fine_bands[pair])):
            if math.ldexp(1.0, j + 1) > top:
                continue
            c, f = coarse_bands[pair][j], fine_bands[pair][j]
            assert abs(f - c) / c <= 0.25, (pair, j)
            compared += 1
    assert compared > 0


def test_criterion_04_smoothing_scans(ctx):
    started = time.perf_counter()
    basis = ctx.basis()
    samples = _scan_samples(ctx, basis)
    t_grid = np.exp(np.linspace(math.log(1.0 / (10.0 * basis.lambda_min)),
                                0.0, 8))
    for s, s0, p, p0 in ((0.0, 0.0, 4.0, 4.0), (0.0, -0.5, 4.0, 4.0),
                         (1.0, 0.0, 2.0, 4.0)):
        scan = scan_smoothing(s, s0, p, p0, t_grid, samples, ctx.grid())
        assert np.all(np.isfinite(scan.ratio)), (s, s0, p, p0)
        assert scan.slope <= scan.slope_claimed + 0.1, (s, s0, p, p0)
    assert time.perf_counter() - started < 120.0


def test_criterion_05_kernel_gaussian(ctx):
    started = time.perf_counter()
    cs = []
    for trunc in ((16, 16), (32, 32)):
        basis = ctx.basis(*trunc)
        t_lo = max(0.02, 1.2 * kernel_tail_threshold(basis))
        t_values = np.exp(np.linspace(math.log(t_lo), math.log(0.2), 5))
        c = _fit_gaussian_constant(basis, ctx.config.seed + 5, t_values)
        assert math.isfinite(c) and c <= 50.0
        cs.append(c)
    assert abs(cs[1] - cs[0]) / cs[0] <= 0.25
    assert time.perf_counter() - started < 120.0


def test_criterion_06_gradient_constants(ctx):
    started = time.perf_counter()
    t_grid = np.exp(np.linspace(math.log(1e-3), 0.0, 6))
    values = []
    for trunc in ((16, 16), (32, 32)):
        basis = ctx.basis(*trunc)
        samples = _scan_samples(ctx, basis, count=5)
        smooth = scan_gradient(4.0, t_grid, samples, ctx.grid())
        assert np.all(np.isfinite(smooth.ratio))
        assert smooth.max_ratio <= 5.0
        block = gradient_vs_besov(4.0, samples, ctx.grid())
        assert block.max_ratio <= 5.0
        values.append(block.max_ratio)
    assert abs(values[1] - values[0]) / values[0] <= 0.25
    assert time.perf_counter() - started < 60.0


def test_criterion_07_beta_identities():
    assert abs(beta_function(0.5, 0.5) - math.pi) <= 1e-10
    # the two time-weight constants of the bilinear estimate at (d, p) = (2, 4)
    d, p = 2.0, 4.0
    first = beta_function(d / p, 1.0 - d / p)
    second = beta_function(d / p, 0.5 - d / (2.0 * p))
    assert abs(first - quad_beta(d / p, 1.0 - d / p)) <= 1e-8
    assert abs(second - quad_beta(d / p, 0.5 - d / (2.0 * p))) <= 1e-8
    assert second == pytest.approx(5.244115108584239, abs=1e-10)


def test_criterion_08_nonlinear_identities(ctx):
    from stokesbesov.harness import CHECKS, _nonlinear_ctx
    from stokesbesov.nonlinear import dealiasing_check, energy_identity_residual
    basis, tables = _nonlinear_ctx(ctx)
    assert tables.basis is basis
    fields = ctx.random_fields(basis, 100, ctx.config.seed + 6, decay=0.08)
    assert dealiasing_check(fields[0], tables).passed
    worst = max(abs(energy_identity_residual(f, tables).advection) for f in fields)
    assert worst <= 1e-9
    assert CHECKS["nonlinear-homogeneity"](ctx)[0] <= 1e-12
    assert CHECKS["weak-strong"](ctx)[0] <= 1e-7


def test_criterion_09_small_data_solver(ctx):
    started = time.perf_counter()
    basis = ctx.basis(8, 8)
    grid = ctx.grid(64, 128)
    cfg = SolverConfig(basis=basis, grid=grid, p=4.0, T=0.5, mesh_count=64,
                       gamma=3.0, picard_tol=1e-9)

    u0 = zero_field(basis)
    u0.coeffs[0] = 1e-3                       # ground mode, eps = 1e-3
    traj, report = picard_solve(u0, cfg)
    assert report.converged and not report.diverged
    assert all(r < 0.1 for r in report.ratios)
    assert residual(traj, u0, cfg) <= 10.0 * cfg.picard_tol

    mild = evaluate_at(traj, u0, 0.1, cfg)
    etd = etd_timestep(u0, 0.1 / 512, 512, cfg).field(-1)
    assert (mild - etd).l2() / etd.l2() <= 1e-6

    # contraction-rate scaling needs interacting modes; one mode is steady
    direction = zero_field(basis)
    for n in (0, 1):
        direction.coeffs[basis.group_index[(n, COS)][1 - 1]] = 1.0
    quotients = []
    eps = np.array([1e-3, 1e-2, 1e-1])
    for e in eps:
        _, rep = picard_solve(direction * e, cfg)
        assert rep.converged
        quotients.append(rep.ratios[0])
    slope = loglog_slope(eps, np.array(quotients))
    assert abs(slope - 1.0) <= 0.15
    assert time.perf_counter() - started < 300.0


def test_criterion_10_embedding_sharpness(ctx):
    # The bump family is critically scaled, so ||u_h||_4 grows like
    # h^{-1/2} (spread about 2.3 over these widths): the claim is that L^4
    # follows that unbounded law while the weak-L^2 size and the critical
    # Besov norm stay put.
    report = embedding_experiment(4.0, (0.4, 0.2, 0.1), ctx.basis(),
                                  ctx.grid())
    assert report["besov_spread"] <= 4.0
    assert report["weak_spread"] <= 2.0
    for row in report["rows"]:
        exact = swirl_l4_norm(row["width"])
        assert abs(row["lp_norm"] - exact) <= 1e-3 * exact
    assert report["lp_spread"] > report["besov_spread"]


def test_criterion_11_determinism_and_budget(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = dataclasses.replace(RunConfig(), doubled=True, out_dir="run")
    captured = []
    for _ in range(2):
        started = time.perf_counter()
        code = run_experiment(cfg)
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < 600.0
        out = tmp_path / "run"
        captured.append({
            "checks": (out / "checks.csv").read_bytes(),
            "summary": (out / "summary.json").read_bytes(),
            "manifest": json.loads((out / "manifest.json").read_text()),
        })
    first, second = captured
    assert first["checks"] == second["checks"]
    assert first["summary"] == second["summary"]
    first["manifest"].pop("wall_time_s")
    second["manifest"].pop("wall_time_s")
    assert first["manifest"] == second["manifest"]
