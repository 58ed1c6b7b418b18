"""Convection term, projection, dealiasing gates, and energy budgets."""

import gc
import weakref

import numpy as np
import pytest

from stokesbesov import (ResolutionError, SpectralField,
                         build_basis, build_grid, dealiasing_check,
                         energy_identity_residual, helmholtz_project,
                         nonlinear_coeffs, synthesize, zero_field)
from stokesbesov.basis import GridVectorField
from stokesbesov.nonlinear import _convection_coeffs

LAMBDA_MIN = 5.783185962946785


@pytest.fixture(scope="module")
def tables88(basis_88, grid_small):
    return grid_small.tables(basis_88)


def _unit_random(basis, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(basis.n_modes)
    return SpectralField(basis, c / np.linalg.norm(c))


def test_nonlinear_zero_field(basis_88, tables88):
    out = nonlinear_coeffs(zero_field(basis_88), tables88)
    assert not out.coeffs.any()


def test_advection_neutrality(basis_88, tables88):
    # weak-form <N(u), u> vanishes: convection only moves energy around
    for seed in (41, 42, 43):
        u = _unit_random(basis_88, seed)
        n_u = nonlinear_coeffs(u, tables88)
        assert abs(float(n_u.coeffs @ u.coeffs)) < 1e-10


def test_quadratic_homogeneity(basis_88, tables88):
    u = _unit_random(basis_88, 44)
    base = nonlinear_coeffs(u, tables88).coeffs
    scaled = nonlinear_coeffs(SpectralField(basis_88, 3.0 * u.coeffs), tables88).coeffs
    assert np.max(np.abs(scaled - 9.0 * base)) <= 1e-12 * np.max(np.abs(scaled))


def test_single_mode_is_steady(basis_88, tables88):
    """For one real eigenmode the convection term is a pure gradient, so its
    divergence-free part vanishes identically, not just against u itself.
    This is what makes single-mode data useless for contraction-rate studies
    and is asserted here to keep that fact visible."""
    for m in (0, 3, 10, 25):
        u = zero_field(basis_88)
        u.coeffs[m] = 1.0
        out = nonlinear_coeffs(u, tables88)
        assert np.max(np.abs(out.coeffs)) < 1e-9


def _low_order(basis, top, seed):
    """Unit random field on the modes of angular order <= top."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(basis.n_modes) * (basis.angular <= top)
    return SpectralField(basis, c / np.linalg.norm(c))


@pytest.mark.parametrize("trunc,shape,sub", [((4, 4), (32, 96), 13),
                                             ((8, 8), (48, 240), 25),
                                             ((16, 16), (64, 256), 49)])
def test_convection_on_exact_subgrid_matches_full_grid(trunc, shape, sub):
    """nonlinear_coeffs integrates on the 2 n + n_max + 1 angles
    exact_subgrid(2 n + n_max) keeps, none a divisor of the grid's count;
    the integrand's degree is below that count, so the full grid's
    quadrature gives the same coefficients up to rounding, and one angle
    fewer aliases."""
    basis, grid = build_basis(*trunc), build_grid(*shape)
    u = _unit_random(basis, 51)
    assert grid.exact_subgrid(3 * basis.n_max).angular_count == sub
    full = _convection_coeffs(u, grid)
    scale = np.max(np.abs(full))
    got = nonlinear_coeffs(u, grid.tables(basis)).coeffs
    assert np.max(np.abs(got - full)) <= 1e-13 * scale
    aliased = _convection_coeffs(u, grid.exact_subgrid(3 * basis.n_max - 1))
    assert np.max(np.abs(aliased - full)) > 1e-8 * scale


@pytest.mark.parametrize("top", [3, 8])
def test_convection_angle_rule_is_tight(basis_88, grid_small, top):
    """N = 2 n + n_max + 2 angles integrate N(u) exactly; N = 2 n + n_max,
    one even step coarser, aliases the degree-(2 n + n_max) terms."""
    u = _low_order(basis_88, top, 52 + top)
    full = _convection_coeffs(u, grid_small)
    scale = np.max(np.abs(full))
    degree = 2 * top + basis_88.n_max
    exact = _convection_coeffs(u, build_grid(grid_small.radial_order, degree + 2))
    assert np.max(np.abs(exact - full)) <= 1e-13 * scale
    aliased = _convection_coeffs(u, build_grid(grid_small.radial_order, degree))
    assert np.max(np.abs(aliased - full)) > 1e-8 * scale


def test_convection_subgrid_reuses_the_radial_tables(basis_88, monkeypatch):
    """The sub-grid shares the working grid's radial Bessel stack: once the
    working tables exist, N(u) builds no Bessel table."""
    import stokesbesov.basis
    grid = build_grid(32, 128)
    tables = grid.tables(basis_88)
    calls = []
    real = stokesbesov.basis.bessel_j_table

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(stokesbesov.basis, "bessel_j_table", counted)
    nonlinear_coeffs(_unit_random(basis_88, 53), tables)
    assert calls == []
    assert grid.exact_subgrid(3 * basis_88.n_max).angular_count == 25
    assert grid.exact_subgrid(3 * basis_88.n_max)._tables


def test_helmholtz_in_span(basis_88, grid_small):
    u = _unit_random(basis_88, 45)
    v = synthesize(u, grid_small)
    proj, rem = helmholtz_project(v, basis_88, grid_small)
    assert np.max(np.abs(proj.coeffs - u.coeffs)) < 1e-9
    assert max(np.max(np.abs(rem.ux)), np.max(np.abs(rem.uy))) < 1e-9


def test_helmholtz_annihilates_harmonic_gradient(basis_88, grid_small):
    # grad((x^2 - y^2)/2) = (x, -y): orthogonal to every interior-swirl mode
    v = GridVectorField(grid_small, grid_small.x.copy(), -grid_small.y)
    proj, rem = helmholtz_project(v, basis_88, grid_small)
    assert np.max(np.abs(proj.coeffs)) < 1e-9
    assert np.max(np.abs(rem.ux - grid_small.x)) < 1e-9


def test_helmholtz_idempotent(basis_88, grid_small):
    u = _unit_random(basis_88, 46)
    v = synthesize(u, grid_small)
    proj, rem = helmholtz_project(v, basis_88, grid_small)
    again, _ = helmholtz_project(rem, basis_88, grid_small)
    assert np.max(np.abs(again.coeffs)) < 1e-12


def test_dealiasing_passes_on_working_grid(basis_88, tables88):
    report = dealiasing_check(_unit_random(basis_88, 47), tables88)
    assert report.passed
    assert report.margin > 10.0


def test_dealiasing_fails_on_marginal_grid(basis_88):
    # (24, 26) clears the static gate but aliases the quadratic products
    grid = build_grid(24, 26)              # the tables are valid while it lives
    tables = grid.tables(basis_88)
    nonlinear_coeffs(_unit_random(basis_88, 48), tables)
    report = dealiasing_check(_unit_random(basis_88, 48), tables)
    assert not report.passed
    assert report.margin < 1.0


def test_dealiasing_grid_is_freed_when_the_check_returns(basis_88, tables88, monkeypatch):
    """The check's 1.5x grid and its tables go by reference counting alone,
    with the cyclic collector off, when the check returns."""
    import stokesbesov.nonlinear
    built = []
    real = stokesbesov.nonlinear.build_grid

    def recorded(*args):
        grid = real(*args)
        built.append(weakref.ref(grid))
        return grid

    monkeypatch.setattr(stokesbesov.nonlinear, "build_grid", recorded)
    gc.disable()
    try:
        report = dealiasing_check(_unit_random(basis_88, 47), tables88)
        assert len(built) == 1 and built[0]() is None
    finally:
        gc.enable()
    assert report.passed


def test_dealiasing_zero_field(basis_88, tables88):
    report = dealiasing_check(zero_field(basis_88), tables88)
    assert report.passed
    assert report.margin == np.inf
    assert report.scale == 0.0


def test_static_gate_rejects_coarse_grid(basis_88):
    grid = build_grid(16, 64)              # the tables are valid while it lives
    tables = grid.tables(basis_88)
    with pytest.raises(ResolutionError, match=r"grid \(16, 64\) is below the dealiasing "
                       r"margin \(needs radial >= \d+, angular >= 25\)"):
        nonlinear_coeffs(_unit_random(basis_88, 49), tables)


def test_workspace_basis_mismatch(basis_11, tables88):
    with pytest.raises(ValueError):
        nonlinear_coeffs(zero_field(basis_11), tables88)


def test_energy_identities_unit_mode(basis_88, tables88):
    u = zero_field(basis_88)
    u.coeffs[0] = 1.0
    res = energy_identity_residual(u, tables88)
    assert res.advection < 1e-12
    # both dissipation routes should land on lambda_min
    assert res.dissipation_gap < 1e-8 * LAMBDA_MIN


def test_energy_identities_random(basis_88, tables88):
    res = energy_identity_residual(_unit_random(basis_88, 50), tables88)
    assert res.advection < 1e-9
    assert res.dissipation_gap < 1e-7


def test_energy_identities_zero(basis_88, tables88):
    res = energy_identity_residual(zero_field(basis_88), tables88)
    assert res.advection == 0.0
    assert res.dissipation_gap == 0.0


def test_dealiasing_reads_every_coefficient(basis_88, tables88, monkeypatch):
    # an aliasing error planted in any one coefficient of the 1.5x side fails
    # the check, whichever mode carries it
    import stokesbesov.nonlinear as nl
    u = _unit_random(basis_88, 47)
    clean = {}                      # radial order -> N(u) on that side

    def side(grid):
        if grid.radial_order not in clean:
            clean[grid.radial_order] = _convection_coeffs(u, grid)
        return clean[grid.radial_order].copy()

    scale = float(np.abs(side(tables88.grid)).max())
    for m in range(basis_88.n_modes):
        def planted(v, grid, m=m):
            out = side(grid)
            if grid.radial_order != tables88.grid.radial_order:
                out[m] += 1e-5 * scale
            return out
        monkeypatch.setattr(nl, "_convection_coeffs", planted)
        report = dealiasing_check(u, tables88)
        assert not report.passed, m
        assert report.margin < 1.0, m


def test_angular_gate_refuses_exactly_the_aliasing_grids(basis_88, grid_small):
    # 3 n_max + 1 = 25 angles integrate N(u) exactly at top order 8; 24 alias
    u = _unit_random(basis_88, 51)
    ref = _convection_coeffs(u, grid_small)
    scale = float(np.abs(ref).max())
    under, over = build_grid(64, 24), build_grid(64, 26)
    with pytest.raises(ResolutionError, match=r"angular >= 25\)"):
        nonlinear_coeffs(u, under.tables(basis_88))
    assert np.abs(_convection_coeffs(u, under) - ref).max() > 1e-2 * scale
    out = nonlinear_coeffs(u, over.tables(basis_88)).coeffs
    assert np.abs(out - ref).max() <= 1e-13 * scale
