"""Heat semigroup: diagonal flow, kernel matrix, and estimate scans."""

import math

import numpy as np
import pytest

from stokesbesov import (ResolutionError, SpectralField, gradient_lp_norm,
                         gradient_vs_besov, heat_apply, kernel_matrix,
                         kernel_tail_threshold, lp_norm, scan_besov_bounded,
                         scan_gradient, scan_smoothing, weak_star_continuity,
                         zero_field)
from stokesbesov.semigroup import loglog_slope

LAMBDA_MIN = 5.783185962946785


def _unit_mode(basis, m=0):
    f = zero_field(basis)
    f.coeffs[m] = 1.0
    return f


def _embed(field, target):
    """Re-express a low-truncation field in a finer basis by mode label."""
    out = zero_field(target)
    b = field.basis
    for c, n, parity, k in zip(field.coeffs, b.angular, b.parity, b.radial):
        out.coeffs[target.group_index[(n, parity)][k - 1]] = c
    return out


def test_heat_identity_at_zero(basis_88):
    f = _unit_mode(basis_88, 5)
    g = heat_apply(f, 0.0)
    assert np.array_equal(g.coeffs, f.coeffs)
    assert g is not f


def test_heat_rejects_negative_time(basis_88):
    with pytest.raises(ValueError):
        heat_apply(_unit_mode(basis_88), -0.1)


def test_heat_single_mode_decay(basis_88):
    g = heat_apply(_unit_mode(basis_88), 0.1)
    assert g.coeffs[0] == pytest.approx(math.exp(-0.1 * LAMBDA_MIN), rel=1e-14)
    assert not g.coeffs[1:].any()


def test_heat_semigroup_law(basis_88):
    rng = np.random.default_rng(31)
    f = SpectralField(basis_88, rng.standard_normal(basis_88.n_modes))
    one = heat_apply(f, 0.3)
    two = heat_apply(heat_apply(f, 0.1), 0.2)
    assert np.max(np.abs(one.coeffs - two.coeffs)) < 1e-14


def test_kernel_symmetry(basis_88):
    t = 2.0 * kernel_tail_threshold(basis_88)
    x, y = [0.3, 0.1], [-0.2, 0.4]
    kxy = kernel_matrix(x, y, t, basis_88)
    kyx = kernel_matrix(y, x, t, basis_88)
    assert np.max(np.abs(kxy - kyx.T)) < 1e-10


def test_kernel_reproduces_heat_flow():
    """Integrating the kernel against a field must agree with the diagonal
    flow pointwise: K_t acts as e^{-tA} under the grid quadrature."""
    from stokesbesov import build_basis, build_grid
    from stokesbesov.basis import mode_values_at
    basis = build_basis(2, 4)
    grid = build_grid(32, 64)
    rng = np.random.default_rng(32)
    f = SpectralField(basis, rng.standard_normal(basis.n_modes))
    t = 2.0 * kernel_tail_threshold(basis)
    x = np.array([0.25, -0.35])

    pts = np.column_stack([grid.x.ravel(), grid.y.ravel()])
    vals = mode_values_at(basis, pts)               # (P, M, 2)
    fy = np.einsum("pmi,m->pi", vals, f.coeffs)
    w = grid.weights.ravel()
    kern = kernel_matrix(x, pts, t, basis)          # (P, 2, 2): x against every node
    smoothed = np.einsum("pij,pj,p->i", kern, fy, w)

    direct = np.einsum("pmi,m->pi", mode_values_at(basis, x),
                       heat_apply(f, t).coeffs)[0]
    assert np.max(np.abs(smoothed - direct)) < 1e-8


def test_kernel_trace_decay_rate(basis_88, grid_small):
    # for large t the diagonal kernel is dominated by the ground mode, so
    # log K(x0, x0) decays at slope -lambda_min
    x0 = [0.4, 0.0]
    ts = np.linspace(1.0, 2.0, 6)
    vals = np.array([np.trace(kernel_matrix(x0, x0, t, basis_88))
                     for t in ts])
    slope = np.polyfit(ts, np.log(vals), 1)[0]
    assert slope == pytest.approx(-LAMBDA_MIN, rel=1e-2)


def test_kernel_refuses_unresolved_time(basis_88):
    t_min = kernel_tail_threshold(basis_88)
    with pytest.raises(ResolutionError):
        kernel_matrix([0.0, 0.0], [0.1, 0.0], 0.5 * t_min, basis_88)
    # a batch is refused when any one of its times is unresolved
    with pytest.raises(ResolutionError):
        kernel_matrix([[0.0, 0.0], [0.2, 0.1]], [[0.1, 0.0], [0.0, 0.3]],
                      np.array([2.0 * t_min, 0.5 * t_min, 4.0 * t_min]), basis_88)


def test_kernel_batch_matches_scalar_calls(basis_88):
    rng = np.random.default_rng(35)
    r = np.sqrt(rng.uniform(0.0, 0.9, size=(2, 4)))
    th = rng.uniform(0.0, 2 * math.pi, size=(2, 4))
    xs = np.column_stack([r[0] * np.cos(th[0]), r[0] * np.sin(th[0])])
    ys = np.column_stack([r[1] * np.cos(th[1]), r[1] * np.sin(th[1])])
    ts = kernel_tail_threshold(basis_88) * np.array([1.5, 3.0, 10.0])
    batch = kernel_matrix(xs, ys, ts, basis_88)
    assert batch.shape == (3, 4, 2, 2)
    single = np.array([[kernel_matrix(x, y, t, basis_88) for x, y in zip(xs, ys)]
                       for t in ts])
    assert single.shape == (3, 4, 2, 2)
    assert np.array_equal(batch, single)
    assert kernel_matrix(xs, ys, ts[0], basis_88).shape == (4, 2, 2)
    assert kernel_matrix(xs[0], ys[0], ts, basis_88).shape == (3, 2, 2)


def _disk_points(seed, count):
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(0.0, 0.9, count))
    th = rng.uniform(0.0, 2 * math.pi, count)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def test_kernel_blocks_match_per_point_calls(basis_88):
    """45 pairs, one block and a part, and one x against 45 points: every
    entry equals the call on its own pair, bit for bit."""
    xs, ys = _disk_points(36, 45), _disk_points(37, 45)
    ts = kernel_tail_threshold(basis_88) * np.array([1.5, 4.0])
    batch = kernel_matrix(xs, ys, ts, basis_88)
    assert batch.shape == (2, 45, 2, 2)
    single = np.stack([kernel_matrix(x, y, ts, basis_88) for x, y in zip(xs, ys)], axis=1)
    assert np.array_equal(batch, single)
    fan = kernel_matrix(xs[0], ys, ts, basis_88)
    assert fan.shape == (2, 45, 2, 2)
    assert np.array_equal(fan, np.stack([kernel_matrix(xs[0], y, ts, basis_88) for y in ys],
                                        axis=1))
    fan = kernel_matrix(ys, xs[0], ts, basis_88)
    assert np.array_equal(fan, np.stack([kernel_matrix(y, xs[0], ts, basis_88) for y in ys],
                                        axis=1))


def test_kernel_matrix_memory_stays_block_sized(basis_1616):
    """kernel-gaussian's 200 pairs at (16,16): the traced allocation peak
    stays below one side's whole radial rows, (n_max+1, 2, k_max, 200)
    floats, since both sides are evaluated, radial rows included, a block
    of points at a time; two whole mode-value arrays would be four times
    that."""
    import tracemalloc
    basis = basis_1616
    xs, ys = _disk_points(38, 200), _disk_points(39, 200)
    ts = 2.0 * kernel_tail_threshold(basis) * np.arange(1.0, 6.0)
    kernel_matrix(xs[:2], ys[:2], ts, basis)         # the sign table, built once
    rows = 8 * 200 * (basis.n_max + 1) * 2 * basis.k_max
    tracemalloc.start()
    try:
        kernel_matrix(xs, ys, ts, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows < 0.3 * 2 * 8 * 200 * basis.n_modes * 2


def test_besov_bounded_scan(basis_88, grid_small):
    rng = np.random.default_rng(33)
    samples = [SpectralField(basis_88, rng.standard_normal(basis_88.n_modes))
               for _ in range(4)]
    scan = scan_besov_bounded(-0.5, 4.0, math.inf,
                              np.geomspace(1e-8, 1.0, 9), samples, grid_small)
    assert scan.max_ratio <= 1.0 + 1e-9     # diagonal decay can only shrink bands
    # |e^{-t lambda} - 1| <= t lambda_max ~ 1e-5 at the smallest t
    assert scan.lhs[0] == pytest.approx(1.0, abs=1e-4)
    assert scan.skipped == 0


def test_besov_bounded_skips_zero_sample(basis_88, grid_small):
    samples = [zero_field(basis_88), _unit_mode(basis_88)]
    scan = scan_besov_bounded(0.0, 2.0, 2.0, [0.1, 0.2], samples, grid_small)
    assert scan.skipped == 1


def test_smoothing_boundedness_case(basis_88, grid_small):
    # s = s0, p = p0: claimed time power is zero and the measured slope on
    # a mid-range window stays near flat
    rng = np.random.default_rng(34)
    samples = [SpectralField(basis_88, rng.standard_normal(basis_88.n_modes))
               for _ in range(3)]
    t_grid = np.geomspace(1e-4, 1e-3, 6)
    scan = scan_smoothing(0.0, 0.0, 2.0, 2.0, t_grid, samples, grid_small)
    assert scan.slope_claimed == 0.0
    assert scan.slope <= 0.1


def test_smoothing_quarter_power(basis_88, grid_small):
    """(s, s0, p, p0) = (0, -1/2, 4, 4) claims t^{-1/4}.  On data spread
    across several bands the measured decay is at least that fast once t
    reaches the inverse of the lowest eigenvalue, and never slower than
    -0.35 would indicate a wrong exponent model."""
    rng = np.random.default_rng(35)
    samples = [SpectralField(basis_88, rng.standard_normal(basis_88.n_modes))
               for _ in range(3)]
    t_grid = np.geomspace(1.0 / LAMBDA_MIN / 10.0, 1.0 / LAMBDA_MIN, 8)
    scan = scan_smoothing(0.0, -0.5, 4.0, 4.0, t_grid, samples, grid_small)
    assert scan.slope_claimed == pytest.approx(-0.25)
    assert scan.slope <= -0.25 + 0.1


def test_smoothing_profiles_memo_is_exact(basis_88, grid_small):
    """Scans that share one profiles memo give the same ratios, bit for
    bit, as scans that compute every Besov norm afresh; the second scan
    reuses the left-side profiles of the first."""
    rng = np.random.default_rng(36)
    samples = [SpectralField(basis_88, rng.standard_normal(basis_88.n_modes))
               for _ in range(2)]
    t_grid = np.geomspace(1e-3, 1e-1, 3)
    profiles = {}
    for s, s0 in ((0.0, 0.0), (0.0, -0.5)):
        shared = scan_smoothing(s, s0, 4.0, 4.0, t_grid, samples, grid_small,
                                profiles=profiles)
        fresh = scan_smoothing(s, s0, 4.0, 4.0, t_grid, samples, grid_small)
        assert np.array_equal(shared.ratio, fresh.ratio)
    # one profile per (sample, t) on the left and per sample on the right
    assert len(profiles) == len(samples) * (len(t_grid) + 1)


def test_smoothing_validation(basis_88, grid_small):
    with pytest.raises(ValueError):
        scan_smoothing(-1.0, 0.0, 2.0, 2.0, [0.1], [], grid_small)
    with pytest.raises(ValueError):
        scan_smoothing(0.0, 0.0, 4.0, 2.0, [0.1], [], grid_small)
    with pytest.raises(ValueError):
        # s = s0 but p strictly below p0 leaves a negative gap
        scan_smoothing(0.0, 0.0, 2.0, 4.0, [0.1], [], grid_small)
    with pytest.raises(ValueError):
        scan_smoothing(0.5, 0.0, 2.0, 2.0, [-0.1], [_unit_mode(basis_88)],
                       grid_small)


def test_gradient_scan_single_mode(basis_88, grid_small):
    """One eigenmode makes the scan exactly computable: the gradient energy
    of a unit mode is lambda - 2 (the curl carries lambda, the boundary
    swirl returns 2), so the left side is e^{-t lambda} sqrt(lambda - 2)."""
    f = _unit_mode(basis_88)
    t_grid = np.geomspace(1e-3, 1.0, 12)
    scan = scan_gradient(2.0, t_grid, [f], grid_small)
    expect = np.exp(-t_grid * LAMBDA_MIN) * math.sqrt(LAMBDA_MIN - 2.0)
    assert np.max(np.abs(scan.lhs - expect) / expect) < 1e-8
    # ratio t^{1/2} e^{-t lambda} sqrt(lambda - 2) never exceeds the
    # envelope sup_x x e^{-x^2} * sqrt(2) = 1/sqrt(e)
    assert scan.max_ratio <= math.exp(-0.5) + 1e-12
    assert scan.lhs[-1] < 1e-2 * scan.lhs[0]


def test_gradient_scan_rejects_endpoints(basis_88, grid_small):
    with pytest.raises(ValueError):
        scan_gradient(1.0, [0.1], [_unit_mode(basis_88)], grid_small)
    with pytest.raises(ValueError):
        scan_gradient(math.inf, [0.1], [_unit_mode(basis_88)], grid_small)


def test_gradient_vs_besov_single_mode(basis_88, grid_small):
    import stokesbesov as sb
    f = _unit_mode(basis_88)
    scan = gradient_vs_besov(2.0, [f], grid_small)
    root = math.sqrt(LAMBDA_MIN)
    assert scan.lhs[0] == pytest.approx(math.sqrt(LAMBDA_MIN - 2.0), rel=1e-8)
    b = sb.besov_norm(f, sb.BesovIndex(1.0, 2.0, 1.0), grid_small).value
    assert root / 2.0 <= b <= 2.0 * root
    assert scan.rhs_model[0] == pytest.approx(b, rel=1e-12)
    assert scan.max_ratio <= 2.0


def test_gradient_vs_besov_skips_zero(basis_88, grid_small):
    scan = gradient_vs_besov(2.0, [zero_field(basis_88)], grid_small)
    assert scan.skipped == 1
    assert scan.max_ratio == 0.0


def test_gradient_constant_truncation_drift(basis_88, basis_1616, grid_default):
    # the measured constant for fields living on shared low modes must not
    # move when the ambient truncation doubles
    rng = np.random.default_rng(36)
    coarse = [SpectralField(basis_88, rng.standard_normal(basis_88.n_modes))
              for _ in range(3)]
    fine = [_embed(f, basis_1616) for f in coarse]
    a = gradient_vs_besov(4.0, coarse, grid_default).max_ratio
    b = gradient_vs_besov(4.0, fine, grid_default).max_ratio
    assert abs(a - b) / a <= 0.25


def test_weak_star_zero_time(basis_88, grid_small):
    f = _unit_mode(basis_88, 2)
    g = _unit_mode(basis_88, 2)
    vals = weak_star_continuity(f, g, [0.0, 0.05], grid_small)
    assert vals[0] == 0.0
    assert vals[1] != 0.0


def test_weak_star_self_pairing_rate(basis_88, grid_small):
    """<e^{-tA} e - e, e> = e^{-t lambda} - 1, so the values vanish linearly
    with slope -lambda at the origin."""
    f = _unit_mode(basis_88)
    ts = np.array([1e-5, 1e-4, 1e-3])
    vals = weak_star_continuity(f, f, ts, grid_small)
    expect = np.exp(-ts * LAMBDA_MIN) - 1.0
    assert np.max(np.abs(vals - expect)) < 1e-9
    slope = loglog_slope(ts, -vals)
    assert slope == pytest.approx(1.0, abs=1e-2)


def test_weak_star_orthogonal_modes(basis_88, grid_small):
    vals = weak_star_continuity(_unit_mode(basis_88, 0),
                                _unit_mode(basis_88, 7),
                                [0.01, 0.1], grid_small)
    assert np.max(np.abs(vals)) < 1e-10
