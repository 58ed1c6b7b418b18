"""L^p, dyadic-block, pairing, trajectory, and tail norms."""

import math
import warnings

import numpy as np
import oracles
import pytest

from stokesbesov import (BesovIndex, SpectralField, TruncationWarning,
                         active_bands, apply_band, besov_norm, build_basis,
                         build_grid, critical_index, dual_pairing, heat_apply,
                         lp_norm, picard_solve, tail_smallness, trajectory_norm,
                         zero_field)
from stokesbesov.basis import (COS, SIN, GridVectorField, field_gradient_values,
                               mode_values_at, synthesize)
from stokesbesov.norms import INF, _term_bounds, gradient_lp_norm, trajectory_terms
from stokesbesov.solver import SolverConfig, Trajectory, linear_trajectory

LAMBDA_MIN = 5.783185962946785


def test_critical_index():
    assert critical_index(4.0) == -0.5
    assert critical_index(2.0) == 0.0


def test_lp_norm_zero(basis_88, grid_small):
    assert lp_norm(zero_field(basis_88), grid_small, 4.0) == 0.0


def test_lp_norm_constant_magnitude(grid_small):
    # |u| = 1 everywhere gives pi^(1/p) (disk area pi)
    ones = GridVectorField(grid_small, np.ones(grid_small.shape),
                           np.zeros(grid_small.shape))
    for p in (1.0, 2.0, 4.0):
        assert lp_norm(ones, grid_small, p) == pytest.approx(
            math.pi ** (1.0 / p), rel=1e-13)
    assert lp_norm(ones, grid_small, INF) == pytest.approx(1.0, rel=1e-13)


def test_lp_norm_unit_mode(basis_88, grid_small):
    f = zero_field(basis_88)
    f.coeffs[3] = 1.0
    assert lp_norm(f, grid_small, 2.0) == pytest.approx(1.0, abs=1e-9)


def test_lp_norm_rejects_bad_p(basis_88, grid_small):
    with pytest.raises(ValueError):
        lp_norm(zero_field(basis_88), grid_small, 0.5)


def test_besov_022_comparable_to_l2(basis_88, grid_small):
    """s=0, p=q=2 is the l^2 aggregate of band L^2 norms.  Each eigenvalue
    is covered by at most two bands whose phi values sum to 1, so
    sum_j phi_j^2 lies in [1/2, 1] and the block norm matches the L^2 norm
    within [1/sqrt(3), sqrt(3)] (comfortably: the true factor is sqrt(2))."""
    idx = BesovIndex(0.0, 2.0, 2.0)
    rng = np.random.default_rng(21)
    for _ in range(5):
        c = rng.standard_normal(basis_88.n_modes)
        f = SpectralField(basis_88, c)
        block = besov_norm(f, idx, grid_small).value
        l2 = float(np.linalg.norm(c))
        assert l2 / math.sqrt(3.0) <= block <= l2 * math.sqrt(3.0)


def test_besov_plateau_mode_exact():
    # synthetic eigenvalue on the dyadic plateau: only phi_2 is nonzero there,
    # with value exactly 1, so the norm is 2^(2s) times the band L^p norm
    basis = build_basis(0, 1)
    basis.lam[0] = 16.0
    grid = build_grid(32, 64)
    f = SpectralField(basis, np.array([0.7]))
    for s in (-0.5, 0.0, 1.0):
        for q in (1.0, 2.0, INF):
            report = besov_norm(f, BesovIndex(s, 2.0, q), grid)
            base = lp_norm(f, grid, 2.0)
            assert report.value == pytest.approx(2.0 ** (2 * s) * base, rel=1e-12)
            hot = [j for j, v in report.bands if v > 0.0]
            assert hot == [2]


def test_besov_zero_field(basis_88, grid_small):
    assert besov_norm(zero_field(basis_88), BesovIndex(-0.5, 4.0, INF),
                      grid_small).value == 0.0


def test_besov_index_validation():
    with pytest.raises(ValueError):
        BesovIndex(0.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        BesovIndex(0.0, 2.0, 0.0)


def test_dual_pairing_single_mode(basis_88, grid_small):
    f = zero_field(basis_88)
    f.coeffs[4] = 1.0
    assert dual_pairing(f, f, grid_small) == pytest.approx(1.0, abs=1e-9)


def test_dual_pairing_orthogonal_modes(basis_88, grid_small):
    f = zero_field(basis_88)
    g = zero_field(basis_88)
    f.coeffs[2] = 1.0
    g.coeffs[9] = 1.0
    assert abs(dual_pairing(f, g, grid_small)) < 1e-10


def test_dual_pairing_is_l2_pairing(basis_88, grid_small):
    rng = np.random.default_rng(22)
    f = SpectralField(basis_88, rng.standard_normal(basis_88.n_modes))
    g = SpectralField(basis_88, rng.standard_normal(basis_88.n_modes))
    assert dual_pairing(f, g, grid_small) == pytest.approx(
        float(f.coeffs @ g.coeffs), abs=1e-10)


def test_dual_pairing_hoelder_on_bands(basis_88, grid_small):
    # |<f, g>| <= C ||f||_{s,p,q} ||g||_{-s,p',q'}; the band-wise Hoelder
    # constant stays below 3 on random data
    rng = np.random.default_rng(23)
    idx_f = BesovIndex(0.5, 2.0, 2.0)
    idx_g = BesovIndex(-0.5, 2.0, 2.0)
    for _ in range(10):
        f = SpectralField(basis_88, rng.standard_normal(basis_88.n_modes))
        g = SpectralField(basis_88, rng.standard_normal(basis_88.n_modes))
        lhs = abs(dual_pairing(f, g, grid_small))
        rhs = (besov_norm(f, idx_f, grid_small).value
               * besov_norm(g, idx_g, grid_small).value)
        assert lhs <= 3.0 * rhs


def _solver_cfg(basis, grid, mesh=16, T=1.0):
    return SolverConfig(basis=basis, grid=grid, p=4.0, T=T, mesh_count=mesh)


def test_trajectory_norm_zero(basis_88, grid_small):
    cfg = _solver_cfg(basis_88, grid_small)
    traj = linear_trajectory(zero_field(basis_88), cfg)
    assert trajectory_norm(traj, 4.0, grid=grid_small) == 0.0


def test_trajectory_norm_single_snapshot(basis_88, grid_small):
    f = zero_field(basis_88)
    f.coeffs[0] = 1.0
    t0 = 0.3
    traj = Trajectory(basis_88, np.array([t0]), f.coeffs[None])
    idx = BesovIndex(critical_index(4.0), 4.0, INF)
    expect = (besov_norm(f, idx, grid_small).value
              + t0 ** 0.25 * lp_norm(f, grid_small, 4.0))
    assert trajectory_norm(traj, 4.0, grid=grid_small) == pytest.approx(
        expect, rel=1e-12)


def test_trajectory_weight_maximizer(basis_88, grid_small):
    """For heat flow of one mode the weighted term t^alpha e^{-lambda t} |e|_p
    peaks at t* = alpha / lambda (calculus); a dense scan over the mesh must
    locate the same maximizer within mesh resolution."""
    lam = LAMBDA_MIN
    alpha = 0.25                      # (1 - d/p)/2 at p = 4, d = 2
    t_star = alpha / lam
    f = zero_field(basis_88)
    f.coeffs[0] = 1.0
    times = np.linspace(1e-4, 6 * t_star, 400)
    vals = [t ** alpha * lp_norm(heat_apply(f, t), grid_small, 4.0)
            for t in times]
    measured = times[int(np.argmax(vals))]
    assert measured == pytest.approx(t_star, rel=0.05)


def test_trajectory_norm_validates_input(basis_88, grid_small):
    cfg = _solver_cfg(basis_88, grid_small)
    traj = linear_trajectory(zero_field(basis_88), cfg)
    with pytest.raises(ValueError):
        trajectory_norm(traj, 2.0, grid=grid_small)      # needs p > d
    bad = Trajectory(basis_88, np.array([0.2, 0.1]), np.zeros((2, basis_88.n_modes)))
    with pytest.raises(ValueError):
        trajectory_norm(bad, 4.0, grid=grid_small)


def test_tail_smallness_band_limited(basis_88, grid_small):
    # all energy below band J: the tail beyond J is empty
    f = zero_field(basis_88)
    f.coeffs[0] = 1.0                 # sqrt(lambda) = 2.4, bands 1-2 only
    assert tail_smallness(f, 4.0, 3, grid_small) == 0.0


def test_tail_smallness_equals_besov_at_jlo(basis_88, grid_small):
    from stokesbesov import active_bands
    rng = np.random.default_rng(24)
    f = SpectralField(basis_88, rng.standard_normal(basis_88.n_modes))
    j_lo = active_bands(basis_88)[0]
    full = besov_norm(f, BesovIndex(critical_index(4.0), 4.0, INF),
                      grid_small).value
    assert tail_smallness(f, 4.0, j_lo, grid_small) == pytest.approx(
        full, rel=1e-12)


def test_tail_smallness_homogeneous(basis_88, grid_small):
    rng = np.random.default_rng(25)
    f = SpectralField(basis_88, rng.standard_normal(basis_88.n_modes))
    base = tail_smallness(f, 4.0, 4, grid_small)
    scaled = tail_smallness(3.5 * f, 4.0, 4, grid_small)
    assert scaled == pytest.approx(3.5 * base, rel=1e-12)


@pytest.mark.parametrize("p", [3.0, 4.0, 7.5])
def test_tail_smallness_is_the_band_expression_bit_for_bit(basis_88, grid_small, p):
    rng = np.random.default_rng(26)
    s, bands = critical_index(p), active_bands(basis_88)
    c = rng.standard_normal(basis_88.n_modes)
    fields = (SpectralField(basis_88, c), SpectralField(basis_88, 1e-300 * c),
              SpectralField(basis_88, c * np.exp(-0.05 * basis_88.lam)))
    for f in fields:
        for J in (bands[0] - 1, bands[0] + 2, bands[-1]):
            expected = float(np.max([2.0 ** (j * s) * lp_norm(apply_band(f, j), grid_small, p)
                                     for j in bands if j >= J]))
            assert tail_smallness(f, p, J, grid_small) == expected, J


def test_zero_fields_cost_no_norm_evaluation(basis_88, grid_small, monkeypatch):
    # a zero field reads 0.0 without a synthesis or a power sum, once its
    # arguments have passed the checks every other field meets
    import stokesbesov.norms as norms
    from stokesbesov.basis import ModeTables
    calls = []
    inner_sq, inner_lines = norms._lp_from_squares, ModeTables.lines
    monkeypatch.setattr(norms, "_lp_from_squares",
                        lambda *a, **k: calls.append(a[2]) or inner_sq(*a, **k))
    monkeypatch.setattr(ModeTables, "lines",
                        lambda *a, **k: calls.append("lines") or inner_lines(*a, **k))
    zero = zero_field(basis_88)
    samples = GridVectorField(grid_small, np.zeros(grid_small.shape), np.zeros(grid_small.shape))
    assert lp_norm(zero, grid_small, 4.0) == 0.0
    assert lp_norm(zero, grid_small, INF) == 0.0
    assert lp_norm(samples, grid_small, 3.0) == 0.0
    assert gradient_lp_norm(zero, grid_small, 4.0) == 0.0
    assert besov_norm(zero, BesovIndex(0.0, 4.0, 1.0), grid_small).value == 0.0
    assert calls == []
    for bad in (0.5, math.nan):
        with pytest.raises(ValueError):
            lp_norm(zero, grid_small, bad)
        with pytest.raises(ValueError):
            gradient_lp_norm(zero, grid_small, bad)
    with pytest.raises(ValueError, match="do not match"):
        lp_norm(samples, build_grid(16, 32), 4.0)
    assert calls == []


def test_tail_smallness_of_a_nan_field_is_nan():
    # NaN data must not read as small: max() would drop the NaN bands
    from stokesbesov import active_bands
    basis = build_basis(4, 4)
    f = zero_field(basis)
    f.coeffs[3] = np.nan
    assert math.isnan(tail_smallness(f, 4.0, active_bands(basis)[0], build_grid(32, 64)))


def test_tail_smallness_warns_beyond_truncation(basis_88, grid_small):
    f = SpectralField(basis_88, np.ones(basis_88.n_modes))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TruncationWarning):
            tail_smallness(f, 4.0, 40, grid_small)


def _hypot_lp(ux, uy, grid, p):
    return float(np.sum(grid.weights * np.hypot(ux, uy) ** p) ** (1.0 / p))


@pytest.mark.parametrize("p", [2.0, 4.0, 6.0])
def test_even_p_matches_hypot_quadrature(basis_88, grid_small, p):
    rng = np.random.default_rng(21)
    f = SpectralField(basis_88, rng.standard_normal(basis_88.n_modes))
    v = synthesize(f, grid_small)
    want = _hypot_lp(v.ux, v.uy, grid_small, p)
    assert lp_norm(f, grid_small, p) == pytest.approx(want, rel=1e-13)
    assert lp_norm(v, grid_small, p) == pytest.approx(want, rel=1e-13)


def test_gradient_lp_norm_matches_frobenius_quadrature(basis_88, grid_small):
    rng = np.random.default_rng(22)
    f = SpectralField(basis_88, rng.standard_normal(basis_88.n_modes))
    ten = field_gradient_values(f, grid_small)
    mag = np.sqrt(np.sum(ten * ten, axis=(2, 3)))
    for p in (2.0, 3.5, 4.0, 6.0):
        want = float(np.sum(grid_small.weights * mag ** p) ** (1.0 / p))
        assert gradient_lp_norm(f, grid_small, p) == pytest.approx(want, rel=1e-13)


def test_lp_norm_sup_and_fractional_p(basis_88, grid_small):
    rng = np.random.default_rng(23)
    v = synthesize(SpectralField(basis_88, rng.standard_normal(basis_88.n_modes)),
                   grid_small)
    assert lp_norm(v, grid_small, INF) == pytest.approx(
        float(np.hypot(v.ux, v.uy).max()), rel=1e-15)
    assert lp_norm(v, grid_small, 2.5) == pytest.approx(
        _hypot_lp(v.ux, v.uy, grid_small, 2.5), rel=1e-13)


def _low_order(basis, top, seed):
    """Random field on the modes of angular order <= top."""
    rng = np.random.default_rng(seed)
    return SpectralField(basis, rng.standard_normal(basis.n_modes) * (basis.angular <= top))


@pytest.fixture(scope="module")
def grid_wide():
    return build_grid(48, 256)


@pytest.mark.parametrize("top", [1, 2, 4])
@pytest.mark.parametrize("p", [2.0, 4.0, 6.0])
def test_even_p_large_strides_match_full_grid(basis_88, grid_wide, top, p):
    f = _low_order(basis_88, top, 30 + top)
    assert grid_wide.exact_subgrid(int(p) * top).angular_count <= grid_wide.angular_count // 8
    v = synthesize(f, grid_wide)
    assert lp_norm(f, grid_wide, p) == pytest.approx(
        _hypot_lp(v.ux, v.uy, grid_wide, p), rel=1e-13)
    ten = field_gradient_values(f, grid_wide)
    mag = np.sqrt(np.sum(ten * ten, axis=(2, 3)))
    want = float(np.sum(grid_wide.weights * mag ** p) ** (1.0 / p))
    assert gradient_lp_norm(f, grid_wide, p) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_axisymmetric_mode_l4_matches_radial_oracle(basis_88, grid_small, k):
    f = zero_field(basis_88)
    f.coeffs[basis_88.group_index[(0, COS)][k - 1]] = 1.0
    # rotation invariant: the rule keeps a single angle
    assert grid_small.exact_subgrid(4 * 0).angular_count == 1
    assert lp_norm(f, grid_small, 4.0) == pytest.approx(
        oracles.axisymmetric_mode_lp(k, 4.0), rel=1e-12)


@pytest.mark.parametrize("top,p", [(2, 4.0), (4, 2.0), (4, 4.0), (8, 2.0), (8, 4.0)])
def test_angle_rule_is_tight(basis_88, grid_wide, top, p):
    """The rule keeps N = p n + 1 angles for these fields, n the top order;
    N = p n, one fewer, aliases the degree-p n term of |u|^p and
    |grad u|^p into the mean and misses."""
    f = _low_order(basis_88, top, 40 + top)
    count = grid_wide.exact_subgrid(int(p) * top).angular_count
    assert count == int(p) * top + 1
    coarse = build_grid(grid_wide.radial_order, int(p) * top)
    v = synthesize(f, coarse)
    assert abs(lp_norm(v, coarse, p) / lp_norm(f, grid_wide, p) - 1.0) > 1e-8
    ten = field_gradient_values(f, coarse)
    mag = np.sqrt(np.sum(ten * ten, axis=(2, 3)))
    missed = float(np.sum(coarse.weights * mag ** p) ** (1.0 / p))
    assert abs(missed / gradient_lp_norm(f, grid_wide, p) - 1.0) > 1e-8


@pytest.mark.parametrize("trunc,angular,p,count", [((16, 16), 256, 4.0, 65),
                                                    ((8, 8), 240, 6.0, 49)])
def test_non_divisor_angle_counts_are_exact(trunc, angular, p, count):
    """A full field needs p n + 1 angles, a count that divides neither 256
    nor 240 here: the sub-grid's L^p norm is the full grid's up to
    rounding, and one angle fewer aliases."""
    basis, grid = build_basis(*trunc), build_grid(48, angular)
    f = _low_order(basis, basis.n_max, 60)
    sub = grid.exact_subgrid(int(p) * basis.n_max)
    assert sub.angular_count == count and angular % count
    v = synthesize(f, grid)
    full = _hypot_lp(v.ux, v.uy, grid, p)
    assert abs(lp_norm(f, grid, p) - full) <= 1e-13 * full
    fewer = grid.exact_subgrid(count - 2)
    v = synthesize(f, fewer)
    assert abs(_hypot_lp(v.ux, v.uy, fewer, p) / full - 1.0) > 1e-8


def _full_grid_lp(sq, grid, p):
    """The full-grid quadrature of the magnitude whose square is sq, summed
    in numpy's one-thread pairwise order."""
    if p == INF:
        return math.sqrt(float(sq.max()))
    return float(np.add.reduce(grid.weights * np.power(np.sqrt(sq), p), axis=None)) ** (1.0 / p)


@pytest.mark.parametrize("p", [1.0, 2.5, 3.0, INF])
def test_other_p_stay_on_the_full_grid(basis_88, grid_small, p):
    """Odd, fractional and infinite p are bit-identical to the full-grid
    (p = inf: refined-grid) formula; gradient_lp_norm refuses p = inf."""
    rng = np.random.default_rng(26)
    f = SpectralField(basis_88, rng.standard_normal(basis_88.n_modes))
    g = grid_small.refined() if p == INF else grid_small
    v = synthesize(f, g)
    assert lp_norm(f, grid_small, p) == _full_grid_lp(v.ux ** 2 + v.uy ** 2, g, p)
    if p == INF:
        with pytest.raises(ValueError, match="p < inf"):
            gradient_lp_norm(f, grid_small, p)
        return
    ten = field_gradient_values(f, g)
    assert gradient_lp_norm(f, grid_small, p) == _full_grid_lp(
        np.sum(ten * ten, axis=(2, 3)), g, p)


def test_subgrid_norms_reuse_the_radial_tables(basis_88, monkeypatch):
    """besov_norm at even p synthesizes on several exact sub-grids; they
    share the fresh grid's radial Bessel stack, so one stack is built, by
    one stacked Bessel call over its n_max + 1 rows, and no sub-grid
    rebuilds it."""
    import stokesbesov.basis
    builds, calls = [], []
    real_rows, real_table = stokesbesov.basis.radial_rows, stokesbesov.basis.bessel_j_table

    def counted_rows(*args, **kwargs):
        builds.append(args[1].size)
        return real_rows(*args, **kwargs)

    def counted_table(*args, **kwargs):
        calls.append(np.asarray(args[0]).tolist())
        return real_table(*args, **kwargs)

    monkeypatch.setattr(stokesbesov.basis, "radial_rows", counted_rows)
    monkeypatch.setattr(stokesbesov.basis, "bessel_j_table", counted_table)
    grid = build_grid(32, 128)
    f = SpectralField(basis_88, np.random.default_rng(27).standard_normal(basis_88.n_modes))
    besov_norm(f, BesovIndex(critical_index(4.0), 4.0, INF), grid)
    assert len(grid._subgrids) > 2
    assert builds == [grid.radial_order]
    assert calls == [list(range(2, basis_88.n_max + 3))]


@pytest.mark.parametrize("p", [3.0, 4.0, 6.0, INF])
def test_lp_norm_scales_by_powers_of_two(basis_88, grid_small, p):
    """X(2^k f) = 2^k X(f) for lp_norm and gradient_lp_norm (p < inf) over k
    in [-900, 900]: the squares of the samples and their p-th powers under-
    or overflow there, and the recomputed value must not, nor warn.  lp_norm
    at p = 4 and 6 takes every k in [-300, 300], where its power sum
    crosses 2^-900 and 2^900; the rest take every 15th k."""
    f = SpectralField(basis_88, np.random.default_rng(60).standard_normal(basis_88.n_modes))
    v = synthesize(f, grid_small)
    wide = range(-900, 901, 15)
    dense = sorted(set(wide) | set(range(-300, 301))) if p in (4.0, 6.0) else wide
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # gradient_lp_norm refuses p = inf
        for norm, ks in ((lp_norm, dense), (gradient_lp_norm, wide))[:1 if p == INF else 2]:
            base = norm(f, grid_small, p)
            for k in ks:
                scaled = norm(SpectralField(basis_88, np.ldexp(f.coeffs, k)), grid_small, p)
                assert scaled == pytest.approx(math.ldexp(base, k), rel=1e-13, abs=0.0), k
        base = lp_norm(v, grid_small, p)
        for k in (-900, -600, -300, 300, 600, 900):
            samples = GridVectorField(grid_small, np.ldexp(v.ux, k), np.ldexp(v.uy, k))
            assert lp_norm(samples, grid_small, p) == pytest.approx(
                math.ldexp(base, k), rel=1e-13, abs=0.0), k


def test_lp_norm_rescales_an_overflow_without_a_warning(basis_88):
    # the first power sum of 2^300 f at p = 6 overflows; the rescaled one
    # gives the value, and the overflow leaves no RuntimeWarning behind
    grid = build_grid(64, 128)
    f = SpectralField(basis_88, np.random.default_rng(65).standard_normal(basis_88.n_modes))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = lp_norm(2.0 ** 300 * f, grid, 6)
    assert scaled == pytest.approx(2.0 ** 300 * lp_norm(f, grid, 6), rel=1e-13)


def test_lp_norm_keeps_ordinary_sums_bit_for_bit(basis_88, grid_small):
    # inside [2^-900, 2^900] the power sum is used as computed
    f = SpectralField(basis_88, np.random.default_rng(61).standard_normal(basis_88.n_modes))
    g = grid_small.exact_subgrid(4 * f.top_order())
    v = synthesize(f, g)
    sq = v.ux ** 2 + v.uy ** 2
    assert lp_norm(f, grid_small, 4.0) == float(np.vdot(g.weights, sq ** 2)) ** 0.25


def _bound_fields(basis):
    """Random, single-mode (n = 0 included: J_{-1} folds into J_1) and
    band-filtered coefficient rows."""
    rng = np.random.default_rng(62)
    rows = [rng.standard_normal(basis.n_modes) for _ in range(3)]
    rows.append(rng.standard_normal(basis.n_modes) * basis.lam ** -0.5)
    for n, parity in ((0, COS), (1, COS), (1, SIN), (basis.n_max, SIN)):
        for k in (1, basis.k_max):
            row = np.zeros(basis.n_modes)
            row[basis.group_index[(n, parity)][k - 1]] = 1.0
            rows.append(row)
    rows += [apply_band(SpectralField(basis, rows[0]), j).coeffs for j in active_bands(basis)]
    return np.stack(rows)


@pytest.mark.parametrize("trunc,shape", [((8, 8), (32, 64)), ((16, 16), (64, 128))])
@pytest.mark.parametrize("p", [3.0, 4.0, 6.0, 7.5])
def test_term_bounds_hold(trunc, shape, p):
    """Every band term 2^{js} ||phi_j f||_p and every ||f||_p lies below its
    envelope bound."""
    basis, grid = build_basis(*trunc), build_grid(*shape)
    bands = active_bands(basis)
    s = critical_index(p)
    coeffs = _bound_fields(basis)
    bounds = _term_bounds(basis, coeffs, grid, p, bands)
    for row, f in zip(bounds, (SpectralField(basis, c) for c in coeffs)):
        values = [2.0 ** (j * s) * lp_norm(apply_band(f, j), grid, p) for j in bands]
        values.append(lp_norm(f, grid, p))
        assert (np.array(values) <= row).all()


def _exhaustive_norm(traj, p, grid):
    block, weighted = trajectory_terms(traj, p, grid)
    return float(max(block) + max(weighted))


def _trajectories(basis, grid):
    cfg = SolverConfig(basis=basis, grid=grid, p=4.0, T=0.5, mesh_count=8)
    rng = np.random.default_rng(63)
    u0 = SpectralField(basis, rng.standard_normal(basis.n_modes) * 0.05)
    solved, _ = picard_solve(u0, cfg)
    times = cfg.mesh()
    scales = rng.uniform(0.1, 3.0, size=(times.size, 1))
    rand = Trajectory(basis, times, rng.standard_normal((times.size, basis.n_modes)) * scales)
    return {"heat": linear_trajectory(u0, cfg), "picard": solved, "random": rand}


@pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
def test_trajectory_norm_is_the_exhaustive_sup(basis_88, grid_small, p):
    for name, traj in _trajectories(basis_88, grid_small).items():
        assert trajectory_norm(traj, p, grid_small) == _exhaustive_norm(traj, p, grid_small), name


@pytest.mark.parametrize("value", [np.inf, 1e200])
def test_trajectory_norm_of_overflowing_fields_matches_the_terms(basis_88, grid_small, value):
    cfg = SolverConfig(basis=basis_88, grid=grid_small, p=4.0, T=0.5, mesh_count=4)
    traj = linear_trajectory(SpectralField(basis_88, np.ones(basis_88.n_modes)), cfg)
    traj.coeffs[2] = value
    # inf data leaves no usable bound, so every term runs; at 1e200 the
    # bounds are finite and the skip runs over terms whose squares overflow
    bounds = _term_bounds(basis_88, traj.coeffs, grid_small, 4.0, active_bands(basis_88))
    assert np.isfinite(bounds).all() == math.isfinite(value)
    block, weighted = trajectory_terms(traj, 4.0, grid_small)
    want = float(np.max(block, initial=0.0) + np.max(weighted, initial=0.0))
    assert np.array_equal(trajectory_norm(traj, 4.0, grid_small), want, equal_nan=True)


def test_trajectory_norm_of_subnormal_fields_is_the_exhaustive_sup(basis_88, grid_small):
    # the bounds of one coefficient 2^-1074 are subnormal products, rounded
    # past their slack: skipping below the floor would drop the largest term
    rows = np.zeros((2, basis_88.n_modes))
    rows[:, 0] = 5e-324
    traj = Trajectory(basis_88, np.array([0.0, 0.5]), rows)
    assert trajectory_norm(traj, 3.0, grid_small) == _exhaustive_norm(traj, 3.0, grid_small)


def _refined_max(f, grid):
    """max |u| of the full synthesis on grid's refined companion."""
    v = synthesize(f, grid.refined())
    return math.sqrt(float(np.max(np.square(v.ux) + np.square(v.uy))))


@pytest.mark.parametrize("trunc, shape", [((8, 8), (64, 128)), ((16, 16), (128, 256)),
                                          ((32, 32), (128, 256))])
def test_blocked_sup_equals_the_full_refined_max(trunc, shape, monkeypatch):
    """lp_norm at p = inf runs the angular stage on blocks of 32 refined
    circles in descending bound order and skips the blocks that cannot hold
    the max.  For band-filtered kernel columns (the Bernstein extremizers)
    and random band data it equals the max of the full refined synthesis
    bit for bit, and the kernel columns skip blocks."""
    import stokesbesov.norms as norms
    from stokesbesov.dyadic import _multiplier
    basis, grid = build_basis(*trunc), build_grid(*shape)
    runs = []
    inner = norms._bounded_sup

    def counted(bounds, term):
        runs.append([bounds.size, 0])

        def tally(i):
            runs[-1][1] += 1
            return term(i)
        return inner(bounds, tally)

    monkeypatch.setattr(norms, "_bounded_sup", counted)
    rng = np.random.default_rng(70 + trunc[0])
    columns = mode_values_at(basis, np.array([[0.35, -0.2], [-0.1, 0.6]]))
    columns = columns.transpose(0, 2, 1).reshape(4, basis.n_modes)
    kernel_runs = []
    for j in active_bands(basis):
        mask = _multiplier(basis, j, False)
        for c in columns:
            f = SpectralField(basis, mask * c)
            assert lp_norm(f, grid, INF) == _refined_max(f, grid), j
        kernel_runs.extend(runs)
        runs.clear()
        for _ in range(2):
            f = SpectralField(basis, mask * rng.standard_normal(basis.n_modes))
            assert lp_norm(f, grid, INF) == _refined_max(f, grid), j
    blocks = 3 * shape[0] // 32
    assert all(size == blocks for size, _ in runs + kernel_runs)
    # the narrow columns of the top bands need few circles, the broad low
    # bands most of them
    assert min(ran for _, ran in kernel_runs) <= blocks // 3
    assert sum(ran for _, ran in kernel_runs) < 0.7 * blocks * len(kernel_runs)


def test_sup_norm_memory_stays_below_one_refined_synthesis(basis_3232, grid_default):
    import tracemalloc
    f = SpectralField(basis_3232, np.random.default_rng(71).standard_normal(basis_3232.n_modes))
    lp_norm(f, grid_default, INF)                   # the refined grid and its tables
    tracemalloc.start()
    try:
        lp_norm(f, grid_default, INF)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * np.prod(grid_default.refined().shape)


def test_first_sup_norm_holds_only_the_velocity_tables(basis_3232):
    """The first p = inf norm at (32,32) on a fresh 128 x 256 grid leaves the
    refined grid's tables behind: VELOCITY's two rows of the 384-radius
    stack (6.2 MiB) and the angular table, below 7 MiB in all, and no
    node weights of the refined grid."""
    import tracemalloc
    grid = build_grid(128, 256)
    f = SpectralField(basis_3232, np.random.default_rng(73).standard_normal(basis_3232.n_modes))
    tracemalloc.start()
    try:
        lp_norm(f, grid, INF)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 7 * 2 ** 20
    assert "weights" not in vars(grid.refined())
    assert grid.refined().weights.shape == grid.refined().shape     # built on first read


def _two_pass(norm, *parts):
    """coeff_l2 as it was: the unscaled pass always runs first."""
    with np.errstate(over="ignore"):
        value = float(norm(*parts))
        if not 2.0 ** -400 <= value <= 2.0 ** 400:
            e = int(np.frexp(max(np.abs(a).max() for a in parts))[1])
            if e != 0:
                value = float(np.ldexp(norm(*(np.ldexp(a, -e) for a in parts)), e))
    return value


def test_skipped_first_pass_keeps_every_bit(basis_88, grid_small):
    """coeff_l2 skips the unscaled pass when the largest entry is below
    2^(-400 - 50); over X(2^k f), k in [-900, 900], every norm it serves
    reads what the two-pass form reads, bit for bit."""
    from stokesbesov.basis import coeff_l2, curl_values
    f = SpectralField(basis_88, np.random.default_rng(72).standard_normal(basis_88.n_modes))
    v = synthesize(f, grid_small)
    sub = grid_small.exact_subgrid(2 * f.top_order())
    measures = [np.linalg.norm,
                lambda c: np.sqrt(sub.integrate(np.square(curl_values(SpectralField(basis_88, c),
                                                                      sub))))]
    for p in (1.0, 2.0, 3.0, 4.0, 6.0, INF):
        measures.append(lambda c, p=p: lp_norm.__wrapped__(SpectralField(basis_88, c),
                                                           grid_small, p))
        if p != INF:
            measures.append(lambda c, p=p: gradient_lp_norm.__wrapped__(
                SpectralField(basis_88, c), grid_small, p))
    for k in range(-900, 901, 15):
        c = np.ldexp(f.coeffs, k)
        for measure in measures:
            assert coeff_l2(c, norm=measure) == _two_pass(measure, c), k
        ux, uy = np.ldexp(v.ux, k), np.ldexp(v.uy, k)
        for p in (2.0, 3.0, INF):
            def samples(x, y, p=p):
                return lp_norm.__wrapped__(GridVectorField(grid_small, x, y), grid_small, p)
            assert coeff_l2(ux, uy, norm=samples) == _two_pass(samples, ux, uy), k


def test_grid_samples_off_the_quadrature_grid_are_refused(basis_88):
    """Finite-p samples must lie on the quadrature grid itself, the refined
    grid's shape included; the check builds no refined grid."""
    grid = build_grid(16, 32)
    f = SpectralField(basis_88, np.random.default_rng(28).standard_normal(basis_88.n_modes))
    for shape in ((48, 96), (16, 48)):
        v = synthesize(f, build_grid(*shape))
        for p in (2.0, 3.0):
            with pytest.raises(ValueError, match="grid samples do not match the quadrature grid"):
                lp_norm(v, grid, p)
    assert grid._refined is None
    assert lp_norm(synthesize(f, grid), grid, 3.0) > 0.0
