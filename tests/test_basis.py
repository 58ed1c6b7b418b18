"""Eigenbasis construction, transforms, gradients, and the cache round trip."""

import dataclasses
import gc
import math
import warnings
import weakref

import numpy as np
import pytest

import oracles
from stokesbesov import (GridVectorField, ResolutionError, SpectralField, analyze,
                         apply_stokes, bessel_zero, bessel_zeros_row, boundary_traces,
                         build_basis, build_grid, curl_values, load_basis, lp_norm,
                         nonlinear_coeffs, save_basis, specfun, synthesize, zero_field)
from stokesbesov.basis import (COS, CURL, GRADIENT, SIN, VELOCITY, coeff_l2, curl_l2,
                               field_gradient_values, mode_values_at, radial_rows)
from stokesbesov.nonlinear import _convection_coeffs
from stokesbesov.specfun import bessel_j_table

J01 = 2.404825557695773
J11 = 3.831705970207512
LAMBDA_MIN = 5.783185962946785


def _values_at(f, points):
    """Velocity of a spectral field at points, shape (P, 2)."""
    return np.einsum("pmc,m->pc", mode_values_at(f.basis, points), f.coeffs)


def test_minimal_basis_modes():
    basis = build_basis(1, 1)
    assert basis.n_modes == 3
    # oracle: squares of the bisection-pinned zeros j_{0,1}, j_{1,1}
    lams = sorted(basis.lam)
    assert lams[0] == pytest.approx(J01 ** 2, abs=1e-10)
    assert lams[1] == pytest.approx(J11 ** 2, abs=1e-10)
    assert lams[2] == pytest.approx(J11 ** 2, abs=1e-10)
    kinds = sorted(zip(basis.angular.tolist(), basis.parity.tolist()))
    assert kinds == [(0, COS), (1, COS), (1, SIN)]


def test_lambda_min_frozen():
    assert abs(build_basis(2, 2).lambda_min - LAMBDA_MIN) < 1e-12
    assert abs(oracles.bisect_bessel_zero(0, 2.0, 3.0) ** 2 - LAMBDA_MIN) < 1e-11


def test_mode_count_formula():
    # k_max radial modes for n = 0, then cos and sin branches for each n >= 1
    assert build_basis(2, 2).n_modes == 2 + 2 * (2 * 2)


def test_mode_invariants(basis_88):
    b = basis_88
    for n, k, lam, vel, stream in zip(b.angular, b.radial, b.lam, b.velocity_norm,
                                      b.stream_norm):
        assert lam > 0.0
        assert lam == pytest.approx(bessel_zero(int(n), int(k)) ** 2, rel=1e-10)
        assert vel ** 2 == pytest.approx(lam * stream ** 2, rel=1e-12)
    assert np.all(np.diff(basis_88.lam) >= 0.0)


@pytest.mark.parametrize("first, second", [((16, 16), (32, 32)), ((32, 32), (16, 16))])
def test_smaller_basis_zeros_are_a_prefix(first, second, empty_zero_cache):
    # in either order, and with requests outside both blocks in between, the
    # cached zeros of the smaller basis are a slice of the larger one's
    built = {first: build_basis(*first)}
    bessel_zero(33, 1)
    bessel_zero(0, 33)
    built[second] = build_basis(*second)
    assert np.array_equal(built[(16, 16)].zeros_rows, built[(32, 32)].zeros_rows[:17, :16])


def test_zero_finder_table_calls(empty_zero_cache, monkeypatch):
    """The (32, 32) zeros take one bracket table and one table per lockstep
    Newton step, not a Newton loop per order."""
    calls = []
    real = specfun.bessel_j_table

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(specfun, "bessel_j_table", counted)
    build_basis(32, 32)
    assert 0 < len(calls) <= 20


def test_grid_weights_disk_area():
    grid = build_grid(16, 32)
    assert abs(grid.weights.sum() - math.pi) < 1e-12
    assert abs(grid.integrate(np.ones(grid.shape)) - math.pi) < 1e-12


def test_grid_quadratic_moment():
    # analytic polar integral: 2 pi int_0^1 r^3 dr = pi / 2
    grid = build_grid(16, 32)
    assert abs(grid.integrate(grid.x ** 2 + grid.y ** 2) - math.pi / 2) < 1e-12


def test_synthesize_zero(basis_88, grid_small):
    v = synthesize(zero_field(basis_88), grid_small)
    assert not np.any(v.ux) and not np.any(v.uy)


def test_boundary_normal_component(basis_88):
    # psi = 0 on the boundary forces u . nu = 0 there
    theta = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    vals = mode_values_at(basis_88, pts)           # (P, M, 2)
    normal = vals[..., 0] * pts[:, None, 0] + vals[..., 1] * pts[:, None, 1]
    assert np.max(np.abs(normal)) < 1e-10


def test_axisymmetric_mode_is_pure_swirl(basis_88, grid_small):
    f = zero_field(basis_88)
    f.coeffs[0] = 1.0                               # (0, cos, 1)
    assert basis_88.angular[0] == 0
    v = synthesize(f, grid_small)
    u_r = (v.ux * grid_small.x + v.uy * grid_small.y) / np.hypot(
        grid_small.x, grid_small.y)
    assert np.max(np.abs(u_r)) < 1e-12


def test_analyze_synthesize_roundtrip(basis_88, grid_small):
    rng = np.random.default_rng(3)
    c = rng.standard_normal(basis_88.n_modes)
    back = analyze(synthesize(SpectralField(basis_88, c), grid_small),
                   basis_88, grid_small)
    assert np.max(np.abs(back.coeffs - c)) < 1e-10


def test_analyze_rejects_gradient_field(basis_88, grid_small):
    # grad (x^2 + y^2)/2 = (x, y) is L^2-orthogonal to every mode
    v = GridVectorField(grid_small, grid_small.x.copy(), grid_small.y.copy())
    coeffs = analyze(v, basis_88, grid_small).coeffs
    assert np.max(np.abs(coeffs)) < 1e-10


def test_analyze_zero(basis_88, grid_small):
    v = GridVectorField(grid_small, np.zeros(grid_small.shape),
                        np.zeros(grid_small.shape))
    assert not np.any(analyze(v, basis_88, grid_small).coeffs)


def test_apply_stokes_powers(basis_88):
    rng = np.random.default_rng(4)
    f = SpectralField(basis_88, rng.standard_normal(basis_88.n_modes))
    assert np.array_equal(apply_stokes(f, 0.0).coeffs, f.coeffs)
    single = zero_field(basis_88)
    single.coeffs[0] = 2.0
    assert apply_stokes(single).coeffs[0] == pytest.approx(2.0 * LAMBDA_MIN,
                                                           rel=1e-12)
    twice = apply_stokes(apply_stokes(f, 0.5), 0.5)
    once = apply_stokes(f, 1.0)
    assert np.max(np.abs(twice.coeffs - once.coeffs)) < 1e-12 * np.max(
        np.abs(once.coeffs))


def test_gradient_divergence_free(basis_88, grid_small):
    rng = np.random.default_rng(5)
    f = SpectralField(basis_88, rng.standard_normal(basis_88.n_modes))
    g = field_gradient_values(f, grid_small)
    div = g[..., 0, 0] + g[..., 1, 1]
    assert np.max(np.abs(div)) < 1e-9


def test_gradient_energy_identity(basis_88, grid_small):
    """For these velocity-normalized eigenfields the Dirichlet energy is

        integral |grad e_m|^2 = lambda_m - 2,

    not lambda_m: integrating grad e : grad e by parts against -Laplace e =
    lambda e leaves the boundary term -oint (e . de/dnu), and with curl e = 0
    and e . nu = 0 on the circle that term equals -2 oint |e_theta|^2 = -2
    for every unit-L^2 mode.  Verified here by quadrature at two resolutions
    (the doubled grid is the oracle for the quadrature error).
    """
    fine = build_grid(2 * grid_small.radial_order, 2 * grid_small.angular_count)
    for idx in (0, 1, 7, 19, basis_88.n_modes - 1):
        f = zero_field(basis_88)
        f.coeffs[idx] = 1.0
        lam = basis_88.lam[idx]
        for grid in (grid_small, fine):
            g = field_gradient_values(f, grid)
            energy = grid.integrate(np.sum(g * g, axis=(2, 3)))
            assert energy == pytest.approx(lam - 2.0, rel=1e-8)


def test_gradient_matches_finite_differences(basis_88):
    rng = np.random.default_rng(6)
    f = SpectralField(basis_88, rng.standard_normal(basis_88.n_modes))
    grid = build_grid(32, 64)
    g = field_gradient_values(f, grid)
    # probe a few interior nodes with 4th-order central differences
    for ri, ai in ((5, 0), (16, 20), (27, 50)):
        x0, y0 = grid.x[ri, ai], grid.y[ri, ai]
        if math.hypot(x0, y0) > 0.85:
            continue
        for comp in (0, 1):
            def fx(x):
                return _values_at(f, np.array([[x, y0]]))[0, comp]

            def fy(y):
                return _values_at(f, np.array([[x0, y]]))[0, comp]

            assert oracles.central_diff(fx, x0) == pytest.approx(
                g[ri, ai, comp, 0], rel=2e-7, abs=1e-8)
            assert oracles.central_diff(fy, y0) == pytest.approx(
                g[ri, ai, comp, 1], rel=2e-7, abs=1e-8)


def test_curl_sign_and_magnitude(basis_88):
    """curl u = +lambda psi for u = (d_y psi, -d_x psi); cross-checked with
    finite differences of the velocity itself."""
    grid = build_grid(32, 64)
    f = zero_field(basis_88)
    f.coeffs[2] = 1.0
    w = curl_values(f, grid)
    for ri, ai in ((8, 3), (20, 33)):
        x0, y0 = grid.x[ri, ai], grid.y[ri, ai]

        def uy_of_x(x):
            return _values_at(f, np.array([[x, y0]]))[0, 1]

        def ux_of_y(y):
            return _values_at(f, np.array([[x0, y]]))[0, 0]

        fd = oracles.central_diff(uy_of_x, x0) - oracles.central_diff(ux_of_y, y0)
        assert fd == pytest.approx(w[ri, ai], rel=2e-7, abs=1e-8)


def test_curl_energy_is_lambda(basis_88, grid_small):
    # ||curl e_m||^2 = lambda_m for unit-L^2 eigenfields, on the full grid
    # and on curl_l2's exact angular sub-grid
    for idx in (0, 5, 40):
        f = zero_field(basis_88)
        f.coeffs[idx] = 1.0
        w = curl_values(f, grid_small)
        assert grid_small.integrate(w * w) == pytest.approx(basis_88.lam[idx],
                                                            rel=1e-8)
        assert curl_l2(f, grid_small) ** 2 == pytest.approx(basis_88.lam[idx], rel=1e-8)


def test_l2_norms_scale_by_powers_of_two(basis_88, grid_small):
    """X(2^k f) = 2^k X(f) over every 15th k in [-900, 900] for the field's
    l2, the L^2 norm of a coefficient defect and curl_l2: unscaled, their
    squares under- or overflow there, and the recomputed value must not,
    nor warn."""
    rng = np.random.default_rng(62)
    f = SpectralField(basis_88, rng.standard_normal(basis_88.n_modes))
    defect = 1e-9 * rng.standard_normal(basis_88.n_modes)
    measures = ((lambda c: SpectralField(basis_88, c).l2(), f.coeffs),
                (coeff_l2, defect),
                (lambda c: curl_l2(SpectralField(basis_88, c), grid_small), f.coeffs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for measure, c in measures:
            base = measure(c)
            for k in range(-900, 901, 15):
                assert measure(np.ldexp(c, k)) == pytest.approx(
                    math.ldexp(base, k), rel=1e-13, abs=0.0), k


def test_coeff_l2_rescales_once_and_never_a_zero():
    """The power-of-two rescale takes e from the largest entry over all the
    parts: a zero input costs no norm call, a largest entry below
    2^(-400 - 50) only the scaled one, and one just below 2^-400 both."""
    calls = []

    def counted(*parts):
        calls.append(parts)
        return float(np.sqrt(sum(np.sum(a * a) for a in parts)))

    assert coeff_l2(np.zeros(5), np.zeros(3), norm=counted) == 0.0
    assert len(calls) == 0
    tiny = (np.ldexp(np.array([3.0, 4.0]), -700), np.ldexp(np.array([12.0]), -700))
    assert coeff_l2(*tiny, norm=counted) == math.ldexp(13.0, -700)
    assert len(calls) == 1
    assert max(np.abs(a).max() for a in calls[0]) == 0.75      # 12 2^-700 -> 3/4
    calls.clear()
    small = (np.ldexp(np.array([3.0, 4.0]), -420), np.ldexp(np.array([12.0]), -420))
    assert coeff_l2(*small, norm=counted) == math.ldexp(13.0, -420)
    assert len(calls) == 2


def test_boundary_traces_small(basis_3232):
    normal, curl = boundary_traces(basis_3232)
    assert normal.shape == (basis_3232.n_modes,)
    assert float(normal.max()) < 1e-8
    assert float(curl.max()) < 1e-8


def test_field_values_match_synthesize(basis_88, grid_small):
    rng = np.random.default_rng(9)
    f = SpectralField(basis_88, rng.standard_normal(basis_88.n_modes))
    v = synthesize(f, grid_small)
    picks = ((3, 7), (30, 101), (60, 64))
    pts = np.array([[grid_small.x[r, a], grid_small.y[r, a]] for r, a in picks])
    vals = _values_at(f, pts)
    for row, (r, a) in enumerate(picks):
        assert vals[row, 0] == pytest.approx(v.ux[r, a], rel=1e-11, abs=1e-12)
        assert vals[row, 1] == pytest.approx(v.uy[r, a], rel=1e-11, abs=1e-12)


@pytest.mark.parametrize("n_max", [0, 1, 8, 16])
def test_mode_values_match_the_hand_signed_formula(n_max):
    """The term-table point evaluator equals the hand-signed closed forms
    bit for bit: at random points, the origin, on the boundary circle and
    on the negative x axis (theta = pi)."""
    basis = build_basis(n_max, 4)
    rng = np.random.default_rng(12)
    r, th = np.sqrt(rng.uniform(0.0, 1.0, 50)), rng.uniform(-np.pi, np.pi, 50)
    edge = np.linspace(-np.pi, np.pi, 16, endpoint=False)
    r = np.concatenate([r, [0.0], np.ones(16), [0.5, 1.0]])
    th = np.concatenate([th, [0.0], edge, [np.pi, np.pi]])
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    want = oracles.hand_signed_mode_values(
        basis, radial_rows(basis.zeros_rows, np.hypot(pts[:, 0], pts[:, 1]), (-1, 1)),
        np.arctan2(pts[:, 1], pts[:, 0]))
    assert np.pi in np.arctan2(pts[:, 1], pts[:, 0])
    assert np.array_equal(mode_values_at(basis, pts), want)


def test_mode_values_outside_disk_rejected(basis_88):
    with pytest.raises(ValueError):
        mode_values_at(basis_88, np.array([[1.2, 0.0]]))


def test_cache_roundtrip_bit_identical(basis_88, tmp_path):
    path = tmp_path / "basis.json"
    save_basis(basis_88, path)
    loaded = load_basis(path)
    assert np.array_equal(loaded.lam, basis_88.lam)
    assert np.array_equal(loaded.zero, basis_88.zero)
    assert np.array_equal(loaded.stream_norm, basis_88.stream_norm)
    assert np.array_equal(loaded.velocity_norm, basis_88.velocity_norm)
    assert np.array_equal(loaded.zeros_rows, basis_88.zeros_rows)
    for name in ("angular", "parity", "radial"):
        assert np.array_equal(getattr(loaded, name), getattr(basis_88, name))


def test_load_rejects_foreign_format(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text('{"format": "something-else/9"}')
    with pytest.raises(ValueError):
        load_basis(path)


def test_build_basis_validates_truncation():
    with pytest.raises(ValueError):
        build_basis(-1, 4)
    with pytest.raises(ValueError):
        build_basis(4, 0)


# ---------------------------------------------------------------------------
# the stacked-table transform core against the pointwise evaluator

def _core_fields(basis):
    """Random, low-order (top orders zero), top-order-only and zero fields."""
    rng = np.random.default_rng(11)
    full = rng.standard_normal(basis.n_modes)
    low = np.where(basis.angular <= basis.n_max // 2 - 1, full, 0.0)
    top = np.where(basis.angular == basis.n_max, full, 0.0)
    return {"random": full, "low-orders": low, "top-order": top,
            "zero": np.zeros(basis.n_modes)}


@pytest.mark.parametrize("n_max, radial, angular", [(8, 32, 64), (16, 40, 80)])
def test_synthesize_matches_pointwise_at_nodes(n_max, radial, angular):
    basis = build_basis(n_max, n_max)
    grid = build_grid(radial, angular)
    pts = np.column_stack([grid.x.ravel(), grid.y.ravel()])
    vals = mode_values_at(basis, pts)                     # (P, M, 2)
    for kind, c in _core_fields(basis).items():
        v = synthesize(SpectralField(basis, c), grid)
        want = np.einsum("pmc,m->pc", vals, c)
        got = np.column_stack([v.ux.ravel(), v.uy.ravel()])
        if kind == "zero":
            assert not np.any(got), kind
            continue
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= 1e-12, (kind, err)


def test_curl_and_gradient_of_low_order_field(basis_88):
    # the order cut-off of curl_values and field_gradient_values, checked
    # against central differences of the pointwise evaluator
    c = _core_fields(basis_88)["low-orders"]
    f = SpectralField(basis_88, c)
    grid = build_grid(32, 64)
    w = curl_values(f, grid)
    g = field_gradient_values(f, grid)
    for ri, ai in ((8, 3), (20, 33)):
        x0, y0 = grid.x[ri, ai], grid.y[ri, ai]

        def at(x, y, comp):
            return _values_at(f, np.array([[x, y]]))[0, comp]

        dx = [oracles.central_diff(lambda x: at(x, y0, comp), x0) for comp in (0, 1)]
        dy = [oracles.central_diff(lambda y: at(x0, y, comp), y0) for comp in (0, 1)]
        assert dx[1] - dy[0] == pytest.approx(w[ri, ai], rel=2e-7, abs=1e-8)
        for comp in (0, 1):
            assert dx[comp] == pytest.approx(g[ri, ai, comp, 0], rel=2e-7, abs=1e-8)
            assert dy[comp] == pytest.approx(g[ri, ai, comp, 1], rel=2e-7, abs=1e-8)


def test_analyze_synthesize_is_identity(basis_88, grid_small):
    # the dense Gram matrix of the gram-orthonormality check, same threshold
    gram = np.array([analyze(synthesize(SpectralField(basis_88, row), grid_small),
                             basis_88, grid_small).coeffs
                     for row in np.eye(basis_88.n_modes)])
    assert np.max(np.abs(gram - np.eye(basis_88.n_modes))) <= 1e-9


@pytest.mark.parametrize("n_max, radial, angular", [(8, 32, 64), (16, 64, 128)])
def test_radial_stack_equals_full_table_rows(n_max, radial, angular):
    # the stack reads rows |n-2|..n+2 of J tables up to order n+2; asking
    # bessel_j_table for those rows only must give them bit for bit
    basis = build_basis(n_max, n_max)
    grid = build_grid(radial, angular)

    def signed_rows(r, shifts):
        want = np.empty((n_max + 1, len(shifts), n_max, r.size))
        for n in range(n_max + 1):
            tab = bessel_j_table(n + max(shifts),
                                 np.multiply.outer(basis.zeros_rows[n], r))
            for s, q in enumerate(n + np.array(shifts)):
                row = tab[abs(q)]
                want[n, s] = row if (q >= 0 or q % 2 == 0) else -row
        return want

    assert np.array_equal(grid.tables(basis).radial, signed_rows(grid.radii, range(-2, 3)))
    # the shift sets of point evaluation, boundary traces and normalization
    points = np.random.default_rng(n_max).uniform(0.0, 1.0, 9)
    for r in (points, np.ones(1)):
        for shifts in ((-1, 1), (0,), (1,)):
            assert np.array_equal(radial_rows(basis.zeros_rows, r, shifts),
                                  signed_rows(r, shifts))


def test_radial_stack_is_a_slice_of_a_larger_one(basis_1616, basis_3232, grid_default):
    # the (16,16) stack is the [:17, :, :16] corner of the (32,32) stack on
    # the same radii, bit for bit: the zeros are a prefix and each Bessel
    # entry depends on its own order, argument and table top alone
    shifts = range(-2, 3)
    small = radial_rows(basis_1616.zeros_rows, grid_default.radii, shifts)
    large = radial_rows(basis_3232.zeros_rows, grid_default.radii, shifts)
    assert np.array_equal(small, large[:17, :, :16])


def test_tables_hold_their_grid_weakly(basis_88):
    """A grid and its tables are freed by reference counting alone, with the
    cyclic collector off; tables kept past their grid refuse to name it."""
    grid = build_grid(16, 32)
    tables = grid.tables(basis_88)
    assert tables.grid is grid
    held = weakref.ref(grid)
    gc.disable()
    try:
        del grid
        assert held() is None
    finally:
        gc.enable()
    with pytest.raises(ReferenceError, match="outlived their grid"):
        tables.grid
    assert tables.radial.shape == (9, 5, 8, 16)     # what it copied stays readable


def test_no_points_give_empty_rows(basis_88):
    """An empty set of radii or points is an empty block, not an error."""
    assert radial_rows(basis_88.zeros_rows, np.empty(0), VELOCITY.shifts).shape == (9, 2, 8, 0)
    assert mode_values_at(basis_88, np.empty((0, 2))).shape == (0, basis_88.n_modes, 2)


@pytest.mark.parametrize("trunc", [32, 64])
def test_radial_rows_transient_stays_block_sized(trunc):
    """radial_rows forms each sweep block's arguments just before the block,
    so its allocation peak beyond the result does not grow with the stack:
    at most 2.5 MB at (32,32) and at (64,64) on 384 radii, where the whole
    argument array alone is 3.2 and 12.6 MB.  Blocks of 65,536 arguments
    read 3.9 and 3.5 MB."""
    import tracemalloc
    zeros = build_basis(trunc, trunc).zeros_rows
    radii = build_grid(384, 8).radii
    tracemalloc.start()
    try:
        rows = radial_rows(zeros, radii, VELOCITY.shifts, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (trunc + 1, 2, trunc, 384)
    assert peak - rows.nbytes <= 2.5e6


def test_radial_rows_blocks_change_no_bit(monkeypatch):
    """Blocks of rows that split a stack anywhere, down to one row each,
    give the bits of one block, at r = 0, r = 1, rescaling arguments from
    1e-10 and interior radii."""
    import stokesbesov.basis as basis_mod
    zeros = np.array([bessel_zeros_row(n, 16) for n in range(17)])
    r = np.concatenate([[0.0, 1.0], np.geomspace(1e-10, 1e-3, 15)[:7] / J01,
                        np.linspace(0.05, 0.95, 9)])
    monkeypatch.setattr(basis_mod, "_SWEEP_BLOCK", 1 << 30)
    whole = radial_rows(zeros, r, range(-2, 3))
    for block in (1, 300, 1000):
        monkeypatch.setattr(basis_mod, "_SWEEP_BLOCK", block)
        assert np.array_equal(radial_rows(zeros, r, range(-2, 3)), whole), block


def test_radial_stacks_are_held_once_as_read_only_views(basis_88, basis_1616, monkeypatch):
    """A stack built after a smaller one on the same radii turns the smaller
    entry into a view of itself; a stack asked for after a larger one is its
    corner and builds nothing; no held stack is writeable."""
    import stokesbesov.basis as basis_mod
    grid = build_grid(24, 16)
    small = grid.tables(basis_88).radial
    assert not small.flags.writeable
    want = small.copy()
    large = grid.tables(basis_1616).radial
    held = grid.tables(basis_88).radial
    assert np.shares_memory(held, large) and not np.shares_memory(held, small)
    assert np.array_equal(held, want)
    assert not held.flags.writeable and not large.flags.writeable
    with pytest.raises(ValueError):
        held[0, 0, 0, 0] = 1.0

    built = []
    real = basis_mod.radial_rows
    monkeypatch.setattr(basis_mod, "radial_rows", lambda *a: built.append(a) or real(*a))
    other = build_grid(24, 16)
    other.exact_subgrid(5).tables(basis_1616)
    corner = other.tables(basis_88).radial
    assert len(built) == 1                          # the (16,16) stack alone
    assert np.shares_memory(corner, other.tables(basis_1616).radial)
    assert np.array_equal(corner, want)
    # zeros that are not a corner of the larger stack's get a stack of their own
    moved = dataclasses.replace(basis_88, zeros_rows=basis_88.zeros_rows * (1.0 + 2.0 ** -40))
    fresh = build_grid(24, 16)
    fresh.tables(basis_1616)
    assert not np.shares_memory(fresh.tables(moved).radial, fresh.tables(basis_1616).radial)
    assert len(built) == 3


def test_refined_stack_holds_the_velocity_rows_of_a_full_stack(basis_1616):
    """The refined grid's stacks hold VELOCITY's two shift rows, bit for bit
    rows 1 and 3 of a five-shift stack on the same radii (both tables reach
    order n + 2); its sub-grids hold the same shifts."""
    refined = build_grid(32, 64).refined()
    assert refined.shifts == VELOCITY.shifts
    assert refined.exact_subgrid(9).shifts == VELOCITY.shifts
    held = refined.tables(basis_1616).radial
    assert held.shape == (17, 2, 16, 96)
    full = radial_rows(basis_1616.zeros_rows, refined.radii, range(-2, 3))
    assert np.array_equal(held, full[:, [1, 3]])
    # a working grid on the same radii reads the same rows for VELOCITY
    same_radii = build_grid(96, 16)
    assert np.array_equal(same_radii.tables(basis_1616).radial[:, same_radii.shift_rows(VELOCITY)],
                          held)


def test_refined_grid_refuses_other_transforms(basis_88):
    refined = build_grid(16, 32).refined()
    f = SpectralField(basis_88, np.random.default_rng(14).standard_normal(basis_88.n_modes))
    with pytest.raises(ValueError, match="hold shifts"):
        field_gradient_values(f, refined)
    with pytest.raises(ValueError, match="hold shifts"):
        curl_values(f, refined)
    with pytest.raises(ValueError, match="hold shifts"):
        refined.tables(basis_88).adjoint(GRADIENT, np.zeros((3,) + refined.shape))
    assert synthesize(f, refined).ux.shape == refined.shape


def test_sign_table_is_one_read_only_object_per_transform(basis_88):
    a = build_grid(16, 32).tables(basis_88)
    b = build_grid(24, 48).exact_subgrid(9).tables(basis_88)
    for spec in (VELOCITY, GRADIENT, CURL):
        table = a.scatter(spec)[0]
        assert b.scatter(spec)[0] is table
        assert table is spec.sign_table(basis_88.n_max, basis_88.n_max + 3)
        assert not table.flags.writeable


@pytest.mark.parametrize("angular", [256, 240, 768])
def test_subgrid_is_every_sth_node(basis_88, angular):
    """exact_subgrid(degree) keeps degree + 1 angles, at 2 pi i / N as every
    grid places them, so where N divides the parent's count its angles are
    every s-th node of the parent up to an ulp.  It keeps the radial rule
    and the radial stacks."""
    grid = build_grid(16, angular)
    for degree in range(angular - 1):
        sub = grid.exact_subgrid(degree)
        count = sub.angular_count
        assert count == degree + 1
        assert np.array_equal(sub.thetas, 2.0 * np.pi * np.arange(count) / count)
        if angular % count == 0:
            assert np.max(np.abs(sub.thetas - grid.thetas[::angular // count])) \
                <= 2.0 * np.pi * np.finfo(float).eps
        assert np.array_equal(sub.weights, np.outer(grid.radial_weights,
                                                     np.full(count, 2.0 * np.pi / count)))
        assert sub.radial_rule is grid.radial_rule
    assert grid.exact_subgrid(5).tables(basis_88).radial is grid.tables(basis_88).radial
    assert grid.exact_subgrid(angular - 1) is grid
    assert grid.exact_subgrid(10 * angular) is grid


@pytest.mark.parametrize("count", [8, 50, 66, 130])
def test_subgrid_angles_are_build_grid_angles(count):
    """A sub-grid on N angles, N a divisor of the parent's count or not, has
    the angles build_grid makes for N, bit for bit."""
    for angular in (240, 256):
        sub = build_grid(16, angular).exact_subgrid(count - 1)
        assert np.array_equal(sub.thetas, build_grid(16, count).thetas)


def test_grid_coordinates_are_computed_on_access(grid_small):
    """x and y are the outer products of the radii with cos and sin of the
    angles; the grid stores neither."""
    for grid in (grid_small, grid_small.exact_subgrid(48)):
        assert np.array_equal(grid.x, np.outer(grid.radii, np.cos(grid.thetas)))
        assert np.array_equal(grid.y, np.outer(grid.radii, np.sin(grid.thetas)))
        assert "x" not in vars(grid) and "y" not in vars(grid)


def test_angular_table_reduces_the_index_exactly(basis_1616):
    """The angular table at N = 49, orders 0..18, is within 1e-15 of a
    50-digit reference: each entry is cos or sin of 2 pi ((m i) mod N) / N,
    never of a rounded product m th_i (which misses by up to 2.8e-14 here)."""
    grid = build_grid(8, 256)              # the tables are valid while it lives
    tables = grid.exact_subgrid(48).tables(basis_1616)
    assert tables.grid.angular_count == 49
    want = oracles.mp_angular_table(basis_1616.n_max + 3, 49).reshape(-1, 49)
    assert np.max(np.abs(tables.angular - want)) <= 1e-15


def _speed_power(p):
    """The integrand |u|^p of lp_norm: its integral on a grid, and lp_norm's
    value raised to p."""
    def quadrature(f, g):
        v = synthesize(f, g)
        return g.integrate((v.ux ** 2 + v.uy ** 2) ** (p // 2))
    return quadrature, lambda f, grid: lp_norm(f, grid, float(p)) ** p


# integrand -> (power, order, quadrature on a given grid, the program's value
# through the policy); convection's value is a coefficient vector
_INTEGRANDS = {
    "curl^2": (2, 0, lambda f, g: g.integrate(np.square(curl_values(f, g))),
               lambda f, grid: curl_l2(f, grid) ** 2),
    **{f"|u|^{p}": (p, 0, *_speed_power(p)) for p in (2, 4, 6)},
    "convection": (2, 8, _convection_coeffs,
                   lambda f, grid: nonlinear_coeffs(f, grid.tables(f.basis)).coeffs),
}


@pytest.mark.parametrize("name", list(_INTEGRANDS))
def test_rule_for_is_exact_and_tight(basis_88, grid_small, name):
    """PolarGrid.rule_for keeps p n + order + 1 angles for a full (8,8)
    field; the integrand on them, and the program's value that asks the
    policy, equal the quadrature on 128 angles (more than the degree) to
    1e-13, and one angle fewer aliases."""
    power, order, quadrature, program = _INTEGRANDS[name]
    f = SpectralField(basis_88, np.random.default_rng(27).standard_normal(basis_88.n_modes))
    degree = power * basis_88.n_max + order
    rule = grid_small.rule_for(f, power, order)
    assert rule.angular_count == degree + 1 < grid_small.angular_count
    full = np.asarray(quadrature(f, grid_small))
    scale = np.max(np.abs(full))
    for got in (quadrature(f, rule), program(f, grid_small)):
        assert np.max(np.abs(np.asarray(got) - full)) <= 1e-13 * scale
    fewer = np.asarray(quadrature(f, grid_small.exact_subgrid(degree - 1)))
    assert np.max(np.abs(fewer - full)) > 1e-8 * scale


def test_rule_for_other_powers_and_the_refusing_form(basis_88, grid_small):
    """p = inf samples the refined grid, odd or fractional p the grid itself;
    checked_rule_for refuses one angle below the count at top order n_max."""
    f = SpectralField(basis_88, np.ones(basis_88.n_modes))
    assert grid_small.rule_for(f, math.inf) is grid_small.refined()
    assert grid_small.rule_for(f, 3.0) is grid_small.rule_for(f, 2.5) is grid_small
    assert grid_small.checked_rule_for(f, 2, 8) is grid_small.rule_for(f, 2, 8)
    with pytest.raises(ResolutionError, match=r"grid \(64, 24\) is below the dealiasing "
                       r"margin \(needs radial >= \d+, angular >= 25\)"):
        build_grid(64, 24).checked_rule_for(f, 2, 8)
