"""Dyadic partition of unity: exact support arithmetic and spectral action."""

import math

import numpy as np
import pytest

from stokesbesov import (SpectralField, active_bands, apply_band, apply_window,
                         build_basis, eta, phi, window, zero_field)

J01 = 2.404825557695773


def test_eta_branches():
    assert eta(0.9) == 1.0
    assert eta(2.5) == 0.0
    assert eta(1.5) == pytest.approx(0.5, abs=1e-15)


def test_phi_telescoping_sum():
    total = sum(phi(j, 3.0) for j in range(-30, 31))
    assert abs(total - 1.0) < 1e-15


def test_phi_plateau_and_support_points():
    assert phi(2, 4.0) == 1.0
    assert phi(5, 3.0) == 0.0


def test_phi_range_and_support_property():
    rng = np.random.default_rng(99)
    x = np.exp(rng.uniform(math.log(1e-3), math.log(1e4), size=4000))
    for j in (-4, 0, 3, 9):
        vals = phi(j, x)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        outside = (x <= math.ldexp(1.0, j - 1)) | (x >= math.ldexp(1.0, j + 1))
        assert np.all(vals[outside] == 0.0)


def test_phi_rejects_nonpositive():
    with pytest.raises(ValueError):
        phi(0, 0.0)
    with pytest.raises(ValueError):
        phi(0, np.array([1.0, -2.0]))


def test_window_covers_band_support():
    rng = np.random.default_rng(100)
    for j in (-2, 1, 6):
        lo, hi = math.ldexp(1.0, j - 1), math.ldexp(1.0, j + 1)
        x = np.exp(rng.uniform(math.log(lo * 1.0001), math.log(hi * 0.9999), 500))
        on_support = phi(j, x) > 0.0
        plateau = window(j, x)
        assert np.all(plateau[on_support] == 1.0)


def test_apply_band_empty_band(basis_88):
    f = SpectralField(basis_88, np.ones(basis_88.n_modes))
    out = apply_band(f, -20)
    assert not np.any(out.coeffs)


def test_apply_band_single_low_mode(basis_88):
    # sqrt(lambda) = j_{0,1} = 2.4048 sits in the supports of bands 1 and 2 only
    f = zero_field(basis_88)
    f.coeffs[0] = 1.0
    assert abs(math.sqrt(basis_88.lam[0]) - J01) < 1e-12
    hot = [j for j in range(-10, 12) if np.any(apply_band(f, j).coeffs)]
    assert hot and set(hot) <= {1, 2}


def test_apply_band_partition_of_unity(basis_88):
    rng = np.random.default_rng(7)
    f = SpectralField(basis_88, rng.standard_normal(basis_88.n_modes))
    total = np.zeros(basis_88.n_modes)
    for j in active_bands(basis_88):
        total += apply_band(f, j).coeffs
    assert np.max(np.abs(total - f.coeffs)) < 1e-14 * np.max(np.abs(f.coeffs))


def test_apply_window_is_identity_on_band(basis_88):
    rng = np.random.default_rng(8)
    f = SpectralField(basis_88, rng.standard_normal(basis_88.n_modes))
    for j in active_bands(basis_88):
        banded = apply_band(f, j)
        again = apply_window(banded, j)
        assert np.max(np.abs(again.coeffs - banded.coeffs)) < 1e-16


def test_active_bands_default_truncation(basis_3232):
    # sqrt(lambda) spans [2.4048, ~146.5] at (32, 32)
    rng = active_bands(basis_3232)
    assert (rng[0], rng[-1]) == (1, 8)
    assert len(rng) == 8
    assert 3 in rng and 0 not in rng


def test_active_bands_outside_range_kills_basis(basis_88):
    rng = active_bands(basis_88)
    f = SpectralField(basis_88, np.ones(basis_88.n_modes))
    for j in (rng[0] - 1, rng[-1] + 1):
        assert not np.any(apply_band(f, j).coeffs)


def test_active_bands_plateau_eigenvalue():
    # a basis whose only frequency is exactly 2^2: phi_2 = 1 there and the
    # neighbors vanish, so the range collapses to [2, 2]
    basis = build_basis(0, 1)
    basis.lam[0] = 16.0          # synthetic plateau eigenvalue, sqrt = 4
    rng = active_bands(basis)
    assert (rng[0], rng[-1]) == (2, 2)
    assert phi(2, 4.0) == 1.0
    assert phi(1, 4.0) == 0.0
    assert phi(3, 4.0) == 0.0


def test_active_bands_empty_basis_errors():
    basis_like = type("Stub", (), {"n_modes": 0, "lam": np.array([])})()
    with pytest.raises(ValueError):
        active_bands(basis_like)


def _bands_by_walking(f_lo, f_hi):
    """The threshold walk active_bands used before the frexp formula."""
    j_lo = int(np.floor(np.log2(f_lo)))
    while np.ldexp(1.0, j_lo + 1) > f_lo:
        j_lo -= 1
    while not np.ldexp(1.0, j_lo + 1) > f_lo:
        j_lo += 1
    j_hi = int(np.ceil(np.log2(f_hi)))
    while np.ldexp(1.0, j_hi - 1) < f_hi:
        j_hi += 1
    while not np.ldexp(1.0, j_hi - 1) < f_hi:
        j_hi -= 1
    return range(j_lo, j_hi + 1)


def test_active_bands_frexp_matches_threshold_walk():
    # every power of two and its neighbouring floats on both sides: the
    # band edges sit exactly there
    powers = np.ldexp(1.0, np.arange(-40, 40))
    freqs = np.concatenate([powers, np.nextafter(powers, 0.0),
                            np.nextafter(powers, np.inf),
                            np.random.default_rng(5).uniform(1e-3, 1e3, 200)])
    stub = type("Stub", (), {"n_modes": 2})()
    for f_lo in freqs[::7]:
        for f_hi in freqs:
            stub.lam = np.array([f_lo * f_lo, f_hi * f_hi])
            assert np.array_equal(np.sqrt(stub.lam), [f_lo, f_hi])   # probes land
            got, want = active_bands(stub), _bands_by_walking(f_lo, f_hi)
            assert (got.start, got.stop) == (want.start, want.stop)
