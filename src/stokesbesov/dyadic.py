"""Smooth dyadic partition of unity on (0, infinity) and its spectral action.

Three functions describe the partition.  eta is the transition function:
identically 1 below 1, identically 0 above 2, smooth in between, realized
as the bump quotient rho(2-x) / (rho(2-x) + rho(x-1)) with rho(t) =
exp(-1/t) for t > 0.  phi(j, x) = eta(2^-j x) - eta(2^-j+1 x) is band j,
supported in (2^(j-1), 2^(j+1)), with phi(j, 2^j) = 1 exactly; the bands
telescope, so any contiguous sum collapses to a difference of two eta
values and the full sum is 1 for every x > 0.  window(j, x) is the
telescoped sum of bands j-1, j and j+1.

On a spectral field the band acts diagonally: multiply the coefficient of an
eigenmode with eigenvalue lambda by phi(j, sqrt(lambda)).  Powers of two and
the scalings 2^-j x are exact in floating point, so support statements and
plateau values hold exactly, not just approximately.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import Basis, SpectralField


def eta(x):
    """Transition function: 1 for x <= 1, 0 for x >= 2."""
    arr = np.asarray(x, dtype=float)
    out = np.ones_like(arr)
    out[arr >= 2.0] = 0.0
    mid = (arr > 1.0) & (arr < 2.0)
    xm = arr[mid]
    a = np.exp(-1.0 / (2.0 - xm))
    b = np.exp(-1.0 / (xm - 1.0))
    out[mid] = a / (a + b)
    return float(out) if np.isscalar(x) else out


def _eta_difference(lam, a: int, b: int):
    """eta(2^-a lam) - eta(2^-b lam), defined for lam > 0 only."""
    lam_arr = np.asarray(lam, dtype=float)
    if (lam_arr <= 0.0).any():
        raise ValueError("dyadic bands are defined on positive arguments only")
    out = eta(np.ldexp(lam_arr, -a)) - eta(np.ldexp(lam_arr, -b))
    return float(out) if np.isscalar(lam) else out


def phi(j: int, lam):
    """Band j evaluated at lam > 0 (zero outside (2^(j-1), 2^(j+1)))."""
    return _eta_difference(lam, j, j - 1)


def window(j: int, lam):
    """phi_{j-1} + phi_j + phi_{j+1}, telescoped so it is exactly 1 on
    the support of phi_j."""
    return _eta_difference(lam, j + 1, j - 2)


def _multiplier(basis: Basis, j: int, widened: bool) -> np.ndarray:
    """phi_j(sqrt(lambda)) (or the window Phi_j) over the basis; computed
    once per (basis, j) and kept on the basis."""
    key = (j, widened)
    row = basis.multipliers.get(key)
    if row is None:
        freq = np.sqrt(basis.lam)
        row = window(j, freq) if widened else phi(j, freq)
        row.flags.writeable = False
        basis.multipliers[key] = row
    return row


def apply_band(f: SpectralField, j: int) -> SpectralField:
    """phi_j(sqrt(A)) f: diagonal multiplier on the eigencoefficients."""
    return SpectralField(f.basis, f.coeffs * _multiplier(f.basis, j, False))


def apply_window(f: SpectralField, j: int) -> SpectralField:
    """Phi_j(sqrt(A)) f, the widened companion of apply_band."""
    return SpectralField(f.basis, f.coeffs * _multiplier(f.basis, j, True))


def active_bands(basis: Basis) -> range:
    """Smallest index range j_lo..j_hi outside which every band kills the
    whole basis.

    j_lo is the least j with 2^(j+1) > sqrt(lambda_min); j_hi the greatest j
    with 2^(j-1) < sqrt(lambda_max).  Strict inequalities match the open
    band supports.
    """
    if basis.n_modes == 0:
        raise ValueError("basis has no modes")
    # f = m 2^e with 1/2 <= m < 1, so 2^(e-1) <= f < 2^e: the least j with
    # 2^(j+1) > f is e - 1, the greatest with 2^(j-1) < f is e, or e - 1
    # when f = 2^(e-1) exactly
    _, e_lo = math.frexp(float(np.sqrt(basis.lam[0])))
    m_hi, e_hi = math.frexp(float(np.sqrt(basis.lam[-1])))
    return range(e_lo - 1, e_hi - (m_hi == 0.5) + 1)
