"""Smooth dyadic partition of unity on (0, infinity) and its spectral action.

The partition is built from a single transition function eta: identically 1
below 1, identically 0 above 2, smooth in between, realized as the bump
quotient rho(2-x) / (rho(2-x) + rho(x-1)) with rho(t) = exp(-1/t) for t > 0.
Band j is phi_j(x) = eta(2^-j x) - eta(2^-j+1 x), supported in
(2^(j-1), 2^(j+1)), with phi_j(2^j) = 1 exactly; the bands telescope, so any
contiguous sum collapses to a difference of two eta values and the full sum
is 1 for every x > 0.

On a spectral field the band acts diagonally: multiply the coefficient of an
eigenmode with eigenvalue lambda by phi_j(sqrt(lambda)).  Powers of two and
the scalings 2^-j x are exact in floating point, so support statements and
plateau values hold exactly, not just approximately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import Basis, SpectralField


def _bump_quotient(x: np.ndarray) -> np.ndarray:
    out = np.ones_like(x)
    out[x >= 2.0] = 0.0
    mid = (x > 1.0) & (x < 2.0)
    xm = x[mid]
    a = np.exp(-1.0 / (2.0 - xm))
    b = np.exp(-1.0 / (xm - 1.0))
    out[mid] = a / (a + b)
    return out


@dataclass(frozen=True)
class BandRange:
    """Contiguous dyadic indices that act nontrivially on a basis."""

    j_lo: int
    j_hi: int

    def __iter__(self):
        return iter(range(self.j_lo, self.j_hi + 1))

    def __len__(self):
        return self.j_hi - self.j_lo + 1

    def __contains__(self, j):
        return self.j_lo <= j <= self.j_hi


class DyadicPartition:
    """Dyadic family generated by the transition function eta: 1 for
    x <= 1, 0 for x >= 2; bands, windows and truncated sums derive from it."""

    def eta(self, x):
        scalar = np.isscalar(x)
        out = _bump_quotient(np.asarray(x, dtype=float))
        return float(out) if scalar else out

    def phi(self, j: int, lam):
        """Band j evaluated at lam > 0 (zero outside (2^(j-1), 2^(j+1)))."""
        lam_arr = np.asarray(lam, dtype=float)
        if (lam_arr <= 0.0).any():
            raise ValueError("dyadic bands are defined on positive arguments only")
        out = self.eta(np.ldexp(lam_arr, -j)) - self.eta(np.ldexp(lam_arr, -j + 1))
        return float(out) if np.isscalar(lam) else out

    def window(self, j: int, lam):
        """phi_{j-1} + phi_j + phi_{j+1}, telescoped so it is exactly 1 on
        the support of phi_j."""
        lam_arr = np.asarray(lam, dtype=float)
        if (lam_arr <= 0.0).any():
            raise ValueError("dyadic bands are defined on positive arguments only")
        out = self.eta(np.ldexp(lam_arr, -j - 1)) - self.eta(np.ldexp(lam_arr, -j + 2))
        return float(out) if np.isscalar(lam) else out


DEFAULT_PARTITION = DyadicPartition()


def _multiplier(basis: Basis, j: int, widened: bool) -> np.ndarray:
    """phi_j(sqrt(lambda)) (or the window Phi_j) over the basis; computed
    once per (basis, j) and kept on the basis."""
    key = (j, widened)
    row = basis.multipliers.get(key)
    if row is None:
        freq = np.sqrt(basis.lam)
        row = DEFAULT_PARTITION.window(j, freq) if widened else DEFAULT_PARTITION.phi(j, freq)
        row.flags.writeable = False
        basis.multipliers[key] = row
    return row


def apply_band(f: SpectralField, j: int) -> SpectralField:
    """phi_j(sqrt(A)) f: diagonal multiplier on the eigencoefficients."""
    return SpectralField(f.basis, f.coeffs * _multiplier(f.basis, j, False))


def apply_window(f: SpectralField, j: int) -> SpectralField:
    """Phi_j(sqrt(A)) f, the widened companion of apply_band."""
    return SpectralField(f.basis, f.coeffs * _multiplier(f.basis, j, True))


def active_bands(basis: Basis) -> BandRange:
    """Smallest index range outside which every band kills the whole basis.

    j_lo is the least j with 2^(j+1) > sqrt(lambda_min); j_hi the greatest j
    with 2^(j-1) < sqrt(lambda_max).  Strict inequalities match the open
    band supports.
    """
    if basis.n_modes == 0:
        raise ValueError("basis has no modes")
    f_lo = float(np.sqrt(basis.lam[0]))
    f_hi = float(np.sqrt(basis.lam[-1]))
    # both predicates are monotone in j: walk to the exact threshold
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
    return BandRange(j_lo, j_hi)
