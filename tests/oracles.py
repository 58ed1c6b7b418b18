"""Independent reference computations for the test suite.

Nothing in here imports from stokesbesov: every value is produced by a
different algorithm (plain power series + bisection, adaptive quadrature,
arbitrary-precision arithmetic) so that agreement with the package is
evidence, not circularity.  The frozen literals sprinkled through the tests
were generated by these functions; each test that uses one also re-derives
it here so a regression in either side is caught.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate


def series_jn(n: int, x: float, terms: int = 200) -> float:
    """J_n by the ascending power series, summed naively.

    Only trustworthy for moderate x (the series alternates and cancels);
    the zeros we pin with it are all below x = 5 where the terms decay
    fast enough for full double accuracy.
    """
    half = 0.5 * x
    term = 1.0
    for q in range(1, n + 1):
        term *= half / q
    total = term
    z = half * half
    for k in range(1, terms):
        term *= -z / (k * (n + k))
        total += term
        if abs(term) < 1e-20 * abs(total) + 1e-300:
            break
    return total


def bisect_bessel_zero(n: int, lo: float, hi: float, tol: float = 1e-14) -> float:
    """Bisection root of J_n on [lo, hi]; the bracket must change sign."""
    f_lo = series_jn(n, lo)
    f_hi = series_jn(n, hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise ValueError(f"no sign change of J_{n} on [{lo}, {hi}]")
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        f_mid = series_jn(n, mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def mp_bessel_zero(n: int, k: int) -> float:
    """k-th positive zero of J_n at 50 digits, rounded to float."""
    with mpmath.workdps(50):
        return float(mpmath.besseljzero(n, k))


def mp_bessel_j(n: int, x: float) -> float:
    """J_n(x) at 50 digits, rounded to float."""
    with mpmath.workdps(50):
        return float(mpmath.besselj(n, x))


def mp_beta(a: float, b: float) -> float:
    """B(a, b) at 50 digits, rounded to float."""
    with mpmath.workdps(50):
        return float(mpmath.beta(a, b))


def mp_angular_table(orders: int, count: int) -> np.ndarray:
    """cos(m th_i) and sin(m th_i), th_i = 2 pi i / count, at 50 digits and
    rounded to float, shape (orders, 2, count) over m = 0 .. orders-1."""
    with mpmath.workdps(50):
        return np.array([[[float(fn(2 * mpmath.pi * m * i / count)) for i in range(count)]
                          for fn in (mpmath.cos, mpmath.sin)] for m in range(orders)])


def hand_signed_mode_values(basis, rows: np.ndarray, th: np.ndarray) -> np.ndarray:
    """Velocity of every mode at points of angle th, shape (P, n_modes, 2),
    by the closed forms u_x + i u_y = i j J_{n+1} e^{i(n+1)th} and
    u_x - i u_y = i j J_{n-1} e^{i(n-1)th} of the cosine mode, written out
    per order with the sign of sin((n-1) th) folded by hand at n = 0.

    rows[n] = (J_{n-1}(j_{n,k} r_p), J_{n+1}(j_{n,k} r_p)), each (k_max, P),
    with J_{-1} = -J_1; basis supplies n_max, group_index, zero and
    velocity_norm.  An independent sign convention for the package's
    term-table evaluator, operation for operation the same arithmetic.
    """
    out = np.zeros((th.size, basis.n_modes, 2))
    for n in range(basis.n_max + 1):
        jm, jp = rows[n]
        sm = 1.0 if n >= 1 else -1.0       # sign of sin((n-1) th) folded to |n-1|
        am = abs(n - 1)
        cp_, sp_ = np.cos((n + 1) * th), np.sin((n + 1) * th)
        cm_, sm_ = np.cos(am * th), sm * np.sin(am * th)
        idx = basis.group_index[(n, 0)]
        scale = (basis.zero[idx] / (2.0 * basis.velocity_norm[idx]))[:, None]
        out[:, idx, 0] = (-(jp * sp_ + jm * sm_) * scale).T
        out[:, idx, 1] = ((jp * cp_ - jm * cm_) * scale).T
        if n >= 1:
            idx = basis.group_index[(n, 1)]
            out[:, idx, 0] = ((jp * cp_ + jm * cm_) * scale).T
            out[:, idx, 1] = ((jp * sp_ - jm * sm_) * scale).T
    return out


def quad_beta(a: float, b: float) -> float:
    """Beta(a, b) by adaptive quadrature of t^(a-1) (1-t)^(b-1) on (0, 1).

    For a, b < 1 both endpoints are integrable singularities; splitting at
    1/2 and substituting t = s^(1/a) (resp. 1-t = s^(1/b)) removes them, so
    plain adaptive quadrature converges to full precision.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("Beta arguments must be positive")

    def left(s):
        # t = s^(1/a), dt = (1/a) s^(1/a - 1) ds maps the t^(a-1) weight away
        t = s ** (1.0 / a)
        return (1.0 - t) ** (b - 1.0) / a

    def right(s):
        t = s ** (1.0 / b)
        return (1.0 - t) ** (a - 1.0) / b

    lo, err1 = integrate.quad(left, 0.0, 0.5 ** a, epsabs=1e-13, epsrel=1e-13)
    hi, err2 = integrate.quad(right, 0.0, 0.5 ** b, epsabs=1e-13, epsrel=1e-13)
    if err1 + err2 > 1e-10:
        raise RuntimeError(f"Beta quadrature error too large: {err1 + err2}")
    return lo + hi


def quad_duhamel(g, t: float, lam: float) -> float:
    """Adaptive quadrature of the scalar Duhamel integral
    integral_0^t exp(-(t - tau) lam) g(tau) dtau."""
    val, err = integrate.quad(lambda tau: math.exp(-(t - tau) * lam) * g(tau),
                              0.0, t, epsabs=1e-13, epsrel=1e-13, limit=200)
    if err > 1e-10:
        raise RuntimeError(f"Duhamel quadrature error too large: {err}")
    return val


def _transition(x: float) -> float:
    """Smooth step eta: 1 below 1, 0 above 2, and in between
    e^{-1/(2-x)} / (e^{-1/(2-x)} + e^{-1/(x-1)})."""
    if x <= 1.0:
        return 1.0
    if x >= 2.0:
        return 0.0
    a = math.exp(-1.0 / (2.0 - x))
    b = math.exp(-1.0 / (x - 1.0))
    return a / (a + b)


def swirl_l4_norm(h: float, amplitude: float = 1.0) -> float:
    """L^4 norm over the unit disk of the centred cut-off swirl
    u_h = amplitude * (1 - eta(rho/h)) x^perp / rho^2.

    |u_h| = amplitude * (1 - eta(r/h)) / r is radial, so
    ||u_h||_4^4 = 2 pi amplitude^4 * integral_0^1 (1 - eta(r/h))^4 r^-3 dr.
    The integrand vanishes below h; on [2h, 1] the cutoff is 1 and the
    integral is (2h)^-2 / 2 - 1/2 in closed form, so only the transition
    layer [h, 2h] goes to adaptive quadrature.  The closed-form part alone
    gives ||u_h||_4 >= (pi ((2h)^-2 - 1))^{1/4}, unbounded as h -> 0.
    """
    if h <= 0.0:
        raise ValueError("swirl width must be positive")
    top = min(2.0 * h, 1.0)
    layer = 0.0
    if h < 1.0:
        layer, err = integrate.quad(lambda r: (1.0 - _transition(r / h)) ** 4 / r ** 3,
                                    h, top, epsabs=1e-13, epsrel=1e-13, limit=200)
        if err > 1e-9 * max(layer, 1.0):
            raise RuntimeError(f"swirl quadrature error too large: {err}")
    outer = 0.5 * (top ** -2 - 1.0)
    return abs(amplitude) * (2.0 * math.pi * (layer + outer)) ** 0.25


def central_diff(f, x: float, h: float = 1e-5) -> float:
    """Fourth-order central difference derivative."""
    return (8.0 * (f(x + h) - f(x - h)) - (f(x + 2 * h) - f(x - 2 * h))) / (12.0 * h)


def scipy_jn_zeros(n: int, count: int) -> np.ndarray:
    from scipy import special
    return special.jn_zeros(n, count)


def scipy_jv(n: int, x) -> float | np.ndarray:
    from scipy import special
    return special.jv(n, x)


def axisymmetric_mode_lp(k: int, p: float) -> float:
    """L^p norm over the unit disk of the unit-L^2 Stokes mode with stream
    function J_0(j r), j the k-th zero of J_0.  Its speed is the closed
    radial profile |psi_r| = j |J_1(j r)| (up to the normalization), so
    both the L^p and the L^2 integral are one adaptive radial quadrature
    each: ||u||_p / ||u||_2 = (2 pi int g^p r dr)^(1/p) / (2 pi int g^2 r dr)^(1/2)."""
    from scipy import special
    j = float(special.jn_zeros(0, k)[-1])

    def moment(q):
        val, err = integrate.quad(lambda r: abs(j * special.jv(1, j * r)) ** q * r,
                                  0.0, 1.0, limit=200, epsabs=1e-15, epsrel=1e-13)
        if err > 1e-12 * abs(val):
            raise RuntimeError(f"radial quadrature error too large: {err}")
        return 2.0 * math.pi * val

    return moment(p) ** (1.0 / p) / math.sqrt(moment(2.0))
