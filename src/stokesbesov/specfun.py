"""Scalar special-function kernel: integer-order Bessel functions J_n, their
positive zeros, Gauss-Legendre rules on (0, 1), and the Beta function
(from the standard library's math.lgamma).

Everything is float64.  Accuracy targets, verified in the test suite against
high-precision references: 1e-12 absolute for J_n over n <= 256, x <= 1e4;
1e-11 absolute for zeros; 1e-12 relative for Beta on its domain (0, 100].

J_n is evaluated, scalar or array alike, by one table routine that routes
each x > 0 by (q_max, x) alone.  At and above the switch x = max(16, q_max)
every requested order is at most x, where the upward recurrence J_{q+1} =
(2q/x) J_q - J_{q-1} is stable (Gautschi, SIAM Review 9, 1967); it starts
from J_0 and J_1 by the Hankel expansion (DLMF 10.17.3) summed through a_37;
its first omitted term is largest at x = 16, 3e-15 of the envelope
sqrt(2/(pi x)) or 6e-16 absolute, and shrinks like x^-38 above.  Below
the switch a downward Miller recurrence runs from s + floor(15 s^(1/3)) +
22 rounded up to even, s the switch, and is normalized with the Neumann
identity J_0 + 2*sum_k J_{2k} = 1.  Against 50-digit mpmath over
q_max <= 256 and 1e-8 <= x <= 1e4 both regimes read within about 1.2e-15
absolute; below x = 1e-12, J_0 = 1 and J_q = 0 are taken as exact.

bessel_j_table(q_max, x, orders=...) computes only the rows a caller reads,
or only a few orders per x, and every entry is bit for bit that of the full
table up to q_max: the bits depend on q_max, q and x alone, not on which
orders are requested nor on which other x share the call.  So a table on a
set of x is the column-wise join of tables on its parts.

The zeros j_{m,k}, m <= n, k <= K, are solved as one block.  Zeros of one
order lie more than j_{0,2} - j_{0,1} > 3 apart, so the k-th sign change of
row m in one table of J_0..J_n on x = 0.25, 0.5, ... (up to McMahon's
j_{n,K+1} + 2) brackets j_{m,k}; too few sign changes is a NumericalError.
One Newton-bisection loop refines every bracket in lockstep, a step being
one table call at the orders m - 1, m, m + 1 of each zero, and the
interlacing j_{m-1,k} < j_{m,k} < j_{m-1,k+1} (DLMF 10.21(i)) is checked
after convergence.  The block is cached.  A request outside it solves an
enlarged block that keeps every entry already held, so a zero never changes
once returned and a smaller basis's zeros are a prefix of a larger one's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

_UPWARD_X_MIN = 16.0
MAX_QUADRATURE_ORDER = 4096


@dataclass
class QuadratureRule:
    """Nodes and weights for integration over (0, 1); weights sum to 1."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule with `order` points, mapped affinely to (0, 1).

    Exact for polynomials of degree <= 2*order - 1.
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError("quadrature order must be a positive integer")
    if order > MAX_QUADRATURE_ORDER:
        raise ValueError(f"quadrature order above {MAX_QUADRATURE_ORDER} is not supported")
    x, w = np.polynomial.legendre.leggauss(int(order))
    return QuadratureRule(nodes=(x + 1.0) / 2.0, weights=w / 2.0, order=int(order))


def _hankel_coefficients(terms: int) -> np.ndarray:
    """Rows P_0, P_1, Q_0, Q_1 of the Hankel sums in z = 1/x^2 (DLMF
    10.17.3): P_nu = sum_i (-1)^i a_2i(nu) z^i, Q_nu x = sum_i (-1)^i
    a_2i+1(nu) z^i, with a_k(nu) = prod_{j<=k} (4 nu^2 - (2j - 1)^2) / (k! 8^k)
    accumulated in integers and rounded once."""
    table = np.ones((2, 2 * terms))
    for nu in (0, 1):
        num = den = 1
        for k in range(1, 2 * terms):
            num *= 4 * nu * nu - (2 * k - 1) ** 2
            den *= 8 * k
            table[nu, k] = num / den              # int / int rounds once
    return np.concatenate([table[:, 0::2], table[:, 1::2]]) * (-1.0) ** np.arange(terms)


# a_0 .. a_37 (module docstring)
_HANKEL = _hankel_coefficients(19)


def _slots(orders: np.ndarray) -> dict:
    """q -> the cells of a (rows, x.size) table that hold order q: whole rows
    for one order per row (orders of shape (r, 1)), single cells for one
    order per element (shape (r, x.size))."""
    rows, cols = np.divmod(np.argsort(orders, axis=None, kind="stable"), orders.shape[1])
    qs, first = np.unique(orders[rows, cols], return_index=True)
    return {q: (rows[a:b], cols[a:b] if orders.shape[1] > 1 else slice(None))
            for q, a, b in zip(qs.tolist(), first, [*first[1:], rows.size])}


def _upward_table(orders: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_q(x) at the orders for x >= max(_UPWARD_X_MIN, every order): J_0 and
    J_1 from the Hankel expansion, then the recurrence upward, which is
    stable for q <= x.  Each entry depends on its x and q alone.

    cos and sin of x - nu pi/2 - pi/4 come from cos x and sin x, so no
    rounded phase enters."""
    inv_x = 1.0 / x
    jp = inv_x * inv_x                            # z = 1/x^2, scratch after
    sums = np.zeros((4, x.size))
    for col in range(_HANKEL.shape[1] - 1, -1, -1):
        sums *= jp
        sums += _HANKEL[:, col, None]
    jm, jc, q0, q1 = sums                         # P_0, P_1, Q_0 x, Q_1 x
    cos, minus = np.cos(x), np.sin(x)
    plus = minus + cos                            # sin x + cos x
    minus -= cos                                  # sin x - cos x
    amp = inv_x / np.pi
    np.sqrt(amp, out=amp)
    q0 *= inv_x
    q1 *= inv_x
    jm *= plus
    jm -= np.multiply(q0, minus, out=q0)
    jm *= amp                                     # J_q, q = 0
    jc *= minus
    jc += np.multiply(q1, plus, out=q1)
    jc *= amp                                     # J_{q+1}
    slot = _slots(orders)
    tab = np.zeros((orders.shape[0], x.size))
    for q in range(max(slot) + 1):
        cell = slot.get(q)
        if cell is not None:
            tab[cell] = jm[cell[1]]
        np.multiply(inv_x, 2.0 * (q + 1), out=jp)
        jp *= jc
        jp -= jm                                   # J_{q+2}
        jm, jc, jp = jc, jp, jm
    return tab


def _miller_table(switch: float, orders: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Downward-recurrence J_q(x) at the orders, shaped as in _upward_table,
    vectorized over a 1-D array of 0 < x below the switch max(_UPWARD_X_MIN,
    q_max), q_max >= every order.

    The start index depends on the switch alone and each x is rescaled at
    the first step its own value passes the threshold, so the recurrence,
    its rescalings and hence every entry are the same whichever orders and
    other x are in the call.
    """
    start = int(switch) + int(15.0 * switch ** (1.0 / 3.0)) + 22
    start += start % 2
    # step q writes J~_q to the entries of order q: whole rows, or single cells
    slot = _slots(orders)
    tab = np.zeros((orders.shape[0], x.size))
    jp = np.zeros_like(x)                 # J~_{k+1}
    jc = np.full_like(x, 1e-30)           # J~_k, k = start
    jm = np.empty_like(x)
    acc = 2.0 * jc
    inv_x = 1.0 / x
    # bound >= max(|J~_k|, |J~_{k+1}|) over all x; one step multiplies it by
    # at most 2k max(1/x) + 1, and the 1e-12 margin covers the roundings.
    # The overflow test runs only once the bound passes its threshold, so
    # it fires at exactly the steps where testing every step would.
    grow = 2.0 * float(inv_x.max())
    bound = 1e-30
    for k in range(start, 0, -1):
        np.multiply(inv_x, 2.0 * k, out=jm)
        jm *= jc
        jm -= jp                          # J~_{k-1}
        jp, jc, jm = jc, jm, jp
        q = k - 1
        cell = slot.get(q)
        if cell is not None:
            tab[cell] = jc[cell[1]]
        if q == 0:
            acc += jc
        elif q % 2 == 0:
            acc += np.multiply(jc, 2.0, out=jm)
        bound *= (k * grow + 1.0) * (1.0 + 1e-12)
        if bound > 1e250:
            big = np.abs(jc) > 1e250
            if big.any():
                s = np.where(big, 1e-250, 1.0)
                jc *= s
                jp *= s
                acc *= s
                tab *= s
            bound = max(float(np.abs(jc).max()), float(np.abs(jp).max()))
    tab /= acc
    return tab


def bessel_j_table(q_max: int, x, orders=None) -> np.ndarray:
    """J_q(x) for all orders q = 0..q_max, vectorized over an array of finite
    x >= 0.

    With orders (integers in 0..q_max, repeats allowed) row i of the result
    is J_{orders[i]}, or J_{orders[..., i]}(x) when orders has shape
    x.shape + (r,), one sequence per x; every entry has the bits of the full
    table.  Routes each element by (q_max, x) alone, through the Hankel
    expansion and the upward recurrence at x >= max(16, q_max) and the
    Miller recurrence below; this is the workhorse behind basis tables,
    point evaluation and the zero finder.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not (np.isfinite(x) & (x >= 0)).all():
        raise ValueError("bessel_j_table requires finite x >= 0")
    wanted = np.arange(q_max + 1) if orders is None else np.asarray(orders, dtype=int)
    per_x = wanted.ndim > 1
    if (wanted.ndim == 0 or wanted.shape[:-1] != (x.shape if per_x else ())
            or wanted.size == 0 or wanted.min() < 0 or wanted.max() > q_max):
        raise ValueError("orders must be one non-empty sequence within 0..q_max, "
                         "or one per x")
    grid = wanted.reshape(x.size, -1).T if per_x else wanted[:, None]
    shape, x = x.shape, x.ravel()
    out = np.zeros((grid.shape[0], x.size))
    tiny = x < 1e-12
    if tiny.any():
        out[(grid == 0) & tiny] = 1.0     # J_0(0) = 1, J_q(0) = 0 for q >= 1
    switch = max(_UPWARD_X_MIN, q_max)
    upward = x >= switch
    below = ~(tiny | upward)
    if upward.any():
        out[:, upward] = _upward_table(grid[:, upward] if per_x else grid, x[upward])
    if below.any():
        out[:, below] = _miller_table(switch, grid[:, below] if per_x else grid, x[below])
    return out.reshape((-1,) + shape)


def _mcmahon_guess(n, k) -> np.ndarray:
    """Asymptotic initializer for the k-th positive zero of J_n."""
    k = np.asarray(k, dtype=float)
    beta = (k + 0.5 * n - 0.25) * np.pi
    mu = 4.0 * n * n
    b8 = 8.0 * beta
    c1 = (mu - 1.0) / b8
    c3 = 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * b8**3)
    c5 = 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0) / (15.0 * b8**5)
    c7 = (64.0 * (mu - 1.0)
          * (6949.0 * mu**3 - 153855.0 * mu * mu + 1585743.0 * mu - 6277237.0)
          / (105.0 * b8**7))
    return beta - c1 - c3 - c5 - c7


def _jn_with_prime(n, x: np.ndarray):
    """(J_n(x), J_n'(x)), with J_n' = (J_{n-1} - J_{n+1}) / 2 and J_{-1} = -J_1;
    n is one order, or one order per x."""
    n = np.asarray(n)
    orders = np.stack([abs(n - 1), n, n + 1], axis=-1)
    jm, jn, jp = bessel_j_table(int(n.max()) + 1, x, orders=orders)
    return jn, 0.5 * (np.where(n >= 1, jm, -jm) - jp)


def _newton_bisect(n, guess: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                   flo: np.ndarray) -> np.ndarray:
    """Newton iteration on J_n inside brackets [lo, hi] with flo = J_n(lo) of
    the other sign than J_n(hi), bisection fallback.  n broadcasts against
    the brackets; each step evaluates only the zeros not yet converged.

    Convergence is judged on the Newton step itself, before the brackets
    are tightened: tightening first would pin a bracket endpoint onto the
    converged point and push the next candidate into the bisection branch.
    """
    x = np.clip(guess, lo + 1e-12, hi - 1e-12)
    n, lo, hi, flo = (np.broadcast_to(a, x.shape).flatten() for a in (n, lo, hi, flo))
    flat, live = x.ravel(), np.arange(x.size)
    for _ in range(200):
        if live.size == 0:
            return x
        f, fp = _jn_with_prime(n[live], flat[live])
        step = f / np.where(fp != 0.0, fp, 1.0)
        act = (fp == 0.0) | (np.abs(step) > 1e-15 * np.abs(flat[live]) + 1e-16)
        live, f, fp, step = live[act], f[act], fp[act], step[act]
        xl = flat[live]
        same = (f * flo[live]) > 0.0
        lo[live] = np.where(same, xl, lo[live])
        flo[live] = np.where(same, f, flo[live])
        hi[live] = np.where(same, hi[live], xl)
        low, high, cand = lo[live], hi[live], xl - step
        fallback = (fp == 0.0) | ~np.isfinite(cand) | (cand <= low) | (cand >= high)
        flat[live] = np.where(fallback, 0.5 * (low + high), cand)
        live = live[(high - low) > 1e-15 * np.abs(flat[live])]
    raise NumericalError(f"zero refinement did not converge for orders {np.unique(n[live])}")


def _lockstep_zeros(n: int, count: int) -> np.ndarray:
    """The first count positive zeros of J_0..J_n, shape (n + 1, count)."""
    cols = count + 1                      # the extra zero bounds the interlacing check
    xs = 0.25 * np.arange(1.0, 4.0 * (float(_mcmahon_guess(n, cols)) + 2.0) + 1.0)
    table = bessel_j_table(n, xs)
    change = table[:, :-1] * table[:, 1:] < 0.0
    if (change.sum(axis=1) < cols).any():
        raise NumericalError(f"too few sign changes of J_0..J_{n} below x = {xs[-1]:g}")
    cells = np.nonzero(change & (np.cumsum(change, axis=1) <= cols))[1].reshape(n + 1, cols)
    orders = np.arange(n + 1)[:, None]
    zeros = _newton_bisect(orders, _mcmahon_guess(orders, np.arange(1, cols + 1)),
                           xs[cells], xs[cells + 1], np.take_along_axis(table, cells, axis=1))
    if not ((zeros[:-1, :-1] < zeros[1:, :-1]) & (zeros[1:, :-1] < zeros[:-1, 1:])).all():
        raise NumericalError(f"zeros of J_0..J_{n} do not interlace")
    return zeros[:, :count]


_zero_block = np.empty((0, 0))


def _zeros_row(n: int, count: int) -> np.ndarray:
    """The first count zeros of J_n, a slice of the cached block."""
    global _zero_block
    held = _zero_block
    if n >= held.shape[0] or count > held.shape[1]:
        block = _lockstep_zeros(max(n, held.shape[0] - 1), max(count, held.shape[1]))
        block[:held.shape[0], :held.shape[1]] = held
        _zero_block = held = block
    return held[n, :count]


def bessel_zero(n: int, k: int) -> float:
    """k-th positive zero of J_n (k = 1, 2, ...), accurate to ~1e-13 relative."""
    return float(bessel_zeros_row(n, k)[-1])


def bessel_zeros_row(n: int, k_max: int) -> np.ndarray:
    """First k_max positive zeros of J_n as an array (convenience wrapper)."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError("order n must be a non-negative integer")
    if not isinstance(k_max, (int, np.integer)) or k_max < 1:
        raise ValueError("zero count must be a positive integer")
    return _zeros_row(int(n), int(k_max)).copy()


def beta_function(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b) for
    0 < a, b <= 100, the domain the Duhamel time weights need.

    Any other argument, NaN and inf included, raises ValueError: above 100
    the log-Gamma sum cancels (B(1e8, 1/2) is 1.6e-8 off).  A quotient
    beyond the float range raises OverflowError (math.exp).
    """
    a = float(a)
    b = float(b)
    if not (0.0 < a <= 100.0 and 0.0 < b <= 100.0):
        raise ValueError(f"beta_function needs finite arguments in (0, 100], got ({a}, {b})")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
