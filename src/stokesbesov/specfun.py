"""Scalar special-function kernel: integer-order Bessel functions J_n, their
positive zeros, Gauss-Legendre rules on (0, 1), and the Beta function.

Everything is float64.  Accuracy targets, verified in the test suite against
high-precision references: 1e-12 absolute for J_n over n <= 256, x <= 1e4;
1e-11 absolute for zeros; 1e-12 relative for Beta on positive arguments.

J_n is evaluated, scalar or array alike, by one table routine: the
ascending power series for x <= 12, where its cancellation stays within the
1e-12 budget for every order, and a downward Miller recurrence normalized
with the Neumann identity J_0 + 2*sum_k J_{2k} = 1 above that.

bessel_j_table(q_max, x, orders=...) computes only the rows a caller reads,
each bit for bit the row of the full table up to q_max: the bits do not
depend on which rows are requested.  The Miller start is unchanged by
orders, ceil(max(q_max, max x)) + floor(15 max(x, 1)^(1/3)) + 22 rounded up
to even (Gautschi, SIAM Review 9, 1967), so only q_max and the largest x of
the call move bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

_SERIES_X_MAX = 12.0
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


def _series_table(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Power-series J_q(x) at the sorted orders rows; x is 1-D and small.

    The leading factors (x/2)^q / q! come from one chain over every q up to
    rows[-1], so a row is the same product whichever rows are asked for.
    """
    half = 0.5 * x
    leads = [np.ones_like(x)]
    for q in range(1, int(rows[-1]) + 1):
        leads.append(leads[-1] * half / q)
    term = np.stack([leads[q] for q in rows])      # (rows, nx): (x/2)^q / q!
    total = term.copy()
    neg_z = -(half * half)
    ks = np.arange(1, 60)[:, None]
    denom = (ks * (rows + ks)).astype(float)[:, :, None]   # k (q + k), exact
    for k in range(1, 60):
        np.multiply(term, neg_z, out=term)
        np.divide(term, denom[k - 1], out=term)
        total += term
    return total


def _miller_table(q_max: int, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Downward-recurrence J_q(x) at the sorted orders rows (each <= q_max),
    vectorized over a 1-D array of x > 0.

    The start index depends on q_max and max(x) alone, so the recurrence,
    its rescalings and hence every row are the same whichever rows are kept.
    """
    xmax = float(x.max())
    start = int(np.ceil(max(q_max, xmax))) + int(15.0 * max(xmax, 1.0) ** (1.0 / 3.0)) + 22
    start += start % 2
    slot = {int(q): i for i, q in enumerate(rows)}
    tab = np.zeros((rows.size, x.size))
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
        i = slot.get(q)
        if i is not None:
            tab[i] = jc
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
    """J_q(x) for all orders q = 0..q_max, vectorized over an array of x >= 0.

    With orders (a sequence of integers in 0..q_max, repeats allowed) only
    those rows are computed, and row i of the result is J_{orders[i]}: the
    same bits as that row of the full table.  Routes each element through
    the power series or the Miller recurrence; this is the workhorse behind
    basis tables and point evaluation.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if (x < 0).any():
        raise ValueError("bessel_j_table requires x >= 0")
    wanted = np.arange(q_max + 1) if orders is None else np.asarray(orders, dtype=int)
    if wanted.ndim != 1 or wanted.size == 0 or wanted.min() < 0 or wanted.max() > q_max:
        raise ValueError("orders must be a non-empty sequence within 0..q_max")
    rows, pick = np.unique(wanted, return_inverse=True)
    out = np.zeros((rows.size,) + x.shape)
    tiny = x < 1e-12
    if tiny.any() and rows[0] == 0:
        out[0][tiny] = 1.0                # J_0(0) = 1, J_q(0) = 0 for q >= 1
    small = (~tiny) & (x <= _SERIES_X_MAX)
    if small.any():
        out[:, small] = _series_table(rows, x[small])
    rest = (~tiny) & (~small)
    if rest.any():
        out[:, rest] = _miller_table(q_max, rows, x[rest])
    return out if orders is None else out[pick]


def bessel_j(n: int, x) -> float:
    """Bessel function J_n(x) for integer n >= 0 and real x >= 0."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError("order n must be a non-negative integer")
    val = bessel_j_table(int(n), x, orders=(n,))[0]
    return float(val[0]) if np.ndim(x) == 0 else val


def bessel_j_prime(n: int, x) -> float:
    """Derivative J_n'(x) via J_n' = (J_{n-1} - J_{n+1}) / 2, J_0' = -J_1."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError("order n must be a non-negative integer")
    val = _jn_with_prime(int(n), x)[1]
    return float(val[0]) if np.ndim(x) == 0 else val


_MCMAHON_PI = np.pi


def _mcmahon_guess(n: int, k) -> np.ndarray:
    """Asymptotic initializer for the k-th positive zero of J_n."""
    k = np.asarray(k, dtype=float)
    beta = (k + 0.5 * n - 0.25) * _MCMAHON_PI
    mu = 4.0 * n * n
    b8 = 8.0 * beta
    c1 = (mu - 1.0) / b8
    c3 = 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * b8**3)
    c5 = 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0) / (15.0 * b8**5)
    c7 = (64.0 * (mu - 1.0)
          * (6949.0 * mu**3 - 153855.0 * mu * mu + 1585743.0 * mu - 6277237.0)
          / (105.0 * b8**7))
    return beta - c1 - c3 - c5 - c7


def _jn_with_prime(n: int, x: np.ndarray):
    """(J_n(x), J_n'(x)), with J_n' = (J_{n-1} - J_{n+1}) / 2 and J_{-1} = -J_1."""
    jm, jn, jp = bessel_j_table(n + 1, x, orders=(abs(n - 1), n, n + 1))
    return jn, 0.5 * ((jm if n >= 1 else -jm) - jp)


def _newton_bisect(n: int, guess: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Newton iteration on J_n inside verified brackets, bisection fallback.

    Convergence is judged on the Newton step itself, before the brackets
    are tightened: tightening first would pin a bracket endpoint onto the
    converged point and push the next candidate into the bisection branch.
    """
    # both bracket ends in one table: only their signs are read
    (flo, fhi), _ = _jn_with_prime(n, np.stack([lo, hi]))
    if (flo * fhi >= 0).any():
        raise NumericalError(f"zero bracket failed for order {n}")
    x = np.clip(guess, lo + 1e-12, hi - 1e-12)
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(200):
        f, fp = _jn_with_prime(n, x)
        safe_fp = np.where(fp != 0.0, fp, 1.0)
        step = f / safe_fp
        done |= (fp != 0.0) & (np.abs(step) <= 1e-15 * np.abs(x) + 1e-16)
        if done.all():
            return x
        act = ~done
        same = (f * flo) > 0.0
        lo = np.where(act & same, x, lo)
        flo = np.where(act & same, f, flo)
        hi = np.where(act & ~same, x, hi)
        cand = x - step
        fallback = (fp == 0.0) | ~np.isfinite(cand) | (cand <= lo) | (cand >= hi)
        new = np.where(fallback, 0.5 * (lo + hi), cand)
        x = np.where(act, new, x)
        done |= act & ((hi - lo) <= 1e-15 * np.abs(x))
    raise NumericalError(f"zero refinement did not converge for order {n}")


_zero_rows: dict[int, np.ndarray] = {}


def _zeros_row(n: int, count: int) -> np.ndarray:
    have = _zero_rows.get(n)
    if have is not None and have.size >= count:
        return have[:count]
    # Row n brackets come from row n-1 (zeros of consecutive orders
    # interlace: j_{n-1,k} < j_{n,k} < j_{n-1,k+1}), so build every missing
    # ancestor in one bottom-up pass, each with exactly the headroom its
    # descendants need.  Asking rows one at a time from the outside would
    # otherwise rebuild each ancestor once per order above it.
    for m in range(0, n + 1):
        need = count + (n - m)
        have_m = _zero_rows.get(m)
        if have_m is not None and have_m.size >= need:
            continue
        ks = np.arange(1, need + 1)
        guess = _mcmahon_guess(m, ks)
        if m == 0:
            # McMahon is within 0.06 of every J_0 zero and the spacing is
            # ~pi, so a fixed window brackets each zero.
            lo, hi = guess - 0.6, guess + 0.6
            lo[0] = max(lo[0], 1.0)
        else:
            upper = _zero_rows[m - 1]
            lo = upper[:need] + 1e-9
            hi = upper[1:need + 1] - 1e-9
            guess = np.clip(guess, lo, hi)
        _zero_rows[m] = _newton_bisect(m, guess, lo, hi)
    return _zero_rows[n][:count]


def bessel_zero(n: int, k: int) -> float:
    """k-th positive zero of J_n (k = 1, 2, ...), accurate to ~1e-13 relative."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError("order n must be a non-negative integer")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError("zero index k must be a positive integer")
    return float(_zeros_row(int(n), int(k))[k - 1])


def bessel_zeros_row(n: int, k_max: int) -> np.ndarray:
    """First k_max positive zeros of J_n as an array (convenience wrapper)."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return _zeros_row(int(n), int(k_max)).copy()


# Lanczos approximation for log Gamma, g = 7 with 9 coefficients.  This fixed
# parameter set gives ~1e-15 relative accuracy on the positive real axis.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * np.log(2.0 * np.pi)


def _lgamma_signed(z: float) -> tuple[float, float]:
    """(log |Gamma(z)|, sign) for real non-pole z, via Lanczos + reflection."""
    if z <= 0.0 and z == np.floor(z):
        raise ValueError(f"Gamma pole at z = {z}")
    if z < 0.5:
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        lg, sign = _lgamma_signed(1.0 - z)
        s = np.sin(np.pi * z)
        return np.log(np.pi / abs(s)) - lg, (1.0 if s > 0 else -1.0) * sign
    zz = z - 1.0
    a = _LANCZOS_C[0]
    for i in range(1, 9):
        a += _LANCZOS_C[i] / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (zz + 0.5) * np.log(t) - t + np.log(a), 1.0


def beta_function(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b).

    Defined for real a, b away from the poles of the Gamma factors
    (non-positive integers); the common use here is positive arguments.
    """
    a = float(a)
    b = float(b)
    for z in (a, b, a + b):
        if z <= 0.0 and z == np.floor(z):
            raise ValueError(f"beta_function pole: argument combination hits Gamma({z})")
    la, sa = _lgamma_signed(a)
    lb, sb = _lgamma_signed(b)
    lab, sab = _lgamma_signed(a + b)
    return sa * sb * sab * float(np.exp(la + lb - lab))
