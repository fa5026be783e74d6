"""Scalar special functions used by the closed-form layer.

Everything here is authored locally so the test oracles (direct adaptive
quadrature of the defining integrals) stay independent: the package imports
no scipy at all, so scipy.special is not even loaded by `import hyperex`.

exp_integral_ei
    The exponential integral Ei(x) = -PV int_{-x}^oo e^{-t}/t dt, computed in
    three regimes split at |x| = 6:

      |x| <= 6   power series  Ei(x) = gamma + ln|x| + sum_k x^k/(k k!),
                 accumulated in extended precision: at x = -6 the alternating
                 series peaks near 13.5 while the result is ~3.6e-4, so double
                 accumulation would lose ~4.5 of the required 12 digits.
      x <= -6    Ei(x) = -E1(-x) with E1(y) = e^-y / (y+1- 1^2/(y+3- 2^2/(...)))
                 evaluated by the modified Lentz algorithm (a_k = -k^2,
                 b_k = y + 2k + 1).
      6 <= x <= 700
                 Ei(x) = gamma + ln x + e^x S, S = sum_k u_k / k with
                 u_k = x^k e^-x / k! generated by the stable Poisson-weight
                 recursion u_k = u_{k-1} x / k, again in extended precision.

    x = 0 is a logarithmic singularity (ValueError); x > 700 overflows double
    range (OverflowError); x < -700 underflows benignly to 0.

exp_scaled_ei
    e^x Ei(-x) for x > 0 without forming either factor, via the same continued
    fraction: e^x Ei(-x) = -e^x E1(x) = -CF(x).  Needed at x ~ 1e4 where Ei(-x)
    underflows, and for the a s -> oo limits of the profile functionals.

bessel_j0
    J0 by the N-point periodic trapezoid rule on the circle average
    (1/N) sum_j cos(x cos(2 pi j / N)).  For periodic analytic integrands the
    trapezoid rule is spectrally accurate (the error is an aliasing term
    ~ 2 J_N(x), superexponentially small once N comfortably exceeds |x|);
    N = max(64, ceil(1.6 max|x|) + 48) rounded up to even.  The (points x N)
    product is evaluated in row blocks of at most max(N, 2^20) cells, so
    memory stays near 8 MB per block whatever the number of points.

principal_sqrt
    Principal branch of the complex square root with an explicit guard on the
    cut: arguments on the negative real axis raise instead of being silently
    resolved to +i sqrt(|z|).

laplace_j0_kernel
    e^{-b sqrt(lam^2 + a^2)} / sqrt(lam^2 + a^2), the Laplace transform of
    u |-> J0(a sqrt(u^2 - b^2)) 1_{u > b}, valid for Re(lam) > 0 where the
    sqrt argument never meets the cut.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

EULER_GAMMA = 0.5772156649015328606

_LD_GAMMA = np.longdouble("0.57721566490153286060651209008240243104")

# Largest x with e^x (and Ei(x) ~ e^x/x) inside double range, per the contract.
_OVERFLOW_X = 700.0
_SERIES_SPLIT = 6.0


def _lentz_e1_cf(y: float) -> float:
    """Continued fraction C(y) with E1(y) = e^-y C(y), by modified Lentz.

    C(y) = 1/(y+1- 1^2/(y+3- 2^2/(y+5- ...))), valid for y > 0 and rapidly
    convergent once y is a few units.
    """
    tiny = 1e-300
    b = y + 1.0
    f = b if b != 0.0 else tiny
    c = f
    d = 0.0
    for k in range(1, 400):
        a = -float(k * k)
        b = y + 2.0 * k + 1.0
        d = b + a * d
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            return 1.0 / f
    raise RuntimeError(f"continued fraction for E1 failed to converge at y={y}")


def _ei_series(x: float) -> float:
    # gamma + ln|x| + sum x^k/(k k!) in extended precision; |x| <= 6.
    xl = np.longdouble(x)
    term = np.longdouble(1.0)  # x^k / k!
    total = np.longdouble(0.0)
    for k in range(1, 200):
        term = term * xl / k
        contrib = term / k
        total = total + contrib
        if abs(contrib) < 1e-24 * max(abs(total), np.longdouble(1e-30)):
            break
    return float(_LD_GAMMA + np.log(np.abs(xl)) + total)


def _ei_poisson(x: float) -> float:
    # gamma + ln x + e^x sum_k u_k/k, u_k = Poisson(x) weights; 6 <= x <= 700.
    xl = np.longdouble(x)
    u = np.exp(-xl)
    total = np.longdouble(0.0)
    kmax = int(x + 60.0 * math.sqrt(x) + 80.0)
    for k in range(1, kmax):
        u = u * xl / k
        contrib = u / k
        total = total + contrib
        if k > x and contrib < 1e-26 * total:
            break
    return float(_LD_GAMMA + np.log(xl) + np.exp(xl) * total)


def exp_integral_ei(x: float) -> float:
    """Exponential integral Ei(x) for real x != 0, x <= 700."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("exp_integral_ei requires finite x")
    if x == 0.0:
        raise ValueError("Ei has a logarithmic singularity at x = 0")
    if x > _OVERFLOW_X:
        raise OverflowError(f"Ei({x}) exceeds double range")
    if abs(x) <= _SERIES_SPLIT:
        return _ei_series(x)
    if x < 0.0:
        y = -x
        # e^-y underflows to 0 beyond y ~ 745; the contract allows that.
        return -math.exp(-y) * _lentz_e1_cf(y) if y <= 745.0 else -0.0
    return _ei_poisson(x)


def exp_scaled_ei(x: float) -> float:
    """e^x Ei(-x) for x > 0, stable for arbitrarily large x.

    Monotone increasing from -oo (x -> 0+) to 0- (x -> oo), with the
    asymptotic expansion e^x Ei(-x) = -(1/x)(1 - 1/x + 2/x^2 - ...).
    """
    x = float(x)
    if not (x > 0.0) or not math.isfinite(x):
        raise ValueError("exp_scaled_ei requires finite x > 0")
    if x < _SERIES_SPLIT:
        return math.exp(x) * exp_integral_ei(-x)
    return -_lentz_e1_cf(x)


# Cells of the (points x N) trapezoid product evaluated at once by bessel_j0.
_J0_BLOCK_CELLS = 2**20


def bessel_j0(x):
    """Bessel J0 via the periodic trapezoid rule; scalar or ndarray."""
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("bessel_j0 requires finite arguments")
    scale = float(np.max(np.abs(arr))) if arr.size else 0.0
    n = max(64, int(math.ceil(1.6 * scale)) + 48)
    if n % 2:
        n += 1
    cos_theta = np.cos(np.arange(n) * (2.0 * np.pi / n))
    # (1/N) sum cos(x cos theta_j), a block of rows at a time.
    flat = arr.ravel()
    vals = np.empty(flat.size)
    rows = max(1, _J0_BLOCK_CELLS // n)
    for lo in range(0, flat.size, rows):
        block = np.multiply.outer(flat[lo:lo + rows], cos_theta)
        vals[lo:lo + rows] = np.cos(block, out=block).mean(axis=-1)
    return vals.reshape(arr.shape) if arr.shape else float(vals[0])


def principal_sqrt(z: complex) -> complex:
    """Principal square root; refuses the branch cut instead of picking a side."""
    z = complex(z)
    if z.imag == 0.0 and z.real < 0.0:
        raise ValueError(
            "principal_sqrt: argument on the negative real axis (branch cut)"
        )
    return cmath.sqrt(z)


def laplace_j0_kernel(lam: complex, a: float, b: float) -> complex:
    """e^{-b w}/w with w = principal_sqrt(lam^2 + a^2); requires Re(lam) > 0.

    For Re(lam) > 0 the argument lam^2 + a^2 stays off the negative real axis,
    so the principal branch is the analytic continuation from lam real > 0.
    """
    lam = complex(lam)
    if not lam.real > 0.0:
        raise ValueError("laplace_j0_kernel requires Re(lam) > 0")
    if a < 0.0 or b < 0.0:
        raise ValueError("laplace_j0_kernel requires a >= 0 and b >= 0")
    w = principal_sqrt(lam * lam + a * a)
    return cmath.exp(-b * w) / w
