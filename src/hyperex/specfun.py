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
      x <= -6    Ei(x) = -E1(-x) = -e^x (e^y E1(y)), y = -x, with the
                 continued fraction of exp_scaled_en.
      6 <= x <= 700
                 Ei(x) = gamma + ln x + e^x S, S = sum_k u_k / k with
                 u_k = x^k e^-x / k! generated by the stable Poisson-weight
                 recursion u_k = u_{k-1} x / k, again in extended precision.

    x = 0 is a logarithmic singularity (ValueError); x > 700 overflows double
    range (OverflowError); x < -700 underflows benignly to 0.

exp_scaled_en
    e^x E_n(x) for x > 0 without forming either factor.  For x >= 4 (x >= 6
    when n = 1) one continued fraction serves every n (DLMF 8.19.17, modified
    Lentz; its first convergent 1/(x + n) from x = 1e9 on); below that,
    E_1 = -Ei(-x) comes from the series and E_{k+1} = (e^-x - x E_k)/k steps
    up to n.  For n >= 2 the fraction starts below Ei's split at 6 because
    between 4 and 6 the series loses up to 2.6e-15 and the recurrence
    amplifies that about 25-fold for n = 3.  Needed where e^-x underflows,
    and for the a s -> oo limits of the profile functionals.

exp_scaled_k1
    e^z K_1(z) for z >= 1e-300 by the trapezoid rule on its integral over
    the real line (DLMF 10.32.9), for the d = 3 closed norms.

bessel_j0
    J0 in two regimes split at |x| = 25, O(1) work per point in both:

      |x| < 25   the N-point periodic trapezoid rule on the circle average
                 (1/N) sum_j cos(x cos(2 pi j / N)) with fixed N = 88.  For
                 periodic analytic integrands the rule is spectrally accurate
                 (the error is an aliasing term ~ 2 J_N(x), superexponentially
                 small once N comfortably exceeds |x|); 88 = ceil(1.6 * 25)
                 + 48 keeps that margin up to the split.  cos(x cos theta)
                 depends on |cos theta| only, so the rule folds onto the 23
                 quarter-circle nodes j = 0..22 with multiplicities 2, 4, ...,
                 4, 2, each cosine 2/(1 + h^2) - 1 from h = tan(x cos(theta)/2)
                 (23 tangents per point, not 88 cosines); the (points x 23)
                 product is formed in place in row blocks of at most 2^18
                 cells, about 2.1 MB each whatever the number of points.
      |x| >= 25  the Hankel expansion (DLMF 10.17.3)
                 J0(x) = sqrt(2/(pi x)) (P cos(x - pi/4) - Q sin(x - pi/4)),
                 a_k = a_{k-1} (-(2k-1)^2)/(8k) up to the first K with
                 |a_K|/25^K < 1e-17 (K = 20: 11 P and 10 Q terms, Horner in
                 1/x^2, in place on one array each, with np.polyval's bits
                 but none of its two temporaries per coefficient), and the
                 phase taken as (cos x +- sin x)/sqrt(2) so x - pi/4 is never
                 rounded; cos x, sin x from unit_circle.

    Against mpmath: at most 8.4e-16 (rms 1.6e-16; libm's cosines 8.3e-16) on
    60,000 random points of [0, 25) (default_rng(0)), 5.6e-17 from 25 to 1e6.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .geometry import unit_circle

_LD_GAMMA = np.longdouble("0.57721566490153286060651209008240243104")

# Largest x with e^x (and Ei(x) ~ e^x/x) inside double range, per the contract.
_OVERFLOW_X = 700.0
_SERIES_SPLIT = 6.0
# exp_scaled_en runs the E_n fraction from here on for n >= 2: below 6 the
# E_1 series loses up to 2.6e-15 and the recurrence up to n amplifies it.
_EN_FRACTION_X = 4.0
# From here on the E_n fraction is its first convergent to double precision.
_CF_FIRST_TERM_X = 1e9
# Below this e^z K_1(z) ~ 1/z is too close to overflow for its node range.
_K_MIN_Z = 1e-300


def _lentz_en_cf(x: float, n: int) -> float:
    """e^x E_n(x) for x >= 4 by the continued fraction of DLMF 8.19.17.

    1/(x+n- 1*n/(x+n+2- 2(n+1)/(x+n+4- ...))): b_0 = x + n,
    a_k = -k(n-1+k), b_k = x + 2k + n, by modified Lentz.  From x = 1e9 on
    it returns the first convergent 1/(x + n), within n/x^2 relative: there
    the loop's steps delta = b (1/b) need not round to 1, so it would gather
    round-off (5e-14 near x = 1e11) or never stop (x = 1.6e18).
    """
    if x >= _CF_FIRST_TERM_X:
        return 1.0 / (x + n)
    # For x > 0 both Lentz ratios stay >= x + k + n, so none needs a zero guard.
    f = c = x + n
    d = 0.0
    for k in range(1, 400):
        a = -float(k * (n - 1 + k))
        b = x + 2.0 * k + n
        d = 1.0 / (b + a * d)
        c = b + a / c
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            return 1.0 / f
    raise RuntimeError(f"continued fraction for E_{n} failed to converge at x={x}")


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
        return -math.exp(-y) * _lentz_en_cf(y, 1) if y <= 745.0 else -0.0
    return _ei_poisson(x)


def exp_scaled_en(n: int, x: float) -> float:
    """e^x E_n(x) for x > 0 and n >= 1; E_{k+1} = (e^-x - x E_k)/k below 4."""
    x = float(x)
    if not (x > 0.0) or not math.isfinite(x):
        raise ValueError("exp_scaled_en requires finite x > 0")
    # E_1 keeps Ei's split at 6: with no recurrence step the series is
    # within 2.7e-15 there.
    if x >= (_SERIES_SPLIT if n == 1 else _EN_FRACTION_X):
        return _lentz_en_cf(x, n)
    value = -math.exp(x) * _ei_series(-x)
    for k in range(1, n):
        value = (1.0 - x * value) / k
    return value


def exp_scaled_k1(z: float) -> float:
    """e^z K_1(z) for z >= 1e-300.

    Trapezoid rule on int_0^oo e^{-z 2 sinh^2(t/2)} cosh(t) dt (DLMF
    10.32.9), step min(0.1, 0.5/sqrt(z)): the integrand is entire and decays
    double exponentially.  Nodes run until the exponent passes 40 + t.
    """
    z = float(z)
    if not _K_MIN_Z <= z < math.inf:
        raise ValueError("exp_scaled_k1 requires finite z >= 1e-300")
    h = min(0.1, 0.5 / math.sqrt(z))
    t_max = 2.0 * math.asinh(math.sqrt(20.0 / z))
    t_max = 2.0 * math.asinh(math.sqrt((20.0 + 0.5 * t_max) / z))
    t = np.arange(1, int(t_max / h) + 2) * h
    terms = np.exp(-2.0 * z * np.sinh(0.5 * t) ** 2) * np.cosh(t)
    return h * (0.5 + float(np.sum(terms)))


# Below this |x| J0 is the trapezoid circle average at N nodes, from here on
# the Hankel expansion.
_J0_SPLIT = 25.0
_J0_TRAPEZOID_N = 88
# Cells of the folded (points x N/4 + 1) product evaluated at once by bessel_j0.
_J0_BLOCK_CELLS = 2**18


def _hankel_j0_coefficients() -> tuple[np.ndarray, np.ndarray]:
    """Horner coefficients in 1/x^2 of P and x Q for J0 (DLMF 10.17.3).

    a_k = a_{k-1} (-(2k-1)^2)/(8k), kept up to the first K with
    |a_K| / 25^K < 1e-17; P = sum_j (-1)^j a_{2j} x^{-2j} and
    Q = sum_j (-1)^j a_{2j+1} x^{-2j-1}.
    """
    a = [1.0]
    while abs(a[-1]) / _J0_SPLIT ** (len(a) - 1) >= 1e-17:
        k = len(a)
        a.append(a[-1] * -((2 * k - 1) ** 2) / (8 * k))
    p = [(-1) ** j * c for j, c in enumerate(a[0::2])]
    q = [(-1) ** j * c for j, c in enumerate(a[1::2])]
    return np.array(p[::-1]), np.array(q[::-1])


_HANKEL_P, _HANKEL_Q = _hankel_j0_coefficients()


@cache
def _j0_trapezoid_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Half the cosines cos(2 pi k / N), k = 0..N/4, the multiplicities m = 2,
    # 4, ..., 4, 2 summing to N (so J0(0) is exactly 1), and 2 m.  Built on
    # the first call, not at import, where a first ufunc call would cost every
    # process about 0.14 MB of RSS.
    k = np.arange(_J0_TRAPEZOID_N // 4 + 1)
    m = np.where((k == 0) | (k == k[-1]), 2.0, 4.0)
    table = (0.5 * np.cos(k * (2.0 * np.pi / _J0_TRAPEZOID_N)), m, 2.0 * m)
    for column in table:  # shared by every call
        column.flags.writeable = False
    return table


def _j0_trapezoid(x: np.ndarray) -> np.ndarray:
    # (1/N) sum_k m_k cos(x cos(2 pi k / N)) over k = 0..N/4; a block of rows
    # at a time.
    half_cos, m, two_m = _j0_trapezoid_table()
    vals = np.empty(x.size)
    rows = _J0_BLOCK_CELLS // half_cos.size
    for lo in range(0, x.size, rows):
        # m cos phi = 2 m / (1 + h^2) - m with h = tan(phi / 2), in place.
        block = np.multiply.outer(x[lo:lo + rows], half_cos)
        np.square(np.tan(block, out=block), out=block)
        np.divide(two_m, np.add(block, 1.0, out=block), out=block)
        block -= m
        vals[lo:lo + rows] = block.sum(axis=-1) / _J0_TRAPEZOID_N
    return vals


def _horner(coefficients: np.ndarray, y: np.ndarray) -> np.ndarray:
    # np.polyval's steps in place: its first, 0 y + c_0, is c_0 itself.
    out = np.full_like(y, coefficients[0])
    for c in coefficients[1:]:
        out *= y
        out += c
    return out


def _j0_hankel(x: np.ndarray) -> np.ndarray:
    # sqrt(2/(pi x)) (P cos(x - pi/4) - Q sin(x - pi/4)), with the phase
    # written as (cos x +- sin x)/sqrt(2) so x - pi/4 is never rounded.
    y = 1.0 / (x * x)
    p = _horner(_HANKEL_P, y)
    q = _horner(_HANKEL_Q, y)
    q /= x
    c, s = unit_circle(x)
    q *= np.subtract(s, c, out=y)
    c += s
    p *= c
    p -= q
    p /= np.sqrt(np.multiply(np.pi, x, out=s), out=s)
    return p


def bessel_j0(x):
    """Bessel J0, trapezoid below |x| = 25 and Hankel above; scalar or ndarray."""
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("bessel_j0 requires finite arguments")
    flat = np.abs(arr.ravel())
    vals = np.empty(flat.size)
    near = flat < _J0_SPLIT
    vals[near] = _j0_trapezoid(flat[near])
    vals[~near] = _j0_hankel(flat[~near])
    return vals.reshape(arr.shape) if arr.shape else float(vals[0])

