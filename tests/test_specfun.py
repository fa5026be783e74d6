"""Special-function tests against independent quadrature oracles.

The frozen reference values below were produced by adaptive quadrature of the
DEFINING integrals (scipy.integrate.quad), not by any library special-function
routine, and were cross-checked by a second integral representation before
freezing:

  Ei, x < 0 :  -int_{-x}^oo e^-t / t dt
  Ei, any x :  gamma + ln|x| + int_0^1 (e^{xv} - 1)/v dv   (regular form)
  J0        :  (1/pi) int_0^pi cos(x sin t) dt

The two Ei routes agreed to ~1e-15 relative everywhere both converge; J0
values carry quad error bars below 1e-13.  Deep negative arguments
(x <= -50) are outside quad's relative-accuracy floor, so those are checked
against the enveloping alternating asymptotic series instead, which brackets
E1(y) rigorously.  The Laplace transform of the J0 chain, which the package
forms only as the closed d = 2 extension, is checked against quad of its
defining integral with bessel_j0 inside.
"""

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from hyperex.extension import ExpProfile, extension_closed
from hyperex.geometry import HyperboloidParams, unit_circle
from hyperex.specfun import (
    _HANKEL_P,
    _HANKEL_Q,
    bessel_j0,
    exp_integral_ei,
    exp_scaled_en,
    exp_scaled_k1,
)

# Frozen oracle values: x -> (Ei(x), relative tolerance granted to the oracle).
EI_FROZEN = {
    -10.0: (-4.1569689296853238e-06, 1e-12),
    -6.0: (-0.00036008245216265862, 3e-12),
    -1.0: (-0.21938393439552023, 1e-13),
    -0.5: (-0.55977359477616084, 1e-13),
    -0.01: (-4.0379295765381134, 1e-13),
    0.01: (-4.0179294654266693, 1e-13),
    0.5: (0.45421990486317365, 1e-13),
    2.0: (4.9542343560018898, 1e-13),
    6.0: (85.989762142439204, 1e-13),
    10.0: (2492.2289762418786, 1e-13),
    50.0: (1.05856368971317e+20, 1e-13),
}

J0_FROZEN = {
    0.0: 1.0,
    0.5: 0.93846980724081286,
    2.5: -0.048383776468197963,
    10.0: -0.24593576445134863,
    100.0: 0.019985850304222889,
    1000.0: 0.024786686152419315,
}

# First positive zero of J0, to 16 digits (standard constant).
J0_FIRST_ZERO = 2.404825557695773


@pytest.mark.parametrize("x,expected_tol", sorted(EI_FROZEN.items()))
def test_ei_frozen_oracle_values(x, expected_tol):
    expected, tol = expected_tol
    got = exp_integral_ei(x)
    assert got == pytest.approx(expected, rel=tol)


def test_ei_live_defining_integral_spot_check():
    # One live run of the defining integral, so the frozen table stays honest.
    for x in (-3.0, -0.25):
        ref, err = quad(
            lambda t: np.exp(-t) / t, -x, np.inf,
            epsabs=1e-15, epsrel=1e-13, limit=400,
        )
        assert exp_integral_ei(x) == pytest.approx(-ref, rel=1e-11, abs=3 * err)


def test_ei_twelve_digits_at_series_edge():
    # Hardest cancellation point of the power-series regime.
    assert exp_integral_ei(-6.0) == pytest.approx(-0.00036008245216265862, rel=3e-12)


def test_ei_deep_negative_asymptotic_bracket():
    # For y large, the alternating series sum_k (-1)^k k!/y^k truncated after
    # an even/odd number of terms encloses y e^y E1(y).
    for y in (50.0, 200.0, 700.0):
        scaled = -exp_integral_ei(-y) * y * math.exp(y)
        lo = hi = None
        s, term = 0.0, 1.0
        for k in range(12):
            s += term
            if k % 2 == 0:
                hi = s
            else:
                lo = s
            term *= -(k + 1) / y
        # The enclosure is exact in real arithmetic; grant rounding slack for
        # the e^y scaling (the bracket width at y = 700 is ~1e-26, far below
        # one ulp of the scaled value).
        slack = 1e-13 * abs(scaled)
        assert lo - slack <= scaled <= hi + slack


def test_ei_derivative_matches_exp_over_x():
    # Ei'(x) = e^x / x, central differences at 50 log-spaced points per sign.
    for x in np.geomspace(1e-2, 1e2, 50):
        for sign in (+1.0, -1.0):
            xs = sign * x
            h = 1e-5 * abs(xs)
            fd = (exp_integral_ei(xs + h) - exp_integral_ei(xs - h)) / (2 * h)
            assert fd == pytest.approx(math.exp(xs) / xs, rel=1e-6)


def test_ei_regime_seams_are_continuous():
    for edge in (-6.0, 6.0):
        below = exp_integral_ei(edge - 1e-12)
        above = exp_integral_ei(edge + 1e-12)
        slope = math.exp(edge) / edge
        assert above - below == pytest.approx(2e-12 * slope, abs=5e-13 * abs(slope))


def test_ei_domain_errors():
    with pytest.raises(ValueError):
        exp_integral_ei(0.0)
    with pytest.raises(OverflowError):
        exp_integral_ei(700.5)
    with pytest.raises(ValueError):
        exp_integral_ei(math.nan)
    assert exp_integral_ei(700.0) == pytest.approx(1.4509787360525608e+301, rel=1e-11)
    assert exp_integral_ei(-800.0) == 0.0  # benign underflow


def test_exp_scaled_ei_matches_direct_product():
    for x in (0.1, 1.0, 3.0, 5.9):
        direct = math.exp(x) * exp_integral_ei(-x)
        assert -exp_scaled_en(1, x) == pytest.approx(direct, rel=1e-13)
    seam_lo, seam_hi = -exp_scaled_en(1, 6.0 - 1e-12), -exp_scaled_en(1, 6.0 + 1e-12)
    assert seam_lo == pytest.approx(seam_hi, rel=1e-10)


def test_exp_scaled_ei_asymptotics_and_monotonicity():
    x = 1e4
    # -x e^x Ei(-x) = 1 - 1/x + 2/x^2 - 6/x^3 + ...
    assert x * exp_scaled_en(1, x) == pytest.approx(1 - 1 / x + 2 / x**2, abs=1e-11)
    grid = np.geomspace(1e-3, 1e3, 200)
    vals = np.array([-exp_scaled_en(1, float(a)) for a in grid])
    assert np.all(np.diff(vals) > 0)  # increases from -oo to 0-
    assert np.all(vals < 0)
    with pytest.raises(ValueError):
        exp_scaled_en(1, 0.0)
    with pytest.raises(ValueError):
        exp_scaled_en(1, -1.0)


def _rel_dev(got, want):
    return float(abs(got - want) / abs(want))


@pytest.mark.parametrize("n", [1, 3])
def test_exp_scaled_en_fraction_matches_mpmath(n):
    # x >= 6 runs the continued fraction, 1/(x + n) from 1e9 on; the old E1
    # fraction stalled at 6e150 and near 3.4e19.
    grid = list(np.geomspace(6.0, 6e300, 150)) + [6e150, 9.9e18, 1e19, 3.4e19]
    with mpmath.workdps(40):
        for x in grid:
            want = mpmath.exp(x) * mpmath.expint(n, x)
            assert _rel_dev(exp_scaled_en(n, float(x)), want) <= 1e-14, x


@pytest.mark.parametrize("n", [1, 3])
def test_exp_scaled_en_recurrence_matches_mpmath(n):
    # Below 4, E_3 comes from the E_1 series by E_{k+1} = (e^-x - x E_k)/k;
    # the fraction takes over at 4, short of the stretch up to 6 where the
    # two steps would amplify the series' round-off to 5e-14.
    with mpmath.workdps(40):
        for x in np.geomspace(1e-8, 6.0, 2000, endpoint=False):
            want = mpmath.exp(x) * mpmath.expint(n, x)
            assert _rel_dev(exp_scaled_en(n, float(x)), want) <= 5e-15, x
    with pytest.raises(ValueError):
        exp_scaled_en(3, 0.0)
    with pytest.raises(ValueError):
        exp_scaled_en(3, math.inf)


def test_exp_scaled_k1_matches_mpmath():
    with mpmath.workdps(40):
        for z in np.geomspace(1e-8, 1e3, 120):
            want = mpmath.exp(z) * mpmath.besselk(1, z)
            assert _rel_dev(exp_scaled_k1(float(z)), want) <= 1e-14, z
    with pytest.raises(ValueError):
        exp_scaled_k1(0.0)
    with pytest.raises(ValueError):
        exp_scaled_k1(1e-310)


@pytest.mark.parametrize("x,expected", sorted(J0_FROZEN.items()))
def test_j0_frozen_oracle_values(x, expected):
    assert bessel_j0(x) == pytest.approx(expected, abs=1e-10)


def test_j0_live_circle_average_spot_check():
    for b in (1.7, 37.3):
        ref, _ = quad(lambda t: np.cos(b * np.sin(t)), 0.0, np.pi, epsrel=1e-13, limit=400)
        assert bessel_j0(b) == pytest.approx(ref / np.pi, abs=1e-12)


def test_j0_first_zero_by_bisection():
    lo, hi = 2.0, 3.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if bessel_j0(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(J0_FIRST_ZERO, abs=1e-12)


def test_j0_array_and_symmetry():
    x = np.linspace(-30.0, 30.0, 101)
    vals = bessel_j0(x)
    assert vals.shape == x.shape
    assert np.allclose(vals, bessel_j0(-x))
    assert np.allclose(vals[50], 1.0)
    # ODE residual J0'' + J0'/x + J0 = 0 via central differences.
    h = 1e-4
    xs = np.array([0.7, 3.1, 12.9])
    d1 = (bessel_j0(xs + h) - bessel_j0(xs - h)) / (2 * h)
    d2 = (bessel_j0(xs + h) - 2 * bessel_j0(xs) + bessel_j0(xs - h)) / h**2
    assert np.allclose(d2 + d1 / xs + bessel_j0(xs), 0.0, atol=1e-6)


def test_j0_matches_mpmath_across_both_regimes():
    # Trapezoid rule below |x| = 25, Hankel expansion from 25 on; the dense
    # stretch straddles the split.
    x = np.concatenate([
        np.linspace(0.0, 1e4, 1201),
        np.geomspace(1e-3, 1e4, 600),
        np.linspace(24.5, 25.5, 401),
        [np.nextafter(25.0, 0.0), 25.0],
    ])
    got = bessel_j0(x)
    with mpmath.workdps(30):
        want = np.array([float(mpmath.besselj(0, float(v))) for v in x])
    assert np.max(np.abs(got - want)) <= 1e-15


def test_j0_at_zero_is_exactly_one():
    # The multiplicities of the folded rule sum to N, so at x = 0 the
    # weighted sum of ones divided by N is exact.
    assert bessel_j0(0.0) == 1.0
    assert np.array_equal(bessel_j0(np.zeros(5)), np.ones(5))


def test_j0_matches_mpmath_at_random_points_below_the_split():
    x = np.random.default_rng(21).uniform(0.0, 25.0, 2_000)
    got = bessel_j0(x)
    with mpmath.workdps(30):
        want = np.array([float(mpmath.besselj(0, float(v))) for v in x])
    assert np.max(np.abs(got - want)) <= 1e-15


def test_j0_memory_stays_bounded_below_the_split():
    # 20,000 trapezoid points: two blocks of the folded (points x 23)
    # product, about 2.1 MB each.
    x = np.random.default_rng(2).uniform(0.0, 25.0, 20_000)
    tracemalloc.start()
    try:
        bessel_j0(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_j0_memory_stays_bounded():
    # The (points x N) trapezoid product is taken in blocks: 20,000 points at
    # |x| <= 1000 (N = 1648) would need about 0.5 GB in one piece.
    x = np.random.default_rng(1).uniform(0.0, 1000.0, 20_000)
    tracemalloc.start()
    try:
        vals = bessel_j0(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert vals.shape == x.shape
    # Values stay in line with their points across block boundaries.
    idx = np.array([0, 636, 637, 19_999])
    assert np.allclose(vals[idx], bessel_j0(x[idx]), rtol=0.0, atol=1e-12)


def test_j0_hankel_keeps_the_polyval_bits():
    # The Hankel branch runs Horner in place; np.polyval's first step, 0 y + c_0,
    # is c_0 itself, so every later step and the result keep their bits.
    x = np.geomspace(25.0, 1e6, 100_001)
    y = 1.0 / (x * x)
    p = np.polyval(_HANKEL_P, y)
    q = np.polyval(_HANKEL_Q, y) / x
    c, s = unit_circle(x)
    want = (p * (c + s) - q * (s - c)) / np.sqrt(np.pi * x)
    assert np.array_equal(bessel_j0(x), want)


def test_j0_memory_on_the_hankel_branch():
    # 20,000 points past the split: the in-place Horner and phase hold about
    # nine arrays of the points' size at the peak; np.polyval took eleven.
    x = np.random.default_rng(4).uniform(25.0, 1e3, 20_000)
    tracemalloc.start()
    try:
        bessel_j0(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * x.nbytes


def laplace_j0_kernel(lam, a, b):
    """e^{-b w}/w, w = sqrt(lam^2 + a^2), the Laplace transform at lam of
    u -> J0(a sqrt(u^2 - b^2)) 1_{u > b}: the closed d = 2 extension over
    2 pi at rate Re(lam), time -Im(lam), |x| = a and s = b."""
    lam = complex(lam)
    profile = ExpProfile(a=lam.real, params=HyperboloidParams(d=2, s=b))
    return complex(extension_closed(profile, np.array([a, 0.0]), -lam.imag)) / (2 * math.pi)


def test_laplace_j0_kernel_real_argument():
    lam, a, b = 2.0, 1.0, 1.0
    ref, _ = quad(
        lambda u: math.exp(-lam * u) * bessel_j0(a * math.sqrt(u * u - b * b)),
        b, 60.0, epsrel=1e-13, limit=400,
    )
    got = laplace_j0_kernel(lam, a, b)
    assert got.imag == 0.0
    assert got.real == pytest.approx(ref, rel=1e-10)


def test_laplace_j0_kernel_complex_argument():
    lam, a, b = complex(1.0, -1.0), 0.8, 1.3
    def integrand(u):
        return cmath.exp(-lam * u) * bessel_j0(a * math.sqrt(u * u - b * b))
    re, _ = quad(lambda u: integrand(u).real, b, 80.0, epsrel=1e-12, limit=600)
    im, _ = quad(lambda u: integrand(u).imag, b, 80.0, epsrel=1e-12, limit=600)
    got = laplace_j0_kernel(lam, a, b)
    assert got.real == pytest.approx(re, abs=1e-8)
    assert got.imag == pytest.approx(im, abs=1e-8)


def test_laplace_j0_kernel_zero_width_limit_and_domain():
    lam, b = complex(1.5, 0.7), 2.0
    limit = cmath.exp(-lam * b) / lam
    got = laplace_j0_kernel(lam, 1e-8, b)
    assert cmath.isclose(got, limit, rel_tol=1e-12)
    for bad in (complex(0.0, 1.0), -1.0, complex(-2.0, 3.0)):
        with pytest.raises(ValueError):
            laplace_j0_kernel(bad, 1.0, 1.0)
    with pytest.raises(ValueError):
        laplace_j0_kernel(1.0, 1.0, -1.0)
