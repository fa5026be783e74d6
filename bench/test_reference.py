"""Tests of the benchmark's reference formulas (not of hyperex).

    python3 -m pytest bench/test_reference.py -q

Each closed form in reference.py is checked against mpmath.quad of the
integral that defines it, so a slip in a reference cannot pass for a fault
of the program.
"""

from __future__ import annotations

import mpmath as mp
import pytest

import reference

RTOL = 1e-10


def close(got, want, rtol=RTOL):
    return abs(got - want) <= rtol * abs(want)


# ------------------------------------------------------- extension values

def _laplace(lam, s, kernel):
    return mp.quad(lambda u: mp.exp(-lam * u) * kernel(u), [s, s + 1, s + 4, s + 16, mp.inf])


def test_d3_extension_at_origin():
    a, t, s = 0.7, 1.5, 1.0
    with mp.workdps(20):
        lam = mp.mpc(a, -t)
        want = 4 * mp.pi * _laplace(lam, s, lambda u: mp.sqrt(u * u - s * s))
        assert close(reference.extension(3, a, s, 0.0, t), complex(want))


def test_d3_extension_off_origin():
    a, t, s, r = 0.9, 0.5, 1.3, 2.0
    with mp.workdps(20):
        lam = mp.mpc(a, -t)
        want = (4 * mp.pi / r) * _laplace(lam, s, lambda u: mp.sin(r * mp.sqrt(u * u - s * s)))
        assert close(reference.extension(3, a, s, r, t), complex(want))


def test_d2_extension_off_origin():
    a, t, s, r = 0.8, -1.0, 1.0, 1.5
    with mp.workdps(20):
        lam = mp.mpc(a, -t)
        want = 2 * mp.pi * _laplace(lam, s, lambda u: mp.besselj(0, r * mp.sqrt(u * u - s * s)))
        assert close(reference.extension(2, a, s, r, t), complex(want))


# ------------------------------------------------------ Ei norm products

def _conv_norm_sq_d2(k, a, s):
    # int e^{-2 a tau} density(m)^2 2 pi rho d(rho) d(tau) over m >= k s, with
    # density 2 pi / m for k = 2 and (2 pi)^2 (1 - 3 s / m) for k = 3.
    def density(m):
        return 2 * mp.pi / m if k == 2 else (2 * mp.pi) ** 2 * (1 - 3 * s / m)

    def inner(tau):
        rho_max = mp.sqrt(tau * tau - (k * s) ** 2)
        return mp.quad(lambda r: density(mp.sqrt(tau * tau - r * r)) ** 2 * 2 * mp.pi * r,
                       [0, rho_max])
    return mp.quad(lambda tau: mp.exp(-2 * a * tau) * inner(tau),
                   [k * s, k * s + 1, mp.inf])


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("a", [0.3, 1.0, 3.0])
def test_ei_products_match_quadrature(k, a):
    with mp.workdps(20):
        want = _conv_norm_sq_d2(k, mp.mpf(a), mp.mpf(1))
        got = reference.conv_norm_sq(k, a, 1.0)
        assert close(float(got), float(want))
        assert close(reference.lp_norm(2 * k, a, 1.0),
                     float(mp.root((2 * mp.pi) ** 3 * want, 2 * k)))
