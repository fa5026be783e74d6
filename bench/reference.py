"""Independent reference values, evaluated with mpmath at 30 digits.

Nothing here imports hyperex: every formula is re-derived from the
defining integrals (see README.md, "References") and evaluated in
multiprecision, so a reference cannot share a bug with the code it checks.

    extension(d, a, s, r, t)
                         T f_a at |x| = r, time t:
                           d = 2 : 2 pi e^{-s w} / w
                           d = 3 : 4 pi s K1(s w) / w
                         with w = sqrt((a - i t)^2 + r^2), principal branch
    lp_norm(p, a, s)     ||T f_a||_p for d = 2 from the Ei products
                           ||T f||_p^p = (2 pi)^3 ||(f_a sigma)^{*p/2}||_2^2
"""

from __future__ import annotations

import mpmath as mp

DPS = 30


def _mpf(x):
    return mp.mpf(float(x))


def extension(d: int, a: float, s: float, r: float, t: float) -> complex:
    """Closed extension value T f_a(x, t) with |x| = r, for d = 2 or 3."""
    with mp.workdps(DPS):
        lam = mp.mpc(_mpf(a), -_mpf(t))
        w = mp.sqrt(lam * lam + _mpf(r) ** 2)
        s_ = _mpf(s)
        if d == 2:
            val = 2 * mp.pi * mp.exp(-s_ * w) / w
        elif d == 3:
            val = 4 * mp.pi * s_ * mp.besselk(1, s_ * w) / w
        else:
            raise ValueError("d must be 2 or 3")
        return complex(val)


def conv_norm_sq(k: int, a: float, s: float = 1.0):
    """||(f_a sigma)^{*k}||_2^2 for d = 2 by the Ei products (mpf result)."""
    a, s = _mpf(a), _mpf(s)
    if k == 2:
        return -((2 * mp.pi) ** 3) * mp.ei(-4 * a * s) / (2 * a)
    if k == 3:
        return (2 * mp.pi) ** 5 * (
            mp.exp(-6 * a * s) * (1 / (8 * a**3) - 3 * s / (4 * a**2))
            - (3 * s) ** 2 * mp.ei(-6 * a * s) / (2 * a)
        )
    raise ValueError("k must be 2 or 3")


def lp_norm(p: int, a: float, s: float = 1.0) -> float:
    """||T f_a||_p for d = 2 and p in {4, 6}."""
    with mp.workdps(DPS):
        return float(mp.root((2 * mp.pi) ** 3 * conv_norm_sq(p // 2, a, s), p))
