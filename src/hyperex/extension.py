"""Extension operator on exponential profiles and profile-weighted convolutions.

The operator maps a density f on the base space to

    (T f)(x, t) = int e^{i x.y} e^{i t psi(y)} f(y) dy / psi(y),

i.e. the spacetime Fourier transform of f d(sigma) up to sign conventions.
For the exponential profile f_a = e^{-a psi} everything reduces to radial
integrals in u = psi(y):

    d = 2 :  2 pi int_s^oo e^{-(a - i t) u} J0(|x| sqrt(u^2 - s^2)) du
             = 2 pi e^{-s w} / w,   w = sqrt((a - i t)^2 + |x|^2)
    d = 3 :  (4 pi / |x|) int_s^oo e^{-(a - i t) u} sin(|x| sqrt(u^2 - s^2)) du
             (at x = 0: 4 pi int_s^oo e^{-(a - i t) u} sqrt(u^2 - s^2) du)

The closed d = 2 form follows from the Laplace transform of the J0 kernel
with lam = a - i t, which stays in the right half plane, so the square root
is the principal branch throughout; there is no closed d = 3 form here.
extension_quadrature integrates the same values in the spatial radius
r = sqrt(u^2 - s^2) instead, where the phase turns at a bounded rate.

Even L^p norms of T f_a never touch oscillatory integrals: with k = p/2,

    ||T f||_{2k}^{2k} = (2 pi)^{d+1} ||(f sigma)^{*k}||_2^2

and the k-fold convolution of f_a sigma is the plain measure convolution
re-weighted by e^{-a tau}, because the convolution delta pins the total
energy to tau.  That gives two independent routes to every norm: the closed
products below (E_n for d = 2, K_1 for d = 3) and direct quadrature of the
weighted closed density.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .geometry import HyperboloidParams, energy, unit_circle
from .measures import SPHERE_AREA, ConvClosedForm, conv_reduced_integral
from .quadrature import (
    BudgetError, QuadResult, check_budget, doubling_edges, gk_panels, gl_panels_to_inf,
    gl_sqrt_panels, two_resolution,
)
from .specfun import bessel_j0, exp_scaled_en, exp_scaled_k1


@dataclass(frozen=True)
class ExpProfile:
    """f_a(y) = e^{-a psi(y)} on the hyperboloid of the given parameters."""

    a: float
    params: HyperboloidParams

    def __post_init__(self) -> None:
        if not 0.0 < self.a < math.inf:
            raise ValueError("profile rate a must be finite and positive")


def extension_closed(profile: ExpProfile, x, t):
    """Closed extension value; d = 2 only.  Vectorized over broadcast x, t.

    x is the spatial point (shape (..., 2)) and t the time; the result is
    complex 2 pi e^{-s w}/w with w the principal sqrt((a - i t)^2 + |x|^2).
    Where w^2 leaves the normal float range it is formed again in units of
    c = max(a, |t|, |x_k|), w = c sqrt(w^2 / c^2), as invariant_mass redoes its
    rows.  Raises ValueError for a non-finite x or t, and where the value
    itself leaves the float range.
    """
    if profile.params.d != 2:
        raise ValueError("closed extension form exists for d = 2 only")
    a, s = profile.a, profile.params.s
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(t).all()):
        raise ValueError("extension_closed requires finite x and t")
    lam = a - 1j * t
    # Re(lam) = a > 0 keeps w^2 off the cut, where numpy's sqrt is the
    # principal branch.
    with np.errstate(over="ignore", invalid="ignore"):
        arg = lam * lam + np.sum(x * x, axis=-1)
        w = np.sqrt(arg.astype(complex))
        redo = ~(np.abs(arg) >= sys.float_info.min) | ~np.isfinite(arg)
        if redo.any():
            c = np.maximum(np.maximum(a, np.abs(t)), np.max(np.abs(x), axis=-1))
            unit = (lam / c) ** 2 + np.sum((x / c[..., None]) ** 2, axis=-1)
            w = np.where(redo, c * np.sqrt(unit), w)
        value = 2.0 * np.pi * np.exp(-s * w) / w
    if not np.isfinite(value).all():
        raise ValueError("the extension value leaves the float range")
    return value


def extension_quadrature(profile: ExpProfile, x, t: float) -> QuadResult:
    """Radial-quadrature extension value at one point, complex, with its error.

    Integrates in the spatial radius r = |y|, with u = sqrt(r^2 + s^2):

        int_0^oo e^{-(a - i t) u} K(r) (r / u) dr,

    K(r) = 2 pi J0(|x| r) for d = 2 and (4 pi / |x|) sin(|x| r) for d = 3;
    at x = 0 the kernel is its limit, 2 pi or 4 pi r.  As du/dr <= 1 the
    phase t u + |x| r turns at most at |t| + |x| per unit r, so panels of
    one period, 2 pi / (|t| + |x|), hold every phase: G12's error on a full
    period of e^{i omega r} is (2 pi)^24 (12!)^4 / (25 (24!)^3) ~ 1.3e-19 of
    the panel mean, under round-off.  They are capped where u would move by
    more than 3/a and at an eighth of the range [0, r_max], cut where
    e^{-a(u - s)} = e^{-45}; call that width w.  The integrand is analytic at
    r = 0, but r / u has branch points at r = +-i s, so [0, w] is graded by
    quadrature.doubling_edges(min(s, w), w): each of its panels is no wider
    than hypot(r, s) at its left edge r.  Each panel takes the 25-node
    Gauss-Kronrod rule (quadrature.gk_panels) on one set of integrand values:
    the value is the K25 sum, exact to degree 37, and the error |K25 - G12|
    against the embedded 12-point Gauss sum, which measures the G12 error and
    so bounds the K25 one.  Works for d = 2 and d = 3.  The real factor comes
    first; cos and sin of t u (and sin(|x| r)) come from geometry.unit_circle.
    An s whose square underflows to 0, where u reads 0 at the first nodes, is
    refused with ValueError.
    """
    a, s, d = profile.a, profile.params.s, profile.params.d
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise ValueError(f"expected a point in R^{d}")
    t = float(t)
    if not (np.all(np.isfinite(x)) and math.isfinite(t)):
        raise ValueError("extension quadrature requires finite x and t")
    x_norm = math.hypot(*x)
    u_max = s + 45.0 / a
    r_max = math.sqrt(45.0 / a * (s + u_max))
    # u moves by at most r_max / u_max per unit r, so a width of
    # (3 / a) u_max / r_max lets e^{-a u} fall by at most e^{-3} per panel.
    width = min(2.0 * np.pi / (abs(t) + x_norm + 1e-9), 3.0 / a * u_max / r_max, r_max / 8.0)
    if not (width > 0.0 and math.isfinite(span := (r_max - width) / width)):
        raise BudgetError("extension-quadrature nodes exceed every finite budget")
    graded = doubling_edges(min(s, width), width)
    n_panels = math.ceil(span)
    check_budget((graded.size - 1 + n_panels) * 32, "extension-quadrature nodes")
    edges = np.concatenate([graded[:-1], np.linspace(width, r_max, n_panels + 1)])

    r, w_kronrod, w_gauss = gk_panels(edges)
    u = energy(profile.params, r)
    if u[0] == 0.0:  # the height at the smallest node
        raise ValueError(f"s^2 = {s!r}^2 underflows to 0; the sheet height at r = 0 reads 0")
    if x_norm == 0.0:
        mag = np.full_like(r, 2.0 * np.pi) if d == 2 else 4.0 * np.pi * r
    else:
        mag = bessel_j0(x_norm * r) if d == 2 else unit_circle(x_norm * r)[1]
        mag *= 2.0 * np.pi if d == 2 else 4.0 * np.pi / x_norm
    mag *= np.divide(r, u, out=r)
    mag *= np.exp(-a * u)
    # e^{-(a - i t) u} = e^{-a u} (cos t u + i sin t u).
    c, sn = unit_circle(np.multiply(u, t, out=u))
    c *= mag
    sn *= mag
    kronrod = complex(np.dot(w_kronrod, c), np.dot(w_kronrod, sn))
    gauss = complex(np.dot(w_gauss, c), np.dot(w_gauss, sn))
    return QuadResult(value=kronrod, error=abs(kronrod - gauss))


# Gauss-Legendre nodes per panel of the fixed radial rule below.
_RADIAL_NODES = 24


def l2_norm_sq(profile: ExpProfile, exp_scaled: bool = False) -> float:
    """||f_a||^2 in L^2 of the sheet measure, in closed form.

    d = 2: (pi / a) e^{-2 a s} (the measure is du d(theta) in u = psi);
    d = 3: 4 pi int_s^oo e^{-2au} sqrt(u^2 - s^2) du = 2 pi s K_1(2as) / a.
    exp_scaled=True returns e^{2as} ||f_a||^2, finite where ||f_a||^2 underflows.
    """
    a, s = profile.a, profile.params.s
    weight = 1.0 if exp_scaled else math.exp(-2.0 * a * s)
    if profile.params.d == 2:
        return np.pi / a * weight
    return 2.0 * np.pi * s * weight * exp_scaled_k1(2.0 * a * s) / a


def conv_power_l2_sq(
    profile: ExpProfile, k: int, method: str = "quadrature", exp_scaled: bool = False
) -> QuadResult:
    """||(f_a sigma)^{*k}||^2 in L^2(R^{d+1}).

    method "closed": exact products

        (2, 2) :  -(2 pi)^3 Ei(-4 a s) / (2 a)
        (2, 3) :  (2 pi)^5 E_3(6 a s) / (4 a^3)
        (3, 2) :  8 pi^3 s K_1(4 a s) / a^3

    method "quadrature": measures.conv_reduced_integral of the squared weighted
    closed density.  The outer integral substitutes tau = k s + w' / (2 a) so
    the a -> 0 regime stays well conditioned, on gl_sqrt_panels split at the
    scale changes of e^{-w'}.  A product or error past the float range is
    refused with ValueError, without a warning.

    exp_scaled=True returns e^{2kas} times the norm, finite where the norm
    underflows; value and error scale alike.
    """
    d, s, a = profile.params.d, profile.params.s, profile.a
    z = a * s
    form = ConvClosedForm(d, k, s)
    weight = 1.0 if exp_scaled else math.exp(-2.0 * k * z)
    if method == "closed":
        try:
            cube = a**3
        except OverflowError:  # a past about 5.6e102: the product reads 0
            cube = math.inf
        try:
            if d == 3:
                value = 8.0 * np.pi**3 * s / cube * weight * exp_scaled_k1(4.0 * z)
            elif k == 3:
                value = (2.0 * np.pi) ** 5 * (weight * exp_scaled_en(3, 6.0 * z)) / (4.0 * cube)
            else:
                value = (2.0 * np.pi) ** 3 * (weight * exp_scaled_en(1, 4.0 * z)) / (2.0 * a)
        except ZeroDivisionError:  # a^3 = 0, a below about 1.7e-108: the product reads inf
            value = math.inf
        return QuadResult(value=value, error=0.0)
    if method != "quadrature":
        raise ValueError("method must be 'closed' or 'quadrature'")

    # The reduction forms up to about 1600 tau^2 (d = 2) or 40 tau^3 (d = 3) at
    # the outermost node tau < k s + 30 / a, past tau^d = 1e305 an overflow.
    if not k * s + 30.0 / a < 1e305 ** (1.0 / d):
        raise ValueError(f"quadrature nodes leave the float range at a s = {z:g}; "
                         "use the closed route")
    # Outer nodes in w' on the panels (0, 1), (1, 5), (5, 15), (15, 60); the
    # first is graded, because the d = 3 inner integral grows like w'^{3/2}
    # from the support vertex.
    wp, wp_w = gl_sqrt_panels([0.0, 1.0, 5.0, 15.0, 60.0], _RADIAL_NODES)
    tau, tau_w = k * s + wp / (2.0 * a), wp_w * np.exp(-wp)

    def outer(n_nodes: int) -> float:
        total = conv_reduced_integral(form, lambda rho, t, dens: dens, tau, tau_w, n_nodes)
        return total * weight / (2.0 * a) * SPHERE_AREA[d]

    with np.errstate(over="ignore", invalid="ignore"):
        result = two_resolution(outer, 48, 96)
    if not (math.isfinite(result.value) and math.isfinite(result.error)):
        raise ValueError(f"quadrature product is {result.value} at a s = {z:g}; "
                         "use the closed route")
    return result


def lp_norm_extension_via_conv(
    profile: ExpProfile, p: int, method: str = "quadrature"
) -> QuadResult:
    """||T f_a||_p through the convolution identity; p = 2k for k in {2, 3}.

    ||T f||_{2k}^{2k} = (2 pi)^{d+1} ||(f sigma)^{*k}||_2^2, with the p-th power
    exp-scaled (_scaled_root): the norm holds for every a s until it underflows
    itself, then reads 0 with a finite error; a s past ~1e16 is refused.
    """
    if p not in (4, 6):
        raise ValueError("p must be 4 or 6")
    scale = (2.0 * np.pi) ** (profile.params.d + 1)
    norm_sq = conv_power_l2_sq(profile, p // 2, method=method, exp_scaled=True)
    z = profile.a * profile.params.s
    return _scaled_root(scale * norm_sq.value, scale * norm_sq.error, p, z)


def _scaled_root(power: float, error: float, p: int, z: float, s_power: float = 1.0) -> QuadResult:
    """||T f_a||_p and its error from P = e^{p z} ||T f_a||_p^p, z = a s, which does
    not underflow with z, and P's error.  The root takes the route's power of s
    first and e^{-z} last, as e^{-z/2} twice where e^{-z} alone is subnormal."""
    if not 0.0 < power < math.inf:
        raise ValueError(f"exp-scaled p-th power of the L^{p} norm is {power} at a s = {z:g}")
    norm = power ** (1.0 / p) * s_power
    if (decay := math.exp(-z)) < sys.float_info.min:
        decay = math.exp(-0.5 * z)
        norm *= decay
    norm *= decay
    return QuadResult(value=norm, error=norm * error / (p * power))


def _ridge_time_edges(rho: np.ndarray, z: float) -> tuple[np.ndarray, np.ndarray]:
    """Panel edges in t >= 0 for |T f_z(rho e1, t)|^p on the unit sheet, tracking t ~ rho.

    Near |t| = rho the closed form gives Re w = sqrt(rho) *
    sqrt(sqrt(dt^2 + z^2) - dt) with dt = |t| - rho, which relaxes to its
    floor z only once dt >> z^2 rho.  Panels: a few inside the cone,
    a split pair across |t| = rho, then geometric doubling out to
    2 (rho + z); _time_integrals covers the rest of the row in 1/t.

    One row per radial node: returns the (rows, edges) array, each row
    padded with its last edge (zero-width panels), and the per-row count.
    """
    delta = 0.5 * z
    wide, split = rho > 8.0 * delta, rho > delta
    cols = [np.zeros_like(rho), 0.5 * rho, rho - 4.0 * delta, rho - delta, rho, rho + delta]
    keep = [np.ones_like(wide), wide, wide, wide, split, split]
    t_max = 2.0 * (rho + z)
    lo, step = np.where(split, rho + delta, 0.0), delta
    while np.any(active := lo < t_max):
        step *= 2.0
        lo = np.where(active, np.minimum(lo + step, t_max), lo)
        cols.append(lo)
        keep.append(active)
    # Move each row's kept edges to its front, in order, and pad with the last.
    keep = np.stack(keep, 1)
    edges = np.take_along_axis(np.stack(cols, 1), np.argsort(~keep, axis=1, kind="stable"), 1)
    count = keep.sum(axis=1)
    pad = np.arange(edges.shape[1]) >= count[:, None]
    return np.where(pad, edges[np.arange(rho.size), count - 1][:, None], edges), count


def _time_integrals(z: float, rho: np.ndarray, edges: np.ndarray, p: int,
                    n_per: int) -> np.ndarray:
    """e^{p z} int_R |T f_z(rho e1, t)|^p dt per row of time edges, n_per nodes a panel.

    [E, oo) past a row's last edge E = 2 (rho + z) is one panel in v = 1/t, where
    |T|^p / v^2 is v^(p-2) times a function analytic out to the branch points
    t = +-rho +- i z, at |v| >= 2 / E: three half-lengths from the centre.
    """
    t, w_t = gl_panels_to_inf(edges, n_per)
    # Factor 2: the density is even in t.
    return 2.0 * np.sum(w_t * _abs_extension_pow(z, rho[:, None], t, p), axis=1)


def _abs_extension_pow(z: float, rho, t, p: int):
    """e^{p z} |T f_z(rho e1, t)|^p on the unit sheet (d = 2, p in {4, 6}), in reals.

    |T|^p = (2 pi)^p e^{-p Re w} / |arg|^{p/2} with arg = w^2 = (z^2 - t^2
    + rho^2) - 2izt, and Re w from the stable half-angle form of the root.
    As Re w >= z, the scaled factor e^{-p (Re w - z)} is at most 1.  Computed
    in place on three arrays of the broadcast shape.
    """
    shape = np.broadcast_shapes(np.shape(rho), np.shape(t))
    re, out, m2 = np.empty(shape), np.empty(shape), np.empty(shape)
    np.subtract(z * z, np.multiply(t, t, out=re), out=re)
    re += rho * rho
    np.multiply(re, re, out=m2)
    m2 += np.square(np.multiply(2.0 * z, t, out=out), out=out)
    nonneg = re >= 0.0
    m = np.sqrt(m2, out=out)
    # big = sqrt((m + |re|) / 2), doubled in re (exactly, to halve again).
    np.sqrt(np.multiply(np.add(np.abs(re, out=re), m, out=re), 0.5, out=re), out=re)
    re *= 2.0
    if p == 6:
        m2 *= m
    # Re w = big where re >= 0, else |im| / (2 big).
    np.abs(np.multiply(2.0 * z, t, out=out), out=out)
    np.divide(out, re, out=out, where=~nonneg)
    np.multiply(re, 0.5, out=out, where=nonneg)
    out -= z
    out *= -p
    np.exp(out, out=out)
    out *= (2.0 * np.pi) ** p
    out /= m2
    return out


def lp_norm_extension_direct(profile: ExpProfile, p: int) -> QuadResult:
    """||T f_a||_p by quadrature of |T|^p over spacetime; d = 2 only.

    Uses only closed extension values on a polar (rho, t) grid:
    ||T f||_p^p = 2 pi int_0^oo int_R |T(rho e1, t)|^p rho dt d(rho),
    independent of the convolution route end to end.  The grid is on the unit
    sheet at z = a s: T f_{a,s}(x, t) = s T f_{z,1}(s x, s t), so the factor
    s^(1 - 3/p) (1 at s = 1) scales ||T f_{z,1}||_p and its error, taken into
    the root before e^{-z} (_scaled_root).

    Along the ridge |t| ~ rho the decay exponent Re w stalls near z, so
    the radial mass g(rho) = 2 pi rho int |T|^p dt falls off only like
    C / rho^(p-2).  The time panels track the ridge per radial node; the
    radial panels double out to R = 16 max(1/z, 1, z), and [R, oo) is one
    panel in v = 1/rho, like each time row's rest.  All panels take the
    coarse or the fine order, so their difference measures the whole
    integral.  The p-th power is exp-scaled as in the convolution route.
    Each radial panel is one batch, its rows of the time-edge array trimmed
    to its longest row, so no Python work runs per radial node and no grid
    wider than one panel is held.

    a s outside [1e-2, 1e16] is refused with ValueError: below, the error bar
    undershoots (at a s = 1e-3 the p = 4 norm is off by 2.0e-3, bar 8.9e-4);
    above, the rounding of Re w - z leaves the scaled power unformable
    (e^{p z ulp}), and the norm, about e^{-z}, reads 0.
    """
    if profile.params.d != 2:
        raise ValueError("direct norm quadrature is implemented for d = 2 only")
    if p not in (4, 6):
        raise ValueError("p must be 4 or 6")
    z = profile.a * profile.params.s
    if not 1e-2 <= z <= 1e16:
        raise ValueError(f"direct norm needs a s >= 1e-2 and a s <= 1e16, got a s = {z:g}")
    edges = doubling_edges(0.25 * min(1.0 / z, 1.0), 16.0 * max(1.0 / z, 1.0, z))

    def evaluate(n_per: int) -> float:
        rho, w_rho = gl_panels_to_inf(edges, n_per)
        t_edges, t_count = _ridge_time_edges(rho, z)
        total = 0.0
        for lo in range(0, rho.size, n_per):
            rows = slice(lo, lo + n_per)
            g = 2.0 * np.pi * rho[rows] * _time_integrals(
                z, rho[rows], t_edges[rows, :t_count[rows].max()], p, n_per)
            total += float(np.dot(w_rho[rows], g))
        return total

    s_power = profile.params.s ** (1.0 - 3.0 / p)
    return _scaled_root(*two_resolution(evaluate, 20, 28), p, z, s_power)
