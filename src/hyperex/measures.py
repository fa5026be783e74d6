"""Surface measures on the hyperboloid sheets and their convolution powers.

The Lorentz-invariant measure on the upper sheet integrates as
int f d(sigma) = int f(y, psi(y)) dy / psi(y); the lower sheet is its
reflection tau -> -tau; "both" is the sum.

Closed forms for the n-fold auto-convolution of the upper-sheet measure exist
exactly for (d, n) in {(2, 2), (2, 3), (3, 2)}; each is a function of the
invariant m^2 = tau^2 - |xi|^2 supported on {tau > 0, m^2 >= (n s)^2}:

    d=2, n=2 : 2 pi / sqrt(m^2)               sup pi/s, attained at the vertex
    d=2, n=3 : (2 pi)^2 (1 - 3 s / sqrt(m^2)) sup (2 pi)^2, at timelike infinity
    d=3, n=2 : 2 pi sqrt(1 - 4 s^2 / m^2)     sup 2 pi, at timelike infinity

conv_support decides it from m^2 and the sign of tau, and sum_support_predicate
reads every plus/minus sheet combination from the same two.

conv_reduced_integral integrates a closed density times a rotation-invariant
weight over (tau, |xi|) in one vectorized pass.

Two numerical oracles cross-check them without reusing their algebra:

  * conv_point_oracle takes the invariant mass m of the point from
    conv_support, places it at the off-axis representative (0.75 m, 1.25 m),
    takes the admissible chord of the bipolar parametrization from the closed
    root of the triangle conditions, and integrates the delta-resolved
    density along the chord (d = 2) or reads off the chord length (d = 3,
    where the bipolar density is constant).
  * conv_pairing_oracle integrates a rotation-invariant test function
    g(r, tau), r = |xi|, against the n-fold convolution as an integral over
    n copies of the sheet.  For n = 2 it is the rotation-reduced tensor
    Gauss-Legendre sum: rotation invariance pins the first factor on the
    xi_d axis, so it runs over the radial rule alone while the second runs
    over the sheet grid.  For n = 3 (d = 2) it is importance-sampled Monte
    Carlo: in the coordinates (u = psi(y), theta) the measure is exactly
    du d(theta) and u - s can be sampled as a unit exponential.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .geometry import HyperboloidParams, energy, invariant_mass, norm_sq, unit_circle
from .quadrature import (
    BudgetError, QuadResult, QuadSpec, check_budget, gl_panels, trapezoid_angles, two_resolution,
)

SHEETS = ("plus", "minus", "both")

CLOSED_PAIRS = ((2, 2), (2, 3), (3, 2))

# |S^{d-1}|, the area of the unit sphere of directions in R^d.
SPHERE_AREA = {2: 2.0 * np.pi, 3: 4.0 * np.pi}


@dataclass(frozen=True)
class MeasureSpec:
    params: HyperboloidParams
    sheet: str = "plus"

    def __post_init__(self) -> None:
        if self.sheet not in SHEETS:
            raise ValueError(f"sheet must be one of {SHEETS}")


@dataclass(frozen=True)
class ConvClosedForm:
    """Closed n-fold convolution of the upper-sheet measure, (d, n) limited."""

    d: int
    n: int
    s: float

    def __post_init__(self) -> None:
        if (self.d, self.n) not in CLOSED_PAIRS:
            raise ValueError(
                f"no closed convolution form for (d, n) = ({self.d}, {self.n}); "
                f"supported: {CLOSED_PAIRS}"
            )
        HyperboloidParams(d=self.d, s=self.s)  # refuses a non-finite or non-positive s
        if not 0.0 < (self.n * self.s) * (self.n * self.s) < math.inf:
            raise ValueError(f"(n s)^2 = ({self.n} * {self.s!r})^2 leaves the float range")


def _polar_order(n_angular: int) -> int:
    """Order of the cos(polar) rule of the d = 3 sphere rule."""
    return max(8, n_angular // 2)


def _polar_rule(n_angular: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights in cos(polar) for the d = 3 sphere rule."""
    return gl_panels([-1.0, 1.0], _polar_order(n_angular))


def _sphere_nodes(d: int, n_angular: int) -> tuple[np.ndarray, np.ndarray]:
    """Directions (M, d) and weights (M,) of a rule on the unit sphere S^{d-1}.

    The circle is the periodic trapezoid rule; for d = 3 it is crossed with
    the cos(polar) rule of _polar_rule.
    """
    theta, wt = trapezoid_angles(n_angular)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if d == 2:
        return circle, wt
    c, wc = _polar_rule(n_angular)
    sin_pol = np.sqrt(1.0 - c * c)
    omega = np.column_stack([np.kron(sin_pol[:, None], circle), np.repeat(c, n_angular)])
    return omega, np.outer(wc, wt).ravel()


def _zonal_rule(d: int, n_angular: int) -> tuple[np.ndarray, np.ndarray]:
    """Heights omega_d (M,) and weights (M,) of the sphere rule, for integrands
    that depend on the direction only through omega_d.

    For d = 2 that is the trapezoid circle itself, omega_2 = sin(theta); for
    d = 3 the circle of each cos(polar) node collapses to its length 2 pi.
    """
    if d == 2:
        theta, wt = trapezoid_angles(n_angular)
        return np.sin(theta), wt
    c, wc = _polar_rule(n_angular)
    return c, 2.0 * np.pi * wc


def _radial_nodes(params: HyperboloidParams, quad: QuadSpec):
    """Radial nodes (r, w, psi) of the sheet measure, radius-truncated.

    Gauss-Legendre on [0, radius/2] and [radius/2, radius], quad.n_radial
    nodes each in increasing r, with weights r^{d-1} w_r / psi(r) so that
    d(sigma) = w d(omega).
    """
    r, wr = gl_panels(np.array([0.0, 0.5 * quad.radius, quad.radius]), quad.n_radial)
    psi = energy(params, r)
    return r, r ** (params.d - 1) / psi * wr, psi


# Most sheet nodes integrated at once by _sheet_integrals (one radial row at
# least), so the temporaries of an integrand stay cache-sized however fine the grid.
_SHEET_BLOCK_NODES = 2**14


def surface_integral(
    spec: MeasureSpec, f: Callable, quad: QuadSpec = QuadSpec()
) -> QuadResult:
    """int f d(sigma) over the requested sheet(s).

    f must be vectorized: f(xi, tau) with xi of shape (N, d) and tau of shape
    (N,) returning (N,).  It is called on blocks of consecutive rows of the
    grid, so it must act row by row, and it must not write into its
    arguments.  The grid is the radial rule of _radial_nodes times the sphere
    rule of _sphere_nodes, radius-major, so the outer radial half is the back
    half of the values.  Raises BudgetError when that half contributes more
    than max(1e-3 |value|, 1e-10), i.e. the truncation radius is too small
    for this integrand.
    """
    return _sheet_integrals(spec, (f,), quad)[0]


def _check_sheet_budget(d: int, quad: QuadSpec) -> None:
    """Refuse a sheet grid whose fine resolution, run(2) of _sheet_integrals,
    has more nodes than the budget."""
    n_a = 2 * quad.n_angular
    sphere = n_a * (_polar_order(n_a) if d == 3 else 1)
    check_budget(2 * (2 * quad.n_radial) * sphere, "sheet nodes")


def _sheet_integrals(spec: MeasureSpec, fs, quad: QuadSpec) -> list[QuadResult]:
    """surface_integral of each integrand of fs, all on one grid per resolution.

    The grid is walked in blocks of whole radial rows, as many as fit in
    _SHEET_BLOCK_NODES nodes (at least one), and each block's sums are added
    to the running totals, so no whole-grid array is built.
    """
    _check_sheet_budget(spec.params.d, quad)
    signs = {"plus": (1,), "minus": (-1,), "both": (1, -1)}[spec.sheet]

    def run(scale: int) -> list[tuple[float, float]]:
        q = replace(quad, n_radial=quad.n_radial * scale,
                    n_angular=quad.n_angular * scale)
        r, wr, psi = _radial_nodes(spec.params, q)
        omega, wo = _sphere_nodes(spec.params.d, q.n_angular)
        m = wo.size
        step = max(1, _SHEET_BLOCK_NODES // m)
        # Per integrand, the sum for each sign, then the |.| tail of rows >= q.n_radial.
        out = np.zeros((len(fs), len(signs) + 1))
        for lo in range(0, r.size, step):
            rows = slice(lo, lo + step)
            xi = np.kron(r[rows, None], omega)
            tau = np.repeat(psi[rows], m)
            w = np.outer(wr[rows], wo).ravel()
            tail = slice(max(0, q.n_radial - lo) * m, None)
            for f, row in zip(fs, out):
                for k, sign in enumerate(signs):
                    vals = w * f(xi, tau if sign > 0 else -tau)
                    row[k] += np.sum(vals)
                    row[-1] += np.sum(np.abs(vals[tail]))
        return [(sum(map(float, row[:-1])), float(row[-1])) for row in out]

    results = []
    for (coarse, _), (fine, tail) in zip(run(1), run(2)):
        if tail > max(1e-3 * abs(fine), 1e-10):
            raise BudgetError(
                f"outer-half contribution {tail:.3e} vs total {fine:.3e}: "
                f"integrand decays too slowly for radius {quad.radius}"
            )
        results.append(QuadResult(value=fine, error=abs(fine - coarse)))
    return results


def conv_support(form: ConvClosedForm, xi, tau):
    """Closed support of the closed density at (xi, tau), and the invariant mass.

    Returns (inside, m2) with m2 = tau^2 - |xi|^2 and inside the closed set
    tau > 0, m2 >= (n s)^2.  Vectorized like conv_closed; a single point gives
    exactly the corresponding row of a vectorized call.  Raises ValueError for
    a non-finite xi or tau, or an xi without d components.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1:] != (form.d,):
        raise ValueError(f"xi must have {form.d} components")
    tau, m2 = invariant_mass(xi, tau)
    return (tau > 0) & (m2 >= (form.n * form.s) ** 2), m2


def conv_closed(form: ConvClosedForm, xi, tau):
    """Closed n-fold convolution density at (xi, tau); 0 outside conv_support.

    Vectorized: xi may be (N, d) with tau (N,).
    """
    out = _closed_density(form, *conv_support(form, xi, tau))
    return float(out) if np.ndim(out) == 0 else out


def _closed_density(form: ConvClosedForm, inside, m2):
    """The closed density as a function of the invariant mass m2; 0 off `inside`."""
    # Outside points get m^2 = oo, finite in every formula below.
    m2_safe = np.where(inside, m2, np.inf)
    if form.d == 2 and form.n == 2:
        vals = 2.0 * np.pi / np.sqrt(m2_safe)
    elif form.d == 2 and form.n == 3:
        vals = (2.0 * np.pi) ** 2 * (1.0 - 3.0 * form.s / np.sqrt(m2_safe))
    else:  # (3, 2)
        vals = 2.0 * np.pi * np.sqrt(1.0 - 4.0 * form.s**2 / m2_safe)
    return np.where(inside, vals, 0.0)


def conv_reduced_integral(form: ConvClosedForm, f: Callable, tau, tau_w, n_rho: int) -> float:
    """(tau, rho = |xi|) reduction of the integral of dens * f(rho, tau, dens).

    sum_tau tau_w rho_max sum_rho w_rho dens f rho^{d-1}, times |S^{d-1}| by the
    caller; n_rho Gauss-Legendre nodes on [0, rho_max = sqrt(tau^2 - (n s)^2)],
    dens the closed density of m^2 = tau^2 - rho^2, with conv_support's test.
    """
    base = form.n * form.s
    rho_max = np.sqrt(np.maximum(tau * tau - base * base, 0.0))
    r, r_w = gl_panels([0.0, 1.0], n_rho)
    rho = rho_max[:, None] * r
    tau = np.broadcast_to(tau[:, None], rho.shape)
    m2 = tau**2 - rho * rho
    dens = _closed_density(form, (tau > 0) & (m2 >= base**2), m2)
    vals = r_w * dens * f(rho, tau, dens) * rho ** (form.d - 1)
    return float(np.sum(tau_w * (rho_max * np.sum(vals, axis=1))))


def conv_sup_norm(form: ConvClosedForm) -> tuple[float, str]:
    """Supremum of the closed convolution density and where it is approached.

    "vertex" means attained at the support vertex (0, n s); "infinity" means a
    strict supremum approached along timelike infinity.
    """
    if form.d == 2 and form.n == 2:
        return np.pi / form.s, "vertex"
    if form.d == 2 and form.n == 3:
        return (2.0 * np.pi) ** 2, "infinity"
    return 2.0 * np.pi, "infinity"


_NO_CHORD = "point is within rounding of the support boundary; its chord is empty"


def _chord_endpoint(s: float, xq: float, tq: float) -> np.longdouble:
    """Closed chord endpoint t* = xq sqrt(1 - 4 s^2 / m^2), m^2 = tq^2 - xq^2.

    On u + v = tq the radii rho = sqrt(u^2 - s^2), zeta = sqrt(v^2 - s^2)
    meet the triangle conditions rho + zeta >= xq >= |rho - zeta| exactly for
    t = u - v in [-t*, t*].  In extended precision, as the chord integral;
    ValueError where rounding has left (xq, tq) without a chord.
    """
    x, t = np.longdouble(xq), np.longdouble(tq)
    m2 = (t - x) * (t + x)
    gap = m2 - 4 * np.longdouble(s) ** 2
    if not gap > 0:
        raise ValueError(_NO_CHORD)
    return x * np.sqrt(gap / m2)


def conv_point_oracle(form: ConvClosedForm, xi, tau: float) -> QuadResult:
    """Numerical n = 2 convolution density at one point, without the closed form.

    The density depends on the point only through m = sqrt(tau^2 - |xi|^2),
    so it is evaluated at the off-axis representative (0.75 m, 0, ..., 1.25 m),
    the boost of velocity 0.6 of (0, m), which exercises the bipolar
    parametrization away from the axis.  Only the measure definition is
    shared with conv_closed; the chord endpoint is the closed root of the
    triangle conditions and the d = 2 chord integral is done by
    Gauss-Legendre, 24 and 48 nodes, after a sin substitution that absorbs
    the inverse-square-root endpoints.  The error is a round-off floor,
    8 eps (tau^2 + |xi|^2) / (m^2 - 4 s^2) times the value, for the rounding
    of m^2, plus (d = 2) the two-resolution difference.  Every refusal is a
    ValueError.
    """
    if form.n != 2:
        raise ValueError("the point oracle covers n = 2 only; use conv_pairing_oracle for n = 3")
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 1 or np.ndim(tau) != 0:
        raise ValueError("the point oracle takes one point: a 1-D xi and a scalar tau")
    tau, s = float(tau), form.s
    inside, m2 = conv_support(form, xi, tau)
    if not inside:
        return QuadResult(0.0, 0.0)
    if m2 == (2.0 * s) ** 2:
        raise ValueError(_NO_CHORD)
    # |xi| < tau here, so |xi|^2 is finite wherever tau^2 is.
    scale = tau**2 + float(norm_sq(xi)) if math.isfinite(tau * tau) else math.inf
    if not math.isfinite(scale):
        raise ValueError("the point oracle needs tau^2 + |xi|^2 inside the float range")
    if m2 - (2.0 * s) ** 2 < 1e-8 * (1.0 + tau**2):
        warnings.warn(
            "point is within 1e-8 (1 + tau^2) of the support boundary; "
            "the oracle loses accuracy there",
            stacklevel=2,
        )
    m = math.sqrt(m2)
    xq, tq = 0.75 * m, 1.25 * m
    t_star = _chord_endpoint(s, xq, tq)
    floor = float(8.0 * np.finfo(float).eps * scale / (m2 - (2.0 * s) ** 2))
    if form.d == 3:
        # The bipolar density is constant on the chord: value = 2 pi t*/|xi|.
        value = float(2.0 * np.pi * t_star / xq)
        return QuadResult(value, floor * value)

    def chord_integral(n_nodes: int) -> float:
        phi, w = gl_panels([-0.5 * np.pi, 0.5 * np.pi], n_nodes)
        # Extended precision: near the boundary both factors below are tiny
        # differences of order-one squares, outside double's reach at the
        # outermost nodes.
        t = t_star * np.sin(phi.astype(np.longdouble))
        u = 0.5 * (np.longdouble(tq) + t)
        v = 0.5 * (np.longdouble(tq) - t)
        s2 = np.longdouble(s) ** 2
        x2 = np.longdouble(xq) ** 2
        rho = np.sqrt(u * u - s2)
        zeta = np.sqrt(v * v - s2)
        fac = ((rho + zeta) ** 2 - x2) * (x2 - (rho - zeta) ** 2)
        # Strictly positive on the open chord; a sign flip is rounding noise at
        # a node hugging an endpoint unless en masse, but a zero divides by 0.
        if np.count_nonzero(fac <= 0) > max(2, n_nodes // 50) or not fac.all():
            raise ValueError(_NO_CHORD)
        fac = np.abs(fac)
        # d(t) = t* cos(phi) d(phi); the 1/sqrt endpoint of the chord density
        # cancels against cos(phi), keeping the integrand bounded.
        integrand = 2 * t_star * np.cos(phi.astype(np.longdouble))
        return float(np.sum(w.astype(np.longdouble) * integrand / np.sqrt(fac)))

    value, error = two_resolution(chord_integral, 24, 48)
    return QuadResult(value, error + floor * value)


def conv_pairing_oracle(
    spec: MeasureSpec, n: int, g: Callable, quad: QuadSpec = QuadSpec()
) -> QuadResult:
    """<sigma^{*n}, g> as an integral over n copies of the sheet.

    g is a rotation-invariant test function g(r, tau) of r = |xi|, vectorized
    over (M,) arrays; it is called on blocks of nodes or samples, so it must
    act elementwise.  Supported routes: the rotation-reduced tensor
    Gauss-Legendre sum for n = 2 (d = 2 or 3, see _pairing_tensor_pair) and
    importance-sampled Monte Carlo for n in {2, 3} with d = 2.  The Monte
    Carlo error is a one-sigma standard error; tensor errors are
    two-resolution differences.
    """
    if n not in (2, 3):
        raise ValueError("pairing oracle supports n in {2, 3}")
    if spec.sheet == "both":
        raise ValueError("pairing oracle works one sheet at a time")
    flip = -1.0 if spec.sheet == "minus" else 1.0

    if quad.rule == "montecarlo":
        if spec.params.d != 2:
            raise ValueError("Monte-Carlo pairing is implemented for d = 2 only")
        return _pairing_montecarlo(spec.params, n, g, quad, flip)
    if n == 3:
        raise BudgetError(
            "tensor pairing for n = 3 would need a 6-D grid; "
            "use QuadSpec(rule='montecarlo')"
        )
    return _pairing_tensor_pair(spec.params, g, quad, flip)


def _pairing_grid(quad: QuadSpec, scale: int) -> QuadSpec:
    """The coarse (scale 1) or fine (scale 2) grid of _pairing_tensor_pair."""
    return replace(quad, n_radial=max(4, quad.n_radial // 2 * scale),
                   n_angular=max(8, quad.n_angular // 2 * scale))


def _check_pairing_budget(d: int, quad: QuadSpec) -> None:
    """Refuse a tensor pairing whose fine grid has more node pairs than the budget."""
    fine = _pairing_grid(quad, 2)
    zonal = _polar_order(fine.n_angular) if d == 3 else fine.n_angular
    check_budget((2 * fine.n_radial) ** 2 * zonal, "tensor-pairing node pairs")


def _pairing_tensor_pair(
    params: HyperboloidParams, g: Callable, quad: QuadSpec, flip: float
) -> QuadResult:
    """<sigma * sigma, g> with the first factor pinned on the xi_d axis.

    Since g is rotation invariant, the integral over the second factor y
    depends on the first factor x only through rho = |x|, so x runs over the
    radial rule alone with weight |S^{d-1}|.  Then |x + y| depends on y
    through its radius r and height c = omega_d alone,
    |x + y|^2 = (r - rho)^2 + 2 r rho (1 + c), and y runs over the radial
    rule times _zonal_rule.
    """
    _check_pairing_budget(params.d, quad)

    def run(scale: int) -> float:
        q = _pairing_grid(quad, scale)
        r, wr, psi = _radial_nodes(params, q)
        c, wc = _zonal_rule(params.d, q.n_angular)
        r_y = np.repeat(r, c.size)
        c_y = np.tile(c, r.size)
        psi_y = np.repeat(psi, c.size)
        w_y = np.outer(wr, wc).ravel()
        total = 0.0
        for rho, w_x, psi_x in zip(r, wr, psi):
            length = np.sqrt((r_y - rho) ** 2 + 2.0 * r_y * rho * (1.0 + c_y))
            vals = np.asarray(g(length, flip * (psi_y + psi_x)), dtype=float)
            total += float(w_x * np.dot(w_y, vals))
        return SPHERE_AREA[params.d] * total

    return two_resolution(run, 1, 2)


# Samples per block of the Monte-Carlo pairing's elementwise updates; the
# temporaries of a block stay cache-sized however many samples are drawn.
_MC_BLOCK = 2**14


def _pairing_montecarlo(
    params: HyperboloidParams, n: int, g: Callable, quad: QuadSpec, flip: float
) -> QuadResult:
    """Exact importance sampling: d(sigma) = du d(theta) in u = psi(y).

    Per factor, u - s is a unit exponential and theta is uniform, so the
    importance weight is (2 pi) e^{u - s} per factor.  No burn-in, no
    rejection; the estimator is an i.i.d. mean with a clean error bar.
    cos and sin of theta come from unit_circle, within 2 ulp(1) of libm's.
    """
    s = params.s
    if not s * s < math.inf:
        raise ValueError(f"s^2 = {s!r}^2 leaves the float range")
    rng = np.random.Generator(np.random.PCG64(quad.seed if quad.seed is not None else 0))
    N = quad.samples
    blocks = [slice(b, b + _MC_BLOCK) for b in range(0, N, _MC_BLOCK)]
    # Every step but the mean and the deviation is elementwise, so block by
    # block it gives the bits of the whole-array steps.
    sum_x, sum_y, sum_tau, log_weight = np.zeros((4, N))
    for _ in range(n):
        u = s + rng.exponential(size=N)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=N)
        for block in blocks:
            ub = u[block]
            c, sn = unit_circle(theta[block])
            r = np.multiply(ub, ub)
            r -= s * s
            np.sqrt(r, out=r)
            c *= r
            sn *= r
            sum_x[block] += c
            sum_y[block] += sn
            sum_tau[block] += ub
            log_weight[block] += ub - s
            # A block holds at most three temporaries at once, and no view of
            # u outlives the loop.
            del ub, c, sn, r
        del u, theta  # before the next factor's draws
    samples = np.empty(N)
    for block in blocks:
        vals = np.asarray(g(np.hypot(sum_x[block], sum_y[block]), flip * sum_tau[block]),
                          dtype=float)
        samples[block] = vals * (2.0 * np.pi) ** n * np.exp(log_weight[block])
    value = float(np.mean(samples))
    error = float(np.std(samples, ddof=1) / np.sqrt(N))
    return QuadResult(value=value, error=error)


def sum_support_predicate(s: float, sheets: tuple, xi, tau):
    """Support containment for sums of n points drawn from given sheets.

    sheets is a tuple of "plus"/"minus" of length 2 or 3.  Returns whether
    (xi, tau) can lie in the closed region guaranteed to contain the support
    of the corresponding convolution, read from m2 = tau^2 - |xi|^2 of
    invariant_mass and the sign of tau, with b = (n s)^2:

        n = 2:  (+,+) tau > 0 and m2 >= b,   (+,-) m2 <= b,
                (-,-) tau < 0 and m2 >= b
        n = 3:  (+,+,+) tau > 0 and m2 >= b,   (+,+,-) tau >= 0 or m2 <= b,
                (+,-,-) tau <= 0 or m2 <= b,   (-,-,-) tau < 0 and m2 >= b

    The all-plus rows are conv_support's decision.  Vectorized over
    (xi, tau); raises ValueError for a non-finite xi or tau, or a b past the
    float range.
    """
    if not s > 0:
        raise ValueError("s must be positive")
    n = len(sheets)
    if n not in (2, 3) or any(sh not in ("plus", "minus") for sh in sheets):
        raise ValueError("sheets must be 2 or 3 entries of 'plus'/'minus'")
    try:
        b = (n * s) ** 2
    except OverflowError:
        raise ValueError(f"(n s)^2 = ({n} * {s!r})^2 leaves the float range") from None
    tau, m2 = invariant_mass(xi, tau)
    plus = sheets.count("plus")
    if plus == n:
        out = (tau > 0) & (m2 >= b)
    elif plus == 0:
        out = (tau < 0) & (m2 >= b)
    elif n == 2:
        out = m2 <= b
    else:
        out = ((tau >= 0) if plus == 2 else (tau <= 0)) | (m2 <= b)
    return bool(out) if np.ndim(out) == 0 else out
