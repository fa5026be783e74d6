"""Sharp constants, profile functionals, sheet combiners, and concentration.

Everything here sits on top of the closed formulas from the measure and
extension layers.  The three supported (dimension, exponent) pairs are
(2, 4), (2, 6), (3, 4); their one-sheet constants are

    2^{3/4} pi,   (2 pi)^{5/6},   (2 pi)^{5/4},

scaled by s^{(d-1)/2 - (d+1)/p} for a general hyperboloid parameter, and by
(3/2)^{1/4} or (5/2)^{1/3} when both sheets carry mass.  The profile ratio

    Q(a) = ||T f_a||_p / ||f_a||_2

stays strictly below the constant for every finite rate a and attains it
only in a concentration limit: a -> oo (vertex) for (2, 4), a -> 0+
(spatial infinity) for (2, 6) and (3, 4).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .extension import ExpProfile, conv_power_l2_sq, l2_norm_sq
from .geometry import HyperboloidParams
from .measures import ConvClosedForm, conv_sup_norm
from .quadrature import QuadResult, check_budget, doubling_edges, gl_panels
from .specfun import exp_scaled_en, exp_scaled_k1

# One-sheet constant at s = 1 of each supported pair, as (expression, value).
_BASE_CONSTANTS = {
    (2, 4): ("2^(3/4)*pi", 2.0 ** 0.75 * math.pi),
    (2, 6): ("(2*pi)^(5/6)", (2.0 * math.pi) ** (5.0 / 6.0)),
    (3, 4): ("(2*pi)^(5/4)", (2.0 * math.pi) ** 1.25),
}
# Factor linking the two-sheet constant to the one-sheet constant, per p, as
# (expression prefix, value); the square combiner (p = 4) gives (3/2)^{1/4}
# and the cubic combiner (p = 6) gives (25/4)^{1/6} = (5/2)^{1/3}.
_TWO_SHEET = {
    4: ("(3/2)^(1/4)", 1.5 ** 0.25),
    6: ("(5/2)^(1/3)", 2.5 ** (1.0 / 3.0)),
}

SUPPORTED_PAIRS = tuple(_BASE_CONSTANTS)
SHEET_LABELS = ("one", "two")
TWO_SHEET_FACTORS = {(d, p): _TWO_SHEET[p][1] for d, p in SUPPORTED_PAIRS}


@dataclass(frozen=True)
class SharpConstant:
    """Best constant for one (d, p, s, sheet) choice."""

    d: int
    p: int
    s: float
    value: float
    sheet: str


@dataclass(frozen=True)
class FunctionalCurvePoint:
    """One point of the profile-ratio curve a -> Q(a).

    error is the route's estimate for q_value: 0 on the closed route.
    """

    a: float
    q_value: float
    error: float


def scaling_exponent(d: int, p: int) -> float:
    """Power of s carried by the best constant: (d-1)/2 - (d+1)/p."""
    return 0.5 * (d - 1) - (d + 1) / p


def _require_pair(d: int, p: int) -> None:
    if (d, p) not in SUPPORTED_PAIRS:
        raise ValueError(f"unsupported pair (d, p) = ({d}, {p})")


def base_constant(d: int, p: int) -> float:
    """One-sheet constant at s = 1."""
    _require_pair(d, p)
    return _BASE_CONSTANTS[(d, p)][1]


def constant_expression(d: int, p: int, sheet: str = "one") -> str:
    """Human-readable closed expression for the constant at s = 1."""
    _require_pair(d, p)
    core = _BASE_CONSTANTS[(d, p)][0]
    return core if sheet == "one" else f"{_TWO_SHEET[p][0]}*{core}"


def best_constant(d: int, p: int, s: float = 1.0, sheet: str = "one") -> SharpConstant:
    """Sharp constant for ||T f||_p <= C ||f||_2 on the scaled hyperboloid."""
    _require_pair(d, p)
    if sheet not in SHEET_LABELS:
        raise ValueError(f"sheet must be one of {SHEET_LABELS}")
    HyperboloidParams(d=d, s=s)  # refuses a non-finite or non-positive s
    value = s ** scaling_exponent(d, p) * base_constant(d, p)
    if sheet == "two":
        value *= TWO_SHEET_FACTORS[(d, p)]
    return SharpConstant(d=d, p=p, s=float(s), value=value, sheet=sheet)


def conv_form_constant(d: int, k: int) -> float:
    """Best constant in convolution form: sup ||(f sigma)^{*k}||_2^{1/k}/||f||_2.

    Equals best_constant / (2 pi)^{(d+1)/(2k)}; closed values are pi^{1/4}
    for (d, k) = (2, 2), (2 pi)^{1/3} for (2, 3), (2 pi)^{1/4} for (3, 2).
    """
    h = best_constant(d, 2 * k, 1.0, "one").value
    return h / (2.0 * math.pi) ** ((d + 1) / (2.0 * k))


def sup_norm_bound(d: int, p: int, s: float = 1.0) -> float:
    """Upper bound (2 pi)^{(d+1)/p} ||sigma^{*k}||_oo^{1/p} with k = p/2.

    Coincides with the sharp constant for all three supported pairs: the
    closed sup-norms make the bound saturate.
    """
    _require_pair(d, p)
    k = p // 2
    sup, _ = conv_sup_norm(ConvClosedForm(d, k, s))
    return (2.0 * math.pi) ** ((d + 1) / p) * sup ** (1.0 / p)


def q_ratio_closed(d: int, p: int, a: float, s: float) -> float:
    """Closed profile ratio Q = ||T f_a||_p / ||f_a||_2; z = a s.

    Q_{2,4}^4 = 8 (pi^4 / s) 4z e^{4z} E_1(4z)
    Q_{2,6}^6 = 2 (2 pi)^5 e^{6z} E_3(6z)
    Q_{3,4}^4 = (2 pi)^5 k_1(4z) / (z k_1(2z)^2),   k_1 = e^z K_1(z)

    Every factor is exponentially scaled, so the exponentials cancel exactly
    and no regime of z loses digits.  A z that rounds to 0, or below 5e-301
    for (3, 4), or whose 4z or 6z overflows is refused with ValueError.
    """
    _require_pair(d, p)
    ExpProfile(a=a, params=HyperboloidParams(d=d, s=s))  # refuses a and s
    z = a * s
    if not (z >= 5e-301 if d == 3 else z > 0.0) or math.isinf(z * (6.0 if p == 6 else 4.0)):
        raise ValueError(f"a s = {z:g} is outside the closed route's float range")
    if (d, p) == (2, 4):
        return (8.0 * math.pi ** 4 / s * (4.0 * z * exp_scaled_en(1, 4.0 * z))) ** 0.25
    if (d, p) == (2, 6):
        return (2.0 * (2.0 * math.pi) ** 5 * exp_scaled_en(3, 6.0 * z)) ** (1.0 / 6.0)
    k2 = exp_scaled_k1(2.0 * z)
    return ((2.0 * math.pi) ** 5 * exp_scaled_k1(4.0 * z) / k2 / (z * k2)) ** 0.25


def q_ratio_quadrature(d: int, p: int, a: float, s: float) -> QuadResult:
    """Profile ratio through the quadrature convolution route; any pair.

    The oracle for q_ratio_closed:
    Q^p = (2 pi)^{d+1} e^{2kas} ||(f_a sigma)^{*k}||^2 / (e^{2as} ||f_a||^2)^k
    with k = p / 2, from exponentially scaled parts, so no factor underflows
    at large a s.  The error estimate is propagated from the norm quadrature;
    a norm that reads 0 or is not finite (past a s ~ 1e18) is refused.
    """
    _require_pair(d, p)
    profile = ExpProfile(a=a, params=HyperboloidParams(d=d, s=s))
    conv = conv_power_l2_sq(profile, p // 2, method="quadrature", exp_scaled=True)
    if not 0.0 < conv.value < math.inf:
        raise ValueError(f"quadrature norm is {conv.value} at a = {a}, s = {s}; "
                         "use the closed route")
    f_norm_sq = l2_norm_sq(profile, exp_scaled=True)
    value = ((2.0 * np.pi) ** (d + 1) * conv.value / f_norm_sq ** (p // 2)) ** (1.0 / p)
    return QuadResult(value=value, error=value * conv.error / (p * conv.value))


def q_ratio(d: int, p: int, a: float, s: float, method: str = "closed") -> QuadResult:
    """Profile ratio Q(a) = ||T f_a||_p / ||f_a||_2 on the closed or quadrature route.

    The closed route reports error 0; the quadrature route its propagated
    two-resolution estimate.
    """
    if method == "closed":
        return QuadResult(value=q_ratio_closed(d, p, a, s), error=0.0)
    if method == "quadrature":
        return q_ratio_quadrature(d, p, a, s)
    raise ValueError(f"method must be 'closed' or 'quadrature', got {method!r}")


def expected_monotonicity(d: int, p: int) -> str:
    """Known strict monotonicity of a -> Q(a): toward its concentration limit."""
    _require_pair(d, p)
    return "increasing" if (d, p) == (2, 4) else "decreasing"


def monotonicity_scan(
    d: int, p: int, s: float, a_grid, method: str = "closed"
) -> tuple[list[FunctionalCurvePoint], str]:
    """Evaluate Q on the grid through q_ratio and classify the trend.

    Each point carries the value and error of q_ratio's `method` route.
    Returns the curve and one of "strictly-increasing", "strictly-decreasing",
    "not-strict".  The grid must be strictly increasing with >= 3 points for
    a meaningful verdict (>= 2 accepted for degenerate sweeps).
    """
    _require_pair(d, p)
    grid = np.asarray(a_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("a_grid must be a 1-D grid with at least 2 points")
    if not np.all(np.diff(grid) > 0):
        raise ValueError("a_grid must be strictly increasing")
    points = []
    for a in grid:
        r = q_ratio(d, p, float(a), s, method)
        points.append(FunctionalCurvePoint(a=float(a), q_value=r.value, error=r.error))
    steps = np.diff([pt.q_value for pt in points])
    if np.all(steps > 0):
        return points, "strictly-increasing"
    if np.all(steps < 0):
        return points, "strictly-decreasing"
    return points, "not-strict"


def scaling_check(d: int, p: int, s: float, profile: ExpProfile) -> float:
    """Relative discrepancy of Q(a/s, s) = s^{exponent} Q(a, 1).

    The rescaled profile of rate a on the unit hyperboloid has rate a/s on
    the s-hyperboloid (the product a s is the scale-invariant coordinate).
    Both sides come from q_ratio.
    """
    _require_pair(d, p)
    if profile.params.d != d:
        raise ValueError("profile dimension does not match d")
    a = profile.a
    factor = s ** scaling_exponent(d, p)
    lhs = q_ratio(d, p, a / s, s).value
    rhs = factor * q_ratio(d, p, a, 1.0).value
    return abs(lhs - rhs) / abs(rhs)


def combiner_gap(x, y):
    """Slack of the square-sheet combiner X^2 + Y^2 + 4XY <= (3/2)(X+Y)^2.

    Algebraically equal to (X - Y)^2 / 2, so it is nonnegative and vanishes
    exactly on the diagonal.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return 1.5 * (x + y) ** 2 - (x * x + y * y + 4.0 * x * y)


# Sample pairs whose predicates two_sheeted_combiner_check evaluates at once.
_COMBINER_BLOCK = 2**16


def two_sheeted_combiner_check(samples: int, seed: int | None = None) -> int:
    """Count violations of the square combiner over random nonnegative pairs.

    A violation is either a negative gap (inequality broken) or a gap
    inconsistent with equality holding iff X = Y.  Returns the count, which
    the sharp-inequality suite requires to be zero.  Pairs are drawn block
    by block, X then Y, so no array longer than one block is held.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    check_budget(samples, "combiner samples")
    rng = np.random.default_rng(0 if seed is None else seed)
    # Include exact diagonal pairs so the equality case is exercised.
    diagonal = samples // 100 + 1
    count = 0
    for lo in range(0, samples, _COMBINER_BLOCK):
        size = min(_COMBINER_BLOCK, samples - lo)
        xb = rng.exponential(size=size)
        yb = rng.exponential(size=size)
        head = max(diagonal - lo, 0)
        xb[:head] = yb[:head]
        gap = combiner_gap(xb, yb)
        ident = 0.5 * (xb - yb) ** 2
        scale = (1.0 + xb + yb) ** 2
        broken = gap < -1e-12 * scale
        mismatched = np.abs(gap - ident) > 1e-12 * scale
        equality_wrong = (np.abs(gap) <= 1e-15 * scale) & (np.abs(xb - yb) > 1e-7 * (1 + xb + yb))
        count += int(np.count_nonzero(broken | mismatched | equality_wrong))
    return count


# Range of a s over which the d = 3 quadrature of mass_fraction stays inside
# the float range: below it the radial mass overflows, above it underflows.
_MASS_RATE_RANGE = (1e-150, 1e150)


def mass_fraction(d: int, s: float, a: float, radius: float) -> float:
    """Share of ||f_a||^2 carried by the centered ball of the given radius.

    d = 2 closed: 1 - e^{-2a(sqrt(s^2 + R^2) - s)}; d = 3 by quadrature of
    the radial density e^{-2au} sqrt(u^2 - s^2) in the energy variable, over
    the ball and over the whole sheet (truncated at e^{-2a(u - s)} = e^{-100}).
    The d = 3 share depends on a s and R / s alone, so it is computed at
    s = 1 with rate a s and radius R / s, and refused (ValueError) for a s
    outside _MASS_RATE_RANGE.  Small for small a (mass escapes to spatial
    infinity), near 1 for large a (mass pins to the vertex).
    """
    ExpProfile(a=a, params=HyperboloidParams(d=d, s=s))  # refuses d, s and a
    if not 0.0 < radius < math.inf:
        raise ValueError("radius must be finite and positive")
    if d == 2:
        # u_ball - s; below R = s as R^2 / (u_ball + s), where it would cancel.
        u = math.hypot(s, radius)
        gap = u - s if radius >= s else radius * (radius / (u + s))
        return -math.expm1(-2.0 * (a * gap))
    rate = a * s
    lo, hi = _MASS_RATE_RANGE
    if not lo <= rate <= hi:
        raise ValueError(f"d = 3 mass fraction needs {lo:g} <= a s <= {hi:g}, got a s = {rate:g}")
    # An R / s past the float range is clamped: at float max the ball
    # already holds the whole truncated sheet.
    r = min(radius / s, sys.float_info.max)
    # u_ball - 1 = r^2 / (u_ball + 1), without the cancellation at small r.
    v_total = math.sqrt(50.0 / rate)
    v_ball = min(math.sqrt(r * (r / (math.hypot(1.0, r) + 1.0))), v_total)
    return _radial_mass(3, rate, 1.0, v_ball) / _radial_mass(3, rate, 1.0, v_total)


def _radial_mass(d: int, a: float, s: float, v_max: float) -> float:
    """e^{2as} int_s^{s + v_max^2} e^{-2au} w(u) du, w = 1 (d = 2), sqrt(u^2 - s^2) (d = 3).

    In u = s + v^2 the integrand, 2 v e^{-2a v^2} or 2 v^2 sqrt(2s + v^2)
    e^{-2a v^2}, is analytic in v; panels start at the smaller of its scales,
    sqrt(s) and 1/sqrt(2a), and double out to v_max, 24 Gauss-Legendre nodes each.
    """
    v, w = gl_panels(doubling_edges(min(math.sqrt(s), 1.0 / math.sqrt(2.0 * a), v_max), v_max), 24)
    v2 = v * v
    vals = w * 2.0 * v2 * np.sqrt(2.0 * s + v2) if d == 3 else w * 2.0 * v
    return float(np.sum(vals * np.exp(-2.0 * a * v2)))
