"""Hyperboloid geometry: lifts, Lorentz maps, and the invariant quasi-distance.

Conventions: spacetime vectors are (xi_1, ..., xi_d, tau) with the quadratic
form tau^2 - |xi|^2, i.e. the form matrix is diag(-1, ..., -1, +1).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HyperboloidParams:
    """Upper sheet of tau^2 - |xi|^2 = s^2 in d spatial dimensions."""

    d: int
    s: float

    def __post_init__(self) -> None:
        if self.d not in (2, 3):
            raise ValueError("d must be 2 or 3")
        if not 0.0 < self.s < np.inf:
            raise ValueError("s must be finite and positive")


@dataclass(frozen=True, eq=False)
class SpacetimePoint:
    xi: np.ndarray
    tau: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        object.__setattr__(self, "tau", float(self.tau))
        if self.xi.ndim != 1:
            raise ValueError("xi must be a 1-D vector")

    @property
    def vector(self) -> np.ndarray:
        return np.append(self.xi, self.tau)

    @staticmethod
    def from_vector(v: np.ndarray) -> "SpacetimePoint":
        v = np.asarray(v, dtype=float)
        return SpacetimePoint(v[:-1], v[-1])


def energy(params: HyperboloidParams, r):
    """sqrt(s^2 + r^2), the height of the sheet over radius r; elementwise.

    ValueError where s^2 leaves the float range, which HyperboloidParams allows.
    """
    try:
        s2 = params.s**2
    except OverflowError:
        raise ValueError(f"s^2 = {params.s!r}^2 leaves the float range") from None
    return np.sqrt(s2 + np.square(r))


def norm_sq(xi):
    """|xi|^2 over the last axis, summed column by column from the first.

    The same bits as np.sum(xi * xi, axis=-1), which adds fewer than 8 terms
    in sequence, at a fraction of its cost on a 2- or 3-wide last axis.
    """
    out = xi[..., 0] * xi[..., 0]
    for k in range(1, xi.shape[-1]):
        out += xi[..., k] * xi[..., k]
    return out


def unit_circle(theta):
    """(cos theta, sin theta) elementwise, from one tangent of the half angle.

    With h = tan(theta / 2) and q = 1 / (1 + h^2), cos = (1 - h^2) q and
    sin = 2 h q: within 2 ulp(1) of libm's for |theta| up to 1.3e3 at least,
    and one tan in place of two libm calls, which numpy vectorises where the
    CPU has AVX-512.  For per-sample and per-node phases; the fixed grids
    whose bits other results pin keep np.cos and np.sin (_sphere_nodes,
    trapezoid_angles, J0's quarter-circle nodes, the chord oracle).
    """
    h = np.multiply(theta, 0.5)
    np.tan(h, out=h)
    q = np.square(h)
    c = np.subtract(1.0, q)
    q += 1.0
    np.reciprocal(q, out=q)
    c *= q
    h *= q
    h *= 2.0
    return c, h


def lift(params: HyperboloidParams, x) -> SpacetimePoint:
    """Lift a finite base point x in R^d onto the upper sheet, its height finite."""
    x = np.asarray(x, dtype=float)
    if x.shape != (params.d,):
        raise ValueError(f"expected a point in R^{params.d}")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    with np.errstate(over="ignore"):
        height = float(energy(params, np.linalg.norm(x)))
    if not np.isfinite(height):
        raise ValueError("the height of x on the sheet leaves the float range")
    return SpacetimePoint(x, height)


def minkowski_matrix(d: int) -> np.ndarray:
    j = -np.eye(d + 1)
    j[d, d] = 1.0
    return j


def invariant_mass(xi, tau):
    """(tau, m2 = tau^2 - |xi|^2) as arrays; ValueError for a non-finite xi or tau.

    xi holds its components on the last axis, at least one.  Rows where tau^2
    or |xi|^2 overflows are redone in units of their largest coordinate, so
    m2 is +-inf there only when m^2 itself overflows.
    """
    xi = np.asarray(xi, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if xi.shape[-1:] in ((), (0,)):
        raise ValueError("xi must have one or more components on its last axis")
    if not (np.isfinite(xi).all() and np.isfinite(tau).all()):
        raise ValueError("xi and tau must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        m2 = tau**2 - norm_sq(xi)
        if not np.isfinite(m2).all():
            c = np.maximum(np.abs(tau), np.max(np.abs(xi), axis=-1))
            unit = (tau / c) ** 2 - norm_sq(xi / c[..., None])
            m2 = np.where(np.isfinite(m2), m2, unit * c * c)
    return tau, m2


@dataclass(frozen=True, eq=False)
class LorentzMap:
    """A linear map preserving the form; validity is the factories' business."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        object.__setattr__(self, "matrix", m)

    @property
    def d(self) -> int:
        return self.matrix.shape[0] - 1

    def form_defect(self) -> float:
        """max |M^T J M - J|; zero for an exact form isometry."""
        j = minkowski_matrix(self.d)
        return float(np.max(np.abs(self.matrix.T @ j @ self.matrix - j)))

    def apply(self, p: SpacetimePoint) -> SpacetimePoint:
        return SpacetimePoint.from_vector(self.matrix @ p.vector)

    def inverse(self) -> "LorentzMap":
        j = minkowski_matrix(self.d)
        # M^-1 = J M^T J for a form isometry.
        return LorentzMap(j @ self.matrix.T @ j)


def boost(d: int, t: float, axis: int = 0) -> LorentzMap:
    """Boost of velocity t along a spatial axis; |t| < 1."""
    if abs(t) >= 1.0:
        raise ValueError("Superluminal velocity")
    if not 0 <= axis < d:
        raise ValueError("axis out of range")
    g = 1.0 / np.sqrt((1.0 - t) * (1.0 + t))
    m = np.eye(d + 1)
    m[axis, axis] = g
    m[axis, d] = g * t
    m[d, axis] = g * t
    m[d, d] = g
    return LorentzMap(m)


def rotation_embed(a: np.ndarray) -> LorentzMap:
    """Embed an orthogonal spatial map A as A (+) 1 acting trivially on tau."""
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    if a.shape != (d, d) or np.max(np.abs(a.T @ a - np.eye(d))) > 1e-10:
        raise ValueError("expected an orthogonal d x d matrix")
    m = np.eye(d + 1)
    m[:d, :d] = a
    return LorentzMap(m)


def compose(*maps: LorentzMap) -> LorentzMap:
    """compose(f, g, ...) acts as f(g(...(x)))."""
    if not maps:
        raise ValueError("compose needs at least one map")
    m = maps[0].matrix
    for nxt in maps[1:]:
        m = m @ nxt.matrix
    return LorentzMap(m)


def normal_form(params: HyperboloidParams, p: SpacetimePoint) -> tuple[LorentzMap, float]:
    """Map a future timelike point, its m^2 = tau^2 - |xi|^2 finite, to (0, m).

    Returns (L, m) with L.apply(p) = (0, m): L = [[1 + u u^T / (1 + gamma), -u],
    [-u^T, gamma]], the boost by the point's own four-velocity (u, gamma) =
    (xi, tau) / m; symmetric, proper (det +1), and the identity at xi = 0.
    """
    d = params.d
    if p.xi.shape != (d,):
        raise ValueError("point dimension mismatch")
    msq = invariant_mass(p.xi, p.tau)[1]
    if not (p.tau > 0 and 0 < msq < np.inf):
        raise ValueError("normal form requires a future timelike point with a finite m^2")
    m = float(np.sqrt(msq))
    u, gamma = p.xi / m, p.tau / m
    lm = np.empty((d + 1, d + 1))
    lm[:d, :d] = np.eye(d) + np.outer(u, u) / (1.0 + gamma)
    lm[:d, d] = lm[d, :d] = -u
    lm[d, d] = gamma
    return LorentzMap(lm), m


def _radicand(params: HyperboloidParams, x: np.ndarray, y: np.ndarray) -> float:
    # 2 (s^2 + psi(x) psi(y) - x.y), written as 4 s^2 + nonnegative terms so it
    # can never fall below 4 s^2 through rounding:
    #   psi psi' - (s^2 + AB) = s^2 (A - B)^2 / (psi psi' + s^2 + AB)
    #   AB - x.y >= 0 (Cauchy-Schwarz)
    # inf where s^4, the scale of s^2 (A - B)^2, is below the normal float
    # range or a term overflows.
    s = params.s
    a = float(np.linalg.norm(x))
    b = float(np.linalg.norm(y))
    den = float(energy(params, a) * energy(params, b)) + s * s + a * b
    if not (s * s * s * s >= sys.float_info.min and den < math.inf and abs(a - b) < 1e154):
        return math.inf
    u = s * s * (a - b) ** 2 / den
    v = max(a * b - float(np.dot(x, y)), 0.0)
    return 4.0 * s * s + 2.0 * (u + v)


def quasi_distance(params: HyperboloidParams, x, y) -> float:
    """d_s(x, y) = sqrt(2 (s^2 + psi(x) psi(y) - x.y)) / (2 s) - 1.

    The radicand is (p + q, p + q)_J for p = lift(x), q = lift(y), so for a
    Lorentz map L preserving the upper sheet d_s(L(p).xi, L(q).xi) = d_s(x, y).
    Vanishes iff x = y; symmetric.  The radicand is assembled from nonnegative
    pieces so the result is >= 0 in floating point, not just in exact arithmetic.
    d_s is unchanged when s, x and y share a scale, so where s^4 or a term of
    the radicand leaves the float range it is formed again with all three
    scaled by the power of two that takes s to about 2^-250 (x = y reads 0
    there); ValueError where even that overflows, or for a non-finite point.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (params.d,) or y.shape != (params.d,):
        raise ValueError(f"expected points in R^{params.d}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must be finite")
    s, k = params.s, 0
    with np.errstate(over="ignore", invalid="ignore"):
        radicand = _radicand(params, x, y)
        if radicand == math.inf:
            if np.array_equal(x, y):
                return 0.0
            k = -250 - math.frexp(s)[1]
            radicand = _radicand(HyperboloidParams(params.d, math.ldexp(s, k)),
                                 np.ldexp(x, k), np.ldexp(y, k))
        dist = float(np.sqrt(radicand) / (2.0 * math.ldexp(s, k)) - 1.0)
    if dist == math.inf:
        raise ValueError("the quasi-distance leaves the float range")
    return dist
