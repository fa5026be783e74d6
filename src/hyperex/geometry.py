"""Hyperboloid geometry: lifts, Lorentz maps, and the invariant quasi-distance.

Conventions: spacetime vectors are (xi_1, ..., xi_d, tau) with the quadratic
form tau^2 - |xi|^2, i.e. the form matrix is diag(-1, ..., -1, +1).
"""

from __future__ import annotations

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
    """sqrt(s^2 + r^2), the height of the sheet over radius r; elementwise."""
    return np.sqrt(params.s**2 + np.square(r))


def norm_sq(xi):
    """|xi|^2 over the last axis, summed column by column from the first.

    The same bits as np.sum(xi * xi, axis=-1), which adds fewer than 8 terms
    in sequence, at a fraction of its cost on a 2- or 3-wide last axis.
    """
    out = xi[..., 0] * xi[..., 0]
    for k in range(1, xi.shape[-1]):
        out += xi[..., k] * xi[..., k]
    return out


def lift(params: HyperboloidParams, x) -> SpacetimePoint:
    """Lift a finite base point x in R^d onto the upper sheet."""
    x = np.asarray(x, dtype=float)
    if x.shape != (params.d,):
        raise ValueError(f"expected a point in R^{params.d}")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    return SpacetimePoint(x, float(energy(params, np.linalg.norm(x))))


def minkowski_matrix(d: int) -> np.ndarray:
    j = -np.eye(d + 1)
    j[d, d] = 1.0
    return j


def minkowski_sq(v: np.ndarray) -> float:
    """tau^2 - |xi|^2 for a spacetime vector."""
    v = np.asarray(v, dtype=float)
    return float(v[-1] ** 2 - np.dot(v[:-1], v[:-1]))


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
    """Map a future timelike point to (0, m), m = sqrt(tau^2 - |xi|^2).

    Returns (L, m) with L.apply(p) = (0, m).  A Householder reflection aligns
    xi with the first axis, then a boost of velocity -|xi|/tau kills it.
    """
    d = params.d
    if p.xi.shape != (d,):
        raise ValueError("point dimension mismatch")
    msq = minkowski_sq(p.vector)
    if p.tau <= 0 or msq <= 0:
        raise ValueError("normal form requires a future timelike point")
    r = float(np.linalg.norm(p.xi))
    m = float(np.sqrt(msq))
    if r == 0.0:
        return LorentzMap(np.eye(d + 1)), m
    v = p.xi / r
    e1 = np.zeros(d)
    e1[0] = 1.0
    w = v - e1
    if np.linalg.norm(w) < 1e-14:
        rot = LorentzMap(np.eye(d + 1))
    else:
        h = np.eye(d) - 2.0 * np.outer(w, w) / np.dot(w, w)
        rot = rotation_embed(h)
    b = boost(d, -r / p.tau)
    return compose(b, rot), m


def _radicand(params: HyperboloidParams, x: np.ndarray, y: np.ndarray) -> float:
    # 2 (s^2 + psi(x) psi(y) - x.y), written as 4 s^2 + nonnegative terms so it
    # can never fall below 4 s^2 through rounding:
    #   psi psi' - (s^2 + AB) = s^2 (A - B)^2 / (psi psi' + s^2 + AB)
    #   AB - x.y >= 0 (Cauchy-Schwarz)
    s = params.s
    a = float(np.linalg.norm(x))
    b = float(np.linalg.norm(y))
    pp = float(energy(params, a) * energy(params, b))
    u = s * s * (a - b) ** 2 / (pp + s * s + a * b)
    v = max(a * b - float(np.dot(x, y)), 0.0)
    return 4.0 * s * s + 2.0 * (u + v)


def quasi_distance(params: HyperboloidParams, x, y) -> float:
    """d_s(x, y) = sqrt(2 (s^2 + psi(x) psi(y) - x.y)) / (2 s) - 1.

    The radicand is (p + q, p + q)_J for p = lift(x), q = lift(y), so for a
    Lorentz map L preserving the upper sheet d_s(L(p).xi, L(q).xi) = d_s(x, y).
    Vanishes iff x = y; symmetric.  The radicand is assembled from nonnegative
    pieces so the result is >= 0 in floating point, not just in exact arithmetic.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (params.d,) or y.shape != (params.d,):
        raise ValueError(f"expected points in R^{params.d}")
    return float(np.sqrt(_radicand(params, x, y)) / (2.0 * params.s) - 1.0)

