"""Geometry invariants: form preservation, normal forms, quasi-distance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperex.geometry import (
    HyperboloidParams,
    LorentzMap,
    SpacetimePoint,
    boost,
    compose,
    energy,
    lift,
    minkowski_matrix,
    minkowski_sq,
    normal_form,
    quasi_distance,
    rotation_embed,
    unit_circle,
)

P2 = HyperboloidParams(d=2, s=1.0)
P3 = HyperboloidParams(d=3, s=1.0)

velocities = st.floats(min_value=-0.95, max_value=0.95)
coords = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


def random_map(d: int, seed: int) -> LorentzMap:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    pieces = [
        boost(d, float(rng.uniform(-0.9, 0.9))),
        rotation_embed(q),
        boost(d, float(rng.uniform(-0.9, 0.9)), axis=d - 1),
    ]
    return compose(*pieces)


def test_params_validation():
    with pytest.raises(ValueError):
        HyperboloidParams(d=4, s=1.0)
    with pytest.raises(ValueError):
        HyperboloidParams(d=2, s=0.0)


@pytest.mark.parametrize("s", [math.inf, math.nan])
def test_params_refuse_non_finite_s(s):
    with pytest.raises(ValueError, match="finite"):
        HyperboloidParams(d=2, s=s)


def test_energy_and_lift():
    assert energy(P2, 0.0) == 1.0
    r = np.array([0.0, 1.0, 2.0])
    assert np.allclose(energy(P2, r), np.sqrt(1.0 + r**2))
    p = lift(P3, [1.0, 2.0, 2.0])
    assert p.tau == pytest.approx(math.sqrt(10.0))
    assert minkowski_sq(p.vector) == pytest.approx(P3.s**2)
    with pytest.raises(ValueError):
        lift(P2, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("x", [[math.inf, 0.0], [0.0, -math.inf], [math.nan, 1.0]])
def test_lift_refuses_non_finite_point(x):
    # Used to return a point with tau = inf or nan.
    with pytest.raises(ValueError, match="finite"):
        lift(P2, x)


def test_boost_worked_example():
    # Velocity 0.6 in d = 2 sends (1, 0, 1) to (2, 0, 2).
    out = boost(2, 0.6).apply(SpacetimePoint([1.0, 0.0], 1.0))
    assert np.allclose(out.vector, [2.0, 0.0, 2.0], atol=1e-14)


def test_boost_rejects_superluminal():
    for t in (1.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            boost(2, t)


def test_rotation_embed_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        rotation_embed(np.array([[1.0, 1.0], [0.0, 1.0]]))


@settings(max_examples=100, deadline=None)
@given(t=velocities, u=velocities, d=st.sampled_from([2, 3]))
def test_boost_composition_preserves_form(t, u, d):
    m = compose(boost(d, t), boost(d, u, axis=d - 1))
    assert m.form_defect() < 1e-11
    inv = compose(m, m.inverse())
    assert np.allclose(inv.matrix, np.eye(d + 1), atol=1e-11)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_random_composites_preserve_minkowski_square(d, seed):
    L = random_map(d, seed)
    assert L.form_defect() < 1e-10
    rng = np.random.default_rng(1000 + seed)
    for _ in range(10):
        v = rng.uniform(-5, 5, size=d + 1)
        assert minkowski_sq(L.matrix @ v) == pytest.approx(
            minkowski_sq(v), rel=1e-9, abs=1e-9
        )


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_normal_form_reaches_axis(d, seed):
    params = HyperboloidParams(d=d, s=1.0)
    rng = np.random.default_rng(seed)
    xi = rng.uniform(-8, 8, size=d)
    tau = float(np.linalg.norm(xi)) * (1.0 + rng.uniform(0.05, 2.0)) + 0.1
    p = SpacetimePoint(xi, tau)
    L, m = normal_form(params, p)
    out = L.apply(p)
    assert m == pytest.approx(math.sqrt(minkowski_sq(p.vector)), rel=1e-13)
    assert np.max(np.abs(out.xi)) < 1e-10 * max(1.0, tau)
    assert out.tau == pytest.approx(m, rel=1e-12)
    # The boost by the point's own four-velocity: symmetric and proper.
    assert np.array_equal(L.matrix, L.matrix.T)
    assert np.linalg.det(L.matrix) == pytest.approx(1.0, abs=1e-12)
    assert L.form_defect() <= 1e-12


def test_normal_form_on_axis_and_domain():
    L, m = normal_form(P2, SpacetimePoint([0.0, 0.0], 3.0))
    assert np.allclose(L.matrix, np.eye(3))
    assert m == 3.0
    with pytest.raises(ValueError):
        normal_form(P2, SpacetimePoint([2.0, 0.0], 1.0))  # spacelike
    with pytest.raises(ValueError):
        normal_form(P2, SpacetimePoint([0.0, 0.0], -3.0))  # past sheet


@settings(max_examples=150, deadline=None)
@given(x0=coords, x1=coords, y0=coords, y1=coords)
def test_quasi_distance_basic_properties(x0, x1, y0, y1):
    x = np.array([x0, x1])
    y = np.array([y0, y1])
    d = quasi_distance(P2, x, y)
    assert d >= 0.0
    assert d == pytest.approx(quasi_distance(P2, y, x), rel=1e-12, abs=1e-12)


def test_quasi_distance_zero_iff_equal():
    x = np.array([3.0, -4.0])
    assert quasi_distance(P2, x, x) == 0.0
    assert quasi_distance(P2, x, x + 1e-4) > 0.0


def test_quasi_distance_scale():
    # d_s depends on points only through the s-scaled geometry: at separation
    # 2 s e1 vs 0, the radicand is 2 (s^2 + s psi(2s)) with psi(2s) = s sqrt 5.
    s = 0.7
    params = HyperboloidParams(d=2, s=s)
    d = quasi_distance(params, [2 * s, 0.0], [0.0, 0.0])
    assert d == pytest.approx(math.sqrt(2 * (1 + math.sqrt(5.0))) / 2 - 1, rel=1e-13)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_quasi_distance_lorentz_invariance(d, seed):
    params = HyperboloidParams(d=d, s=1.3)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-6, 6, size=d)
    y = rng.uniform(-6, 6, size=d)
    base = quasi_distance(params, x, y)
    L = random_map(d, 77 + seed)
    moved = quasi_distance(
        params, L.apply(lift(params, x)).xi, L.apply(lift(params, y)).xi
    )
    assert moved == pytest.approx(base, rel=1e-8, abs=1e-10)


def test_minkowski_matrix_signature():
    j = minkowski_matrix(3)
    assert np.allclose(np.diag(j), [-1, -1, -1, 1])
    assert np.count_nonzero(j - np.diag(np.diag(j))) == 0


def test_unit_circle_is_within_two_ulp_of_libm():
    # Up to 1.3e3: the extension kernels' phases t u and J0's Hankel
    # arguments reach about 1,250.
    rng = np.random.default_rng(0)
    theta = np.concatenate([
        rng.uniform(0.0, 2.0 * np.pi, size=10**6),
        rng.uniform(-1.3e3, 1.3e3, size=10**6),
        [0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi, np.nextafter(2.0 * np.pi, 0.0),
         1.3e3, 399.0 * np.pi],
    ])
    c, s = unit_circle(theta)
    ulp = np.spacing(1.0)
    assert np.max(np.abs(c - np.cos(theta))) <= 2.0 * ulp
    assert np.max(np.abs(s - np.sin(theta))) <= 2.0 * ulp
    assert np.max(np.abs(c * c + s * s - 1.0)) <= 1e-15
