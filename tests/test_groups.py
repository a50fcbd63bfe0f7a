"""Group models: group axioms, exponentials, charts, invariant metrics."""

import numpy as np
import pytest

from finslergeo import groups, lie, norms
from finslergeo.errors import ChartDomain, DimensionMismatch

from group_oracle import dleft


def h3():
    return groups.Heisenberg3()


def su2():
    return groups.SU2()


def random_points(rng, model, count, scale=1.0):
    return rng.standard_normal((count, model.dim)) * scale


def test_group_axioms():
    rng = np.random.RandomState(666)
    for model, scale in ((h3(), 1.5), (su2(), 0.8)):
        e = model.identity()
        for _ in range(100):
            p, q, r = random_points(rng, model, 3, scale)
            assert np.max(np.abs(model.multiply(p, -p) - e)) < 1.0e-12
            assert np.max(np.abs(model.multiply(p, e) - p)) < 1.0e-12
            assert np.max(np.abs(model.multiply(e, p) - p)) < 1.0e-12
            lhs = model.multiply(model.multiply(p, q), r)
            rhs = model.multiply(p, model.multiply(q, r))
            assert np.max(np.abs(lhs - rhs)) < 1.0e-10


def test_exp_map_additivity():
    rng = np.random.RandomState(31)
    for model in (h3(), su2()):
        for _ in range(50):
            X = rng.standard_normal(3)
            X /= np.linalg.norm(X)
            s, t = rng.uniform(-1.2, 1.2, size=2)
            lhs = model.exp_map(X, s + t)
            rhs = model.multiply(model.exp_map(X, s), model.exp_map(X, t))
            assert np.max(np.abs(lhs - rhs)) < 1.0e-10


def test_exp_map_initial_velocity():
    h = 1.0e-6
    for model in (h3(), su2()):
        rng = np.random.RandomState(5)
        X = rng.standard_normal(3)
        fd = (model.exp_map(X, h) - model.exp_map(X, -h)) / (2.0 * h)
        assert np.max(np.abs(fd - X)) < 1.0e-9


def test_su2_quaternion_scalar_part():
    # exp(tX) for |X| = w has quaternion scalar part cos(w t / 2)
    model = su2()
    X = np.array([0.3, -1.1, 0.7])
    w = np.linalg.norm(X)
    for t in (0.3, 1.0, 2.5):
        q = model.to_group(model.exp_map(X, t))
        assert abs(q[0] - np.cos(0.5 * w * t)) < 1.0e-12


def test_su2_chart_domain():
    model = su2()
    with pytest.raises(ChartDomain):
        model.check_chart(np.array([2.0 * np.pi, 0.0, 0.0]))
    # rotations compose modulo 4π and re-enter the chart when they can;
    # only products landing next to the antipode are rejected
    wrapped = model.multiply(np.array([3.0, 0.0, 0.0]), np.array([6.0, 0.0, 0.0]))
    assert np.linalg.norm(wrapped) < 2.0 * np.pi
    with pytest.raises(ChartDomain):
        model.multiply(np.array([np.pi, 0.0, 0.0]), np.array([np.pi - 0.01, 0.0, 0.0]))


def test_h3_orbit_closed_form():
    model = h3()
    X = np.array([0.4, -0.3, 0.9])
    ts = np.linspace(0.0, 2.0, 9)
    points, velocities = groups.orbit_curve(model, X, model.identity(), ts)
    assert np.max(np.abs(points - ts[:, None] * X)) < 1.0e-14
    assert np.max(np.abs(velocities - X)) < 1.0e-14
    # through a general point the velocity comes from the group law
    p = np.array([0.5, 1.0, -0.2])
    points, velocities = groups.orbit_curve(model, X, p, ts)
    h = 1.0e-6
    plus, _ = groups.orbit_curve(model, X, p, ts + h)
    minus, _ = groups.orbit_curve(model, X, p, ts - h)
    fd = (plus - minus) / (2.0 * h)
    assert np.max(np.abs(velocities - fd)) < 1.0e-8


def test_su2_orbit_matches_quaternion_flow():
    model = su2()
    rng = np.random.RandomState(13)
    X = rng.standard_normal(3)
    X /= np.linalg.norm(X)
    ts = np.linspace(0.0, 2.0, 21)
    points, velocities = groups.orbit_curve(model, X, model.identity(), ts)
    assert np.max(np.abs(points - ts[:, None] * X)) < 1.0e-12
    assert np.max(np.abs(velocities - X)) < 1.0e-12
    p = rng.standard_normal(3) * 0.4
    points, velocities = groups.orbit_curve(model, X, p, ts)
    h = 1.0e-6
    plus, _ = groups.orbit_curve(model, X, p, ts + h)
    minus, _ = groups.orbit_curve(model, X, p, ts - h)
    fd = (plus - minus) / (2.0 * h)
    assert np.max(np.abs(velocities - fd)) < 1.0e-7


def test_orbit_velocity_at_identity_is_dleft():
    for model in (h3(), su2()):
        X = np.array([0.2, 0.5, -0.8])
        points, velocities = groups.orbit_curve(model, X, model.identity(), np.array([0.0]))
        expected = dleft(model, model.identity(), X)
        assert np.max(np.abs(velocities[0] - expected)) < 1.0e-12


def test_dleft_matches_group_law_differential():
    rng = np.random.RandomState(99)
    for model, scale in ((h3(), 1.0), (su2(), 0.5)):
        for _ in range(20):
            p = rng.standard_normal(3) * scale
            base = rng.standard_normal(3) * scale
            v = rng.standard_normal(3)
            h = 1.0e-6
            fd = (model.multiply(p, base + h * v) - model.multiply(p, base - h * v)) / (2.0 * h)
            an = dleft(model, p, v, base)
            assert np.max(np.abs(fd - an)) < 1.0e-8


def test_body_jacobian_left_trivialization():
    # A(x)·(chart velocity of a curve) equals the algebra-valued body
    # velocity: check d/dt log(x^{-1}·c(t)) at c(0) = x against A(x)·ċ
    rng = np.random.RandomState(2)
    for model, scale in ((h3(), 1.0), (su2(), 0.6)):
        for _ in range(20):
            x = rng.standard_normal(3) * scale
            v = rng.standard_normal(3)
            h = 1.0e-6
            xinv = -x  # exponential coordinates
            fd = (model.multiply(xinv, x + h * v) - model.multiply(xinv, x - h * v)) / (2.0 * h)
            an = model.body_jacobian(x) @ v
            assert np.max(np.abs(fd - an)) < 1.0e-8


def test_chart_metric_left_invariance():
    rng = np.random.RandomState(666)
    norm = norms.make_randers(np.diag([1.0, 2.0, 1.5]), np.array([0.3, 0.0, 0.2]))
    for model, scale in ((h3(), 1.2), (su2(), 0.6)):
        cm = groups.induced_chart_metric(model, norm)
        worst = 0.0
        for _ in range(1000):
            p = rng.standard_normal(3) * scale
            x = rng.standard_normal(3) * scale
            y = rng.standard_normal(3)
            fx = cm.value(x, y)
            moved = cm.value(model.multiply(p, x), dleft(model, p, y, x))
            worst = max(worst, abs(moved - fx) / max(1.0, fx))
        assert worst < 1.0e-10


def test_chart_metric_identity_reduces_to_norm():
    norm = norms.make_randers(np.eye(3), np.array([0.2, 0.1, 0.0]))
    for model in (h3(), su2()):
        cm = groups.induced_chart_metric(model, norm)
        rng = np.random.RandomState(8)
        for _ in range(20):
            y = rng.standard_normal(3)
            assert abs(cm.value(model.identity(), y) - norm.value(y)) < 1.0e-14


def test_chart_metric_dim_check():
    with pytest.raises(DimensionMismatch):
        groups.induced_chart_metric(h3(), norms.EuclideanNorm(np.eye(2)))


def test_model_by_name():
    assert groups.model_by_name("heisenberg3").name == "heisenberg3"
    assert groups.model_by_name("su2").name == "su2"
    with pytest.raises(ValueError):
        groups.model_by_name("so3")
