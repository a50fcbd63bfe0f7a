"""Group models: group axioms, exponentials, charts, invariant metrics."""

import numpy as np
import pytest

from finslergeo import geodesic_flow, groups, lie, norms, s_curvature
from finslergeo.errors import ChartDomain, DimensionMismatch, ZeroVector

from group_oracle import dleft, group_product, group_step, hamilton, multiply


def h3():
    return groups.Heisenberg3()


def su2():
    return groups.SU2()


def chart_value(model, norm, x, y):
    """F(x, y) = norm(A(x)·y), the left-invariant metric in the chart."""
    return norm.value(model.body_jacobian(x) @ y)


def random_points(rng, model, count, scale=1.0):
    return rng.standard_normal((count, model.dim)) * scale


def test_group_axioms():
    rng = np.random.RandomState(666)
    for model, scale in ((h3(), 1.5), (su2(), 0.8)):
        e = model.identity()
        for _ in range(100):
            p, q, r = random_points(rng, model, 3, scale)
            assert np.max(np.abs(multiply(model, p, -p) - e)) < 1.0e-12
            assert np.max(np.abs(multiply(model, p, e) - p)) < 1.0e-12
            assert np.max(np.abs(multiply(model, e, p) - p)) < 1.0e-12
            lhs = multiply(model, multiply(model, p, q), r)
            rhs = multiply(model, p, multiply(model, q, r))
            assert np.max(np.abs(lhs - rhs)) < 1.0e-10


def test_exp_map_additivity():
    # the chart is exponential coordinates: exp(sX)·exp(tX) = exp((s+t)X)
    rng = np.random.RandomState(31)
    for model in (h3(), su2()):
        for _ in range(50):
            X = rng.standard_normal(3)
            X /= np.linalg.norm(X)
            s, t = rng.uniform(-1.2, 1.2, size=2)
            lhs = multiply(model, s * X, t * X)
            assert np.max(np.abs(lhs - (s + t) * X)) < 1.0e-10


def test_exp_map_initial_velocity():
    # d/dt exp(tX) = exp(tX)·X, so the chart line tX has body velocity X
    rng = np.random.RandomState(5)
    X = rng.standard_normal(3)
    for model in (h3(), su2()):
        for t in (0.0, 0.7, 2.5):
            assert np.max(np.abs(model.body_jacobian(t * X) @ X - X)) < 1.0e-12
    # the unit quaternion exp(tX) leaves 1 with velocity X/2 in i, j, k
    h = 1.0e-6
    model = su2()
    fd = (model.to_group(h * X) - model.to_group(-h * X)) / (2.0 * h)
    assert np.max(np.abs(fd - np.concatenate([[0.0], 0.5 * X]))) < 1.0e-9


def test_su2_quaternion_scalar_part():
    # exp(tX) for |X| = w has quaternion scalar part cos(w t / 2)
    model = su2()
    X = np.array([0.3, -1.1, 0.7])
    w = np.linalg.norm(X)
    for t in (0.3, 1.0, 2.5):
        q = model.to_group(t * X)
        assert abs(q[0] - np.cos(0.5 * w * t)) < 1.0e-12


def test_su2_multiply_renormalizes_row_by_row():
    # in the oracle's law, a product row is divided by its norm only when
    # it alone leaves the unit sphere, so its bytes are the same alone as
    # next to a row that drifts: the per-row rule that the generated step
    # is held to below
    model = su2()
    rng = np.random.RandomState(81)
    for _ in range(200):
        p = model.to_group(rng.standard_normal((2, 3)))
        q = model.to_group(rng.standard_normal((2, 3)))
        p[1] *= 1.0 + 1.0e-12
        both = group_product(model, p, q)
        for k in range(2):
            assert both[k].tobytes() == group_product(model, p[k], q[k]).tobytes()
        assert abs(np.linalg.norm(both[1]) - 1.0) <= groups._QUAT_DRIFT


def assert_step_matches_the_law(model, step, g, theta, ulps):
    """The generated step g·exp(θ), `step` = group_step(model), within
    `ulps` units in the last place of g's largest coordinate from
    group_product(model, g, model.to_group(θ))."""
    got = np.asarray(step(g, theta))
    want = group_product(model, g, model.to_group(theta))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= ulps * np.spacing(np.max(np.abs(want)))
    return got


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_group_lines_match_the_group_law(dim):
    # one step of each model's generated law against its own numpy law, at
    # θ = 0, |θ| just below 2π, and random θ of three sizes; the vector
    # group and H3 add θ (H3 with its central term), SU(2) multiplies by
    # exp(θ), and H3 and SU(2) exist at dim 3 only
    rng = np.random.RandomState(90 + dim)
    models = [groups.Abelian(dim)] + ([h3(), su2()] if dim == 3 else [])
    for model in models:
        step = group_step(model)
        for scale in (0.0, 1.0e-3, 1.0, 2.0 * np.pi - 1.0e-6):
            for _ in range(50):
                g = model.to_group(rng.standard_normal(dim) * rng.choice([1.0e-2, 1.0, 5.0]))
                theta = rng.standard_normal(dim)
                theta *= scale / np.linalg.norm(theta)
                assert_step_matches_the_law(model, step, g, theta, ulps=4)
        zero = np.zeros(dim)
        g = model.to_group(rng.standard_normal(dim))
        assert np.array_equal(step(g, zero), group_product(model, g, model.to_group(zero)))


def test_su2_group_lines_renormalize_as_multiply_does():
    # a product that leaves the unit sphere by more than the drift bound
    # is divided by its length in both laws; one that stays within it is
    # left as it is
    model = su2()
    step = group_step(model)
    rng = np.random.RandomState(92)
    for drift in (1.0e-12, 1.0e-15):
        for _ in range(50):
            g = model.to_group(rng.standard_normal(3)) * (1.0 + drift)
            theta = rng.standard_normal(3)
            product = hamilton(g, model.to_group(theta))
            renormalized = abs(np.linalg.norm(product) - 1.0) > groups._QUAT_DRIFT
            assert renormalized == (drift > groups._QUAT_DRIFT)
            got = assert_step_matches_the_law(model, step, g, theta, ulps=2)
            if renormalized:
                assert abs(np.linalg.norm(got) - 1.0) <= groups._QUAT_DRIFT


def test_su2_chart_domain():
    model = su2()
    with pytest.raises(ChartDomain):
        model.check_chart(np.array([2.0 * np.pi, 0.0, 0.0]))
    # rotations compose modulo 4π and re-enter the chart when they can;
    # only products landing next to the antipode are rejected
    wrapped = multiply(model, np.array([3.0, 0.0, 0.0]), np.array([6.0, 0.0, 0.0]))
    assert np.linalg.norm(wrapped) < 2.0 * np.pi
    with pytest.raises(ChartDomain):
        multiply(model, np.array([np.pi, 0.0, 0.0]), np.array([np.pi - 0.01, 0.0, 0.0]))


def test_h3_orbit_closed_form():
    model = h3()
    X = np.array([0.4, -0.3, 0.9])
    ts = np.linspace(0.0, 2.0, 9)
    points = groups.orbit_curve(model, X, ts)
    assert np.max(np.abs(points - ts[:, None] * X)) < 1.0e-14
    # through a general point p the orbit p·exp(tX) moves along the
    # left-invariant field of X: its chart velocity is dL_{p·exp(tX)} X
    p = np.array([0.5, 1.0, -0.2])
    h = 1.0e-6
    plus = multiply(model, p, groups.orbit_curve(model, X, ts + h))
    minus = multiply(model, p, groups.orbit_curve(model, X, ts - h))
    fd = (plus - minus) / (2.0 * h)
    expected = dleft(model, multiply(model, p, points), np.tile(X, (len(ts), 1)))
    assert np.max(np.abs(expected - fd)) < 1.0e-8


def test_su2_orbit_matches_quaternion_flow():
    model = su2()
    rng = np.random.RandomState(13)
    X = rng.standard_normal(3)
    X /= np.linalg.norm(X)
    # exp(tX) = cos(t/2) + sin(t/2)·X for unit X, also past the chart edge
    ts = np.linspace(0.0, 8.0, 41)
    q = groups.orbit_curve(model, X, ts)
    closed = np.concatenate(
        [np.cos(0.5 * ts)[:, None], np.sin(0.5 * ts)[:, None] * X], axis=1
    )
    assert np.max(np.abs(q - closed)) < 1.0e-12
    # through p ≠ e inside the chart: the chart velocity of p·exp(tX)
    # has body velocity X
    ts = np.linspace(0.0, 2.0, 21)
    p = rng.standard_normal(3) * 0.4
    h = 1.0e-6
    plus = multiply(model, p, model.to_chart(groups.orbit_curve(model, X, ts + h)))
    minus = multiply(model, p, model.to_chart(groups.orbit_curve(model, X, ts - h)))
    fd = (plus - minus) / (2.0 * h)
    points = multiply(model, p, ts[:, None] * X)
    body = np.einsum("...ij,...j->...i", model.body_jacobian(points), fd)
    assert np.max(np.abs(body - X)) < 1.0e-7


def test_orbit_velocity_at_identity_is_dleft():
    h = 1.0e-6
    for model in (h3(), su2()):
        X = np.array([0.2, 0.5, -0.8])
        ends = model.to_chart(groups.orbit_curve(model, X, np.array([h, -h])))
        velocity = (ends[0] - ends[1]) / (2.0 * h)
        expected = dleft(model, model.identity(), X)
        assert np.max(np.abs(velocity - expected)) < 1.0e-9


def test_orbit_curve_matches_right_exp_steps():
    # exp(tX) by repeated right multiplication g ← g·exp(hX) from e; on SU(2)
    # the orbit runs past the chart edge at |tX| = 2π
    rng = np.random.RandomState(13)
    h, steps = 0.05, 200
    ts = np.arange(steps + 1) * h
    for model in (h3(), su2()):
        X = rng.standard_normal(3)
        X /= np.linalg.norm(X)
        orbit = groups.orbit_curve(model, X, ts)
        g = model.to_group(model.identity())
        worst = np.max(np.abs(orbit[0] - g))
        for k in range(1, steps + 1):
            g = group_product(model, g, model.to_group(h * X))
            worst = max(worst, np.max(np.abs(orbit[k] - g)))
        assert worst < 1.0e-12
    with pytest.raises(ZeroVector):
        groups.orbit_curve(su2(), np.zeros(3), ts)


def test_dleft_matches_group_law_differential():
    rng = np.random.RandomState(99)
    for model, scale in ((h3(), 1.0), (su2(), 0.5)):
        for _ in range(20):
            p = rng.standard_normal(3) * scale
            base = rng.standard_normal(3) * scale
            v = rng.standard_normal(3)
            h = 1.0e-6
            fd = (multiply(model, p, base + h * v) - multiply(model, p, base - h * v)) / (2.0 * h)
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
            fd = (multiply(model, xinv, x + h * v) - multiply(model, xinv, x - h * v)) / (2.0 * h)
            an = model.body_jacobian(x) @ v
            assert np.max(np.abs(fd - an)) < 1.0e-8


def test_chart_metric_left_invariance():
    rng = np.random.RandomState(666)
    norm = norms.RandersNorm(np.diag([1.0, 2.0, 1.5]), np.array([0.3, 0.0, 0.2]))
    for model, scale in ((h3(), 1.2), (su2(), 0.6)):
        worst = 0.0
        for _ in range(1000):
            p = rng.standard_normal(3) * scale
            x = rng.standard_normal(3) * scale
            y = rng.standard_normal(3)
            fx = chart_value(model, norm, x, y)
            moved = chart_value(model, norm, multiply(model, p, x), dleft(model, p, y, x))
            worst = max(worst, abs(moved - fx) / max(1.0, fx))
        assert worst < 1.0e-10


def test_chart_metric_identity_reduces_to_norm():
    norm = norms.RandersNorm(np.eye(3), np.array([0.2, 0.1, 0.0]))
    for model in (h3(), su2()):
        rng = np.random.RandomState(8)
        for _ in range(20):
            y = rng.standard_normal(3)
            assert abs(chart_value(model, norm, model.identity(), y) - norm.value(y)) < 1.0e-14


def test_chart_metric_dim_check():
    # every entry point evaluates the norm at A(x)·y, of the model's dimension
    model, norm = h3(), norms.EuclideanNorm(np.eye(2))
    e, y = model.identity(), np.array([0.5, -0.4, 0.6])
    calls = [
        lambda: geodesic_flow.integrate_geodesic(model, norm, e, y, T=0.01, step=1.0e-3),
        lambda: geodesic_flow.berwald_test(model, norm, e, samples=4),
        lambda: geodesic_flow.is_homogeneous_geodesic(model, norm, y, T=0.01, step=1.0e-3),
        lambda: geodesic_flow.chart_fundamental_tensor(model, norm, e, y),
        lambda: s_curvature.s_curvature(model, norm, e, y),
        lambda: s_curvature.s_along_path(model.algebra, norm, np.zeros(2), np.stack([y, y])),
    ]
    for call in calls:
        with pytest.raises(DimensionMismatch):
            call()


def test_model_by_name():
    assert groups.model_by_name("heisenberg3").name == "heisenberg3"
    assert groups.model_by_name("su2").name == "su2"
    with pytest.raises(ValueError):
        groups.model_by_name("so3")
