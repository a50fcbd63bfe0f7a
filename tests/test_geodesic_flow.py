"""Chart tensors, spray oracle checks, flow integration, Berwald verdicts."""

import ast
import math
import traceback

import numpy as np
import pytest

from finslergeo import geodesic_flow as gf
from finslergeo import cli, geodesic_vectors, groups, lie, norms, scenario
from finslergeo.errors import ChartDomain, StepRejected, ZeroVector

import chart_spray
from group_oracle import (
    float_step_path,
    group_product,
    h3_body_momentum,
    legendre_dual,
    multiply,
    sequential_path,
    su2_euler_top,
)
from randers_oracle import navigation_randers

# the tolerances the check-homogeneous and berwald tasks judge by
HOMOGENEOUS_TOL = scenario.TASKS["check-homogeneous"].params["tol"].default
BERWALD_TOL = scenario.TASKS["berwald"].params["tol"].default


def h3_euclid():
    return groups.Heisenberg3(), norms.EuclideanNorm(np.eye(3))


def h3_randers(b):
    return groups.Heisenberg3(), norms.RandersNorm(np.eye(3), np.asarray(b))


def su2_euclid():
    return groups.SU2(), norms.EuclideanNorm(np.eye(3))


def h3_metric_data(x):
    """Hand-coded pullback metric of H3 and its exact x-derivatives."""
    a = x[1] / 2.0
    b = -x[0] / 2.0
    g = np.array([[1.0 + a * a, a * b, a], [a * b, 1.0 + b * b, b], [a, b, 1.0]])
    dg = np.zeros((3, 3, 3))
    da, db = 0.5, -0.5
    dg[0] = np.array([[0.0, a * db, 0.0], [a * db, 2.0 * b * db, db], [0.0, db, 0.0]])
    dg[1] = np.array([[2.0 * a * da, b * da, da], [b * da, 0.0, 0.0], [da, 0.0, 0.0]])
    return g, dg


def test_chart_tensor_at_identity_is_norm_tensor():
    for model, norm in (h3_randers([0.3, 0.0, 0.1]), su2_euclid()):
        y = np.array([0.7, -0.4, 1.1])
        g = gf.chart_fundamental_tensor(model, norm, np.zeros(3), y)
        assert np.max(np.abs(g - norm.fundamental_matrix(y))) < 1.0e-13


def test_chart_tensor_flat_model_constant():
    a = np.diag([2.0, 1.0, 0.5])
    metric = (groups.Abelian(3), norms.EuclideanNorm(a))
    rng = np.random.RandomState(4)
    for _ in range(20):
        x = rng.standard_normal(3) * 3.0
        y = rng.standard_normal(3)
        assert np.max(np.abs(gf.chart_fundamental_tensor(*metric, x, y) - a)) == 0.0


def test_chart_tensor_matches_group_law_pullback():
    # Jacobian of q -> x^{-1}·q computed from the group law alone
    model, norm = h3_euclid()
    rng = np.random.RandomState(11)
    h = 1.0e-5
    for _ in range(25):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        xinv = -x  # exponential coordinates
        jac = np.empty((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            jac[:, j] = (multiply(model, xinv, x + e) - multiply(model, xinv, x - e)) / (2.0 * h)
        oracle = jac.T @ np.eye(3) @ jac
        g = gf.chart_fundamental_tensor(model, norm, x, y)
        assert np.max(np.abs(g - oracle)) < 1.0e-8


def test_chart_tensor_generic_route_matches():
    rng = np.random.RandomState(2)
    metric = h3_randers([0.2, -0.1, 0.3])
    xs = rng.standard_normal((40, 3))
    ys = rng.standard_normal((40, 3))
    fast = gf.chart_fundamental_tensor(*metric, xs, ys)
    generic = chart_spray.jet_chart_tensor(*metric, xs, ys)
    assert np.max(np.abs(fast - generic)) < 1.0e-11
    metric = su2_euclid()
    xs = rng.standard_normal((40, 3)) * 0.5
    ys = rng.standard_normal((40, 3))
    fast = gf.chart_fundamental_tensor(*metric, xs, ys)
    generic = chart_spray.jet_chart_tensor(*metric, xs, ys)
    assert np.max(np.abs(fast - generic)) < 1.0e-11


def test_chart_tensor_reproduces_f_squared():
    rng = np.random.RandomState(9)
    model, norm = h3_randers([0.0, 0.25, 0.2])
    for _ in range(50):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        g = gf.chart_fundamental_tensor(model, norm, x, y)
        assert abs(y @ g @ y - norm.value(model.body_jacobian(x) @ y) ** 2) < 1.0e-10


def test_zero_tangent_raises():
    metric = h3_euclid()
    with pytest.raises(ZeroVector):
        gf.chart_fundamental_tensor(*metric, np.zeros(3), np.zeros(3))
    with pytest.raises(ZeroVector):
        chart_spray.spray_coefficients(*metric, np.zeros(3), np.zeros(3))
    with pytest.raises(ZeroVector):
        gf.integrate_geodesic(*metric, np.zeros(3), np.zeros(3), T=0.1, step=0.01)


def test_spray_vanishes_on_flat_model():
    metric = (groups.Abelian(3), norms.RandersNorm(np.eye(3), [0.4, 0.0, 0.0]))
    rng = np.random.RandomState(5)
    for _ in range(10):
        ev = chart_spray.spray_coefficients(*metric, rng.standard_normal(3), rng.standard_normal(3))
        assert np.max(np.abs(ev.G)) < 1.0e-12


def test_spray_homogeneity_degree_two():
    metric = h3_randers([0.3, 0.1, 0.0])
    rng = np.random.RandomState(8)
    xs = rng.standard_normal((1000, 3))
    ys = rng.standard_normal((1000, 3))
    lam = rng.uniform(0.2, 5.0, size=1000)
    base, _ = chart_spray._spray_raw(*metric, xs, ys)
    scaled, _ = chart_spray._spray_raw(*metric, xs, lam[:, None] * ys)
    expected = lam[:, None] ** 2 * base
    denom = np.maximum(1.0, np.abs(expected))
    assert np.max(np.abs(scaled - expected) / denom) < 1.0e-8


def test_spray_matches_christoffel_oracle():
    metric = h3_euclid()
    rng = np.random.RandomState(3)
    for _ in range(50):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        g, dg = h3_metric_data(x)
        gamma_low = 0.5 * (
            np.einsum("skl->lsk", dg) + np.einsum("ksl->lsk", dg) - np.einsum("lsk->lsk", dg)
        )
        oracle = 0.5 * np.linalg.solve(g, np.einsum("lsk,s,k->l", gamma_low, y, y))
        ev = chart_spray.spray_coefficients(*metric, x, y)
        assert np.max(np.abs(ev.G - oracle)) < 1.0e-9
        assert np.max(np.abs(ev.g_matrix - g)) < 1.0e-12
        assert np.max(np.abs(ev.g_inverse @ g - np.eye(3))) < 1.0e-12


def test_integrate_flat_model_straight_line():
    model = groups.Abelian(3)
    x0 = np.array([1.0, -2.0, 0.5])
    y0 = np.array([0.3, 0.7, -0.2])
    path = gf.integrate_geodesic(model, norms.RandersNorm(np.eye(3), [0.2, 0.1, 0.0]), x0, y0, T=1.0, step=0.01)
    points, velocities = gf.chart_coordinates(model, path, x0, y0)
    expected = x0 + path.ts[:, None] * y0
    assert np.max(np.abs(points - expected)) < 1.0e-10
    assert np.max(np.abs(velocities - y0)) < 1.0e-12
    drift = np.max(np.abs(path.F_values - path.F_values[0])) / path.F_values[0]
    assert drift < 1.0e-12


def test_first_integral_along_curved_paths():
    rng = np.random.RandomState(21)
    for metric in (h3_randers([0.2, 0.0, 0.1]), su2_euclid()):
        y0 = rng.standard_normal(3)
        path = gf.integrate_geodesic(*metric, np.zeros(3), y0, T=0.4, step=2.0e-3)
        drift = np.max(np.abs(path.F_values - path.F_values[0])) / path.F_values[0]
        assert drift < 1.0e-6


def test_rk4_error_shrinks_like_fourth_order():
    metric = h3_euclid()
    x0 = np.zeros(3)
    y0 = np.array([1.0, 0.3, 1.0])
    ref = gf.integrate_geodesic(*metric, x0, y0, T=0.2, step=0.00125).points[-1]
    errors = []
    for step in (0.02, 0.01, 0.005):
        end = gf.integrate_geodesic(*metric, x0, y0, T=0.2, step=step).points[-1]
        errors.append(np.max(np.abs(end - ref)))
    assert 8.0 < errors[0] / errors[1] < 40.0
    assert 8.0 < errors[1] / errors[2] < 40.0


def test_step_rejection_on_coarse_steps():
    metric = h3_randers([0.6, 0.0, 0.0])
    with pytest.raises(StepRejected):
        gf.integrate_geodesic(*metric, np.zeros(3), np.array([8.0, -8.0, 8.0]), T=3.0, step=0.5)


def test_chart_checked_at_start_only():
    # x0 must lie in the chart; the path may cross the guard band and the
    # antipode, and still follows exp(x0 + t·e1) on the group
    model, norm = su2_euclid()
    e1 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ChartDomain):
        gf.integrate_geodesic(model, norm, (2.0 * np.pi - 0.03) * e1, e1, T=0.1, step=1.0e-3)
    # samples sit 5e-4 off the antipode at t = 0.0705
    x0 = (2.0 * np.pi - 0.0705) * e1
    path = gf.integrate_geodesic(model, norm, x0, e1, T=0.1, step=1.0e-3)
    points, _ = gf.chart_coordinates(model, path, x0, e1)
    radii = np.linalg.norm(points, axis=-1)
    assert radii.max() > 2.0 * np.pi - 0.01
    exact = model.to_group(x0 + path.ts[:, None] * e1)
    assert np.max(np.abs(model.to_group(points) - exact)) <= 1.0e-12


def test_biinvariant_su2_orbit_closes_at_4pi():
    # bi-invariant geodesics are one-parameter subgroups, and exp(4πX) = e
    # for a unit X; an odd step count keeps every sample off the antipode
    model, norm = su2_euclid()
    rng = np.random.RandomState(31)
    y0 = rng.standard_normal(3)
    y0 /= np.linalg.norm(y0)
    path = gf.integrate_geodesic(model, norm, np.zeros(3), y0, T=4.0 * np.pi, step=4.0 * np.pi / 1001)
    assert len(path.ts) == 1002
    points, velocities = gf.chart_coordinates(model, path, np.zeros(3), y0)
    assert np.max(np.abs(points[-1])) <= 1.0e-10
    assert np.max(np.abs(velocities[-1] - y0)) <= 1.0e-10


def test_group_reconstruction_fourth_order():
    # a step/8 reference on SU(2) Randers, where u varies and brackets matter
    a = np.diag([1.0, 2.0, 3.0])
    metric = (groups.SU2(), norms.RandersNorm(a, np.array([0.3, -0.4, 0.5])))
    x0 = np.array([0.4, -0.7, 0.3])
    y0 = np.array([-0.6, 0.4, 0.7])
    coarse = 0.1
    ref = gf.integrate_geodesic(*metric, x0, y0, T=1.0, step=coarse / 8.0).points
    errors = []
    for k in (8, 4, 2):
        points = gf.integrate_geodesic(*metric, x0, y0, T=1.0, step=k * coarse / 8.0).points
        errors.append(np.max(np.abs(points - ref[::k])))
    assert errors[0] / errors[1] >= 12.0
    assert errors[1] / errors[2] >= 12.0


def test_prefix_product_matches_sequential_steps():
    # the flow carries g step by step with the group law written out on
    # floats, compensated on H3; the oracle multiplies each increment onto
    # g with the model's numpy law as soon as its step is taken
    a = np.diag([1.0, 2.0, 3.0])
    rng = np.random.RandomState(41)
    x0 = 0.5 * rng.standard_normal((5, 3))
    y0 = rng.standard_normal((5, 3))
    step = 4.0e-3
    for model in (groups.Heisenberg3(), groups.SU2()):
        for norm in (norms.EuclideanNorm(a), norms.RandersNorm(a, np.array([0.3, -0.4, 0.5]))):
            for nsteps in (1, 2, 3, 7, 64, 250):
                for start, velocity in zip(x0, y0):
                    path = gf.integrate_geodesic(model, norm, start, velocity, T=nsteps * step, step=step)
                    elements, body = sequential_path(model, norm, start, velocity, T=nsteps * step, step=step)
                    assert path.points.shape == elements.shape
                    assert np.max(np.abs(path.points - elements)) <= 1.0e-13
                    assert np.max(np.abs(path.body - body)) <= 1.0e-14
                    if isinstance(model, groups.SU2):
                        lengths = np.linalg.norm(path.points, axis=-1)
                        assert np.max(np.abs(lengths - 1.0)) <= 1.0e-13


def test_compensated_sum_keeps_the_bundled_h3_orbit():
    # the bundled 2000-step H3 orbit check: on H3 g is a running sum of
    # the step increments, and a compensated sum keeps it within an ulp of
    # exp(tX) = tX, as the log-depth product it replaced did; a plain sum
    # drifts to about 1e-13
    path = next(p for p in scenario.bundled_scenarios() if p.endswith("h3_euclidean_homogeneous.json"))
    report = cli.run_scenario(scenario.parse_scenario(path))
    assert report.payload["sup_distance"] <= 2.2e-16


@pytest.mark.parametrize("dim", [2, 4])
def test_abelian_prefix_product_is_the_straight_line(dim):
    # an abelian algebra has no nonzero structure constant: ad* is 0, so μ
    # never moves, every stage velocity is the dual of the start μ, and the
    # path is x0 + t·u; the sequential oracle gives the same path
    rng = np.random.RandomState(43 + dim)
    model = groups.Abelian(dim)
    a = np.diag(np.arange(1.0, dim + 1.0))
    x0 = rng.standard_normal((3, dim))
    y0 = rng.standard_normal((3, dim))
    step, nsteps = 1.0e-2, 100
    for norm in (norms.EuclideanNorm(a), norms.RandersNorm(a, 0.4 * rng.standard_normal(dim) / dim)):
        dual = legendre_dual(norm)
        for start, velocity in zip(x0, y0):
            path = gf.integrate_geodesic(model, norm, start, velocity, T=nsteps * step, step=step)
            elements, body = sequential_path(model, norm, start, velocity, T=nsteps * step, step=step)
            assert np.max(np.abs(path.points - elements)) <= 1.0e-13
            assert np.max(np.abs(path.body - body)) <= 1.0e-14
            u = dual(norm.legendre(velocity))
            assert np.max(np.abs(np.asarray(u) - velocity)) <= 1.0e-14 * np.max(np.abs(velocity))
            assert all(path.body[i].tolist() == u for i in range(1, nsteps + 1))
            straight = start + path.ts[:, None] * np.asarray(u)
            assert np.max(np.abs(path.points - straight)) <= 1.0e-13


def test_zermelo_navigation_paths_are_exact():
    # Zermelo navigation on (h, W) with W a Killing field of h: the
    # F-geodesics are φ_t(ρ(t)), with ρ a unit-speed h-geodesic and φ_t the
    # flow of W (Robles, Trans. AMS 359, 2007).  On SU(2) with h = I, which
    # is bi-invariant, the left-invariant W flows by g ↦ g·exp(tW), an
    # isometry, and ρ(t) = exp(tZ): the path from e with y0 = Z + W is
    # exp(tZ)·exp(tW), which is no one-parameter subgroup when [Z, W] ≠ 0
    model = groups.SU2()
    rng = np.random.RandomState(17)
    T = 3.0
    departure = 0.0
    for _ in range(20):
        Z = rng.standard_normal(3)
        Z /= np.linalg.norm(Z)
        W = rng.standard_normal(3)
        W *= rng.uniform(0.1, 0.8) / np.linalg.norm(W)
        norm = norms.RandersNorm(*navigation_randers(np.eye(3), W))
        assert abs(norm.value(Z + W) - 1.0) <= 1.0e-15
        errors = []
        for step in (2.0e-2, 1.0e-2):
            path = gf.integrate_geodesic(model, norm, np.zeros(3), Z + W, T=T, step=step)
            ts = path.ts[:, None]
            exact = group_product(model, model.to_group(ts * Z), model.to_group(ts * W))
            errors.append(np.max(np.abs(path.points - exact)))
        assert errors[1] <= 1.0e-9
        assert 12.0 <= errors[0] / errors[1] <= 20.0
        departure = max(departure, np.max(np.abs(exact - groups.orbit_curve(model, Z + W, path.ts))))
    assert departure > 0.1


def test_zermelo_navigation_on_h3_is_exact():
    # On H3 a central W = c·e3 is a Killing field of every left-invariant
    # h: its flow g ↦ g·exp(tW) = exp(tW)·g is a left translation.  So the
    # F-geodesic from e with velocity Z + W, |Z|_h = 1, is ρ(t)·exp(tW),
    # with ρ the h-geodesic from e with velocity Z, here integrated at a
    # step 8 times finer.  Z is no geodesic vector of h, so the path is
    # no orbit
    model = groups.Heisenberg3()
    dec = lie.ReductiveDecomposition(model.algebra, (0, 1, 2))
    rng = np.random.RandomState(5)
    T, fine = 3.0, 1.25e-3
    departure = 0.0
    for _ in range(5):
        m = rng.standard_normal((3, 3))
        h = m @ m.T + np.eye(3)
        Z = rng.standard_normal(3)
        Z /= np.sqrt(Z @ h @ Z)
        assert np.linalg.norm(geodesic_vectors.residual_batch(dec, norms.EuclideanNorm(h), Z)) > 0.1
        W = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.8) / np.sqrt(h[2, 2]) * np.eye(3)[2]
        norm = norms.RandersNorm(*navigation_randers(h, W))
        assert abs(norm.value(Z + W) - 1.0) <= 1.0e-15
        rho = gf.integrate_geodesic(model, norms.EuclideanNorm(h), np.zeros(3), Z, T=T, step=fine)
        errors = []
        for step in (2.0e-2, 1.0e-2):
            path = gf.integrate_geodesic(model, norm, np.zeros(3), Z + W, T=T, step=step)
            exact = group_product(model, rho.points[:: int(round(step / fine))], model.to_group(path.ts[:, None] * W))
            errors.append(np.max(np.abs(path.points - exact)))
        assert errors[1] <= 1.0e-9
        assert 12.0 <= errors[0] / errors[1] <= 20.0
        departure = max(departure, np.max(np.abs(exact - groups.orbit_curve(model, Z + W, path.ts))))
    assert departure > 0.1


def test_h3_body_path_matches_the_exact_flow():
    # the RK4 body path against the closed-form Lie–Poisson flow of a
    # Euclidean metric on H3, u(t) = a⁻¹μ(t), at every step; the error
    # ratio between h = 2e-2 and 1e-2 is 2⁴ for a 4th-order method
    model = groups.Heisenberg3()
    rng = np.random.RandomState(9)
    for _ in range(5):
        m = rng.standard_normal((3, 3))
        a = m @ m.T + np.eye(3)
        y0 = rng.standard_normal(3)
        norm = norms.EuclideanNorm(a)
        errors = []
        for step in (2.0e-2, 1.0e-2):
            path = gf.integrate_geodesic(model, norm, np.zeros(3), y0, T=3.0, step=step)
            exact = np.linalg.solve(a, h3_body_momentum(a, a @ y0, path.ts).T).T
            errors.append(np.max(np.abs(path.body - exact)))
        assert errors[1] <= 1.0e-6
        assert 14.0 <= errors[0] / errors[1] <= 18.0


def test_su2_body_path_matches_the_euler_top():
    # the RK4 body path against the Euler top, the closed-form Lie–Poisson
    # flow of a diagonal Euclidean metric on SU(2), at every step; the
    # error ratio between h = 2e-2 and 1e-2 is 2⁴ for a 4th-order method
    model = groups.SU2()
    rng = np.random.RandomState(1)
    # cases per regime: M² > 2E·I₂ (dn on u₃) and M² < 2E·I₂ (dn on u₁)
    cases = {True: 0, False: 0}
    while min(cases.values()) < 3:
        inertia = np.sort(rng.uniform(0.5, 3.0, 3))
        u0 = np.array([rng.standard_normal(), 0.0, rng.standard_normal()])
        mu0 = inertia * u0
        cases[bool(mu0 @ mu0 > (u0 @ mu0) * inertia[1])] += 1
        norm = norms.EuclideanNorm(np.diag(inertia))
        errors = []
        for step in (2.0e-2, 1.0e-2):
            path = gf.integrate_geodesic(model, norm, np.zeros(3), u0, T=3.0, step=step)
            errors.append(np.max(np.abs(path.body - su2_euler_top(inertia, u0, path.ts))))
        assert errors[1] <= 1.0e-6
        assert 14.0 <= errors[0] / errors[1] <= 18.0


class Hooked:
    """A closed-form norm whose dual lines end with one more line, which
    passes the dual's n floats through hook(u0, …, u{n−1}), bound as one
    more constant, and takes back what it returns: one call per dual
    evaluation, four a step in the flow's loop."""

    def __init__(self, *data, hook):
        super().__init__(*data)
        self.dual_constants += (hook,)

    @classmethod
    def dual_lines(cls, n, mu, u):
        names, lines = super().dual_lines(n, mu, u)
        floats = ", ".join(f"{u}{j}" for j in range(n))
        return names + ["hook"], lines + [f"{floats}, = hook({floats})"]


class HookedEuclidean(Hooked, norms.EuclideanNorm):
    pass


class HookedRanders(Hooked, norms.RandersNorm):
    pass


def breaking_after(k):
    """A dual hook that returns nan from its (k+1)-th call on."""
    calls = 0

    def hook(*u):
        nonlocal calls
        calls += 1
        if calls > k:
            return [np.nan] * len(u)
        return u

    return hook


def test_non_finite_dual_is_rejected():
    # nan fails every comparison, so the drift check must reject it rather
    # than let it pass; 100 steps make 400 dual evaluations, and k = 399
    # breaks only the last sample
    model = groups.SU2()
    for k in (0, 1, 42, 399):
        norm = HookedEuclidean(np.eye(3), hook=breaking_after(k))
        with pytest.raises(StepRejected):
            gf.integrate_geodesic(model, norm, np.zeros(3), np.array([0.6, -0.3, 0.5]), T=0.1, step=1.0e-3)
    norm = HookedEuclidean(np.eye(3), hook=breaking_after(400))
    path = gf.integrate_geodesic(model, norm, np.zeros(3), np.array([0.6, -0.3, 0.5]), T=0.1, step=1.0e-3)
    assert np.isfinite(path.points).all()


def bundled_with_hook(monkeypatch, hook):
    """The bundled SU(2) integrate scenario, whose Euclidean norm is parsed
    as a HookedEuclidean with `hook`."""
    monkeypatch.setattr(norms, "EuclideanNorm", lambda a: HookedEuclidean(a, hook=hook))
    return next(p for p in scenario.bundled_scenarios() if p.endswith("su2_biinvariant_integrate.json"))


def test_non_finite_dual_exits_one(monkeypatch, capsys):
    path = bundled_with_hook(monkeypatch, breaking_after(42))
    assert cli.main(["--scenario", path]) == 1
    assert "StepRejected" in capsys.readouterr().err


def failing_after(k, failure):
    """A dual hook whose (k+1)-th call on meets `failure`: a float division
    by zero, the square root of a negative, or an overflow to inf, each as
    Python float arithmetic gives it."""
    calls = 0

    def hook(*u):
        nonlocal calls
        calls += 1
        if calls > k:
            if failure == "divide":
                return [x / 0.0 for x in u]
            if failure == "sqrt":
                return [math.sqrt(-1.0 - abs(x)) for x in u]
            return [x * 1.0e308 * 1.0e308 for x in u]
        return u

    return hook


@pytest.mark.parametrize("failure", ["divide", "sqrt", "overflow"])
def test_float_arithmetic_failure_is_rejected(monkeypatch, capsys, failure):
    # where numpy gave inf or nan, Python floats raise ZeroDivisionError or
    # a math-domain ValueError; both end as the drift check's rejection,
    # and an overflow to inf reaches the drift check itself, or the cosine
    # of SU(2)'s exponential, whose ValueError ends the same way
    model = groups.SU2()
    for k in (0, 1, 42, 399):
        norm = HookedEuclidean(np.eye(3), hook=failing_after(k, failure))
        with pytest.raises(StepRejected, match="drifted more than"):
            gf.integrate_geodesic(model, norm, np.zeros(3), np.array([0.6, -0.3, 0.5]), T=0.1, step=1.0e-3)
    path = bundled_with_hook(monkeypatch, failing_after(42, failure))
    assert cli.main(["--scenario", path]) == 1
    assert "StepRejected" in capsys.readouterr().err


def test_value_error_in_the_loop_is_rejected_whatever_its_text():
    # μ is unpacked before the loop, so a ValueError inside it is the square
    # root's or the cosine's, and maps to StepRejected without reading its
    # text, which differs between Python versions
    def hook(*u):
        raise ValueError("expected a nonnegative input")

    norm = HookedEuclidean(np.eye(3), hook=hook)
    with pytest.raises(StepRejected, match="drifted more than") as raised:
        gf.integrate_geodesic(groups.SU2(), norm, np.zeros(3), np.array([0.6, -0.3, 0.5]), T=0.1, step=1.0e-3)
    assert isinstance(raised.value.__cause__, ValueError)


def test_shape_error_of_the_dual_is_not_a_rejection(monkeypatch):
    # only the two float-arithmetic errors of the loop map to StepRejected:
    # a start covector that is a batch unpacks into the wrong number of
    # floats, and the loop's call raises its TypeError before any step
    legendre = norms.EuclideanNorm.legendre
    monkeypatch.setattr(norms.EuclideanNorm, "legendre", lambda self, y: np.stack([legendre(self, y)] * 2))
    with pytest.raises(TypeError, match="step_path"):
        gf.integrate_geodesic(*su2_euclid(), np.zeros(3), np.array([0.6, -0.3, 0.5]), T=0.1, step=1.0e-3)


def test_step_loop_matches_the_float_oracle_bit_for_bit():
    # the generated loop against the plain loop of add_coadjoint and
    # calls of the compiled dual lines on lists of floats: body
    # velocities, on algebras with 2, 6, 12 and no ad* terms, Euclidean norms with
    # a diagonal and a full a, and Randers norms; a start along an axis
    # makes ±0.0 products, which both must round the same way.  The
    # group columns ride along: h3 and su(2) step on their own groups,
    # and the others on the vector group, whose additive law the body
    # velocities never read
    rng = np.random.RandomState(61)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    u2 = np.zeros((4, 4, 4))
    u2[:3, :3, :3] = lie.su2().c
    algebras = [
        (groups.Heisenberg3(), lie.heisenberg3().c),
        (groups.SU2(), lie.su2().c),
        (groups.Abelian(3), np.einsum("pi,qj,pqr,rk->ijk", q, q, lie.su2().c, q)),
        (groups.Abelian(4), u2),
        (groups.Abelian(2), np.zeros((2, 2, 2))),
        (groups.Abelian(4), np.zeros((4, 4, 4))),
    ]
    for model, c in algebras:
        n = len(c)
        terms = lie.terms(c)
        m = rng.standard_normal((n, n))
        a = m @ m.T + np.eye(n)
        cases = [
            norms.EuclideanNorm(np.diag(np.arange(1.0, n + 1.0))),
            norms.EuclideanNorm(a),
            norms.RandersNorm(a, 0.3 * rng.standard_normal(n) / n),
            norms.RandersNorm(np.diag(np.arange(1.0, n + 1.0)), 0.4 * np.eye(n)[n - 1]),
        ]
        for norm in cases:
            for start in (rng.standard_normal(n), np.eye(n)[0], -0.5 * np.eye(n)[n - 1]):
                g0 = model.to_group(rng.standard_normal(n))
                rows = gf._step_path(model, terms, norm, g0, start, 150, 1.0e-2)
                assert rows.shape == (151, n + len(g0))
                assert rows[0].tolist() == start.tolist() + g0.tolist()
                got = rows[:, :n]
                want = float_step_path(terms, norm, start, 150, 1.0e-2)
                assert np.array_equal(got, want)
                # bytes, so that a zero's sign counts too
                assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def test_step_loop_compiled_once_per_pattern_and_norm_class():
    # timer-free cost guard: the loop is compiled once per norm class,
    # group model class, dimension and ad* pattern, so two Randers norms
    # with different data on SU(2), and paths of two lengths, share one
    # compiled loop, and a model class of its own on the same algebra gets
    # its own; its text holds indices only, and no float literal
    gf._kernel.cache_clear()
    model = groups.SU2()
    first = norms.RandersNorm(np.diag([1.0, 2.0, 3.0]), np.array([0.3, 0.0, 0.2]))
    second = norms.RandersNorm(np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.1], [0.0, 0.1, 1.5]]), np.array([-0.1, 0.4, 0.2]))
    for norm in (first, second):
        for T in (0.05, 0.5):
            gf.integrate_geodesic(model, norm, np.zeros(3), np.array([0.5, -0.4, 0.6]), T=T, step=1.0e-3)
    info = gf._kernel.cache_info()
    assert (info.misses, info.currsize, info.hits) == (1, 1, 3)
    gf.integrate_geodesic(model, norms.EuclideanNorm(np.eye(3)), np.zeros(3), np.array([0.5, -0.4, 0.6]), T=0.05, step=1.0e-3)
    gf.integrate_geodesic(groups.Heisenberg3(), first, np.zeros(3), np.array([0.5, -0.4, 0.6]), T=0.05, step=1.0e-3)
    assert gf._kernel.cache_info().currsize == 3

    class Quaternions(groups.SU2):
        pass

    gf.integrate_geodesic(Quaternions(), first, np.zeros(3), np.array([0.5, -0.4, 0.6]), T=0.05, step=1.0e-3)
    assert gf._kernel.cache_info().currsize == 4

    def float_literals(lines):
        tree = ast.parse("\n".join(lines))
        return [node for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, float)]

    models = (
        (groups.SU2, lie.su2().c),
        (groups.Heisenberg3, lie.heisenberg3().c),
        (groups.Abelian, np.zeros((4, 4, 4))),
    )
    for model_kind, c in models:
        g, names, start, lines = model_kind.group_lines(len(c), "theta")
        assert not float_literals(start + lines)
    for kind in (norms.EuclideanNorm, norms.RandersNorm):
        assert not float_literals(kind.dual_lines(3, "mu", "u")[1])
        for model_kind, c in models:
            pattern = tuple(term[:3] for term in lie.terms(c))
            assert not float_literals(gf._kernel_lines(kind, model_kind, len(c), pattern))


def test_step_loop_tracebacks_name_the_generated_code():
    # the generated loop has a filename of its own, and its text is
    # registered with linecache, so a traceback quotes the failing line
    gf._kernel.cache_clear()
    norm = HookedRanders(np.eye(3), np.array([0.3, 0.0, 0.2]), hook=failing_after(0, "divide"))
    with pytest.raises(StepRejected) as raised:
        gf.integrate_geodesic(groups.SU2(), norm, np.zeros(3), np.array([0.6, -0.3, 0.5]), T=0.1, step=1.0e-3)
    frames = traceback.extract_tb(raised.value.__cause__.__traceback__)
    loop = next(frame for frame in frames if frame.filename.startswith("<finslergeo.geodesic_flow step loop"))
    assert "HookedRanders, n=3, 6 ad* terms" in loop.filename
    assert loop.line == "U2_0, U2_1, U2_2, = hook(U2_0, U2_1, U2_2)"


def test_chart_work_does_not_grow_with_steps():
    # timer-free cost guard: chart work is per call, never per step; the
    # orbit check compares on the group, so it adds no chart check
    norm = norms.RandersNorm(np.diag([1.0, 2.0, 3.0]), np.array([0.3, 0.0, 0.2]))
    runs = (
        lambda model, T: gf.integrate_geodesic(
            model, norm, np.array([0.1, 0.2, -0.3]), np.array([0.5, -0.4, 0.6]), T=T, step=1.0e-3
        ),
        lambda model, T: gf.is_homogeneous_geodesic(model, norm, np.array([0.5, -0.4, 0.6]), T=T, step=1.0e-3),
    )

    def counted_calls(run, T):
        model = groups.SU2()
        counts = {"body_jacobian": 0, "check_chart": 0}
        for name in counts:
            original = getattr(model, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            setattr(model, name, counted)
        run(model, T)
        return counts

    for run in runs:
        short, long = counted_calls(run, 0.05), counted_calls(run, 0.5)
        assert short == long
        assert short["check_chart"] == 1


def test_norm_tensor_built_once_per_path(monkeypatch):
    # timer-free cost guard: the flow steps μ with the norm's closed-form
    # dual lines, four evaluations a step, and takes μ at the start from the
    # closed-form Legendre map, once, so the norm tensor is never built;
    # F = norm(u) is read once, for the whole path, however long the path;
    # every ad* and every dual is written out in the loop, which calls
    # neither lie.add_coadjoint nor a norm method
    kernel_calls = []
    original_kernel = lie.add_coadjoint
    monkeypatch.setattr(lie, "add_coadjoint", lambda *args: kernel_calls.append(1) or original_kernel(*args))

    def norm_calls(model, T):
        calls = {"fundamental_matrix": 0, "value": 0, "legendre": 0, "dual": 0}

        def hook(*u):
            calls["dual"] += 1
            return u

        norm = HookedRanders(np.diag([1.0, 2.0, 3.0]), np.array([0.3, 0.0, 0.2]), hook=hook)
        for name in ("fundamental_matrix", "value", "legendre"):
            original = getattr(norm, name)

            def counted(y, _name=name, _original=original):
                calls[_name] += 1
                return _original(y)

            setattr(norm, name, counted)
        kernel_calls.clear()
        gf.integrate_geodesic(
            model, norm, np.array([0.1, 0.2, -0.3]), np.array([0.5, -0.4, 0.6]), T=T, step=1.0e-3
        )
        return dict(calls, add_coadjoint=len(kernel_calls))

    for model in (groups.Heisenberg3(), groups.SU2()):
        for T in (0.05, 0.5):
            steps = round(T / 1.0e-3)
            assert norm_calls(model, T) == {
                "fundamental_matrix": 0,
                "value": 1,
                "legendre": 1,
                "dual": 4 * steps,
                "add_coadjoint": 0,
            }


def test_euler_poincare_rows_do_not_depend_on_the_batch():
    # μ = ĝ_u u and ad*_u μ are summed in index order on batch-last rows,
    # and the solve takes one matrix at a time, so of 1024 random u each
    # rate is bitwise the same alone, in a batch of 7 and in the whole
    # batch; in a rotated basis the products of su(2)'s constants round
    rng = np.random.RandomState(29)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated = lie.LieAlgebraData(3, np.einsum("pi,qj,pqr,rk->ijk", q, q, lie.su2().c, q))
    a = np.diag([1.0, 2.0, 1.5])
    us = rng.standard_normal((1024, 3))
    for algebra in (lie.heisenberg3(), lie.su2(), rotated):
        for norm in (norms.EuclideanNorm(a), norms.RandersNorm(a, np.array([0.3, 0.1, 0.2]))):
            rate = gf.euler_poincare_rhs(algebra, us, norm.fundamental_matrix(us))
            for i in range(0, 1024, 73):
                one = gf.euler_poincare_rhs(algebra, us[i], norm.fundamental_matrix(us[i]))
                assert one.tobytes() == rate[i].tobytes()
                rows = np.arange(i - 3, i + 4) % 1024
                sub = gf.euler_poincare_rhs(algebra, us[rows], norm.fundamental_matrix(us[rows]))
                assert sub[3].tobytes() == rate[i].tobytes()


def test_dual_takes_one_covector_per_call():
    # timer-free cost guard: the step loop evaluates the dual on one
    # covector's n floats at a time, four evaluations a step
    a = np.diag([1.0, 2.0, 3.0])
    rng = np.random.RandomState(7)
    x0 = 0.3 * rng.standard_normal(3)
    y0 = rng.standard_normal(3)
    shapes = []

    def hook(*u):
        shapes.append(tuple(type(x) for x in u))
        return u

    for model in (groups.Heisenberg3(), groups.SU2()):
        for norm in (HookedEuclidean(a, hook=hook), HookedRanders(a, np.array([0.3, -0.4, 0.2]), hook=hook)):
            shapes.clear()
            gf.integrate_geodesic(model, norm, x0, y0, T=0.05, step=1.0e-3)
            assert len(shapes) == 4 * 50
            assert set(shapes) == {(float, float, float)}


@pytest.mark.parametrize("shape", [(3, 3), (8, 3), (8, 2), (1, 3), (2, 1, 3)])
def test_flow_steps_one_path(shape):
    # one call steps one path: a batch of starts, as x0, as y0 or as the
    # orbit check's X, is refused, a batch of one too, and one vector of
    # the same numbers is stepped
    rng = np.random.RandomState(47)
    n = shape[-1]
    batch = 0.3 * rng.standard_normal(shape)
    one = batch.reshape(-1, n)[0]
    norm = norms.RandersNorm(np.eye(n), 0.2 * np.eye(n)[0])
    for model in (groups.Heisenberg3(), groups.SU2()) if n == 3 else (groups.Abelian(n),):
        for x0, y0 in ((batch, one), (one, batch), (batch, batch)):
            with pytest.raises(ValueError, match="steps one path"):
                gf.integrate_geodesic(model, norm, x0, y0, T=0.05, step=1.0e-2)
        with pytest.raises(ValueError, match="steps one path"):
            gf.is_homogeneous_geodesic(model, norm, batch, T=0.05, step=1.0e-2)
        path = gf.integrate_geodesic(model, norm, one, one, T=0.05, step=1.0e-2)
        assert path.body.shape == (6, n) and path.F_values.shape == (6,)


@pytest.mark.parametrize("T, step", [(0.1, 0.5), (1.0, 0.3), (0.05, 0.02)])
def test_horizon_must_be_a_whole_number_of_steps(T, step):
    # the path would end at 0.5 for (0.1, 0.5) and at 0.9 for (1.0, 0.3)
    model, norm = su2_euclid()
    with pytest.raises(ValueError, match="whole number of steps"):
        gf.integrate_geodesic(model, norm, np.zeros(3), np.array([1.0, 0.0, 0.0]), T=T, step=step)
    with pytest.raises(ValueError, match="whole number of steps"):
        gf.is_homogeneous_geodesic(model, norm, np.array([1.0, 0.0, 0.0]), T=T, step=step)


def test_step_count_absorbs_the_rounding_of_t_over_step():
    assert gf.step_count(0.05, 1.0e-3) == 50
    assert gf.step_count(0.25, 1.0e-3) == 250
    assert gf.step_count(0.3, 0.1) == 3
    path = gf.integrate_geodesic(*su2_euclid(), np.zeros(3), np.array([1.0, 0.0, 0.0]), T=0.3, step=0.1)
    assert len(path.ts) == 4


def casimir_path(model):
    # μ = ĝ_u u recomputed from the stored body velocities of two Randers
    # paths, as the columns of a (steps + 1, 2, n) array
    norm = norms.RandersNorm(np.diag([1.0, 2.0, 3.0]), np.array([0.3, -0.4, 0.5]))
    x0 = np.array([[0.0, 0.0, 0.0], [0.4, -0.7, 0.3]])
    y0 = np.array([[0.5, 0.8, -0.6], [-0.6, 0.4, 0.7]])
    body = np.stack([gf.integrate_geodesic(model, norm, x, y, T=1.0, step=1.0e-3).body for x, y in zip(x0, y0)], axis=1)
    mu = np.einsum("...ij,...j->...i", norm.fundamental_matrix(body), body)
    assert np.max(np.abs(mu - mu[0])) > 0.1
    return mu


def test_h3_central_momentum_is_conserved():
    # e3 is central in h3, so the e3 row of ad*_u μ is exactly 0 and μ_3 never
    # moves; recomputing μ from the stored u adds rounding only
    mu = casimir_path(groups.Heisenberg3())
    assert np.max(np.abs(mu[..., 2] - mu[0, :, 2]) / np.abs(mu[0, :, 2])) <= 1.0e-14


def test_su2_momentum_length_is_conserved():
    # |μ|² is a Casimir of su(2)*; RK4 keeps it to O(h⁴)
    mu = casimir_path(groups.SU2())
    length2 = np.einsum("...i,...i->...", mu, mu)
    assert np.max(np.abs(length2 - length2[0]) / length2[0]) <= 1.0e-12


def criterion_norm(model, norm, X):
    """|ad*_X(ĝ_X X)| on m = g, as the check-homogeneous task reports it."""
    dec = lie.ReductiveDecomposition(model.algebra, m_indices=tuple(range(model.dim)))
    return float(np.linalg.norm(geodesic_vectors.residual_batch(dec, norm, X)))


def test_homogeneous_geodesics_su2_random():
    model = groups.SU2()
    norm = norms.EuclideanNorm(np.eye(3))
    rng = np.random.RandomState(14)
    for _ in range(3):
        X = rng.standard_normal(3)
        X /= np.linalg.norm(X)
        sup = gf.is_homogeneous_geodesic(model, norm, X, T=1.0, step=2.0e-3)
        assert sup <= HOMOGENEOUS_TOL
        assert sup <= 1.0e-6
        assert criterion_norm(model, norm, X) <= 1.0e-12


def test_homogeneous_geodesics_h3_branches():
    model = groups.Heisenberg3()
    norm = norms.EuclideanNorm(np.eye(3))
    for X in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])):
        sup = gf.is_homogeneous_geodesic(model, norm, X, T=1.0, step=2.0e-3)
        assert sup <= HOMOGENEOUS_TOL and criterion_norm(model, norm, X) < 1.0e-12
    X = np.array([1.0, 0.0, 1.0])
    sup = gf.is_homogeneous_geodesic(model, norm, X, T=1.0, step=2.0e-3)
    assert sup > HOMOGENEOUS_TOL
    assert sup > 1.0e-3
    assert criterion_norm(model, norm, X) > 0.5


def test_riemannian_integrator_consistency():
    # independent Christoffel-based RK4 using the exact hand derivatives
    model, norm = h3_euclid()
    rng = np.random.RandomState(6)
    x0 = rng.standard_normal(3) * 0.3
    y0 = rng.standard_normal(3)

    def accel(x, y):
        g, dg = h3_metric_data(x)
        gamma_low = 0.5 * (
            np.einsum("skl->lsk", dg) + np.einsum("ksl->lsk", dg) - np.einsum("lsk->lsk", dg)
        )
        return -np.linalg.solve(g, np.einsum("lsk,s,k->l", gamma_low, y, y))

    step = 2.0e-3
    nsteps = 500
    x, y = x0.copy(), y0.copy()
    for _ in range(nsteps):
        k1x, k1y = y, accel(x, y)
        k2x, k2y = y + 0.5 * step * k1y, accel(x + 0.5 * step * k1x, y + 0.5 * step * k1y)
        k3x, k3y = y + 0.5 * step * k2y, accel(x + 0.5 * step * k2x, y + 0.5 * step * k2y)
        k4x, k4y = y + step * k3y, accel(x + step * k3x, y + step * k3y)
        x = x + (step / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y = y + (step / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)

    path = gf.integrate_geodesic(model, norm, x0, y0, T=1.0, step=step)
    points, velocities = gf.chart_coordinates(model, path, x0, y0)
    assert np.max(np.abs(points[-1] - x)) < 1.0e-7
    assert np.max(np.abs(velocities[-1] - y)) < 1.0e-7


def test_berwald_riemannian_passes():
    # a Riemannian spray is quadratic in y, so the parallelogram law holds to rounding
    off_origin = np.array([0.3, -0.2, 0.5])
    for metric in (h3_euclid(), su2_euclid()):
        for x in (np.zeros(3), off_origin):
            defect = gf.berwald_test(*metric, x=x, samples=6)
            assert defect <= BERWALD_TOL
            assert defect <= 1.0e-14


def test_berwald_flat_minkowski_passes():
    metric = (groups.Abelian(3), norms.RandersNorm(np.eye(3), [0.5, 0.0, 0.0]))
    deviation = gf.berwald_test(*metric, x=np.zeros(3), samples=6)
    assert deviation < 1.0e-12


def test_berwald_h3_randers_fails():
    deviation = gf.berwald_test(*h3_randers([0.0, 0.0, 0.5]), x=np.zeros(3), samples=6)
    assert deviation > BERWALD_TOL
    assert deviation > 1.0e-2


def test_berwald_matches_parallelism_of_drift_field():
    # covariant derivative of the drift covector under the pullback metric
    model = groups.Heisenberg3()
    b = np.array([0.0, 0.0, 0.5])
    h = 1.0e-5
    rng = np.random.RandomState(17)
    worst = 0.0
    for _ in range(5):
        x = rng.standard_normal(3)
        _, dg = h3_metric_data(x)
        g, _ = h3_metric_data(x)
        gamma_low = 0.5 * (
            np.einsum("skl->lsk", dg) + np.einsum("ksl->lsk", dg) - np.einsum("lsk->lsk", dg)
        )
        gamma = np.linalg.solve(g, gamma_low.reshape(3, 9)).reshape(3, 3, 3)
        db = np.empty((3, 3))
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            bp = model.body_jacobian(x + e).T @ b
            bm = model.body_jacobian(x - e).T @ b
            db[i] = (bp - bm) / (2.0 * h)
        bx = model.body_jacobian(x).T @ b
        nabla = db - np.einsum("kij,k->ij", gamma, bx)
        worst = max(worst, np.max(np.abs(nabla)))
    assert worst > 0.2


def oracle_cases():
    """H3 Randers, SU(2) with a = diag(1, 2, 3), SU(2) Randers."""
    a_h3 = np.array([[1.5, 0.2, 0.1], [0.2, 1.0, -0.3], [0.1, -0.3, 2.0]])
    a_su2 = np.diag([1.0, 2.0, 3.0])
    return [
        (groups.Heisenberg3(), norms.RandersNorm(a_h3, np.array([0.4, 0.3, -0.5]))),
        (groups.SU2(), norms.EuclideanNorm(a_su2)),
        (groups.SU2(), norms.RandersNorm(a_su2, np.array([0.3, -0.4, 0.5]))),
    ]


def test_reduced_flow_matches_chart_spray():
    # the same RK4 on xdot = y, ydot = -2G(x, y) with G from x-differences of the chart metric
    x0 = np.array([[0.0, 0.0, 0.0], [0.4, -0.7, 0.3]])
    y0 = np.array([[0.5, 0.8, -0.6], [-0.6, 0.4, 0.7]])
    for model, norm in oracle_cases():
        # the oracle steps both paths in one batch; the flow, one per call
        oracle = chart_spray.integrate_chart_spray(model, norm, x0, y0, T=0.5, step=1.0e-3)
        oracle_points, oracle_velocities = gf.chart_coordinates(model, oracle, x0, y0)
        for p, (x, y) in enumerate(zip(x0, y0)):
            path = gf.integrate_geodesic(model, norm, x, y, T=0.5, step=1.0e-3)
            points, velocities = gf.chart_coordinates(model, path, x, y)
            assert np.max(np.abs(path.points - oracle.points[:, p])) <= 1.0e-10
            assert np.max(np.abs(points - oracle_points[:, p])) <= 1.0e-10
            assert np.max(np.abs(velocities - oracle_velocities[:, p])) <= 1.0e-10
            assert np.max(np.abs(path.F_values - oracle.F_values[:, p])) <= 1.0e-10
            assert np.max(np.abs(points[-1] - x)) > 0.1


def test_berwald_verdict_matches_chart_spray():
    origin = np.zeros(3)
    cases = [
        (h3_euclid(), origin),
        (h3_euclid(), np.array([0.3, -0.2, 0.5])),
        (su2_euclid(), origin),
        ((groups.Abelian(3), norms.RandersNorm(np.eye(3), [0.5, 0.0, 0.0])), origin),
        (h3_randers([0.0, 0.0, 0.5]), origin),
        (h3_randers([0.0, 0.0, 0.5]), np.array([0.3, -0.2, 0.5])),
    ] + [(metric, np.array([0.3, 0.5, -0.4])) for metric in oracle_cases()]
    verdicts = []
    for metric, x in cases:
        defect = gf.berwald_test(*metric, x=x, samples=6)
        # the y-Hessian stencil on the chart spray is an independent route to the verdict
        oracle = chart_spray.berwald_deviation(*metric, x, samples=6)
        assert (oracle <= BERWALD_TOL) == (defect <= BERWALD_TOL)
        # the same law on the chart spray, whose x-differences carry about 1e-10
        assert abs(defect - chart_spray.parallelogram_defect(*metric, x, samples=6)) <= 1.0e-9
        verdicts.append(defect <= BERWALD_TOL)
    assert any(verdicts) and not all(verdicts)


def test_criterion_residual_is_coadjoint_of_flow():
    # with m = g, r_j = g_X(X, [X, e_j]) = ad*_X(g_X X)_j = (g_X u̇(X))_j
    rng = np.random.RandomState(23)
    a = np.diag([1.0, 2.0, 3.0])
    for model in (groups.Heisenberg3(), groups.SU2()):
        dec = lie.ReductiveDecomposition(model.algebra, m_indices=(0, 1, 2))
        for norm in (norms.EuclideanNorm(a), norms.RandersNorm(a, np.array([0.3, -0.4, 0.5]))):
            for X in rng.standard_normal((20, 3)):
                residual = geodesic_vectors.residual_batch(dec, norm, X)
                g = norm.fundamental_matrix(X)
                coadjoint = g @ gf.euler_poincare_rhs(model.algebra, X, g)
                assert np.max(np.abs(residual - coadjoint)) <= 1.0e-12


def imported_names(tree):
    """Every dotted module or member name a module's imports reach."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names += [module] + [f"{module}.{alias.name}".lstrip(".") for alias in node.names]
    return names


def test_flow_does_not_import_geodesic_vectors():
    # the flow takes every ad* from lie's term order, not from the criterion module
    with open(gf.__file__, encoding="utf-8") as handle:
        names = imported_names(ast.parse(handle.read()))
    assert "lie" in names
    assert not any("geodesic_vectors" in name.split(".") for name in names)
    for line in ("from .geodesic_vectors import residual_batch", "from . import geodesic_vectors, lie",
                 "import finslergeo.geodesic_vectors as gv"):
        assert any("geodesic_vectors" in name.split(".") for name in imported_names(ast.parse(line)))


def test_body_velocity_frozen_from_geodesic_vectors():
    a = np.diag([1.0, 2.0, 3.0])
    cases = [
        (groups.Heisenberg3(), norms.EuclideanNorm(np.eye(3))),
        (groups.Heisenberg3(), norms.RandersNorm(np.eye(3), np.array([0.3, 0.0, 0.2]))),
        (groups.SU2(), norms.EuclideanNorm(a)),
        (groups.SU2(), norms.RandersNorm(a, np.array([0.3, 0.0, 0.0]))),
    ]
    for model, norm in cases:
        dec = lie.ReductiveDecomposition(model.algebra, m_indices=(0, 1, 2))
        reps = geodesic_vectors.find_geodesic_vectors(dec, norm, samples=1024, tol=1.0e-9).representatives
        assert len(reps) > 0
        for X in reps:
            path = gf.integrate_geodesic(model, norm, np.zeros(3), X, T=0.2, step=1.0e-3)
            points, velocities = gf.chart_coordinates(model, path, np.zeros(3), X)
            u = np.einsum("...ij,...j->...i", model.body_jacobian(points), velocities)
            assert np.max(np.abs(gf.euler_poincare_rhs(model.algebra, u, norm.fundamental_matrix(u)))) <= 1.0e-12
