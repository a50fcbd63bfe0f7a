"""Volume factor oracles, distortion identities, S-curvature vanishing."""

import numpy as np
import pytest

from finslergeo import geodesic_flow as gf
from finslergeo import geodesic_vectors, groups, lie, norms, s_curvature, scenario, sphere
from finslergeo.errors import QuadratureDivergence, ZeroVector

from group_oracle import dleft, multiply
from randers_oracle import navigation_randers, random_randers
from volume_oracle import busemann_sigma, distortion


def flat_metric(norm, dim=3):
    return groups.Abelian(dim), norm


def h3_metric(norm):
    return groups.Heisenberg3(), norm


def test_sigma_euclidean_unit_ball():
    for n in (2, 3, 4):
        metric = flat_metric(norms.EuclideanNorm(np.eye(n)), dim=n)
        factor = busemann_sigma(*metric, np.zeros(n))
        assert abs(factor.sigma - 1.0) < 1.0e-10
        assert factor.quadrature_nodes >= 10000
        assert factor.estimated_error < 1.0e-10


def test_sigma_scaled_norm():
    for n, c in ((2, 1.3), (3, 0.7)):
        metric = flat_metric(norms.EuclideanNorm(c * c * np.eye(n)), dim=n)
        factor = busemann_sigma(*metric, np.zeros(n))
        assert abs(factor.sigma - c**n) < 1.0e-8


def test_sigma_riemannian_is_volume_density():
    rng = np.random.RandomState(13)
    for n in (2, 3):
        m = rng.standard_normal((n, n))
        a = m @ m.T + n * np.eye(n)
        metric = flat_metric(norms.EuclideanNorm(a), dim=n)
        factor = busemann_sigma(*metric, np.zeros(n))
        assert abs(factor.sigma - np.sqrt(np.linalg.det(a))) < 1.0e-8


def test_sigma_randers_translated_disc():
    b = np.array([0.5, 0.0])
    model, norm = flat_metric(norms.RandersNorm(np.eye(2), b), dim=2)
    factor = busemann_sigma(model, norm, np.zeros(2))
    # brute-force area of the indicatrix by dense radial sampling
    thetas = np.linspace(0.0, 2.0 * np.pi, 1000001)[:-1]
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
    radii = 1.0 / norm.value(dirs)
    area = 0.5 * np.mean(radii**2) * 2.0 * np.pi
    oracle = np.pi / area
    assert abs(factor.sigma - oracle) < 1.0e-6
    assert abs(factor.sigma - (1.0 - 0.25) ** 1.5) < 1.0e-8


def test_sigma_randers_closed_form_3d():
    metric = flat_metric(norms.RandersNorm(np.eye(3), np.array([0.0, 0.5, 0.0])))
    factor = busemann_sigma(*metric, np.zeros(3))
    assert abs(factor.sigma - (1.0 - 0.25) ** 2) < 1.0e-8


def test_quadrature_divergence_on_rough_norm():
    # a deterministic high-frequency wobble never resolved by refinement
    class Wobble:
        dim = 2

        def value(self, y):
            y = np.asarray(y, dtype=float)
            base = np.linalg.norm(y, axis=-1)
            safe = np.where(base > 0.0, base, 1.0)
            return base * np.sqrt(1.0 + 1.0e-4 * np.sin(1.0e8 * y[..., 0] / safe))

    metric = flat_metric(Wobble(), dim=2)
    with pytest.raises(QuadratureDivergence):
        busemann_sigma(*metric, np.zeros(2))


def test_quadrature_divergence_on_nonfinite_values():
    class Bad:
        dim = 2

        def value(self, y):
            y = np.asarray(y, dtype=float)
            with np.errstate(invalid="ignore"):
                return np.sqrt(y[..., 0] ** 2 - 3.0 * y[..., 0] * y[..., 1] + y[..., 1] ** 2)

    metric = flat_metric(Bad(), dim=2)
    with pytest.raises(QuadratureDivergence):
        busemann_sigma(*metric, np.zeros(2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_node_budget_level_has_two_coarser_levels(n):
    # the refinement check compares the budget's level with the two below
    # it, so that level is 2 or more in every supported dimension
    assert sphere.level_for(n, s_curvature.MIN_NODES) >= 2


def test_sigma_rejects_unsupported_dimension():
    metric = flat_metric(norms.EuclideanNorm(np.eye(5)), dim=5)
    with pytest.raises(ValueError):
        busemann_sigma(*metric, np.zeros(5))


def test_distortion_riemannian_zero():
    metric = h3_metric(norms.EuclideanNorm(np.eye(3)))
    rng = np.random.RandomState(2)
    for _ in range(5):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        sample = distortion(*metric, x, y)
        assert abs(sample.tau) < 1.0e-9


def test_distortion_zero_homogeneous():
    metric = h3_metric(norms.RandersNorm(np.eye(3), np.array([0.3, 0.0, 0.2])))
    rng = np.random.RandomState(7)
    for _ in range(5):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        t1 = distortion(*metric, x, y).tau
        t3 = distortion(*metric, x, 3.0 * y).tau
        assert abs(t1 - t3) < 1.0e-9


def test_distortion_rejects_zero_vector():
    metric = h3_metric(norms.EuclideanNorm(np.eye(3)))
    with pytest.raises(ZeroVector):
        distortion(*metric, np.zeros(3), np.zeros(3))


def test_distortion_left_invariance():
    cases = [
        (groups.Heisenberg3(), norms.RandersNorm(np.eye(3), np.array([0.25, 0.1, 0.0]))),
        (groups.SU2(), norms.RandersNorm(np.diag([1.0, 1.0, 1.5]), np.array([0.0, 0.0, 0.3]))),
    ]
    rng = np.random.RandomState(5)
    for model, norm in cases:
        for _ in range(3):
            x = rng.standard_normal(3) * 0.4
            y = rng.standard_normal(3)
            p = rng.standard_normal(3) * 0.4
            tau = distortion(model, norm, x, y).tau
            moved_x = multiply(model, p, x)
            moved_y = dleft(model, p, y, base=x)
            tau_moved = distortion(model, norm, moved_x, moved_y).tau
            assert abs(tau - tau_moved) < 1.0e-6


def test_s_flat_minkowski_zero():
    metric = flat_metric(norms.RandersNorm(np.eye(3), np.array([0.4, 0.1, 0.0])))
    rng = np.random.RandomState(3)
    for _ in range(3):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        assert abs(s_curvature.s_curvature(*metric, x, y)) < 1.0e-8


def test_s_riemannian_zero():
    metric = h3_metric(norms.EuclideanNorm(np.eye(3)))
    rng = np.random.RandomState(9)
    for _ in range(3):
        x = rng.standard_normal(3) * 0.5
        y = rng.standard_normal(3)
        assert abs(s_curvature.s_curvature(*metric, x, y)) < 1.0e-4


def test_s_vanishes_for_geodesic_vectors():
    cases = [
        (groups.SU2(), norms.EuclideanNorm(np.eye(3)), np.array([1.0, 0.0, 0.0])),
        (groups.Heisenberg3(), norms.EuclideanNorm(np.eye(3)), np.array([1.0, 0.0, 0.0])),
        (groups.Heisenberg3(), norms.EuclideanNorm(np.eye(3)), np.array([0.0, 0.0, 1.0])),
        (groups.Heisenberg3(), norms.RandersNorm(np.eye(3), np.array([0.4, 0.0, 0.0])), np.array([0.0, 0.0, 1.0])),
    ]
    for model, norm, X in cases:
        assert abs(s_curvature.s_curvature(model, norm, model.identity(), X)) < 1.0e-3


def test_tau_constant_along_homogeneous_geodesic():
    model = groups.SU2()
    norm = norms.EuclideanNorm(np.eye(3))
    X = np.array([0.6, -0.3, 0.5])
    path = gf.integrate_geodesic(model, norm, model.identity(), X, T=0.5, step=1.0e-3)
    profile = s_curvature.s_along_path(model.algebra, norm, path.ts[::25], path.body[::25])
    assert np.max(np.abs(profile.taus - profile.taus[0])) < 1.0e-6
    assert np.max(np.abs(profile.s_values)) < 1.0e-4
    assert np.all(profile.sigma_errors < 1.0e-8)
    assert len(profile.s_values) == len(profile.ts)


def randers_su2():
    return groups.SU2(), norms.RandersNorm(np.diag([1.0, 2.0, 3.0]), np.array([0.3, -0.4, 0.5]))


def randers_h3():
    a = np.array([[1.5, 0.2, 0.1], [0.2, 1.0, -0.3], [0.1, -0.3, 2.0]])
    return groups.Heisenberg3(), norms.RandersNorm(a, np.array([0.4, 0.3, -0.5]))


def test_s_matches_tau_stencil_along_integrated_path():
    # the one-sided second-order quotient of tau, (-3 tau_i + 4 tau_i+1 - tau_i+2) / 2h,
    # is the independent route to S = d tau / dt
    h = 5.0e-4
    for (model, norm), x, y in (
        (randers_h3(), np.array([0.4, -0.7, 0.3]), np.array([0.5, 0.8, -0.6])),
        (randers_su2(), np.array([0.3, 0.5, -0.4]), np.array([-0.6, 0.4, 0.7])),
    ):
        path = gf.integrate_geodesic(model, norm, x, y, T=0.05, step=h)
        profile = s_curvature.s_along_path(model.algebra, norm, path.ts, path.body)
        taus = profile.taus
        stencil = (-3.0 * taus[:-2] + 4.0 * taus[1:-1] - taus[2:]) / (2.0 * h)
        assert np.max(np.abs(profile.s_values)) > 1.0e-2
        assert np.max(np.abs(profile.s_values[:-2] - stencil)) < 1.0e-6
        assert abs(s_curvature.s_curvature(model, norm, x, y) - profile.s_values[0]) < 1.0e-12


def test_s_h3_randers_closed_form():
    # a = I, b = c e1 on H3: S(e, y) = -2 c y2 y3 / F(y)
    c = 0.35
    metric = h3_metric(norms.RandersNorm(np.eye(3), np.array([c, 0.0, 0.0])))
    rng = np.random.RandomState(11)
    for _ in range(10):
        y = rng.standard_normal(3)
        exact = -2.0 * c * y[1] * y[2] / (np.linalg.norm(y) + c * y[0])
        assert abs(s_curvature.s_curvature(*metric, np.zeros(3), y) - exact) < 1.0e-12


def test_s_vanishes_at_found_geodesic_vectors():
    # at a geodesic vector ad*_X(g_X X) = 0, so the body velocity is constant and S = 0
    cases = [
        (groups.Heisenberg3(), norms.RandersNorm(np.eye(3), np.array([0.3, 0.0, 0.2]))),
        (groups.SU2(), norms.EuclideanNorm(np.diag([1.0, 2.0, 3.0]))),
        (groups.SU2(), norms.RandersNorm(np.diag([1.0, 2.0, 3.0]), np.array([0.3, 0.0, 0.0]))),
    ]
    for model, norm in cases:
        dec = lie.ReductiveDecomposition(model.algebra, m_indices=(0, 1, 2))
        found = geodesic_vectors.find_geodesic_vectors(dec, norm, samples=1024, tol=1.0e-9)
        assert len(found.representatives) > 0
        for X in found.representatives:
            assert abs(s_curvature.s_curvature(model, norm, model.identity(), np.asarray(X))) <= 1.0e-12


def test_s_is_the_criterion_residual_for_randers():
    # with m = g, S(e, X) = (n + 1) α(X) / (2 F(X)^2) · r(X)·b♯, r the
    # criterion residual and b♯ = a⁻¹b, at every X: S vanishes at geodesic
    # vectors of every left-invariant Randers metric, and is bounded by r;
    # the worst mismatch here is 5.4e-15
    rng = np.random.RandomState(5)
    for model in (groups.Heisenberg3(), groups.SU2()):
        dec = lie.ReductiveDecomposition(model.algebra, m_indices=(0, 1, 2))
        for _ in range(20):
            a, b = random_randers(rng, reach=0.9)
            norm = norms.RandersNorm(a, b)
            X = rng.standard_normal((10, 3))
            alpha = np.sqrt(np.einsum("ij,jk,ik->i", X, a, X))
            r = geodesic_vectors.residual_batch(dec, norm, X)
            exact = (3 + 1) * alpha / (2.0 * norm.value(X) ** 2) * (r @ np.linalg.solve(a, b))
            for y, want in zip(X, exact):
                s = s_curvature.s_curvature(model, norm, model.identity(), y)
                assert abs(s - want) <= 1.0e-13 * max(1.0, abs(s))


def test_sigma_randers_closed_form_general_a():
    # Busemann-Hausdorff: sigma = sqrt(det a) (1 - b a^-1 b)^((n + 1) / 2)
    rng = np.random.RandomState(17)
    for n in (2, 3):
        m = rng.standard_normal((n, n))
        a = m @ m.T + n * np.eye(n)
        raw = rng.standard_normal(n)
        b = raw * (0.5 / np.sqrt(raw @ np.linalg.solve(a, raw)))
        metric = flat_metric(norms.RandersNorm(a, b), dim=n)
        exact = np.sqrt(np.linalg.det(a)) * (1.0 - b @ np.linalg.solve(a, b)) ** ((n + 1) / 2.0)
        factor = busemann_sigma(*metric, np.zeros(n))
        assert abs(factor.sigma - exact) < 1.0e-8


def test_sigma_off_identity_matches_chart_quadrature():
    model, norm = randers_su2()
    x = np.array([0.7, -0.4, 0.9])
    nodes, weights = sphere.quad_grid(3, 4)
    volume = (norm.value(nodes @ model.body_jacobian(x).T) ** -3.0) @ weights / 3.0
    direct = sphere.ball_volume(3) / volume
    factor = busemann_sigma(model, norm, x)
    assert abs(factor.sigma - direct) < 1.0e-8 * direct
    assert abs(factor.sigma - busemann_sigma(model, norm, np.zeros(3)).sigma) > 1.0e-2


def test_bundled_zermelo_pair_is_the_navigation_metric():
    # Zermelo navigation on SU(2) with h = I and a left-invariant wind W:
    # W is a Killing field of the bi-invariant h, so the geodesics are
    # h-geodesics carried by the flow of W (Robles, Trans. AMS 359, 2007;
    # Huang–Mo, Proc. AMS 139, 2011) and S vanishes, but W is not
    # parallel, so the metric is not Berwald; the bundled pair holds
    # exactly its (a, b)
    a, b = navigation_randers(np.eye(3), np.array([0.3, -0.4, 0.2]))
    tasks = set()
    for path in scenario.bundled_scenarios():
        if "zermelo" in path:
            scen = scenario.parse_scenario(path)
            assert np.array_equal(scen.norm.a, a) and np.array_equal(scen.norm.b, b)
            tasks.add((scen.task, scen.params.get("expect_vanishing"), scen.params.get("expect_berwald")))
    assert tasks == {("s-curvature", True, None), ("berwald", None, False)}
