"""Volume factor oracles, distortion identities, S-curvature vanishing."""

import os

import numpy as np
import pytest

from finslergeo import geodesic_flow as gf
from finslergeo import cli, geodesic_vectors, groups, lie, norms, reports, s_curvature, scenario, sphere
from finslergeo.errors import QuadratureDivergence, ZeroVector

from group_oracle import dleft, multiply
from randers_oracle import navigation_randers, random_randers
from volume_oracle import busemann_sigma, distortion, s_from_tensors, tau_from_tensors


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


def six_algebras():
    """aff(1), su(2), h3, su(2) ⊕ R, h3 ⊕ R and the diamond algebra
    [e1, e2] = e3, [e1, e3] = −e2, [e2, e3] = e4: dimensions 2, 3 and 4."""

    def algebra(n, brackets):
        c = np.zeros((n, n, n))
        for i, j, k, value in brackets:
            c[i, j, k], c[j, i, k] = value, -value
        return lie.LieAlgebraData(n, c)

    def plus_r(alg):
        return lie.LieAlgebraData(4, np.pad(alg.c, (0, 1)))

    return [
        algebra(2, [(0, 1, 1, 1.0)]),
        lie.su2(),
        lie.heisenberg3(),
        plus_r(lie.su2()),
        plus_r(lie.heisenberg3()),
        algebra(4, [(0, 1, 2, 1.0), (0, 2, 1, -1.0), (1, 2, 3, 1.0)]),
    ]


def relative_error(got, want):
    return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))


def test_closed_forms_match_the_tensor_route():
    # ½ ln det ĝ and S from each norm's closed form (`distortion_terms`,
    # at w = ad*_u μ) against det ĝ and S = I_u(u̇) from the norm's
    # tensors (volume_oracle), on six algebras, for a random Euclidean
    # and a random Randers norm with ‖b‖_a < 0.9, 30 of each per algebra,
    # at F-unit vectors u (S is 1-homogeneous in u); relative to
    # max(1, |value|), the worst mismatches here are 1.3e-15 and 4.4e-15
    rng = np.random.RandomState(41)
    worst_log_det = worst_s = 0.0
    for algebra in six_algebras():
        n = algebra.dim
        assert lie.jacobi_residual(algebra)[0] == 0.0
        for _ in range(30):
            m = rng.standard_normal((n, n))
            a = m @ m.T + n * rng.uniform(0.2, 1.0) * np.eye(n)
            direction = rng.standard_normal(n)
            b_sharp = direction / np.sqrt(direction @ a @ direction) * rng.uniform(0.05, 0.9)
            for norm in (norms.EuclideanNorm(a), norms.RandersNorm(a, a @ b_sharp)):
                u = rng.standard_normal((20, n))
                u /= norm.value(u)[:, None]
                g = norm.fundamental_matrix(u)
                log_det, s = s_curvature._distortion_terms(algebra, norm, u)
                worst_log_det = max(worst_log_det, relative_error(log_det, 0.5 * np.log(np.linalg.det(g))))
                worst_s = max(worst_s, relative_error(s, s_from_tensors(algebra, norm, u, g)))
    assert worst_log_det <= 4.0e-15
    assert worst_s <= 1.0e-14


def test_distortion_builds_no_norm_tensor(monkeypatch):
    # tau and S come from the norms' closed forms alone: with
    # fundamental_matrix and cartan raising on both norm classes, a
    # path's profile still matches the tensor route taken before, and the
    # four bundled s-curvature scenarios pass with the reports they give
    # unpatched
    paths = [p for p in scenario.bundled_scenarios() if "scurvature" in os.path.basename(p)]
    assert len(paths) == 4
    before = [reports.machine_report(cli.run_scenario(scenario.parse_scenario(p))) for p in paths]
    profiles = []
    for model, norm in (randers_su2(), randers_h3(), (groups.SU2(), norms.EuclideanNorm(np.diag([1.0, 2.0, 3.0])))):
        path = gf.integrate_geodesic(model, norm, np.zeros(3), np.array([0.5, 0.8, -0.6]), T=0.05, step=5.0e-3)
        g = norm.fundamental_matrix(path.body)
        want = tau_from_tensors(norm, g)[0], s_from_tensors(model.algebra, norm, path.body, g)
        profiles.append((model, norm, path, *want))

    def refuse(self, y):
        raise AssertionError("the distortion route builds no norm tensor")

    for kind in (norms.EuclideanNorm, norms.RandersNorm):
        for name in ("fundamental_matrix", "cartan"):
            monkeypatch.setattr(kind, name, refuse)
    for model, norm, path, taus, s_values in profiles:
        profile = s_curvature.s_along_path(model.algebra, norm, path.ts, path.body)
        assert np.max(np.abs(profile.taus - taus)) <= 1.0e-14
        assert np.max(np.abs(profile.s_values - s_values)) <= 1.0e-14
        assert s_curvature.s_curvature(model, norm, np.zeros(3), np.array([0.5, 0.8, -0.6])) == profile.s_values[0]
    for p, want in zip(paths, before):
        report = cli.run_scenario(scenario.parse_scenario(p))
        assert report.passed
        assert reports.machine_report(report) == want
