"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single pass/fail line with its wall time and asserts
the stated tolerance and time budget.  These deliberately re-derive
their reference values (finite differences, grid scans, brute-force
quadrature) instead of calling back into the code paths they judge.
"""

import time

import numpy as np

from finslergeo import (
    cli,
    geodesic_flow,
    geodesic_vectors,
    groups,
    lie,
    norms,
    reports,
    s_curvature,
    scenario,
)

import jet_norms
from randers_oracle import randers_residual_identity
from volume_oracle import busemann_sigma, tau_batch

I3 = np.eye(3)


def _verdict(num: int, ok: bool, elapsed: float, budget: float) -> None:
    state = "pass" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num:2d}: {state} ({elapsed:.1f} s, budget {budget:.0f} s)")
    assert ok
    assert elapsed < budget


def _random_randers(rng, n):
    m = rng.randn(n, n)
    a = m @ m.T + n * np.eye(n)
    raw = rng.randn(n)
    target = rng.uniform(0.05, 0.9)
    scale = target / np.sqrt(raw @ np.linalg.solve(a, raw))
    return norms.RandersNorm(a, raw * scale)


def _fd_half_hessian(f2, y, h):
    n = len(y)
    out = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        out[i, i] = (f2(y + ei) - 2.0 * f2(y) + f2(y - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            mixed = (
                f2(y + ei + ej) - f2(y + ei - ej) - f2(y - ei + ej) + f2(y - ei - ej)
            ) / (4.0 * h**2)
            out[i, j] = mixed
            out[j, i] = mixed
    return 0.5 * out


def test_criterion_01_randers_fundamental_vs_finite_differences():
    start = time.perf_counter()
    rng = np.random.RandomState(1)
    worst = 0.0
    for trial in range(100):
        n = 2 + trial % 2
        norm = _random_randers(rng, n)
        y = rng.randn(n)
        while np.linalg.norm(y) < 0.3:
            y = rng.randn(n)
        closed = norm.fundamental_matrix(y)
        fd = _fd_half_hessian(lambda v: float(norm.value(v) ** 2), y, 1.0e-4 * np.linalg.norm(y))
        worst = max(worst, float(np.max(np.abs(closed - fd))))
    _verdict(1, worst < 1.0e-6, time.perf_counter() - start, 5.0)


def test_criterion_02_cartan_symmetry_and_radial_vanishing():
    start = time.perf_counter()
    rng = np.random.RandomState(2)
    worst_sym = 0.0
    worst_radial = 0.0
    for block in range(10):
        n = 2 + block % 2
        norm = _random_randers(rng, n)
        ys = rng.randn(100, n)
        ys = ys[np.linalg.norm(ys, axis=1) > 0.3][:90]
        c = norm.cartan(ys)
        for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            axes = tuple(range(c.ndim - 3)) + tuple(c.ndim - 3 + p for p in perm)
            worst_sym = max(worst_sym, float(np.max(np.abs(c - np.transpose(c, axes)))))
        radial = np.einsum("...ijk,...i->...jk", c, ys)
        worst_radial = max(worst_radial, float(np.max(np.abs(radial))))
    riem = jet_norms.EuclideanNorm(np.array([[2.0, 0.3], [0.3, 1.0]]))
    ys = np.random.RandomState(22).randn(50, 2)
    riem_c = norms.MinkowskiNorm._generic_cartan(riem, ys)
    ok = worst_sym < 1.0e-10 and worst_radial < 1.0e-10 and float(np.max(np.abs(riem_c))) < 1.0e-12
    _verdict(2, ok, time.perf_counter() - start, 5.0)


def test_criterion_03_su2_biinvariant_geodesic_orbits():
    start = time.perf_counter()
    model = groups.model_by_name("su2")
    norm = norms.EuclideanNorm(I3)
    dec = lie.ReductiveDecomposition(model.algebra, m_indices=(0, 1, 2))
    rng = np.random.RandomState(3)
    Xs = rng.randn(1000, 3)
    Xs = Xs[np.linalg.norm(Xs, axis=1) > 0.2]
    residuals = geodesic_vectors.residual_batch(dec, norm, Xs)
    max_residual = float(np.max(np.abs(residuals)))
    sups = []
    for k in range(20):
        X = rng.randn(3)
        X = X / np.linalg.norm(X)
        sup = geodesic_flow.is_homogeneous_geodesic(model, norm, X, T=2.0, step=1.0e-3)
        assert sup <= 1.0e-5
        sups.append(sup)
    ok = max_residual < 1.0e-10 and max(sups) < 1.0e-5
    _verdict(3, ok, time.perf_counter() - start, 60.0)


def _h3_grid_residuals(norm):
    axis = (np.arange(50) - 24.0) / 25.0
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    keep = np.linalg.norm(grid, axis=1) > 0.0
    grid = grid[keep]
    dec = lie.ReductiveDecomposition(lie.heisenberg3(), m_indices=(0, 1, 2))
    res = geodesic_vectors.residual_batch(dec, norm, grid)
    return grid, np.max(np.abs(res), axis=-1)


def test_criterion_04_h3_branches_confirmed_by_grid_and_orbits():
    start = time.perf_counter()
    model = groups.model_by_name("heisenberg3")
    norm = norms.EuclideanNorm(I3)
    dec = lie.ReductiveDecomposition(model.algebra, m_indices=(0, 1, 2))

    found = geodesic_vectors.find_geodesic_vectors(dec, norm, samples=4096, tol=1.0e-9)
    reps = np.asarray(found.representatives)
    labels = np.asarray(found.branch_labels)
    assert len(set(labels)) == 2
    on_plane = np.abs(reps[:, 2]) < 1.0e-6
    on_axis = np.linalg.norm(reps[:, :2], axis=1) < 1.0e-6
    assert np.all(on_plane | on_axis)
    assert np.any(on_plane) and np.any(on_axis)

    grid, grid_res = _h3_grid_residuals(norm)
    in_plane = grid[:, 2] == 0.0
    in_axis = (grid[:, 0] == 0.0) & (grid[:, 1] == 0.0)
    on_set = in_plane | in_axis
    assert float(np.max(grid_res[on_set])) <= 1.0e-12
    assert float(np.min(grid_res[~on_set])) > 1.0e-4

    ts = np.arange(2001) * 1.0e-3
    rep_sups = np.empty(len(reps))
    for k, X in enumerate(reps):
        path = geodesic_flow.integrate_geodesic(model, norm, np.zeros(3), X, T=2.0, step=1.0e-3)
        rep_sups[k] = np.max(np.abs(path.points - ts[:, None] * X))
    assert float(np.max(rep_sups)) <= 1.0e-5
    for X in (reps[np.argmax(on_plane)], reps[np.argmax(on_axis)]):
        assert geodesic_flow.is_homogeneous_geodesic(model, norm, X, T=2.0, step=1.0e-3) <= 1.0e-5

    rng = np.random.RandomState(4)
    bad = []
    while len(bad) < 100:
        X = rng.randn(3)
        X = X / np.linalg.norm(X)
        r = geodesic_vectors.residual_batch(dec, norm, X[None, :])[0]
        if np.linalg.norm(r) > 1.0e-3:
            bad.append(X)
    bad_sups = np.empty(100)
    for k, X in enumerate(bad):
        bad_path = geodesic_flow.integrate_geodesic(model, norm, np.zeros(3), X, T=2.0, step=1.0e-3)
        bad_sups[k] = np.max(np.abs(bad_path.points - ts[:, None] * X))
    all_fail = bool(np.all(bad_sups > 1.0e-5))
    _verdict(4, all_fail, time.perf_counter() - start, 120.0)


def test_criterion_05_randers_residual_identity_and_zero_sets():
    start = time.perf_counter()
    rng = np.random.RandomState(11)
    algebras = (lie.heisenberg3(), lie.su2())
    worst = 0.0
    for trial in range(1000):
        alg = algebras[trial % 2]
        dec = lie.ReductiveDecomposition(alg, m_indices=(0, 1, 2))
        m = rng.randn(3, 3)
        a = m @ m.T + 3.0 * np.eye(3)
        raw = rng.randn(3)
        scale = rng.uniform(0.1, 0.9) / np.sqrt(raw @ a @ raw)
        Xfield = raw * scale
        y = rng.randn(3)
        while np.linalg.norm(y) < 0.3:
            y = rng.randn(3)
        z = rng.randn(3)
        lhs, rhs = randers_residual_identity(dec, a, Xfield, y, z)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1.0e-9

    randers = norms.RandersNorm(I3, np.array([0.4, 0.0, 0.0]))
    grid, res_f = _h3_grid_residuals(randers)
    _, res_a = _h3_grid_residuals(norms.EuclideanNorm(I3))
    zero_f = res_f <= 1.0e-8
    zero_a = res_a <= 1.0e-8
    discrepancies = int(np.sum(zero_f != zero_a))
    _verdict(5, worst <= 1.0e-9 and discrepancies == 0, time.perf_counter() - start, 60.0)


def test_criterion_06_first_integral_on_bundled_scenarios():
    start = time.perf_counter()
    drifts = {}
    for path in scenario.bundled_scenarios():
        scen = scenario.parse_scenario(path)
        if scen.task not in ("integrate-geodesic", "s-curvature", "check-homogeneous"):
            continue
        p = scen.params
        # the orbit check starts at the identity with velocity X
        x0, y0 = (p["x0"], p["y0"]) if "y0" in p else (scen.model.identity(), p["X"])
        gp = geodesic_flow.integrate_geodesic(scen.model, scen.norm, x0, y0, T=p["T"], step=p["step"])
        drifts[path.rsplit("/", 1)[-1]] = float(
            np.max(np.abs(gp.F_values - gp.F_values[0])) / gp.F_values[0]
        )
    assert len(drifts) == 8
    worst = max(drifts.values())
    _verdict(6, worst <= 1.0e-6, time.perf_counter() - start, 30.0)


def _orbit_tau_profile(model, norm, X):
    ts = np.linspace(0.0, 2.0, 41)
    # exp(tX) is the chart line tX, with chart velocity X
    points = ts[:, None] * X
    taus, errs = tau_batch(model, norm, points, np.broadcast_to(X, points.shape))
    return taus, errs


def test_criterion_07_distortion_constant_and_s_vanishing():
    start = time.perf_counter()
    su2 = groups.model_by_name("su2")
    h3 = groups.model_by_name("heisenberg3")
    norm = norms.EuclideanNorm(I3)

    vectors = []
    rng = np.random.RandomState(3)
    rng.randn(1000, 3)
    for _ in range(20):
        X = rng.randn(3)
        vectors.append((su2, X / np.linalg.norm(X)))
    dec = lie.ReductiveDecomposition(h3.algebra, m_indices=(0, 1, 2))
    found = geodesic_vectors.find_geodesic_vectors(dec, norm, samples=4096, tol=1.0e-9)
    for X in found.representatives:
        vectors.append((h3, np.asarray(X)))

    worst_drift = 0.0
    worst_s = 0.0
    for model, X in vectors:
        taus, _ = _orbit_tau_profile(model, norm, X)
        worst_drift = max(worst_drift, float(np.max(np.abs(taus - taus[0]))))
        worst_s = max(worst_s, abs(s_curvature.s_curvature(model, norm, model.identity(), X)))
    assert worst_drift <= 1.0e-6
    assert worst_s <= 1.0e-3

    worst_riem = 0.0
    rng = np.random.RandomState(7)
    for model, radius in ((su2, 1.5), (h3, 1.0)):
        for _ in range(10):
            x = rng.randn(3)
            x = x * (radius * rng.uniform(0.1, 1.0) / np.linalg.norm(x))
            y = rng.randn(3)
            worst_riem = max(worst_riem, abs(s_curvature.s_curvature(model, norm, x, y)))
    ok = worst_drift <= 1.0e-6 and worst_s <= 1.0e-3 and worst_riem <= 1.0e-4
    _verdict(7, ok, time.perf_counter() - start, 120.0)


def test_criterion_08_natural_reductivity_and_riemannian_reduction():
    start = time.perf_counter()
    su2_dec = lie.ReductiveDecomposition(lie.su2(), m_indices=(0, 1, 2))
    h3_dec = lie.ReductiveDecomposition(lie.heisenberg3(), m_indices=(0, 1, 2))
    norm = norms.EuclideanNorm(I3)
    good = geodesic_vectors.check_naturally_reductive(su2_dec, norm, samples=200, seed=0)
    assert good.max_residual <= 1.0e-10
    bad = geodesic_vectors.check_naturally_reductive(h3_dec, norm, samples=200, seed=0)
    assert bad.max_residual > 1.0e-8
    assert bad.witness

    rng = np.random.RandomState(8)
    m = rng.randn(3, 3)
    a = m @ m.T + 3.0 * np.eye(3)
    worst = 0.0
    for dec in (su2_dec, h3_dec):
        Xs = rng.randn(200, 3)
        Xs = Xs[np.linalg.norm(Xs, axis=1) > 0.2]
        finsler = geodesic_vectors.residual_batch(dec, norms.EuclideanNorm(a), Xs)
        brackets = np.einsum("ijk,bi->bkj", dec.algebra.c, Xs)
        classical = np.einsum("bp,pq,bqj->bj", Xs, a, brackets)
        worst = max(worst, float(np.max(np.abs(finsler - classical))))
    ok = good.max_residual <= 1.0e-10 and bad.max_residual > 1.0e-8 and bool(bad.witness) and worst <= 1.0e-12
    _verdict(8, ok, time.perf_counter() - start, 30.0)


def test_criterion_09_busemann_volume_factor_oracles():
    start = time.perf_counter()
    worst_euclid = 0.0
    worst_scaled = 0.0
    for n in (2, 3):
        flat = groups.Abelian(n)
        one = busemann_sigma(flat, norms.EuclideanNorm(np.eye(n)), np.zeros(n))
        assert one.quadrature_nodes >= 10000
        worst_euclid = max(worst_euclid, abs(one.sigma - 1.0))
        c = 1.3
        scaled = busemann_sigma(flat, norms.EuclideanNorm(c**2 * np.eye(n)), np.zeros(n))
        worst_scaled = max(worst_scaled, abs(scaled.sigma - c**n))

    flat2 = groups.Abelian(2)
    randers = norms.RandersNorm(np.eye(2), np.array([0.5, 0.0]))
    got = busemann_sigma(flat2, randers, np.zeros(2))
    thetas = (np.arange(1000000) + 0.5) * (2.0 * np.pi / 1000000)
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
    radii = 1.0 / randers.value(dirs)
    area = 0.5 * np.mean(radii**2) * 2.0 * np.pi
    oracle = np.pi / area
    ok = worst_euclid <= 1.0e-10 and worst_scaled <= 1.0e-8 and abs(got.sigma - oracle) <= 1.0e-6
    _verdict(9, ok, time.perf_counter() - start, 10.0)


def test_criterion_10_bundled_scenarios_rerun_byte_identical():
    start = time.perf_counter()
    mismatches = []
    for path in scenario.bundled_scenarios():
        first = reports.machine_report(cli.run_scenario(scenario.parse_scenario(path)))
        second = reports.machine_report(cli.run_scenario(scenario.parse_scenario(path)))
        if first.encode("utf-8") != second.encode("utf-8"):
            mismatches.append(path)
    _verdict(10, not mismatches, time.perf_counter() - start, 120.0)
