"""Sphere grids against closed-form surface integrals."""

import numpy as np
import pytest

from finslergeo import s_curvature, sphere


def test_weights_sum_to_sphere_area():
    areas = {2: 2.0 * np.pi, 3: 4.0 * np.pi, 4: 2.0 * np.pi**2}
    for dim, area in areas.items():
        nodes, weights = sphere.quad_grid(dim, 0)
        assert np.max(np.abs(np.linalg.norm(nodes, axis=1) - 1.0)) < 1.0e-14
        assert abs(weights.sum() - area) < 1.0e-10 * area


def test_polynomial_moments():
    # int_{S^{n-1}} x_i^2 = area / n by symmetry
    for dim in (2, 3, 4):
        nodes, weights = sphere.quad_grid(dim, 1)
        area = weights.sum()
        for i in range(dim):
            val = np.sum(weights * nodes[:, i] ** 2)
            assert abs(val - area / dim) < 1.0e-9
        # odd moments vanish
        val = np.sum(weights * nodes[:, 0] ** 3)
        assert abs(val) < 1.0e-9


def test_refinement_contracts_on_smooth_integrand():
    for dim in (2, 3):
        exact = None
        errs = []
        vals = []
        for level in range(4):
            nodes, weights = sphere.quad_grid(dim, level)
            f = np.exp(0.7 * nodes[:, 0] - 0.4 * nodes[:, -1])
            vals.append(np.sum(weights * f))
        for a, b in zip(vals, vals[1:]):
            errs.append(abs(b - a))
        # each refinement shrinks the increment by at least 4x until it
        # saturates near machine precision
        for e0, e1 in zip(errs, errs[1:]):
            assert e1 <= e0 / 4.0 + 1.0e-13 * abs(vals[-1])


def test_exponential_integral_at_production_level():
    # int_{S^2} exp(a.x) dA = 4 pi sinh|a| / |a|
    a = np.array([0.7, 0.0, -0.4])
    r = np.linalg.norm(a)
    nodes, weights = sphere.quad_grid(3, sphere.level_for(3, s_curvature.MIN_NODES))
    val = weights @ np.exp(nodes @ a)
    exact = 4.0 * np.pi * np.sinh(r) / r
    assert abs(val - exact) < 1.0e-13 * exact


def test_grids_cached_and_read_only():
    for dim in (2, 3, 4):
        nodes, weights = sphere.quad_grid(dim, 1)
        again = sphere.quad_grid(dim, 1)
        assert nodes.tobytes() == again[0].tobytes()
        assert weights.tobytes() == again[1].tobytes()
        for arr in (nodes, weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0


def test_ball_volume_values():
    assert abs(sphere.ball_volume(2) - np.pi) < 1.0e-14
    assert abs(sphere.ball_volume(3) - 4.0 * np.pi / 3.0) < 1.0e-14
    assert abs(sphere.ball_volume(4) - np.pi**2 / 2.0) < 1.0e-14


def test_seeds_unit_and_deterministic():
    for dim in (2, 3, 4):
        pts = sphere.seeds(dim, 512)
        assert pts.shape == (512, dim)
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1.0e-12
        again = sphere.seeds(dim, 512)
        assert pts.tobytes() == again.tobytes()
        # crude equidistribution: the mean should be near the origin, and
        # each coordinate's mean square near 1/dim
        assert np.max(np.abs(pts.mean(axis=0))) < 0.05
        assert np.max(np.abs((pts**2).mean(axis=0) - 1.0 / dim)) < 0.02


def test_level_for_monotone():
    for dim in (2, 3, 4):
        lvl = sphere.level_for(dim, 10000)
        assert sphere.grid_size(dim, lvl) >= 10000
        assert lvl == 0 or sphere.grid_size(dim, lvl - 1) < 10000
