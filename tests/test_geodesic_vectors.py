"""Criterion residuals, the sphere solver, and structure checks."""

import copy
import os
import sys

import cluster_oracle
import newton_oracle
import numpy as np
import pytest
from randers_oracle import randers_residual_identity

from finslergeo import geodesic_vectors as gv
from finslergeo import cli, geodesic_flow, lie, norms, scenario, sphere
from finslergeo.errors import DegenerateVector


def h3_dec():
    return lie.ReductiveDecomposition(lie.heisenberg3(), m_indices=(0, 1, 2))


def su2_dec():
    return lie.ReductiveDecomposition(lie.su2(), m_indices=(0, 1, 2))


def eucl3():
    return norms.EuclideanNorm(np.eye(3))


def test_h3_hand_residuals():
    dec = h3_dec()
    norm = eucl3()
    r = gv.residual_batch(dec, norm, np.array([0.0, 0.0, 1.0]))
    assert np.max(np.abs(r)) == 0.0
    r = gv.residual_batch(dec, norm, np.array([1.0, 0.0, 1.0]))
    assert np.array_equal(r, np.array([0.0, 1.0, 0.0]))
    # general pattern: r = (−x2·x3, x1·x3, 0)
    rng = np.random.RandomState(666)
    for _ in range(50):
        x = rng.standard_normal(3)
        r = gv.residual_batch(dec, norm, x)
        expected = np.array([-x[1] * x[2], x[0] * x[2], 0.0])
        assert np.max(np.abs(r - expected)) < 1.0e-14


def test_su2_biinvariant_residuals_vanish():
    dec = su2_dec()
    norm = eucl3()
    rng = np.random.RandomState(31)
    xs = rng.standard_normal((100, 3))
    r = gv.residual_batch(dec, norm, xs)
    assert np.max(np.abs(r)) <= 1.0e-12


def test_degenerate_vector_raises():
    dec = lie.ReductiveDecomposition(lie.su2(), m_indices=(0, 1), h_indices=(2,))
    with pytest.raises(DegenerateVector):
        gv.residual_batch(dec, norms.EuclideanNorm(np.eye(2)), np.array([0.0, 0.0, 1.0]))


def test_scaling_invariance_of_zero_set():
    dec = h3_dec()
    norm = norms.RandersNorm(np.eye(3), np.array([0.3, 0.0, 0.0]))
    rng = np.random.RandomState(12)
    for _ in range(100):
        lam = rng.uniform(0.1, 9.0)
        x_zero = np.array([rng.standard_normal(), rng.standard_normal(), 0.0])
        r = gv.residual_batch(dec, norm, lam * x_zero)
        r1 = gv.residual_batch(dec, norm, x_zero)
        assert (np.linalg.norm(r1) < 1.0e-12) == (np.linalg.norm(r) < 1.0e-11)
        x_bad = rng.standard_normal(3) + np.array([0.0, 0.0, 2.0])
        r = gv.residual_batch(dec, norm, lam * x_bad)
        r1 = gv.residual_batch(dec, norm, x_bad)
        assert np.linalg.norm(r1) > 1.0e-6 and np.linalg.norm(r) > 1.0e-6


def test_jacobian_matches_finite_differences():
    dec = su2_dec()
    norm = norms.RandersNorm(np.diag([1.0, 2.0, 1.5]), np.array([0.3, 0.1, 0.0]))
    rng = np.random.RandomState(7)
    h = 1.0e-6
    eye = np.eye(3)
    for _ in range(10):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        jac = gv._jacobian(newton_oracle.m_terms(dec), norm, x)
        for k in range(3):
            plus = gv.residual_batch(dec, norm, gv._embed_m(dec, x + h * eye[k]))
            minus = gv.residual_batch(dec, norm, gv._embed_m(dec, x - h * eye[k]))
            fd = (plus - minus) / (2.0 * h)
            assert np.max(np.abs(jac[:, k] - fd)) < 1.0e-5


def derivation_h3():
    """R·e4 ⋉ h3, e4 acting by the derivation diag(1, 2, 3):
    [e1, e2] = e3 and [e4, e_i] = i·e_i for i = 1, 2, 3."""
    c = np.zeros((4, 4, 4))
    for i, j, k, value in ((0, 1, 2, 1.0), (3, 0, 0, 1.0), (3, 1, 1, 2.0), (3, 2, 2, 3.0)):
        c[i, j, k], c[j, i, k] = value, -value
    return lie.LieAlgebraData(4, c)


# a reductive split (m, h) of derivation_h3 for each dim m
DERIVATION_SPLITS = {2: ((0, 1), (2, 3)), 3: ((0, 1, 2), (3,)), 4: ((0, 1, 2, 3), ())}


@pytest.mark.parametrize("m_dim", [2, 3, 4])
def test_criterion_matches_three_operand_einsum(m_dim):
    # lie.add_coadjoint over lie.terms against (ad*_u μ)_j = c[i, j, k] u^i μ_k
    # as one einsum, on c, c[:, m, m], c[m, m, m] and c[m, h, m] of a split
    # algebra and on an abelian algebra, whose term list is empty; on
    # batch-last rows, and on lists of floats, each float result bitwise
    # its row; the flow's ad*, read through euler_poincare_rhs with a
    # diagonal ĝ, on the whole of c, held to the scale |u|·|μ|·max|c| of
    # the sum, as the einsum itself rounds under cancellation
    alg = derivation_h3()
    m, h = DERIVATION_SPLITS[m_dim]
    assert lie.jacobi_residual(alg)[0] == 0.0
    scenario._check_split(alg.c, m, h)
    on_h = alg.c[np.ix_(m, h, m)]
    blocks = (alg.c, alg.c[:, m][:, :, m], alg.c[np.ix_(m, m, m)], on_h, lie.abelian(m_dim).c)
    assert lie.terms(blocks[-1]) == []
    rng = np.random.RandomState(m_dim)
    for shape in ((), (5,), (4096,)):
        for block in blocks:
            terms = lie.terms(block)
            u = rng.standard_normal(shape + block.shape[:1])
            mu = rng.standard_normal(shape + block.shape[2:])
            want = np.einsum("ijk,...i,...k->...j", block, u, mu)
            rows = np.zeros(block.shape[1:2] + shape)
            lie.add_coadjoint(terms, np.moveaxis(u, -1, 0), np.moveaxis(mu, -1, 0), rows)
            got = np.moveaxis(rows, 0, -1)
            assert got.shape == want.shape
            if block is on_h:
                # r on e4 is -u1μ1 - 2u2μ2, and - 3u3μ3 when e3 is in m: it cancels
                bound = 1.0e-15 * np.linalg.norm(u, axis=-1) * np.linalg.norm(mu, axis=-1) * np.max(np.abs(alg.c))
            else:
                bound = 1.0e-14 * np.linalg.norm(want, axis=-1)
            assert np.all(np.linalg.norm(got - want, axis=-1) <= bound)
            flat_u, flat_mu, flat_got = (a.reshape(int(np.prod(shape)), a.shape[-1]) for a in (u, mu, got))
            for p in range(0, len(flat_u), 61):
                floats = lie.add_coadjoint(terms, flat_u[p].tolist(), flat_mu[p].tolist(), [0.0] * block.shape[1])
                assert all(type(x) is float for x in floats)
                assert np.array(floats).tobytes() == flat_got[p].tobytes()
        g = np.einsum("...i,ij->...ij", rng.uniform(1.0, 2.0, shape + (4,)), np.eye(4))
        u = rng.standard_normal(shape + (4,))
        mu = np.einsum("...ij,...j->...i", g, u)
        want = np.einsum("ijk,...i,...k->...j", alg.c, u, mu)
        flow = np.einsum("...ij,...j->...i", g, geodesic_flow.euler_poincare_rhs(alg, u, g))
        scale = np.linalg.norm(u, axis=-1) * np.linalg.norm(mu, axis=-1) * np.max(np.abs(alg.c))
        assert flow.shape == want.shape
        assert np.all(np.linalg.norm(flow - want, axis=-1) <= 1.0e-15 * scale)


def test_solver_recovers_h3_branches():
    dec = h3_dec()
    result = gv.find_geodesic_vectors(dec, eucl3(), samples=1024, tol=1.0e-9)
    assert len(result.representatives) > 10
    assert np.all(result.residual_norms <= 1.0e-9)
    labels = set(result.branch_labels)
    assert len(labels) == 2
    has_axis = False
    for rep, label in zip(result.representatives, result.branch_labels):
        on_plane = abs(rep[2]) < 1.0e-6
        on_axis = abs(rep[0]) < 1.0e-6 and abs(rep[1]) < 1.0e-6
        assert on_plane or on_axis
        has_axis = has_axis or on_axis
    assert has_axis
    # plane and axis carry different labels
    axis_labels = {
        label
        for rep, label in zip(result.representatives, result.branch_labels)
        if abs(rep[0]) < 1.0e-6 and abs(rep[1]) < 1.0e-6
    }
    plane_labels = labels - axis_labels
    assert len(axis_labels) == 1 and len(plane_labels) == 1


def test_representatives_hold_no_rounding_noise():
    # the H3 circle X3 = 0: seeds held on it keep x3 at 1e-40 to 1e-20
    # unless the coordinates at most HOLD_STEP are flushed
    norm = norms.RandersNorm(np.eye(3), np.array([0.3, -0.1, 0.0]))
    result = gv.find_geodesic_vectors(h3_dec(), norm, samples=1024, tol=1.0e-9)
    on_circle = np.abs(result.representatives[:, 2]) < 1.0e-6
    assert on_circle.sum() > 10
    assert np.all(result.representatives[on_circle, 2] == 0.0)
    reps = result.representatives
    assert not np.any((reps != 0.0) & (np.abs(reps) <= gv.HOLD_STEP))
    residuals = np.linalg.norm(gv.residual_batch(h3_dec(), norm, reps), axis=-1)
    assert np.array_equal(result.residual_norms, residuals)


def test_solver_whole_sphere_su2(monkeypatch):
    monkeypatch.setattr(gv, "MAX_REPRESENTATIVES", 512)
    dec = su2_dec()
    result = gv.find_geodesic_vectors(dec, eucl3(), samples=512, tol=1.0e-9)
    assert result.converged_total == 512
    assert len(set(result.branch_labels)) == 1
    assert np.all(result.residual_norms <= 1.0e-9)


def test_solver_cap_keeps_all_branches(monkeypatch):
    monkeypatch.setattr(gv, "MAX_REPRESENTATIVES", 16)
    dec = h3_dec()
    result = gv.find_geodesic_vectors(dec, eucl3(), samples=1024, tol=1.0e-9)
    assert len(result.representatives) == 16
    assert len(set(result.branch_labels)) == 2
    assert result.branch_count == 2


def test_branch_count_is_taken_before_the_cap(monkeypatch):
    monkeypatch.setattr(gv, "MAX_REPRESENTATIVES", 1)
    result = gv.find_geodesic_vectors(h3_dec(), eucl3(), samples=1024, tol=1.0e-9)
    assert result.branch_labels == ["branch-1"]
    assert result.branch_count == 2


def test_cap_walks_branches_in_rank_order():
    # 100 lines pi/100 apart on a great circle: 100 singleton branches
    theta = np.pi * np.arange(100) / 100
    reps = np.stack([np.cos(theta), np.sin(theta), np.zeros(100)], axis=1)
    ranks = gv._branch_ranks(reps, 0.03)
    assert len(set(ranks.tolist())) == 100
    _, capped = gv._cap_round_robin(reps, ranks, 64)
    assert cluster_oracle.names(capped) == [f"branch-{k}" for k in range(1, 65)]


def test_all_seeds_geodesic_matches_seed_residuals():
    randers = norms.RandersNorm(np.diag([1.0, 2.0, 3.0]), np.array([0.2, 0.1, 0.0]))
    cases = [(su2_dec(), eucl3(), True), (h3_dec(), eucl3(), False), (su2_dec(), randers, False)]
    for dec, norm, expected in cases:
        result = gv.find_geodesic_vectors(dec, norm, samples=256, tol=1.0e-9)
        seeds = gv._embed_m(dec, sphere.seeds(len(dec.m_indices), 256))
        initial = np.linalg.norm(gv.residual_batch(dec, norm, seeds), axis=-1)
        direct = bool(np.all(initial <= 1.0e-9))
        assert result.all_seeds_geodesic is direct is expected


def _rotated(v, angle, rng):
    """Unit vector at the given angle from the unit vector v."""
    p = rng.standard_normal(v.shape)
    p -= (p @ v) * v
    p /= np.linalg.norm(p)
    return np.cos(angle) * v + np.sin(angle) * p


def _assert_matches_oracle(candidates, dedup_angle=1.0e-3, branch_angle=0.3):
    kept = gv._dedup(candidates, dedup_angle)
    assert np.array_equal(kept, cluster_oracle.dedup(candidates, dedup_angle))
    assert kept.shape[1:] == candidates.shape[1:]
    labels = cluster_oracle.names(gv._branch_ranks(kept, branch_angle))
    assert labels == cluster_oracle.branch_labels(kept, branch_angle)
    return kept, labels


def test_dedup_matches_oracle_at_the_threshold():
    rng = np.random.RandomState(5)
    bases = sphere.seeds(3, 40)
    near, far = [], []
    for v in bases:
        # opposite sides of v in one plane, so near and far are 2e-3 apart
        p = _rotated(v, 0.5 * np.pi, rng)
        near.append(np.cos(1.0e-3 * (1.0 - 1.0e-6)) * v + np.sin(1.0e-3 * (1.0 - 1.0e-6)) * p)
        far.append(np.cos(1.0e-3 * (1.0 + 1.0e-6)) * v - np.sin(1.0e-3 * (1.0 + 1.0e-6)) * p)
    candidates = np.concatenate([bases, near, far])[rng.permutation(120)]
    kept, _ = _assert_matches_oracle(candidates)
    assert len(kept) == 80


def test_branches_match_oracle_across_antipodes():
    rng = np.random.RandomState(9)
    v = np.array([0.0, 0.6, 0.8])
    joined = np.stack([v, -_rotated(v, 0.3 * (1.0 - 1.0e-6), rng)])
    split = np.stack([v, -_rotated(v, 0.3 * (1.0 + 1.0e-6), rng)])
    assert _assert_matches_oracle(joined)[1] == ["branch-1"] * 2
    assert _assert_matches_oracle(split)[1] == ["branch-1", "branch-2"]
    pairs = []
    for w in sphere.seeds(3, 12):
        pairs += [w, -_rotated(w, 0.3 * (1.0 + rng.choice([-1.0e-6, 1.0e-6])), rng)]
    _assert_matches_oracle(np.array(pairs))


def test_branches_match_oracle_on_rings():
    rng = np.random.RandomState(2)
    u, w = np.linalg.qr(rng.standard_normal((3, 2)))[0].T
    theta = 2.0 * np.pi * np.arange(1024) / 1024
    ring = np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * w
    assert set(_assert_matches_oracle(ring)[1]) == {"branch-1"}
    # arcs of equal and unequal length: ties are ranked by their lowest index
    arcs = ring[(theta % (np.pi / 2)) < 0.9]
    _, labels = _assert_matches_oracle(arcs[rng.permutation(len(arcs))], branch_angle=0.05)
    assert len(set(labels)) == 2


def test_branches_match_oracle_on_jittered_antipodes():
    rng = np.random.RandomState(4)
    b = np.array([0.3, -0.4, 0.5]) / np.linalg.norm([0.3, -0.4, 0.5])
    copies = np.where(rng.rand(4096, 1) < 0.5, b, -b) + 5.0e-4 * rng.standard_normal((4096, 3))
    copies /= np.linalg.norm(copies, axis=-1, keepdims=True)
    kept, labels = _assert_matches_oracle(copies)
    assert 2 < len(kept) < 4096 and set(labels) == {"branch-1"}
    subset = copies[:256]
    assert cluster_oracle.names(gv._branch_ranks(subset, 0.3)) == cluster_oracle.branch_labels(subset, 0.3)


def test_branches_match_oracle_on_singletons():
    theta = np.pi * np.arange(200) / 200
    lines = np.stack([np.cos(theta), np.zeros(200), np.sin(theta)], axis=1)
    lines = lines[np.random.RandomState(1).permutation(200)]
    kept, labels = _assert_matches_oracle(lines, branch_angle=0.01)
    assert len(kept) == 200 and len(set(labels)) == 200


def test_dedup_and_branches_match_oracle_on_tiny_inputs():
    kept, labels = _assert_matches_oracle(np.zeros((0, 3)))
    assert kept.shape == (0, 3) and labels == []
    kept, labels = _assert_matches_oracle(np.array([[0.0, 1.0, 0.0]]))
    assert len(kept) == 1 and labels == ["branch-1"]


def test_whole_sphere_at_scale_is_one_branch(monkeypatch):
    monkeypatch.setattr(gv, "MAX_REPRESENTATIVES", 4096)
    result = gv.find_geodesic_vectors(su2_dec(), eucl3(), samples=4096, tol=1.0e-9)
    assert len(result.representatives) == 4096
    assert set(result.branch_labels) == {"branch-1"} and result.branch_count == 1


def test_grid_scan_h3_zero_set():
    # brute force over a 50³ grid containing exact axis and plane points
    dec = h3_dec()
    norm = eucl3()
    axis = (np.arange(50) - 24.0) / 25.0
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    grid = grid[np.linalg.norm(grid, axis=-1) > 0.0]
    r = np.linalg.norm(gv.residual_batch(dec, norm, grid), axis=-1)
    on_zero_set = (np.abs(grid[:, 2]) == 0.0) | (
        (np.abs(grid[:, 0]) == 0.0) & (np.abs(grid[:, 1]) == 0.0)
    )
    assert np.all(r[on_zero_set] <= 1.0e-12)
    assert np.min(r[~on_zero_set]) > 1.0e-4


def test_minkowski_lie_checker():
    tol = scenario.TASKS["check-minkowski-lie"].params["tol"].default
    report = gv.check_minkowski_lie_algebra(lie.su2(), eucl3(), samples=200, seed=0)
    assert report.max_residual <= tol and report.max_residual <= 1.0e-10
    report = gv.check_minkowski_lie_algebra(lie.heisenberg3(), eucl3(), samples=200, seed=0)
    assert report.max_residual > tol
    assert report.max_residual > 1.0e-2
    assert set(report.witness) == {"y", "x", "u", "v"}
    randers = norms.RandersNorm(np.eye(3), np.array([0.2, 0.2, 0.0]))
    report = gv.check_minkowski_lie_algebra(lie.abelian(3), randers, samples=100, seed=1)
    assert report.max_residual == 0.0


def test_naturally_reductive_checker():
    tol = scenario.TASKS["check-nat-reductive"].params["tol"].default
    report = gv.check_naturally_reductive(su2_dec(), eucl3(), samples=200, seed=0)
    assert report.max_residual <= 1.0e-10
    report = gv.check_naturally_reductive(h3_dec(), eucl3(), samples=200, seed=0)
    assert report.max_residual > tol
    # skewed inner product on su(2) is not ad-invariant
    skew = norms.EuclideanNorm(np.diag([1.0, 2.0, 3.0]))
    report = gv.check_naturally_reductive(su2_dec(), skew, samples=200, seed=0)
    assert report.max_residual > tol


def embedded_identity(dec, norm, samples, seed, x=None):
    """The natural-reductivity residual per sample on embedded vectors, with
    full brackets projected to m and x drawn in m or fixed at one vector of
    g: an independent route to check_naturally_reductive and, with x = Z in
    h, to the Ad(H)-invariance of the norm on m."""
    idx = list(dec.m_indices)
    rng = np.random.RandomState(seed)
    ym = gv._sample_nonzero(rng, samples, len(idx))
    xm, um, vm = (rng.standard_normal((samples, len(idx))) for _ in range(3))
    y, u, v = (gv._embed_m(dec, w) for w in (ym, um, vm))
    xs = gv._embed_m(dec, xm) if x is None else np.asarray(x, dtype=float)
    xu, xv, xy = (lie.bracket(dec.algebra, xs, w)[..., idx] for w in (u, v, y))
    g, cart = norm.fundamental_matrix(ym), norm.cartan(ym)
    return (
        np.einsum("...p,...pq,...q->...", xu, g, vm)
        + np.einsum("...p,...pq,...q->...", um, g, xv)
        + 2.0 * np.einsum("...pqr,...p,...q,...r->...", cart, xy, um, vm)
    )


def su2_plus_r():
    c = np.zeros((4, 4, 4))
    c[:3, :3, :3] = lie.su2().c
    return lie.LieAlgebraData(4, c)


def test_naturally_reductive_check_matches_the_embedded_route():
    # with m = g the operands are the embedded route's, bit for bit; on a
    # split the h-terms of the full bracket are zeros
    randers = norms.RandersNorm(np.diag([1.0, 2.0, 3.0]), np.array([0.2, -0.1, 0.3]))
    for dec, norm in ((su2_dec(), eucl3()), (h3_dec(), randers), (su2_dec(), randers)):
        report = gv.check_naturally_reductive(dec, norm, samples=200, seed=4)
        assert report.max_residual == np.max(np.abs(embedded_identity(dec, norm, 200, 4)))
    for m, h in (((0, 1), (2, 3)), ((0, 1, 3), (2,))):
        dec = lie.ReductiveDecomposition(su2_plus_r(), m_indices=m, h_indices=h)
        norm = norms.RandersNorm(np.eye(len(m)), 0.3 * np.eye(len(m))[-1])
        report = gv.check_naturally_reductive(dec, norm, samples=200, seed=4)
        assert abs(report.max_residual - np.max(np.abs(embedded_identity(dec, norm, 200, 4)))) <= 1.0e-14
        assert all(len(report.witness[key]) == len(m) for key in "xyuv")


def test_ad_h_breach_agrees_with_the_identity_at_x_equal_z():
    # the h-block of the criterion against the second-order identity with
    # x fixed at each basis vector Z of h and an absolute bound 1e-10, on
    # random norms.  exp(t·e3) rotates (e1, e2) and fixes the central e4, so
    # a norm is invariant under it when it is round on (e1, e2) with b on e4
    # alone, and every norm is invariant when h = {e4}
    rng = np.random.RandomState(7)

    def spd(n):
        q = rng.standard_normal((n, n))
        return q @ q.T + np.eye(n)

    for _ in range(8):
        lam, mu, beta = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5)
        cases = [
            (lie.su2(), (0, 1), (2,), norms.EuclideanNorm(lam * np.eye(2)), True),
            (lie.su2(), (0, 1), (2,), norms.EuclideanNorm(spd(2)), False),
            (lie.su2(), (0, 1), (2,), norms.RandersNorm(lam * np.eye(2), 0.2 * rng.standard_normal(2)), False),
            (su2_plus_r(), (0, 1), (3, 2), norms.EuclideanNorm(spd(2)), False),
            (su2_plus_r(), (0, 1, 2), (3,), norms.RandersNorm(spd(3), 0.2 * rng.standard_normal(3)), True),
            (su2_plus_r(), (0, 1, 3), (2,), norms.RandersNorm(np.diag([lam, lam, mu]), [0.0, 0.0, beta]), True),
            (su2_plus_r(), (0, 1, 3), (2,), norms.RandersNorm(spd(3), 0.2 * rng.standard_normal(3)), False),
        ]
        for alg, m, h, norm, invariant in cases:
            dec = lie.ReductiveDecomposition(alg, m_indices=m, h_indices=h)
            basis = np.eye(alg.dim)
            old = max(np.max(np.abs(embedded_identity(dec, norm, 64, 0, x=basis[z]))) for z in h)
            new = gv.ad_h_breach(dec, norm)
            assert (old > 1.0e-10) == (new is not None) == (not invariant)


def test_structure_checks_agree_with_the_zero_set_and_berwald():
    # the natural-reductivity identity is the y-Hessian of g_y(y, [x, y]_m),
    # which is 2-homogeneous in y, so on m = g it holds exactly when every y
    # is a geodesic vector; and a naturally reductive space is Berwald
    # (Deng and Hou, Manuscripta Math. 131, 2010)
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))
    import workloads

    cases = [scenario.parse_scenario(path) for path in scenario.bundled_scenarios()]
    cases += [
        scenario.scenario_from_dict(copy.deepcopy(item["scenario"]))
        for workload in workloads.WORKLOADS
        for seed in (1, 2, 3)
        for item in workloads.generate(workload, seed)
    ]
    verdicts = []
    for scen in cases:
        if scen.task not in ("check-nat-reductive", "check-minkowski-lie") or scen.split.h_indices:
            continue
        passed = cli.run_scenario(scen).payload["check_passed"]
        zero_set = gv.find_geodesic_vectors(scen.split, scen.norm, samples=1024, tol=1.0e-9)
        assert passed == zero_set.all_seeds_geodesic
        if passed and scen.model is not None:
            assert geodesic_flow.berwald_test(scen.model, scen.norm, scen.model.identity(), samples=8) <= 1.0e-14
        verdicts.append(passed)
    assert len(verdicts) >= 40 and 10 <= verdicts.count(False) < len(verdicts)


def test_riemannian_reduction_matches_classical_form():
    # with C ≡ 0 the checker residual is the classical bilinear condition
    dec = su2_dec()
    a = np.diag([1.0, 2.0, 3.0])
    norm = norms.EuclideanNorm(a)
    rng = np.random.RandomState(3)
    for _ in range(100):
        y = rng.standard_normal(3)
        x, u, v = rng.standard_normal((3, 3))
        g = norm.fundamental_matrix(y)
        checker_form = (
            lie.bracket(dec.algebra, x, u) @ g @ v + u @ g @ lie.bracket(dec.algebra, x, v)
        )
        classical = lie.bracket(dec.algebra, x, u) @ a @ v + u @ a @ lie.bracket(dec.algebra, x, v)
        assert abs(checker_form - classical) <= 1.0e-12


def test_randers_identity_random_tuples():
    rng = np.random.RandomState(666)
    decs = [h3_dec(), su2_dec()]
    worst = 0.0
    for trial in range(1000):
        dec = decs[trial % 2]
        m = rng.standard_normal((3, 3))
        a = m @ m.T + 3.0 * np.eye(3)
        direction = rng.standard_normal(3)
        xnorm = np.sqrt(direction @ a @ direction)
        xfield = direction / xnorm * rng.uniform(0.1, 0.9)
        y = rng.standard_normal(3)
        z = rng.standard_normal(3)
        lhs, rhs = randers_residual_identity(dec, a, xfield, y, z)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1.0e-9


def test_randers_identity_degenerate_cases():
    dec = h3_dec()
    a = np.eye(3)
    # [y, z] = 0 makes both sides vanish
    y = np.array([0.0, 0.0, 1.3])
    z = np.array([0.2, -0.4, 0.9])
    lhs, rhs = randers_residual_identity(dec, a, np.array([0.3, 0.0, 0.0]), y, z)
    assert lhs == 0.0 and rhs == 0.0
    # zero field reduces to the Riemannian inner product
    y = np.array([1.0, 0.5, -0.3])
    z = np.array([0.4, 1.0, 0.0])
    lhs, rhs = randers_residual_identity(dec, a, np.zeros(3), y, z)
    w = lie.bracket(dec.algebra, y, z)
    assert abs(lhs - y @ w) < 1.0e-12
    assert abs(rhs - y @ w) < 1.0e-12
    with pytest.raises(DegenerateVector):
        randers_residual_identity(
            lie.ReductiveDecomposition(lie.su2(), (0, 1), (2,)),
            np.eye(2),
            np.zeros(2),
            np.array([0.0, 0.0, 1.0]),
            np.ones(3),
        )
