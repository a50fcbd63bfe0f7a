"""The zero-set solver against its full-batch and exact oracles.

`newton_oracle` steps every seed in every Newton iteration;
`cluster_oracle` compares every pair by the cosine rule.  The library
skips work whose result it already knows, and must still give the same
bytes, also where a dot lands next to the cosine of a threshold angle.
Against the `pinv` step it replaced, the solver must give the same
counts, verdicts and branches, with representatives within DEDUP_ANGLE.
The jet-tensor gate, `newton_oracle.jet_gate`, recomputes the residual
by an independent route: it must pass every vector the solver keeps on
the bundled and benchmark zero sets, and reject some on a norm whose
closed-form tensor is wrong.  With m = g the zero sets of Randers norms
are known exactly: on SU(2) the solver must find each geodesic ray once,
also where b vanishes on an eigenspace of a and a circle joins them; on
u(2) = su(2) ⊕ R each representative must have its su(2) part parallel
to that of ξ = aX/α(X) + b; and on H3 each must lie on the e3 axis or on the cone
(aX)_3 + α(X)·b_3 = 0, with ±e3 found, and the branches of that exact
set must number what every H3 zero-set scenario expects.  The step's
Cholesky kernel `_spd_solve` is held to np.linalg.solve, and a seed's
Jacobian and step must be bitwise the same alone and in any batch.
"""

import copy
import os
import sys
import tracemalloc

import cluster_oracle
import newton_oracle
import numpy as np
import pytest
import report_drift
from randers_oracle import (
    h3_zero_set,
    h3_zero_set_defect,
    navigation_randers,
    random_randers,
    su2_geodesic_rays,
    su2_zero_set_defect,
)

from finslergeo import cli, lie, norms, scenario, sphere
from finslergeo import geodesic_vectors as gv

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))

import workloads  # noqa: E402

FIELDS = ("representatives", "residual_norms", "branch_labels", "converged_total", "all_seeds_geodesic")


def h3(m=(0, 1, 2)):
    return lie.ReductiveDecomposition(lie.heisenberg3(), m)


def su2(m=(0, 1, 2), h=()):
    return lie.ReductiveDecomposition(lie.su2(), m, h)


def u2():
    c = np.zeros((4, 4, 4))
    c[:3, :3, :3] = lie.su2().c
    return lie.ReductiveDecomposition(lie.LieAlgebraData(4, c), (0, 1, 2, 3))


CASES = {
    "h3-euclidean-a12": (h3(), norms.EuclideanNorm(np.array([[1.0, 0.15, 0.0], [0.15, 1.3, 0.0], [0.0, 0.0, 0.9]]))),
    "h3-randers-b-on-e3": (h3(), norms.RandersNorm(np.eye(3), np.array([0.0, 0.0, 0.3]))),
    "h3-randers-b3-zero": (h3(), norms.RandersNorm(np.eye(3), np.array([0.3, -0.1, 0.0]))),
    "su2-diag-distinct": (su2(), norms.EuclideanNorm(np.diag([0.9, 2.0, 3.1]))),
    "su2-randers": (su2(), norms.RandersNorm(np.eye(3), np.array([0.2, -0.3, 0.1]))),
    "su2-u1-split": (su2((0, 1), (2,)), norms.RandersNorm(np.diag([1.0, 1.7]), np.array([0.2, -0.1]))),
    "u2-m-is-g": (u2(), norms.RandersNorm(np.diag([1.0, 2.0, 3.0, 1.5]), np.array([0.1, 0.0, 0.0, 0.2]))),
}


def assert_same(dec, norm, samples=512):
    found = gv.find_geodesic_vectors(dec, norm, samples=samples, tol=1.0e-9)
    expected = newton_oracle.find_geodesic_vectors(dec, norm, samples=samples, tol=1.0e-9)
    for name in FIELDS:
        assert np.array_equal(getattr(found, name), getattr(expected, name)), name
    assert found.branch_count == expected.branch_count
    return found


@pytest.mark.parametrize("case", sorted(CASES))
def test_solver_matches_full_batch_oracle(case):
    assert_same(*CASES[case])


# Three of the four branches of this zero set are single seeds that land
# on a zero curve.  Where one seed goes along its curve depends on rounding:
# at 512 seeds the two steps put it 1e-9 apart after the first iteration
# and 0.074 rad apart from the fourth on.  The capped slice of the large
# branch differs as well, so only the branches can be paired there.
LONE_SEED_BRANCHES = {"u2-m-is-g"}


def assert_same_branches_within(expected, found, angle):
    """Each representative has its nearest in the other set within angle,
    and nearest neighbours pair the branches one-to-one."""
    dots = expected.representatives @ found.representatives.T
    assert min(dots.max(axis=1).min(), dots.max(axis=0).min()) >= np.cos(angle)
    old, new = np.array(expected.branch_labels), np.array(found.branch_labels)
    pairs = set(zip(old, new[dots.argmax(axis=1)])) | set(zip(old[dots.argmax(axis=0)], new))
    assert len(pairs) == len(set(old)) == len(set(new))


@pytest.mark.parametrize("case", sorted(CASES))
def test_solver_matches_pinv_oracle_within_dedup_angle(case):
    dec, norm = CASES[case]
    found = gv.find_geodesic_vectors(dec, norm, samples=512, tol=1.0e-9)
    expected = newton_oracle.find_geodesic_vectors_pinv(dec, norm, samples=512, tol=1.0e-9)
    for name in ("seeds_total", "converged_total", "branch_count", "all_seeds_geodesic"):
        assert getattr(found, name) == getattr(expected, name), name
    # the scenario verdict: representatives found, each with residual below tol
    assert len(found.representatives) and np.all(found.residual_norms <= 1.0e-9)
    assert len(expected.representatives) and np.all(expected.residual_norms <= 1.0e-9)
    if case == "u2-m-is-g":
        # with m = g this zero set is known exactly, whichever way each seed went
        for result in (found, expected):
            assert np.max(su2_zero_set_defect(norm.a, norm.b, result.representatives)) <= 1.0e-8
    if case in LONE_SEED_BRANCHES:
        assert_same_branches_within(expected, found, gv.BRANCH_ANGLE)
        return
    order, renames = report_drift.match_zero_set(
        expected.representatives.tolist(), expected.branch_labels,
        found.representatives.tolist(), found.branch_labels, gv.DEDUP_ANGLE,
    )
    assert order is not None and renames is not None


def _circle(x3, count=64):
    t = 2.0 * np.pi * np.arange(count) / count
    X = np.stack([np.cos(t), np.sin(t), np.full(count, x3)], axis=-1)
    return X / np.linalg.norm(X, axis=-1, keepdims=True)


def test_damped_step_is_the_minimum_norm_step(monkeypatch):
    dec, norm = CASES["h3-randers-b3-zero"]
    terms = newton_oracle.m_terms(dec)
    # the circle X3 = 0 lies in this zero set; there [J; √w X^T] has
    # singular values (1.3, 0.75, 0), and at X3 = 1e-7 its third is 1.3e-7
    for x3 in (0.0, 1.0e-7):
        X = _circle(x3)
        r, jac = gv._residual(terms, norm, X), gv._jacobian(terms, norm, X)
        step = gv._newton_step(jac, X, r)
        assert np.max(np.abs(step - newton_oracle.pinv_step(jac, X, r))) <= 1.0e-12
    # elsewhere the damping moves the step by up to about lam / s_min^2
    # relative, s_min the smallest singular value of [J; √w X^T]: over these
    # 2048 seeds s_min >= 4.4e-4, and the move is 1.2e-11 in the median
    # and 3.6e-6 at worst
    X = sphere.seeds(3, 2048)
    r, jac = gv._residual(terms, norm, X), gv._jacobian(terms, norm, X)
    step, want = gv._newton_step(jac, X, r), newton_oracle.pinv_step(jac, X, r)
    assert np.all(np.linalg.norm(step - want, axis=-1) <= 1.0e-5 * np.linalg.norm(want, axis=-1))
    # undamped, the normal equations on the circle are exactly singular,
    # so the damping may not be dropped
    X = _circle(0.0)
    r, jac = gv._residual(terms, norm, X), gv._jacobian(terms, norm, X)
    monkeypatch.setattr(gv, "STEP_DAMPING", 0.0)
    with pytest.raises(np.linalg.LinAlgError):
        gv._newton_step(jac, X, r)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_spd_kernel_matches_linalg_solve(n):
    rng = np.random.RandomState(n)
    q, _ = np.linalg.qr(rng.standard_normal((1024, n, n)))
    lam = 10.0 ** rng.uniform(0.0, 3.0, (1024, n))
    a = np.einsum("mij,mj,mkj->mik", q, lam, q)
    a = 0.5 * (a + np.swapaxes(a, 1, 2))
    b = rng.standard_normal((1024, n))
    want = np.linalg.solve(a, b[..., None])[..., 0]
    got = gv._spd_solve(a.transpose(1, 2, 0).copy(), b.T.copy()).T
    # both solves are backward stable, so a row may move by about n·κ·eps
    # relative, κ = max λ / min λ; measured at most 0.79 of that
    kappa = lam.max(axis=1) / lam.min(axis=1)
    rel = np.linalg.norm(got - want, axis=-1) / np.linalg.norm(want, axis=-1)
    assert np.all(rel <= 2.0 * n * kappa * np.finfo(float).eps)


def test_spd_kernel_raises_on_an_exactly_singular_matrix():
    # an exact zero pivot anywhere in the batch raises, as in
    # np.linalg.solve; a NaN matrix gives NaN in its own column alone
    good = np.eye(3)
    singular = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(singular, np.ones(3))
    with pytest.raises(np.linalg.LinAlgError):
        gv._spd_solve(np.stack([good, singular, good], axis=-1), np.ones((3, 3)))
    x = gv._spd_solve(np.stack([good, np.full((3, 3), np.nan), 4.0 * good], axis=-1), np.ones((3, 3)))
    assert np.all(np.isnan(x[:, 1])) and np.array_equal(x[:, [0, 2]], [[1.0, 0.25]] * 3)


def su2_rotated():
    """su(2) in the basis of a fixed random rotation, whose structure
    constants are no longer 0 and ±1, so their products round."""
    q, _ = np.linalg.qr(np.random.RandomState(2).standard_normal((3, 3)))
    c = np.einsum("pi,qj,pqr,rk->ijk", q, q, lie.su2().c, q)
    return lie.ReductiveDecomposition(lie.LieAlgebraData(3, c), (0, 1, 2))


BATCH_CASES = {
    **CASES,
    "su2-rotated-randers": (su2_rotated(), norms.RandersNorm(np.diag([1.0, 2.0, 1.5]), np.array([0.3, 0.1, 0.2]))),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_newton_rows_do_not_depend_on_the_batch(case):
    # every sum over n in the residual, the Jacobian and the step is
    # elementwise and in index order, so a seed's rows are bitwise the same
    # alone, in a batch of 7 and in the batch of all 1024 seeds
    dec, norm = BATCH_CASES[case]
    terms = newton_oracle.m_terms(dec)
    X = sphere.seeds(len(dec.m_indices), 1024)
    r = gv._residual(terms, norm, X)
    jac = gv._jacobian(terms, norm, X)
    step = gv._newton_step(jac, X, r)
    for i in range(0, 1024, 73):
        assert gv._residual(terms, norm, X[i]).tobytes() == r[i].tobytes()
        assert gv._jacobian(terms, norm, X[i]).tobytes() == jac[i].tobytes()
        for rows in (np.array([i]), np.arange(i - 3, i + 4) % 1024):
            sub = gv._jacobian(terms, norm, X[rows])
            at = list(rows).index(i)
            assert gv._residual(terms, norm, X[rows])[at].tobytes() == r[i].tobytes()
            assert sub[at].tobytes() == jac[i].tobytes()
            assert gv._newton_step(sub, X[rows], r[rows])[at].tobytes() == step[i].tobytes()


def test_newton_step_where_the_jacobian_vanishes():
    # on u(2) = su(2) ⊕ R with a diagonal a, the centre e4 has J = 0 (and
    # r = 0, since J X = 2r); the constraint weight trace(JᵀJ)/n is then 0
    # and falls back to 1, so the step is 0 and not a singular solve
    dec, norm = u2(), norms.EuclideanNorm(np.diag([1.0, 2.0, 3.0, 1.5]))
    X = np.array([[0.0, 0.0, 0.0, 1.0]])
    terms = newton_oracle.m_terms(dec)
    r, jac = gv._residual(terms, norm, X), gv._jacobian(terms, norm, X)
    assert not np.any(r) and not np.any(jac)
    assert np.array_equal(gv._newton_step(jac, X, r), np.zeros((1, 4)))


def test_solver_matches_oracle_on_tiny_seed_sets():
    # one to three seeds, where the moving set and the kept vectors can
    # shrink to a single row
    for dec, norm in CASES.values():
        for samples in (1, 2, 3):
            assert_same(dec, norm, samples=samples)


class SkewedRanders(norms.RandersNorm):
    """A Randers norm whose closed-form tensor, and the Legendre map
    μ = ĝ_y y the residual reads, are wrong where y1 > 0.3."""

    BUMP = 1.0e-3 * np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    def fundamental_matrix(self, y):
        g = super().fundamental_matrix(y)
        return g + np.where((np.asarray(y)[..., 0] > 0.3)[..., None, None], self.BUMP, 0.0)

    def legendre(self, y):
        mu = super().legendre(y)
        return mu + np.where((np.asarray(y)[..., 0] > 0.3)[..., None], np.asarray(y) @ self.BUMP, 0.0)


def zero_set_scenarios():
    """Every bundled geodesic-vectors scenario and every geodesic-vectors
    slot of the zero-sets benchmark mix at seed 1."""
    scens = [scenario.parse_scenario(path) for path in scenario.bundled_scenarios()]
    scens += [scenario.scenario_from_dict(copy.deepcopy(item["scenario"])) for item in workloads.generate("zero-sets", 1)]
    return [scen for scen in scens if scen.task == "geodesic-vectors"]


def test_jet_gate_passes_every_kept_representative(monkeypatch):
    # the vectors the dedup keeps, before the cap, in m-coordinates; the
    # solver runs its dedup once per call
    kept = []
    dedup = gv._dedup

    def recorded(candidates, angle):
        kept.append(dedup(candidates, angle))
        return kept[-1]

    monkeypatch.setattr(gv, "_dedup", recorded)
    count = 0
    for scen in zero_set_scenarios():
        dec, tol = scen.split, scen.params["tol"]
        kept.clear()
        gv.find_geodesic_vectors(dec, scen.norm, samples=scen.params["samples"], tol=tol)
        (reps,) = kept
        assert np.all(newton_oracle.jet_gate(dec, scen.norm, reps, tol))
        count += len(reps)
    # 17 scenarios keep 15,095 vectors
    assert count > 10000
    # a closed-form tensor that is wrong where y1 > 0.3 keeps vectors there
    # that its jet tensor, the true one, rejects
    skewed = SkewedRanders(np.diag([1.0, 2.0, 3.0]), np.array([0.1, 0.0, 0.0]))
    kept.clear()
    gv.find_geodesic_vectors(su2(), skewed, samples=512, tol=1.0e-9)
    (reps,) = kept
    passed = newton_oracle.jet_gate(su2(), skewed, reps, 1.0e-9)
    assert not np.all(passed) and np.all(reps[~passed, 0] > 0.3)


def _rotated(v, angle, rng):
    p = rng.standard_normal(v.shape)
    p -= (p @ v) * v
    p /= np.linalg.norm(p)
    return np.cos(angle) * v + np.sin(angle) * p


def _copies(v, angle, rng, count):
    """Vectors at angle (1 - 1e-8) or angle (1 + 1e-8) from v, each
    with a larger first coordinate than v when v's is negative."""
    out = []
    for _ in range(count):
        w = _rotated(v, angle * (1.0 + rng.choice([-1.0e-8, 1.0e-8])), rng)
        out.append(w if w[0] >= v[0] else 2.0 * np.cos(angle) * v - w)
    return out


def test_dedup_in_the_rounding_band_matches_oracle():
    rng = np.random.RandomState(17)
    first = np.array([-0.9, 0.3, 0.3]) / np.linalg.norm([-0.9, 0.3, 0.3])
    # far from the first vector but sorted among its copies, so the first
    # vector's window holds a vector it keeps
    second = np.array([first[0] + 3.0e-4, -0.3, 0.0])
    second[2] = np.sqrt(1.0 - second @ second)
    bases = [first, second] + [w for w in sphere.seeds(3, 16) if w[0] > -0.5][:8]
    for _ in range(20):
        vectors = [w for v in bases for w in [v] + _copies(v, gv.DEDUP_ANGLE, rng, 6)]
        candidates = np.array(vectors)[rng.permutation(len(vectors))]
        assert gv._dedup(candidates, gv.DEDUP_ANGLE)[0] @ first == 1.0
        # at DEDUP_ANGLE a relative margin of 1e-8 moves the dot by about
        # 1e-14, some 90 ulps: near the threshold, yet resolved by the dot
        near = np.abs(np.concatenate([candidates @ v for v in bases]) - np.cos(gv.DEDUP_ANGLE)) <= 2.0e-14
        assert np.sum(near) >= 6 * len(bases)
        kept = gv._dedup(candidates, gv.DEDUP_ANGLE)
        assert np.array_equal(kept, cluster_oracle.dedup(candidates, gv.DEDUP_ANGLE))


@pytest.mark.parametrize("margin", [-1.0e-12, 1.0e-12])
def test_branches_in_the_rounding_band_match_oracle(margin):
    # at BRANCH_ANGLE a relative margin of 1e-12 moves each dot by about
    # 9e-14, some 800 ulps, to either side of the threshold cosine
    rng = np.random.RandomState(23)
    angle = gv.BRANCH_ANGLE
    for _ in range(20):
        pairs = []
        for w in sphere.seeds(3, 12):
            pairs += [w, rng.choice([-1.0, 1.0]) * _rotated(w, angle * (1.0 + margin), rng)]
        reps = np.array(pairs)
        assert cluster_oracle.names(gv._branch_ranks(reps, angle)) == cluster_oracle.branch_labels(reps, angle)
    # a chain of lines with every link that near, searched one line at a time
    chain = [np.array([0.0, 0.6, 0.8])]
    for _ in range(40):
        chain.append(-_rotated(chain[-1], angle * (1.0 + margin), rng))
    chain = np.array(chain)
    assert cluster_oracle.names(gv._branch_ranks(chain, angle)) == cluster_oracle.branch_labels(chain, angle)


@pytest.mark.parametrize("ulps", [-2, -1, 0, 1, 2])
def test_dots_at_the_threshold_cosine_are_decided_by_cosine(ulps):
    # the dot of e1 and (d, s, 0) is d exactly, so a dot at fl(cos(angle))
    # is a duplicate and not a link, and one ulp to either side decides both
    for angle in (gv.DEDUP_ANGLE, 0.05, gv.BRANCH_ANGLE):
        d = np.cos(angle) + ulps * np.spacing(np.cos(angle))
        pair = np.array([[1.0, 0.0, 0.0], [d, np.sqrt(1.0 - d * d), 0.0]])
        kept = gv._dedup(pair, angle)
        labels = cluster_oracle.names(gv._branch_ranks(pair, angle))
        assert len(kept) == (1 if ulps >= 0 else 2) and len(set(labels)) == (1 if ulps > 0 else 2)
        assert np.array_equal(kept, cluster_oracle.dedup(pair, angle))
        assert labels == cluster_oracle.branch_labels(pair, angle)


def test_cap_matches_round_robin_oracle():
    rng = np.random.RandomState(29)
    for _ in range(50):
        reps = sphere.seeds(3, rng.randint(1, 200))
        ranks = gv._branch_ranks(reps, rng.uniform(0.05, 0.6))
        for cap in (1, 7, 64, len(reps)):
            got, got_ranks = gv._cap_round_robin(reps, ranks, cap)
            want, want_labels = cluster_oracle.cap_round_robin(reps, cluster_oracle.names(ranks), cap)
            assert np.array_equal(got, want) and cluster_oracle.names(got_ranks) == want_labels


def test_branch_labels_stay_below_10_mb():
    # the blockwise ranks peak near 7 MB at 4096 seeds; a version that
    # keeps each block of dots alive into the next peaks above 13 MB
    reps = sphere.seeds(3, 4096)
    tracemalloc.start()
    try:
        gv._branch_ranks(reps, gv.BRANCH_ANGLE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_newton_batch_shrinks_to_the_moving_seeds(monkeypatch):
    # the Jacobian, the solver's only norm tensor, is built for the seeds
    # still moving, just before their step
    sizes = []
    jacobian = gv._jacobian

    def counted(terms, norm, Xm):
        sizes.append(len(Xm))
        return jacobian(terms, norm, Xm)

    monkeypatch.setattr(gv, "_jacobian", counted)
    found = gv.find_geodesic_vectors(
        h3(), norms.RandersNorm(np.eye(3), np.array([0.3, -0.1, 0.0])), samples=1024, tol=1.0e-9
    )
    assert sizes[0] == 1024 and len(sizes) > 2
    assert all(later <= earlier for earlier, later in zip(sizes, sizes[1:]))
    # seeds on the circle X3 = 0 stop once their moves fall below rounding;
    # stepped on until they stop bit for bit, the batch takes 26 steps to
    # empty.  Some seeds never converge, so the loop ends early only because
    # the batch is empty
    assert found.converged_total < 1024 and len(sizes) <= 11 < gv.NEWTON_ITERS


def test_solver_finds_the_exact_su2_randers_rays():
    # six generic (a, b): their secular equations have 4, 6, 4, 6, 6 and
    # 2 real roots, so each ray count a Randers norm on SU(2) can have
    rng = np.random.RandomState(0)
    counts = []
    for _ in range(6):
        a, b = random_randers(rng)
        norm = norms.RandersNorm(a, b)
        rays = su2_geodesic_rays(a, b)
        assert np.max(np.abs(gv.residual_batch(su2(), norm, rays))) <= 1.0e-12
        found = gv.find_geodesic_vectors(su2(), norm, samples=2048, tol=1.0e-9)
        # ray for ray: each exact ray has exactly one representative within
        # DEDUP_ANGLE, and no representative is left over
        near = rays @ found.representatives.T >= np.cos(gv.DEDUP_ANGLE)
        assert len(found.representatives) == len(rays)
        assert np.all(near.sum(axis=0) == 1) and np.all(near.sum(axis=1) == 1)
        assert np.all(found.residual_norms <= 1.0e-9)
        counts.append(len(rays))
    assert counts == [4, 6, 4, 6, 6, 2]


def test_solver_finds_the_exact_su2_zero_set_for_degenerate_b():
    # b̃ᵢ = 0 for some eigenvalue dᵢ of a adds the solutions at λ = dᵢ: two
    # eigen-rays for a simple dᵢ, a circle for a double one.  The Zermelo
    # metric's double eigenvalue has b̃ = 0 on its eigenspace, but the
    # circle there is infeasible; its seeds stop at residuals near 9.8e-10,
    # so their defect reaches 2.4e-9 and the pairing is by DEDUP_ANGLE
    cases = [
        (np.diag([1.0, 2.0, 3.0]), np.array([0.0, 0.0, 0.3]), 6, 5),
        (*navigation_randers(np.eye(3), np.array([0.3, -0.4, 0.2])), 2, 1),
        (np.diag([2.0, 2.0, 3.0]), np.array([0.0, 0.0, 0.3]), None, 2),
    ]
    for a, b, ray_count, branches in cases:
        rays = su2_geodesic_rays(a, b)
        assert np.max(su2_zero_set_defect(a, b, rays)) <= 1.0e-14
        found = gv.find_geodesic_vectors(su2(), norms.RandersNorm(a, b), samples=2048, tol=1.0e-9)
        reps = found.representatives
        assert np.max(su2_zero_set_defect(a, b, reps)) <= 1.0e-8
        assert found.branch_count == branches
        near = rays @ reps.T >= np.cos(gv.DEDUP_ANGLE)
        # every isolated ray is found once
        assert np.all(near.sum(axis=1) == 1)
        if ray_count is not None:
            assert len(rays) == len(reps) == ray_count
            assert np.all(near.sum(axis=0) == 1)
    # the circle X₃/|X| = −0.4447 of the double eigenvalue d = 2 holds the rest
    rays = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    assert np.max(np.abs(np.abs(su2_geodesic_rays(*cases[2][:2])) - np.abs(rays))) <= 1.0e-15
    off_poles = reps[np.max(np.abs(reps @ rays.T), axis=1) < np.cos(gv.DEDUP_ANGLE)]
    assert len(off_poles) == len(reps) - 2
    assert np.max(np.abs(off_poles[:, 2] + 0.3 / np.sqrt(0.09 + 0.73 / 2.0))) <= 1.0e-8


def test_solver_stays_on_the_exact_h3_randers_zero_set():
    # the worst distance from the exact zero set is 6.7e-16; ±e3 are
    # isolated, since |b_3| < √a_33 keeps them off the cone
    rng = np.random.RandomState(0)
    for _ in range(8):
        a, b = random_randers(rng, reach=0.9)
        found = gv.find_geodesic_vectors(h3(), norms.RandersNorm(a, b), samples=1024, tol=1.0e-9)
        reps = found.representatives
        assert len(reps) and np.max(h3_zero_set_defect(a, b, reps)) <= 1.0e-12
        for pole in (np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])):
            assert np.max(reps @ pole) >= np.cos(gv.DEDUP_ANGLE)


def exact_h3_branch_count(norm):
    """Branches of the exact H3 zero set of a Euclidean or Randers norm,
    sampled at 720 cone points, clustered as the solver clusters."""
    b = getattr(norm, "b", np.zeros(3))
    points = h3_zero_set(norm.a, b, 720)
    assert np.max(h3_zero_set_defect(norm.a, b, points)) <= 1.0e-12
    return len(set(cluster_oracle.branch_labels(points, gv.BRANCH_ANGLE)))


def test_h3_branch_counts_match_the_exact_zero_set():
    cases = []
    for path in scenario.bundled_scenarios():
        scen = scenario.parse_scenario(path)
        if scen.task == "geodesic-vectors" and scen.model.name == "heisenberg3":
            cases.append((scen.norm, scen.params["expect_branches"]))
    assert len(cases) == 2
    # criterion 4 asserts two branches for a = I
    cases.append((norms.EuclideanNorm(np.eye(3)), 2))
    for seed in (1, 2, 3):
        for item in workloads.generate("zero-sets", seed):
            data = item["scenario"]
            if data["task"] == "geodesic-vectors" and data["model"] == "heisenberg3":
                scen = scenario.scenario_from_dict(copy.deepcopy(data))
                cases.append((scen.norm, item["expect"]["branch_count"]))
    assert len(cases) == 3 + 3 * 6
    for norm, expected in cases:
        assert exact_h3_branch_count(norm) == expected
