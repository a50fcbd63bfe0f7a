"""Norm tensors against finite-difference and hand oracles."""

import math

import numpy as np
import pytest

from finslergeo import jets, norms
from finslergeo.errors import (
    DimensionMismatch,
    NonConvexNorm,
    NotPositiveDefinite,
    SingularTensor,
    ZeroVector,
)

import jet_norms
from group_oracle import legendre_dual


def random_spd(rng, n, scale=1.0):
    m = rng.standard_normal((n, n))
    return scale * (m @ m.T + n * np.eye(n))


def random_randers(rng, n, b_cap=0.9):
    a = random_spd(rng, n)
    direction = rng.standard_normal(n)
    b_sharp = direction / np.sqrt(direction @ a @ direction)
    b = a @ b_sharp * rng.uniform(0.2, b_cap)
    return norms.RandersNorm(a, b)


def random_y(rng, n):
    y = rng.standard_normal(n)
    return y / np.linalg.norm(y) * rng.uniform(0.5, 2.0)


def fd_hessian_half_f2(norm, y, h=1.0e-4):
    # central second differences of F²/2, the independent oracle for g_y
    n = norm.dim
    eye = np.eye(n)

    def f2(z):
        return norm.value(z) ** 2

    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = (
                f2(y + h * (eye[i] + eye[j]))
                - f2(y + h * (eye[i] - eye[j]))
                - f2(y - h * (eye[i] - eye[j]))
                + f2(y - h * (eye[i] + eye[j]))
            ) / (4.0 * h * h)
    return 0.5 * out


def fd_third_quarter_f2(norm, y, h=1.0e-2):
    # third central differences of F²/4 with one Richardson step
    n = norm.dim
    eye = np.eye(n)

    def f2(z):
        return norm.value(z) ** 2

    def stencil(step):
        out = np.empty((n, n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    total = 0.0
                    for si in (1, -1):
                        for sj in (1, -1):
                            for sk in (1, -1):
                                z = y + step * (si * eye[i] + sj * eye[j] + sk * eye[k])
                                total += si * sj * sk * f2(z)
                    out[i, j, k] = total / (8.0 * step**3)
        return out

    return 0.25 * ((4.0 * stencil(h / 2.0) - stencil(h)) / 3.0)


def quartic_norm():
    # smooth, strongly convex, not Randers: F² = |y|² + 0.05 (y1² - y2²)² / |y|²
    def f2(yj):
        q = jets.dot(yj, yj)
        d = yj[0] * yj[0] - yj[1] * yj[1]
        return q + 0.05 * d * d / q

    return norms.CustomNorm(3, f2)


def test_known_values():
    e2 = norms.EuclideanNorm(np.eye(2))
    assert e2.value(np.array([3.0, 4.0])) == 5.0
    r = norms.RandersNorm(np.eye(2), np.array([0.5, 0.0]))
    assert abs(r.value(np.array([1.0, 0.0])) - 1.5) < 1.0e-15
    g = r.fundamental_matrix(np.array([1.0, 0.0]))
    y = np.array([1.0, 0.0])
    assert abs(y @ g @ y - 2.25) < 1.0e-12


def test_homogeneity():
    rng = np.random.RandomState(666)
    pool = [
        norms.EuclideanNorm(random_spd(rng, 3)),
        random_randers(rng, 3),
        random_randers(rng, 2),
        quartic_norm(),
    ]
    for _ in range(1000):
        norm = pool[rng.randint(len(pool))]
        y = random_y(rng, norm.dim)
        t = rng.uniform(0.1, 10.0)
        fy = norm.value(y)
        assert abs(norm.value(t * y) - t * fy) <= 1.0e-12 * t * fy


def test_zero_vector_conventions():
    r = norms.RandersNorm(np.eye(2), np.array([0.3, 0.1]))
    assert r.value(np.zeros(2)) == 0.0
    with pytest.raises(ZeroVector):
        r.fundamental_matrix(np.zeros(2))
    with pytest.raises(ZeroVector):
        r.cartan(np.zeros(2))
    with pytest.raises(DimensionMismatch):
        r.value(np.ones(3))


def test_randers_closed_form_vs_fd_hessian():
    rng = np.random.RandomState(20240)
    worst = 0.0
    for trial in range(100):
        n = 2 + trial % 2
        norm = random_randers(rng, n)
        y = random_y(rng, n)
        closed = norm.fundamental_matrix(y)
        oracle = fd_hessian_half_f2(norm, y)
        worst = max(worst, np.max(np.abs(closed - oracle)))
    assert worst < 1.0e-6


def test_randers_closed_form_vs_jet_path():
    rng = np.random.RandomState(31)
    for _ in range(50):
        n = 2 + rng.randint(2)
        norm = random_randers(rng, n)
        y = random_y(rng, n)
        closed = norm.fundamental_matrix(y)
        generic = norms.MinkowskiNorm._generic_fundamental(jet_norms.of(norm), y)
        assert np.max(np.abs(closed - generic)) < 1.0e-12
        c_closed = norm.cartan(y)
        c_generic = norms.MinkowskiNorm._generic_cartan(jet_norms.of(norm), y)
        assert np.max(np.abs(c_closed - c_generic)) < 1.0e-12


def test_randers_cartan_vs_fd_oracle():
    # mild instance: absolute agreement
    norm = norms.RandersNorm(np.eye(2), np.array([0.5, 0.0]))
    y = np.array([1.0, 1.0])
    closed = norm.cartan(y)
    oracle = fd_third_quarter_f2(norm, y)
    assert np.max(np.abs(closed - oracle)) < 1.0e-6
    # random instances: FD noise scales with the tensor, so compare relatively
    rng = np.random.RandomState(88)
    for _ in range(10):
        n = 2 + rng.randint(2)
        norm = random_randers(rng, n)
        y = random_y(rng, n)
        closed = norm.cartan(y)
        oracle = fd_third_quarter_f2(norm, y)
        scale = max(1.0, np.max(np.abs(closed)))
        assert np.max(np.abs(closed - oracle)) < 1.0e-6 * scale


def test_euclidean_tensors_exact():
    rng = np.random.RandomState(5)
    a = random_spd(rng, 3)
    norm = jet_norms.EuclideanNorm(a)
    for _ in range(20):
        y = random_y(rng, 3)
        assert np.max(np.abs(norm.fundamental_matrix(y) - a)) == 0.0
        assert np.max(np.abs(norm.cartan(y))) == 0.0
        generic = norms.MinkowskiNorm._generic_fundamental(norm, y)
        assert np.max(np.abs(generic - a)) < 1.0e-12
        c_gen = norms.MinkowskiNorm._generic_cartan(norm, y)
        assert np.max(np.abs(c_gen)) < 1.0e-12


def test_euler_identities():
    rng = np.random.RandomState(13)
    pool = [
        jet_norms.EuclideanNorm(random_spd(rng, 2)),
        jet_norms.of(random_randers(rng, 3)),
        quartic_norm(),
    ]
    for norm in pool:
        for _ in range(50):
            y = random_y(rng, norm.dim)
            g = norm.fundamental_matrix(y)
            f = norm.value(y)
            assert abs(y @ g @ y - f * f) <= 1.0e-10 * f * f
            # g_y(y, v) = F(y) dF_y(v) for arbitrary v
            v = rng.standard_normal(norm.dim)
            vj = jets.variable(y, [v])
            df = jets.sqrt(norm.value2_jet(vj)).coeff(1)
            assert abs(y @ g @ v - f * df) < 1.0e-8 * max(1.0, abs(f * df))


def test_cartan_symmetry_and_radial_vanishing():
    rng = np.random.RandomState(404)
    pool = [random_randers(rng, 2), random_randers(rng, 3), quartic_norm()]
    for norm in pool:
        for _ in range(30):
            y = random_y(rng, norm.dim)
            c = norm.cartan(y)
            for axes in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
                assert np.max(np.abs(c - np.transpose(c, axes))) < 1.0e-10
            g = norm.fundamental_matrix(y)
            radial = np.einsum("ijk,i->jk", c, y)
            assert np.max(np.abs(radial)) <= 1.0e-10 * np.max(np.abs(g))


def test_randers_validation():
    accepted = norms.RandersNorm(np.diag([4.0, 1.0]), np.array([0.9, 0.0]))
    assert abs(accepted.b_norm - 0.45) < 1.0e-15
    with pytest.raises(NonConvexNorm) as info:
        norms.RandersNorm(np.eye(2), np.array([1.0, 0.0]))
    assert "‖b‖ < 1" in str(info.value)
    assert info.value.b_norm >= 1.0
    with pytest.raises(NotPositiveDefinite):
        norms.RandersNorm(np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2))
    riemannian = norms.RandersNorm(np.eye(3), np.zeros(3))
    y = np.array([0.3, -1.2, 0.4])
    assert np.max(np.abs(riemannian.cartan(y))) < 1.0e-14
    assert abs(riemannian.value(y) - np.linalg.norm(y)) < 1.0e-15


def test_custom_norm_tensors():
    norm = quartic_norm()
    rng = np.random.RandomState(17)
    for _ in range(20):
        y = random_y(rng, 3)
        g = norm.fundamental_matrix(y)
        np.linalg.cholesky(g)
        oracle = fd_hessian_half_f2(norm, y)
        assert np.max(np.abs(g - oracle)) < 1.0e-5
        c = norm.cartan(y)
        oracle3 = fd_third_quarter_f2(norm, y)
        assert np.max(np.abs(c - oracle3)) < 1.0e-5
    assert np.max(np.abs(norm.cartan(np.array([1.0, 1.0, 0.3])))) > 1.0e-3


def test_custom_norm_rejects_nonconvex():
    # F² = (|y|²)² / |y|² is fine; make one with an indefinite Hessian instead
    def bad_f2(yj):
        q = jets.dot(yj, yj)
        d = yj[0] * yj[0] - yj[1] * yj[1]
        return q + 5.0 * d * d / q

    norm = norms.CustomNorm(2, bad_f2)
    with pytest.raises(SingularTensor):
        norm.fundamental_matrix(np.array([1.0, 0.05]))
    # one indefinite point in a batch rejects the whole batch
    assert np.linalg.eigvalsh(norm.fundamental_matrix(np.array([[1.0, 1.0], [1.0, -1.0]]))).min() > 0.0
    with pytest.raises(SingularTensor):
        norm.fundamental_matrix(np.array([[1.0, 1.0], [1.0, 0.05], [1.0, -1.0]]))


def test_batched_matches_single():
    rng = np.random.RandomState(3)
    norm = random_randers(rng, 3)
    ys = np.stack([random_y(rng, 3) for _ in range(7)])
    gb = norm.fundamental_matrix(ys)
    cb = norm.cartan(ys)
    for k in range(7):
        # reduction order differs between batched and single einsum paths
        assert np.max(np.abs(gb[k] - norm.fundamental_matrix(ys[k]))) < 1.0e-13
        assert np.max(np.abs(cb[k] - norm.cartan(ys[k]))) < 1.0e-13
    vals = norm.value(ys)
    for k in range(7):
        assert abs(vals[k] - norm.value(ys[k])) < 1.0e-14


@pytest.mark.parametrize("n", [2, 3, 4])
def test_randers_tensor_rows_do_not_depend_on_the_batch(n):
    # every sum over n is elementwise and in index order, so a vector's g
    # is bitwise the same alone, as (1, n), in (7, n) and in (2, 3, n)
    rng = np.random.RandomState(11 + n)
    norm = random_randers(rng, n)
    ys = np.stack([random_y(rng, n) for _ in range(7)])
    batch, grid = norm.fundamental_matrix(ys), norm.fundamental_matrix(ys[:6].reshape(2, 3, n))
    assert batch.shape == (7, n, n) and grid.shape == (2, 3, n, n)
    for k in range(7):
        alone, row = norm.fundamental_matrix(ys[k]), norm.fundamental_matrix(ys[k : k + 1])
        assert alone.shape == (n, n) and row.shape == (1, n, n)
        assert row[0].tobytes() == alone.tobytes() and batch[k].tobytes() == alone.tobytes()
        if k < 6:
            assert grid[k // 3, k % 3].tobytes() == alone.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_value_and_legendre_rows_do_not_depend_on_the_batch(n):
    # value, alpha, beta, the Legendre map and the Randers Cartan tensor
    # take each sum over n in index order on the batch-last rows, never a
    # BLAS product, so of 600 random vectors each is bitwise the same
    # alone as in the batch
    rng = np.random.RandomState(31 + n)
    ys = rng.standard_normal((600, n)) * rng.uniform(0.1, 10.0, (600, 1))
    randers = random_randers(rng, n)
    cases = [
        (norms.EuclideanNorm(random_spd(rng, n)), ("value", "legendre")),
        (randers, ("value", "alpha", "beta", "legendre", "cartan")),
    ]
    for norm, names in cases:
        for name in names:
            method = getattr(norm, name)
            batch, grid = method(ys), method(ys.reshape(20, 30, n))
            assert grid.shape == (20, 30) + batch.shape[1:]
            for k in range(600):
                alone = method(ys[k])
                assert batch[k].tobytes() == alone.tobytes()
                assert grid[k // 30, k % 30].tobytes() == alone.tobytes()


def test_closed_form_norms_carry_no_jet_form():
    # Euclidean and Randers norms carry their closed forms only; F² on
    # jets is the tests' oracle (jet_norms), and the base class has no
    # tensor or Legendre map for a subclass to fall back on
    for cls in (norms.EuclideanNorm, norms.RandersNorm):
        assert "value2_jet" not in vars(cls)
    for name in ("fundamental_matrix", "cartan", "legendre"):
        assert name not in vars(norms.MinkowskiNorm)
        for cls in (norms.EuclideanNorm, norms.RandersNorm, norms.CustomNorm):
            assert name in vars(cls)


def randers_from_separate_sums(norm, y):
    """μ, g and C of a Randers norm with p = a y from `_times(a, ·)` and
    β = b·y from `ordered_dot(b, ·)`, each summed on its own."""
    yt = norms._batch_last(y)
    p = norms._times(norm.a, yt)
    alpha2 = norms.ordered_dot(yt, p)
    beta = norms.ordered_dot(norm.b, yt)
    alpha = np.sqrt(alpha2)
    q = p / alpha
    l = q + norm.b[:, None]
    mu = l * (beta + alpha)
    g = (norm.a[:, :, None] - q[:, None] * q) * ((alpha + beta) / alpha) + l[:, None] * l
    u = norm.b[:, None] / alpha - (beta / (alpha2 * alpha)) * p
    uh = u[:, None, None] * (norm.a[:, :, None] - p[:, None] * p / alpha2)
    c = 0.5 * (uh + uh.transpose(1, 0, 2, 3) + uh.transpose(1, 2, 0, 3))
    n = norm.dim
    return {
        "legendre": mu.T.reshape(y.shape),
        "fundamental_matrix": g.transpose(2, 0, 1).reshape(y.shape + (n,)),
        "cartan": c.transpose(3, 0, 1, 2).reshape(y.shape + (n, n)),
    }


@pytest.mark.parametrize("n", [2, 3, 4])
def test_randers_one_pass_matches_separate_sums(n):
    # legendre, fundamental_matrix and cartan take p, α² and β from one
    # pass of y @ [a | b]; β as its last row must round as b·y alone
    rng = np.random.RandomState(90 + n)
    norm = random_randers(rng, n)
    for shape in ((n,), (1, n), (64, n), (4, 5, n)):
        y = rng.standard_normal(shape) * rng.uniform(0.1, 10.0)
        want = randers_from_separate_sums(norm, y)
        for name, value in want.items():
            got = getattr(norm, name)(y)
            assert got.shape == value.shape and got.tobytes() == value.tobytes()


def test_legendre_dual_round_trip():
    # μ = ĝ_u u is the Legendre map: the closed form must equal ĝ_u u from
    # the closed-form tensor and from the jet tensor, and the dual, compiled
    # from the norm's dual lines, must invert it
    rng = np.random.RandomState(41)
    worst_mu = worst_u = 0.0
    for trial in range(200):
        n = 2 + trial % 2
        norm = norms.EuclideanNorm(random_spd(rng, n)) if trial % 5 == 0 else random_randers(rng, n)
        us = np.stack([random_y(rng, n) for _ in range(8)])
        mu = norm.legendre(us)
        for g in (norm.fundamental_matrix(us), jet_norms.of(norm)._generic_fundamental(us)):
            other = np.einsum("...ij,...j->...i", g, us)
            worst_mu = max(worst_mu, np.max(np.linalg.norm(mu - other, axis=-1) / np.linalg.norm(mu, axis=-1)))
        dual = legendre_dual(norm)
        back = np.stack([dual(m) for m in mu])
        worst_u = max(worst_u, np.max(np.linalg.norm(back - us, axis=-1) / np.linalg.norm(us, axis=-1)))
    # measured 2.0e-15 against the closed-form ℓ-form tensor, whose g y is
    # F·l by construction, and 2.8e-15 against the jet tensor
    assert worst_mu <= 2.0e-14
    assert worst_u <= 1.0e-13


def test_legendre_default_is_the_tensor_route():
    # a jet-defined norm takes the base-class Legendre map, ĝ_y y from its
    # jet tensor, which central differences of ½F² confirm as ½∇F²
    norm = quartic_norm()
    rng = np.random.RandomState(43)
    ys = np.stack([random_y(rng, 3) for _ in range(8)])
    mu = norm.legendre(ys)
    assert np.array_equal(mu, np.einsum("...ij,...j->...i", norm.fundamental_matrix(ys), ys))
    h, eye = 1.0e-5, np.eye(3)
    grad = np.stack([(norm.value(ys + h * e) ** 2 - norm.value(ys - h * e) ** 2) / (4.0 * h) for e in eye], axis=-1)
    assert np.max(np.abs(mu - grad)) <= 1.0e-8
    with pytest.raises(ZeroVector):
        norm.legendre(np.zeros(3))


def plain_dot(xs, ys):
    """Σ x·y over lists of floats, added in index order from 0, as `sum()`
    adds before Python 3.12, whose float sums are compensated."""
    total = 0
    for x, y in zip(xs, ys):
        total += x * y
    return total


def hand_written_dual(norm, mu):
    """The Legendre dual as sums over lists of floats, each sum over n a
    `plain_dot` against a column of a⁻¹ or H, or W, formed from the
    norm's a and b."""
    mu = np.asarray(mu, dtype=float).tolist()
    if isinstance(norm, norms.RandersNorm):
        b_sharp = np.linalg.solve(norm.a, norm.b)
        lam = 1.0 - norm.b @ b_sharp
        columns = ((np.linalg.inv(norm.a) + np.outer(b_sharp, b_sharp) / lam) / lam).T.tolist()
        shift = (-b_sharp / lam).tolist()
        h = [plain_dot(mu, col) for col in columns]
        root = math.sqrt(plain_dot(mu, h))
        s = root + plain_dot(mu, shift)
        scale = s / root
        return [scale * hj + s * wj for hj, wj in zip(h, shift)]
    return [plain_dot(mu, col) for col in np.linalg.inv(norm.a).T.tolist()]


def test_legendre_dual_is_the_hand_written_sum():
    # the norm's dual lines, which the flow's step loop pastes in, compiled
    # by the flow's helper: they must be the plain sums bit for bit, on
    # random covectors and on the axes, where ±0.0 products occur
    rng = np.random.RandomState(53)
    for trial in range(60):
        n = 2 + trial % 3
        a = random_spd(rng, n)
        cases = [norms.EuclideanNorm(a), norms.EuclideanNorm(np.diag(np.diag(a))), random_randers(rng, n)]
        covectors = [rng.standard_normal(n), np.eye(n)[trial % n], -np.eye(n)[(trial + 1) % n]]
        for norm in cases:
            dual = legendre_dual(norm)
            for mu in covectors:
                # bytes, so that a zero's sign counts too
                assert np.array(dual(mu)).tobytes() == np.array(hand_written_dual(norm, mu)).tobytes()


def test_legendre_dual_needs_closed_form():
    # a jet-defined norm has no closed-form dual, and says so
    with pytest.raises(NotImplementedError):
        legendre_dual(quartic_norm())
    with pytest.raises(NotImplementedError):
        legendre_dual(norms.MinkowskiNorm(2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quadratic_matches_three_operand_einsum(n):
    # the quadratic form is a nested sum of elementwise products on the
    # batch-last rows; the three-operand einsum sums the products of
    # y_i·a_ij·y_j in another order
    rng = np.random.RandomState(70 + n)
    a = random_spd(rng, n)
    eps = np.finfo(float).eps
    for shape in ((n,), (256, n), (16, 8, n)):
        y = rng.standard_normal(shape)
        got = norms._quadratic(y, a)
        want = np.einsum("...i,ij,...j->...", y, a, y)
        assert np.shape(got) == np.shape(want)
        assert np.all(np.abs(got - want) <= 4.0 * eps * np.abs(want))
        assert np.array_equal(norms.EuclideanNorm(a).value(y), np.sqrt(got))
        assert np.array_equal(norms.RandersNorm(a, 0.1 * a[0] / np.sqrt(a[0, 0])).alpha(y), np.sqrt(got))
