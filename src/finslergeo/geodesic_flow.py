"""Left-invariant geodesic flow, chart tensors, Berwald test.

The metrics are left-invariant: F(x, y) = norm(u) with the body velocity
u = A(x)·y, so the geodesic flow reduces to the Lie algebra (Arnold's
reduction; Marsden–Ratiu, Introduction to Mechanics and Symmetry,
ch. 13).  With μ = ĝ_u u, where ĝ is the norm's fundamental tensor, the
geodesic equations are

    ġ = g·u,    μ̇ = ad*_u μ,    (ad*_u μ)_j = c_ij^k u^i μ_k.

The flow is stepped in this Lie–Poisson form.  u is read off μ by the
norm's Legendre dual, u = ∂(½F*²)/∂μ, which Euclidean and Randers norms
carry in closed form (see `norms`), so a step needs no norm tensor and
no linear solve, and μ at the start comes from the norm's Legendre map
`norm.legendre(u)`, closed form as well: a path builds no ĝ.  μ is
integrated with classical fixed-step Runge-Kutta.  μ̇ does not involve
g, so the step loop advances μ alone.  Each step's group increment is
the Runge–Kutta–Munthe-Kaas exponential built from its stage velocities
(Munthe-Kaas, BIT 38, 1998; Iserles et al., Acta Numerica 2000), and
once the loop is done the whole path g_i = g_0·exp(θ_1)⋯exp(θ_i) is
formed on the group itself by one prefix product of log depth
(Blelloch, CMU-CS-90-190, 1990), so a path may wind past the edge of
any chart.  A path holds group elements and body velocities only;
chart coordinates and chart velocities y = A(x)⁻¹u are read off by
`chart_coordinates`, for the report that prints them.
F = norm(u) is a first integral of the exact flow, so its drift along a
numerical path, read once the loop is done, measures integration error.
The norm owns the check y ≠ 0: u = A(x)·y is 0 exactly when y is, and
`norm.legendre` and `norm.fundamental_matrix` raise ZeroVector there.

The Cartan tensor vanishes when a slot is radial, so μ̇ = ĝ_u u̇ and
u̇ = ĝ_u⁻¹ ad*_u(ĝ_u u).  `euler_poincare_rhs(algebra, u, g)` evaluates
that velocity form from the norm tensor g = ĝ_u, with no x-derivative
of the chart metric, for the S-curvature and the Berwald test.  With
m = g, ad*_X(ĝ_X X) is the paper's criterion residual, so geodesic
vectors are the equilibria of the flow; this module forms no such
residual, `geodesic_vectors.residual_batch` does.  Every ad* here is
`lie.add_coadjoint` over the algebra's `lie.terms`.  The step loop runs
on Python floats, and the norm's dual takes and returns n floats, so a
step makes no numpy call.

A chart metric is Berwald when its spray G(x, y) is quadratic in y.
`berwald_test` measures that by the parallelogram law, on the reduced
spray G̃(x, y) = −½A(x)⁻¹u̇(A(x)y): the two differ by a term exactly
quadratic in y, so G̃ carries the verdict and needs no x-derivative.

The chart-level fundamental tensor g_ij(x, y) = A(x)ᵀ ĝ(A(x)y) A(x) is
read by no task; only the tests and the benchmark's tracer call it.  It
is computed by that congruence alone; the route that differentiates
F(x, ·)² with jets is a test oracle (tests/chart_spray.py).
"""

from dataclasses import dataclass

import numpy as np

from . import lie, sphere
from .errors import StepRejected
from .groups import GroupModel, orbit_curve
from .norms import ordered_dot

DRIFT_LIMIT = 1.0e-3


@dataclass
class GeodesicPath:
    ts: np.ndarray
    # group elements in the model's representation, as groups.orbit_curve
    # returns them: chart coordinates on H3 and Abelian, unit quaternions on SU(2)
    points: np.ndarray
    body: np.ndarray  # body velocities u = A(x)·y
    F_values: np.ndarray


def chart_fundamental_tensor(model: GroupModel, norm, x, y) -> np.ndarray:
    """g_ij(x, y) of the chart metric, batched over leading axes.

    y is pushed to the body frame and the norm's fundamental tensor there
    is conjugated with the body Jacobian.
    """
    x = np.asarray(x, dtype=float)
    a = model.body_jacobian(x)
    body_y = np.einsum("...ij,...j->...i", a, np.asarray(y, dtype=float))
    ghat = norm.fundamental_matrix(body_y)
    return np.einsum("...pi,...pq,...qj->...ij", a, ghat, a)


def euler_poincare_rhs(algebra, u, g) -> np.ndarray:
    """u̇ = ĝ_u⁻¹ ad*_u(ĝ_u u), batched over leading axes of u, where g
    is the norm's fundamental tensor ĝ_u; μ and ad*_u μ are summed in
    index order on batch-last rows."""
    mu = ordered_dot(g.T, u.T[:, None])
    rate = lie.add_coadjoint(lie.terms(algebra.c), u.T, mu, np.zeros(u.T.shape))
    return np.linalg.solve(g, rate.T[..., None])[..., 0]


def step_count(T: float, step: float) -> int:
    """T / step; ValueError unless step, T > 0 and T is a whole number of
    steps, to a relative 1e-9 that absorbs the rounding, never a part step."""
    if step <= 0.0 or T <= 0.0:
        raise ValueError("forward integration needs step > 0 and T > 0")
    steps = round(T / step)
    if steps < 1 or abs(T - steps * step) > 1.0e-9 * T:
        raise ValueError(f"T = {T!r} is not a whole number of steps of {step!r}")
    return steps


def chart_coordinates(model: GroupModel, path: GeodesicPath, x0, y0):
    """Chart points x and chart velocities y = A(x)⁻¹u at every path sample.

    Row 0 is (x0, y0) exactly.  Raises ChartDomain when a sample has no
    chart coordinates, as at the antipode of SU(2).
    """
    points = model.to_chart(path.points)
    points[0] = x0
    velocities = np.linalg.solve(model.body_jacobian(points), path.body[..., None])[..., 0]
    velocities[0] = y0
    return points, velocities


def _drift_rejected() -> StepRejected:
    return StepRejected(f"metric value drifted more than {DRIFT_LIMIT:g} in one step; refine the step size")


def _step_path(terms, norm, vel, step: float) -> np.ndarray:
    """Step one path from its start velocity vel[0, 0] and return F = norm(u)
    at every sample.

    vel is the path's (4, nsteps + 1, n) view of the stage velocities,
    written once the loop is done.  μ = norm.legendre(u) is taken here;
    the loop then runs on lists of n Python floats, and each ad*_u μ is
    `lie.add_coadjoint` over `terms`, the algebra's `lie.terms`.
    """
    half, sixth = 0.5 * step, step / 6.0
    dual, coadjoint = norm.legendre_dual, lie.add_coadjoint
    n = vel.shape[-1]
    u = vel[0, 0].tolist()
    mu = norm.legendre(vel[0, 0]).tolist()
    body, stages = [u], ([], [], [])
    u2s, u3s, u4s = stages
    try:
        for _ in range(vel.shape[1] - 1):
            k1 = coadjoint(terms, u, mu, [0.0] * n)
            m = [a + half * b for a, b in zip(mu, k1)]
            u2 = dual(m)
            k2 = coadjoint(terms, u2, m, [0.0] * n)
            m = [a + half * b for a, b in zip(mu, k2)]
            u3 = dual(m)
            k3 = coadjoint(terms, u3, m, [0.0] * n)
            m = [a + step * b for a, b in zip(mu, k3)]
            u4 = dual(m)
            k4 = coadjoint(terms, u4, m, [0.0] * n)
            mu = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(mu, k1, k2, k3, k4)]
            u = dual(mu)
            body.append(u)
            u2s.append(u2)
            u3s.append(u3)
            u4s.append(u4)
    except (ZeroDivisionError, ValueError) as exc:
        # in floats x/0.0 and the square root of a negative raise where
        # numpy gives inf or nan: a diverging step, rejected as the drift
        # check rejects one; a ValueError other than the math module's
        # domain error, such as the dual's shape error, is no such step
        if isinstance(exc, ValueError) and exc.args != ("math domain error",):
            raise
        raise _drift_rejected() from exc
    vel[0] = body
    vel[1:, :-1] = stages
    # a diverging path runs to its end as inf or nan, which the caller's
    # drift check rejects
    with np.errstate(all="ignore"):
        return norm.value(vel[0])


def integrate_geodesic(model: GroupModel, norm, x0, y0, T: float, step: float) -> GeodesicPath:
    """Fixed-step integration of ġ = g·u, μ̇ = ad*_u μ, forward in time.

    μ = ĝ_u u is formed once per path, by the norm's Legendre map, from
    the start velocity u = A(x0)·y0; from then on u(μ) = ∂(½F*²)/∂μ comes
    from the norm's Legendre dual of one covector, which the norm must
    implement.  μ advances by classical RK4 with stage values M_1 = μ,
    M_2 = μ + ½hk_1, M_3 = μ + ½hk_2, M_4 = μ + hk_3 and
    k_i = ad*_{U_i} M_i, where U_i = u(M_i).  The step loop does only
    that, one path at a time on Python floats, and stores the body and
    stage velocities of every step in one array once it is done.  The
    group element advances by the 4th-order RKMK step on the stage
    velocities,
    g_i = g_{i−1}·exp(θ_i) with
    θ_i = h/6·(U_1 + 2U_2 + 2U_3 + U_4) + h²/12·[U_1, U_4].
    This is the classical RKMK4 in the one-commutator form of
    Munthe-Kaas and Owren (Phil. Trans. R. Soc. A 357, 1999), with the
    bracket's sign flipped for right multiplication; its stage
    commutators drop out because μ̇ does not depend on g.  Keeping only
    ½[Θ_i, U_i] of dexp⁻¹ in each stage would be third order: the dropped
    (1/12)[Θ_i, [Θ_i, U_i]] is O(h³).  After the loop every θ_i is formed
    at once, and g_0·exp(θ_1)⋯exp(θ_i) for all i comes from a
    Hillis–Steele scan of ⌈log₂ N⌉ batched products, which also keeps
    the rounding of a long path at O(log N) products.

    Batched over leading axes of (x0, y0); each path is stepped on its
    own, so it is the same, bit for bit, alone and in any batch.  T must
    be a whole number of steps (`step_count`).  x0 must lie in the
    model's chart (ChartDomain otherwise); the path itself may leave it.
    Raises StepRejected when, at any step of the whole path, the relative
    drift of F = norm(u) across that step exceeds 1e-3 or F is not
    finite, or when a step divides by zero or takes the square root of a
    negative.  The path holds the group elements, the body velocities u(μ)
    as stepped, and F_values = F of them; no sample is read off in the
    chart.
    """
    nsteps = step_count(T, step)
    x, y = (np.array(v, dtype=float) for v in np.broadcast_arrays(x0, y0))
    model.check_chart(x)
    u = np.einsum("...ij,...j->...i", model.body_jacobian(x), y)
    shape = u.shape
    rows = u.reshape(-1, shape[-1])
    terms = lie.terms(model.algebra.c)
    # vel[:, i] holds U_1 at sample i and U_2, U_3, U_4 of step i + 1
    vel = np.empty((4, nsteps + 1) + rows.shape)
    vel[0, 0] = rows
    F = np.empty((nsteps + 1, len(rows)))
    for p in range(len(rows)):
        F[:, p] = _step_path(terms, norm, vel[:, :, p], step)
    vel = vel.reshape((4, nsteps + 1) + shape)
    F = F.reshape((nsteps + 1,) + shape[:-1])

    # written so that a non-finite F fails the comparison
    if not np.all(np.abs(F[1:] - F[:-1]) <= DRIFT_LIMIT * np.abs(F[:-1])):
        raise _drift_rejected()
    u1, u2, u3, u4 = vel[:, :-1]
    commutator = lie.bracket(model.algebra, u1, u4)
    theta = (step / 6.0) * (u1 + 2.0 * u2 + 2.0 * u3 + u4) + (step * step / 12.0) * commutator
    # Hillis–Steele scan: after the pass at a stride, acc[i] is the product
    # of the (up to) 2·stride increments that end at step i
    acc = model.to_group(theta)
    stride = 1
    while stride < nsteps:
        acc[stride:] = model.multiply(acc[:-stride], acc[stride:])
        stride *= 2
    g0 = model.to_group(x)
    elements = np.concatenate([g0[None], model.multiply(g0, acc)])
    ts = np.arange(nsteps + 1) * step
    return GeodesicPath(ts=ts, points=elements, body=vel[0], F_values=F)


def is_homogeneous_geodesic(model: GroupModel, norm, X, T: float, step: float) -> float:
    """Integrate from (e, X) and compare with the orbit of exp(tX).

    The comparison is on the group: the sup-distance over [0, T] between
    the path's group elements and exp(tX), both in the model's
    representation (chart coordinates on H3, unit quaternions on SU(2)),
    is returned, the measurement a caller holds against its tolerance.
    No sample is read off in the chart, so an orbit may wind past the
    chart's edge and through the antipode.
    """
    X = np.asarray(X, dtype=float)
    path = integrate_geodesic(model, norm, model.identity(), X, T=T, step=step)
    orbit = orbit_curve(model, X, path.ts)
    return float(np.max(np.abs(path.points - orbit)))


def _reduced_spray(model: GroupModel, norm, x, y) -> np.ndarray:
    """G̃(x, y) = −½ A(x)⁻¹ u̇(A(x)y) at one point x, batched over y."""
    a = model.body_jacobian(x)
    u = np.einsum("ij,...j->...i", a, y)
    u_dot = euler_poincare_rhs(model.algebra, u, norm.fundamental_matrix(u))
    return -0.5 * np.linalg.solve(a, u_dot[..., None])[..., 0]


def berwald_test(model: GroupModel, norm, x, samples: int) -> float:
    """Largest parallelogram defect of the spray over pairs of sphere directions.

    The spray G(x, ·) is 2-homogeneous, and a 2-homogeneous map is
    quadratic exactly when it satisfies the parallelogram law
    G(y + z) + G(y − z) = 2G(y) + 2G(z) (Jordan and von Neumann, Ann.
    Math. 36, 1935).  The defect of that law is taken for every pair
    (y_0, y_i), i ≥ 1, of the deterministic low-discrepancy sphere set,
    from one batched evaluation of the reduced part G̃ of the spray on
    the probes y_0 ± y_i and y_i.  The chart spray is
    G = G̃ + ½A⁻¹(DA[y])y, and the last term is exactly quadratic in y,
    so it drops out of the defect.  The defect vanishes up to rounding
    when the chart metric is Berwald; a defect at any pair shows that
    it is not.
    """
    x = np.asarray(x, dtype=float)
    model.check_chart(x)
    ys = sphere.seeds(model.dim, samples)
    y0, z = ys[0], ys[1:]
    spray = _reduced_spray(model, norm, x, np.concatenate([y0 + z, y0 - z, ys]))
    plus, minus, at = np.split(spray, [len(z), 2 * len(z)])
    defect = plus + minus - 2.0 * at[:1] - 2.0 * at[1:]
    return float(np.max(np.abs(defect)))
