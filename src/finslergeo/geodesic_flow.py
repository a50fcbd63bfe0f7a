"""Left-invariant geodesic flow, chart tensors, Berwald test.

The metrics are left-invariant: F(x, y) = norm(u) with the body velocity
u = A(x)·y, so the geodesic flow reduces to the Lie algebra (Arnold's
reduction; Marsden–Ratiu, Introduction to Mechanics and Symmetry,
ch. 13).  With μ = ĝ_u u, where ĝ is the norm's fundamental tensor, the
geodesic equations are

    ġ = g·u,    μ̇ = ad*_u μ,    (ad*_u μ)_j = c_ij^k u^i μ_k.

The flow is stepped in this Lie–Poisson form, one path per call.  u is
read off μ by the norm's Legendre dual, u = ∂(½F*²)/∂μ, which Euclidean
and Randers norms write out (see `norms`), so a step needs no norm
tensor and no linear solve, and μ at the start comes from the norm's
Legendre map `norm.legendre(u)`, closed form as well: a path builds no
ĝ.  μ is integrated with classical fixed-step Runge-Kutta.  μ̇ does not
involve g, so each step advances μ first, and then g ← g·exp(θ) by the
Runge–Kutta–Munthe-Kaas increment θ built from its stage velocities
(Munthe-Kaas, BIT 38, 1998; Iserles et al., Acta Numerica 2000), on the
group itself, so a path may wind past the edge of any chart.  On H3 and
the vector group that law adds, and the running sum is compensated
(Kahan, CACM 8, 1965): a path of N steps rounds like one sum of its
increments, not like N sums.  A path holds group elements and body
velocities only; chart coordinates and chart velocities y = A(x)⁻¹u are
read off by `chart_coordinates`, for the report that prints them.
F = norm(u) is a first integral of the exact flow, so its drift along a
numerical path, read once the loop is done, measures integration error.
The norm owns the check y ≠ 0: u = A(x)·y is 0 exactly when y is, and
`norm.legendre` and `norm.fundamental_matrix` raise ZeroVector there.

The Cartan tensor vanishes when a slot is radial, so μ̇ = ĝ_u u̇ and
u̇ = ĝ_u⁻¹ ad*_u(ĝ_u u).  `euler_poincare_rhs(algebra, u, g)` evaluates
that velocity form from the norm tensor g = ĝ_u, with no x-derivative
of the chart metric, for the Berwald test.  With
m = g, ad*_X(ĝ_X X) is the paper's criterion residual, so geodesic
vectors are the equilibria of the flow; this module forms no such
residual, `geodesic_vectors.residual_batch` does.  Every ad* here sums
over the algebra's terms (`lie.LieAlgebraData.terms`) in their order: `lie.add_coadjoint` on
array rows, and `lie.coadjoint_lines` in the step loop.  That loop is
one Python function per norm class, group model class, dimension and
(j, i, k) pattern of the terms, assembled from the ad* and bracket lines
(`lie`), the norm's dual lines (`norms.MinkowskiNorm.dual_lines`) and
the model's group law (`groups.GroupModel.group_lines`), and compiled
on first use by `compiled`.  It steps the whole path on local floats,
every sum written out, and calls nothing but the square root, the
cosine and sine of SU(2)'s exponential and, once a step, the extend of
one array('d') by that step's u and g.
Its text holds indices only; the coefficients and the norm's and the
model's constants are passed to it as values, so norms of one class
share it whatever their data.

A chart metric is Berwald when its spray G(x, y) is quadratic in y.
`berwald_test` measures that by the parallelogram law, on the reduced
spray G̃(x, y) = −½A(x)⁻¹u̇(A(x)y): the two differ by a term exactly
quadratic in y, so G̃ carries the verdict and needs no x-derivative.

The chart-level fundamental tensor g_ij(x, y) = A(x)ᵀ ĝ(A(x)y) A(x) is
read by no task; only the tests and the benchmark's tracer call it.  It
is computed by that congruence alone; the route that differentiates
F(x, ·)² with jets is a test oracle (tests/chart_spray.py).
"""

import functools
import linecache
import math
from array import array
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
    rate = lie.add_coadjoint(algebra.terms, u.T, mu, np.zeros(u.T.shape))
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


def compiled(lines: list, name: str, filename: str):
    """The function `name` that `lines`, one def statement, define,
    compiled under `filename`, which tracebacks then name and quote.

    Besides its own, the text reads these names, bound here: sqrt, cos
    and sin are `math`'s, and zero, half, one and two are the floats 0.0,
    0.5, 1.0 and 2.0, so no float literal is written into it and float
    arithmetic never meets an int.
    """
    source = "\n".join(lines) + "\n"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"sqrt": math.sqrt, "cos": math.cos, "sin": math.sin, "zero": 0.0, "half": 0.5, "one": 1.0, "two": 2.0}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


def _drift_rejected() -> StepRejected:
    return StepRejected(f"metric value drifted more than {DRIFT_LIMIT:g} in one step; refine the step size")


def _kernel_lines(kind, model_kind, n: int, pattern: tuple) -> list:
    """The whole path of one geodesic as one Python function, on local floats.

    It takes the array('d') to fill, the step count, h, h/2, h/6 and
    h²/12, the start u and μ, the start group element g (model_kind's
    `group_lines`), the ad* coefficients c0, c1, … of `pattern`
    (`lie.coadjoint_lines`), the constants of the norm's dual
    (kind.dual_lines) and those of the group law, and extends the array
    by one row per sample: u, then g, at the start and at the end of
    every step.  Every ad* term, bracket, dual sum and product is written
    out; only integers reach the text.
    """
    names, final = kind.dual_lines(n, "mu", "u")
    group, group_names, start, group_step = model_kind.group_lines(n, "theta")
    coefficients = [f"c{t}" for t in range(len(pattern))]

    def floats(prefix):
        return [f"{prefix}{j}" for j in range(n)]

    def dual(mu, u):
        return kind.dual_lines(n, mu, u)[1]

    def advance(out, scale, rate):
        return [f"{m} = mu{j} + {scale} * {rate}{j}" for j, m in enumerate(floats(out))]

    params = ["rows", "nsteps", "step", "half_step", "sixth_step", "twelfth_step2"]
    params += [*floats("u"), *floats("mu"), *group, *coefficients, *names, *group_names]
    record = f"record(({', '.join(floats('u') + group)},))"
    body = [
        *lie.coadjoint_lines(pattern, n, "u", "mu", "K1_"),
        *advance("M", "half_step", "K1_"),
        *dual("M", "U2_"),
        *lie.coadjoint_lines(pattern, n, "U2_", "M", "K2_"),
        *advance("M", "half_step", "K2_"),
        *dual("M", "U3_"),
        *lie.coadjoint_lines(pattern, n, "U3_", "M", "K3_"),
        *advance("M", "step", "K3_"),
        *dual("M", "U4_"),
        *lie.coadjoint_lines(pattern, n, "U4_", "M", "K4_"),
        *lie.bracket_lines(pattern, n, "u", "U4_", "B"),
        *(
            f"theta{j} = sixth_step * (u{j} + two * U2_{j} + two * U3_{j} + U4_{j}) + twelfth_step2 * B{j}"
            for j in range(n)
        ),
        *group_step,
        *(f"mu{j} = mu{j} + sixth_step * (K1_{j} + two * K2_{j} + two * K3_{j} + K4_{j})" for j in range(n)),
        *final,
        record,
    ]
    return [
        f"def step_path({', '.join(params)}):",
        *("    " + line for line in start),
        "    record = rows.extend",
        "    " + record,
        "    for _ in range(nsteps):",
        *("        " + line for line in body),
    ]


@functools.cache
def _kernel(kind, model_kind, n: int, pattern: tuple):
    """The compiled path of norms of class `kind` on groups of class
    `model_kind`, whose n-dim algebras have ad* terms of the (j, i, k)
    `pattern`, built on first use."""
    terms = f"{len(pattern)} ad* terms"
    filename = f"<finslergeo.geodesic_flow step loop: {kind.__name__}, n={n}, {terms}, {model_kind.__name__} law>"
    return compiled(_kernel_lines(kind, model_kind, n, pattern), "step_path", filename)


def _step_path(model: GroupModel, terms, norm, g0: np.ndarray, u0: np.ndarray, nsteps: int, step: float) -> np.ndarray:
    """Step one path from the group element g0 and the body velocity u0,
    and return the generated function's rows as one (nsteps + 1, n + m)
    array, m the width of g0: row i holds u, then g, after i steps.

    μ = norm.legendre(u0) is taken here, before the loop, and the loop is
    the `_kernel` of the norm's class, the model's class and the pattern
    of `terms`, the algebra's `LieAlgebraData.terms`, called with their
    coefficients, the norm's `dual_constants` and the model's
    `group_constants`.
    """
    n = len(u0)
    mu = norm.legendre(u0).tolist()
    kernel = _kernel(type(norm), type(model), n, tuple(term[:3] for term in terms))
    rows = array("d")
    args = (rows, nsteps, step, 0.5 * step, step / 6.0, step * step / 12.0, *u0.tolist(), *mu, *g0.tolist())
    args += (*(term[3] for term in terms), *norm.dual_constants, *model.group_constants)
    try:
        kernel(*args)
    except (ZeroDivisionError, ValueError) as exc:
        # in floats x/0.0, the square root of a negative and the cosine
        # of an infinity raise where numpy gives inf or nan: a diverging
        # step, rejected as the drift check rejects one; μ is unpacked
        # before the loop, whose only ValueErrors are then math's
        raise _drift_rejected() from exc
    return np.frombuffer(rows).reshape(nsteps + 1, -1)


def integrate_geodesic(model: GroupModel, norm, x0, y0, T: float, step: float) -> GeodesicPath:
    """Fixed-step integration of ġ = g·u, μ̇ = ad*_u μ, forward in time,
    for the one path from (x0, y0).

    μ = ĝ_u u is formed once, by the norm's Legendre map, from the start
    velocity u = A(x0)·y0; from then on u(μ) = ∂(½F*²)/∂μ comes from the
    norm's Legendre dual, which the norm must write out (`dual_lines`).
    μ advances by classical RK4 with stage values M_1 = μ,
    M_2 = μ + ½hk_1, M_3 = μ + ½hk_2, M_4 = μ + hk_3 and
    k_i = ad*_{U_i} M_i, where U_i = u(M_i).  The group element advances
    in the same step by the 4th-order RKMK step on the stage velocities,
    g_i = g_{i−1}·exp(θ_i) with
    θ_i = h/6·(U_1 + 2U_2 + 2U_3 + U_4) + h²/12·[U_1, U_4].
    This is the classical RKMK4 in the one-commutator form of
    Munthe-Kaas and Owren (Phil. Trans. R. Soc. A 357, 1999), with the
    bracket's sign flipped for right multiplication; its stage
    commutators drop out because μ̇ does not depend on g.  Keeping only
    ½[Θ_i, U_i] of dexp⁻¹ in each stage would be third order: the dropped
    (1/12)[Θ_i, [Θ_i, U_i]] is O(h³).  The whole path runs in one
    generated function (`_kernel`) on Python floats, with the model's
    group law written out (`groups.GroupModel.group_lines`): on H3 and
    the vector group a compensated sum, so the rounding of a long path
    stays that of one sum.

    x0 and y0 are vectors of shape (n,); anything else raises ValueError.
    T must be a whole number of steps (`step_count`).  x0 must lie in the
    model's chart (ChartDomain otherwise); the path itself may leave it.
    Raises StepRejected when, at any step, the relative drift of
    F = norm(u) across that step exceeds 1e-3 or F is not finite, or when
    a step divides by zero, or takes the square root of a negative or
    the cosine of an infinity.  The path holds the group elements, the
    body velocities u(μ) as stepped, and F_values = F of them; no sample
    is read off in the chart.
    """
    nsteps = step_count(T, step)
    x, y = np.asarray(x0, dtype=float), np.asarray(y0, dtype=float)
    if x.shape != (model.dim,) or y.shape != (model.dim,):
        raise ValueError(
            f"integrate_geodesic steps one path: x0 and y0 must have shape ({model.dim},), not {x.shape} and {y.shape}"
        )
    model.check_chart(x)
    u0 = np.einsum("...ij,...j->...i", model.body_jacobian(x), y)
    rows = _step_path(model, model.algebra.terms, norm, model.to_group(x), u0, nsteps, step)
    body, elements = rows[:, : model.dim], rows[:, model.dim :]
    # a diverging path runs to its end as inf or nan, which the drift
    # check rejects; written so that a non-finite F fails the comparison
    with np.errstate(all="ignore"):
        F = norm.value(body)
    if not np.all(np.abs(F[1:] - F[:-1]) <= DRIFT_LIMIT * np.abs(F[:-1])):
        raise _drift_rejected()
    ts = np.arange(nsteps + 1) * step
    return GeodesicPath(ts=ts, points=elements, body=body, F_values=F)


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
