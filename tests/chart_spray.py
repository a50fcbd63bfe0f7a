"""Chart spray oracle for the reduced geodesic flow.

The spray coefficients follow
    G^j = 1/4 g^{jl} (2 dg_sl/dx^k - dg_sk/dx^l) y^s y^k
with the fundamental tensor pulled back to the chart.  x-derivatives go
through central differences with one Richardson step, because the
x-dependence flows through the group law.  The geodesic system
xdot = y, ydot = -2G(x, y) is integrated with the same classical RK4 as
the library's Euler–Poincaré flow, so the two routes must agree to
rounding plus the truncation error of the x-differences.

`jet_chart_tensor` is the independent route to the chart tensor: it
differentiates F(x, ·)² with order-2 jets instead of conjugating the
norm's tensor with the body Jacobian.

`berwald_deviation` is the independent route to the Berwald verdict: it
compares central-difference y-Hessians of the chart spray across sphere
directions, where the library tests the parallelogram law.
"""

from dataclasses import dataclass

import jet_norms
import numpy as np

from finslergeo import geodesic_flow as gf
from finslergeo import jets, sphere
from finslergeo.errors import SingularTensor

X_STEP = 1.0e-5


@dataclass
class SprayEvaluation:
    x: np.ndarray
    y: np.ndarray
    G: np.ndarray
    g_matrix: np.ndarray
    g_inverse: np.ndarray


def chart_value2_jet(model, norm, x, yj: jets.Jet) -> jets.Jet:
    """F(x, ·)² of the chart metric on a jet vector yj."""
    a = model.body_jacobian(x)
    extra = yj.c.ndim - 2 - a.ndim + 2  # batch axes yj carries beyond x's
    if extra > 0:
        a = a.reshape(a.shape[:-2] + (1,) * extra + a.shape[-2:])
    return jet_norms.of(norm).value2_jet(jets.matvec(a, yj))


def jet_chart_tensor(model, norm, x, y) -> np.ndarray:
    """g_ij(x, y) as half the y-Hessian of F(x, ·)², batched."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    eye = np.eye(n)
    yb = np.broadcast_to(y[..., None, None, :], y.shape[:-1] + (n, n, n))
    u = np.broadcast_to(eye[:, None, :], (n, n, n))
    v = np.broadcast_to(eye[None, :, :], (n, n, n))
    f2 = chart_value2_jet(model, norm, x, jets.variable(yb, [u, v]))
    return 0.5 * f2.coeff(0b11)


def _x_derivatives(model, norm, x, y, h: float = X_STEP) -> np.ndarray:
    """dg[..., k, s, l] = dg_sl/dx^k by Richardson-extrapolated centrals."""
    n = x.shape[-1]
    steps = np.array([h, -h, 0.5 * h, -0.5 * h])
    shifts = np.eye(n)[:, None, :] * steps[None, :, None]
    xs = x[..., None, None, :] + shifts
    ys = np.broadcast_to(y[..., None, None, :], xs.shape)
    g = gf.chart_fundamental_tensor(model, norm, xs, ys)
    coarse = (g[..., 0, :, :] - g[..., 1, :, :]) / (2.0 * h)
    fine = (g[..., 2, :, :] - g[..., 3, :, :]) / h
    return (4.0 * fine - coarse) / 3.0


def _spray_raw(model, norm, x, y):
    """Spray coefficients and the fundamental matrix, batched."""
    g = gf.chart_fundamental_tensor(model, norm, x, y)
    dg = _x_derivatives(model, norm, x, y)
    lowered = 2.0 * np.einsum("...ksl,...s,...k->...l", dg, y, y) - np.einsum(
        "...lsk,...s,...k->...l", dg, y, y
    )
    coeffs = 0.25 * np.linalg.solve(g, lowered[..., None])[..., 0]
    return coeffs, g


def spray_coefficients(model, norm, x, y) -> SprayEvaluation:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    coeffs, g = _spray_raw(model, norm, x, y)
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise SingularTensor("fundamental tensor is not positive definite") from None
    return SprayEvaluation(x=x, y=y, G=coeffs, g_matrix=g, g_inverse=np.linalg.inv(g))


def integrate_chart_spray(model, norm, x0, y0, T: float, step: float) -> gf.GeodesicPath:
    """Fixed-step RK4 on xdot = y, ydot = -2G(x, y), batched over leading axes.

    The chart samples are handed out as a path like any other: group
    elements exp(x) and body velocities A(x)·y.
    """
    x, y = (np.array(v, dtype=float) for v in np.broadcast_arrays(x0, y0))
    nsteps = max(1, int(round(T / step)))
    points = np.empty((nsteps + 1,) + x.shape)
    velocities = np.empty_like(points)
    points[0] = x
    velocities[0] = y

    def rhs(xc, yc):
        coeffs, _ = _spray_raw(model, norm, xc, yc)
        return yc, -2.0 * coeffs

    for i in range(1, nsteps + 1):
        k1x, k1y = rhs(x, y)
        k2x, k2y = rhs(x + 0.5 * step * k1x, y + 0.5 * step * k1y)
        k3x, k3y = rhs(x + 0.5 * step * k2x, y + 0.5 * step * k2y)
        k4x, k4y = rhs(x + step * k3x, y + step * k3y)
        x = x + (step / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y = y + (step / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        model.check_chart(x)
        points[i] = x
        velocities[i] = y
    body = np.einsum("...ij,...j->...i", model.body_jacobian(points), velocities)
    return gf.GeodesicPath(
        ts=np.arange(nsteps + 1) * step, points=model.to_group(points), body=body, F_values=norm.value(body)
    )


def _spray_hessians(spray, ys: np.ndarray, h: float) -> np.ndarray:
    """hess[s, j, a, b] ≈ ∂²G^j/∂y^a∂y^b at ys[s], by central differences.

    spray maps a batch of directions (..., n) to coefficients (..., n).
    """
    samples, n = ys.shape
    eye = np.eye(n)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    offsets = [np.zeros((1, n)), h * eye, -h * eye]
    for a, b in pairs:
        offsets.append(h * np.stack([eye[a] + eye[b], -(eye[a] + eye[b]), eye[a] - eye[b], eye[b] - eye[a]]))
    offsets = np.concatenate(offsets, axis=0)
    coeffs = spray(ys[:, None, :] + offsets[None, :, :])

    center = coeffs[:, 0]
    plus = coeffs[:, 1 : 1 + n]
    minus = coeffs[:, 1 + n : 1 + 2 * n]
    hess = np.empty((samples, n, n, n))
    diag = (plus - 2.0 * center[:, None, :] + minus) / (h * h)
    for a in range(n):
        hess[:, :, a, a] = diag[:, a, :]
    base = 1 + 2 * n
    for pos, (a, b) in enumerate(pairs):
        block = coeffs[:, base + 4 * pos : base + 4 * pos + 4]
        mixed = (block[:, 0] + block[:, 1] - block[:, 2] - block[:, 3]) / (4.0 * h * h)
        hess[:, :, a, b] = mixed
        hess[:, :, b, a] = mixed
    return hess


def _chart_spray_at(model, norm, x):
    """G(x, ·) of the full chart spray at one point x, batched over directions."""
    x = np.asarray(x, dtype=float)
    return lambda ys: _spray_raw(model, norm, np.broadcast_to(x, ys.shape).copy(), ys)[0]


def berwald_deviation(model, norm, x, samples: int, h: float = 1.0e-2) -> float:
    """Worst y-Hessian mismatch of the full chart spray across sphere directions."""
    hess = _spray_hessians(_chart_spray_at(model, norm, x), sphere.seeds(model.dim, samples), h)
    return float(np.max(np.abs(hess - hess[:1])))


def parallelogram_defect(model, norm, x, samples: int) -> float:
    """The library's parallelogram defect over the pairs (y_0, y_i), taken on the full chart spray."""
    spray = _chart_spray_at(model, norm, x)
    ys = sphere.seeds(model.dim, samples)
    y0, z = ys[0], ys[1:]
    defect = spray(y0 + z) + spray(y0 - z) - 2.0 * spray(ys[:1]) - 2.0 * spray(z)
    return float(np.max(np.abs(defect)))
