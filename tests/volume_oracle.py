"""Busemann volume factor and distortion at a chart point.

No task reads sigma(x) or tau(x, y) at one chart point: the library
needs sigma_e and tau along a path's body velocities only.  These
helpers are built on the production quadrature `_sigma_identity` and on
`_tau_from_tensors`, so the closed-form, divergence and left-invariance
tests still judge the code the tasks run.
"""

from dataclasses import dataclass

import numpy as np

from finslergeo import s_curvature
from finslergeo.errors import ZeroVector


@dataclass
class VolumeFactor:
    x: np.ndarray
    sigma: float
    quadrature_nodes: int
    estimated_error: float


@dataclass
class DistortionSample:
    x: np.ndarray
    y: np.ndarray
    tau: float


def busemann_sigma(model, norm, x) -> VolumeFactor:
    """Busemann volume factor Vol(B^n) / Vol{y : F(x, y) < 1} = |det A(x)| sigma_e."""
    x = np.asarray(x, dtype=float)
    sigma, err, nodes = s_curvature._sigma_identity(norm)
    scale = abs(float(np.linalg.det(model.body_jacobian(x))))
    return VolumeFactor(
        x=x, sigma=scale * sigma, quadrature_nodes=int(nodes), estimated_error=scale * err
    )


def tau_batch(model, norm, xs, ys):
    """tau and the relative sigma error at each (x, y), batched."""
    u = np.einsum("...ij,...j->...i", model.body_jacobian(np.asarray(xs, dtype=float)), np.asarray(ys, dtype=float))
    return s_curvature._tau_from_tensors(norm, norm.fundamental_matrix(u))


def distortion(model, norm, x, y) -> DistortionSample:
    """tau(x, y) = ln(sqrt(det g_y) / sigma(x)) in the chart frame."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.linalg.norm(y) == 0.0:
        raise ZeroVector("distortion needs y != 0")
    tau, _ = tau_batch(model, norm, x[None, :], y[None, :])
    return DistortionSample(x=x, y=y, tau=float(tau[0]))
