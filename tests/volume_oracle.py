"""Busemann volume factor and distortion at a chart point, and the
tensor route to tau and S.

No task reads sigma(x) or tau(x, y) at one chart point: the library
needs sigma_e and tau along a path's body velocities only.
`busemann_sigma`, `tau_batch` and `distortion` are built on the
production quadrature `_sigma_identity` and on `s_along_path`, which
takes ½ ln det ĝ from the norm's closed form (`distortion_terms`), so
the closed-form, divergence and left-invariance tests still judge the
code the tasks run.

`tau_from_tensors(norm, g)` and `s_from_tensors(algebra, norm, u, g)`
are the general route, valid for any norm with tensors: tau from
det ĝ, and S = I_u(u̇) with I_k = ĝ^{ij}C_ijk the mean Cartan torsion
and u̇ = ĝ_u⁻¹ad*_u(ĝ_u u) the Euler–Poincaré velocity
(`geodesic_flow.euler_poincare_rhs`).  The tests hold the closed forms
to them.
"""

from dataclasses import dataclass

import numpy as np

from finslergeo import s_curvature
from finslergeo.errors import ZeroVector
from finslergeo.geodesic_flow import euler_poincare_rhs


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
    profile = s_curvature.s_along_path(model.algebra, norm, None, u)
    return profile.taus, profile.sigma_errors


def distortion(model, norm, x, y) -> DistortionSample:
    """tau(x, y) = ln(sqrt(det g_y) / sigma(x)) in the chart frame."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.linalg.norm(y) == 0.0:
        raise ZeroVector("distortion needs y != 0")
    tau, _ = tau_batch(model, norm, x[None, :], y[None, :])
    return DistortionSample(x=x, y=y, tau=float(tau[0]))


def tau_from_tensors(norm, g):
    """tau and the relative sigma error from the fundamental tensors g."""
    sigma, err, _ = s_curvature._sigma_identity(norm)
    tau = 0.5 * np.log(np.linalg.det(g)) - np.log(sigma)
    return tau, np.full(np.shape(tau), err / sigma)


def s_from_tensors(algebra, norm, u, g):
    """S = I_u(u̇) with ĝ_u u̇ = ad*_u(ĝ_u u), batched over leading axes."""
    u_dot = euler_poincare_rhs(algebra, u, g)
    mean_torsion = np.einsum("...ij,...ijk->...k", np.linalg.inv(g), norm.cartan(u))
    return np.einsum("...k,...k->...", mean_torsion, u_dot)
