"""Distortion and S-curvature along geodesics.

The metrics are left-invariant: F(x, y) = norm(u) with the body
velocity u = A(x)·y, so every chart quantity reduces to the norm at u.

- det g(x, y) = det A(x)² · det ĝ(u), where ĝ is the norm's fundamental
  tensor, and the unit ball at x is the image of the one at e under
  A(x)⁻¹, so sigma(x) = |det A(x)| · sigma_e.
- The distortion tau = ln(sqrt(det g) / sigma) is therefore
  ½ ln det ĝ(u) − ln sigma_e, with no x-dependence beyond u.
- Along a geodesic the body velocity obeys the Euler–Poincaré equation
  ĝ_u u̇ = ad*_u(ĝ_u u), and the S-curvature, the rate of change of tau,
  is S = I_u(u̇) with I_k = ĝ^{ij} C_ijk the mean Cartan torsion.

`s_along_path(algebra, norm, ts, u)` reads a path's body velocities u
alone; `s_curvature(model, norm, x, y)` is S at one chart point.

sigma_e = Vol(B^n) / Vol{F < 1} is the one quadrature, through the
radial formula Vol{F < 1} = (1/n) * integral of F(theta)^(-n) over the
unit sphere.  Quadrature levels refine until the node budget is met,
and the refinement history must contract or the indicatrix is declared
unusable.
"""

from dataclasses import dataclass

import numpy as np

from . import sphere
from .errors import QuadratureDivergence
from .geodesic_flow import euler_poincare_rhs

MIN_NODES = 10000


@dataclass
class PathDistortion:
    ts: np.ndarray
    taus: np.ndarray
    s_values: np.ndarray
    sigma_errors: np.ndarray


def _indicatrix_integral(norm, level: int) -> float:
    """(1/n) * integral of F(theta)^(-n) over the unit sphere, one grid level."""
    n = norm.dim
    nodes, weights = sphere.quad_grid(n, level)
    return float((norm.value(nodes) ** (-float(n))) @ weights / n)


def _sigma_identity(norm):
    """sigma_e, its absolute error estimate, and the node count."""
    n = norm.dim
    if n not in (2, 3, 4):
        raise ValueError(f"sphere quadrature covers dimensions 2..4, got {n}")
    level = sphere.level_for(n, MIN_NODES)
    values = [_indicatrix_integral(norm, lv) for lv in (level - 2, level - 1, level)]
    if not np.all(np.isfinite(values)):
        raise QuadratureDivergence("indicatrix integral is not finite; norm is not usable")
    e_prev = abs(values[1] - values[0])
    e_last = abs(values[2] - values[1])
    floor = 5.0e-13 * abs(values[2])
    if e_last > max(0.5 * e_prev, floor):
        raise QuadratureDivergence(
            "sphere-grid refinement failed to contract; indicatrix looks irregular"
        )
    sigma = sphere.ball_volume(n) / values[2]
    return sigma, sigma * e_last / values[2], sphere.grid_size(n, level)


def _tau_from_tensors(norm, g):
    sigma, err, _ = _sigma_identity(norm)
    tau = 0.5 * np.log(np.linalg.det(g)) - np.log(sigma)
    return tau, np.full(np.shape(tau), err / sigma)


def _s_from_tensors(algebra, norm, u, g):
    """S = I_u(u̇) with ĝ_u u̇ = ad*_u(ĝ_u u), batched over leading axes."""
    u_dot = euler_poincare_rhs(algebra, u, g)
    mean_torsion = np.einsum("...ij,...ijk->...k", np.linalg.inv(g), norm.cartan(u))
    return np.einsum("...k,...k->...", mean_torsion, u_dot)


def s_curvature(model, norm, x, y) -> float:
    """Rate of change of the distortion along the geodesic through (x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    model.check_chart(x)
    u = np.einsum("...ij,...j->...i", model.body_jacobian(x), y)
    return float(_s_from_tensors(model.algebra, norm, u, norm.fundamental_matrix(u)))


def s_along_path(algebra, norm, ts, u) -> PathDistortion:
    """tau, S, and the relative sigma error at the body velocities u of a
    path, sampled at times ts.

    Both depend on the body velocity alone, so no group element is read.
    """
    g = norm.fundamental_matrix(u)
    taus, errs = _tau_from_tensors(norm, g)
    s = _s_from_tensors(algebra, norm, u, g)
    return PathDistortion(ts=ts, taus=taus, s_values=s, sigma_errors=errs)
