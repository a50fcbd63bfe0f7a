"""Distortion and S-curvature along geodesics.

The metrics are left-invariant: F(x, y) = norm(u) with the body
velocity u = A(x)·y, so every chart quantity reduces to the norm at u.

- det g(x, y) = det A(x)² · det ĝ(u), where ĝ is the norm's fundamental
  tensor, and the unit ball at x is the image of the one at e under
  A(x)⁻¹, so sigma(x) = |det A(x)| · sigma_e.
- The distortion tau = ln(sqrt(det g) / sigma) is therefore
  ½ ln det ĝ(u) − ln sigma_e, with no x-dependence beyond u.
- Along a geodesic μ = ĝ_u u obeys μ̇ = w = ad*_u μ, so u̇ = ĝ_u⁻¹w and
  the S-curvature, the rate of change of tau, is S = I_u(ĝ_u⁻¹w), with
  I = ∂(½ ln det ĝ) the mean Cartan torsion.

w·u = μ([u, u]) = 0, and for such w the norm gives ½ ln det ĝ_u and
I_u(ĝ_u⁻¹w) in closed form (`norm.distortion_terms`); no tensor is
built.  Euclidean: ½ ln det a and 0.  Randers F = α + β:
det ĝ = (F/α)^(n+1)·det a, and S = (n+1)·α/(2F²)·b♯·ad*_u(ĝ_u u),
b♯ = a⁻¹b (Cheng and Shen, Osaka J. Math. 40, 2003, with ρ₀ = 0 as
‖b‖_a is constant).  At e with m = g, ad*_X(ĝ_X X) is the paper's
criterion residual, so S vanishes at every geodesic vector by this
identity, to rounding.  The route through ĝ, ĝ⁻¹, det ĝ, the Cartan
tensor and the Euler–Poincaré velocity is the tests' oracle.

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

from . import lie, sphere
from .errors import QuadratureDivergence

MIN_NODES = 10000


@dataclass
class PathDistortion:
    ts: np.ndarray
    taus: np.ndarray
    s_values: np.ndarray
    sigma_errors: np.ndarray


def _indicatrix_integral(norm, level: int) -> float:
    """(1/n) * integral of F(theta)^(-n) over the unit sphere, one grid
    level; F^(-n) is n − 1 products of 1/F, not numpy's general power."""
    n = norm.dim
    nodes, weights = sphere.quad_grid(n, level)
    inverse = 1.0 / norm.value(nodes)
    power = inverse
    for _ in range(n - 1):
        power = power * inverse
    return float(power @ weights / n)


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


def _distortion_terms(algebra, norm, u) -> tuple:
    """(½ ln det ĝ_u, S) at the body velocities u, batched over leading
    axes, from the norm's closed form at w = ad*_u μ, μ = ĝ_u u."""
    mu = norm.legendre(u)
    w = lie.add_coadjoint(algebra.terms, u.T, mu.T, np.zeros(u.T.shape))
    return norm.distortion_terms(u, w.T)


def s_curvature(model, norm, x, y) -> float:
    """Rate of change of the distortion along the geodesic through (x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    model.check_chart(x)
    u = np.einsum("...ij,...j->...i", model.body_jacobian(x), y)
    return float(_distortion_terms(model.algebra, norm, u)[1])


def s_along_path(algebra, norm, ts, u) -> PathDistortion:
    """tau, S, and the relative sigma error at the body velocities u of a
    path, sampled at times ts.

    Both depend on the body velocity alone, so no group element is read.
    """
    half_log_det, s = _distortion_terms(algebra, norm, u)
    sigma, err, _ = _sigma_identity(norm)
    taus = half_log_det - np.log(sigma)
    return PathDistortion(ts=ts, taus=taus, s_values=s, sigma_errors=np.full(np.shape(taus), err / sigma))
