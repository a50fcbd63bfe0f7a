"""Deterministic unit-sphere point sets.

Two families: quadrature grids (nodes + weights summing to the sphere
area, refinable by level) and low-discrepancy seed sets for solvers.
Everything here is a pure function of its arguments, so repeated calls
are bit-identical.  Grids are cached per (dim, level) and handed out
read-only: every call with the same arguments returns the same arrays.
"""

from functools import lru_cache
from statistics import NormalDist

import numpy as np
from numpy.polynomial.legendre import leggauss

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# base resolutions per dimension; each level doubles every axis
_BASE_AXES = {2: (64,), 3: (16, 32), 4: (8, 8, 16)}


def grid_size(dim: int, level: int) -> int:
    axes = _BASE_AXES[dim]
    return int(np.prod([n << level for n in axes]))


def level_for(dim: int, min_nodes: int) -> int:
    level = 0
    while grid_size(dim, level) < min_nodes:
        level += 1
    return level


@lru_cache(maxsize=None)
def quad_grid(dim: int, level: int):
    """Nodes (N, dim) and weights (N,) integrating over S^{dim-1}; read-only.

    The nodes are stored batch-last, as the transpose of a contiguous
    (dim, N) array, the layout in which the norms evaluate a batch, so a
    norm reads them without a copy."""
    nodes, weights = _build_grid(dim, level)
    nodes = np.asfortranarray(nodes)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _build_grid(dim: int, level: int):
    if dim == 2:
        n = _BASE_AXES[2][0] << level
        theta = 2.0 * np.pi * np.arange(n) / n
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.full(n, 2.0 * np.pi / n)
        return nodes, weights
    if dim == 3:
        nu, nphi = (n << level for n in _BASE_AXES[3])
        u, wu = leggauss(nu)
        phi = 2.0 * np.pi * np.arange(nphi) / nphi
        s = np.sqrt(1.0 - u**2)
        nodes = np.empty((nu, nphi, 3))
        nodes[..., 0] = s[:, None] * np.cos(phi)
        nodes[..., 1] = s[:, None] * np.sin(phi)
        nodes[..., 2] = u[:, None]
        weights = np.broadcast_to(wu[:, None] * (2.0 * np.pi / nphi), (nu, nphi))
        return nodes.reshape(-1, 3), weights.reshape(-1).copy()
    if dim == 4:
        npsi, nu, nphi = (n << level for n in _BASE_AXES[4])
        xi, wxi = leggauss(npsi)
        psi = 0.5 * np.pi * (xi + 1.0)
        wpsi = wxi * (0.5 * np.pi) * np.sin(psi) ** 2
        u, wu = leggauss(nu)
        phi = 2.0 * np.pi * np.arange(nphi) / nphi
        s = np.sqrt(1.0 - u**2)
        nodes = np.empty((npsi, nu, nphi, 4))
        sp = np.sin(psi)[:, None, None]
        nodes[..., 0] = sp * (s[:, None] * np.cos(phi))
        nodes[..., 1] = sp * (s[:, None] * np.sin(phi))
        nodes[..., 2] = sp * u[None, :, None]
        nodes[..., 3] = np.cos(psi)[:, None, None]
        weights = wpsi[:, None, None] * wu[None, :, None] * (2.0 * np.pi / nphi)
        weights = np.broadcast_to(weights, (npsi, nu, nphi))
        return nodes.reshape(-1, 4), weights.reshape(-1).copy()
    raise ValueError(f"sphere grids support dim 2..4, got {dim}")


def ball_volume(dim: int) -> float:
    """Volume of the Euclidean unit ball B^dim."""
    from math import gamma, pi

    return pi ** (dim / 2.0) / gamma(dim / 2.0 + 1.0)


def _halton(count: int, base: int) -> np.ndarray:
    # radical-inverse sequence, indices 1..count so 0 never appears
    out = np.zeros(count)
    idx = np.arange(1, count + 1)
    f = 1.0
    while idx.any():
        f /= base
        out += f * (idx % base)
        idx //= base
    return out


def seeds(dim: int, count: int) -> np.ndarray:
    """Low-discrepancy unit vectors, shape (count, dim)."""
    if dim == 2:
        theta = 2.0 * np.pi * np.modf(np.arange(count) * GOLDEN)[0]
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if dim == 3:
        k = np.arange(count)
        z = 1.0 - (2.0 * k + 1.0) / count
        phi = 2.0 * np.pi * np.modf(k * GOLDEN)[0]
        s = np.sqrt(np.maximum(0.0, 1.0 - z**2))
        return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)
    if dim == 4:
        inv_cdf = np.vectorize(NormalDist().inv_cdf, otypes=[float])
        g = np.stack([inv_cdf(_halton(count, b)) for b in (2, 3, 5, 7)], axis=1)
        return g / np.linalg.norm(g, axis=1, keepdims=True)
    raise ValueError(f"sphere seeds support dim 2..4, got {dim}")
