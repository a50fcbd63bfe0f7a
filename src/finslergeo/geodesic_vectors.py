"""Geodesic-vector criterion on reductive decompositions.

A vector X in the algebra is a geodesic vector when
g_{X_m}(X_m, [X, e_j]_m) = 0 for every m-basis vector e_j; the orbit of
exp(tX) through the origin is then a constant-speed geodesic.  This
module evaluates that residual, solves for its zero set on the unit
sphere of m, and runs the bi-invariance and natural-reductivity checks
built from the same tensors.

The residual's Jacobian is assembled in closed form: the Cartan term
2·C_{X_m}(X_m, ·, ·) drops because the Cartan tensor vanishes when any
slot is radial, leaving g-terms and bracket terms only.  A
finite-difference cross-check of this identity lives in the test-suite.
"""

from dataclasses import dataclass, field

import numpy as np

from . import lie, norms, sphere
from .errors import DegenerateVector, ValidationError

DEFAULT_TOL = 1.0e-9
NAT_RED_TOL = 1.0e-8


@dataclass
class GeodesicResidual:
    residual: np.ndarray


@dataclass
class GeodesicVectorSet:
    representatives: np.ndarray
    residual_norms: np.ndarray
    branch_labels: list
    tolerance: float
    seeds_total: int
    converged_total: int
    branch_count: int
    all_seeds_geodesic: bool


@dataclass
class StructureReport:
    max_residual: float
    witness: dict = field(default_factory=dict)
    tolerance: float = 0.0

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def _m_coords(dec: lie.ReductiveDecomposition, X: np.ndarray) -> np.ndarray:
    return np.asarray(X, dtype=float)[..., list(dec.m_indices)]


def _embed_m(dec: lie.ReductiveDecomposition, Xm: np.ndarray) -> np.ndarray:
    Xm = np.asarray(Xm, dtype=float)
    out = np.zeros(Xm.shape[:-1] + (dec.algebra.dim,))
    out[..., list(dec.m_indices)] = Xm
    return out


def _ad_sub(dec: lie.ReductiveDecomposition, X: np.ndarray) -> np.ndarray:
    """Matrix with column j holding the m-coords of [X, e_j], j over m."""
    idx = list(dec.m_indices)
    admat = lie.ad(dec.algebra, X)
    return admat[..., idx, :][..., idx]


def residual_batch(dec, norm, Xs, generic=False) -> np.ndarray:
    """Residual vectors for a batch of algebra vectors, shape (..., m)."""
    Xs = np.asarray(Xs, dtype=float)
    ym = _m_coords(dec, Xs)
    if np.any(np.linalg.norm(ym, axis=-1) == 0.0):
        raise DegenerateVector("criterion needs a nonzero m-component")
    if generic:
        g = norms.MinkowskiNorm._generic_fundamental(norm, ym)
    else:
        g = norm.fundamental_matrix(ym)
    sub = _ad_sub(dec, Xs)
    return np.einsum("...p,...pq,...qj->...j", ym, g, sub)


def geodesic_residual(dec, norm, X, generic=False) -> GeodesicResidual:
    """r_j = g_{X_m}(X_m, [X, e_j]_m) over the m-basis."""
    return GeodesicResidual(residual=residual_batch(dec, norm, X, generic=generic))


def _residual_m(dec, norm, Xm):
    """Residual in m-coordinates with the tensor g and ad block it used."""
    g = norm.fundamental_matrix(Xm)
    sub = _ad_sub(dec, _embed_m(dec, Xm))
    r = np.einsum("...p,...pq,...qj->...j", Xm, g, sub)
    return r, g, sub


def _residual_and_jacobian(dec, norm, Xm):
    """Residual and its exact Jacobian in m-coordinates, batched."""
    r, g, sub = _residual_m(dec, norm, Xm)
    idx = list(dec.m_indices)
    c_mm = dec.algebra.c[np.ix_(idx, idx, idx)]
    yg = np.einsum("...p,...pq->...q", Xm, g)
    # J[j, k] = g(e_k, [X, e_j]_m) + g(X_m, [e_k, e_j]_m)
    term1 = np.einsum("...kq,...qj->...jk", g, sub)
    term2 = np.einsum("...q,kjq->...jk", yg, c_mm)
    return r, term1 + term2


def find_geodesic_vectors(
    dec,
    norm,
    samples: int = 4096,
    newton_iters: int = 25,
    tol: float = DEFAULT_TOL,
    dedup_angle: float = 1.0e-3,
    branch_angle: float = 0.3,
    max_representatives: int | None = 64,
) -> GeodesicVectorSet:
    """Zero set of the criterion on the unit sphere of m.

    Seeds a low-discrepancy sphere set and runs damped Newton restricted
    to the sphere in lockstep over all seeds; whether every seed already
    solves the criterion is read off the first residual.  Seeds whose
    residual ends below tol are candidates, and a candidate is kept only
    if the generic tensor path also puts it below tol.  The survivors
    are sorted lexicographically and deduplicated greedily: a vector is
    kept when it is more than dedup_angle from every vector kept before
    it.  The representatives are grouped into branches by single-linkage
    clustering on the angle between lines, so two representatives within
    branch_angle of each other or of each other's negative share a
    branch; branches are named by size, largest first.  At most
    max_representatives are returned, taken round-robin over the
    branches in that order, and branch_count counts the branches before
    the cap.  Zero sets here are generically positive dimensional, so
    convergence means residual below tol, never step collapse; seeds
    that fail to converge are only counted.
    """
    if branch_angle >= 0.5 * np.pi:
        raise ValidationError("branch_angle must be below pi/2")
    m_dim = len(dec.m_indices)
    X = sphere.seeds(m_dim, samples)
    r, jac = _residual_and_jacobian(dec, norm, X)
    all_seeds_geodesic = bool(np.all(np.linalg.norm(r, axis=-1) <= tol))
    for _ in range(newton_iters):
        rnorm = np.linalg.norm(r, axis=-1)
        if np.all(rnorm <= tol):
            break
        aug = np.concatenate([jac, X[:, None, :]], axis=1)
        rhs = np.concatenate([-r, np.zeros((len(X), 1))], axis=1)
        step = np.einsum("...ij,...j->...i", np.linalg.pinv(aug), rhs)
        scale = np.ones(len(X))
        best = X
        for _ in range(5):
            trial = X + scale[:, None] * step
            trial = trial / np.linalg.norm(trial, axis=-1, keepdims=True)
            trial_norm = np.linalg.norm(_residual_m(dec, norm, trial)[0], axis=-1)
            improved = trial_norm <= rnorm
            best = np.where(improved[:, None], trial, best)
            rnorm = np.where(improved, trial_norm, rnorm)
            scale = np.where(improved, scale, scale * 0.5)
            if np.all(improved):
                break
        X = best
        r, jac = _residual_and_jacobian(dec, norm, X)
    converged = np.linalg.norm(r, axis=-1) <= tol
    candidates = X[converged]

    # soundness gate: the generic tensor path must agree
    if len(candidates):
        gen = residual_batch(dec, norm, _embed_m(dec, candidates), generic=True)
        keep = np.linalg.norm(gen, axis=-1) <= tol
        candidates = candidates[keep]

    reps = _dedup(candidates, dedup_angle)
    labels = _branch_labels(reps, branch_angle)
    branch_count = len(set(labels))
    if max_representatives is not None and len(reps) > max_representatives:
        reps, labels = _cap_round_robin(reps, labels, max_representatives)
    rep_residuals = (
        np.linalg.norm(residual_batch(dec, norm, _embed_m(dec, reps)), axis=-1)
        if len(reps)
        else np.zeros(0)
    )
    return GeodesicVectorSet(
        representatives=_embed_m(dec, reps) if len(reps) else np.zeros((0, dec.algebra.dim)),
        residual_norms=rep_residuals,
        branch_labels=labels,
        tolerance=tol,
        seeds_total=samples,
        converged_total=int(converged.sum()),
        branch_count=branch_count,
        all_seeds_geodesic=all_seeds_geodesic,
    )


def _dedup(candidates: np.ndarray, dedup_angle: float) -> np.ndarray:
    """Greedy angular dedup of unit vectors in lexicographic order."""
    if not len(candidates):
        return np.zeros((0, candidates.shape[-1]))
    candidates = candidates[np.lexsort(candidates.T[::-1])]
    buf = np.empty_like(candidates)
    count = 0
    for vec in candidates:
        if not count or np.min(np.arccos(np.clip(buf[:count] @ vec, -1.0, 1.0))) > dedup_angle:
            buf[count] = vec
            count += 1
    return buf[:count].copy()


def _branch_labels(reps: np.ndarray, branch_angle: float) -> list:
    """Single-linkage branches of unit vectors by the angle between lines.

    The components are labelled by frontier search from the lowest
    unlabelled index, so each component's root is its minimum index.
    Folding d and -d into arccos(|d|) is exact for branch_angle < pi/2.
    """
    count = len(reps)
    if not count:
        return []
    angles = reps @ reps.T
    np.abs(angles, out=angles)
    np.clip(angles, -1.0, 1.0, out=angles)
    np.arccos(angles, out=angles)
    # only the upper triangle is read, like a union over the pairs i < j
    linked = np.triu(angles < branch_angle, k=1)
    del angles
    linked |= linked.T
    roots = np.full(count, -1)
    for root in range(count):
        if roots[root] >= 0:
            continue
        roots[root] = root
        frontier = np.arange(count) == root
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & (roots < 0)
            roots[frontier] = root
    heads, sizes = np.unique(roots, return_counts=True)
    ordered = sorted(zip(heads.tolist(), sizes.tolist()), key=lambda hs: (-hs[1], hs[0]))
    names = {head: f"branch-{pos + 1}" for pos, (head, _) in enumerate(ordered)}
    return [names[head] for head in roots.tolist()]


def _cap_round_robin(reps, labels, cap):
    by_branch = {}
    for pos, label in enumerate(labels):
        by_branch.setdefault(label, []).append(pos)
    # rank order: largest branch first, ties by the lowest member index
    queues = sorted(by_branch.values(), key=lambda queue: (-len(queue), queue[0]))
    picked = []
    cursor = 0
    while len(picked) < cap:
        progressed = False
        for queue in queues:
            if cursor < len(queue):
                picked.append(queue[cursor])
                progressed = True
                if len(picked) == cap:
                    break
        if not progressed:
            break
        cursor += 1
    picked.sort()
    return reps[picked], [labels[pos] for pos in picked]


def _sample_nonzero(rng, count, dim, floor=0.3):
    out = rng.standard_normal((count, dim))
    small = np.linalg.norm(out, axis=-1) < floor
    while np.any(small):
        out[small] = rng.standard_normal((int(small.sum()), dim))
        small = np.linalg.norm(out, axis=-1) < floor
    return out


def check_naturally_reductive(dec, norm, samples=200, seed=0, tol=NAT_RED_TOL) -> StructureReport:
    """Max residual of g_y([x,u]_m,v) + g_y(u,[x,v]_m) + 2C_y([x,y]_m,u,v).

    x, y, u and v are drawn in m, with y bounded away from zero, and
    the witness holds their m-coordinates at the worst sample.
    """
    alg = dec.algebra
    m_dim = len(dec.m_indices)
    rng = np.random.RandomState(seed)
    ym = _sample_nonzero(rng, samples, m_dim)
    xm, um, vm = (rng.standard_normal((samples, m_dim)) for _ in range(3))
    y, x, u, v = (_embed_m(dec, w) for w in (ym, xm, um, vm))
    g = norm.fundamental_matrix(ym)
    cart = norm.cartan(ym)
    xu = _m_coords(dec, lie.bracket(alg, x, u))
    xv = _m_coords(dec, lie.bracket(alg, x, v))
    xy = _m_coords(dec, lie.bracket(alg, x, y))
    res = (
        np.einsum("...p,...pq,...q->...", xu, g, vm)
        + np.einsum("...p,...pq,...q->...", um, g, xv)
        + 2.0 * np.einsum("...pqr,...p,...q,...r->...", cart, xy, um, vm)
    )
    worst = int(np.argmax(np.abs(res)))
    return StructureReport(
        max_residual=float(np.abs(res[worst])),
        witness={"y": ym[worst], "x": xm[worst], "u": um[worst], "v": vm[worst]},
        tolerance=tol,
    )


def check_minkowski_lie_algebra(alg, norm, samples=200, seed=0, tol=1.0e-10) -> StructureReport:
    """The naturally reductive check on the split m = g.

    With m = g the identity is the infinitesimal ad-invariance of the
    norm: vanishing over all samples certifies a bi-invariant metric on
    the group; a single nonzero witness refutes it.
    """
    dec = lie.ReductiveDecomposition(alg, m_indices=tuple(range(alg.dim)))
    return check_naturally_reductive(dec, norm, samples=samples, seed=seed, tol=tol)


def randers_residual_identity(dec, a, Xfield, y, z):
    """Both sides of the Randers residual factorization.

    For F = sqrt(ã(·,·)) + ã(X, ·) on m the criterion residual factors
    through the Riemannian data:

      g_{y_m}(y_m, w) = ã(y_m, w)·F(y_m)/√ã(y_m, y_m) + ã(X, w)·F(y_m)

    with w = [y, z]_m.  The left side is evaluated through the generic
    tensor path, the right side assembled from ã alone; their agreement
    is what makes the F- and ã-criteria co-vanish when ã(X, w) = 0.
    """
    a = np.asarray(a, dtype=float)
    Xfield = np.asarray(Xfield, dtype=float)
    ym = _m_coords(dec, np.asarray(y, dtype=float))
    if np.linalg.norm(ym) == 0.0:
        raise DegenerateVector("identity needs a nonzero m-component")
    w = _m_coords(dec, lie.bracket(dec.algebra, np.asarray(y, dtype=float), np.asarray(z, dtype=float)))
    norm = norms.RandersNorm(a, a @ Xfield)
    g = norms.MinkowskiNorm._generic_fundamental(norm, ym)
    lhs = float(ym @ g @ w)
    alpha = float(np.sqrt(ym @ a @ ym))
    f = alpha + float((a @ Xfield) @ ym)
    rhs = float((a @ ym) @ w) * f / alpha + float((a @ Xfield) @ w) * f
    return lhs, rhs
