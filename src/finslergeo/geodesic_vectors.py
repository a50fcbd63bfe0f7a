"""Geodesic-vector criterion on reductive decompositions.

A vector X in the algebra is a geodesic vector when
g_{X_m}(X_m, [X, e_j]_m) = 0 for every m-basis vector e_j, the m-part
of r = ad*_X μ with μ = g_{X_m} X_m; the orbit of exp(tX) through the
origin is then a constant-speed geodesic.  This module evaluates that
residual, solves for its zero set on the unit sphere of m, and runs the
structure checks of a split on m-coordinates: the natural-reductivity
identity on c[m, m, m] (bi-invariance when m = g), and the
Ad(H)-invariance of the norm as the h-block of the same residual.

The residual has one route: μ comes from the norm's Legendre map
`norm.legendre(X_m)`, which Euclidean and Randers norms carry in closed
form (for Randers, ad*_X μ with μ = F·(a X/α + b) is the paper's Randers
form of the criterion), so forming r builds no norm tensor.  Only the
Newton step reads the tensor, through the Jacobian J = ad*_X·g + K,
where column k of K is ad*_{e_k} μ: μ has derivative g, since the Cartan
term 2·C_{X_m}(X_m, ·, ·) vanishes when a slot is radial.  A
finite-difference cross-check of this identity lives in the test-suite.
Every ad* is `lie.add_coadjoint` on batch-last rows, and the step solves
its normal equations by a Cholesky factorisation unrolled over n, so a
seed's residual and step are the same in a batch of any size.
"""

from dataclasses import dataclass

import numpy as np

from . import lie, sphere
from .errors import DegenerateVector
from .norms import ordered_dot

NEWTON_ITERS = 25
# Tikhonov damping of the Newton step's normal equations, as a share of
# their trace, in which the sphere constraint's row is weighted by
# w = trace(J^T J)/n, so the step does not depend on the scale of F.  It
# may not be 0: on a curve zero set the augmented Jacobian [J; X^T] is
# rank deficient (on the circle X3 = 0 of H3 with
# a = I, b3 = 0 its singular values are 1.3, 1 and 0, and the last is
# 1.3e-7 at X3 = 1e-7), so the undamped normal equations are singular
# there and a pivot of `_spd_solve`'s Cholesky factorisation is 0, which
# raises LinAlgError.  Damped, the step is the minimum-norm
# least-squares step to 1e-12 absolute near such a curve, and to about
# 1e-11 relative at generic seeds.
STEP_DAMPING = 1.0e-12
# A seed whose step moves no coordinate by more than this is at a fixed
# point to rounding, and leaves the Newton batch.
HOLD_STEP = 2.0**-52
DEDUP_ANGLE = 1.0e-3
# Branches link lines, folding d and -d into |d·d'|; comparing that
# with cos(BRANCH_ANGLE) tests the angle between lines only while the
# angle stays below pi/2.
BRANCH_ANGLE = 0.3
MAX_REPRESENTATIVES = 64


@dataclass
class GeodesicVectorSet:
    representatives: np.ndarray
    residual_norms: np.ndarray
    branch_labels: list
    seeds_total: int
    converged_total: int
    branch_count: int
    all_seeds_geodesic: bool


@dataclass
class StructureReport:
    max_residual: float
    witness: dict


def _embed_m(dec: lie.ReductiveDecomposition, Xm: np.ndarray) -> np.ndarray:
    out = np.zeros(Xm.shape[:-1] + (dec.algebra.dim,))
    out[..., list(dec.m_indices)] = Xm
    return out


def _criterion(terms, X, mu):
    """r = ad*_X μ over the terms of c[:, m, m] for X in g, or of c[m, m, m]
    for X in m, batched, with μ = g_{X_m} X_m from the norm's Legendre
    map: r_j = g(X_m, [X, e_j]_m)."""
    return lie.add_coadjoint(terms, X.T, mu.T, np.zeros(mu.T.shape)).T


def ad_h_breach(dec, norm):
    """(|r|, index of Z) where the norm on m most breaches Ad(H)-invariance, or None.

    d/dt F(Ad(exp tZ) y) at t = 0 is g_y(y, [Z, y]_m)/F(y); on c[m, h, m] the
    criterion's r[s, a] is -g_y(y, [e_{h_a}, y]_m), for all of h in one call
    (exact for connected H).  Of 64 draws, y breaches when |r| > 1e-10·max|c|·|g_y y|·|y|.
    """
    m, h = list(dec.m_indices), list(dec.h_indices)
    y = _sample_nonzero(np.random.RandomState(0), 64, len(m))
    mu = norm.legendre(y)
    terms = lie.terms(dec.algebra.c[np.ix_(m, h, m)])
    r = lie.add_coadjoint(terms, y.T, mu.T, np.zeros((len(h), len(y)))).T
    scale = 1.0e-10 * np.max(np.abs(dec.algebra.c)) * np.linalg.norm(mu, axis=-1) * np.linalg.norm(y, axis=-1)
    excess = np.abs(r) - scale[:, None]
    s, a = np.unravel_index(int(np.argmax(excess)), excess.shape)
    return (float(abs(r[s, a])), h[a]) if excess[s, a] > 0.0 else None


def residual_batch(dec, norm, Xs) -> np.ndarray:
    """r_j = g_{X_m}(X_m, [X, e_j]_m) over the m-basis, batched: shape (..., m)."""
    Xs = np.asarray(Xs, dtype=float)
    idx = list(dec.m_indices)
    ym = Xs[..., idx]
    if np.any(np.linalg.norm(ym, axis=-1) == 0.0):
        raise DegenerateVector("criterion needs a nonzero m-component")
    return _criterion(lie.terms(dec.algebra.c[:, idx][:, :, idx]), Xs, norm.legendre(ym))


def _residual(terms, norm, Xm):
    """Residual at m-coordinates Xm, from the terms of c[m, m, m]."""
    return _criterion(terms, Xm, norm.legendre(Xm))


def _jacobian(terms, norm, Xm):
    """The residual's exact Jacobian in m-coordinates, batched, from the
    terms of c[m, m, m]: ad*_X·ĝ plus the columns ad*_{e_i} μ, μ = ĝ X.

    Formed on (n, n, batch) arrays, the batch axis innermost, with every
    sum over n in index order, so a row is the same alone as in any
    batch; the result is their (..., n, n) view, read by `_newton_step`.
    """
    n = Xm.shape[-1]
    xt = np.ascontiguousarray(Xm.reshape(-1, n).T)
    g = norm.fundamental_matrix(Xm).reshape(-1, n, n).transpose(1, 2, 0)
    mu = ordered_dot(g, xt[:, None])
    jac = lie.add_coadjoint(terms, xt, g, np.zeros(g.shape))
    # on the identity's rows, (n, 1) each, ad*_{e_i} μ lands in column i
    lie.add_coadjoint(terms, np.eye(n)[:, :, None], mu, jac)
    return jac.transpose(2, 0, 1).reshape(Xm.shape + (n,))


def find_geodesic_vectors(dec, norm, samples: int, tol: float) -> GeodesicVectorSet:
    """Zero set of the criterion on the unit sphere of m.

    Seeds a low-discrepancy sphere set and runs at most NEWTON_ITERS
    steps of damped Newton restricted to the sphere in lockstep over all
    seeds; whether every seed already solves the criterion is read off
    the first residual.  Every residual, the first one, each line-search
    trial and the representatives', is ad*_X(norm.legendre(X)) by
    `_residual`; a seed's residual is the one its accepted trial gave,
    never recomputed.  The norm tensor is built only for the Jacobian,
    on the seeds still moving, just before their step.  Each step is the
    least-squares solution of J d = -r with X.d = 0, the constraint row
    weighted by w = trace(J^T J)/n, taken from the normal equations
    (J^T J + w X X^T + lam I) d = -J^T r with a Tikhonov lam of
    STEP_DAMPING times their trace, solved by Cholesky, and then halved
    by the line search.
    A seed whose step moves no coordinate by more than HOLD_STEP = 2^-52
    has stopped to rounding: it leaves the batch and keeps its position
    and residual.  Seeds whose residual ends below tol are candidates.
    They are sorted lexicographically and deduplicated once, greedily: a
    vector is kept when its dot with every vector kept before it is
    below cos(DEDUP_ANGLE).  The representatives are grouped into
    branches by single-linkage clustering of lines, so two
    representatives whose dot exceeds cos(BRANCH_ANGLE) in magnitude
    share a branch; branches are ranked by size, largest first.  At most
    MAX_REPRESENTATIVES are returned, taken round-robin over the branches
    in rank order, and branch_count counts the branches before the cap.
    Each returned coordinate at most HOLD_STEP in magnitude is rounding
    noise and is set to exact 0.0, and the residual norms are taken at
    the flushed vectors.  The solve runs on m-coordinates and integer
    ranks; the result alone is embedded in g and names rank k
    branch-(k+1).  Zero sets here are generically positive dimensional,
    so convergence means residual below tol, never step collapse; seeds
    that fail to converge are only counted.
    """
    idx = list(dec.m_indices)
    terms = lie.terms(dec.algebra.c[np.ix_(idx, idx, idx)])
    X = sphere.seeds(len(idx), samples)
    # r holds the residuals of the moving seeds, in their order
    r = _residual(terms, norm, X)
    rnorm = np.linalg.norm(r, axis=-1)
    all_seeds_geodesic = bool(np.all(rnorm <= tol))
    moving = np.arange(samples)
    for _ in range(NEWTON_ITERS):
        if np.all(rnorm <= tol) or not len(moving):
            break
        here = X[moving]
        step = _newton_step(_jacobian(terms, norm, here), here, r)
        part = rnorm[moving]
        best = _line_search(terms, norm, here, step, r, part)
        X[moving], rnorm[moving] = best, part
        keep = np.any(np.abs(best - here) > HOLD_STEP, axis=-1)
        moving, r = moving[keep], r[keep]
    converged = rnorm <= tol
    reps = _dedup(X[converged], DEDUP_ANGLE)
    ranks = _branch_ranks(reps, BRANCH_ANGLE)
    branch_count = int(ranks.max()) + 1 if len(ranks) else 0
    if len(reps) > MAX_REPRESENTATIVES:
        reps, ranks = _cap_round_robin(reps, ranks, MAX_REPRESENTATIVES)
    # below the rounding of a unit vector's largest coordinate: noise
    reps = np.where(np.abs(reps) <= HOLD_STEP, 0.0, reps)
    return GeodesicVectorSet(
        representatives=_embed_m(dec, reps),
        residual_norms=np.linalg.norm(_residual(terms, norm, reps), axis=-1),
        branch_labels=[f"branch-{rank + 1}" for rank in ranks.tolist()],
        seeds_total=samples,
        converged_total=int(converged.sum()),
        branch_count=branch_count,
        all_seeds_geodesic=all_seeds_geodesic,
    )


def _newton_step(jac, X, r):
    """Least-squares step d of J d = -r with X.d = 0, batched.

    Solves the normal equations of the augmented system [J; √w X^T] d =
    [-r; 0], (J^T J + w X X^T + lam I) d = -J^T r, with the constraint
    weight w = trace(J^T J)/n and lam = STEP_DAMPING * trace(J^T J +
    w X X^T).  J scales with F, so w keeps both rows on one scale: the
    step is the same for F and sF.  Where J vanishes, w is 1.  The
    system is formed and solved by `_spd_solve` on arrays with the batch
    axis innermost: J is read as the (n, n, batch) array `_jacobian`
    builds, with no copy, and each row is the same alone as in a batch.
    """
    n = X.shape[-1]
    jt = jac.transpose(1, 2, 0)
    normal = ordered_dot(jt[:, :, None], jt[:, None])
    weight = _trace(normal) / n
    weight = np.where(weight > 0.0, weight, 1.0)
    xt = np.ascontiguousarray(X.T)
    outer = xt[:, None] * xt
    outer *= weight
    normal += outer
    lam = STEP_DAMPING * _trace(normal)
    for i in range(n):
        normal[i, i] += lam
    return _spd_solve(normal, -ordered_dot(jt, r.T[:, None])).T


def _trace(a):
    """The trace of an (n, n, batch) array, its terms added in index order."""
    return sum((a[i, i] for i in range(1, len(a))), a[0, 0])


def _spd_solve(a, b):
    """x with a x = b for symmetric positive definite a, batch axis last:
    a is (n, n, batch) and b is (n, batch); a and b are overwritten.

    A Cholesky factorisation a = L L^T unrolled over n, with the forward
    substitution folded into it and the back substitution after it, all
    in elementwise operations.  Raises LinAlgError where a pivot is <= 0,
    as np.linalg.solve does on an exactly singular matrix; a NaN column
    gives NaN.
    """
    n = len(b)
    for j in range(n):
        if (a[j, j] <= 0.0).any():
            raise np.linalg.LinAlgError("matrix is not positive definite")
        np.sqrt(a[j, j], out=a[j, j])
        col = a[j + 1 :, j]
        col /= a[j, j]
        a[j + 1 :, j + 1 :] -= col[:, None] * col
        b[j] /= a[j, j]
        b[j + 1 :] -= col * b[j]
    for j in reversed(range(n)):
        b[j] /= a[j, j]
        b[:j] -= a[j, :j] * b[j]
    return b


def _line_search(terms, norm, X, step, r, rnorm):
    """Newton's damped update: each seed's step is halved up to four times
    until the residual norm does not grow; seeds that never improve stay.

    Only seeds that have not yet improved are tried again, since a seed
    that improved would repeat the same trial.  r and rnorm are
    overwritten with the residuals and their norms at the returned
    positions: an improved seed's come from its accepted trial.
    """
    best = X.copy()
    scale = np.ones(len(X))
    todo = np.arange(len(X))
    for _ in range(5):
        trial = X[todo] + scale[todo, None] * step[todo]
        trial = trial / np.linalg.norm(trial, axis=-1, keepdims=True)
        trial_r = _residual(terms, norm, trial)
        trial_norm = np.linalg.norm(trial_r, axis=-1)
        improved = trial_norm <= rnorm[todo]
        won = todo[improved]
        best[won], r[won], rnorm[won] = trial[improved], trial_r[improved], trial_norm[improved]
        scale[todo[~improved]] *= 0.5
        todo = todo[~improved]
        if not len(todo):
            break
    return best


# A conservative margin on the two filters that only skip pairs, the
# dedup window's reach and its prefilter: widened by it, neither skips a
# pair the cosine rule would catch, even where their dots round apart
# from the rule's own.  It never decides a pair.
_BAND = 1.0e-9
# frontier vectors per block of dots in _branch_ranks
_BLOCK = 256


def _dedup(candidates: np.ndarray, dedup_angle: float) -> np.ndarray:
    """Greedy angular dedup of unit vectors in lexicographic order.

    Each kept vector removes every later candidate whose dot with it is
    at least cos(dedup_angle).  The sort puts the first coordinate in
    ascending order, and two unit vectors that close differ in it by at
    most their chord, so only the window of later candidates within
    twice that chord is compared; when the windows hold few pairs, only
    heads with a pair near the threshold are visited.
    """
    if not len(candidates):
        return np.zeros((0, candidates.shape[-1]))
    cands = candidates[np.lexsort(candidates.T[::-1])]
    count = len(cands)
    cos_angle = np.cos(dedup_angle)
    reach = 2.0 * np.sqrt(2.0 * (1.0 - cos_angle + _BAND))
    ends = np.searchsorted(cands[:, 0], cands[:, 0] + reach, side="right")
    heads = np.flatnonzero(ends > np.arange(count) + 1)
    widths = ends[heads] - heads - 1
    # a tight cluster puts O(count^2) pairs in reach, but its first
    # vector removes the rest in one visit
    if widths.sum() <= 16 * count:
        first = np.repeat(heads, widths)
        second = np.arange(len(first)) + np.repeat(heads + 1 - (np.cumsum(widths) - widths), widths)
        near = np.einsum("ij,ij->i", cands[first], cands[second]) >= cos_angle - 2.0 * _BAND
        heads = np.unique(first[near])
    alive = np.ones(count, dtype=bool)
    for head in heads:
        if alive[head]:
            alive[head + 1 : ends[head]] &= cands[head + 1 : ends[head]] @ cands[head] < cos_angle
    return cands[alive]


def _branch_ranks(reps: np.ndarray, branch_angle: float) -> np.ndarray:
    """Single-linkage branches of unit vectors as lines, as integer ranks.

    Two vectors are linked when their dot exceeds cos(branch_angle) in
    magnitude.  The components are found by frontier search from the
    lowest unlabelled index, so each component's root is its minimum
    index; each layer takes the dots between the unlabelled vectors and
    the frontier in blocks of _BLOCK, never the whole Gram matrix.  Rank
    0 is the largest branch, and branches of equal size are ranked by
    their roots.
    """
    count = len(reps)
    cos_angle = np.cos(branch_angle)
    roots = np.full(count, -1)
    open_ = np.arange(count)
    while len(open_):
        root, open_ = open_[0], open_[1:]
        roots[root] = root
        frontier = np.array([root])
        while len(frontier) and len(open_):
            rows = reps[open_]
            hit = np.zeros(len(open_), dtype=bool)
            for start in range(0, len(frontier), _BLOCK):
                dots = rows @ reps[frontier[start : start + _BLOCK]].T
                hit |= np.abs(dots, out=dots).max(axis=1) > cos_angle
                # one block of dots at a time: free it before the next
                del dots
            frontier, open_ = open_[hit], open_[~hit]
            roots[frontier] = root
    _, members, sizes = np.unique(roots, return_inverse=True, return_counts=True)
    # roots ascend, so a stable sort by size keeps ties in root order
    return np.argsort(np.argsort(-sizes, kind="stable"))[members]


def _cap_round_robin(reps, ranks, cap):
    """The first cap representatives taken round-robin over the branches.

    Round k takes the k-th member of every branch in rank order, so one
    sort by (depth in branch, rank) lists the picks.
    """
    # a member's depth is its place among its branch's members, by index
    by_rank = np.argsort(ranks, kind="stable")
    depth = np.empty_like(ranks)
    depth[by_rank] = np.arange(len(ranks)) - np.searchsorted(ranks[by_rank], ranks[by_rank])
    picked = np.sort(np.lexsort((ranks, depth))[:cap])
    return reps[picked], ranks[picked]


def _sample_nonzero(rng, count, dim, floor=0.3):
    out = rng.standard_normal((count, dim))
    small = np.linalg.norm(out, axis=-1) < floor
    while np.any(small):
        out[small] = rng.standard_normal((int(small.sum()), dim))
        small = np.linalg.norm(out, axis=-1) < floor
    return out


def check_naturally_reductive(dec, norm, samples: int, seed: int) -> StructureReport:
    """Max residual of g_y([x,u]_m,v) + g_y(u,[x,v]_m) + 2C_y([x,y]_m,u,v).

    x, y, u and v are drawn in m, with y bounded away from zero, and
    every bracket [x, w]_m is taken on m-coordinates with c[m, m, m].
    The witness holds x, y, u and v in m-coordinates at the worst sample.
    """
    idx = list(dec.m_indices)
    c_mm = dec.algebra.c[np.ix_(idx, idx, idx)]
    rng = np.random.RandomState(seed)
    ym = _sample_nonzero(rng, samples, len(idx))
    xm, um, vm = (rng.standard_normal((samples, len(idx))) for _ in range(3))
    g = norm.fundamental_matrix(ym)
    cart = norm.cartan(ym)
    xu, xv, xy = (np.einsum("ijk,...i,...j->...k", c_mm, xm, w) for w in (um, vm, ym))
    res = (
        np.einsum("...p,...pq,...q->...", xu, g, vm)
        + np.einsum("...p,...pq,...q->...", um, g, xv)
        + 2.0 * np.einsum("...pqr,...p,...q,...r->...", cart, xy, um, vm)
    )
    worst = int(np.argmax(np.abs(res)))
    return StructureReport(
        max_residual=float(np.abs(res[worst])),
        witness={"y": ym[worst], "x": xm[worst], "u": um[worst], "v": vm[worst]},
    )


def check_minkowski_lie_algebra(alg, norm, samples: int, seed: int) -> StructureReport:
    """The naturally reductive check on the split m = g.

    With m = g the identity is the infinitesimal ad-invariance of the
    norm: vanishing over all samples certifies a bi-invariant metric on
    the group; a single nonzero witness refutes it.
    """
    dec = lie.ReductiveDecomposition(alg, m_indices=tuple(range(alg.dim)))
    return check_naturally_reductive(dec, norm, samples=samples, seed=seed)

