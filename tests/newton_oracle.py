"""Full-batch Newton and gate-then-dedup, kept as an oracle.

This is the zero-set solve `find_geodesic_vectors` ran before it dropped
seeds at a Newton fixed point from the batch and ran the soundness gate on
the vectors the dedup keeps: every seed steps in every iteration, every
line-search round tries every seed, and the jet tensor checks every
candidate before the dedup.  Dedup and branches come from
`cluster_oracle`.  The library must give exactly the same result.
"""

import cluster_oracle
import numpy as np

from finslergeo import geodesic_vectors as gv
from finslergeo import sphere


def find_geodesic_vectors(dec, norm, samples, tol):
    m_dim = len(dec.m_indices)
    X = sphere.seeds(m_dim, samples)
    r, jac = gv._residual_and_jacobian(dec, norm, X)
    all_seeds_geodesic = bool(np.all(np.linalg.norm(r, axis=-1) <= tol))
    for _ in range(gv.NEWTON_ITERS):
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
            trial_r, _ = gv._residual_m(dec, trial, norm.fundamental_matrix(trial))
            trial_norm = np.linalg.norm(trial_r, axis=-1)
            improved = trial_norm <= rnorm
            best = np.where(improved[:, None], trial, best)
            rnorm = np.where(improved, trial_norm, rnorm)
            scale = np.where(improved, scale, scale * 0.5)
            if np.all(improved):
                break
        X = best
        r, jac = gv._residual_and_jacobian(dec, norm, X)
    converged = np.linalg.norm(r, axis=-1) <= tol
    candidates = X[converged]
    if len(candidates):
        gen, _ = gv._residual_m(dec, candidates, norm._generic_fundamental(candidates))
        candidates = candidates[np.linalg.norm(gen, axis=-1) <= tol]
    reps = cluster_oracle.dedup(candidates, gv.DEDUP_ANGLE)
    labels = cluster_oracle.branch_labels(reps, gv.BRANCH_ANGLE)
    branch_count = len(set(labels))
    if len(reps) > gv.MAX_REPRESENTATIVES:
        reps, labels = gv._cap_round_robin(reps, labels, gv.MAX_REPRESENTATIVES)
    rep_residuals = (
        np.linalg.norm(gv.residual_batch(dec, norm, gv._embed_m(dec, reps)), axis=-1)
        if len(reps)
        else np.zeros(0)
    )
    return gv.GeodesicVectorSet(
        representatives=gv._embed_m(dec, reps) if len(reps) else np.zeros((0, dec.algebra.dim)),
        residual_norms=rep_residuals,
        branch_labels=labels,
        seeds_total=samples,
        converged_total=int(converged.sum()),
        branch_count=branch_count,
        all_seeds_geodesic=all_seeds_geodesic,
    )
