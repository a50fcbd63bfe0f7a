"""Full-batch Newton and the jet-tensor gate, kept as oracles.

`find_geodesic_vectors` is the zero-set solve without the shortcuts of
the library's: every seed steps in every iteration and every line-search
round tries every seed.  It takes the library's step,
`geodesic_vectors._newton_step`, and the same hold: a seed whose step
moves no coordinate by more than HOLD_STEP keeps that position from then
on, its later steps discarded.  It evaluates the residual by the
library's `_residual`, in m-coordinates, and keeps each seed's residual
from the trial that put it where it is; the Jacobian comes from the
library's `_jacobian`.  Representative coordinates at most HOLD_STEP in
magnitude are set to 0.0, as the library does.  Dedup, branches and the
cap come from `cluster_oracle`.  The library must give
exactly the same result.

`find_geodesic_vectors_pinv` is the loop the library ran before its step
became damped normal equations: the minimum-norm least-squares step
pinv([J; √w X^T]) [-r; 0], with the library's row weight w, and no
hold, so a seed stops only at a bitwise fixed point.  It rounds
differently, so the library must match it in counts, verdicts and branch
partition, and in representatives within DEDUP_ANGLE.

`jet_gate` recomputes the criterion residual with μ = ĝ X_m from the
jet tensor of the norm's data (`jet_norms.of`) in place of its
closed-form Legendre map, and ad* from the terms of the block c[:, m, m]
on the vector embedded in g: an independent route to the same quantity,
which every representative the library keeps must pass.
"""

import cluster_oracle
import jet_norms
import numpy as np

from finslergeo import geodesic_vectors as gv
from finslergeo import lie, sphere


def pinv_step(jac, X, r):
    """The minimum-norm least-squares step of [J; √w X^T] d = [-r; 0],
    w = trace(J^T J)/n as the library weighs the constraint row."""
    weight = np.einsum("...ij,...ij->...", jac, jac) / X.shape[-1]
    aug = np.concatenate([jac, np.sqrt(weight)[:, None, None] * X[:, None, :]], axis=1)
    rhs = np.concatenate([-r, np.zeros((len(X), 1))], axis=1)
    return np.einsum("...ij,...j->...i", np.linalg.pinv(aug), rhs)


def jet_gate(dec, norm, Xm, tol):
    """Whether the jet tensor also puts the residual at each row of
    m-coordinates Xm at or below tol; a NaN residual fails."""
    idx = list(dec.m_indices)
    terms = lie.terms(dec.algebra.c[:, idx][:, :, idx])
    mu = np.einsum("...ij,...j->...i", jet_norms.of(norm)._generic_fundamental(Xm), Xm)
    gen = gv._criterion(terms, gv._embed_m(dec, Xm), mu)
    return np.linalg.norm(gen, axis=-1) <= tol


def m_terms(dec):
    """The nonzero terms of the m-block c[m, m, m] of the structure
    constants, as `lie.terms` lists them."""
    idx = list(dec.m_indices)
    return lie.terms(dec.algebra.c[np.ix_(idx, idx, idx)])


def find_geodesic_vectors(dec, norm, samples, tol):
    return _zero_set(dec, norm, samples, tol, gv._newton_step, hold=True)


def find_geodesic_vectors_pinv(dec, norm, samples, tol):
    return _zero_set(dec, norm, samples, tol, pinv_step, hold=False)


def _zero_set(dec, norm, samples, tol, step_of, hold):
    terms = m_terms(dec)
    X = sphere.seeds(len(dec.m_indices), samples)
    r = gv._residual(terms, norm, X)
    rnorm = np.linalg.norm(r, axis=-1)
    all_seeds_geodesic = bool(np.all(rnorm <= tol))
    held = np.zeros(samples, dtype=bool)
    for _ in range(gv.NEWTON_ITERS):
        if np.all(rnorm <= tol):
            break
        step = step_of(gv._jacobian(terms, norm, X), X, r)
        scale = np.ones(len(X))
        best, best_r, best_norm = X, r, rnorm
        for _ in range(5):
            trial = X + scale[:, None] * step
            trial = trial / np.linalg.norm(trial, axis=-1, keepdims=True)
            trial_r = gv._residual(terms, norm, trial)
            trial_norm = np.linalg.norm(trial_r, axis=-1)
            improved = trial_norm <= best_norm
            best = np.where(improved[:, None], trial, best)
            best_r = np.where(improved[:, None], trial_r, best_r)
            best_norm = np.where(improved, trial_norm, best_norm)
            scale = np.where(improved, scale, scale * 0.5)
            if np.all(improved):
                break
        if hold:
            best = np.where(held[:, None], X, best)
            best_r = np.where(held[:, None], r, best_r)
            best_norm = np.where(held, rnorm, best_norm)
            held |= np.all(np.abs(best - X) <= gv.HOLD_STEP, axis=-1)
        X, r, rnorm = best, best_r, best_norm
    converged = rnorm <= tol
    reps = cluster_oracle.dedup(X[converged], gv.DEDUP_ANGLE)
    labels = cluster_oracle.branch_labels(reps, gv.BRANCH_ANGLE)
    branch_count = len(set(labels))
    if len(reps) > gv.MAX_REPRESENTATIVES:
        reps, labels = cluster_oracle.cap_round_robin(reps, labels, gv.MAX_REPRESENTATIVES)
    reps = np.where(np.abs(reps) <= gv.HOLD_STEP, 0.0, reps)
    return gv.GeodesicVectorSet(
        representatives=gv._embed_m(dec, reps),
        residual_norms=np.linalg.norm(gv._residual(terms, norm, reps), axis=-1),
        branch_labels=labels,
        seeds_total=samples,
        converged_total=int(converged.sum()),
        branch_count=branch_count,
        all_seeds_geodesic=all_seeds_geodesic,
    )
