"""List-based dedup and union-find branch labels, kept as an oracle.

These are the loops `find_geodesic_vectors` used before its dedup became a
sweep of each kept vector over a window of later candidates and its
branches were labelled by frontier search over blocks of dots.  Here every
pair is decided by arccos of its dot, the dedup against all vectors kept so
far and the branches over the whole N x N angle matrix.  The library
decides by the dot itself outside a 1e-9 band around the threshold cosine
and by arccos inside it, and must give exactly the same kept vectors and
labels, also for dots that land within rounding of the threshold.
"""

import numpy as np


def dedup(candidates: np.ndarray, dedup_angle: float) -> np.ndarray:
    """Greedy angular dedup in lexicographic order, one list append at a time."""
    m_dim = candidates.shape[-1]
    order = np.lexsort(candidates.T[::-1]) if len(candidates) else []
    candidates = candidates[order] if len(candidates) else candidates
    kept = []
    for vec in candidates:
        if not kept or np.min(np.arccos(np.clip(np.asarray(kept) @ vec, -1.0, 1.0))) > dedup_angle:
            kept.append(vec)
    return np.asarray(kept) if kept else np.zeros((0, m_dim))


def branch_labels(reps: np.ndarray, branch_angle: float) -> list:
    """Single-linkage branches by union-find over every near or antipodal pair."""
    if not len(reps):
        return []
    count = len(reps)
    parent = list(range(count))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    dots = np.clip(reps @ reps.T, -1.0, 1.0)
    near = np.arccos(dots) < branch_angle
    anti = np.arccos(np.clip(-dots, -1.0, 1.0)) < branch_angle
    linked = np.triu(near | anti, k=1)
    for i, j in np.argwhere(linked):
        union(int(i), int(j))
    roots = [find(i) for i in range(count)]
    sizes = {}
    for root in roots:
        sizes[root] = sizes.get(root, 0) + 1
    ordered = sorted(sizes, key=lambda root: (-sizes[root], root))
    names = {root: f"branch-{pos + 1}" for pos, root in enumerate(ordered)}
    return [names[root] for root in roots]
