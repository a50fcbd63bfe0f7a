"""List-based dedup and union-find branch labels, kept as an oracle.

These are the loops `find_geodesic_vectors` used before its dedup became a
sweep of each kept vector over a window of later candidates and its
branches were labelled by frontier search over blocks of dots.  Here the
dedup compares each candidate with every vector kept so far and the
branches come from the whole N x N Gram matrix.  Every pair is decided by
the same cosine rule as in the library: a candidate is a duplicate when
its dot with a kept vector is at least cos(dedup_angle), and two lines
are linked when their dot exceeds cos(branch_angle) in magnitude.  The
library must give exactly the same kept vectors and labels, also for
dots that land within rounding of the threshold cosine.  `cap_round_robin`
is the round-robin loop the library's cap replaced by one sort.  The
library ranks branches by integers; `names` formats its ranks as these
labels, so the two are compared name for name.
"""

import numpy as np


def dedup(candidates: np.ndarray, dedup_angle: float) -> np.ndarray:
    """Greedy angular dedup in lexicographic order, one list append at a time."""
    m_dim = candidates.shape[-1]
    order = np.lexsort(candidates.T[::-1]) if len(candidates) else []
    candidates = candidates[order] if len(candidates) else candidates
    kept = []
    for vec in candidates:
        if not kept or np.max(np.asarray(kept) @ vec) < np.cos(dedup_angle):
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

    linked = np.triu(np.abs(reps @ reps.T) > np.cos(branch_angle), k=1)
    for i, j in np.argwhere(linked):
        union(int(i), int(j))
    roots = [find(i) for i in range(count)]
    sizes = {}
    for root in roots:
        sizes[root] = sizes.get(root, 0) + 1
    ordered = sorted(sizes, key=lambda root: (-sizes[root], root))
    names = {root: f"branch-{pos + 1}" for pos, root in enumerate(ordered)}
    return [names[root] for root in roots]


def cap_round_robin(reps, labels, cap):
    """Round-robin picks over the branches, largest first, one queue each."""
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


def names(ranks) -> list:
    """Branch rank k as its label, branch-(k+1)."""
    return [f"branch-{rank + 1}" for rank in np.asarray(ranks).tolist()]
