"""Chart-level group law and left translation oracle for the group-model tests.

multiply(model, p, q) is the product of chart points p and q, composed
on the group as log(exp(p)·exp(q)).  dleft(model, p, v, base) is the
differential of L_p at base applied to v.  On H3 it comes from the
polynomial group law; on SU(2) it is A(p·base)⁻¹ A(base) v, from
A(x) = d(L_{x^{-1}})_x.  The tests check it against finite differences
of `multiply` before the left-invariance tests rely on it.
"""

import numpy as np

from finslergeo import groups


def multiply(model, p, q):
    """Chart point of exp(p)·exp(q), batched; ChartDomain when it leaves the chart."""
    out = model.to_chart(model.right_exp(model.to_group(p), q))
    model.check_chart(out)
    return out


def dleft(model, p, v, base=None):
    """Differential of L_p at the base point (default the identity), applied to v."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if isinstance(model, groups.Heisenberg3):
        # the differential of L_p does not depend on the base point here
        out = v.copy()
        out[..., 2] += 0.5 * (p[..., 0] * v[..., 1] - p[..., 1] * v[..., 0])
        return out
    base = model.identity() if base is None else np.asarray(base, dtype=float)
    target = multiply(model, p, base)
    rhs = np.einsum("...ij,...j->...i", model.body_jacobian(base), v)
    return np.linalg.solve(model.body_jacobian(target), rhs[..., None])[..., 0]
