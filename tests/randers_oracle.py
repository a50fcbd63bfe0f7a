"""Both sides of the Randers factorization of the criterion residual.

For F = sqrt(ã(·,·)) + ã(X, ·) on m the residual factors through the
Riemannian data:

  g_{y_m}(y_m, w) = ã(y_m, w)·F(y_m)/√ã(y_m, y_m) + ã(X, w)·F(y_m)

with w = [y, z]_m.  The left side is evaluated through the norm's
generic jet tensor, the right side assembled from ã alone; their
agreement is what makes the F- and ã-criteria co-vanish when
ã(X, w) = 0.
"""

import numpy as np

from finslergeo import geodesic_vectors as gv
from finslergeo import lie, norms
from finslergeo.errors import DegenerateVector


def randers_residual_identity(dec, a, Xfield, y, z):
    """(lhs, rhs) of the factorization at y, with w = [y, z]_m."""
    a = np.asarray(a, dtype=float)
    Xfield = np.asarray(Xfield, dtype=float)
    y = np.asarray(y, dtype=float)
    ym = gv._m_coords(dec, y)
    if np.linalg.norm(ym) == 0.0:
        raise DegenerateVector("identity needs a nonzero m-component")
    w = gv._m_coords(dec, lie.bracket(dec.algebra, y, np.asarray(z, dtype=float)))
    norm = norms.RandersNorm(a, a @ Xfield)
    g = norm._generic_fundamental(ym)
    lhs = float(ym @ g @ w)
    alpha = float(np.sqrt(ym @ a @ ym))
    f = alpha + float((a @ Xfield) @ ym)
    rhs = float((a @ ym) @ w) * f / alpha + float((a @ Xfield) @ w) * f
    return lhs, rhs
