"""Randers oracles: the factorization of the criterion residual, the
exact geodesic rays of a Randers norm on SU(2) and a membership test for
its zero set, also on u(2) = su(2) ⊕ R, the exact zero set of one on H3
(a membership test and a closed-form sampling), the Randers norm of
Zermelo navigation, and random Randers data for the tests that use them.

For F = sqrt(ã(·,·)) + ã(X, ·) on m the residual factors through the
Riemannian data:

  g_{y_m}(y_m, w) = ã(y_m, w)·F(y_m)/√ã(y_m, y_m) + ã(X, w)·F(y_m)

with w = [y, z]_m.  The left side is evaluated through the norm's
jet tensor (`jet_norms`), the right side assembled from ã alone; their
agreement is what makes the F- and ã-criteria co-vanish when
ã(X, w) = 0.
"""

import jet_norms
import numpy as np

from finslergeo import lie
from finslergeo.errors import DegenerateVector


def random_randers(rng, reach=0.6):
    """A random Randers (a, b) on R^3, with ‖b‖ = √(b·a⁻¹b) drawn
    uniformly between 0.05 and reach."""
    m = rng.standard_normal((3, 3))
    a = m @ m.T + 3.0 * rng.uniform(0.2, 1.0) * np.eye(3)
    direction = rng.standard_normal(3)
    b_sharp = direction / np.sqrt(direction @ a @ direction) * rng.uniform(0.05, reach)
    return a, a @ b_sharp


def randers_residual_identity(dec, a, Xfield, y, z):
    """(lhs, rhs) of the factorization at y, with w = [y, z]_m."""
    a = np.asarray(a, dtype=float)
    Xfield = np.asarray(Xfield, dtype=float)
    y = np.asarray(y, dtype=float)
    idx = list(dec.m_indices)
    ym = y[idx]
    if np.linalg.norm(ym) == 0.0:
        raise DegenerateVector("identity needs a nonzero m-component")
    w = lie.bracket(dec.algebra, y, np.asarray(z, dtype=float))[idx]
    norm = jet_norms.RandersNorm(a, a @ Xfield)
    g = norm._generic_fundamental(ym)
    lhs = float(ym @ g @ w)
    alpha = float(np.sqrt(ym @ a @ ym))
    f = alpha + float((a @ Xfield) @ ym)
    rhs = float((a @ ym) @ w) * f / alpha + float((a @ Xfield) @ w) * f
    return lhs, rhs


def su2_geodesic_rays(a, b):
    """Exact geodesic rays at e of the Randers norm (a, b) on SU(2), m = g.

    F(X) = α(X) + b·X.  With m = g, X is a geodesic vector exactly when
    the covector ξ = aX/α(X) + b kills [X, ·]; in su(2), with the cross-
    product bracket, that means ξ is parallel to X.  Scaled to α(X) = 1,
    X solves (a − λI)X = −b.  Write dᵢ for the eigenvalues of a and b̃
    for b in a's eigenbasis.
    - λ off every dᵢ: X̃ⱼ = −b̃ⱼ/(dⱼ − λ), and λ is a real root of the
      secular equation Σ dⱼb̃ⱼ²/(dⱼ − λ)² = 1.  The left side is convex
      between its poles, with one root below and one above them all, so
      generic b gives 2, 4 or 6 rays.
    - λ = dᵢ, possible only where b̃ vanishes on dᵢ's eigenspace:
      X̃ⱼ = −b̃ⱼ/(dⱼ − dᵢ) off that eigenspace, and dᵢ|X̃ᵢ|² =
      1 − Σ dⱼX̃ⱼ² on it.  A simple dᵢ gives two rays when the right side
      is positive.  A double dᵢ gives a circle, which no list of rays
      holds; `su2_zero_set_defect` tests membership on it.
    Returns the rays as unit vectors, one per row.
    """
    d, q = np.linalg.eigh(np.asarray(a, dtype=float))
    bt = q.T @ np.asarray(b, dtype=float)
    # eigenspaces as runs of equal eigenvalues, to rounding
    spaces = []
    for i in range(3):
        if spaces and d[i] - d[spaces[-1][0]] <= 1.0e-12 * d[-1]:
            spaces[-1].append(i)
        else:
            spaces.append([i])
    scale = 1.0e-12 * max(1.0, float(np.linalg.norm(bt)))
    active = [s for s in spaces if np.linalg.norm(bt[s]) > scale]
    on = np.zeros(3, dtype=bool)
    for s in active:
        on[s] = True
    # the secular equation times the product of its (dⱼ − λ)², one pole per eigenspace
    one = np.polynomial.Polynomial([1.0])
    poles = [np.polynomial.Polynomial([d[s[0]], -1.0]) ** 2 for s in active]
    secular = -np.prod([one] + poles)
    for k, s in enumerate(active):
        others = [pole for j, pole in enumerate(poles) if j != k]
        secular = secular + d[s[0]] * float(bt[s] @ bt[s]) * np.prod([one] + others)
    rays = []
    for lam in secular.roots():
        if abs(lam.imag) > 1.0e-9 * max(1.0, abs(lam)):
            continue
        lam = lam.real
        for _ in range(3):
            # Newton on the secular equation itself polishes the root
            t = bt[on] / (d[on] - lam)
            f = np.sum(d[on] * t**2) - 1.0
            lam -= f / (2.0 * np.sum(d[on] * t**2 / (d[on] - lam)))
        xt = np.zeros(3)
        xt[on] = -bt[on] / (d[on] - lam)
        rays.append(q @ xt)
    for s in spaces:
        if s in active or len(s) > 1:
            continue
        xt = np.zeros(3)
        xt[on] = -bt[on] / (d[on] - d[s[0]])
        rhs = 1.0 - float(np.sum(d * xt**2))
        if rhs > 0.0:
            for sign in (1.0, -1.0):
                xt[s[0]] = sign * np.sqrt(rhs / d[s[0]])
                rays.append(q @ xt)
    rays = np.array(rays).reshape(-1, 3)
    return rays / np.linalg.norm(rays, axis=-1, keepdims=True)


def su2_zero_set_defect(a, b, X):
    """|ξ₁..₃ × X₁..₃|/|ξ₁..₃| for each unit row of X, with ξ = aX/α(X) + b:
    zero exactly on the geodesic vectors of the Randers norm (a, b), m = g,
    on SU(2) for any b (see `su2_geodesic_rays`) and on u(2) =
    su(2) ⊕ R·e4.  The centre e4 brackets to 0, so on u(2) too ξ kills
    [X, ·] exactly when its su(2) part is parallel to that of X."""
    a = np.asarray(a, dtype=float)
    X = np.asarray(X, dtype=float)
    alpha = np.sqrt(np.einsum("...i,...i->...", X @ a, X))
    xi = (X @ a / alpha[..., None] + np.asarray(b, dtype=float))[..., :3]
    return np.linalg.norm(np.cross(xi, X[..., :3]), axis=-1) / np.linalg.norm(xi, axis=-1)


def h3_zero_set_defect(a, b, X):
    """Distance of each unit row of X from the exact zero set of the
    Randers norm (a, b) on H3, m = g.

    As on SU(2), X is a geodesic vector exactly when the covector
    ξ = aX/α(X) + b kills [X, ·].  On H3, [X, Y] = (X1·Y2 − X2·Y1)·e3, so
    that holds exactly when X1 = X2 = 0 or ξ3 = 0: X lies on the e3 axis
    or on the half cone (aX)_3 + α(X)·b_3 = 0.  Returns the smaller of
    |(X1, X2)| and |ξ3| per row.
    """
    a = np.asarray(a, dtype=float)
    X = np.asarray(X, dtype=float)
    alpha = np.sqrt(np.einsum("...i,...i->...", X @ a, X))
    cone = np.abs((X @ a)[..., 2] / alpha + float(b[2]))
    return np.minimum(np.hypot(X[..., 0], X[..., 1]), cone)


def h3_zero_set(a, b, count):
    """Unit vectors sampling the exact zero set of the Randers norm (a, b)
    on H3, m = g: count points of the half cone (aX)_3 + α(X)·b_3 = 0,
    then e3 and −e3.

    Take X = t·e3 + v with v in the plane orthogonal to a·e3, so
    (aX)_3 = t·a_33 and α(X)² = t²·a_33 + α(v)².  The cone equation
    t·a_33 = −b_3·α(X) then has the one root
    t = −b_3·α(v)/√(a_33·(a_33 − b_3²)), real since b_3² < a_33 for every
    Randers norm.  v runs over count equally spaced angles of a circle in
    that plane.  b = 0 gives the Euclidean zero set, the plane
    (aX)_3 = 0 and ±e3.
    """
    a = np.asarray(a, dtype=float)
    b3 = float(np.asarray(b, dtype=float)[2])
    p, q = np.linalg.svd(a[2][None, :])[2][1:]
    theta = 2.0 * np.pi * np.arange(count) / count
    v = np.cos(theta)[:, None] * p + np.sin(theta)[:, None] * q
    alpha_v = np.sqrt(np.einsum("...i,...i->...", v @ a, v))
    t = -b3 * alpha_v / np.sqrt(a[2, 2] * (a[2, 2] - b3**2))
    cone = v + t[:, None] * np.eye(3)[2]
    cone /= np.linalg.norm(cone, axis=-1, keepdims=True)
    return np.concatenate([cone, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])


def navigation_randers(h, W):
    """(a, b) of the Randers norm solving Zermelo's problem on (h, W).

    F is the time cost of a velocity y under the wind W on the inner
    product h: F(y) = 1 exactly when |y − W|_h = 1.  With W♭ = hW and
    λ = 1 − |W|²_h, a = (λh + W♭W♭ᵀ)/λ² and b = −W♭/λ (Bao, Robles and
    Shen, J. Differential Geom. 66, 2004).  Needs |W|_h < 1.
    """
    h = np.asarray(h, dtype=float)
    W = np.asarray(W, dtype=float)
    w_flat = h @ W
    lam = 1.0 - float(W @ w_flat)
    return (lam * h + np.outer(w_flat, w_flat)) / lam**2, -w_flat / lam
