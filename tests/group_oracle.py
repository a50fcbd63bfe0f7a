"""Chart-level group law and left translation oracle for the group-model tests.

multiply(model, p, q) is the product of chart points p and q, composed
on the group as log(exp(p)·exp(q)).  dleft(model, p, v, base) is the
differential of L_p at base applied to v.  On H3 it comes from the
polynomial group law; on SU(2) it is A(p·base)⁻¹ A(base) v, from
A(x) = d(L_{x^{-1}})_x.  The tests check it against finite differences
of `multiply` before the left-invariance tests rely on it.

sequential_path(model, norm, x0, y0, T, step) is the geodesic integrator as a
plain loop: each RK4 step on the body momentum μ is followed at once by
g ← g·exp(θ) with its RKMK increment θ, so the group element is carried
along step by step, with no prefix product.

h3_body_momentum(a, mu0, ts) is the exact body momentum of the
Euclidean metric a on H3, in closed form.  su2_euler_top(inertia, u0, ts)
is the exact body velocity of a diagonal Euclidean metric on SU(2), the
Euler top, from Jacobi's elliptic functions.
"""

import numpy as np

from finslergeo import groups


def multiply(model, p, q):
    """Chart point of exp(p)·exp(q), batched; ChartDomain when it leaves the chart."""
    out = model.to_chart(model.multiply(model.to_group(p), model.to_group(q)))
    model.check_chart(out)
    return out


def sequential_path(model, norm, x0, y0, T, step):
    """(group elements, body velocities) of the step-by-step RKMK4 path."""
    c = model.algebra.c

    def coadjoint(u, m):
        return np.einsum("ijk,...i,...k->...j", c, u, m)

    def dual(m):
        # the norm's dual takes one covector at a time
        return np.apply_along_axis(norm.legendre_dual, -1, m)

    def stage(m):
        um = dual(m)
        return um, coadjoint(um, m)

    x, y = (np.array(v, dtype=float) for v in np.broadcast_arrays(x0, y0))
    u = np.einsum("...ij,...j->...i", model.body_jacobian(x), y)
    mu = np.einsum("...ij,...j->...i", norm.fundamental_matrix(u), u)
    g = model.to_group(x)
    elements, body = [g], [u]
    for _ in range(max(1, int(round(T / step)))):
        k1 = coadjoint(u, mu)
        u2, k2 = stage(mu + 0.5 * step * k1)
        u3, k3 = stage(mu + 0.5 * step * k2)
        u4, k4 = stage(mu + step * k3)
        bracket = np.einsum("ijk,...i,...j->...k", c, u, u4)
        theta = (step / 6.0) * (u + 2.0 * u2 + 2.0 * u3 + u4) + (step * step / 12.0) * bracket
        g = model.multiply(g, model.to_group(theta))
        mu = mu + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        u = dual(mu)
        elements.append(g)
        body.append(u)
    return np.array(elements), np.array(body)


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


def h3_body_momentum(a, mu0, ts):
    """Exact body momentum μ(t) of the Euclidean metric a on H3, one row per t.

    μ̇ = ad*_u μ with u = a⁻¹μ: μ₃ is a Casimir, and
    (μ₁, μ₂)' = μ₃J(Aμ₁₂ + μ₃w), with A and w the blocks a⁻¹[:2, :2] and
    a⁻¹[:2, 2] and J the quarter turn.  JA is traceless with
    (JA)² = −det A·I, so μ₁₂(t) = p + (cos ωt·I + sin ωt/ω·μ₃JA)(μ₁₂(0) − p),
    with ω = |μ₃|√det A and p the fixed point Ap = −μ₃w.  Needs μ₃ ≠ 0.
    """
    inv = np.linalg.inv(np.asarray(a, dtype=float))
    A, w = inv[:2, :2], inv[:2, 2]
    m3 = mu0[2]
    p = np.linalg.solve(A, -m3 * w)
    omega = abs(m3) * np.sqrt(np.linalg.det(A))
    turn = m3 * np.array([[0.0, -1.0], [1.0, 0.0]]) @ A
    t = np.asarray(ts, dtype=float)[:, None, None]
    flow = np.cos(omega * t) * np.eye(2) + np.sin(omega * t) / omega * turn
    mu12 = p + flow @ (mu0[:2] - p)
    return np.concatenate([mu12, np.full((len(mu12), 1), m3)], axis=1)


def jacobi_sn_cn_dn(x, m):
    """sn, cn and dn of x at parameter 0 <= m < 1, by the arithmetic-
    geometric mean and the descending Landen transformation (Abramowitz
    and Stegun 16.4): a_n = (a + b)/2, b_n = √(ab), c_n = (a − b)/2 from
    (1, √(1 − m), √m), then φ_N = 2^N a_N x and
    sin(2φ_{n−1} − φ_n) = (c_n/a_n) sin φ_n down to φ_0, sn = sin φ_0."""
    a, b, c = [1.0], np.sqrt(1.0 - m), [np.sqrt(m)]
    while c[-1] > 1.0e-16:
        a, b, c = a + [(a[-1] + b) / 2.0], np.sqrt(a[-1] * b), c + [(a[-1] - b) / 2.0]
    phi = 2.0 ** (len(a) - 1) * a[-1] * np.asarray(x, dtype=float)
    for n in range(len(a) - 1, 0, -1):
        phi = 0.5 * (phi + np.arcsin(c[n] / a[n] * np.sin(phi)))
    sn = np.sin(phi)
    return sn, np.cos(phi), np.sqrt(1.0 - m * sn * sn)


def su2_euler_top(inertia, u0, ts):
    """Exact body velocity u(t) of the Euclidean metric diag(I₁, I₂, I₃)
    on SU(2), one row per t, from u(0) = (p, 0, q).

    μ̇ = ad*_u μ is Euler's μ̇ = μ × u.  With I₁ < I₂ < I₃, 2E = u·μ and
    M² = |μ|² > 2E·I₂, u(t) = (±w₁ cn τ, s₂w₂ sn τ, ±w₃ dn τ) at
    τ = t√((I₃ − I₂)(M² − 2EI₁)/(I₁I₂I₃)) and parameter
    k² = (I₂ − I₁)(2EI₃ − M²)/((I₃ − I₂)(M² − 2EI₁)) (Landau and Lifshitz,
    Mechanics, §37).  For M² < 2E·I₂ the suffixes 1 and 3 interchange:
    u(t) = (±w₁ dn τ, s₂w₂' sn τ, ±w₃ cn τ), with I₁ ↔ I₃ in τ, k² and the
    amplitude w₂' of u₂.  The first and third signs are those of p and q,
    and s₂ is the sign of μ̇₂(0) = μ₃u₁ − μ₁u₃ in both regimes: read off
    the relabelled formula it would flip, since interchanging two axes
    reverses the cross product.
    """
    i1, i2, i3 = inertia
    mu = np.asarray(inertia, dtype=float) * u0
    e2, m2 = u0 @ mu, mu @ mu
    assert i1 < i2 < i3 and u0[1] == 0.0 and m2 != e2 * i2
    # both positive off the principal axes
    d1, d3 = e2 * i3 - m2, m2 - e2 * i1
    if m2 > e2 * i2:
        rate, k2 = np.sqrt((i3 - i2) * d3 / (i1 * i2 * i3)), (i2 - i1) * d1 / ((i3 - i2) * d3)
        w2 = np.sqrt(d1 / (i2 * (i3 - i2)))
    else:
        rate, k2 = np.sqrt((i2 - i1) * d1 / (i1 * i2 * i3)), (i3 - i2) * d3 / ((i2 - i1) * d1)
        w2 = np.sqrt(d3 / (i2 * (i2 - i1)))
    sn, cn, dn = jacobi_sn_cn_dn(rate * np.asarray(ts, dtype=float), k2)
    w1 = np.sign(u0[0]) * np.sqrt(d1 / (i1 * (i3 - i1)))
    w2 *= np.sign(mu[2] * u0[0] - mu[0] * u0[2])
    w3 = np.sign(u0[2]) * np.sqrt(d3 / (i3 * (i3 - i1)))
    if m2 > e2 * i2:
        return np.stack([w1 * cn, w2 * sn, w3 * dn], axis=-1)
    return np.stack([w1 * dn, w2 * sn, w3 * cn], axis=-1)
