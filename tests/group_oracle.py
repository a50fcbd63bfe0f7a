"""The group law on numpy arrays, and chart-level oracles for the group-model tests.

group_product(model, p, q) is the group law of each built-in model on
its group elements, batched and broadcast: a sum on the vector group,
a sum with the central term ½(ab' − a'b) on H3, and the Hamilton
product on SU(2), each row divided by its length when it alone leaves
the unit sphere by more than `groups._QUAT_DRIFT`.  The library holds
the law only as the lines of `GroupModel.group_lines`, which the tests
judge against this one.

multiply(model, p, q) is the product of chart points p and q, composed
on the group as log(exp(p)·exp(q)).  dleft(model, p, v, base) is the
differential of L_p at base applied to v.  On H3 it comes from the
polynomial group law; on SU(2) it is A(p·base)⁻¹ A(base) v, from
A(x) = d(L_{x^{-1}})_x.  The tests check it against finite differences
of `multiply` before the left-invariance tests rely on it.

sequential_path(model, norm, x0, y0, T, step) is the geodesic integrator as a
plain numpy loop: each RK4 step on the body momentum μ is followed at once
by g ← g·exp(θ) with its RKMK increment θ, through `group_product`
and the model's `to_group`.  The flow carries g step by step in the same
order, with the group law written out on floats, so the two differ by
rounding alone.

legendre_dual(norm) is the norm's Legendre dual of one covector: its
`dual_lines` compiled by the flow's `compiled` into a function of n
floats, so the tests run the text that the step loop pastes in.

float_step_path(terms, norm, u0, nsteps, step) is the step loop of one
path as a plain loop on lists of Python floats: each RK4 step makes four
`lie.add_coadjoint` calls over the algebra's terms and four
`legendre_dual(norm)` calls, with the same sums in the same order as the
flow's generated loop, whose body velocities must match it bit for bit.

group_step(model) is one step g ← g·exp(θ) of the model's `group_lines`,
compiled by the flow's `compiled` into a function of g and θ, with the
compensation of an additive law starting at zero, so the tests run the
text that the flow pastes in.

h3_body_momentum(a, mu0, ts) is the exact body momentum of the
Euclidean metric a on H3, in closed form.  su2_euler_top(inertia, u0, ts)
is the exact body velocity of a diagonal Euclidean metric on SU(2), the
Euler top, from Jacobi's elliptic functions.
"""

import numpy as np

from finslergeo import geodesic_flow, groups, lie


def _quaternion_table() -> np.ndarray:
    """T[a, b, c]: the e_c coefficient of e_a·e_b for the basis 1, i, j, k."""
    table = np.zeros((4, 4, 4))
    table[0, 0, 0] = 1.0
    for a in (1, 2, 3):
        table[0, a, a] = table[a, 0, a] = 1.0
        table[a, a, 0] = -1.0
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        table[a, b, c] = 1.0
        table[b, a, c] = -1.0
    return table.reshape(4, 16)


_QUAT_TABLE = _quaternion_table()


def hamilton(q, r):
    """Quaternion product q·r, batched, as two small matrix products."""
    left = (q @ _QUAT_TABLE).reshape(q.shape[:-1] + (4, 4))
    return (r[..., None, :] @ left)[..., 0, :]


def _renormalize(q):
    norm = np.linalg.norm(q, axis=-1, keepdims=True)
    return np.where(np.abs(norm - 1.0) > groups._QUAT_DRIFT, q / norm, q)


def group_product(model, p, q):
    """The group product p·q of group elements, batched and broadcast."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if isinstance(model, groups.SU2):
        # each row renormalized when it alone leaves the unit sphere, so a
        # row's bytes do not depend on the batch
        return _renormalize(hamilton(p, q))
    out = p + q
    if isinstance(model, groups.Heisenberg3):
        out[..., 2] += 0.5 * (p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0])
    return out


def multiply(model, p, q):
    """Chart point of exp(p)·exp(q), batched; ChartDomain when it leaves the chart."""
    out = model.to_chart(group_product(model, model.to_group(p), model.to_group(q)))
    model.check_chart(out)
    return out


def sequential_path(model, norm, x0, y0, T, step):
    """(group elements, body velocities) of the step-by-step RKMK4 path
    from one (x0, y0)."""
    c = model.algebra.c

    def coadjoint(u, m):
        return np.einsum("ijk,...i,...k->...j", c, u, m)

    one_covector = legendre_dual(norm)

    def dual(m):
        return np.array(one_covector(m))

    def stage(m):
        um = dual(m)
        return um, coadjoint(um, m)

    x, y = np.asarray(x0, dtype=float), np.asarray(y0, dtype=float)
    u = model.body_jacobian(x) @ y
    mu = norm.fundamental_matrix(u) @ u
    g = model.to_group(x)
    elements, body = [g], [u]
    for _ in range(max(1, int(round(T / step)))):
        k1 = coadjoint(u, mu)
        u2, k2 = stage(mu + 0.5 * step * k1)
        u3, k3 = stage(mu + 0.5 * step * k2)
        u4, k4 = stage(mu + step * k3)
        bracket = np.einsum("ijk,...i,...j->...k", c, u, u4)
        theta = (step / 6.0) * (u + 2.0 * u2 + 2.0 * u3 + u4) + (step * step / 12.0) * bracket
        g = group_product(model, g, model.to_group(theta))
        mu = mu + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        u = dual(mu)
        elements.append(g)
        body.append(u)
    return np.array(elements), np.array(body)


def legendre_dual(norm):
    """u = ∂(½F*²)/∂μ for one covector μ, a sequence of n numbers, as a
    list of n Python floats, from the norm's `dual_lines`."""
    kind, n = type(norm), norm.dim
    names, lines = kind.dual_lines(n, "mu", "u")
    mus, us = ([f"{x}{j}" for j in range(n)] for x in ("mu", "u"))
    head = f"def legendre_dual({', '.join(mus + names)}):"
    body = [*lines, f"return [{', '.join(us)}]"]
    filename = f"<{kind.__name__} Legendre dual, n={n}>"
    dual = geodesic_flow.compiled([head, *("    " + line for line in body)], "legendre_dual", filename)
    return lambda mu: dual(*np.asarray(mu, dtype=float).tolist(), *norm.dual_constants)


def group_step(model):
    """g·exp(θ) for one group element g and one θ, sequences of numbers,
    as a list of Python floats, from the model's `group_lines`."""
    kind, n = type(model), model.dim
    g, names, start, lines = kind.group_lines(n, "theta")
    thetas = [f"theta{j}" for j in range(n)]
    head = f"def group_step({', '.join(g + thetas + names)}):"
    body = [*start, *lines, f"return [{', '.join(g)}]"]
    filename = f"<{kind.__name__} group step, n={n}>"
    step = geodesic_flow.compiled([head, *("    " + line for line in body)], "group_step", filename)
    return lambda g, theta: step(
        *np.asarray(g, dtype=float).tolist(), *np.asarray(theta, dtype=float).tolist(), *model.group_constants
    )


def float_step_path(terms, norm, u0, nsteps, step):
    """The (nsteps + 1, n) body velocities of one path from u0, as the
    first n columns of `geodesic_flow._step_path`'s rows: row i holds u
    after i steps."""
    half, sixth = 0.5 * step, step / 6.0
    dual, coadjoint = legendre_dual(norm), lie.add_coadjoint
    n = len(u0)
    u = np.asarray(u0, dtype=float).tolist()
    mu = norm.legendre(u0).tolist()
    rows = [u]
    for _ in range(nsteps):
        k1 = coadjoint(terms, u, mu, [0.0] * n)
        m = [a + half * b for a, b in zip(mu, k1)]
        u2 = dual(m)
        k2 = coadjoint(terms, u2, m, [0.0] * n)
        m = [a + half * b for a, b in zip(mu, k2)]
        u3 = dual(m)
        k3 = coadjoint(terms, u3, m, [0.0] * n)
        m = [a + step * b for a, b in zip(mu, k3)]
        u4 = dual(m)
        k4 = coadjoint(terms, u4, m, [0.0] * n)
        mu = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(mu, k1, k2, k3, k4)]
        u = dual(mu)
        rows.append(u)
    return np.array(rows)


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
