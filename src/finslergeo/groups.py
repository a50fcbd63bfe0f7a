"""Concrete Lie groups: coordinates, group law, exponential, charts.

Both built-in models have trivial isotropy, so the homogeneous space is
the group itself and the algebra coincides with the tangent space at
the identity.  Every model's chart is exponential coordinates: the chart
point θ is the group element exp(θ), so `to_group(θ)` is exp(θ) and the
one-parameter subgroup exp(tX) is the chart line tX.  Heisenberg H3 and
the vector group are covered by that chart globally, with a polynomial
group law.  SU(2) is stored as unit quaternions; the principal log
covers every element but the antipode −1, and chart inputs must lie
strictly inside radius 2π.

Each model holds group elements in its own representation: `to_group`
enters it from chart coordinates, `multiply` is the group law on it, and
`to_chart` leaves it again.  Geodesic paths are assembled and stored on
the group, orbits of one-parameter subgroups are compared with them
there, and chart coordinates are read off only for output.

The body Jacobian A(x) is the differential of left translation by
x^{-1} at x.  It trivializes the tangent bundle: a chart velocity v at
x corresponds to the algebra vector A(x)·v, and the left-invariant
metric is F(x, v) = norm(A(x)·v).
"""

import numpy as np

from . import lie
from .errors import ChartDomain, ZeroVector

_QUAT_DRIFT = 1.0e-13
_SU2_CHART_RADIUS = 2.0 * np.pi - 0.05


class GroupModel:
    """Common interface for the built-in models."""

    name = "abstract"
    dim = 0

    def identity(self) -> np.ndarray:
        return np.zeros(self.dim)

    def multiply(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """The group product p·q of group elements, batched and broadcast."""
        raise NotImplementedError

    def body_jacobian(self, x: np.ndarray) -> np.ndarray:
        """A(x) = d(L_{x^{-1}})_x, batched over leading axes of x."""
        raise NotImplementedError

    def check_chart(self, x: np.ndarray) -> None:
        """Raise ChartDomain when x leaves the chart's validity region."""

    # The defaults serve global exponential coordinates, where a group
    # element is its own chart point and exp(θ) has coordinates θ.

    def to_group(self, x: np.ndarray) -> np.ndarray:
        """exp(x), the group element at chart point x, batched."""
        return np.array(x, dtype=float)

    def to_chart(self, g: np.ndarray) -> np.ndarray:
        """Chart coordinates of group elements, batched."""
        return np.array(g, dtype=float)


class Heisenberg3(GroupModel):
    """(a,b,c)·(a',b',c') = (a+a', b+b', c+c'+½(ab'−a'b)); global chart."""

    name = "heisenberg3"
    dim = 3

    def __init__(self):
        self.algebra = lie.heisenberg3()

    def multiply(self, p, q):
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        out = p + q
        out[..., 2] += 0.5 * (p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0])
        return out

    def body_jacobian(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (3, 3))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = 1.0
        out[..., 2, 2] = 1.0
        out[..., 2, 0] = 0.5 * x[..., 1]
        out[..., 2, 1] = -0.5 * x[..., 0]
        return out


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


def _hamilton(q, r):
    """Quaternion product q·r, batched, as two small matrix products."""
    left = (q @ _QUAT_TABLE).reshape(q.shape[:-1] + (4, 4))
    return (r[..., None, :] @ left)[..., 0, :]


class SU2(GroupModel):
    """Unit quaternions internally; the 3-dim exponential chart outside."""

    name = "su2"
    dim = 3

    def __init__(self):
        self.algebra = lie.su2()

    def to_group(self, x):
        """The unit quaternion exp(x)."""
        x = np.asarray(x, dtype=float)
        theta = np.linalg.norm(x, axis=-1)
        w = np.cos(0.5 * theta)
        # sin(θ/2)/θ via sinc, finite at θ = 0
        factor = 0.5 * np.sinc(theta / (2.0 * np.pi))
        return np.concatenate([w[..., None], factor[..., None] * x], axis=-1)

    def to_chart(self, q):
        """The principal log; ChartDomain at the antipode, where it is undefined."""
        w = q[..., 0]
        v = q[..., 1:]
        s = np.linalg.norm(v, axis=-1)
        theta = 2.0 * np.arctan2(s, w)
        small = s < 1.0e-9
        safe_s = np.where(small, 1.0, s)
        # near the identity the factor tends to 2/w; near the antipode the
        # chart is invalid, so push the radius onto the guard
        near_id = small & (w > 0.0)
        factor = np.where(near_id, 2.0 / np.where(w == 0.0, 1.0, w), theta / safe_s)
        out = factor[..., None] * v
        if np.any(small & (w <= 0.0)):
            raise ChartDomain("group element is at the antipode of the chart")
        return out

    def _renormalize(self, q):
        norm = np.linalg.norm(q, axis=-1, keepdims=True)
        return np.where(np.abs(norm - 1.0) > _QUAT_DRIFT, q / norm, q)

    def multiply(self, p, q):
        """The quaternion product p·q, each row renormalized when it alone
        leaves the unit sphere, so a row's bytes do not depend on the batch."""
        return self._renormalize(_hamilton(np.asarray(p, dtype=float), np.asarray(q, dtype=float)))

    def body_jacobian(self, x):
        x = np.asarray(x, dtype=float)
        theta2 = np.einsum("...i,...i->...", x, x)
        theta = np.sqrt(theta2)
        small = theta < 1.0e-4
        t2 = theta2
        with np.errstate(divide="ignore", invalid="ignore"):
            c1 = np.where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0, (1.0 - np.cos(theta)) / theta2)
            c2 = np.where(
                small,
                1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0,
                (theta - np.sin(theta)) / (theta2 * theta),
            )
        k = np.zeros(x.shape[:-1] + (3, 3))
        k[..., 0, 1] = -x[..., 2]
        k[..., 0, 2] = x[..., 1]
        k[..., 1, 0] = x[..., 2]
        k[..., 1, 2] = -x[..., 0]
        k[..., 2, 0] = -x[..., 1]
        k[..., 2, 1] = x[..., 0]
        eye = np.broadcast_to(np.eye(3), k.shape)
        return eye - c1[..., None, None] * k + c2[..., None, None] * (k @ k)

    def check_chart(self, x):
        x = np.asarray(x, dtype=float)
        radius = np.linalg.norm(x, axis=-1)
        if np.any(radius >= _SU2_CHART_RADIUS):
            worst = float(np.max(radius))
            raise ChartDomain(
                f"coordinate radius {worst} exceeds the chart bound {_SU2_CHART_RADIUS}"
            )


class Abelian(GroupModel):
    """Vector group R^n under addition; the flat translation model.

    A code-level extension used for flat-space baselines; not selectable
    by name in scenario files.
    """

    name = "abelian"

    def __init__(self, dim: int = 3):
        self.dim = dim
        self.algebra = lie.abelian(dim)

    def multiply(self, p, q):
        return np.asarray(p, dtype=float) + np.asarray(q, dtype=float)

    def body_jacobian(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.eye(self.dim), x.shape[:-1] + (self.dim, self.dim)).copy()


_MODELS = {"heisenberg3": Heisenberg3, "su2": SU2}


def model_by_name(name: str) -> GroupModel:
    try:
        return _MODELS[name]()
    except KeyError:
        raise ValueError(f"unknown group model {name!r}; available: {sorted(_MODELS)}") from None


def orbit_curve(model: GroupModel, X: np.ndarray, ts) -> np.ndarray:
    """Group elements exp(tX) for each t in ts, in the model's representation.

    The chart is exponential coordinates, so exp(tX) is the group
    element at the chart point tX; no chart bound applies.
    """
    X = np.asarray(X, dtype=float)
    if np.linalg.norm(X) == 0.0:
        raise ZeroVector("orbit direction must be nonzero")
    return model.to_group(np.asarray(ts, dtype=float)[:, None] * X)
