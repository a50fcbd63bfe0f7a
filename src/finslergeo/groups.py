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
enters it from chart coordinates and `to_chart` leaves it again.
Geodesic paths are assembled and stored on the group, orbits of
one-parameter subgroups are compared with them there, and chart
coordinates are read off only for output.

The group law exists only as the right step g ← g·exp(θ) written out
as Python lines on floats (`group_lines`), which the geodesic flow
pastes into its generated step loop, the one place that runs them; the
tests hold them to the same law on arrays (tests/group_oracle.py).  H3
and the vector group add: their steps are compensated sums (Kahan, CACM
8, 1965), so a path of N steps rounds like one sum, not like N.  SU(2)
takes cos and sin of |θ|/2, writes the Hamilton product out, and
divides the product by its length when that is more than `_QUAT_DRIFT`
from 1.  Like the norms' dual lines, the text holds indices only; the
constants it reads are names (see `geodesic_flow.compiled`), and a
model's own are in `group_constants`.

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


def _compensated_lines(step: list) -> list:
    """g{j} += step[j] for each j, with g{j} the correctly rounded value
    of the running sum and e{j} its carried rounding error: a two-sum
    of g and the step (Knuth, TAOCP 2, §4.2.2), its error added to e,
    and a fast two-sum that folds e back into g."""
    lines = []
    for j, x in enumerate(step):
        lines += [
            f"total = g{j} + {x}",
            f"back = total - g{j}",
            f"e{j} = e{j} + ((g{j} - (total - back)) + ({x} - back))",
            f"g{j} = total + e{j}",
            f"e{j} = e{j} - (g{j} - total)",
        ]
    return lines


class GroupModel:
    """Common interface for the built-in models."""

    name = "abstract"
    dim = 0
    group_constants = ()

    def identity(self) -> np.ndarray:
        return np.zeros(self.dim)

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

    @classmethod
    def group_lines(cls, n: int, theta: str) -> tuple:
        """(g, names, start, lines) for g ← g·exp(θ) on floats, with θ in
        {theta}0…{theta}{n−1}: g names the floats that hold the group
        element, names the constants the lines read, whose values the
        model holds in `group_constants`, start the lines run once before
        the first step, and lines the step itself.

        This default serves an additive law: g is the chart point, and
        each step adds θ as a compensated sum.
        """
        g = [f"g{j}" for j in range(n)]
        return g, [], [f"e{j} = zero" for j in range(n)], _compensated_lines([f"{theta}{j}" for j in range(n)])


class Heisenberg3(GroupModel):
    """(a,b,c)·(a',b',c') = (a+a', b+b', c+c'+½(ab'−a'b)); global chart."""

    name = "heisenberg3"
    dim = 3

    def __init__(self):
        self.algebra = lie.heisenberg3()

    @classmethod
    def group_lines(cls, n, theta):
        """The law above with q = θ: a compensated sum of θ, its last
        component plus ½(g₀θ₁ − g₁θ₀)."""
        g, names, start, _ = super().group_lines(n, theta)
        central = f"central = {theta}2 + half * (g0 * {theta}1 - g1 * {theta}0)"
        return g, names, start, [central, *_compensated_lines([f"{theta}0", f"{theta}1", "central"])]

    def body_jacobian(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (3, 3))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = 1.0
        out[..., 2, 2] = 1.0
        out[..., 2, 0] = 0.5 * x[..., 1]
        out[..., 2, 1] = -0.5 * x[..., 0]
        return out


class SU2(GroupModel):
    """Unit quaternions internally; the 3-dim exponential chart outside."""

    name = "su2"
    dim = 3
    group_constants = (_QUAT_DRIFT,)

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

    @classmethod
    def group_lines(cls, n, theta):
        """g·q with q = exp(θ) = (cos(r/2), sin(r/2)/r·θ), r = |θ|, whose
        factor is ½ at θ = 0; the product is divided by its length only
        when that is more than `drift` from 1."""
        t0, t1, t2 = (f"{theta}{j}" for j in range(3))
        lines = [
            f"radius = sqrt({t0} * {t0} + {t1} * {t1} + {t2} * {t2})",
            "w = cos(half * radius)",
            "factor = sin(half * radius) / radius if radius > zero else half",
            f"x = factor * {t0}",
            f"y = factor * {t1}",
            f"z = factor * {t2}",
            "p0 = g0 * w - g1 * x - g2 * y - g3 * z",
            "p1 = g0 * x + g1 * w + g2 * z - g3 * y",
            "p2 = g0 * y - g1 * z + g2 * w + g3 * x",
            "p3 = g0 * z + g1 * y - g2 * x + g3 * w",
            "length = sqrt(p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3)",
            "length = length if abs(length - one) > drift else one",
            *(f"g{j} = p{j} / length" for j in range(4)),
        ]
        return [f"g{j}" for j in range(4)], ["drift"], [], lines

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
