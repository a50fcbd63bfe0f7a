"""Lie algebras via structure constants, and reductive splits g = h + m.

Conventions: c[i, j, k] is the e_k coefficient of [e_i, e_j], so the
bracket of coordinate vectors is X^i Y^j c[i, j, k].  Indices are
0-based here; scenario files use 1-based indices and are shifted at the
parsing boundary.

ad*_u μ, (ad*_u μ)_j = c[i, j, k] u^i μ_k, has one term order, that of
the nonzero terms `terms` lists, which an algebra keeps for its whole
c (`LieAlgebraData.terms`): `add_coadjoint` sums over them on array
rows, for the criterion and the Euler–Poincaré rate, and
`coadjoint_lines` writes the same sums out as Python lines, for the
geodesic flow's generated step loop.  That loop takes the bracket from
the same terms, through `bracket_lines`.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class LieAlgebraData:
    dim: int
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        if self.c.shape != (self.dim,) * 3:
            raise DimensionMismatch(self.dim, self.c.shape[0], "structure constants")

    @functools.cached_property
    def terms(self) -> tuple:
        """`terms(c)` of the whole algebra, taken on first use and kept."""
        return tuple(terms(self.c))


@dataclass(frozen=True)
class ReductiveDecomposition:
    algebra: LieAlgebraData
    m_indices: tuple
    h_indices: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "m_indices", tuple(self.m_indices))
        object.__setattr__(self, "h_indices", tuple(self.h_indices))


def bracket(alg: LieAlgebraData, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """[X, Y] in coordinates; batched over leading axes."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape[-1] != alg.dim:
        raise DimensionMismatch(alg.dim, X.shape[-1])
    if Y.shape[-1] != alg.dim:
        raise DimensionMismatch(alg.dim, Y.shape[-1])
    return np.einsum("ijk,...i,...j->...k", alg.c, X, Y)


def terms(c: np.ndarray) -> list:
    """The nonzero entries of c, or of a block such as c[:, m, m], as
    (j, i, k, c[i, j, k]) in C order of (i, j, k): 6 for su(2), 2 for h3."""
    return [(j, i, k, c[i, j, k].item()) for i, j, k in np.argwhere(c).tolist()]


def add_coadjoint(terms: list, u, mu, out):
    """ad*_u μ added into out, which is returned: out[j] += c·μ_k·u^i for
    each (j, i, k, c) of `terms`, in order, on rows that broadcast, or on
    Python floats; no two rows of out may share memory.  Production
    passes it the (batch,) rows of batch-last arrays only; the geodesic
    flow's step loop takes the same sums from `coadjoint_lines`."""
    for j, i, k, c in terms:
        out[j] += c * mu[k] * u[i]
    return out


def coadjoint_lines(pattern, n: int, u: str, mu: str, out: str) -> list:
    """Python lines that set the floats {out}0…{out}{n−1} to ad*_u μ,
    with u in the floats {u}0, {u}1, … and μ in {mu}0, {mu}1, …, where
    u, mu and out are the name prefixes passed in.

    pattern holds the (j, i, k) of `terms`, in order; the coefficient of
    its t-th entry is read from the name c{t}, and 0.0 from the name
    zero, both bound by the caller, so the lines carry indices only.
    Each component is the sum zero + c·μ_k·u^i + … in term order, as
    `add_coadjoint` adds into a zero row, so a −0.0 product rounds to
    +0.0 as it does there.
    """
    parts = [["zero"] for _ in range(n)]
    for t, (j, i, k) in enumerate(pattern):
        parts[j].append(f"c{t} * {mu}{k} * {u}{i}")
    return [f"{out}{j} = {' + '.join(part)}" for j, part in enumerate(parts)]


def bracket_lines(pattern, n: int, x: str, y: str, out: str) -> list:
    """Python lines that set the floats {out}0…{out}{n−1} to [X, Y], with
    X in {x}0, {x}1, … and Y in {y}0, {y}1, …: each (j, i, k) of
    `pattern` adds c{t}·X^i·Y^j into component k, after zero, in term
    order, as `coadjoint_lines` adds its terms."""
    parts = [["zero"] for _ in range(n)]
    for t, (j, i, k) in enumerate(pattern):
        parts[k].append(f"c{t} * {x}{i} * {y}{j}")
    return [f"{out}{k} = {' + '.join(part)}" for k, part in enumerate(parts)]


def ad(alg: LieAlgebraData, X: np.ndarray) -> np.ndarray:
    """Matrix of ad_X = [X, ·], the transpose of ad*_X."""
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != alg.dim:
        raise DimensionMismatch(alg.dim, X.shape[-1])
    return np.einsum("ijk,...i->...kj", alg.c, X)


def jacobi_residual(alg: LieAlgebraData):
    """Max Jacobi violation and the (i, j, k, l) witness where it occurs.

    The violation is J[i, j, k, l] = T[i, j, k, l] + T[k, i, j, l] +
    T[j, k, i, l], with T[i, j, k, l] = c[i, j, m] c[m, k, l] the e_l
    coefficient of [[e_i, e_j], e_k].  J is taken one i-slice at a time,
    so memory stays O(dim^3); the witness is the first maximum of |J| in
    C order.
    """
    c = alg.c
    worst, witness = -1.0, None
    for i in range(alg.dim):
        total = np.einsum("jm,mkl->jkl", c[i], c)
        total += np.einsum("km,mjl->jkl", c[:, i], c)
        total += np.einsum("jkm,ml->jkl", c, c[:, i])
        np.abs(total, out=total)
        at = int(np.argmax(total))
        if total.flat[at] > worst:
            worst = float(total.flat[at])
            witness = (i,) + tuple(int(w) for w in np.unravel_index(at, total.shape))
    return worst, witness


def heisenberg3() -> LieAlgebraData:
    """[e1, e2] = e3, the rest zero: the 3-dim Heisenberg algebra."""
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    return LieAlgebraData(3, c)


def su2() -> LieAlgebraData:
    """[e1, e2] = e3 cyclically: su(2) with the cross-product bracket."""
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    return LieAlgebraData(3, c)


def abelian(dim: int) -> LieAlgebraData:
    """The abelian algebra: all brackets vanish."""
    return LieAlgebraData(dim, np.zeros((dim,) * 3))
