"""Minkowski norms and their fundamental and Cartan tensors.

A Minkowski norm F on R^n is positively 1-homogeneous and strongly
convex away from the origin.  Its fundamental tensor is half the
y-Hessian of F², a direction-dependent inner product; its Cartan tensor
is a quarter of the third y-derivative of F² and vanishes identically
exactly when the norm is induced by an inner product.

Euclidean and Randers norms carry their tensors, Legendre map and dual
in closed form, and no other route.  A `CustomNorm`, F² given on jets,
takes its tensors from nested truncated jets, exact up to floating-point
accumulation; the tests run that jet route on Euclidean and Randers data
as the oracle of the closed forms (tests/jet_norms.py).  The closed
forms read a batch in the batch-last layout, row k holding coordinate k
of every vector, and take each sum over n as an `ordered_dot` of
elementwise products, never a BLAS product: a vector's value, Legendre
covector and tensor are then the same, bit for bit, alone as inside any
batch.  Their values share one quadratic-form kernel, y·a y, which the
σ quadrature runs on every node.  Both closed-form tensors are the
(..., n, n) view of an (n, n, batch) array.

Every norm has a Legendre map y ↦ μ = ĝ_y y = ½∇F²(y), the covector
that the geodesic criterion and the flow read.  Euclidean and Randers
norms carry it in closed form, μ = a y and μ = F(y)·(a y/α(y) + b), so a
caller that needs μ alone builds no tensor; a `CustomNorm` forms it from
its jet tensor.

Euclidean and Randers norms also carry its inverse, the Legendre dual
u = ∂(½F*²)/∂μ, where F*(μ) = max{μ·y : F(y) = 1} is the dual norm on
covectors.  For a Euclidean norm u = a⁻¹μ.  A Randers norm's dual is
again of Randers type, F* = √(μ·Hμ) + μ·W with b♯ = a⁻¹b, λ = 1 − b·b♯,
H = (a⁻¹ + b♯b♯ᵀ/λ)/λ and W = −b♯/λ: the support function of the
indicatrix ellipsoid, which is Zermelo's navigation form (Bao, Robles and
Shen, J. Differential Geom. 66, 2004), so u = F*·(Hμ/√(μ·Hμ) + W).  Each
such norm carries its dual as text only, Python lines on n floats
(`dual_lines`): the lines depend on n alone and read the columns of a⁻¹
or H, and W, from names whose values the norm holds in
`dual_constants`.  The geodesic flow pastes them into its generated
step loop, the one place that runs them.  Each sum over n is
0.0 + μ_0·w_0 + μ_1·w_1 + … in index order, as `sum()` adds from its
start 0, so a −0.0 product rounds to +0.0, and the square root is
`math.sqrt`; in floats x/0.0 raises ZeroDivisionError and the square
root of a negative raises ValueError, where numpy gives inf or nan.
"""

import numpy as np

from . import jets
from .errors import DimensionMismatch, NonConvexNorm, NotPositiveDefinite, SingularTensor, ZeroVector


def _check_spd(mat: np.ndarray, what: str) -> None:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise NotPositiveDefinite(f"{what} must be a square matrix")
    if np.max(np.abs(mat - mat.T)) > 1.0e-12 * max(1.0, np.trace(mat)):
        raise NotPositiveDefinite(f"{what} must be symmetric")
    shift = 1.0e-12 * np.trace(mat) * np.eye(mat.shape[0])
    try:
        np.linalg.cholesky(mat - shift)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(f"{what} is not positive definite") from None


def ordered_dot(us, vs):
    """Σ_k us[k]·vs[k] over the pairs of two sequences, broadcast, with the
    products added in index order into one array.

    Over a short axis of n ≤ 4 this replaces a BLAS product or a numpy
    reduction, whose order of additions can change with the batch size:
    every entry of a batch then rounds as it would alone.
    """
    pairs = zip(us, vs)
    u, v = next(pairs)
    out = u * v
    for u, v in pairs:
        out += u * v
    return out


def _dot_line(mu: str, names: list) -> str:
    """zero + mu0·names[0] + mu1·names[1] + …: the sum that `sum()` forms
    from its start 0, which converts to 0.0 exactly."""
    return "zero + " + " + ".join(f"{mu}{j} * {name}" for j, name in enumerate(names))


def _batch_last(y: np.ndarray) -> np.ndarray:
    """The vectors of y, batched over leading axes, as the rows of a
    contiguous (n, batch) array: row k is coordinate k of every vector.
    A batch stored that way already, as the σ quadrature's nodes are, is
    not copied."""
    return np.ascontiguousarray(y.reshape(-1, y.shape[-1]).T)


def _times(a: np.ndarray, yt: np.ndarray) -> np.ndarray:
    """y @ a on the batch-last rows yt: row j is Σ_k a[k, j]·yt[k]."""
    return ordered_dot(a[:, :, None], yt[:, None])


def _quadratic(y: np.ndarray, a: np.ndarray) -> np.ndarray:
    """y·a y over the last axis of y, batched, in the nested form
    Σ_i y_i·(a_ii·y_i + Σ_{j>i} (a_ij + a_ji)·y_j) on the batch-last
    rows, each sum an `ordered_dot` of (batch,) rows: about half the
    products of (y @ a)·y, and no (n, batch) temporary."""
    yt = _batch_last(y)
    s = (a + a.T).tolist()
    inner = (ordered_dot([0.5 * row[i], *row[i + 1 :]], yt[i:]) for i, row in enumerate(s))
    return ordered_dot(yt, inner).reshape(y.shape[:-1])


class MinkowskiNorm:
    """Base class: the dimension and y ≠ 0 checks, and the jet route to
    the tensors of a norm that gives F² on jets."""

    def __init__(self, dim: int):
        self.dim = int(dim)

    # subclasses implement value(y), fundamental_matrix, cartan and
    # legendre; one that implements value2_jet(yj) can take its tensors
    # from _generic_fundamental and _generic_cartan

    def value(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value2_jet(self, yj: jets.Jet) -> jets.Jet:
        raise NotImplementedError

    def _check_dim(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape[-1] != self.dim:
            raise DimensionMismatch(self.dim, y.shape[-1])
        return y

    @classmethod
    def dual_lines(cls, n: int, mu: str, u: str) -> tuple:
        """(names, lines): Python lines that set the floats u0…u{n−1} to
        u = ∂(½F*²)/∂μ of the covector in the floats mu0…mu{n−1}, where
        mu and u are the prefixes passed in.

        The lines read the norm's constants under `names`, whose values
        the norm holds, in that order, in `dual_constants`, and otherwise
        only the names `geodesic_flow.compiled` binds; the caller binds
        the names.  They depend on n alone, never on the norm's data.
        Only norms with a closed-form dual implement them.
        """
        raise NotImplementedError

    def _require_nonzero(self, y: np.ndarray) -> np.ndarray:
        y = self._check_dim(y)
        if (np.einsum("...i,...i->...", y, y) == 0.0).any():
            raise ZeroVector("derivative operations need y != 0")
        return y

    def _generic_fundamental(self, y: np.ndarray) -> np.ndarray:
        """g_ij(y) = ½ ∂²F²/∂y_i∂y_j, batched over leading axes of y."""
        y = self._require_nonzero(y)
        n = self.dim
        eye = np.eye(n)
        yb = np.broadcast_to(y[..., None, None, :], y.shape[:-1] + (n, n, n))
        u = np.broadcast_to(eye[:, None, :], (n, n, n))
        v = np.broadcast_to(eye[None, :, :], (n, n, n))
        vj = jets.variable(yb, [u, v])
        f2 = self.value2_jet(vj)
        return 0.5 * f2.coeff(0b11)

    def _generic_cartan(self, y: np.ndarray) -> np.ndarray:
        """C_ijk(y) = ¼ ∂³F²/∂y_i∂y_j∂y_k, batched."""
        y = self._require_nonzero(y)
        n = self.dim
        eye = np.eye(n)
        yb = np.broadcast_to(y[..., None, None, None, :], y.shape[:-1] + (n, n, n, n))
        u = np.broadcast_to(eye[:, None, None, :], (n, n, n, n))
        v = np.broadcast_to(eye[None, :, None, :], (n, n, n, n))
        w = np.broadcast_to(eye[None, None, :, :], (n, n, n, n))
        vj = jets.variable(yb, [u, v, w])
        f2 = self.value2_jet(vj)
        return 0.25 * f2.coeff(0b111)


class EuclideanNorm(MinkowskiNorm):
    """F(y) = sqrt(y·a y) for a symmetric positive definite a."""

    def __init__(self, a: np.ndarray):
        a = np.asarray(a, dtype=float)
        _check_spd(a, "a")
        super().__init__(a.shape[0])
        self.a = a
        # the columns of a⁻¹, one after the other
        self.dual_constants = tuple(np.linalg.inv(a).T.ravel().tolist())

    def value(self, y: np.ndarray) -> np.ndarray:
        y = self._check_dim(y)
        return np.sqrt(_quadratic(y, self.a))

    def legendre(self, y: np.ndarray) -> np.ndarray:
        """μ = a y, on the batch-last layout."""
        y = self._require_nonzero(y)
        return _times(self.a, _batch_last(y)).T.reshape(y.shape)

    @classmethod
    def dual_lines(cls, n: int, mu: str, u: str) -> tuple:
        """u = a⁻¹μ, u_i = μ·(column i of a⁻¹)."""
        columns = [[f"ai{i}_{j}" for j in range(n)] for i in range(n)]
        return sum(columns, []), [f"{u}{i} = {_dot_line(mu, col)}" for i, col in enumerate(columns)]

    def fundamental_matrix(self, y: np.ndarray) -> np.ndarray:
        """a at every vector, laid out as the Randers tensor is: the
        (..., n, n) view of an (n, n, batch) array."""
        y = self._require_nonzero(y)
        g = np.repeat(self.a[:, :, None], y.size // self.dim, axis=-1)
        return g.transpose(2, 0, 1).reshape(y.shape + (self.dim,))

    def cartan(self, y: np.ndarray) -> np.ndarray:
        y = self._require_nonzero(y)
        n = self.dim
        return np.zeros(y.shape[:-1] + (n, n, n))


class RandersNorm(MinkowskiNorm):
    """F(y) = sqrt(y·a y) + b·y with ‖b‖_a < 1.

    Strong convexity is exactly ‖b‖_a < 1, checked at construction.  The
    closed forms below are the direct derivatives of (α+β)²:

      g  = (F/α)·(a − q⊗q) + l⊗l,   q = a y/α,   l = q + b
      C  = ½·Sym₃(u ⊗ h),   u = b/α − (β/α³)p,   h = a − p⊗p/α²,   p = a y

    where Sym₃ symmetrizes over the three slots.  l is ∇F, so the
    Legendre map is μ = F·l, and a − q⊗q annihilates y, so g y = F·l.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        _check_spd(a, "a")
        if b.shape != (a.shape[0],):
            raise DimensionMismatch(a.shape[0], b.shape[-1], "b")
        super().__init__(a.shape[0])
        self.a = a
        self.b = b
        self.b_sharp = np.linalg.solve(a, b)
        self.b_norm = float(np.sqrt(self.b @ self.b_sharp))
        if self.b_norm >= 1.0:
            raise NonConvexNorm(
                f"Randers data violates ‖b‖ < 1: computed ‖b‖_a = {self.b_norm}",
                b_norm=self.b_norm,
            )
        lam = 1.0 - self.b @ self.b_sharp
        dual_h = (np.linalg.inv(a) + np.outer(self.b_sharp, self.b_sharp) / lam) / lam
        # the columns of H, one after the other, then W
        self.dual_constants = tuple(dual_h.T.ravel().tolist() + (-self.b_sharp / lam).tolist())
        self._a_b = np.column_stack([a, b])

    def alpha(self, y: np.ndarray) -> np.ndarray:
        y = self._check_dim(y)
        return np.sqrt(_quadratic(y, self.a))

    def beta(self, y: np.ndarray) -> np.ndarray:
        y = self._check_dim(y)
        return ordered_dot(self.b, _batch_last(y)).reshape(y.shape[:-1])

    def value(self, y: np.ndarray) -> np.ndarray:
        return self.alpha(y) + self.beta(y)

    def _parts(self, y: np.ndarray) -> tuple:
        """(p, α², β): p = a y, α² = y·p and β = b·y on the batch-last
        rows of y, from one pass of y @ [a | b], β its last row."""
        yt = _batch_last(y)
        rows = _times(self._a_b, yt)
        p, beta = rows[:-1], rows[-1]
        return p, ordered_dot(yt, p), beta

    def legendre(self, y: np.ndarray) -> np.ndarray:
        """μ = F(y)·(a y/α + b): ½∇F² = F·∇F, on the batch-last layout."""
        y = self._require_nonzero(y)
        p, alpha2, f = self._parts(y)
        alpha = np.sqrt(alpha2)
        f += alpha
        p /= alpha
        p += self.b[:, None]
        p *= f
        return p.T.reshape(y.shape)

    @classmethod
    def dual_lines(cls, n: int, mu: str, u: str) -> tuple:
        """u = (s/√(μ·Hμ))·Hμ + s·W with s = F*(μ), on the temporaries
        h0…h{n−1} = Hμ, root, s and scale."""
        columns = [[f"H{i}_{j}" for j in range(n)] for i in range(n)]
        w = [f"W{j}" for j in range(n)]
        lines = [f"h{i} = {_dot_line(mu, col)}" for i, col in enumerate(columns)]
        lines += [
            f"root = sqrt({_dot_line(mu, [f'h{j}' for j in range(n)])})",
            f"s = root + ({_dot_line(mu, w)})",
            "scale = s / root",
        ]
        lines += [f"{u}{j} = scale * h{j} + s * W{j}" for j in range(n)]
        return sum(columns, []) + w, lines

    def fundamental_matrix(self, y: np.ndarray) -> np.ndarray:
        """g in ℓ-form, computed on an (n, n, batch) array with the batch
        axis innermost and returned as its (..., n, n) view; each sum over
        n is an `ordered_dot`, so a vector's g is the same alone as in a
        batch."""
        y = self._require_nonzero(y)
        p, alpha2, beta = self._parts(y)
        alpha = np.sqrt(alpha2)
        q = p / alpha
        l = q + self.b[:, None]
        g = q[:, None] * q
        np.subtract(self.a[:, :, None], g, out=g)
        g *= (alpha + beta) / alpha
        g += l[:, None] * l
        return g.transpose(2, 0, 1).reshape(y.shape + (self.dim,))

    def cartan(self, y: np.ndarray) -> np.ndarray:
        """C = ½·Sym₃(u ⊗ h) on the batch-last rows, as `fundamental_matrix`
        is formed; the (..., n, n, n) view of an (n, n, n, batch) array."""
        y = self._require_nonzero(y)
        p, alpha2, beta = self._parts(y)
        alpha = np.sqrt(alpha2)
        u = self.b[:, None] / alpha - (beta / (alpha2 * alpha)) * p
        h = self.a[:, :, None] - p[:, None] * p / alpha2
        uh = u[:, None, None] * h
        c = 0.5 * (uh + uh.transpose(1, 0, 2, 3) + uh.transpose(1, 2, 0, 3))
        return c.transpose(3, 0, 1, 2).reshape(y.shape + (self.dim, self.dim))


class CustomNorm(MinkowskiNorm):
    """Norm given by a callable evaluating F² on jet vectors.

    The callable receives a jet vector (indexable by component) and must
    build its result from jet arithmetic: +, -, *, /, ** and
    finslergeo.jets.sqrt.  Third derivatives then come out exact.
    """

    def __init__(self, dim: int, f2):
        super().__init__(dim)
        self.f2 = f2

    def value(self, y: np.ndarray) -> np.ndarray:
        y = self._check_dim(y)
        flat = np.linalg.norm(y, axis=-1) == 0.0
        if np.all(flat):
            return np.zeros(y.shape[:-1])
        safe = np.where(flat[..., None], 1.0, y)
        val = np.sqrt(self.f2(jets.Jet.constant(safe, 0)).value)
        return np.where(flat, 0.0, val)

    def value2_jet(self, yj: jets.Jet) -> jets.Jet:
        return self.f2(yj)

    def fundamental_matrix(self, y: np.ndarray) -> np.ndarray:
        g = self._generic_fundamental(y)
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise SingularTensor(
                "fundamental tensor is not positive definite; the evaluator is not strongly convex"
            ) from None
        return g

    def cartan(self, y: np.ndarray) -> np.ndarray:
        return self._generic_cartan(y)

    def legendre(self, y: np.ndarray) -> np.ndarray:
        """μ = ĝ_y y = ½∇F²(y) from the jet tensor, batched."""
        y = self._require_nonzero(y)
        return np.einsum("...ij,...j->...i", self.fundamental_matrix(y), y)
