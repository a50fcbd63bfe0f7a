"""Truncated polynomial arithmetic for exact mixed partial derivatives.

A jet of order k carries coefficients over the nilpotent basis
ε_S = ∏_{i∈S} ε_i for S ⊆ {0..k-1}, with ε_i² = 0.  Arithmetic on jets
is exact, so the coefficient of the full product ε_{0..k-1} in
f(y + t_0 u_0 + ... + t_{k-1} u_{k-1}) is the mixed partial
∂^k f / ∂t_0 ... ∂t_{k-1} evaluated at t = 0, with no truncation error
beyond floating point.

Coefficients live in the trailing axis of a numpy array of length 2**k,
indexed by the bitmask of S.  Leading axes are free: a batched vector of
jets has shape (..., n, 2**k) with the component axis at -2, and all
operations broadcast over the leading axes.

A product's coefficient at S sums x_A·y_B over the 3**k splits S = A ⊔ B,
one elementwise multiply per split and no dense 2**k×2**k×2**k table;
`dot` takes the same splits with one two-operand contraction over the
components each, so no (..., n, 2**k, 2**k) temporary is formed, and
`matvec` is one np.matmul.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def _subset_pairs(order: int) -> tuple:
    """For each mask s, the pairs (a, s ^ a) over the subsets a of s.

    ε_a ε_b = ε_s exactly when a and b split s, so these 3**k pairs are
    the only nonzero entries of the multiplication table.
    """
    out = []
    for s in range(1 << order):
        pairs, a = [], s
        while True:
            pairs.append((a, s ^ a))
            if not a:
                break
            a = (a - 1) & s
        out.append(tuple(pairs))
    return tuple(out)


def _convolve(x: np.ndarray, y: np.ndarray, order: int, shape: tuple, product) -> np.ndarray:
    """out[..., s] = sum of product(x[..., a], y[..., b]) over the splits (a, b) of s."""
    out = np.empty(shape + (1 << order,))
    for s, pairs in enumerate(_subset_pairs(order)):
        acc = product(x[..., pairs[0][0]], y[..., pairs[0][1]])
        for a, b in pairs[1:]:
            acc += product(x[..., a], y[..., b])
        out[..., s] = acc
    return out


def _dot_last(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # the component contraction of one split in dot
    return np.einsum("...p,...p->...", x, y)


class Jet:
    """A (batched) element of R[ε_0..ε_{k-1}] / (ε_i² = 0)."""

    __slots__ = ("c", "order")

    def __init__(self, c: np.ndarray, order: int):
        self.c = np.asarray(c, dtype=float)
        self.order = order
        if self.c.shape[-1] != (1 << order):
            raise ValueError("coefficient axis does not match jet order")

    @classmethod
    def constant(cls, value, order: int) -> "Jet":
        value = np.asarray(value, dtype=float)
        c = np.zeros(value.shape + (1 << order,))
        c[..., 0] = value
        return cls(c, order)

    @property
    def value(self) -> np.ndarray:
        return self.c[..., 0]

    def coeff(self, mask: int) -> np.ndarray:
        """Coefficient of ε_S for the bitmask S; the mixed partial ∂_S."""
        return self.c[..., mask]

    def __getitem__(self, i) -> "Jet":
        # component access for vector jets: component axis is -2
        return Jet(self.c[..., i, :], self.order)

    def __neg__(self) -> "Jet":
        return Jet(-self.c, self.order)

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.c + other.c, self.order)
        c = self.c.copy()
        c[..., 0] += other
        return Jet(c, self.order)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            shape = np.broadcast_shapes(self.c.shape[:-1], other.c.shape[:-1])
            return Jet(_convolve(self.c, other.c, self.order, shape, np.multiply), self.order)
        other = np.asarray(other, dtype=float)
        if other.ndim:
            other = other[..., None]  # broadcast against leading axes, not coefficients
        return Jet(self.c * other, self.order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        other = np.asarray(other, dtype=float)
        if other.ndim:
            other = other[..., None]
        return Jet(self.c / other, self.order)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, (int, np.integer)):
            if p < 0:
                return self._reciprocal() ** (-p)
            result = Jet.constant(np.ones(self.c.shape[:-1]), self.order)
            for _ in range(p):
                result = result * self
            return result
        return self._real_pow(float(p))

    def _split(self):
        # value part a0 and the nilpotent remainder q = (self - a0) / a0
        a0 = self.c[..., :1]
        q = Jet(self.c / a0, self.order)
        q.c[..., 0] = 0.0
        return a0[..., 0], q

    def _series(self, coeffs) -> "Jet":
        # Horner evaluation of sum coeffs[j] q^j at the nilpotent part q
        a0, q = self._split()
        acc = q * coeffs[-1] + coeffs[-2]
        for cj in reversed(coeffs[:-2]):
            acc = q * acc + cj
        return acc, a0

    def _reciprocal(self) -> "Jet":
        if self.order == 0:
            return Jet(1.0 / self.c, 0)
        acc, a0 = self._series([(-1.0) ** j for j in range(self.order + 1)])
        return Jet(acc.c / a0[..., None], self.order)

    def _real_pow(self, p: float) -> "Jet":
        if self.order == 0:
            return Jet(self.c**p, 0)
        coeffs, binom = [], 1.0
        for j in range(self.order + 1):
            coeffs.append(binom)
            binom *= (p - j) / (j + 1)
        acc, a0 = self._series(coeffs)
        return Jet(acc.c * (a0**p)[..., None], self.order)


def sqrt(x):
    """Square root for jets and plain arrays alike."""
    if isinstance(x, Jet):
        return x._real_pow(0.5)
    return np.sqrt(x)


def variable(y: np.ndarray, dirs) -> Jet:
    """Seed a vector jet y + ε_0 u_0 + ... for the directions in dirs.

    y has shape (..., n); each direction broadcasts against it.  The jet
    order equals len(dirs).
    """
    y = np.asarray(y, dtype=float)
    order = len(dirs)
    c = np.zeros(y.shape + (1 << order,))
    c[..., 0] = y
    for i, u in enumerate(dirs):
        c[..., 1 << i] = u
    return Jet(c, order)


def matvec(mat: np.ndarray, x: Jet) -> Jet:
    """Apply a numeric linear map over the component axis of a vector jet."""
    return Jet(np.matmul(mat, x.c), x.order)


def dot(x: Jet, y: Jet) -> Jet:
    """Contract two vector jets over the component axis."""
    shape = np.broadcast_shapes(x.c.shape[:-2], y.c.shape[:-2])
    return Jet(_convolve(x.c, y.c, x.order, shape, _dot_last), x.order)


def quadform(mat: np.ndarray, x: Jet) -> Jet:
    """x · (mat x) as a scalar jet."""
    return dot(x, matvec(mat, x))
