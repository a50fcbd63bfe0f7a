"""Euclidean and Randers norms that also give F² on jets: the jet oracle.

The library's Euclidean and Randers norms carry their tensors and
Legendre maps in closed form only.  The subclasses here add
`value2_jet`, F² evaluated on a jet vector, so that
`MinkowskiNorm._generic_fundamental` and `_generic_cartan` differentiate
it with nested truncated jets: an independent route to g and C, exact up
to floating-point accumulation, against which the tests judge the closed
forms.  Everything else, the closed forms included, is inherited.
"""

import numpy as np

from finslergeo import jets, norms


class EuclideanNorm(norms.EuclideanNorm):
    """F² = y·a y on jets."""

    def value2_jet(self, yj: jets.Jet) -> jets.Jet:
        return jets.quadform(self.a, yj)


class RandersNorm(norms.RandersNorm):
    """F² = (√(y·a y) + b·y)² on jets."""

    def value2_jet(self, yj: jets.Jet) -> jets.Jet:
        alpha = jets.sqrt(jets.quadform(self.a, yj))
        beta = jets.dot(yj, jets.Jet.constant(np.broadcast_to(self.b, yj.c.shape[:-1]), yj.order))
        f = alpha + beta
        return f * f


def of(norm):
    """The jet twin of a Euclidean or Randers norm: the same data, with
    F² on jets."""
    if isinstance(norm, norms.RandersNorm):
        return RandersNorm(norm.a, norm.b)
    if isinstance(norm, norms.EuclideanNorm):
        return EuclideanNorm(norm.a)
    raise TypeError(f"no jet twin for {type(norm).__name__}")
