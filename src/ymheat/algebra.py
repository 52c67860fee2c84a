"""Lie algebra data for the gauge groups U(1) and SU(2).

An algebra element is a real coefficient vector, shape ``(..., dim)``,
over the orthonormal basis i of u(1) or i*sigma_k/2 of su(2); group
matrices appear only in `transport`, which builds them in closed form.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LieAlgebraSpec", "u1", "su2"]


class LieAlgebraSpec:
    """The gauge algebra of `group_id` ("U1" or "SU2"): `dim` coefficients
    per element, the bracket and the commutator constant `c`.

    c = max |[xi, eta]| over unit xi, eta is c = 1 for SU2, since
    [xi_i, xi_j] = -eps_ijk xi_k in the basis i*sigma_k/2 makes
    |[x, y]| = |x cross y|, and c = 0 for the abelian U1.
    """

    def __init__(self, group_id: str, dim: int, c: float):
        self.group_id = group_id
        self.dim = dim
        self.c = float(c)

    def bracket(self, x, y):
        """Pointwise commutator on coefficient arrays (..., dim).

        For su(2), [x, y]_k = -eps_ijk x_i y_j is the cross product y cross x,
        written out as the three multiply-then-subtract pairs of
        ``np.cross(y, x)`` (cp0 = a1*b2 - a2*b1 and cyclic, a = y, b = x),
        so the result has the same bits with no axis moves or copies of the
        operands.  For the abelian u(1) it is zero; the calculus never calls
        it there.
        """
        if self.c == 0:
            return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
        a0, a1, a2 = y[..., 0], y[..., 1], y[..., 2]
        b0, b1, b2 = x[..., 0], x[..., 1], x[..., 2]
        tmp = np.asarray(a2 * b1)  # an array even for single vectors
        out = np.empty(tmp.shape + (3,))
        c0, c1, c2 = out[..., 0], out[..., 1], out[..., 2]
        np.multiply(a1, b2, out=c0)
        c0 -= tmp
        np.multiply(a2, b0, out=c1)
        np.multiply(a0, b2, out=tmp)
        c1 -= tmp
        np.multiply(a0, b1, out=c2)
        np.multiply(a1, b0, out=tmp)
        c2 -= tmp
        return out

    def __repr__(self):
        return f"LieAlgebraSpec({self.group_id}, dim={self.dim}, c={self.c:.6g})"


def u1() -> LieAlgebraSpec:
    """u(1) realized as imaginary scalars, basis {i}."""
    return LieAlgebraSpec("U1", dim=1, c=0.0)


def su2() -> LieAlgebraSpec:
    """su(2) with basis i*sigma_k/2 and inner product -2 tr(xi eta)."""
    return LieAlgebraSpec("SU2", dim=3, c=1.0)
