"""Lie algebra data for the gauge groups U(1) and SU(2).

Algebra elements are handled in two interchangeable forms: as coefficient
vectors over a fixed orthonormal basis (the representation used by grid
fields, shape ``(..., dim)``), and as anti-hermitian matrices acting on the
representation space (shape ``(..., rep_dim, rep_dim)``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["LieAlgebraSpec", "u1", "su2"]

_PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


class LieAlgebraSpec:
    """A compact gauge algebra: basis matrices, bracket and inner product.

    The commutator constant c = max |[xi, eta]| over unit xi, eta is
    c = 1 for SU2, since [xi_i, xi_j] = -eps_ijk xi_k in the basis
    i*sigma_k/2 makes |[x, y]| = |x cross y|, and c = 0 for the abelian U1.

    Parameters
    ----------
    group_id : str
        "U1" or "SU2".
    basis : array_like, shape (dim, rep_dim, rep_dim)
        Anti-hermitian generators, orthonormal under the inner product.
    trace_scale : float
        The inner product is ``<m1, m2> = -trace_scale * Re tr(m1 m2)``.
    c : float
        The commutator constant.
    """

    def __init__(self, group_id: str, basis, trace_scale: float, c: float):
        self.group_id = group_id
        self.basis = np.asarray(basis, dtype=complex)
        self.trace_scale = float(trace_scale)
        self.c = float(c)
        self.dim = self.basis.shape[0]
        self.rep_dim = self.basis.shape[1]

    # -- coefficient/matrix conversions ------------------------------------

    def to_matrices(self, coeffs):
        """Coefficient vectors (..., dim) -> matrices (..., rep_dim, rep_dim)."""
        return np.einsum("...i,iab->...ab", np.asarray(coeffs), self.basis)

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
    return LieAlgebraSpec("U1", [[[1j]]], trace_scale=1.0, c=0.0)


def su2() -> LieAlgebraSpec:
    """su(2) with basis i*sigma_k/2 and inner product -2 tr(xi eta)."""
    basis = 0.5j * _PAULI
    return LieAlgebraSpec("SU2", basis, trace_scale=2.0, c=1.0)
