"""Discrete covariant exterior calculus on box grids.

All operators are second-order central-difference stencils acting on
:class:`~ymheat.grid.KForm` fields whose ghost layer has been filled.
Sign conventions: d* = -div on 1-forms, (d*B)_j = -sum_i d_i B_ij on
2-forms, and the contraction ([alpha . B])_j = sum_i [alpha_i, B_ij].

Bit contract: each operator evaluates the floating-point expressions of
its formula in the formula's order, (f[i+1] - f[i-1]) / (2h) for a first
derivative and every term added in turn to a zeroed accumulator, so its
output has the bits of that plain evaluation.  The stencils write into
preallocated arrays, and a term with sign -1 is subtracted rather than
scaled by -1.0, which is exact.

The u(1) path: the abelian bracket is identically zero (``algebra.c ==
0``), so each operator takes one branch that skips every bracket term and
every derivative computed only to feed one.  Skipping the addition of an
exact zero can change at most the sign of a zero.
"""

from __future__ import annotations

import numpy as np

from .grid import COMPONENT_AXES, KForm, apply_boundary

__all__ = [
    "curvature",
    "d_cov",
    "dstar_cov",
    "bochner_laplacian",
    "weitzenbock_defect",
    "contraction_bracket",
]

_COMP_INDEX = {
    p: {axes: i for i, axes in enumerate(comps)}
    for p, comps in COMPONENT_AXES.items()
}

_INTERIOR = (slice(1, -1),) * 3


def _neighbours(axis):
    plus, minus = list(_INTERIOR), list(_INTERIOR)
    plus[axis] = slice(2, None)
    minus[axis] = slice(0, -2)
    return tuple(plus), tuple(minus)


# the interior's (plus, minus) neighbour slices along each axis
_NEIGHBOURS = tuple(_neighbours(a) for a in range(3))


def _d1(f: np.ndarray, axis: int, h: float, out: np.ndarray) -> np.ndarray:
    """Central first derivative (f[i+1] - f[i-1]) / (2h) of a padded
    component field at the interior nodes, written into ``out``."""
    plus, minus = _NEIGHBOURS[axis]
    np.subtract(f[plus], f[minus], out=out)
    out /= 2.0 * h
    return out


def _d2(f: np.ndarray, axis: int, h: float, out: np.ndarray) -> np.ndarray:
    """Three-point second derivative (f[i+1] - 2 f[i] + f[i-1]) / h^2 at
    the interior nodes, written into ``out``."""
    plus, minus = _NEIGHBOURS[axis]
    np.multiply(f[_INTERIOR], 2.0, out=out)
    np.subtract(f[plus], out, out=out)
    out += f[minus]
    out /= h * h
    return out


def _zeroed(degree: int, like: KForm, out: KForm | None) -> KForm:
    """A zero degree-p form on like's grid and algebra, with no ghost
    fill: ``out`` zeroed in place, or a new form."""
    if out is None:
        return KForm(degree, like.grid, like.algebra)
    out.values.fill(0.0)
    out.bc = None
    return out


def _interior_buffer(form: KForm) -> np.ndarray:
    """Scratch array for one component at the interior nodes."""
    return np.empty(form.grid.shape + (form.algebra.dim,))


def _add_covariant_derivative(acc, sign, A, w, k, h, tmp):
    """acc += sign * (d_k w + [A_k, w]), sign = +-1, with the bits of that
    expression; the derivative is taken at the interior nodes into tmp."""
    d = _d1(w, k, h, tmp)
    if A.algebra.c != 0:
        t = A.algebra.bracket(A.values[k], w)
        t[_INTERIOR] += d  # [A_k, w] + d_k w: the sum commutes bit for bit
    else:
        acc, t = acc[_INTERIOR], d
    if sign > 0:
        acc += t
    else:
        acc -= t


def _require_ghosts(*forms: KForm):
    for w in forms:
        if w.bc is None:
            raise ValueError("operator needs a ghost fill; call apply_boundary first")


def curvature(A: KForm, out: KForm | None = None) -> KForm:
    """Curvature 2-form B_ij = d_i A_j - d_j A_i + [A_i, A_j] of a 1-form A
    (into ``out`` when given, as for every operator here)."""
    if A.degree != 1:
        raise ValueError("curvature expects a 1-form")
    _require_ghosts(A)
    h = A.grid.spacing
    alg = A.algebra
    nonabelian = alg.c != 0
    B = _zeroed(2, A, out)
    tmp = _interior_buffer(A)
    for (i, j), ci in _COMP_INDEX[2].items():
        Bij = B.values[ci]
        inner = _d1(A.values[j], i, h[i], Bij[_INTERIOR])
        inner -= _d1(A.values[i], j, h[j], tmp)
        if nonabelian:
            Bij += alg.bracket(A.values[i], A.values[j])
    return B


def d_cov(A: KForm, omega: KForm, out: KForm | None = None) -> KForm:
    """Covariant exterior derivative d_A omega = d omega + (ad A) wedge omega."""
    p = omega.degree
    if p >= 3:
        raise ValueError("d_cov output degree would exceed 3")
    _require_ghosts(omega)
    h = omega.grid.spacing
    out = _zeroed(p + 1, omega, out)
    tmp = _interior_buffer(omega)
    for J, cj in _COMP_INDEX[p + 1].items():
        for pos, k in enumerate(J):
            rest = tuple(a for a in J if a != k)
            w = omega.values[_COMP_INDEX[p][rest]]
            _add_covariant_derivative(out.values[cj], -1 if pos % 2 else 1,
                                      A, w, k, h[k], tmp)
    return out


def dstar_cov(A: KForm, omega: KForm, out: KForm | None = None) -> KForm:
    """Covariant codifferential; the flat-metric adjoint of d_cov."""
    p = omega.degree
    if p < 1:
        raise ValueError("dstar_cov expects degree >= 1")
    _require_ghosts(omega)
    h = omega.grid.spacing
    out = _zeroed(p - 1, omega, out)
    tmp = _interior_buffer(omega)
    for I, ci in _COMP_INDEX[p - 1].items():
        for k in range(3):
            if k in I:
                continue
            J = tuple(sorted(I + (k,)))
            w = omega.values[_COMP_INDEX[p][J]]
            _add_covariant_derivative(out.values[ci],
                                      1 if J.index(k) % 2 else -1,
                                      A, w, k, h[k], tmp)
    return out


def bochner_laplacian(A: KForm, omega: KForm,
                      out: KForm | None = None) -> KForm:
    """Sum over j of (d_j + ad A_j)^2 applied componentwise on the flat box:
    d_j^2 w + [d_j A_j, w] + 2 [A_j, d_j w] + [A_j, [A_j, w]], at the
    interior nodes (the ghost entries are zero)."""
    _require_ghosts(A, omega)
    h = omega.grid.spacing
    alg = omega.algebra
    nonabelian = alg.c != 0
    out = _zeroed(omega.degree, omega, out)
    tmp = _interior_buffer(omega)
    if nonabelian:
        Ai = [A.values[j][_INTERIOR] for j in range(3)]
        dA = [_d1(A.values[j], j, h[j], _interior_buffer(A))
              for j in range(3)]
    for ci in range(omega.values.shape[0]):
        w = omega.values[ci]
        wi = w[_INTERIOR]
        acc = out.values[ci][_INTERIOR]
        for j in range(3):
            acc += _d2(w, j, h[j], tmp)
            if nonabelian:
                acc += alg.bracket(dA[j], wi)
                t = alg.bracket(Ai[j], _d1(w, j, h[j], tmp))
                t *= 2.0
                acc += t
                acc += alg.bracket(Ai[j], alg.bracket(Ai[j], wi))
    return out


def weitzenbock_defect(A: KForm, omega: KForm) -> KForm:
    """Curvature terms -(d_A d_A* + d_A* d_A) omega - bochner_laplacian(A, omega).

    In exact arithmetic this is the pointwise-algebraic remainder of the
    Bochner identity (no derivatives of omega survive); here it carries an
    O(h^2) stencil residual.  Intermediate forms are ghost-filled with the
    boundary spec of omega.
    """
    p = omega.degree
    if p not in (1, 2):
        raise ValueError("weitzenbock_defect expects degree 1 or 2")
    _require_ghosts(A, omega)
    bc = omega.bc
    hodge = dstar_cov(A, apply_boundary(d_cov(A, omega), bc))
    lower = apply_boundary(dstar_cov(A, omega), bc)
    hodge.values += d_cov(A, lower).values
    np.negative(hodge.values, out=hodge.values)
    hodge.values -= bochner_laplacian(A, omega).values
    return hodge


def contraction_bracket(alpha: KForm, B: KForm) -> KForm:
    """([alpha . B])_j = sum_i [alpha_i, B_ij] for a 1-form alpha and 2-form B."""
    if alpha.degree != 1 or B.degree != 2:
        raise ValueError("contraction_bracket expects a 1-form and a 2-form")
    alg = alpha.algebra
    out = KForm(1, alpha.grid, alg)
    if alg.c == 0:
        return out
    for j in range(3):
        acc = out.values[j]
        for i in range(3):
            if i < j:
                acc += alg.bracket(alpha.values[i], B.values[_COMP_INDEX[2][(i, j)]])
            elif i > j:
                acc -= alg.bracket(alpha.values[i], B.values[_COMP_INDEX[2][(j, i)]])
    return out

