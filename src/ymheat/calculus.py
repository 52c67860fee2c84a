"""Discrete covariant exterior calculus on box grids.

All operators are second-order central-difference stencils acting on
:class:`~ymheat.grid.KForm` fields whose ghost layer has been filled.
Sign conventions: d* = -div on 1-forms, (d*B)_j = -sum_i d_i B_ij on
2-forms, and the contraction ([alpha . B])_j = sum_i [alpha_i, B_ij].

The run: each padded component, shape (n1+2, n2+2, n3+2, dim), is read as
one C-ordered (nodes, dim) array, and every pass covers one contiguous
run of nodes, from the first interior node (1, 1, 1) to the last; the
neighbours of node k along an axis are k +- s, s that axis's node stride.
The run crosses ghost nodes, where a stencil value means nothing, so each
operator zeroes every ghost entry of its output before it returns.  An
output form that is not C-contiguous raises rather than be written
through a copy.

Bit contract: every interior node gets the operands and operations of
the plain evaluation of its formula in the formula's order, (f[i+1] -
f[i-1]) / (2h) for a first derivative and every term added in turn to a
zeroed accumulator, so it has that evaluation's bits.  A term with sign
-1 is subtracted rather than scaled by -1.0, which is exact.

The u(1) path: the abelian bracket is identically zero (``algebra.c ==
0``), so each operator takes one branch that skips every bracket term and
every derivative computed only to feed one.  Skipping the addition of an
exact zero can change at most the sign of a zero.
"""

from __future__ import annotations

from functools import lru_cache

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


@lru_cache(maxsize=None)
def _runs(shape, axis):
    """Flat node slices of a padded block of spatial shape ``shape``: the
    run, and the run shifted one node up and one node down along axis."""
    strides = (shape[1] * shape[2], shape[2], 1)
    lo, s = strides[0] + strides[1] + 1, strides[axis]
    hi = shape[0] * strides[0] - lo
    return slice(lo, hi), slice(lo + s, hi + s), slice(lo - s, hi - s)


def _run(a: np.ndarray) -> np.ndarray:
    """The run of a padded component, (nodes, dim)."""
    return a.reshape(-1, a.shape[-1])[_runs(a.shape[:3], 0)[0]]


def _d1(f: np.ndarray, axis: int, h: float, out: np.ndarray) -> np.ndarray:
    """Central first derivative (f[k+s] - f[k-s]) / (2h) of a padded
    component at every node k of the run, into the run-shaped ``out``."""
    _, plus, minus = _runs(f.shape[:3], axis)
    f = f.reshape(-1, f.shape[-1])
    np.subtract(f[plus], f[minus], out=out)
    out /= 2.0 * h
    return out


def _d2(f: np.ndarray, axis: int, h: float, out: np.ndarray) -> np.ndarray:
    """Three-point second derivative (f[k+s] - 2 f[k] + f[k-s]) / h^2 at
    every node k of the run, into the run-shaped ``out``."""
    run, plus, minus = _runs(f.shape[:3], axis)
    f = f.reshape(-1, f.shape[-1])
    np.multiply(f[run], 2.0, out=out)
    np.subtract(f[plus], out, out=out)
    out += f[minus]
    out /= h * h
    return out


def _output(degree: int, like: KForm, out: KForm | None) -> KForm:
    """The degree-p form an operator writes, unfilled: ``out`` or a new
    form.  Each entry is a ghost or in the run, which it writes first."""
    if out is None:
        return KForm(degree, like.grid, like.algebra)
    if not out.values.flags.c_contiguous:
        raise ValueError("an operator's output form must be C-contiguous")
    out.bc = None
    return out


def _clear_ghosts(form: KForm) -> KForm:
    """Zero every ghost entry of form's values; returns form."""
    for axis in (1, 2, 3):
        for i in (0, -1):
            form.values[(slice(None),) * axis + (i,)] = 0.0
    return form


def _add_covariant_derivative(acc, sign, A, w, k, h, tmp):
    """acc += sign * (d_k w + [A_k, w]) over the run, sign = +-1 (A None:
    no bracket), with the bits of that expression; run-shaped acc, tmp."""
    t = _d1(w, k, h, tmp)
    if A is not None and A.algebra.c != 0:
        t += A.algebra.bracket(_run(A.values[k]), _run(w))
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
    B = _output(2, A, out)
    tmp = np.empty_like(_run(A.values[0]))
    for (i, j), ci in _COMP_INDEX[2].items():
        Bij = _d1(A.values[j], i, h[i], _run(B.values[ci]))
        Bij -= _d1(A.values[i], j, h[j], tmp)
        if alg.c != 0:
            Bij += alg.bracket(_run(A.values[i]), _run(A.values[j]))
    return _clear_ghosts(B)


def d_cov(A: KForm, omega: KForm, out: KForm | None = None) -> KForm:
    """Covariant exterior derivative d_A omega = d omega + (ad A) wedge omega."""
    p = omega.degree
    if p >= 3:
        raise ValueError("d_cov output degree would exceed 3")
    _require_ghosts(omega)
    h = omega.grid.spacing
    out = _output(p + 1, omega, out)
    tmp = np.empty_like(_run(omega.values[0]))
    for J, cj in _COMP_INDEX[p + 1].items():
        acc = _run(out.values[cj])
        acc[...] = 0.0
        for pos, k in enumerate(J):
            w = omega.values[_COMP_INDEX[p][tuple(a for a in J if a != k)]]
            _add_covariant_derivative(acc, -1 if pos % 2 else 1,
                                      A, w, k, h[k], tmp)
    return _clear_ghosts(out)


def dstar_cov(A: KForm | None, omega: KForm,
              out: KForm | None = None) -> KForm:
    """Covariant codifferential; the flat-metric adjoint of d_cov.  A None
    is the flat connection: the plain d*, with no bracket terms."""
    p = omega.degree
    if p < 1:
        raise ValueError("dstar_cov expects degree >= 1")
    _require_ghosts(omega)
    h = omega.grid.spacing
    out = _output(p - 1, omega, out)
    tmp = np.empty_like(_run(omega.values[0]))
    for I, ci in _COMP_INDEX[p - 1].items():
        acc = _run(out.values[ci])
        acc[...] = 0.0
        for k in (k for k in range(3) if k not in I):
            J = tuple(sorted(I + (k,)))
            w = omega.values[_COMP_INDEX[p][J]]
            _add_covariant_derivative(acc, 1 if J.index(k) % 2 else -1,
                                      A, w, k, h[k], tmp)
    return _clear_ghosts(out)


def bochner_laplacian(A: KForm, omega: KForm,
                      out: KForm | None = None) -> KForm:
    """Sum over j of (d_j + ad A_j)^2 applied componentwise on the flat box:
    d_j^2 w + [d_j A_j, w] + 2 [A_j, d_j w] + [A_j, [A_j, w]], accumulated
    over the run; the ghost entries are zeroed."""
    _require_ghosts(A, omega)
    h = omega.grid.spacing
    alg = omega.algebra
    nonabelian = alg.c != 0
    out = _output(omega.degree, omega, out)
    tmp = np.empty_like(_run(omega.values[0]))
    if nonabelian:
        Ar = [_run(A.values[j]) for j in range(3)]
        dA = [_d1(A.values[j], j, h[j], np.empty_like(tmp))
              for j in range(3)]
    for ci in range(omega.values.shape[0]):
        w = omega.values[ci]
        wr = _run(w)
        acc = _run(out.values[ci])
        acc[...] = 0.0
        for j in range(3):
            acc += _d2(w, j, h[j], tmp)
            if nonabelian:
                acc += alg.bracket(dA[j], wr)
                t = alg.bracket(Ar[j], _d1(w, j, h[j], tmp))
                t *= 2.0
                acc += t
                acc += alg.bracket(Ar[j], alg.bracket(Ar[j], wr))
    return _clear_ghosts(out)


def weitzenbock_defect(A: KForm, omega: KForm) -> KForm:
    """Curvature terms -(d_A d_A* + d_A* d_A) omega - bochner_laplacian(A, omega).

    In exact arithmetic this is the pointwise-algebraic remainder of the
    Bochner identity (no derivatives of omega survive); here it carries an
    O(h^2) stencil residual.  The two intermediate forms are ghost-filled
    in place with the boundary spec of omega.
    """
    p = omega.degree
    if p not in (1, 2):
        raise ValueError("weitzenbock_defect expects degree 1 or 2")
    _require_ghosts(A, omega)
    bc = omega.bc
    upper = d_cov(A, omega)
    hodge = dstar_cov(A, apply_boundary(upper, bc, out=upper))
    lower = dstar_cov(A, omega)
    hodge.values += d_cov(A, apply_boundary(lower, bc, out=lower)).values
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
    return _clear_ghosts(out)

