"""Discrete covariant exterior calculus on box grids.

All operators are second-order central-difference stencils acting on
:class:`~ymheat.grid.KForm` fields whose ghost layer has been filled.
Sign conventions: d* = -div on 1-forms, (d*B)_j = -sum_i d_i B_ij on
2-forms, and the contraction ([alpha . B])_j = sum_i [alpha_i, B_ij].
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
    "gauge_transform",
    "gauge_transform_form",
]

_COMP_INDEX = {
    p: {axes: i for i, axes in enumerate(comps)}
    for p, comps in COMPONENT_AXES.items()
}

_INTERIOR = (slice(1, -1),) * 3


def _first_derivative(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Central first derivative of a padded component field.

    Output has the same padded shape; ghost entries are zero.
    """
    out = np.zeros_like(f)
    ctr, plus, minus = list(_INTERIOR), list(_INTERIOR), list(_INTERIOR)
    plus[axis] = slice(2, None)
    minus[axis] = slice(0, -2)
    out[tuple(ctr)] = (f[tuple(plus)] - f[tuple(minus)]) / (2.0 * h)
    return out


def _second_derivative(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Three-point second derivative; ghost entries of the output are zero."""
    out = np.zeros_like(f)
    ctr, plus, minus = list(_INTERIOR), list(_INTERIOR), list(_INTERIOR)
    plus[axis] = slice(2, None)
    minus[axis] = slice(0, -2)
    out[tuple(ctr)] = (
        f[tuple(plus)] - 2.0 * f[tuple(ctr)] + f[tuple(minus)]
    ) / (h * h)
    return out


def _require_ghosts(*forms: KForm):
    for w in forms:
        if w.bc is None:
            raise ValueError("operator needs a ghost fill; call apply_boundary first")


def curvature(A: KForm) -> KForm:
    """Curvature 2-form B_ij = d_i A_j - d_j A_i + [A_i, A_j] of a 1-form A."""
    if A.degree != 1:
        raise ValueError("curvature expects a 1-form")
    _require_ghosts(A)
    h = A.grid.spacing
    alg = A.algebra
    B = KForm(2, A.grid, alg)
    for (i, j), ci in _COMP_INDEX[2].items():
        B.values[ci] = (
            _first_derivative(A.values[j], i, h[i])
            - _first_derivative(A.values[i], j, h[j])
            + alg.bracket(A.values[i], A.values[j])
        )
    return B


def d_cov(A: KForm, omega: KForm) -> KForm:
    """Covariant exterior derivative d_A omega = d omega + (ad A) wedge omega."""
    p = omega.degree
    if p >= 3:
        raise ValueError("d_cov output degree would exceed 3")
    _require_ghosts(omega)
    h = omega.grid.spacing
    alg = omega.algebra
    out = KForm(p + 1, omega.grid, alg)
    for J, cj in _COMP_INDEX[p + 1].items():
        acc = np.zeros_like(out.values[cj])
        for pos, k in enumerate(J):
            rest = tuple(a for a in J if a != k)
            sign = -1.0 if pos % 2 else 1.0
            w = omega.values[_COMP_INDEX[p][rest]]
            acc += sign * (
                _first_derivative(w, k, h[k]) + alg.bracket(A.values[k], w)
            )
        out.values[cj] = acc
    return out


def dstar_cov(A: KForm, omega: KForm) -> KForm:
    """Covariant codifferential; the flat-metric adjoint of d_cov."""
    p = omega.degree
    if p < 1:
        raise ValueError("dstar_cov expects degree >= 1")
    _require_ghosts(omega)
    h = omega.grid.spacing
    alg = omega.algebra
    out = KForm(p - 1, omega.grid, alg)
    for I, ci in _COMP_INDEX[p - 1].items():
        acc = np.zeros_like(out.values[ci])
        for k in range(3):
            if k in I:
                continue
            J = tuple(sorted(I + (k,)))
            sign = -1.0 if J.index(k) % 2 else 1.0
            w = omega.values[_COMP_INDEX[p][J]]
            acc -= sign * (
                _first_derivative(w, k, h[k]) + alg.bracket(A.values[k], w)
            )
        out.values[ci] = acc
    return out


def bochner_laplacian(A: KForm, omega: KForm) -> KForm:
    """Sum over j of (d_j + ad A_j)^2 applied componentwise on the flat box."""
    _require_ghosts(A, omega)
    h = omega.grid.spacing
    alg = omega.algebra
    out = KForm(omega.degree, omega.grid, alg)
    dA = [_first_derivative(A.values[j], j, h[j]) for j in range(3)]
    for ci in range(omega.values.shape[0]):
        w = omega.values[ci]
        acc = np.zeros_like(w)
        for j in range(3):
            Aj = A.values[j]
            acc += _second_derivative(w, j, h[j])
            acc += alg.bracket(dA[j], w)
            acc += 2.0 * alg.bracket(Aj, _first_derivative(w, j, h[j]))
            acc += alg.bracket(Aj, alg.bracket(Aj, w))
        out.values[ci] = acc
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
    hodge = hodge + d_cov(A, lower)
    bl = bochner_laplacian(A, omega)
    out = KForm(p, omega.grid, omega.algebra)
    out.values[...] = -hodge.values - bl.values
    return out


def contraction_bracket(alpha: KForm, B: KForm) -> KForm:
    """([alpha . B])_j = sum_i [alpha_i, B_ij] for a 1-form alpha and 2-form B."""
    if alpha.degree != 1 or B.degree != 2:
        raise ValueError("contraction_bracket expects a 1-form and a 2-form")
    alg = alpha.algebra
    out = KForm(1, alpha.grid, alg)
    for j in range(3):
        acc = np.zeros_like(out.values[j])
        for i in range(3):
            if i == j:
                continue
            if i < j:
                acc += alg.bracket(alpha.values[i], B.values[_COMP_INDEX[2][(i, j)]])
            else:
                acc -= alg.bracket(alpha.values[i], B.values[_COMP_INDEX[2][(j, i)]])
        out.values[j] = acc
    return out


def _conjugate(k_inv, k, mats):
    """k^-1 M k for matrix fields M, with k unitary so k^-1 = k^H."""
    return np.einsum("...ab,...bc,...cd->...ad", k_inv, mats, k)


def gauge_transform(A: KForm, k: np.ndarray) -> KForm:
    """Gauge transform A^k = k^-1 A k + k^-1 dk of a connection 1-form.

    Parameters
    ----------
    A : KForm of degree 1
    k : complex ndarray, shape grid.padded_shape + (rep_dim, rep_dim)
        Group-valued 0-form sampled on all nodes including ghosts.

    The result has unfilled ghosts (bc is None).
    """
    if A.degree != 1:
        raise ValueError("gauge_transform expects a 1-form")
    alg = A.algebra
    k = np.asarray(k, dtype=complex)
    expected = A.grid.padded_shape + (alg.rep_dim, alg.rep_dim)
    if k.shape != expected:
        raise ValueError(f"group field shape {k.shape} != {expected}")
    kh = np.conj(np.swapaxes(k, -1, -2))
    dev = np.max(np.abs(np.einsum("...ab,...bc->...ac", kh, k)
                        - np.eye(alg.rep_dim)))
    if dev > 1e-10:
        raise ValueError(f"group field not unitary (deviation {dev:.3e})")
    h = A.grid.spacing
    out = KForm(1, A.grid, alg)
    for j in range(3):
        M = alg.to_matrices(A.values[j])
        conj = _conjugate(kh, k, M)
        dk = np.zeros_like(k)
        ctr, plus, minus = list(_INTERIOR), list(_INTERIOR), list(_INTERIOR)
        plus[j] = slice(2, None)
        minus[j] = slice(0, -2)
        dk[tuple(ctr)] = (k[tuple(plus)] - k[tuple(minus)]) / (2.0 * h[j])
        maurer = np.einsum("...ab,...bc->...ac", kh, dk)
        out.values[j] = alg.to_coeffs(conj + maurer)
    return out


def gauge_transform_form(omega: KForm, k: np.ndarray) -> KForm:
    """Pointwise conjugation k^-1 omega k for forms of any degree."""
    alg = omega.algebra
    k = np.asarray(k, dtype=complex)
    kh = np.conj(np.swapaxes(k, -1, -2))
    out = KForm(omega.degree, omega.grid, alg)
    for ci in range(omega.values.shape[0]):
        M = alg.to_matrices(omega.values[ci])
        out.values[ci] = alg.to_coeffs(_conjugate(kh, k, M))
    return out
