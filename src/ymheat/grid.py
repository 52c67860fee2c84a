"""Uniform box grids, algebra-valued differential forms and ghost layers.

Fields live on a node-collocated grid over the box [0,L1]x[0,L2]x[0,L3]
with one ghost layer per face.  A degree-p form stores one coefficient
field per increasing multi-index, shape ``(ncomp, n1+2, n2+2, n3+2, dim)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .algebra import LieAlgebraSpec

__all__ = [
    "GridSpec",
    "BoundarySpec",
    "KForm",
    "apply_boundary",
    "COMPONENT_AXES",
    "DIRICHLET",
    "NEUMANN",
    "MARINI",
]

# Increasing multi-indices per degree; axes are 0,1,2.
COMPONENT_AXES = {
    0: ((),),
    1: ((0,), (1,), (2,)),
    2: ((0, 1), (0, 2), (1, 2)),
    3: ((0, 1, 2),),
}


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned box with uniform node spacing and ghost depth 1."""

    extents: tuple
    shape: tuple

    def __post_init__(self):
        if len(self.extents) != 3 or len(self.shape) != 3:
            raise ValueError("extents and shape must have length 3")
        if any(n < 8 for n in self.shape):
            raise ValueError("need at least 8 nodes per axis")
        object.__setattr__(self, "extents", tuple(float(L) for L in self.extents))
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))

    @property
    def spacing(self):
        return tuple(L / (n - 1) for L, n in zip(self.extents, self.shape))

    @property
    def padded_shape(self):
        return tuple(n + 2 for n in self.shape)

    def axis_coords(self, axis, ghosts=False):
        """Node coordinates along one axis (optionally including ghosts)."""
        h = self.spacing[axis]
        n = self.shape[axis]
        if ghosts:
            return np.linspace(-h, self.extents[axis] + h, n + 2)
        return np.linspace(0.0, self.extents[axis], n)

    def meshgrid(self, ghosts=False):
        axes = [self.axis_coords(a, ghosts) for a in range(3)]
        return np.meshgrid(*axes, indexing="ij")

    def trapezoid_weights(self):
        """Volume quadrature weights on the non-ghost nodes, shape self.shape."""
        ws = []
        for a in range(3):
            w = np.full(self.shape[a], self.spacing[a])
            w[0] *= 0.5
            w[-1] *= 0.5
            ws.append(w)
        return ws[0][:, None, None] * ws[1][None, :, None] * ws[2][None, None, :]

    @property
    def volume(self):
        return self.extents[0] * self.extents[1] * self.extents[2]


class BoundarySpec:
    """Reflection-parity table implementing Dirichlet/Neumann/Marini fills.

    For a face perpendicular to an axis, a component is *normal* when its
    multi-index contains that axis and *tangential* otherwise.  Parities:

    * Neumann:   normal odd (face value forced to zero), tangential even.
    * Dirichlet: tangential odd, normal even.
    * Marini:    degree-1 forms even in every component; other degrees use
      the Neumann table, which zeroes the normal face values of B.
    """

    KINDS = ("dirichlet", "neumann", "marini")

    def __init__(self, kind: str):
        kind = kind.lower()
        if kind not in self.KINDS:
            raise ValueError(f"unknown boundary kind {kind!r}")
        self.kind = kind

    def parity(self, degree: int, comp_axes, face_axis: int) -> int:
        normal = face_axis in comp_axes
        if self.kind == "neumann":
            return -1 if normal else 1
        if self.kind == "dirichlet":
            return 1 if normal else -1
        # marini
        if degree == 1:
            return 1
        return -1 if normal else 1

    def __eq__(self, other):
        return isinstance(other, BoundarySpec) and self.kind == other.kind

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return f"BoundarySpec({self.kind!r})"


DIRICHLET = BoundarySpec("dirichlet")
NEUMANN = BoundarySpec("neumann")
MARINI = BoundarySpec("marini")


class KForm:
    """An algebra-valued p-form sampled on a box grid with ghost layers.

    ``values`` has shape (ncomp, n1+2, n2+2, n3+2, algebra.dim); ghost
    entries are meaningful only after :func:`apply_boundary`, which also
    records the boundary spec on ``self.bc``.
    """

    def __init__(self, degree: int, grid: GridSpec, algebra: LieAlgebraSpec,
                 values=None, bc: BoundarySpec | None = None):
        if degree not in COMPONENT_AXES:
            raise ValueError(f"degree must be 0..3, got {degree}")
        self.degree = degree
        self.grid = grid
        self.algebra = algebra
        ncomp = len(COMPONENT_AXES[degree])
        shape = (ncomp,) + grid.padded_shape + (algebra.dim,)
        if values is None:
            values = np.zeros(shape)
        else:
            values = np.asarray(values, dtype=float)
            if values.shape != shape:
                raise ValueError(f"values shape {values.shape} != {shape}")
        self.values = values
        self.bc = bc

    # -- construction helpers -------------------------------------------------

    def copy(self):
        return KForm(self.degree, self.grid, self.algebra, self.values.copy(), self.bc)

    # -- arithmetic (used by the time steppers) --------------------------------

    def _like(self, values, bc=None):
        return KForm(self.degree, self.grid, self.algebra, values, bc)

    def __add__(self, other):
        self._check_compatible(other)
        return self._like(self.values + other.values)

    def __sub__(self, other):
        self._check_compatible(other)
        return self._like(self.values - other.values)

    def __mul__(self, scalar):
        return self._like(self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self._like(-self.values)

    def _check_compatible(self, other):
        if not isinstance(other, KForm):
            raise TypeError("expected a KForm")
        if other.degree != self.degree or other.grid != self.grid:
            raise ValueError("degree mismatch or incompatible grids")

    # -- views and norms --------------------------------------------------------

    @property
    def interior(self):
        """Non-ghost view of the values, shape (ncomp, n1, n2, n3, dim)."""
        return self.values[:, 1:-1, 1:-1, 1:-1, :]

    def pointwise_norm(self):
        """|omega(x)| on the non-ghost nodes, shape grid.shape."""
        return np.sqrt(np.sum(np.square(self.interior), axis=(0, -1)))

    def norm(self, kind="L2"):
        """L2, Linf or W1 norm over the box (trapezoid-rule integrals)."""
        if kind == "Linf":
            return float(np.max(self.pointwise_norm()))
        w = self.grid.trapezoid_weights()
        if kind == "L2":
            return float(np.sqrt(np.sum(w * self.pointwise_norm() ** 2)))
        if kind == "W1":
            if self.bc is None:
                raise ValueError("W1 norm needs filled ghosts")
            h = self.grid.spacing
            grad_sq = np.zeros(self.grid.shape)
            v = self.values
            for a in range(3):
                sl_p = [slice(None)] * 5
                sl_m = [slice(None)] * 5
                for b in range(3):
                    ax = b + 1
                    if b == a:
                        sl_p[ax] = slice(2, None)
                        sl_m[ax] = slice(0, -2)
                    else:
                        sl_p[ax] = slice(1, -1)
                        sl_m[ax] = slice(1, -1)
                d = (v[tuple(sl_p)] - v[tuple(sl_m)]) / (2 * h[a])
                grad_sq += np.sum(np.square(d), axis=(0, -1))
            l2sq = np.sum(w * self.pointwise_norm() ** 2)
            return float(np.sqrt(np.sum(w * grad_sq) + l2sq))
        raise ValueError(f"unknown norm kind {kind!r}")

    def max_interior_norm(self, margin=0):
        """Max |omega| over nodes at least `margin` cells from every face."""
        m = 1 + margin
        sub = self.values[:, m:-m, m:-m, m:-m, :]
        return float(np.max(np.sqrt(np.sum(np.square(sub), axis=(0, -1)))))

    def __repr__(self):
        return (f"KForm(degree={self.degree}, grid={self.grid.shape}, "
                f"group={self.algebra.group_id}, bc={self.bc})")


def apply_boundary(omega: KForm, bc: BoundarySpec) -> KForm:
    """Return a copy of omega with ghosts filled by reflection parities.

    Odd components additionally have their face values forced to zero, so
    the fill enforces the face constraints (A_tan = 0 for Dirichlet,
    A_norm = 0 for Neumann, B_norm = 0 for Marini/Neumann) exactly.  The
    fill is idempotent: interior nodes are never modified.
    """
    out = omega.copy()
    v = out.values
    comps = COMPONENT_AXES[omega.degree]

    def slices(ci, ax, idx):
        s = [ci] + [slice(1, -1)] * 3 + [slice(None)]
        s[ax] = idx
        return tuple(s)

    # zero every odd-parity face first so the mirror pass below never
    # copies a stale pre-constraint face value into an edge ghost
    for ci, axes in enumerate(comps):
        for a in range(3):
            if bc.parity(omega.degree, axes, a) < 0:
                ax = a + 1  # array axis for spatial axis a
                v[slices(ci, ax, 1)] = 0.0
                v[slices(ci, ax, -2)] = 0.0
    for ci, axes in enumerate(comps):
        for a in range(3):
            p = bc.parity(omega.degree, axes, a)
            ax = a + 1
            v[slices(ci, ax, 0)] = p * v[slices(ci, ax, 2)]
            v[slices(ci, ax, -1)] = p * v[slices(ci, ax, -3)]
    out.bc = bc
    return out
