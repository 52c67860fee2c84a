"""Uniform box grids, algebra-valued differential forms and ghost layers.

Fields live on a node-collocated grid over the box [0,L1]x[0,L2]x[0,L3]
with one ghost layer per face.  A degree-p form stores one coefficient
field per increasing multi-index, shape ``(ncomp, n1+2, n2+2, n3+2, dim)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .algebra import LieAlgebraSpec

__all__ = [
    "GridSpec",
    "BoundarySpec",
    "KForm",
    "apply_boundary",
    "COMPONENT_AXES",
    "NEUMANN",
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

    @cached_property
    def trapezoid_weights(self):
        """Volume quadrature weights on the non-ghost nodes, shape self.shape;
        built on first use and cached on the grid, read-only."""
        w = _trapezoid_weights(self)
        w.flags.writeable = False
        return w

    @property
    def volume(self):
        return self.extents[0] * self.extents[1] * self.extents[2]


def _trapezoid_weights(grid: GridSpec) -> np.ndarray:
    ws = []
    for a in range(3):
        w = np.full(grid.shape[a], grid.spacing[a])
        w[0] *= 0.5
        w[-1] *= 0.5
        ws.append(w)
    return ws[0][:, None, None] * ws[1][None, :, None] * ws[2][None, None, :]


@dataclass(frozen=True)
class BoundarySpec:
    """Reflection-parity table implementing Dirichlet/Neumann/Marini fills.

    For a face perpendicular to an axis, a component is *normal* when its
    multi-index contains that axis and *tangential* otherwise.  Parities:

    * Neumann:   normal odd (face value forced to zero), tangential even.
    * Dirichlet: tangential odd, normal even.
    * Marini:    degree-1 forms even in every component; other degrees use
      the Neumann table, which zeroes the normal face values of B.
    """

    kind: str
    KINDS = ("dirichlet", "neumann", "marini")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown boundary kind {self.kind!r}")

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


NEUMANN = BoundarySpec("neumann")


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

    # -- arithmetic (the flow oracle, the abelian demo and the tests) ----------

    def _like(self, values):
        return KForm(self.degree, self.grid, self.algebra, values)

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
        """|omega(x)| on the non-ghost nodes, shape grid.shape: each
        component's squared algebra coefficients added in turn, then the
        components, in reused scratch arrays; the order and bits of
        ``np.sum(np.square(self.interior), axis=(0, -1))``."""
        total, s, sq = np.zeros(self.grid.shape), None, None
        for comp in self.interior:
            s = np.square(comp[..., 0], out=s)
            for a in range(1, self.algebra.dim):
                sq = np.square(comp[..., a], out=sq)
                s += sq
            total += s
        return np.sqrt(total, out=total)

    def norm(self, kind="L2"):
        """L2 or Linf norm over the box (trapezoid-rule integral)."""
        if kind == "Linf":
            return float(np.max(self.pointwise_norm()))
        if kind == "L2":
            return self._l2(self.pointwise_norm())
        raise ValueError(f"unknown norm kind {kind!r}")

    def l2_linf(self):
        """(L2, Linf) norms from one pointwise norm, with the bits of
        ``norm("L2")`` and ``norm("Linf")``."""
        pw = self.pointwise_norm()
        linf = float(np.max(pw))
        return self._l2(pw), linf

    def _l2(self, pw):
        pw *= pw  # in place: pw**2 * weights has the bits of weights * pw**2
        pw *= self.grid.trapezoid_weights
        return float(np.sqrt(np.sum(pw)))

    def __repr__(self):
        return (f"KForm(degree={self.degree}, grid={self.grid.shape}, "
                f"group={self.algebra.group_id}, bc={self.bc})")


@lru_cache(maxsize=None)
def _parities(bc: BoundarySpec, degree: int):
    """Per spatial axis: the parity of every component as a read-only
    (ncomp, 1, 1, 1) array, and the indices of the odd components."""
    comps = COMPONENT_AXES[degree]
    table = []
    for a in range(3):
        p = np.array([float(bc.parity(degree, axes, a)) for axes in comps])
        odd = np.flatnonzero(p < 0)
        p = p.reshape(-1, 1, 1, 1)
        p.flags.writeable = odd.flags.writeable = False
        table.append((p, odd))
    return tuple(table)


def _face(axis, idx):
    """Index of one layer (all components) along a spatial axis, over the
    non-ghost range of the two other axes."""
    s = [slice(None)] + [slice(1, -1)] * 3 + [slice(None)]
    s[axis + 1] = idx
    return tuple(s)


# per spatial axis: the layer index tuples of the fill, by position
_FACES = tuple({idx: _face(a, idx) for idx in (0, 1, 2, -3, -2, -1)}
               for a in range(3))


def apply_boundary(omega: KForm, bc: BoundarySpec,
                   out: KForm | None = None) -> KForm:
    """Return a copy of omega with ghosts filled by reflection parities;
    given ``out`` (omega itself for an in-place fill), fill that form
    with omega's values instead and return it.

    Odd components additionally have their face values forced to zero, so
    the fill enforces the face constraints (A_tan = 0 for Dirichlet,
    A_norm = 0 for Neumann, B_norm = 0 for Marini/Neumann) exactly.  The
    fill is idempotent: interior nodes are never modified.
    """
    if out is None:
        out = omega.copy()
    elif out is not omega:
        np.copyto(out.values, omega.values)
    v = out.values
    table = _parities(bc, omega.degree)
    # zero every odd-parity face first so the mirror pass below never
    # copies a stale pre-constraint face value into an edge ghost
    for faces, (_, odd) in zip(_FACES, table):
        if odd.size:
            for idx in (1, -2):
                v[(odd,) + faces[idx][1:]] = 0.0
    # the mirror reads only non-ghost nodes, so its order is free
    for faces, (par, _) in zip(_FACES, table):
        for ghost, src in ((0, 2), (-1, -3)):
            np.multiply(par, v[faces[src]], out=v[faces[ghost]])
    out.bc = bc
    return out
