"""Initial-data constructors: spectral test modes and seeded random
smooth fields supported away from the box edges."""

from __future__ import annotations

import numpy as np

from .algebra import LieAlgebraSpec, su2, u1
from .grid import COMPONENT_AXES, GridSpec, KForm

__all__ = ["coulomb_cosine", "random_smooth", "edge_bump"]


def _open_mesh(grid: GridSpec):
    """Each axis's ghosted node coordinates, shaped to broadcast along that
    axis: a function of one coordinate is evaluated once per node of its
    axis, and a product over the three spans the padded grid."""
    return np.ix_(*(grid.axis_coords(a, ghosts=True) for a in range(3)))


def coulomb_cosine(grid: GridSpec, amplitude: float = 1.0) -> KForm:
    """Divergence-free abelian 1-form built from a cosine stream function.

    A = (d2 phi, -d1 phi, 0) with phi = sin(pi x1/L1) sin(pi x2/L2): a
    single product mode of the vector heat equation, exactly
    divergence-free (discretely and in the continuum) and compatible
    with the Neumann face constraints.
    """
    alg = u1()
    A = KForm(1, grid, alg)
    X, Y, _ = _open_mesh(grid)
    L1, L2, _ = grid.extents
    k1, k2 = np.pi / L1, np.pi / L2
    A.values[0, ..., 0] = amplitude * k2 * np.sin(k1 * X) * np.cos(k2 * Y)
    A.values[1, ..., 0] = -amplitude * k1 * np.cos(k1 * X) * np.sin(k2 * Y)
    return A


def edge_bump(grid: GridSpec):
    """Separable window prod_i sin(pi x_i / L_i)^3, vanishing at every face."""
    w = 1.0
    for coord, L in zip(_open_mesh(grid), grid.extents):
        w = w * np.sin(np.pi * np.clip(coord, 0.0, L) / L) ** 3
    return w


def random_smooth(grid: GridSpec, algebra: LieAlgebraSpec | None = None,
                  seed: int = 0, amplitude: float = 0.05,
                  degree: int = 1, n_modes: int = 3) -> KForm:
    """Seeded random low-frequency field localized away from the faces.

    A sum of `n_modes` separable trig modes (wavenumbers in [pi/2, 3pi/2))
    per (component, coefficient), windowed by a bump vanishing at the
    boundary so all face constraints hold regardless of boundary kind,
    then rescaled so the pointwise max of |field| equals `amplitude`.
    """
    alg = algebra or su2()
    rng = np.random.default_rng(seed)
    f = KForm(degree, grid, alg)
    X, Y, Z = _open_mesh(grid)
    w = edge_bump(grid)
    ncomp = len(COMPONENT_AXES[degree])
    for ci in range(ncomp):
        for d in range(alg.dim):
            acc = np.zeros(grid.padded_shape)
            for _ in range(n_modes):
                k = rng.uniform(0.5, 1.5, 3) * np.pi
                ph = rng.uniform(0, 2 * np.pi, 3)
                c = rng.standard_normal()
                acc += c * np.cos(k[0] * X + ph[0]) * np.cos(
                    k[1] * Y + ph[1]
                ) * np.cos(k[2] * Z + ph[2])
            f.values[ci, ..., d] = acc * w
    peak = float(np.max(np.sqrt(np.sum(f.values ** 2, axis=(0, -1)))))
    if peak > 0:
        f.values *= amplitude / peak
    return f
