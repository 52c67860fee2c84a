"""Abelian sanity run: the gauge flow reduces to the vector heat equation.

For a divergence-free U(1) cosine mode the nonlinear terms vanish and the
flow is exactly the heat semigroup acting mode by mode.  On the grid the
mode decays at the *discrete* dispersion rate, so the integrator can be
compared against a closed-form solution down to round-off.
"""

import math

import numpy as np

from ymheat.fields import coulomb_cosine
from ymheat.flow import FlowConfig, integrate
from ymheat.grid import GridSpec, NEUMANN, apply_boundary

grid = GridSpec((1.0, 1.0, 1.0), (16, 16, 16))
h = min(grid.spacing)
A0 = apply_boundary(coulomb_cosine(grid), NEUMANN)

# discrete dispersion of the composed first-difference Laplacian for the
# (pi, pi, 0) mode: lambda = 2 (sin(pi h)/h)^2
lam = 2.0 * (math.sin(math.pi * h) / h) ** 2
print(f"grid {grid.shape}, spacing {h:.4f}, discrete rate {lam:.6f} "
      f"(continuum {2 * math.pi ** 2:.6f})")

t_end = 0.01
traj = integrate(A0, FlowConfig(NEUMANN, 5e-4, t_end))
exact = math.exp(-lam * t_end) * A0
err = (traj.final - exact).norm("L2") / exact.norm("L2")
print(f"t = {t_end}: rel L2 error vs spectral solution = {err:.3e}")

# halving dt shows the fourth-order convergence of the time stepper
errs = []
for dt in (5e-4, 2.5e-4):
    t = integrate(A0, FlowConfig(NEUMANN, dt, 0.005))
    ex = math.exp(-lam * 0.005) * A0
    errs.append((t.final - ex).norm("L2"))
print(f"dt-halving errors {errs[0]:.3e} -> {errs[1]:.3e}, "
      f"observed order {math.log2(errs[0] / errs[1]):.2f}")

m = traj.monitors
print(f"||B||_2 monotone: {bool(np.all(np.diff(m.B_l2) <= 0))}, "
      f"action {m.action[-1]:.4e} <= ||B_0||_2^2 = {m.B_l2[0] ** 2:.4e}")
