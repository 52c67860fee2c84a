"""SU(2) flow with the full monitor and inequality battery.

Runs a small-amplitude random initial connection under Neumann boundary
conditions, then checks the smoothing bounds (t^{3/4}-weighted sup norms),
the weighted energy-dissipation inequality, and pointwise heat-kernel
domination of |B| and |A'| along the trajectory.
"""

import numpy as np

from ymheat.algebra import su2
from ymheat.fields import random_smooth
from ymheat.flow import FlowConfig, FlowConstants, integrate, verify_bounds
from ymheat.grid import GridSpec, NEUMANN
from ymheat.neumann import (DominationStream, NeumannSemigroup, a4_constant,
                            domination_check)
from ymheat.tolerances import margin_tol

grid = GridSpec((1.0, 1.0, 1.0), (12, 12, 12))
h = min(grid.spacing)
dt = 0.9 * h * h / 8

A0 = random_smooth(grid, su2(), seed=7, amplitude=0.05)
cfg = FlowConfig(NEUMANN, dt, 0.2,
                 snapshot_times=tuple(np.linspace(0.0, 0.05, 11)))
sg = NeumannSemigroup(grid, kernel_modes=256)
# the domination bounds of each snapshot run on two threads during the flow
with DominationStream(sg) as stream:
    traj = integrate(A0, cfg, on_snapshot=stream)
    domination = {kind: domination_check(traj, kind) for kind in ("B", "A'")}
m = traj.monitors
print(f"{len(m)} steps to t = {m.t[-1]:.3f}; "
      f"||B||_2: {m.B_l2[0]:.4e} -> {m.B_l2[-1]:.4e}")

k = FlowConstants(c_N=sg.c_N_estimate(), a4=a4_constant(), tau=0.5)
print(f"constants: c_N = {k.c_N:.9f}, a4 = {k.a4:.6f}, "
      f"a = {k.a:.6f}, gamma = {k.gamma:.4f}")

# margins are judged against the discretization tolerance -C(h^2+dt^2),
# except the small-data gate which is a sharp analytic condition
tol = margin_tol(h, dt)
for row in verify_bounds(traj, k, tol):
    print(f"  {row['name']:24s} lhs {row['lhs']:.4e}  rhs {row['rhs']:.4e}  "
          f"margin {row['margin']:+.3e}  [{row['verdict']}]")
for kind, res in domination.items():
    print(f"domination of |{kind}|: min margin {res['min_margin']:+.3e} "
          f"(tolerance -{tol:.3e})")
