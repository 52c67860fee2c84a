"""End-to-end regularization of a divergent loop observable.

The washer potential is sampled onto a 3-D box (with its near-rim
singularity capped), flowed for a short time under Neumann boundary
conditions, and the flux through a family of loops approaching the rim
is compared before and after the flow: the t = 0 ladder diverges, the
flowed ladder converges.
"""

import numpy as np

from ymheat.flow import FlowConfig, integrate
from ymheat.grid import GridSpec, NEUMANN
from ymheat.transport import line_integral
from ymheat.washer import LoopCEpsilon, WasherConfig, flux_probe, washer_to_grid

grid = GridSpec((4.0, 4.0, 4.0), (16, 16, 16))
origin = np.array([-2.0, -2.0, -2.0])
wc = WasherConfig(n_u=96)

sampled = washer_to_grid(wc, grid, origin, cap_u_max=12.0)
A0 = sampled["field"]
print(f"sampled washer field: {sampled['capped_nodes']} capped nodes, "
      f"sup |A| = {A0.norm('Linf'):.3f}")

t_end = 0.01
traj = integrate(A0, FlowConfig(NEUMANN, 0.002, t_end))
print(f"flowed to t = {t_end}: ||B||_2 {traj.monitors.B_l2[0]:.3f} -> "
      f"{traj.monitors.B_l2[-1]:.3f}")


eps_ladder = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
print(f"{'eps':>8s} {'flux(t=0)':>12s} {'flux(t=0.01)':>14s}")
flux_t = []
for eps in eps_ladder:
    loop = LoopCEpsilon(eps)
    f0 = flux_probe(loop)
    # the same loop C_eps, about the washer centre in box coordinates
    ft = float(line_integral(traj.final, loop.path(-origin))[0])
    flux_t.append(ft)
    print(f"{eps:8.0e} {f0:12.4f} {ft:14.6f}")

gap = abs(flux_t[-1] - flux_t[-2]) / abs(flux_t[-2])
print(f"flowed ladder relative gap at the last rung: {gap:.2e} "
      f"(the t = 0 column keeps growing)")
