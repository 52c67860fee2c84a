"""The washer field: finite energy, divergent flux.

A radial current profile on the annulus 1/2 <= r <= 1 carrying total
current 1/log 2 produces a magnetic potential with finite field energy,
yet the flux through a loop whose edge touches the rim of the washer
grows like log log(1/eps) as the loop approaches the rim.
"""

import math

import numpy as np

from ymheat.washer import (
    LoopCEpsilon,
    energy,
    flux_probe,
    total_current,
    vector_potential,
)

cur = total_current()
print(f"total current: quadrature {cur['quadrature']:.12f} vs "
      f"1/log2 = {1 / math.log(2):.12f} (diff {cur['difference']:.1e})")

en = energy()
print("energy under doubling cutoffs:")
for u_max, w, gap in zip(en["cutoffs"], en["values"], en["rel_gaps"]):
    print(f"  u_max = {u_max:6.0f}:  W = {w:.8f}  (rel gap {gap:.2e})")
print(f"Cauchy at the final doubling: {en['cauchy']}")

# vector potential: azimuthal, smooth off the washer, divergent at the rim
for eps in (1e-2, 1e-4, 1e-6):
    a = vector_potential(np.array([1.0 + eps, 0.0, 0.0]))
    print(f"|A| at rim distance {eps:.0e}: {np.linalg.norm(a['A']):.4f}")

# the flux ladder: strictly increasing, consistent with a + b loglog(1/eps)
eps_ladder = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
fluxes = [flux_probe(LoopCEpsilon(e)) for e in eps_ladder]
x = np.log(np.log(1.0 / np.asarray(eps_ladder)))
b, a = np.polyfit(x, fluxes, 1)
print("flux through C_eps:")
for e, f in zip(eps_ladder, fluxes):
    print(f"  eps = {e:.0e}:  flux = {f:.6f}")
print(f"loglog fit: flux ~ {a:.4f} + {b:.4f} loglog(1/eps), "
      f"max residual {np.max(np.abs(a + b * x - fluxes)):.2e}")
