"""Frozen discretization-error constants for inequality margins.

Every pointwise inequality that holds exactly in the continuum is
verified on the grid with slack C * (h^2 + dt^2), matching the formal
order of the spatial stencils and the RK4-in-time trapezoidal Duhamel
sums.  The constants below were calibrated once on abelian runs (where
the flow has an independent spectral solution) at 12^3 and 16^3: the
observed worst constants were ~0.63 for heat-kernel domination of B and
below 0.05 for the diamagnetic comparison, both stable under
refinement.  C_DISC carries a ~6x safety factor and is frozen; no test
or command-line check loosens it per run.
"""

from __future__ import annotations

__all__ = ["C_DISC", "margin_tol"]

# slack constant for pointwise inequalities: tol = C_DISC * (h^2 + dt^2)
C_DISC = 4.0


def margin_tol(h: float, dt: float) -> float:
    """Slack for a pointwise inequality margin at spacing h, step dt."""
    return C_DISC * (h * h + dt * dt)

