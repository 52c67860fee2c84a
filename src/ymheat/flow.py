"""Time integration of the Yang-Mills heat flow and its monitor bounds.

The dynamical equation is A'(t) = -d_A* B with B = dA + (1/2)[A^A];
the ZDS variant adds the gauge-fixing term -d_A d*A, which makes the
abelian linearization fully parabolic.  Integration is classical RK4
with a parabolic step ceiling dt <= h^2/8, an energy-increase rejection
rule standing in for the gradient-flow property, and monitor series
(norms of B and A', the accumulated action, the exponent psi_inf and
the smoothing functional beta) recorded at every accepted step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import (
    bochner_laplacian,
    contraction_bracket,
    curvature,
    d_cov,
    dstar_cov,
    weitzenbock_defect,
)
from .grid import BoundarySpec, KForm, apply_boundary
from .report import check_row

__all__ = [
    "FlowConfig",
    "MonitorSeries",
    "FlowTrajectory",
    "FlowConstants",
    "FlowInstabilityError",
    "FlowAbortError",
    "dt_ceiling",
    "check_dt",
    "ym_rhs",
    "zds_rhs",
    "integrate",
    "verify_identities",
    "verify_bounds",
]

ENERGY_SLACK = 1e-12  # relative increase of ||B||_2 tolerated per step
DT_FLOOR = 1e-12
TIME_TOL = 1e-14  # times closer than this count as reached


def dt_ceiling(grid) -> float:
    """The parabolic step ceiling h^2/8 of the RK4 schemes, h the
    smallest grid spacing."""
    h = min(grid.spacing)
    return h * h / 8


def check_dt(dt: float, grid) -> None:
    """Raise ValueError when dt exceeds dt_ceiling(grid) by more than
    round-off (1e-12 relative)."""
    ceiling = dt_ceiling(grid)
    if dt > ceiling * (1 + 1e-12):
        raise ValueError(
            f"dt = {dt:g} exceeds the stability ceiling h^2/8 = {ceiling:g}"
        )


class FlowInstabilityError(RuntimeError):
    """Raised when step halving drives dt below the underflow floor."""


class FlowAbortError(RuntimeError):
    """Raised on NaN detection; carries the offending step index."""

    def __init__(self, step: int, t: float):
        super().__init__(f"non-finite field values at step {step}, t = {t:.6g}")
        self.step = step
        self.t = t


@dataclass
class FlowConfig:
    """Integration parameters for one flow run."""

    bc: BoundarySpec
    dt: float
    t_end: float
    variant: str = "YM"
    snapshot_times: tuple = ()

    def validate(self, grid):
        if self.variant not in ("YM", "ZDS"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "ZDS" and self.bc.kind == "marini":
            raise ValueError("ZDS variant is offered for Neumann/Dirichlet only")
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        check_dt(self.dt, grid)
        if any(t < 0 or t > self.t_end + TIME_TOL
               for t in self.snapshot_times):
            raise ValueError("snapshot times must lie in [0, t_end]")

    def snapshot_schedule(self) -> list:
        """The distinct snapshot times `integrate` records, in order; a
        time within TIME_TOL past t_end is recorded at t_end."""
        return sorted(set(min(float(s), self.t_end)
                          for s in self.snapshot_times))


class MonitorSeries:
    """Per-step scalar diagnostics of a flow run.

    Arrays (after ``finalize``): t, B_l2, B_linf, Ap_l2, Ap_linf, Bp_l2,
    action (running trapezoid of ||A'||_2^2), psi_inf (running trapezoid
    of 2c||B(s)||_inf), beta (running max of s^{3/4}||B(s)||_inf).
    """

    FIELDS = ("t", "B_l2", "B_linf", "Ap_l2", "Ap_linf", "Bp_l2",
              "action", "psi_inf", "beta")

    def __init__(self, commutator_constant: float):
        self.c = commutator_constant
        for name in self.FIELDS:
            setattr(self, name, [])

    def record(self, t, B_l2, B_linf, Ap_l2, Ap_linf, Bp_l2):
        if self.t:
            dt = t - self.t[-1]
            action = self.action[-1] + 0.5 * dt * (Ap_l2 ** 2 + self.Ap_l2[-1] ** 2)
            psi = self.psi_inf[-1] + 0.5 * dt * 2 * self.c * (B_linf + self.B_linf[-1])
            beta = max(self.beta[-1], t ** 0.75 * B_linf)
        else:
            action = 0.0
            psi = 0.0
            beta = t ** 0.75 * B_linf
        vals = (t, B_l2, B_linf, Ap_l2, Ap_linf, Bp_l2, action, psi, beta)
        for name, v in zip(self.FIELDS, vals):
            getattr(self, name).append(float(v))
        if not all(math.isfinite(v) for v in vals):
            raise FlowAbortError(len(self.t) - 1, t)

    def finalize(self):
        for name in self.FIELDS:
            setattr(self, name, np.asarray(getattr(self, name)))
        return self

    def __len__(self):
        return len(self.t)


@dataclass
class FlowTrajectory:
    """Snapshots along the flow plus the monitor series."""

    times: list
    fields: list  # integrate's on_snapshot values; by default the filled A
    monitors: MonitorSeries
    config: FlowConfig
    final: KForm | None = None  # the filled A at t_end

    def __post_init__(self):
        if any(t2 <= t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise ValueError("snapshot times must be strictly increasing")


@dataclass
class FlowConstants:
    """The constants governing the t^{-3/4} smoothing bounds."""

    c_N: float
    a4: float
    tau: float = 0.5

    def __post_init__(self):
        if not 0 < self.tau <= 0.5:
            raise ValueError("tau must lie in (0, 1/2]")
        self.a = 1.0 / (2.0 * self.c_N * self.a4)
        self.gamma = (
            self.c_N
            + 4.0 * self.c_N ** 2 * self.a * math.exp(8.0 * self.c_N * self.a) * self.a4
        )


def ym_rhs(A: KForm, bc: BoundarySpec) -> tuple[KForm, KForm]:
    """Negative magnetic-energy gradient at A: returns (A', B), with
    A' = -d_A* B and B the ghost-filled curvature it was computed from."""
    Af = apply_boundary(A, bc)
    B = apply_boundary(curvature(Af), bc)
    Ap = dstar_cov(Af, B)
    np.negative(Ap.values, out=Ap.values)
    return Ap, B


def zds_rhs(C: KForm, bc: BoundarySpec) -> tuple[KForm, KForm]:
    """Gauge-fixed flow direction: returns (C', B_C), with
    C' = -(d_C* B_C + d_C d*C) and B_C ghost-filled."""
    Cf = apply_boundary(C, bc)
    B = apply_boundary(curvature(Cf), bc)
    zero_conn = KForm(1, C.grid, C.algebra, bc=bc)
    div = apply_boundary(dstar_cov(zero_conn, Cf), bc)
    return -1.0 * (dstar_cov(Cf, B) + d_cov(Cf, div)), B


def _rhs_for(variant):
    return ym_rhs if variant == "YM" else zds_rhs


def integrate(A0: KForm, cfg: FlowConfig, on_snapshot=None) -> FlowTrajectory:
    """Run the flow from A0 to cfg.t_end, storing snapshots and monitors.

    RK4 stages are boundary-filled before each derivative evaluation; a
    step that increases ||B||_2 by more than 1e-12 relative (YM variant)
    is rejected and retried at half the step size.  The (A', B) of the end
    state feeds the energy test, the monitors and the next step's first
    stage, so a step costs 4 curvature evaluations (plus 1 at t = 0).
    The L2 and Linf norms of B come from one pointwise norm, taken for
    the energy test and carried into the monitors and the next test.
    Each snapshot stores ``on_snapshot(A, Ap, B)``, by default A.copy():
    the filled state, its unfilled direction and its filled curvature feed
    the next step, so the hook (run on this thread) must not modify them.
    ``final`` is the filled A at t_end itself, not a copy: RK stages are new
    arrays and k1 is left untouched, so no passed state is written into.
    """
    cfg.validate(A0.grid)
    on_snapshot = on_snapshot or (lambda A, Ap, B: A.copy())
    rhs = _rhs_for(cfg.variant)
    bc = cfg.bc

    A = apply_boundary(A0, bc)
    snap_queue = cfg.snapshot_schedule()
    times, fields = [], []
    monitors = MonitorSeries(A.algebra.c)

    t = 0.0
    dt = float(cfg.dt)
    step = 0
    k1, B = rhs(A, bc)
    B_norms = B.l2_linf()
    while True:
        _record(monitors, t, A, k1, B_norms, bc)
        if snap_queue and t >= snap_queue[0] - TIME_TOL:
            times.append(t)
            fields.append(on_snapshot(A, k1, B))
            snap_queue.pop(0)
        # a snapshot within TIME_TOL of the last one still gets its own step
        if t >= cfg.t_end - TIME_TOL and not snap_queue:
            break
        target = cfg.t_end
        if snap_queue:
            target = min(target, snap_queue[0])
        dt_step = min(dt, target - t)
        while True:
            A_new = _rk4_step(A, dt_step, lambda X, b: rhs(X, b)[0], bc,
                              step, t, k1)
            k1_new, B_new = rhs(A_new, bc)
            B_norms_new = B_new.l2_linf()
            if (cfg.variant == "YM"
                    and B_norms_new[0] > B_norms[0] * (1.0 + ENERGY_SLACK)):
                dt = dt / 2.0
                if dt < DT_FLOOR:
                    raise FlowInstabilityError(
                        f"dt underflow at t = {t:.6g} (step {step})"
                    )
                dt_step = min(dt, target - t)
                continue
            break
        A, k1, B, B_norms = A_new, k1_new, B_new, B_norms_new
        t += dt_step
        step += 1

    return FlowTrajectory(times, fields, monitors.finalize(), cfg, A)


def _axpy(A, s, k):
    """A + s * k in one new array, with the bits of the KForm expression."""
    v = k.values * s
    v += A.values
    return A._like(v)


def _rk4_step(A, dt, rhs, bc, step, t, k1=None):
    """One classical RK4 step; A + (dt/6)(k1 + 2 k2 + 2 k3 + k4) is summed
    in that order, in place in the stage arrays (k1 is left untouched)."""
    if k1 is None:
        k1 = rhs(A, bc)
    k2 = rhs(_axpy(A, 0.5 * dt, k1), bc)
    k3 = rhs(_axpy(A, 0.5 * dt, k2), bc)
    k4 = rhs(_axpy(A, dt, k3), bc)
    total = k2.values  # becomes k1 + 2 k2 + 2 k3 + k4
    total *= 2.0
    total += k1.values
    k3.values *= 2.0
    total += k3.values
    total += k4.values
    A_new = apply_boundary(_axpy(A, dt / 6.0, k2), bc)
    if not np.all(np.isfinite(A_new.values)):
        raise FlowAbortError(step, t)
    return A_new


def _record(monitors, t, A, Ap, B_norms, bc):
    """Append the monitors of the filled state A with flow direction Ap and
    curvature norms B_norms = (L2, Linf)."""
    Apf = apply_boundary(Ap, bc)
    Bp = d_cov(A, Apf)  # dB/dt = d_A A'
    monitors.record(t, *B_norms, *Apf.l2_linf(), Bp.norm("L2"))


# ---------------------------------------------------------------------------
# Verification of the differential identities and the smoothing bounds
# ---------------------------------------------------------------------------


def verify_identities(traj: FlowTrajectory) -> dict:
    """Residuals of the evolution identities for B and A' along a trajectory.

    Central-difference time derivatives from >= 3 uniformly spaced
    snapshots are compared against the Bochner form of the right sides:
    dB/dt = sum_j (grad_j^A)^2 B + (curvature defect of B), and
    dA'/dt = sum_j (grad_j^A)^2 A' + defect(A') + [A' . B].
    Returns the max pointwise residual for each identity.
    """
    ts = traj.times
    if len(ts) < 3:
        raise ValueError("need at least 3 snapshots")
    gaps = np.diff(ts)
    if np.max(np.abs(gaps - gaps[0])) > 1e-10 * gaps[0]:
        raise ValueError("snapshots are not uniformly spaced")
    dt = gaps[0]
    bc = traj.config.bc
    rhs = _rhs_for(traj.config.variant)
    # (filled A, filled A', B) of each stored A, from one RHS call each
    states = []
    for f in traj.fields:
        Ap, B = rhs(f, bc)
        states.append((apply_boundary(f, bc), apply_boundary(Ap, bc), B))

    res_B = res_Ap = 0.0
    for (_, Ap0, B0), (A, Ap, B), (_, Ap2, B2) in zip(states, states[1:],
                                                     states[2:]):
        Bdot = (1.0 / (2 * dt)) * (B2 - B0)
        rhs_B = bochner_laplacian(A, B) + weitzenbock_defect(A, B)
        res_B = max(res_B, (Bdot - rhs_B).max_interior_norm(1))

        Apdot = (1.0 / (2 * dt)) * (Ap2 - Ap0)
        rhs_Ap = (
            bochner_laplacian(A, Ap)
            + weitzenbock_defect(A, Ap)
            + contraction_bracket(Ap, B)
        )
        res_Ap = max(res_Ap, (Apdot - rhs_Ap).max_interior_norm(1))

    return {"B_identity_residual": res_B, "Ap_identity_residual": res_Ap}


def verify_bounds(traj: FlowTrajectory, k: FlowConstants, tol: float) -> list:
    """Check the smoothing/energy inequalities along the monitor series.

    The small-data gate (2 tau)^{1/4} c ||B_0||_2 <= a is judged first,
    with no slack; when it fails, the t^{-3/4} bounds are not applicable.
    Returns the `report` check rows; each inequality is judged within slack
    `tol` at its worst time (lhs, rhs with the least margin rhs - lhs).
    """
    m = traj.monitors
    if len(m) == 0:
        raise ValueError("missing monitors")
    c = m.c
    t = m.t
    B0_l2 = m.B_l2[0]
    Ap0_l2 = m.Ap_l2[0]
    tau = k.tau
    rows = [check_row("small_data_gate", (2 * tau) ** 0.25 * c * B0_l2, k.a,
                      0.0)]
    gate_ok = rows[0]["verdict"] == "pass"

    def row(name, lhs, rhs, applicable=True):
        rows.append(check_row(name, lhs, rhs, tol, applicable))

    def worst(mask, lhs_arr, rhs_arr):
        """(lhs, rhs) at the index of worst margin within mask."""
        idx = np.nonzero(mask)[0]
        if idx.size == 0:
            return 0.0, 0.0
        margins = rhs_arr[idx] - lhs_arr[idx]
        j = idx[np.argmin(margins)]
        return lhs_arr[j], rhs_arr[j]

    R = 2 * k.c_N * B0_l2
    pos = t > 0
    with np.errstate(divide="ignore"):
        lhs1 = np.where(pos, t, 1.0) ** 0.75 * m.B_linf
    row("B_linf_early", *worst(pos & (t <= 2 * tau), lhs1, np.full_like(t, R)),
        applicable=gate_ok)
    row("B_linf_late", *worst(t >= tau, m.B_linf,
                              np.full_like(t, R * tau ** -0.75)),
        applicable=gate_ok)
    lhs3 = np.where(pos, t, 1.0) ** 0.75 * m.Ap_linf
    row("Ap_linf_early",
        *worst(pos & (t <= 2 * tau), lhs3, np.full_like(t, k.gamma * Ap0_l2)),
        applicable=gate_ok)
    row("Ap_linf_late",
        *worst(t >= 2 * tau, tau ** 1.25 * m.Ap_linf,
               np.full_like(t, k.gamma * B0_l2)),
        applicable=gate_ok)

    # energy-dissipation inequality with the psi_inf weight
    decay = np.exp(-m.psi_inf) * m.Bp_l2 ** 2
    prefix = np.concatenate(
        [[0.0], np.cumsum(0.5 * np.diff(t) * (decay[1:] + decay[:-1]))]
    )
    lhs_e = m.Ap_l2 ** 2 + 2.0 * np.exp(m.psi_inf) * prefix
    rhs_e = np.exp(m.psi_inf) * Ap0_l2 ** 2
    row("energy_dissipation", *worst(np.ones_like(t, bool), lhs_e, rhs_e))

    # its exponential corollary, valid under the early B bound
    lhs_g = m.Ap_l2
    rhs_g = np.exp(8 * k.c_N * c * B0_l2 * t ** 0.25) * Ap0_l2
    row("Ap_l2_growth", *worst((t <= 2 * tau) & (t <= 1.0), lhs_g, rhs_g),
        applicable=gate_ok)

    row("action_bound", m.action[-1], B0_l2 ** 2 * (1 + 1e-3))
    return rows
