"""Time integration of the Yang-Mills heat flow and its monitor bounds.

The dynamical equation is A'(t) = -d_A* B with B = dA + (1/2)[A^A];
the ZDS variant adds the gauge-fixing term -d_A d*A, which makes the
abelian linearization fully parabolic.  Integration is classical RK4
at a fixed step under the parabolic ceiling dt <= h^2/8 with no step
rejection, so an energy increase reaches the monitors; it runs in five
padded forms each run allocates once.  Monitor series (norms of B and A',
the accumulated action, the exponent psi_inf and the smoothing
functional beta) are recorded at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import curvature, d_cov, dstar_cov
from .grid import BoundarySpec, KForm, apply_boundary
from .report import check_row

__all__ = [
    "FlowConfig",
    "MonitorSeries",
    "FlowTrajectory",
    "FlowConstants",
    "FlowAbortError",
    "dt_ceiling",
    "check_dt",
    "ym_rhs",
    "zds_rhs",
    "integrate",
    "verify_bounds",
]

ENERGY_SLACK = 1e-12  # B_l2_nonincreasing's slack: relative rise of ||B||_2
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


def ym_rhs(A: KForm, bc: BoundarySpec, out=None) -> tuple[KForm, KForm]:
    """Negative magnetic-energy gradient at A: returns (A', B), with
    A' = -d_A* B and B the ghost-filled curvature it was computed from.
    Given ``out``, a pair of forms (A', B) that the caller owns, A is
    filled in place and the result is written into that pair."""
    Ap, B = out or (None, None)
    Af = apply_boundary(A, bc, out=A if out else None)
    B = apply_boundary(curvature(Af, out=B), bc, out=B)
    Ap = dstar_cov(Af, B, out=Ap)
    np.negative(Ap.values, out=Ap.values)
    return Ap, B


def zds_rhs(C: KForm, bc: BoundarySpec, out=None) -> tuple[KForm, KForm]:
    """Gauge-fixed flow direction: returns (C', B_C), with
    C' = -(d_C* B_C + d_C d*C) and B_C ghost-filled; ``out`` as for
    ``ym_rhs``."""
    Cp, B = out or (None, None)
    Cf = apply_boundary(C, bc, out=C if out else None)
    B = apply_boundary(curvature(Cf, out=B), bc, out=B)
    div = dstar_cov(None, Cf)  # the plain divergence d*C, filled in place
    apply_boundary(div, bc, out=div)
    Cp = dstar_cov(Cf, B, out=Cp)
    Cp.values += d_cov(Cf, div).values
    np.negative(Cp.values, out=Cp.values)
    return Cp, B


def _rhs_for(variant):
    return ym_rhs if variant == "YM" else zds_rhs


def integrate(A0: KForm, cfg: FlowConfig, on_snapshot=None) -> FlowTrajectory:
    """Run the flow from A0 to cfg.t_end, storing snapshots and monitors.

    Classical RK4 at the fixed step cfg.dt, shortened only to land on a
    snapshot time or t_end; every step is taken.  The (A', B) of the end
    state feeds the monitors and the next step's first stage, so a step
    costs 4 curvature evaluations (plus 1 at t = 0).  The flow runs in
    five padded forms allocated once per call: the state A, the stage
    state, A' (k1), k2 and the curvature B.  A step writes its end state
    into the stage state, swaps the two, spends k1, k2 and B on its stages
    and overwrites A' and B with the end state's; the monitors fill A' in
    place and write B' into k2's buffer.  A0 is never written, nor held
    after the first fill.  Each snapshot stores ``on_snapshot(t, A, Ap,
    B)`` (by default a copy of A) at its time t in ``times``, with the
    filled A, A' and B.  The hook runs on this thread and must not modify
    them; the next step overwrites them, so a hook copies what it keeps.
    ``final`` is the filled A at t_end, the flow's own state buffer.
    """
    cfg.validate(A0.grid)
    on_snapshot = on_snapshot or (lambda t, A, Ap, B: A.copy())
    rhs = _rhs_for(cfg.variant)
    bc = cfg.bc

    A = apply_boundary(A0, bc)
    del A0  # a caller that hands over its last reference frees it here
    snap_queue = cfg.snapshot_schedule()
    times, fields = [], []
    monitors = MonitorSeries(A.algebra.c)
    # the rest of the working set, and B' in k2's buffer, free between steps
    X, k1, k2, B = (KForm(p, A.grid, A.algebra, np.empty_like(A.values))
                    for p in (1, 1, 1, 2))
    Bp = KForm(2, A.grid, A.algebra, k2.values)

    def stage_rhs(Y, k):
        rhs(Y, bc, (k, B))

    t = 0.0
    step = 0
    rhs(A, bc, (k1, B))
    while True:
        _record(monitors, t, A, k1, B, bc, Bp)
        if snap_queue and t >= snap_queue[0] - TIME_TOL:
            times.append(t)
            fields.append(on_snapshot(t, A, k1, B))
            snap_queue.pop(0)
        # a snapshot within TIME_TOL of the last one still gets its own step
        if t >= cfg.t_end - TIME_TOL and not snap_queue:
            break
        target = cfg.t_end
        if snap_queue:
            target = min(target, snap_queue[0])
        dt_step = min(cfg.dt, target - t)
        A, X = _rk4_step(A, dt_step, stage_rhs, k1, (X, k2), bc, step, t), A
        rhs(A, bc, (k1, B))
        t += dt_step
        step += 1

    return FlowTrajectory(times, fields, monitors.finalize(), cfg, A)


def _axpy(A, s, k, out):
    """A + s * k with the bits of the KForm expression, into ``out``."""
    np.multiply(k.values, s, out=out.values)
    out.values += A.values
    return out


def _rk4_step(A, dt, rhs, k1, stages, bc, step, t):
    """One classical RK4 step from the filled state A with direction k1.

    ``rhs(Y, k)`` fills the stage state Y in place and writes its
    direction into k; ``stages = (Y, k2)`` are forms the caller owns.
    A + (dt/6)(((2 k2 + k1) + 2 k3) + k4) is summed in that order in k2's
    buffer, k1 as soon as k2 exists, and k3 and k4 are written into k1's.
    Writes the filled end state into Y and returns Y; A stays untouched.
    """
    Y, k2 = stages
    rhs(_axpy(A, 0.5 * dt, k1, Y), k2)
    _axpy(A, 0.5 * dt, k2, Y)
    total = k2.values  # becomes k1 + 2 k2 + 2 k3 + k4
    total *= 2.0
    total += k1.values
    rhs(Y, k1)  # k3
    _axpy(A, dt, k1, Y)
    k1.values *= 2.0
    total += k1.values
    rhs(Y, k1)  # k4
    total += k1.values
    apply_boundary(_axpy(A, dt / 6.0, k2, Y), bc, out=Y)
    if not np.all(np.isfinite(Y.values)):
        raise FlowAbortError(step, t)
    return Y


def _record(monitors, t, A, Ap, B, bc, Bp):
    """Append the monitors of the filled state A with flow direction Ap and
    filled curvature B, writing B' = d_A A' into Bp, k2's buffer between
    steps.  Ap is filled in place: the fill rewrites only ghosts and
    odd-parity face nodes, which the stage fills and the end-of-step fill
    of `_rk4_step` overwrite, so the step taken from Ap keeps its bits."""
    apply_boundary(Ap, bc, out=Ap)
    d_cov(A, Ap, out=Bp)
    monitors.record(t, *B.l2_linf(), *Ap.l2_linf(), Bp.norm("L2"))


# ---------------------------------------------------------------------------
# Verification of the smoothing bounds
# ---------------------------------------------------------------------------


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
