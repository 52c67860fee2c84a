import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from ymheat.algebra import LieAlgebraSpec, su2, u1
from ymheat.fields import coulomb_cosine, random_smooth
from ymheat.flow import (
    TIME_TOL,
    FlowAbortError,
    FlowConfig,
    FlowConstants,
    MonitorSeries,
    integrate,
    verify_bounds,
    ym_rhs,
    zds_rhs,
)
from ymheat.grid import NEUMANN, GridSpec, KForm, apply_boundary
from ymheat.neumann import NeumannSemigroup, a4_constant
from ymheat.tolerances import margin_tol

from paper_checks import (
    DIRICHLET,
    MARINI,
    max_interior_norm,
    verify_identities,
)

SU2_BOUNDS = (Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
              / "su2-bounds.json")


def _dt_max(grid):
    h = min(grid.spacing)
    return h * h / 8


def test_config_rejects_large_dt(unit_grid):
    cfg = FlowConfig(NEUMANN, dt=1e-2, t_end=0.1)
    with pytest.raises(ValueError, match="ceiling"):
        cfg.validate(unit_grid)


def test_config_rejects_zds_marini(unit_grid):
    cfg = FlowConfig(MARINI, dt=1e-4, t_end=0.1, variant="ZDS")
    with pytest.raises(ValueError):
        cfg.validate(unit_grid)


def test_config_rejects_bad_snapshot_times(unit_grid):
    cfg = FlowConfig(NEUMANN, dt=1e-4, t_end=0.01, snapshot_times=(0.5,))
    with pytest.raises(ValueError, match="snapshot"):
        cfg.validate(unit_grid)


def test_abelian_flow_matches_spectral_solution(unit_grid):
    A0 = coulomb_cosine(unit_grid)
    dt = _dt_max(unit_grid) * 0.9
    traj = integrate(
        A0, FlowConfig(NEUMANN, dt, 0.01, snapshot_times=(0.01,))
    )
    h = unit_grid.spacing[0]
    lam = 2.0 * (math.sin(math.pi * h) / h) ** 2
    exact = math.exp(-lam * 0.01) * apply_boundary(A0, NEUMANN)
    err = (traj.fields[-1] + (-1.0) * exact).norm("L2") / exact.norm("L2")
    assert err < 1e-8


def test_rk4_time_order_at_least_3_5(unit_grid):
    A0 = coulomb_cosine(unit_grid)
    h = unit_grid.spacing[0]
    lam = 2.0 * (math.sin(math.pi * h) / h) ** 2
    exact = math.exp(-lam * 0.01) * apply_boundary(A0, NEUMANN)
    errs = []
    for dt in (5e-4, 2.5e-4):
        traj = integrate(
            A0, FlowConfig(NEUMANN, dt, 0.01, snapshot_times=(0.01,))
        )
        errs.append(
            (traj.fields[-1] + (-1.0) * exact).norm("L2") / exact.norm("L2")
        )
    order = math.log2(errs[0] / errs[1])
    assert order >= 3.5


@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET, MARINI])
def test_curvature_energy_nonincreasing(unit_grid, su2_alg, bc):
    A0 = random_smooth(unit_grid, su2_alg, seed=21, amplitude=0.1)
    dt = _dt_max(unit_grid) * 0.9
    traj = integrate(A0, FlowConfig(bc, dt, 0.005))
    B = traj.monitors.B_l2
    assert np.all(B[1:] <= B[:-1] * (1 + 1e-12))


def test_action_bounded_by_initial_energy(unit_grid, su2_alg):
    A0 = random_smooth(unit_grid, su2_alg, seed=22, amplitude=0.1)
    dt = _dt_max(unit_grid) * 0.9
    traj = integrate(A0, FlowConfig(NEUMANN, dt, 0.02))
    m = traj.monitors
    assert m.action[-1] <= m.B_l2[0] ** 2 * (1 + 1e-3)


def test_monitor_series_fields(unit_grid, su2_alg):
    A0 = random_smooth(unit_grid, su2_alg, seed=23, amplitude=0.05)
    dt = _dt_max(unit_grid) * 0.9
    traj = integrate(A0, FlowConfig(NEUMANN, dt, 0.002))
    m = traj.monitors
    for name in m.FIELDS:
        arr = getattr(m, name)
        assert len(arr) == len(m.t)
        assert np.all(np.isfinite(arr))
    assert np.all(np.diff(m.t) > 0)
    assert np.all(np.diff(m.action) >= 0)
    assert np.all(np.diff(m.psi_inf) >= 0)
    assert np.all(np.diff(m.beta) >= 0)


def test_snapshot_times_are_hit_exactly(unit_grid, su2_alg):
    A0 = random_smooth(unit_grid, su2_alg, seed=24, amplitude=0.05)
    dt = _dt_max(unit_grid) * 0.9
    snaps = (0.0, 0.001, 0.0025, 0.004)
    traj = integrate(A0, FlowConfig(NEUMANN, dt, 0.004,
                                    snapshot_times=snaps))
    assert np.allclose(traj.times, snaps, atol=1e-12)


@pytest.mark.parametrize("snaps", [
    (0.0, 0.004 - 0.5 * TIME_TOL, 0.004),
    (0.0, 0.002, 0.004 + 0.5 * TIME_TOL),
])
def test_every_validated_snapshot_time_is_recorded(coarse_grid, su2_alg,
                                                   snaps):
    A0 = random_smooth(coarse_grid, su2_alg, seed=24, amplitude=0.05)
    cfg = FlowConfig(NEUMANN, _dt_max(coarse_grid) * 0.9, 0.004,
                     snapshot_times=snaps)
    cfg.validate(coarse_grid)
    traj = integrate(A0, cfg)
    assert traj.times == cfg.snapshot_schedule()
    assert len(traj.times) == 3 and traj.times[-1] == 0.004


@pytest.mark.parametrize("algebra", [su2, u1], ids=["SU2", "U1"])
def test_final_is_the_state_at_t_end(coarse_grid, algebra):
    A0 = random_smooth(coarse_grid, algebra(), seed=24, amplitude=0.05)
    dt = _dt_max(coarse_grid) * 0.9
    snapped = integrate(A0, FlowConfig(NEUMANN, dt, 0.004,
                                       snapshot_times=(0.0, 0.004)))
    assert np.array_equal(snapped.final.values, snapped.fields[-1].values)
    bare = integrate(A0, FlowConfig(NEUMANN, dt, 0.004))
    assert bare.times == [] and bare.final.bc == NEUMANN
    assert np.array_equal(bare.final.values, snapped.final.values)


@pytest.mark.parametrize("algebra", [su2, u1], ids=["SU2", "U1"])
def test_flow_keeps_the_edge_ghosts_of_its_initial_state(algebra):
    """A fill writes no edge or corner ghost and every operator leaves its
    ghosts zero, so after 400 steps those ghosts of the state are still
    the random ones of the filled initial state."""
    grid = GridSpec((1.0, 1.0, 1.0), (8, 8, 8))
    A0 = random_smooth(grid, algebra(), seed=5, amplitude=0.3)
    axes = np.indices(grid.padded_shape)
    on_ghost = sum((i == 0) | (i == n + 1) for i, n in zip(axes, grid.shape))
    noise = np.random.default_rng(6).standard_normal(A0.values.shape)
    A0.values[:, on_ghost > 0] = noise[:, on_ghost > 0]
    dt = _dt_max(grid)
    traj = integrate(A0, FlowConfig(NEUMANN, dt, 400 * dt))
    assert len(traj.monitors) == 401
    edges = on_ghost > 1
    assert np.array_equal(traj.final.values[:, edges],
                          apply_boundary(A0, NEUMANN).values[:, edges])


def test_default_snapshot_at_t_end_is_final(coarse_grid, su2_alg):
    # the next step would overwrite the flow's state, so the default hook
    # stores a copy: the snapshot at t_end holds final's values in a form
    # of its own
    A0 = random_smooth(coarse_grid, su2_alg, seed=24, amplitude=0.05)
    traj = integrate(A0, FlowConfig(NEUMANN, _dt_max(coarse_grid) * 0.9, 0.004,
                                    snapshot_times=(0.0, 0.004)))
    assert traj.fields[-1] is not traj.final
    assert np.array_equal(traj.fields[-1].values, traj.final.values)
    assert traj.fields[-1].bc == traj.final.bc == NEUMANN


@pytest.mark.parametrize("variant", ["YM", "ZDS"])
def test_integrate_never_writes_its_initial_data(coarse_grid, su2_alg,
                                                 variant):
    """The flow's state is a filled copy of A0: A0's values, ghosts
    included, and its bc are as before the run, and a second run from the
    same A0 gives the same end state and monitors, as the abelian demo
    assumes when it flows one A0 three times."""
    A0 = random_smooth(coarse_grid, su2_alg, seed=24, amplitude=0.05)
    A0.values[:, 0] = 0.5  # ghosts that a fill would rewrite
    values = A0.values.copy()
    cfg = FlowConfig(NEUMANN, 0.9 * _dt_max(coarse_grid), 0.004,
                     variant=variant)
    first, second = integrate(A0, cfg), integrate(A0, cfg)
    assert np.array_equal(A0.values, values)
    assert A0.bc is None
    assert np.array_equal(first.final.values, second.final.values)
    for name in MonitorSeries.FIELDS:
        assert np.array_equal(getattr(first.monitors, name),
                              getattr(second.monitors, name))


@pytest.mark.parametrize("variant, rhs", [("YM", ym_rhs), ("ZDS", zds_rhs)])
def test_snapshot_hook_gets_the_filled_state(coarse_grid, su2_alg, variant,
                                             rhs):
    A0 = random_smooth(coarse_grid, su2_alg, seed=24, amplitude=0.05)
    cfg = FlowConfig(NEUMANN, _dt_max(coarse_grid) * 0.9, 0.004,
                     variant=variant, snapshot_times=(0.0, 0.002, 0.004))
    seen = []

    def hook(t, A, Ap, B):
        assert A.bc == Ap.bc == B.bc == cfg.bc
        Ap_ref, B_ref = rhs(A, cfg.bc)
        assert np.array_equal(Ap.values,
                              apply_boundary(Ap_ref, cfg.bc).values)
        assert np.array_equal(B.values, B_ref.values)
        seen.append(t)

    # the hook is told the time that integrate records for its snapshot
    assert integrate(A0, cfg, on_snapshot=hook).times == seen
    assert len(seen) == 3


def test_config_rejects_snapshot_time_past_tolerance(unit_grid):
    cfg = FlowConfig(NEUMANN, dt=1e-4, t_end=0.004,
                     snapshot_times=(0.0, 0.002, 0.004 + 50 * TIME_TOL))
    with pytest.raises(ValueError, match="snapshot"):
        cfg.validate(unit_grid)


def test_nan_initial_data_aborts(unit_grid, su2_alg):
    A0 = random_smooth(unit_grid, su2_alg, seed=25, amplitude=0.05)
    A0.values[1, 5, 5, 5, 0] = np.nan
    dt = _dt_max(unit_grid) * 0.9
    with pytest.raises(FlowAbortError) as exc:
        integrate(A0, FlowConfig(NEUMANN, dt, 0.01))
    assert exc.value.step == 0


def test_zds_and_ym_agree_in_coulomb_gauge(unit_grid):
    # the gauge-fixing term d(d*A) vanishes on discretely divergence-free
    # data, so both right sides coincide there
    A0 = apply_boundary(coulomb_cosine(unit_grid), NEUMANN)
    r1 = ym_rhs(A0, NEUMANN)[0]
    r2 = zds_rhs(A0, NEUMANN)[0]
    assert max_interior_norm(r1 + (-1.0) * r2, 1) < 1e-11


def _ym_zds_gap(alg, n, t=0.01):
    """max ||B_YM| - |B_ZDS|| / max |B_YM| at time t over the nodes of an
    n^3 unit box, from one random field; dt is the step ceiling rounded
    down to land on t."""
    from ymheat.calculus import curvature

    grid = GridSpec((1.0, 1.0, 1.0), (n, n, n))
    dt = t / math.ceil(t / _dt_max(grid))
    A0 = random_smooth(grid, alg, seed=0, amplitude=0.3)
    B_ym, B_zds = (
        curvature(integrate(A0, FlowConfig(NEUMANN, dt, t, variant=v)).final)
        .pointwise_norm() for v in ("YM", "ZDS"))
    return float(np.max(np.abs(B_ym - B_zds)) / np.max(B_ym))


def _plain_gauge_term_rhs(C, bc, out=None):
    """zds_rhs with the plain d in place of d_C in the gauge term."""
    from ymheat.calculus import curvature, d_cov, dstar_cov

    Cp, B = out or (None, None)
    Cf = apply_boundary(C, bc, out=C if out else None)
    B = apply_boundary(curvature(Cf, out=B), bc, out=B)
    zero_conn = KForm(1, C.grid, C.algebra, bc=bc)
    div = apply_boundary(dstar_cov(zero_conn, Cf), bc)
    Cp = dstar_cov(Cf, B, out=Cp)
    Cp.values += d_cov(zero_conn, div).values
    np.negative(Cp.values, out=Cp.values)
    return Cp, B


def test_gauge_fixed_flow_has_the_curvature_norm_of_the_plain_one(
        monkeypatch, su2_alg, u1_alg):
    """ZDS flows a gauge transform of the YM solution, so |B| agrees
    pointwise.  For U(1) the central differences commute and the gap is
    round-off; for SU(2) it is stencil error, O(h^2) (measured 4.35e-4 at
    10^3 and 2.22e-4 at 14^3, a factor 1.96 where h^2 gives 2.09)."""
    from ymheat import flow

    eps = np.finfo(float).eps
    assert _ym_zds_gap(u1_alg, 10) <= 10 * eps
    assert _ym_zds_gap(u1_alg, 14) <= 10 * eps
    assert _ym_zds_gap(su2_alg, 10) >= 1.7 * _ym_zds_gap(su2_alg, 14)
    # control: with a gauge term that is not covariant the gap does not
    # shrink with h
    # (measured 2.77e-3 and 2.38e-3, a factor 1.17)
    monkeypatch.setattr(flow, "zds_rhs", _plain_gauge_term_rhs)
    assert _ym_zds_gap(su2_alg, 10) < 1.7 * _ym_zds_gap(su2_alg, 14)


def test_integrate_evaluates_curvature_once_per_stage(monkeypatch, su2_alg):
    # 1 curvature at t = 0, then stages 2-4 and the end state of each step
    import ymheat.flow

    grid = GridSpec((1.0, 1.0, 1.0), (10, 10, 10))
    calls = []
    real = ymheat.flow.curvature

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ymheat.flow, "curvature", counting)
    A0 = random_smooth(grid, su2_alg, seed=29, amplitude=0.05)
    dt = 0.9 * _dt_max(grid)
    traj = integrate(A0, FlowConfig(NEUMANN, dt, 5 * dt))
    assert len(traj.monitors) - 1 == 5
    assert len(calls) == 1 + 4 * 5


def test_integrate_steps_build_only_the_forms_they_hand_on(monkeypatch,
                                                          coarse_grid,
                                                          su2_alg):
    """After the first step, a step constructs no padded form: the end
    state, its direction and curvature, the RK4 stages and B' of the
    monitors all live in the working set the flow allocates once."""
    padded = (3,) + coarse_grid.padded_shape + (su2_alg.dim,)
    built = [0]
    init = KForm.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built[0] += self.values.shape == padded

    monkeypatch.setattr(KForm, "__init__", counting)
    A0 = random_smooth(coarse_grid, su2_alg, seed=24, amplitude=0.05)
    dt = 0.9 * _dt_max(coarse_grid)
    seen = []
    integrate(A0, FlowConfig(NEUMANN, dt, 6 * dt,
                             snapshot_times=tuple(np.arange(7) * dt)),
              on_snapshot=lambda t, A, Ap, B: seen.append(built[0]))
    assert len(seen) == 7
    assert np.diff(seen[1:]).tolist() == [0] * 5


@pytest.mark.parametrize("variant, per_step", [("YM", [0, 0]),
                                               ("ZDS", [4, 4])],
                         ids=["YM", "ZDS"])
def test_gauge_term_builds_no_zero_connection(monkeypatch, coarse_grid,
                                              su2_alg, variant, per_step):
    """Padded (3-component, 1-component) forms a step constructs after the
    first.  YM builds none; ZDS builds d_C(d*C) and the divergence d*C at
    each of the four stages: d*C is taken with no zero connection and
    filled in place."""
    shapes = {n: (n,) + coarse_grid.padded_shape + (su2_alg.dim,)
              for n in (3, 1)}
    built = {3: 0, 1: 0}
    init = KForm.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for n, shape in shapes.items():
            built[n] += self.values.shape == shape

    monkeypatch.setattr(KForm, "__init__", counting)
    A0 = random_smooth(coarse_grid, su2_alg, seed=24, amplitude=0.05)
    dt = 0.9 * _dt_max(coarse_grid)
    seen = []
    integrate(A0, FlowConfig(NEUMANN, dt, 6 * dt, variant=variant,
                             snapshot_times=tuple(np.arange(7) * dt)),
              on_snapshot=lambda t, A, Ap, B: seen.append(
                  (built[3], built[1])))
    assert len(seen) == 7
    assert np.diff(seen[1:], axis=0).tolist() == [per_step] * 5


def _kept_unchanged(kept):
    return all(np.array_equal(f.values, v) for f, v in kept)


@pytest.mark.parametrize("variant", ["YM", "ZDS"])
def test_hook_keeps_what_it_is_handed(coarse_grid, su2_alg, variant):
    """The A, A' and B handed to the snapshot hook are the flow's working
    set: A alternates between two buffers, A' and B are one form each.
    The next step overwrites A' and B, the one after it A, so a hook that
    keeps them sees them change, while the default hook's copies keep the
    values A had at their time."""
    A0 = random_smooth(coarse_grid, su2_alg, seed=24, amplitude=0.05)
    dt = 0.9 * _dt_max(coarse_grid)
    cfg = FlowConfig(NEUMANN, dt, 4 * dt, variant=variant,
                     snapshot_times=tuple(np.arange(5) * dt))
    kept = []

    def keep(t, A, Ap, B):
        kept.append([(f, f.values.copy()) for f in (A, Ap, B)])

    integrate(A0, cfg, on_snapshot=keep)
    assert len(kept) == 5
    assert len({id(f) for snap in kept for f, _ in snap}) == 4
    assert not any(_kept_unchanged([pair]) for snap in kept[:3]
                   for pair in snap)
    assert _kept_unchanged(kept[4])
    fields = integrate(A0, cfg).fields
    assert all(np.array_equal(F.values, snap[0][1])
               for F, snap in zip(fields, kept, strict=True))


def test_diamagnetic_steps_keep_what_they_are_handed(monkeypatch, coarse_grid,
                                                     su2_alg):
    """diamagnetic_check's RK4 steps leave the state they are handed
    untouched, spend the direction k1 they are handed (it holds k4, the
    last stage's direction, on return), and write the end state into the
    stage state they are handed, which the next step is taken from: the
    state alternates between two buffers, and k1 is one buffer of the
    check's own."""
    from ymheat import neumann

    step, calls = neumann._rk4_step, []

    def keep(A, dt, rhs, k1, stages, *args):
        handed, last = [(A, A.values.copy())], []

        def seen(Y, k):
            out = rhs(Y, k)
            last[:] = [k, k.values.copy()]
            return out

        A_new = step(A, dt, seen, k1, stages, *args)
        assert A_new is stages[0]
        assert _kept_unchanged(handed)
        assert last[0] is k1 and _kept_unchanged([last])
        calls.append((A, k1, A_new))
        return A_new

    monkeypatch.setattr(neumann, "_rk4_step", keep)
    A = apply_boundary(random_smooth(coarse_grid, su2_alg, seed=33,
                                     amplitude=0.2), NEUMANN)
    w0 = apply_boundary(random_smooth(coarse_grid, su2_alg, seed=34,
                                      degree=2, amplitude=0.3), NEUMANN)
    neumann.diamagnetic_check(NeumannSemigroup(coarse_grid), A, w0,
                              4 * 0.9 * _dt_max(coarse_grid))
    assert len(calls) == 4
    assert all(prev[2] is nxt[0] for prev, nxt in zip(calls, calls[1:]))
    assert len({id(A) for A, _, _ in calls}) == 2
    assert len({id(k1) for _, k1, _ in calls}) == 1


def _buffers(forms):
    """How many data buffers the forms' values live in."""
    seen = []
    for f in forms:
        if not any(np.shares_memory(f.values, v) for v in seen):
            seen.append(f.values)
    return len(seen)


def _flow_buffers(monkeypatch, coarse_grid, su2_alg, variant,
                  stage_curvature=False):
    """The buffers of every form `integrate`'s rhs writes (its state and
    its (A', B) pair), `_record` writes (B') and its snapshot hook
    receives, over 4 steps.  With ``stage_curvature`` the rhs writes each
    stage's curvature into a buffer of its own, as a flow with a separate
    stage curvature does; the end state's (A', B) are unchanged by that."""
    import ymheat.flow

    name = "ym_rhs" if variant == "YM" else "zds_rhs"
    rhs, record, written = getattr(ymheat.flow, name), ymheat.flow._record, []
    calls, own_B = [], []

    def writing(A, bc, out):
        k, B = out
        # call 0 is the initial state's, then 3 stages and an end state
        if stage_curvature and len(calls) % 4:
            if not own_B:
                own_B.append(B.copy())
            B = own_B[0]
        calls.append(1)
        written.extend([A, k, B])
        return rhs(A, bc, (k, B))

    def recording(monitors, t, A, Ap, B, bc, Bp):
        written.append(Bp)
        return record(monitors, t, A, Ap, B, bc, Bp)

    monkeypatch.setattr(ymheat.flow, name, writing)
    monkeypatch.setattr(ymheat.flow, "_record", recording)
    A0 = random_smooth(coarse_grid, su2_alg, seed=24, amplitude=0.05)
    dt = 0.9 * _dt_max(coarse_grid)
    traj = integrate(A0, FlowConfig(NEUMANN, dt, 4 * dt, variant=variant,
                                    snapshot_times=tuple(np.arange(5) * dt)),
                     on_snapshot=lambda t, A, Ap, B: written.extend(
                         [A, Ap, B]))
    assert len(traj.monitors) == 5
    return _buffers(written), traj.final.values


@pytest.mark.parametrize("variant", ["YM", "ZDS"])
def test_flow_runs_in_five_forms(monkeypatch, coarse_grid, su2_alg, variant):
    """The state, the stage state, k1, k2 (the running total, and B'
    between steps) and B: every stage's curvature is written into B.
    Control: a stage curvature of its own makes six buffers and leaves
    the end state's bits."""
    count, final = _flow_buffers(monkeypatch, coarse_grid, su2_alg, variant)
    assert count == 5
    monkeypatch.undo()
    count, control = _flow_buffers(monkeypatch, coarse_grid, su2_alg,
                                   variant, stage_curvature=True)
    assert count == 6
    assert np.array_equal(control, final)


def test_diamagnetic_check_runs_in_four_forms(monkeypatch, coarse_grid,
                                              su2_alg):
    """Every 2-form its Bochner heat flow fills or writes is the state,
    the stage state, k1 or k2."""
    from ymheat import neumann

    laplacian, written = neumann.bochner_laplacian, []

    def writing(A, omega, out):
        written.extend([omega, out])
        return laplacian(A, omega, out=out)

    monkeypatch.setattr(neumann, "bochner_laplacian", writing)
    A = apply_boundary(random_smooth(coarse_grid, su2_alg, seed=33,
                                     amplitude=0.2), NEUMANN)
    w0 = apply_boundary(random_smooth(coarse_grid, su2_alg, seed=34,
                                      degree=2, amplitude=0.3), NEUMANN)
    neumann.diamagnetic_check(NeumannSemigroup(coarse_grid), A, w0,
                              4 * 0.9 * _dt_max(coarse_grid))
    assert len(written) == 2 * 4 * 4
    assert _buffers(written) == 4


def test_integrate_lets_go_of_its_initial_data(coarse_grid, su2_alg):
    """`integrate` drops A0 after its first fill, so an A0 the caller
    does not keep is freed before the first snapshot; control: one the
    caller keeps is alive there."""
    cfg = FlowConfig(NEUMANN, 0.9 * _dt_max(coarse_grid), 0.002,
                     snapshot_times=(0.0,))
    refs, alive = [], []

    def initial():
        A0 = random_smooth(coarse_grid, su2_alg, seed=24, amplitude=0.05)
        refs.append(weakref.ref(A0.values))
        return A0

    def hook(t, A, Ap, B):
        alive.append(refs[-1]() is not None)

    integrate(initial(), cfg, on_snapshot=hook)
    A0 = initial()
    integrate(A0, cfg, on_snapshot=hook)
    assert alive == [False, True]


def test_identities_hold_along_flow(unit_grid, su2_alg):
    A0 = random_smooth(unit_grid, su2_alg, seed=26, amplitude=0.1,
                       n_modes=2)
    # snapshots late in the flow with tight spacing: early high-mode
    # transients otherwise dominate the central time difference
    dt = 1e-4
    snaps = tuple(0.008 + np.arange(5) * 2 * dt)
    traj = integrate(A0, FlowConfig(NEUMANN, dt, snaps[-1],
                                    snapshot_times=snaps))
    res = verify_identities(traj)
    # empirical 16^3 values are 6.5e-3 and 6.3e-2; pinned with 2x headroom
    assert res["B_identity_residual"] < 0.02
    assert res["Ap_identity_residual"] < 0.15


def _identity_residuals_by_recompute(traj):
    """The identity residuals with every neighbour's curvature and RHS
    recomputed at each interior snapshot."""
    from ymheat import calculus, flow

    ts, bc = traj.times, traj.config.bc
    dt = np.diff(ts)[0]
    rhs = flow._rhs_for(traj.config.variant)
    res_B = res_Ap = 0.0
    for i in range(1, len(ts) - 1):
        A = apply_boundary(traj.fields[i], bc)
        Bs = [apply_boundary(calculus.curvature(
            apply_boundary(traj.fields[j], bc)), bc)
              for j in (i - 1, i, i + 1)]
        Bdot = (1.0 / (2 * dt)) * (Bs[2] - Bs[0])
        rhs_B = calculus.bochner_laplacian(A, Bs[1]) + \
            calculus.weitzenbock_defect(A, Bs[1])
        res_B = max(res_B, max_interior_norm(Bdot - rhs_B, 1))
        Aps = [apply_boundary(rhs(traj.fields[j], bc)[0], bc)
               for j in (i - 1, i, i + 1)]
        Apdot = (1.0 / (2 * dt)) * (Aps[2] - Aps[0])
        rhs_Ap = (calculus.bochner_laplacian(A, Aps[1])
                  + calculus.weitzenbock_defect(A, Aps[1])
                  + calculus.contraction_bracket(Aps[1], Bs[1]))
        res_Ap = max(res_Ap, max_interior_norm(Apdot - rhs_Ap, 1))
    return {"B_identity_residual": res_B, "Ap_identity_residual": res_Ap}


@pytest.mark.parametrize("algebra, variant, bc", [
    ("SU2", "YM", NEUMANN), ("SU2", "ZDS", DIRICHLET), ("U1", "YM", NEUMANN),
])
def test_identities_same_bits_as_recomputed_neighbours(algebra, variant, bc,
                                                       su2_alg, u1_alg):
    grid = GridSpec((1.0, 1.0, 1.0), (9, 10, 8))
    alg = su2_alg if algebra == "SU2" else u1_alg
    A0 = random_smooth(grid, alg, seed=28, amplitude=0.2)
    dt = 0.9 * _dt_max(grid)
    snaps = tuple(np.arange(4) * dt)
    traj = integrate(A0, FlowConfig(bc, dt, snaps[-1], variant=variant,
                                    snapshot_times=snaps))
    assert verify_identities(traj) == _identity_residuals_by_recompute(traj)


def test_verify_bounds_rows_and_gate(unit_grid, su2_alg):
    A0 = random_smooth(unit_grid, su2_alg, seed=27, amplitude=0.05)
    dt = _dt_max(unit_grid) * 0.9
    traj = integrate(A0, FlowConfig(NEUMANN, dt, 0.02))
    k = FlowConstants(c_N=1.0000001, a4=7.41630, tau=0.5)
    rows = verify_bounds(traj, k, 1e-3)
    expected = [
        "small_data_gate", "B_linf_early", "B_linf_late", "Ap_linf_early",
        "Ap_linf_late", "energy_dissipation", "Ap_l2_growth", "action_bound",
    ]
    assert [r["name"] for r in rows] == expected
    assert rows[0]["verdict"] == "pass" and rows[0]["tol"] == 0.0
    for r in rows:
        assert {"lhs", "rhs", "margin", "tol", "verdict"} <= set(r)
        assert r["tol"] == (0.0 if r is rows[0] else 1e-3)


def test_verify_bounds_not_applicable_when_gate_fails(unit_grid, su2_alg):
    A0 = random_smooth(unit_grid, su2_alg, seed=28, amplitude=20.0)
    dt = _dt_max(unit_grid) * 0.2
    traj = integrate(A0, FlowConfig(NEUMANN, dt, 3 * dt))
    k = FlowConstants(c_N=1.0000001, a4=7.41630)
    rows = {r["name"]: r for r in verify_bounds(traj, k, 1e-3)}
    assert rows["small_data_gate"]["verdict"] == "fail"
    assert rows["B_linf_early"]["verdict"] == "not-applicable"


def test_verify_bounds_judges_energy_dissipation_within_tol():
    """On the su2-bounds workload the weighted energy inequality misses by
    about 2.3e-4 (a time-step effect), inside margin_tol: the library's
    own verdict is the report's "pass"."""
    cfg = json.loads(SU2_BOUNDS.read_text())
    g, f, fl = cfg["grid"], cfg["field"], cfg["flow"]
    grid = GridSpec(tuple(g["extents"]), tuple(g["shape"]))
    A0 = random_smooth(grid, su2(), seed=f["seed"], amplitude=f["amplitude"])
    traj = integrate(A0, FlowConfig(NEUMANN, fl["dt"], fl["t_end"]))
    sg = NeumannSemigroup(grid, cfg["constants"]["kernel_modes"])
    k = FlowConstants(c_N=sg.c_N_estimate(), a4=a4_constant())
    tol = margin_tol(min(grid.spacing), fl["dt"])
    row = verify_bounds(traj, k, tol)[5]
    assert row["name"] == "energy_dissipation" and row["tol"] == tol
    assert -tol < row["margin"] < -1e-4
    assert row["verdict"] == "pass"


def _five_steps(monkeypatch, alg, owner, attr):
    """Run a 5-step YM flow on 10^3 while counting calls of owner.attr."""
    grid = GridSpec((1.0, 1.0, 1.0), (10, 10, 10))
    calls = []
    real = getattr(owner, attr)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)
    A0 = random_smooth(grid, alg, seed=29, amplitude=0.05)
    dt = 0.9 * _dt_max(grid)
    traj = integrate(A0, FlowConfig(NEUMANN, dt, 5 * dt))
    assert len(traj.monitors) - 1 == 5
    return len(calls)


def test_integrate_takes_one_pointwise_norm_per_field_and_step(monkeypatch,
                                                               su2_alg):
    # B (in the energy test), A' and dB/dt: 3 at t = 0 and per step
    assert _five_steps(monkeypatch, su2_alg, KForm, "pointwise_norm") \
        == 3 + 3 * 5


def test_integrate_builds_trapezoid_weights_once(monkeypatch, su2_alg):
    import ymheat.grid

    assert _five_steps(monkeypatch, su2_alg, ymheat.grid,
                       "_trapezoid_weights") == 1


def test_u1_flow_makes_no_bracket_calls(monkeypatch, u1_alg, su2_alg):
    assert _five_steps(monkeypatch, u1_alg, LieAlgebraSpec, "bracket") == 0
    # control: the same flow on su(2) does call it
    assert _five_steps(monkeypatch, su2_alg, LieAlgebraSpec, "bracket") > 0
