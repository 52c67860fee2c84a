import concurrent.futures
import json
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from ymheat import calculus, cli, flow, grid as grid_module
from ymheat.fields import coulomb_cosine, random_smooth
from ymheat.flow import FlowConfig, dt_ceiling, integrate
from ymheat.grid import NEUMANN, GridSpec, apply_boundary
from ymheat import neumann
from ymheat.neumann import (
    DominationStream,
    NeumannSemigroup,
    diamagnetic_check,
    domination_check,
    omega_record,
)
from ymheat.tolerances import margin_tol

from paper_checks import DIRICHLET, MARINI, compose_lemma_check

KINDS = ("B", "A'")

# the 10^3 verify-domination config of the command-level tests
CLI_CFG = {
    "grid": {"extents": [1, 1, 1], "shape": [10, 10, 10]},
    "field": {"kind": "random-smooth", "seed": 31, "amplitude": 0.05},
    "flow": {"dt": 0.0008, "t_end": 0.0032,
             "snapshot_times": [0.0, 0.0008, 0.0016, 0.0024, 0.0032]},
}


@pytest.fixture(scope="module")
def grid():
    return GridSpec((1.0, 1.0, 1.0), (16, 16, 16))


@pytest.fixture(scope="module")
def sg(grid):
    return NeumannSemigroup(grid)


def _config(grid, t_end=0.01, n_snap=6):
    dt = min(grid.spacing) ** 2 / 8 * 0.9
    snaps = tuple(np.linspace(0.0, t_end, n_snap))
    return FlowConfig(NEUMANN, dt, t_end, snapshot_times=snaps), dt


def _stream(sg, A0, cfg, kinds=KINDS):
    """Flow A0 with a DominationStream as its snapshot hook.  Returns the
    trajectory, each kind's domination_check, and the omega_record the
    stream took at each snapshot (kept here; the stream drops them)."""
    records = []
    record = neumann.omega_record

    def keep(*args):
        records.append(record(*args))
        return records[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neumann, "omega_record", keep)
        with DominationStream(sg, kinds) as stream:
            traj = integrate(A0, cfg, on_snapshot=stream)
            checks = {kind: domination_check(traj, omega_kind=kind)
                      for kind in kinds}
    return traj, checks, records


def test_domination_abelian_B(grid, sg):
    cfg, dt = _config(grid)
    _, checks, _ = _stream(sg, coulomb_cosine(grid, amplitude=0.3), cfg,
                           kinds=("B",))
    res = checks["B"]
    tol = margin_tol(min(grid.spacing), dt)
    assert res["min_margin"] >= -tol
    assert len(res["per_time_margin"]) == len(res["times"])


def test_domination_su2_both_kinds(grid, sg, su2_alg):
    A0 = random_smooth(grid, su2_alg, seed=31, amplitude=0.05)
    cfg, dt = _config(grid)
    _, checks, _ = _stream(sg, A0, cfg)
    tol = margin_tol(min(grid.spacing), dt)
    for kind in KINDS:
        assert checks[kind]["min_margin"] >= -tol, kind


def _domination_by_heat_apply(sg, times, records, omega_kind):
    """The per-pair algorithm: every term transforms its field afresh."""
    ts = np.asarray(times)
    omegas = [r[omega_kind][0] for r in records]
    sources = [r[omega_kind][1] for r in records]
    margins = []
    for i in range(1, len(ts)):
        t = ts[i]
        bound = sg.heat_apply(t - ts[0], omegas[0])
        evals = [sg.heat_apply(t - s, g)
                 for s, g in zip(ts[: i + 1], sources[: i + 1])]
        for j in range(i):
            bound += 0.5 * (ts[j + 1] - ts[j]) * (evals[j] + evals[j + 1])
        margins.append(float(np.min(bound - omegas[i])))
    return margins


def _serial_replay(sg, times, records, omega_kind):
    """The stream's arithmetic on this thread, after the flow: each field
    transformed once, each target's bound by ``_add_duhamel``."""
    ts = np.asarray(times)
    omega0 = sg.spectrum(records[0][omega_kind][0])
    spectra = [sg.spectrum(r[omega_kind][1]) for r in records]
    margins = []
    for i in range(1, len(ts)):
        bound = sg.evolve(ts[i] - ts[0], omega0)
        neumann._add_duhamel(sg, bound, ts, spectra, 0, i)
        bound -= records[i][omega_kind][0]
        margins.append(float(np.min(bound)))
    return margins


def _case(sg, A0, cfg):
    traj, checks, records = _stream(sg, A0, cfg)
    return SimpleNamespace(sg=sg, A0=A0, cfg=cfg, traj=traj, checks=checks,
                           records=records)


def _small_su2_flow(su2_alg):
    small = GridSpec((1.0, 1.0, 1.0), (10, 10, 10))
    A0 = random_smooth(small, su2_alg, seed=37, amplitude=0.3)
    cfg, _ = _config(small, t_end=0.004, n_snap=5)
    return NeumannSemigroup(small), A0, cfg


@pytest.fixture(scope="module")
def small_su2_traj(su2_alg):
    return _case(*_small_su2_flow(su2_alg))


@pytest.fixture(scope="module")
def nonuniform_u1_traj(u1_alg):
    small = GridSpec((1.0, 1.0, 1.0), (10, 10, 10))
    A0 = random_smooth(small, u1_alg, seed=38, amplitude=0.3)
    dt = min(small.spacing) ** 2 / 8 * 0.9
    cfg = FlowConfig(NEUMANN, dt, 0.004,
                     snapshot_times=(0.0, 0.0007, 0.001, 0.0025, 0.004))
    return _case(NeumannSemigroup(small), A0, cfg)


@pytest.mark.parametrize("kind", KINDS)
def test_domination_equals_per_pair_heat_apply(small_su2_traj, kind):
    c = small_su2_traj
    res = c.checks[kind]
    margins = _domination_by_heat_apply(c.sg, c.traj.times, c.records, kind)
    assert res["per_time_margin"] == margins
    assert res["min_margin"] == min(margins)


@pytest.mark.parametrize("case", ["small_su2_traj", "nonuniform_u1_traj"])
def test_streamed_margins_equal_a_serial_replay(request, case):
    c = request.getfixturevalue(case)
    for kind in KINDS:
        assert c.checks[kind]["per_time_margin"] == \
            _serial_replay(c.sg, c.traj.times, c.records, kind)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", ["small_su2_traj", "nonuniform_u1_traj"])
def test_domination_same_bits_on_one_thread_or_two(request, monkeypatch,
                                                   case, kind):
    c = request.getfixturevalue(case)
    pool = concurrent.futures.ThreadPoolExecutor
    widths = []

    def one_worker(max_workers):
        widths.append(max_workers)
        return pool(max_workers=1)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", one_worker)
    _, one, _ = _stream(c.sg, c.A0, c.cfg)
    assert widths == [2]
    assert one[kind] == c.checks[kind]
    assert c.checks[kind]["per_time_margin"] == \
        _domination_by_heat_apply(c.sg, c.traj.times, c.records, kind)


def test_domination_same_bits_under_thread_stress(small_su2_traj,
                                                  monkeypatch):
    # more workers than cores, switching threads as often as they can
    c = small_su2_traj
    pool = concurrent.futures.ThreadPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda max_workers: pool(max_workers=8))
    stressed = []
    runner = threading.Thread(
        target=lambda: stressed.append(_stream(c.sg, c.A0, c.cfg)[1]))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert stressed == [c.checks]


def _omega_series_by_refill(traj, omega_kind):
    """|omega| and |h| of one kind from stored snapshots: each stored A is
    refilled and its curvature or its whole RHS recomputed."""
    bc = traj.config.bc
    rhs = flow._rhs_for(traj.config.variant)
    omegas, sources = [], []
    for A in traj.fields:
        Af = apply_boundary(A, bc)
        if omega_kind == "B":
            w = apply_boundary(calculus.curvature(Af), bc)
            h = calculus.weitzenbock_defect(Af, w)
        else:
            Ap, B = rhs(Af, bc)
            w = apply_boundary(Ap, bc)
            h = calculus.weitzenbock_defect(Af, w) + \
                calculus.contraction_bracket(w, B)
        omegas.append(w.pointwise_norm())
        sources.append(h.pointwise_norm())
    return omegas, sources


@pytest.mark.parametrize("variant", ["YM", "ZDS"])
@pytest.mark.parametrize("algebra", ["U1", "SU2"])
def test_omega_record_equals_refilled_snapshots(variant, algebra, u1_alg,
                                                su2_alg):
    small = GridSpec((1.0, 1.0, 1.0), (8, 9, 10))
    alg = u1_alg if algebra == "U1" else su2_alg
    A0 = random_smooth(small, alg, seed=39, amplitude=0.3)
    dt = min(small.spacing) ** 2 / 8 * 0.9
    cfg = FlowConfig(NEUMANN, dt, 0.003, variant=variant,
                     snapshot_times=(0.0, 0.001, 0.0025, 0.003))
    stored = integrate(A0, cfg)
    recorded = integrate(A0, cfg, on_snapshot=lambda t, A, Ap, B:
                         omega_record(A, Ap, B))
    assert recorded.times == stored.times
    for kind in KINDS:
        omegas, sources = _omega_series_by_refill(stored, kind)
        for rec, w, h in zip(recorded.fields, omegas, sources, strict=True):
            assert np.array_equal(rec[kind][0], w)
            assert np.array_equal(rec[kind][1], h)


def test_omega_record_rejects_unknown_kind(su2_alg):
    small = GridSpec((1.0, 1.0, 1.0), (8, 8, 8))
    A = apply_boundary(random_smooth(small, su2_alg, seed=1), NEUMANN)
    Ap, B = flow.ym_rhs(A, NEUMANN)
    with pytest.raises(ValueError):
        omega_record(A, Ap, B, kinds=("B", "F"))


def test_domination_check_leaves_the_records_alone(small_su2_traj,
                                                   monkeypatch):
    c = small_su2_traj
    copies = []
    record = neumann.omega_record

    def copied(*args):
        rec = record(*args)
        copies.append({k: (w.copy(), h.copy()) for k, (w, h) in rec.items()})
        return rec

    monkeypatch.setattr(neumann, "omega_record", copied)
    traj, checks, records = _stream(c.sg, c.A0, c.cfg)
    assert checks == c.checks
    for kind in KINDS:
        assert domination_check(traj, omega_kind=kind) == checks[kind]
    for rec, old in zip(records, copies, strict=True):
        assert rec.keys() == old.keys()
        for k in rec:
            assert np.array_equal(rec[k][0], old[k][0])
            assert np.array_equal(rec[k][1], old[k][1])


def _write_cli_cfg(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CLI_CFG))
    return path


def test_verify_domination_computes_curvature_only_in_the_flow(
        tmp_path, monkeypatch):
    cfg = {
        "grid": {"extents": [1, 1, 1], "shape": [10, 10, 10]},
        "field": {"kind": "random-smooth", "seed": 31, "amplitude": 0.05},
        "flow": {"dt": 0.0008, "t_end": 0.0032,
                 "snapshot_times": [0.0, 0.0016, 0.0032]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    count = [0]
    curvature = calculus.curvature

    def counted(*args, **kwargs):
        count[0] += 1
        return curvature(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("ymheat") and hasattr(mod, "curvature"):
            monkeypatch.setattr(mod, "curvature", counted)
    assert cli.main(["verify-domination", "--config", str(path),
                     "--out", str(tmp_path / "o")]) in (0, 1)
    lines = (tmp_path / "o" / "monitors.csv").read_text().splitlines()
    accepted = len(lines) - 2  # a header and the t = 0 row
    assert accepted == 4
    assert count[0] == 1 + 4 * accepted


@pytest.fixture()
def dct_counts(monkeypatch):
    # the transforms of the domination stream run on two threads
    counts = {"forward": 0, "inverse": 0}
    lock = threading.Lock()

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            with lock:
                counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(neumann, "dctn", counted(neumann.dctn, "forward"))
    monkeypatch.setattr(neumann, "idctn", counted(neumann.idctn, "inverse"))
    return counts


@pytest.mark.parametrize("n_snap", [2, 5])
def test_domination_transforms_each_snapshot_once(su2_alg, dct_counts,
                                                  n_snap):
    sg, A0, cfg = _small_su2_flow(su2_alg)
    times = cfg.snapshot_times[:n_snap]
    cfg = FlowConfig(NEUMANN, cfg.dt, times[-1], snapshot_times=times)
    _stream(sg, A0, cfg, kinds=("A'",))
    assert dct_counts == {"forward": n_snap + 1,
                          "inverse": (n_snap - 1) * (n_snap + 4) // 2}


def test_compose_lemma_evaluates_each_duhamel_term_once(sg, dct_counts):
    times = np.linspace(0.0, 0.08, 9)  # m = 8 steps
    u = [np.ones(sg.grid.shape)] * len(times)
    g = [np.full(sg.grid.shape, 0.1)] * len(times)
    compose_lemma_check(sg, times, u, g, [0, 3, 5, 8])  # n = 3 subintervals
    # g: m + 1 spectra; u and the composed bound: one heat_apply each per
    # subinterval; the Duhamel terms: m + n evolutions in all
    assert dct_counts == {"forward": 9 + 2 * 3, "inverse": 8 + 3 * 3}


def _add_duhamel_by_list(sg, out, times, g_spectra, i0, i1):
    """The trapezoid with every sample held at once."""
    evals = [sg.evolve(times[i1] - times[j], g_spectra[j])
             for j in range(i0, i1 + 1)]
    for j in range(i0, i1):
        out += 0.5 * (times[j + 1] - times[j]) * (
            evals[j - i0] + evals[j + 1 - i0])


def test_compose_lemma_same_bits_as_listed_trapezoid(sg, monkeypatch):
    rng = np.random.default_rng(41)
    times = np.array([0.0, 0.004, 0.01, 0.011, 0.03, 0.05, 0.08])
    u = [np.abs(rng.standard_normal(sg.grid.shape)) + 1.0 for _ in times]
    g = [np.abs(rng.standard_normal(sg.grid.shape)) for _ in times]
    partition = [0, 1, 4, 6]
    streamed = compose_lemma_check(sg, times, u, g, partition, tol=10.0)
    spans = []

    def listed(sg, out, times, g_spectra, i0, i1):
        spans.append((i0, i1))
        _add_duhamel_by_list(sg, out, times, g_spectra, i0, i1)

    monkeypatch.setattr(neumann, "_add_duhamel", listed)
    result = compose_lemma_check(sg, times, u, g, partition, tol=10.0)
    # the patch is reached: one listed trapezoid per subinterval
    assert spans == list(zip(partition, partition[1:]))
    assert result == streamed


def test_traced_boundaries_stay_on_the_main_thread(tmp_path, monkeypatch):
    # every binding the benchmark's tracer wraps, as it wraps them, run
    # through the command: the fills and defects of the records run in
    # the flow's snapshot hook while the pool works on earlier bounds
    calls = {}

    def on_main_only(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            assert threading.current_thread() is threading.main_thread(), name
            return fn(*args, **kwargs)
        return wrapper

    for name in ("apply_boundary", "curvature", "weitzenbock_defect"):
        for mod in (grid_module, calculus, flow, neumann, cli):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name,
                                    on_main_only(name, getattr(mod, name)))
    monkeypatch.setattr(NeumannSemigroup, "heat_apply", on_main_only(
        "heat_apply", NeumannSemigroup.heat_apply))
    before = threading.active_count()
    assert cli.main(["verify-domination", "--config",
                     str(_write_cli_cfg(tmp_path)),
                     "--out", str(tmp_path / "o")]) in (0, 1)
    assert threading.active_count() == before
    assert set(calls) == {"apply_boundary", "curvature",
                          "weitzenbock_defect"}


def _fail_fifth_inverse(monkeypatch):
    lock = threading.Lock()
    count = [0]
    idctn = neumann.idctn

    def failing(*args, **kwargs):
        with lock:
            count[0] += 1
            fifth = count[0] == 5
        if fifth:
            raise RuntimeError("inverse DCT failed")
        return idctn(*args, **kwargs)

    monkeypatch.setattr(neumann, "idctn", failing)


def test_failing_transform_raises_without_hanging(small_su2_traj,
                                                  monkeypatch):
    c = small_su2_traj
    _fail_fifth_inverse(monkeypatch)
    before = threading.active_count()
    raised = []

    def call():
        try:
            _stream(c.sg, c.A0, c.cfg, kinds=("B",))
        except RuntimeError as e:
            raised.append(e)

    runner = threading.Thread(target=call)
    runner.start()
    runner.join(timeout=120)
    assert not runner.is_alive()
    assert [str(e) for e in raised] == ["inverse DCT failed"]
    assert threading.active_count() == before


def test_failing_transform_exits_3(tmp_path, monkeypatch, capsys):
    cfg = {
        "grid": {"extents": [1, 1, 1], "shape": [10, 10, 10]},
        "field": {"kind": "random-smooth", "seed": 31, "amplitude": 0.05},
        "flow": {"dt": 0.0008, "t_end": 0.0032,
                 "snapshot_times": [0.0, 0.0008, 0.0016, 0.0024, 0.0032]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    _fail_fifth_inverse(monkeypatch)
    assert cli.main(["verify-domination", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "numerical abort: inverse DCT failed" in err
    assert "Traceback" not in err


def test_flow_abort_cancels_the_queued_bounds(tmp_path, monkeypatch, capsys):
    """A flow that turns NaN after its third snapshot exits 3 without
    running the bounds still queued, and leaves no worker behind."""
    path = _write_cli_cfg(tmp_path)
    snapshots = [0]
    record = neumann.omega_record

    def counted(*args):
        snapshots[0] += 1
        return record(*args)

    rhs = flow.ym_rhs

    def nan_after_third(*args):
        Ap, B = rhs(*args)
        if snapshots[0] >= 3:
            Ap.values[...] = np.nan
        return Ap, B

    # the two workers are held in their first transforms until the stream
    # shuts its pool down, so every other task is still queued then
    release = threading.Event()
    transforms = {"forward": 0, "inverse": 0}
    lock = threading.Lock()
    dctn, idctn = neumann.dctn, neumann.idctn

    def held(*args, **kwargs):
        with lock:
            transforms["forward"] += 1
        release.wait(timeout=60)
        return dctn(*args, **kwargs)

    def inverse(*args, **kwargs):
        with lock:
            transforms["inverse"] += 1
        return idctn(*args, **kwargs)

    pool = concurrent.futures.ThreadPoolExecutor

    class Releasing(pool):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            release.set()
            super().shutdown(wait=wait)

    monkeypatch.setattr(neumann, "omega_record", counted)
    monkeypatch.setattr(flow, "ym_rhs", nan_after_third)
    monkeypatch.setattr(neumann, "dctn", held)
    monkeypatch.setattr(neumann, "idctn", inverse)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Releasing)
    before = threading.active_count()
    status = []
    runner = threading.Thread(target=lambda: status.append(cli.main(
        ["verify-domination", "--config", str(path),
         "--out", str(tmp_path / "o")])))
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive()
    assert status == [3]
    err = capsys.readouterr().err
    assert "numerical abort: non-finite field values" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "report.json").exists()
    assert snapshots == [3]
    # 8 transforms and 14 inverse DCTs were queued by the third snapshot
    assert transforms == {"forward": 2, "inverse": 0}
    assert threading.active_count() == before


def test_domination_rejects_single_snapshot(grid, sg):
    cfg, _ = _config(grid, n_snap=1)
    with DominationStream(sg, ("B",)) as stream:
        traj = integrate(coulomb_cosine(grid, amplitude=0.3), cfg,
                         on_snapshot=stream)
        with pytest.raises(ValueError):
            domination_check(traj, omega_kind="B")


def test_domination_unknown_kind(grid, sg):
    cfg, _ = _config(grid)
    with DominationStream(sg) as stream:
        traj = integrate(coulomb_cosine(grid, amplitude=0.3), cfg,
                         on_snapshot=stream)
        with pytest.raises(ValueError):
            domination_check(traj, omega_kind="F")


def test_diamagnetic_abelian_equality(grid, sg, u1_alg):
    # zero connection: the covariant evolution of a nonnegative scalar
    # multiple reproduces the scalar heat flow, so the margin is tiny
    from ymheat.grid import KForm

    A = apply_boundary(KForm(1, grid, u1_alg), NEUMANN)
    w0 = random_smooth(grid, u1_alg, seed=32, degree=2, amplitude=0.3)
    w0.values[...] = np.abs(w0.values)
    w0 = apply_boundary(w0, NEUMANN)
    res = diamagnetic_check(sg, A, w0, 0.005)
    assert res["min_margin"] >= -margin_tol(min(grid.spacing),
                                            dt_ceiling(grid))


@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
def test_diamagnetic_su2(grid, sg, su2_alg, bc):
    A = apply_boundary(
        random_smooth(grid, su2_alg, seed=33, amplitude=0.2), bc
    )
    w0 = apply_boundary(
        random_smooth(grid, su2_alg, seed=34, degree=2, amplitude=0.3), bc
    )
    res = diamagnetic_check(sg, A, w0, 0.01)
    assert res["min_margin"] >= -margin_tol(min(grid.spacing),
                                            dt_ceiling(grid))


def test_diamagnetic_rejects_marini(grid, sg, su2_alg):
    A = apply_boundary(
        random_smooth(grid, su2_alg, seed=35, amplitude=0.2), MARINI
    )
    w0 = apply_boundary(
        random_smooth(grid, su2_alg, seed=36, degree=2, amplitude=0.3),
        MARINI,
    )
    with pytest.raises(ValueError):
        diamagnetic_check(sg, A, w0, 0.01)
