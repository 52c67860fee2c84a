import numpy as np
import pytest

from ymheat.fields import coulomb_cosine, random_smooth
from ymheat.flow import FlowConfig, FlowTrajectory, integrate
from ymheat.grid import DIRICHLET, NEUMANN, GridSpec, apply_boundary
from ymheat import neumann
from ymheat.neumann import (
    NeumannSemigroup,
    _omega_series,
    compose_lemma_check,
    diamagnetic_check,
    domination_check,
)
from ymheat.tolerances import margin_tol


@pytest.fixture(scope="module")
def grid():
    return GridSpec((1.0, 1.0, 1.0), (16, 16, 16))


@pytest.fixture(scope="module")
def sg(grid):
    return NeumannSemigroup(grid)


def _flow(grid, A0, t_end=0.01, n_snap=6):
    dt = min(grid.spacing) ** 2 / 8 * 0.9
    snaps = tuple(np.linspace(0.0, t_end, n_snap))
    cfg = FlowConfig(NEUMANN, dt, t_end, snapshot_times=snaps)
    return integrate(A0, cfg), dt


def test_domination_abelian_B(grid, sg):
    traj, dt = _flow(grid, coulomb_cosine(grid, amplitude=0.3))
    res = domination_check(sg, traj, omega_kind="B")
    tol = margin_tol(min(grid.spacing), dt)
    assert res["min_margin"] >= -tol
    assert len(res["per_time_margin"]) == len(res["times"])


def test_domination_su2_both_kinds(grid, sg, su2_alg):
    A0 = random_smooth(grid, su2_alg, seed=31, amplitude=0.05)
    traj, dt = _flow(grid, A0)
    tol = margin_tol(min(grid.spacing), dt)
    for kind in ("B", "A'"):
        res = domination_check(sg, traj, omega_kind=kind)
        assert res["min_margin"] >= -tol, kind


def _domination_by_heat_apply(sg, traj, omega_kind):
    """The per-pair algorithm: every term transforms its field afresh."""
    ts = np.asarray(traj.times)
    omegas, sources = _omega_series(traj, omega_kind)
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


@pytest.fixture(scope="module")
def small_su2_traj(su2_alg):
    small = GridSpec((1.0, 1.0, 1.0), (10, 10, 10))
    A0 = random_smooth(small, su2_alg, seed=37, amplitude=0.3)
    traj, _ = _flow(small, A0, t_end=0.004, n_snap=5)
    return NeumannSemigroup(small), traj


@pytest.mark.parametrize("kind", ["B", "A'"])
def test_domination_equals_per_pair_heat_apply(small_su2_traj, kind):
    sg, traj = small_su2_traj
    res = domination_check(sg, traj, omega_kind=kind)
    margins = _domination_by_heat_apply(sg, traj, kind)
    assert res["per_time_margin"] == margins
    assert res["min_margin"] == min(margins)


@pytest.fixture()
def dct_counts(monkeypatch):
    counts = {"forward": 0, "inverse": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(neumann, "dctn", counted(neumann.dctn, "forward"))
    monkeypatch.setattr(neumann, "idctn", counted(neumann.idctn, "inverse"))
    return counts


@pytest.mark.parametrize("n_snap", [2, 5])
def test_domination_transforms_each_snapshot_once(small_su2_traj, dct_counts,
                                                  n_snap):
    sg, traj = small_su2_traj
    traj = FlowTrajectory(traj.times[:n_snap], traj.fields[:n_snap],
                          traj.monitors, traj.config)
    domination_check(sg, traj, omega_kind="A'")
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


def test_domination_rejects_single_snapshot(grid, sg):
    traj, _ = _flow(grid, coulomb_cosine(grid, amplitude=0.3), n_snap=1)
    with pytest.raises(ValueError):
        domination_check(sg, traj, omega_kind="B")


def test_domination_unknown_kind(grid, sg):
    traj, _ = _flow(grid, coulomb_cosine(grid, amplitude=0.3))
    with pytest.raises(ValueError):
        domination_check(sg, traj, omega_kind="F")


def test_diamagnetic_abelian_equality(grid, sg, u1_alg):
    # zero connection: the covariant evolution of a nonnegative scalar
    # multiple reproduces the scalar heat flow, so the margin is tiny
    from ymheat.grid import KForm

    A = apply_boundary(KForm(1, grid, u1_alg), NEUMANN)
    w0 = random_smooth(grid, u1_alg, seed=32, degree=2, amplitude=0.3)
    w0.values[...] = np.abs(w0.values)
    w0 = apply_boundary(w0, NEUMANN)
    res = diamagnetic_check(sg, A, w0, 0.005)
    h = min(grid.spacing)
    assert res["min_margin"] >= -margin_tol(h, h * h / 8)


@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
def test_diamagnetic_su2(grid, sg, su2_alg, bc):
    A = apply_boundary(
        random_smooth(grid, su2_alg, seed=33, amplitude=0.2), bc
    )
    w0 = apply_boundary(
        random_smooth(grid, su2_alg, seed=34, degree=2, amplitude=0.3), bc
    )
    res = diamagnetic_check(sg, A, w0, 0.01)
    h = min(grid.spacing)
    assert res["min_margin"] >= -margin_tol(h, h * h / 8)


def test_diamagnetic_rejects_marini(grid, sg, su2_alg):
    from ymheat.grid import MARINI

    A = apply_boundary(
        random_smooth(grid, su2_alg, seed=35, amplitude=0.2), MARINI
    )
    w0 = apply_boundary(
        random_smooth(grid, su2_alg, seed=36, degree=2, amplitude=0.3),
        MARINI,
    )
    with pytest.raises(ValueError):
        diamagnetic_check(sg, A, w0, 0.01)


def test_diamagnetic_rejects_large_dt(grid, sg, su2_alg):
    A = apply_boundary(
        random_smooth(grid, su2_alg, seed=33, amplitude=0.2), NEUMANN
    )
    w0 = apply_boundary(
        random_smooth(grid, su2_alg, seed=34, degree=2, amplitude=0.3),
        NEUMANN,
    )
    with pytest.raises(ValueError, match="ceiling"):
        diamagnetic_check(sg, A, w0, 0.01, dt=1.0)
