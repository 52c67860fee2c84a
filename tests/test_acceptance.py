"""End-to-end acceptance battery.

Each test prints one ``[criterion-NN] ... PASS/FAIL`` line (visible under
``pytest -s`` or in captured output) and then asserts the same condition.
"""

import math
import time

import numpy as np
import pytest

from ymheat import cli
from ymheat.algebra import su2
from ymheat.fields import coulomb_cosine, random_smooth
from ymheat.flow import FlowConfig, FlowConstants, integrate, verify_bounds
from ymheat.grid import GridSpec, NEUMANN, apply_boundary
from ymheat.neumann import (
    DominationStream,
    NeumannSemigroup,
    a4_constant,
    diamagnetic_check,
    domination_check,
)
from ymheat.tolerances import margin_tol
from ymheat.transport import (
    Loop,
    Path,
    Segment,
    arc_segment,
    line_segment,
    transport_many,
)
from ymheat.washer import (
    LoopCEpsilon,
    energy,
    flux_probe,
    total_current,
)

from paper_checks import (
    DIRICHLET,
    PathPerturbation,
    compose_lemma_check,
    deriv_bound_check,
    face_tol,
    gauge_transform,
    group_exp,
    meshgrid,
    monotone_lemma_check,
    reversed_path,
    theta_bounds_check,
    wilson_trace,
)


def _verdict(n: int, label: str, ok: bool):
    print(f"[criterion-{n:02d}] {label} ... {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n}: {label}"


@pytest.fixture(scope="module")
def sg16(unit_grid):
    return NeumannSemigroup(unit_grid, kernel_modes=256)


@pytest.fixture(scope="module")
def grid12():
    return GridSpec((1.0, 1.0, 1.0), (12, 12, 12))


@pytest.fixture(scope="module")
def sg12(grid12):
    return NeumannSemigroup(grid12, kernel_modes=256)


@pytest.fixture(scope="module")
def small_data_run(grid12, sg12):
    """Shared small-amplitude SU(2) trajectory for criteria 4 and 6, with
    the domination of |B| and |A'| streamed through its flow, and the
    seconds the two took together."""
    start = time.time()
    h = min(grid12.spacing)
    dt = 0.9 * h * h / 8
    A0 = random_smooth(grid12, su2(), seed=7, amplitude=0.05)
    cfg = FlowConfig(NEUMANN, dt, 1.0,
                     snapshot_times=tuple(np.linspace(0.0, 0.05, 11)))
    with DominationStream(sg12) as stream:
        traj = integrate(A0, cfg, on_snapshot=stream)
        domination = {kind: domination_check(traj, kind)
                      for kind in ("B", "A'")}
    return traj, dt, h, domination, time.time() - start


@pytest.fixture(scope="module")
def constants12(sg12):
    return FlowConstants(c_N=sg12.c_N_estimate(), a4=a4_constant(), tau=0.5)


def test_criterion_01_abelian_spectral_and_rk4_order(unit_grid):
    start = time.time()
    h = min(unit_grid.spacing)
    lam = 2.0 * (math.sin(math.pi * h) / h) ** 2
    A0 = apply_boundary(coulomb_cosine(unit_grid), NEUMANN)

    cfg = FlowConfig(NEUMANN, 5e-4, 0.01, snapshot_times=(0.01,))
    traj = integrate(A0, cfg)
    exact = math.exp(-lam * 0.01) * A0
    num = traj.fields[-1]
    rel = (num - exact).norm("L2") / exact.norm("L2")

    errs = []
    for dt in (5e-4, 2.5e-4):
        t = integrate(A0, FlowConfig(NEUMANN, dt, 0.005,
                                     snapshot_times=(0.005,)))
        ex = math.exp(-lam * 0.005) * A0
        errs.append((t.fields[-1] - ex).norm("L2"))
    order = math.log2(errs[0] / errs[1])
    elapsed = time.time() - start

    _verdict(1, f"abelian spectral rel err {rel:.2e} <= 1e-4, "
                f"RK4 order {order:.2f} >= 3.5, {elapsed:.1f}s < 60s",
             rel <= 1e-4 and order >= 3.5 and elapsed < 60)


def test_criterion_02_energy_monotone_and_action_bound(unit_grid):
    start = time.time()
    A0 = random_smooth(unit_grid, su2(), seed=2026, amplitude=0.2)
    traj = integrate(A0, FlowConfig(NEUMANN, 5e-4, 0.05))
    m = traj.monitors
    mono = bool(np.all(np.diff(m.B_l2) <= 1e-12 * m.B_l2[:-1]))
    action_ok = m.action[-1] <= m.B_l2[0] ** 2 * (1 + 1e-3)
    elapsed = time.time() - start
    _verdict(2, f"B_l2 nonincreasing, action {m.action[-1]:.4e} <= "
                f"{m.B_l2[0] ** 2:.4e}(1+1e-3), {elapsed:.1f}s < 120s",
             mono and action_ok and elapsed < 120)


def test_criterion_03_constants(unit_grid, sg16):
    a4 = a4_constant()
    a4_exact = math.gamma(0.25) ** 2 / math.sqrt(math.pi)
    c1 = sg16.c_N_estimate()
    c2 = NeumannSemigroup(unit_grid, kernel_modes=512).c_N_estimate()
    stable = abs(c2 - c1) <= 0.01 * c1
    _verdict(3, f"a4 err {abs(a4 - a4_exact):.1e} <= 1e-8, "
                f"c_N {c1:.6f} stable to 1% under mode doubling and >= 1",
             abs(a4 - a4_exact) <= 1e-8 and stable and c1 >= 1.0)


def test_criterion_04_heat_kernel_domination(small_data_run):
    _, dt, h, domination, elapsed = small_data_run
    tol = margin_tol(h, dt)
    worst = min(res["min_margin"] for res in domination.values())
    _verdict(4, f"domination margin {worst:.3e} >= -{tol:.3e}, "
                f"{elapsed:.1f}s < 300s",
             worst >= -tol and elapsed < 300)


def test_criterion_05_diamagnetic(grid12, sg12):
    h = min(grid12.spacing)
    dt = h * h / 8
    A = random_smooth(grid12, su2(), seed=5, amplitude=0.3)
    worst = math.inf
    for bc in (NEUMANN, DIRICHLET):
        w0 = apply_boundary(
            random_smooth(grid12, su2(), seed=6, amplitude=0.3), bc
        )
        res = diamagnetic_check(sg12, apply_boundary(A, bc), w0, t=0.01)
        worst = min(worst, res["min_margin"])
    tol = margin_tol(h, dt)
    _verdict(5, f"diamagnetic margin {worst:.3e} >= -{tol:.3e}",
             worst >= -tol)


def test_criterion_06_smoothing_and_energy_bounds(small_data_run,
                                                  constants12):
    traj, dt, h, _, _ = small_data_run
    tol = margin_tol(h, dt)
    rows = {r["name"]: r for r in verify_bounds(traj, constants12, tol)}
    names = ("B_linf_early", "B_linf_late", "energy_dissipation")
    ok = all(rows[n]["verdict"] == "pass" for n in ("small_data_gate", *names))
    worst = min(rows[n]["margin"] for n in names)
    _verdict(6, f"gate passed, smoothing/energy margins >= {worst:.3e} "
                f"(tol -{tol:.3e})", ok)


def test_criterion_07_monotone_and_composition_lemmas(sg16, rng):
    h = min(sg16.grid.spacing)
    X, Y, Z = meshgrid(sg16.grid)

    ok = monotone_lemma_check(
        sg16, np.ones(sg16.grid.shape), 0.05)["min_margin"] >= -1e-10
    cos_mode = np.cos(np.pi * X)
    ok &= monotone_lemma_check(
        sg16, cos_mode, 0.02, tol=face_tol(h))["min_margin"] >= -3 * face_tol(h)
    parab = -((X - 0.5) ** 2 + (Y - 0.5) ** 2 + (Z - 0.5) ** 2)
    ok &= monotone_lemma_check(sg16, parab, 0.05)["min_margin"] >= -face_tol(h)

    f0 = np.abs(rng.standard_normal(sg16.grid.shape)) + 0.5
    times = np.linspace(0.0, 0.08, 13)
    u = [sg16.heat_apply(t, f0) for t in times]
    g = [np.full(sg16.grid.shape, 0.1) for _ in times]
    for _ in range(5):
        k = rng.integers(1, 6)
        inner = sorted(rng.choice(np.arange(1, 12), size=k, replace=False))
        res = compose_lemma_check(sg16, times, u, g,
                                  [0] + [int(i) for i in inner] + [12],
                                  tol=1e-9)
        ok &= res["passed"]
    _verdict(7, "monotone battery and composition partitions", bool(ok))


def _sub_segment(seg: Segment, a: float, b: float) -> Segment:
    return Segment(
        lambda s: seg.position(a + (b - a) * np.asarray(s, dtype=float)),
        lambda s: (b - a) * seg.velocity(a + (b - a) * np.asarray(s, dtype=float)),
    )


def _reparametrized(seg: Segment) -> Segment:
    w = lambda s: s + 0.3 * np.sin(math.pi * s) ** 2 / math.pi
    dw = lambda s: 1.0 + 0.3 * np.sin(2 * math.pi * s)

    def pos(s):
        return seg.position(w(np.asarray(s, dtype=float)))

    def vel(s):
        s = np.asarray(s, dtype=float)
        return seg.velocity(w(s)) * dw(s)[..., None]

    return Segment(pos, vel)


def _acceptance_loops():
    c = 0.5

    def square(half):
        pts = [
            (c - half, c - half, 0.5), (c + half, c - half, 0.5),
            (c + half, c + half, 0.5), (c - half, c + half, 0.5),
        ]
        return Loop([line_segment(pts[i], pts[(i + 1) % 4])
                     for i in range(4)])

    return [
        Loop([arc_segment((c, c), 0.15, 0.0, 2 * math.pi, z=0.5)]),
        Loop([arc_segment((c, c), 0.25, 0.0, 2 * math.pi, z=0.5)]),
        square(0.15),
        square(0.25),
        Loop([
            arc_segment((c, c), 0.2, 0.0, math.pi, z=0.5),
            line_segment((0.3, 0.5, 0.5), (0.7, 0.5, 0.5)),
        ]),
    ]


def test_criterion_08_transport_algebra(unit_grid):
    A = apply_boundary(
        random_smooth(unit_grid, su2(), seed=41, amplitude=0.4), NEUMANN
    )
    # a constant gauge rotation: Wilson traces are exactly invariant on the
    # grid (the derivative term of the transform vanishes identically)
    coeffs = np.zeros(unit_grid.padded_shape + (3,))
    coeffs[...] = (0.3, -0.2, 0.4)
    A_k = apply_boundary(gauge_transform(A, group_exp(A.algebra, coeffs)),
                         NEUMANN)
    loops = _acceptance_loops()
    n = len(loops)
    halves = [Path([_sub_segment(seg, a, b)])
              for loop in loops for seg in loop.segments
              for a, b in ((0.0, 0.5), (0.5, 1.0))]
    # one batch per step count; each holonomy has the bits it has alone
    hols = transport_many([A, A_k],
                          loops + [reversed_path(lp) for lp in loops],
                          n_steps=2048)
    half_hols = iter(transport_many([A], halves, n_steps=1024)[:, 0])
    rep_hols = transport_many(
        [A], [Loop([_reparametrized(s) for s in lp.segments]) for lp in loops],
        n_steps=4096)[:, 0]
    worst = 0.0
    for i, loop in enumerate(loops):
        g = hols[i, 0]
        # composition: product over split sub-segments
        g_comp = np.eye(2, dtype=complex)
        for _ in range(2 * len(loop.segments)):
            g_comp = g_comp @ next(half_hols)
        worst = max(worst, float(np.max(np.abs(g - g_comp))))
        # inverse
        g_rev = hols[n + i, 0]
        worst = max(worst, float(np.max(np.abs(g @ g_rev - np.eye(2)))))
        # reparametrization invariance
        worst = max(worst, float(np.max(np.abs(g - rep_hols[i]))))
        # unitarity
        worst = max(worst, float(np.max(np.abs(np.conj(g.T) @ g - np.eye(2)))))
        worst = max(worst, abs(np.linalg.det(g) - 1.0))
        # trace invariance under the gauge rotation
        t1 = complex(np.trace(g))
        t2 = complex(np.trace(hols[i, 1]))
        worst = max(worst, abs(t1 - t2))

    circle = loops[1]
    u = PathPerturbation(
        lambda s: np.array([0.0, 0.0, 0.05 * math.sin(math.pi * s) ** 2]),
        lambda s: np.array([0.0, 0.0, 0.05 * math.pi * math.sin(2 * math.pi * s)]),
    )
    margin = deriv_bound_check(A, circle, u)["margin"]
    _verdict(8, f"transport algebra worst deviation {worst:.2e} <= 1e-8, "
                f"derivative bound margin {margin:.2e} >= -1e-6",
             worst <= 1e-8 and margin >= -1e-6)


def test_criterion_09_washer_battery():
    cur = total_current()
    cur_ok = cur["difference"] <= 1e-10

    en = energy()
    en_ok = en["cauchy"] and en["rel_gaps"][-1] <= 1e-3

    sandwich_ok = all(
        theta_bounds_check(u, v, math.pi / 4)["passed"]
        for u in (0.5, 0.1, 0.01, 0.001)
        for v in (0.5, 1.0, 2.0)
    )

    eps = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
    fluxes = [flux_probe(LoopCEpsilon(e)) for e in eps]
    increasing = all(b > a for a, b in zip(fluxes, fluxes[1:]))
    x = np.log(np.log(1.0 / np.asarray(eps)))
    coef = np.polyfit(x, fluxes, 1)
    resid = float(np.max(np.abs(np.polyval(coef, x) - fluxes)))
    flux_ok = increasing and resid <= 0.05 * (max(fluxes) - min(fluxes))

    _verdict(9, "current 1/log2, energy Cauchy, angular sandwich, "
                "flux ladder with loglog rate",
             cur_ok and en_ok and sandwich_ok and flux_ok)


def test_criterion_10_end_to_end_regularization(tmp_path):
    start = time.time()
    cfg = {
        "grid": {"extents": [4, 4, 4], "shape": [16, 16, 16]},
        "washer": {"n_u": 96},
        "flow": {"dt": 0.002, "t_end": 0.01},
        "regularize": {
            "origin": [-2, -2, -2],
            "cap_u_max": 12.0,
            "eps_ladder": [1e-1, 1e-2, 1e-3, 1e-4, 1e-5],
            "r_out": 1.5,
            "phi_span": math.pi / 2,
        },
    }
    code = cli.execute("washer-regularize", cfg, tmp_path)
    import json

    doc = json.loads((tmp_path / "report.json").read_text())
    rows = {r["name"]: r for r in doc["checks"]}
    conv = rows["flowed_flux_ladder_converges"]
    div = rows["initial_flux_ladder_diverges"]
    elapsed = time.time() - start
    _verdict(10, f"flowed ladder rel gap {conv['lhs']:.2e} <= 1e-3, "
                 f"t=0 ladder diverges, {elapsed:.1f}s < 600s",
             code == 0 and conv["verdict"] == "pass"
             and div["verdict"] == "pass" and elapsed < 600)


def test_criterion_11_long_time_wilson_ladder():
    # box of side pi: the slowest transient decays at rate pi^2/L^2 = 1,
    # so each doubled rung contracts the trace residual well below the
    # previous difference; small amplitude keeps the run in the regime
    # where the flow relaxes to its discrete equilibrium exponentially
    L = math.pi
    grid = GridSpec((L, L, L), (10, 10, 10))
    h = min(grid.spacing)
    A0 = random_smooth(grid, su2(), seed=11, amplitude=0.2)
    traj = integrate(A0, FlowConfig(NEUMANN, 0.9 * h * h / 8, 8.0,
                                    snapshot_times=(1.0, 2.0, 4.0, 8.0)))
    loop = Loop([arc_segment((L / 2, L / 2), 0.25 * L, 0.0, 2 * math.pi,
                             z=L / 2)])
    traces = [wilson_trace(F, loop, n_steps=512) for F in traj.fields]
    diffs = [abs(b - a) for a, b in zip(traces, traces[1:])]
    ok = all(d2 <= d1 + 1e-12 for d1, d2 in zip(diffs, diffs[1:]))
    _verdict(11, f"Wilson-trace ladder diffs {['%.3e' % d for d in diffs]} "
                 "nonincreasing", ok)
