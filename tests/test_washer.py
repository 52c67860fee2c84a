import math
import tracemalloc

import numpy as np
import pytest

from ymheat import washer
from ymheat.algebra import u1
from ymheat.grid import GridSpec, KForm
from ymheat.washer import (
    SANDWICH_U,
    LoopCEpsilon,
    WasherConfig,
    energy,
    fit_theta_bounds,
    flux_probe,
    lambda_profile,
    theta_bounds_check,
    total_current,
    vector_potential,
    washer_to_grid,
)


def test_current_profile_unbounded_at_rim():
    r = np.array([0.99, 0.9999, 0.999999])
    vals = lambda_profile(r)
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] > 1e3


def test_total_current_closed_form():
    res = total_current()
    assert abs(res["exact"] - 1.0 / math.log(2.0)) < 1e-15
    assert res["difference"] < 1e-10


def test_config_rejects_tiny_cutoff():
    with pytest.raises(ValueError):
        WasherConfig(u_max=0.5)


def test_vector_potential_azimuthal_symmetry():
    # same (rho, z) at two azimuths: |A| equal, direction azimuthal
    p1 = np.array([1.2, 0.0, 0.1])
    phi = 1.1
    p2 = np.array([1.2 * math.cos(phi), 1.2 * math.sin(phi), 0.1])
    a1 = vector_potential(p1)
    a2 = vector_potential(p2)
    assert abs(np.linalg.norm(a1["A"]) - np.linalg.norm(a2["A"])) < 1e-13
    assert abs(np.dot(a1["A"], p1)) < 1e-13  # no radial/vertical part
    assert a1["tail_bound"] < 0.1


def test_vector_potential_z_symmetric():
    up = vector_potential(np.array([0.8, 0.0, 0.2]))["A"]
    dn = vector_potential(np.array([0.8, 0.0, -0.2]))["A"]
    assert np.allclose(up, dn, atol=1e-13)


def test_vector_potential_rejects_on_washer_point():
    with pytest.raises(ValueError, match="washer"):
        vector_potential(np.array([0.75, 0.0, 0.0]))


def test_vector_potential_vanishes_on_axis():
    res = vector_potential(np.array([0.0, 0.0, 0.5]))
    assert np.allclose(res["A"], 0.0)


def test_vector_potential_decays_far_away():
    near = np.linalg.norm(vector_potential(np.array([1.5, 0.0, 0.0]))["A"])
    far = np.linalg.norm(vector_potential(np.array([8.0, 0.0, 0.0]))["A"])
    assert far < near / 10


def test_vector_potential_unbounded_at_rim():
    vals = [
        np.linalg.norm(vector_potential(np.array([1.0 + e, 0.0, 0.0]),
                                        WasherConfig(u_max=200.0))["A"])
        for e in (1e-2, 1e-4, 1e-6)
    ]
    assert np.all(np.diff(vals) > 0)
    # closer than the elliptic-precision floor the evaluation refuses
    with pytest.raises(ValueError, match="precision"):
        vector_potential(np.array([1.0 + 1e-8, 0.0, 0.0]),
                         WasherConfig(u_max=200.0))


def test_energy_refinement_cauchy():
    res = energy()
    vals = res["values"]
    assert all(b > a for a, b in zip(vals, vals[1:]))  # monotone in cutoff
    assert res["cauchy"]
    assert res["rel_gaps"][-1] <= 1e-3
    assert 10.0 < res["W"] < 1e4  # finite, nontrivial


def test_theta_bounds_sandwich_grid():
    for u in (0.5, 0.1, 0.01, 0.001):
        for v in (0.5, 1.0, 2.0):
            res = theta_bounds_check(u, v, math.pi / 4)
            assert res["passed"], (u, v)
            assert res["lower"] <= res["integral"] + 1e-8
            assert res["integral"] <= res["upper"] + 1e-8


def test_theta_bounds_rejects_out_of_range():
    with pytest.raises(ValueError):
        theta_bounds_check(2.0, 1.0, math.pi / 4)


def test_fit_theta_bounds_constants():
    fit = fit_theta_bounds()
    assert fit.c2 > 0 and fit.C2 >= fit.c2
    logs = np.log(1.0 / np.asarray(SANDWICH_U))
    # the sandwich re-verification is built in; sanity-check the growth
    assert fit.c2 * logs.max() > fit.c2 * logs.min()


def test_flux_zero_eps_is_infinite():
    assert flux_probe(LoopCEpsilon(0.0)) == math.inf


def test_flux_ladder_increases_with_loglog_rate():
    eps = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
    fluxes = [flux_probe(LoopCEpsilon(e)) for e in eps]
    assert all(b > a for a, b in zip(fluxes, fluxes[1:]))
    x = np.log(np.log(1.0 / np.asarray(eps)))
    coef = np.polyfit(x, fluxes, 1)
    resid = np.max(np.abs(np.polyval(coef, x) - fluxes))
    assert resid <= 0.05 * (max(fluxes) - min(fluxes))


def test_loop_geometry_validation():
    with pytest.raises(ValueError):
        LoopCEpsilon(-1e-3)
    with pytest.raises(ValueError):
        LoopCEpsilon(0.1, r_out=1.05)


def test_washer_to_grid_requires_cap_near_surface():
    grid = GridSpec((4.0, 4.0, 4.0), (16, 16, 16))
    cfg = WasherConfig()
    with pytest.raises(ValueError, match="cap"):
        washer_to_grid(cfg, grid, (-2.0, -2.0, -2.0))


def test_washer_to_grid_samples_field():
    grid = GridSpec((4.0, 4.0, 4.0), (16, 16, 16))
    cfg = WasherConfig(n_u=64)
    res = washer_to_grid(cfg, grid, (-2.0, -2.0, -2.0), cap_u_max=10.0)
    A = res["field"]
    assert res["capped_nodes"] > 0
    assert np.all(np.isfinite(A.values))
    # the sampled field is azimuthal: no z-component anywhere
    assert np.max(np.abs(A.values[2])) == 0.0
    assert A.norm("Linf") > 0.01


def test_washer_to_grid_rejects_cap_at_or_below_log2():
    # a cutoff below the inner radius's u would give negative weights
    grid = GridSpec((4.0, 4.0, 4.0), (8, 8, 8))
    for cap in (0.5, math.log(2.0)):
        with pytest.raises(ValueError, match="cap_u_max"):
            washer_to_grid(WasherConfig(n_u=16), grid, (-2.0, -2.0, -2.0),
                           cap_u_max=cap)


def _per_node_washer_to_grid(cfg, grid, origin, cap_u_max=None):
    """The kernel evaluated at every padded node, split by `close`."""
    origin = np.asarray(origin, dtype=float)
    A = KForm(1, grid, u1())
    Xg, Yg, Zg = grid.meshgrid(ghosts=True)
    pts = np.stack([Xg, Yg, Zg], axis=-1).reshape(-1, 3) + origin
    rho = np.hypot(pts[:, 0], pts[:, 1])
    z = pts[:, 2]
    radial_excess = np.maximum(np.maximum(rho - washer.R_OUTER,
                                          washer.R_INNER - rho), 0.0)
    close = np.hypot(z, radial_excess) < min(grid.spacing)
    if np.any(close) and cap_u_max is None:
        raise ValueError(
            f"{int(close.sum())} nodes lie within one spacing of the washer "
            "and no cap policy is set"
        )
    a_phi = np.empty(len(pts))
    a_phi[~close], _ = washer._a_phi(rho[~close], z[~close], cfg)
    if np.any(close):
        a_phi[close], _ = washer._a_phi(rho[close], z[close], cfg,
                                        u_max=cap_u_max)
    safe_rho = np.where(rho > 0, rho, 1.0)
    vec = np.stack([-pts[:, 1] / safe_rho, pts[:, 0] / safe_rho,
                    np.zeros_like(rho)], axis=-1) * a_phi[:, None]
    vec[rho == 0] = 0.0
    vec = vec.reshape(Xg.shape + (3,))
    for j in range(3):
        A.values[j, ..., 0] = vec[..., j]
    return {"field": A, "capped_nodes": int(close.sum())}


WORKLOAD_GRID = GridSpec((4.0, 4.0, 4.0), (32, 32, 32))


@pytest.mark.parametrize("cfg, grid, origin, cap", [
    (WasherConfig(), WORKLOAD_GRID, (-2.0, -2.0, -2.0), 12.0),
    # off-centre and anisotropic: few coordinates repeat
    (WasherConfig(n_u=64), GridSpec((3.1, 2.3, 1.7), (13, 11, 9)),
     (-1.37, -0.91, -0.6), 9.0),
    # odd node counts put a column of nodes on the z axis, where rho = 0
    (WasherConfig(n_u=32), GridSpec((4.0, 4.0, 4.0), (17, 17, 17)),
     (-2.0, -2.0, -2.0), 10.0),
], ids=["workload", "off_centre", "on_axis"])
def test_washer_to_grid_matches_per_node_evaluation(cfg, grid, origin, cap):
    new = washer_to_grid(cfg, grid, origin, cap_u_max=cap)
    ref = _per_node_washer_to_grid(cfg, grid, origin, cap_u_max=cap)
    assert new["capped_nodes"] == ref["capped_nodes"] > 0
    assert np.array_equal(new["field"].values, ref["field"].values)
    # bit for bit, signs of zeros included
    assert new["field"].values.tobytes() == ref["field"].values.tobytes()
    assert np.all(np.isfinite(new["field"].values))


def test_washer_to_grid_uncapped_error_counts_nodes():
    grid = GridSpec((3.0, 2.6, 2.2), (12, 10, 9))
    origin = (-1.3, -1.1, -0.75)
    cfg = WasherConfig(n_u=16)
    with pytest.raises(ValueError, match="cap policy") as ref:
        _per_node_washer_to_grid(cfg, grid, origin)
    with pytest.raises(ValueError, match="cap policy") as new:
        washer_to_grid(cfg, grid, origin)
    assert str(new.value) == str(ref.value)


def test_washer_to_grid_evaluates_each_rho_z_pair_once(monkeypatch):
    rows = []
    a_phi = washer._a_phi

    def counting(rho, z, cfg, u_max=None):
        rows.append(np.size(rho))
        return a_phi(rho, z, cfg, u_max)

    monkeypatch.setattr(washer, "_a_phi", counting)
    washer_to_grid(WasherConfig(), WORKLOAD_GRID, (-2.0, -2.0, -2.0),
                   cap_u_max=12.0)
    # 168 distinct rho times 20 distinct |z|, not 34**3 = 39,304 nodes
    assert sum(rows) == 3360


def test_washer_to_grid_peak_memory_is_small():
    washer_to_grid(WasherConfig(n_u=8), GridSpec((1, 1, 1), (8, 8, 8)),
                   (2.0, 2.0, 2.0))  # loads scipy.special outside the trace
    tracemalloc.start()
    try:
        washer_to_grid(WasherConfig(), WORKLOAD_GRID, (-2.0, -2.0, -2.0),
                       cap_u_max=12.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


@pytest.mark.parametrize("n", [64, 128])
def test_leggauss_is_cached_read_only_and_exact(n):
    x, w = washer._leggauss(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()
    assert washer._leggauss(n)[0] is x
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
