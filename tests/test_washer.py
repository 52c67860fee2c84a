import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ymheat import washer
from ymheat.algebra import u1
from ymheat.grid import GridSpec, KForm
from ymheat.washer import (
    LoopCEpsilon,
    WasherConfig,
    energy,
    flux_probe,
    total_current,
    vector_potential,
    washer_to_grid,
)

from paper_checks import lambda_profile, meshgrid, theta_bounds_check


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


@pytest.mark.parametrize("draw", [
    lambda rng, n: rng.uniform(0.0, 1.0, n),
    lambda rng, n: 1.0 - 10.0 ** rng.uniform(-16.0, 0.0, n),
], ids=["uniform", "log_uniform_near_one"])
def test_ellipk_ellipe_match_scipy(draw):
    """The port gives scipy.special's K and E to 2 ulp on 10^6 points; np.log
    and the C library's log differ in the last bit on a few inputs."""
    from scipy.special import ellipe, ellipk

    rng = np.random.default_rng(2026)
    for m in np.split(draw(rng, 10**6), 10):
        k, e = washer._ellipk_ellipe(m)
        for got, ref in ((k, ellipk(m)), (e, ellipe(m))):
            assert np.all(np.isfinite(ref))
            assert np.all(np.abs(got - ref) <= 2 * np.spacing(ref))


def test_ellipk_ellipe_special_values_are_scipy_s():
    """m = 0, 1, 1 - 2^-53 (K's log branch) and 1.5 give SciPy's values,
    inf and NaN included, without a warning."""
    from scipy.special import ellipe, ellipk

    m = np.array([0.0, 1.0, 1.0 - 2.0 ** -53, 1.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k, e = washer._ellipk_ellipe(m)
    assert np.array_equal(k, ellipk(m), equal_nan=True)
    assert np.array_equal(e, ellipe(m), equal_nan=True)
    assert k[1] == np.inf and e[1] == 1.0 and np.isnan(k[3])


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


@pytest.mark.parametrize("theta0", [1e-3, math.pi / 4, 1.5],
                         ids=["1e-3", "pi/4", "1.5"])
@pytest.mark.parametrize("v", [0.5, 1.0, 2.0], ids=["v0.5", "v1", "v2"])
def test_theta_bounds_integral_matches_the_elliptic_closed_form(v, theta0):
    """The angular integral is (2/u) F(theta0/2 | -4v^2/u^2); the rule
    meets it to 2e-15 relative from u = 1e-9, where the integrand peaks
    over a width u/v, up to u = 0.999."""
    from scipy.special import ellipkinc

    for u in (1e-9, 1e-6, 1e-3, 0.5, 0.999):
        exact = 2.0 / u * ellipkinc(0.5 * theta0, -4.0 * v * v / (u * u))
        got = theta_bounds_check(u, v, theta0)["integral"]
        assert abs(got - exact) <= 2e-15 * exact, u


def test_flux_zero_eps_is_infinite():
    assert flux_probe(LoopCEpsilon(0.0)) == math.inf


@pytest.mark.parametrize("n_quad", [64, 200])
def test_flux_probe_has_the_bits_of_one_call_per_segment(monkeypatch,
                                                        n_quad):
    """flux_probe evaluates the potential once on all four segments, and
    each segment's sum keeps the bits of evaluating that segment alone;
    200 Gauss points put the kernel's row blocks across segments."""
    x, w = washer._leggauss(n_quad)
    s, ws = 0.5 * (x + 1.0), 0.5 * w
    potential, calls = washer.vector_potential, []
    loops = [LoopCEpsilon(e) for e in (0.3, 1e-2, 1e-5, 1e-7)]
    cfg = WasherConfig(n_u=96)

    def alone(loop):
        total = 0.0
        for seg in loop.path().segments:
            A = potential(seg.position(s), cfg)["A"]
            total += float(np.sum(ws * np.einsum("ij,ij->i", A,
                                                 seg.velocity(s))))
        return total

    def counting(*args):
        calls.append(1)
        return potential(*args)

    expected = [alone(loop) for loop in loops]
    monkeypatch.setattr(washer, "vector_potential", counting)
    assert [flux_probe(loop, cfg, n_quad) for loop in loops] == expected
    assert len(calls) == 4


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


def _per_node_washer_to_grid(cfg, grid, origin, cap_u_max):
    """The kernel evaluated at every padded node, split by `close`."""
    origin = np.asarray(origin, dtype=float)
    A = KForm(1, grid, u1())
    Xg, Yg, Zg = meshgrid(grid, ghosts=True)
    pts = np.stack([Xg, Yg, Zg], axis=-1).reshape(-1, 3) + origin
    rho = np.hypot(pts[:, 0], pts[:, 1])
    z = pts[:, 2]
    radial_excess = np.maximum(np.maximum(rho - washer.R_OUTER,
                                          washer.R_INNER - rho), 0.0)
    close = np.hypot(z, radial_excess) < min(grid.spacing)
    a_phi = np.empty(len(pts))
    a_phi[~close] = washer._a_phi(rho[~close], z[~close], cfg.n_u, cfg.u_max)
    if np.any(close):
        a_phi[close] = washer._a_phi(rho[close], z[close], cfg.n_u, cap_u_max)
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


def test_washer_to_grid_evaluates_each_rho_z_pair_once(monkeypatch):
    rows = []
    a_phi = washer._a_phi

    def counting(rho, z, n_u, u_hi):
        rows.append(np.size(rho))
        return a_phi(rho, z, n_u, u_hi)

    monkeypatch.setattr(washer, "_a_phi", counting)
    washer_to_grid(WasherConfig(), WORKLOAD_GRID, (-2.0, -2.0, -2.0),
                   cap_u_max=12.0)
    # 168 distinct rho times 20 distinct |z|, not 34**3 = 39,304 nodes
    assert sum(rows) == 3360


def test_washer_to_grid_evaluates_no_tail_bound(monkeypatch):
    # one elliptic kernel per potential evaluation: the rim tail bound is
    # vector_potential's, and washer_to_grid has no use for it
    calls = {"a_phi": 0, "kernel": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(washer, "_a_phi", counted("a_phi", washer._a_phi))
    monkeypatch.setattr(washer, "_azimuthal_integral",
                        counted("kernel", washer._azimuthal_integral))
    grid = GridSpec((4.0, 4.0, 4.0), (16, 16, 16))
    washer_to_grid(WasherConfig(n_u=16), grid, (-2.0, -2.0, -2.0),
                   cap_u_max=10.0)
    assert calls["kernel"] == calls["a_phi"] == 2  # capped and uncapped


def test_washer_to_grid_peak_memory_is_small():
    # builds the cached nodes outside the trace
    washer_to_grid(WasherConfig(n_u=8), GridSpec((1, 1, 1), (8, 8, 8)),
                   (2.0, 2.0, 2.0), cap_u_max=12.0)
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
