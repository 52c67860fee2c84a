import math
import sys
import threading

import numpy as np
import pytest
from scipy.fft import dctn as scipy_dctn, idctn as scipy_idctn
from scipy.integrate import quad

from ymheat.grid import GridSpec
from ymheat.neumann import NeumannSemigroup, a4_constant, dctn, idctn

from paper_checks import (
    _normal_derivatives,
    _one_sided_laplacian,
    compose_lemma_check,
    face_tol,
    laplacian_apply,
    meshgrid,
    monotone_lemma_check,
)


@pytest.fixture(scope="module")
def sg():
    return NeumannSemigroup(GridSpec((1.0, 1.0, 1.0), (16, 16, 16)),
                            kernel_modes=256)


def _cos_mode(grid, kx=1, ky=0, kz=0):
    X, Y, Z = meshgrid(grid)
    L = grid.extents
    return (np.cos(kx * np.pi * X / L[0])
            * np.cos(ky * np.pi * Y / L[1])
            * np.cos(kz * np.pi * Z / L[2]))


def test_heat_apply_preserves_constants(sg):
    f = np.full(sg.grid.shape, 2.5)
    assert np.allclose(sg.heat_apply(0.3, f), 2.5, atol=1e-13)


def test_heat_apply_eigenmode_decay(sg):
    f = _cos_mode(sg.grid, 2, 1, 0)
    lam = (2 * np.pi) ** 2 + np.pi ** 2
    out = sg.heat_apply(0.05, f)
    assert np.allclose(out, math.exp(-lam * 0.05) * f, atol=1e-12)


def test_heat_apply_semigroup_property(sg, rng):
    f = rng.standard_normal(sg.grid.shape)
    one = sg.heat_apply(0.07, f)
    two = sg.heat_apply(0.04, sg.heat_apply(0.03, f))
    assert np.allclose(one, two, atol=1e-12)


def test_heat_apply_positivity_preserving(sg, rng):
    # positivity up to spectral-truncation ripple
    f = np.abs(rng.standard_normal(sg.grid.shape))
    out = sg.heat_apply(0.01, f)
    assert out.min() > -1e-10


def test_heat_apply_rejects_negative_time(sg):
    with pytest.raises(ValueError):
        sg.heat_apply(-0.1, np.zeros(sg.grid.shape))


def test_evolve_keeps_coeffs_and_the_bits_of_the_formula(sg, rng):
    coeffs = sg.spectrum(rng.standard_normal(sg.grid.shape))
    kept = coeffs.copy()
    for t in (0.0, 0.003, 0.07):
        out = sg.evolve(t, coeffs)
        assert np.array_equal(
            out, idctn(coeffs * np.exp(-sg.eigenvalues * t)))
        assert np.array_equal(coeffs, kept)


DCT_SHAPES = [(2, 2, 2), (3, 5, 7), (4, 6, 8), (2, 9, 4), (12, 10, 14),
              (16, 16, 16), (32, 32, 32)]


@pytest.mark.parametrize("shape", DCT_SHAPES,
                         ids=["x".join(map(str, s)) for s in DCT_SHAPES])
def test_dct_has_the_bits_of_scipy(shape, rng):
    for _ in range(3):
        x = rng.standard_normal(shape)
        assert np.array_equal(dctn(x), scipy_dctn(x, type=1))
        assert np.array_equal(idctn(x), scipy_idctn(x, type=1))


def test_dct_inverse_scaled_after_the_last_axis_loses_the_bits(rng):
    """Control: the inverse scale belongs right after axis 0, where
    pocketfft applies it; the same factor after the last axis is the same
    transform to rounding, and not bit for bit."""
    x = rng.standard_normal((32, 32, 32))
    late = dctn(x) * (1 / 62 ** 3)
    reference = scipy_idctn(x, type=1)
    assert np.allclose(late, reference, rtol=1e-13, atol=1e-16)
    assert not np.array_equal(late, reference)


@pytest.mark.parametrize("shape", [(1, 4, 4), (4, 4, 1)])
def test_dct_refuses_a_one_point_axis_as_scipy_does(shape):
    # SciPy 1.17 refuses with pocketfft's RuntimeError ("zero-length FFT
    # requested"); the port raises the ValueError NumPy raises for an
    # empty transform
    x = np.ones(shape)
    for ours, theirs in ((dctn, scipy_dctn), (idctn, scipy_idctn)):
        with pytest.raises((ValueError, RuntimeError)):
            theirs(x, type=1)
        with pytest.raises(ValueError):
            ours(x)


def test_dct_buffers_are_per_thread(rng):
    """Each thread reuses its own buffers: three threads (more than the
    domination stream's two) transforming at once give the serial bits,
    and a returned array is the caller's."""
    inputs = [rng.standard_normal((16, 16, 16)) for _ in range(3)]
    serial = [(dctn(x), idctn(x)) for x in inputs]
    kept = [(a.copy(), b.copy()) for a, b in serial]
    dctn(rng.standard_normal((16, 16, 16)))
    idctn(rng.standard_normal((16, 16, 16)))
    assert all(np.array_equal(a, c) and np.array_equal(b, d)
               for (a, b), (c, d) in zip(serial, kept))
    start = threading.Barrier(len(inputs))
    wrong = []

    def transform(i):
        start.wait()
        for _ in range(60):
            try:
                same = (np.array_equal(dctn(inputs[i]), serial[i][0])
                        and np.array_equal(idctn(inputs[i]), serial[i][1]))
            except Exception as e:  # a thread's error must fail the test
                same = repr(e)
            if same is not True:
                wrong.append((i, same))

    threads = [threading.Thread(target=transform, args=(i,))
               for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []


def test_laplacian_apply_eigenvalue(sg):
    f = _cos_mode(sg.grid, 1, 1, 1)
    assert np.allclose(laplacian_apply(sg, f), -3 * np.pi ** 2 * f,
                       atol=1e-10)


def test_a4_matches_gamma_closed_form():
    exact = math.gamma(0.25) ** 2 / math.sqrt(math.pi)
    assert abs(a4_constant() - exact) < 1e-8


def test_a4_matches_beta_quadrature():
    # s = sin^2(theta) removes both endpoint singularities of the integrand
    val, _ = quad(lambda th: 2.0 * (math.sin(th) * math.cos(th)) ** (-0.5),
                  0.0, math.pi / 2, limit=200_000)
    assert abs(a4_constant() - val) <= 1e-12 * val


@pytest.mark.parametrize("extents", [(1.0, 1.0, 1.0), (1.0, 2.0, 3.0),
                                     (4.0, 4.0, 4.0)],
                         ids=["unit", "1x2x3", "4^3"])
def test_c_N_is_the_value_at_t_1(extents):
    sg = NeumannSemigroup(GridSpec(extents, (16, 16, 16)), kernel_modes=256)
    # the closed form equals the 400-point sampled sup bit for bit
    ts = np.logspace(math.log10(1e-3), 0.0, 400)
    vals = [t ** 0.75 * sg.norm_2_to_inf(t) for t in ts]
    assert sg.c_N_estimate() == float(max(vals))
    # t^{3/4} ||e^{t Lap_N}||_{2->inf} never decreases in t; where it is
    # flat (small t) the sums round to within one ulp of each other
    vals = np.asarray(vals)
    assert np.all(np.diff(vals) >= -2 * np.finfo(float).eps * vals[1:])


def test_c_N_bounds_and_stability(sg):
    c1 = sg.c_N_estimate()
    sg2 = NeumannSemigroup(sg.grid, kernel_modes=512)
    c2 = sg2.c_N_estimate()
    assert c2 >= 1.0 - 1e-12  # the constant mode alone forces >= 1
    assert abs(c2 - c1) <= 0.01 * c1


def test_norm_2_to_inf_small_time_scaling(sg):
    # t^{3/4} ||e^{t L}||_{2->inf} approaches the free-space constant
    # (2 pi)^{-3/4} as t -> 0 on any box
    target = (2 * math.pi) ** -0.75
    sg_fine = NeumannSemigroup(sg.grid, kernel_modes=2048)
    val = 1e-5 ** 0.75 * sg_fine.norm_2_to_inf(1e-5)
    assert abs(val - target) < 1e-12


def test_norm_2_to_inf_needs_enough_modes():
    sg_small = NeumannSemigroup(GridSpec((1.0, 1.0, 1.0), (16, 16, 16)),
                                kernel_modes=16)
    with pytest.raises(ValueError, match="mode count"):
        sg_small.norm_2_to_inf(1e-9)


def _closure_laplacian(psi, grid):
    # reference: the same stencils from shifted copies and index tuples
    out = np.zeros_like(psi)
    for a, h in enumerate(grid.spacing):

        def shift(arr, k):
            idx = [slice(None)] * 3
            pad = [slice(None)] * 3
            if k > 0:
                idx[a], pad[a] = slice(k, None), slice(0, -k)
            else:
                idx[a], pad[a] = slice(0, k), slice(-k, None)
            out_ = np.zeros_like(arr)
            out_[tuple(pad)] = arr[tuple(idx)]
            return out_

        def take(i):
            j = [slice(None)] * 3
            j[a] = i
            return psi[tuple(j)]

        d2 = (shift(psi, 1) - 2 * psi + shift(psi, -1)) / h ** 2
        n = psi.shape[a]
        j = [slice(None)] * 3
        j[a] = 0
        d2[tuple(j)] = (2 * take(0) - 5 * take(1) + 4 * take(2)
                        - take(3)) / h ** 2
        j[a] = n - 1
        d2[tuple(j)] = (2 * take(n - 1) - 5 * take(n - 2) + 4 * take(n - 3)
                        - take(n - 4)) / h ** 2
        out += d2
    return out


def _closure_normal_derivatives(psi, grid):
    vals = []
    for a, h in enumerate(grid.spacing):
        n = psi.shape[a]

        def take(i):
            j = [slice(None)] * 3
            j[a] = i
            return psi[tuple(j)]

        d_lo = (-3 * take(0) + 4 * take(1) - take(2)) / (2 * h)
        d_hi = (3 * take(n - 1) - 4 * take(n - 2) + take(n - 3)) / (2 * h)
        vals.append(-d_lo)
        vals.append(d_hi)
    return vals


def test_face_stencils_match_closure_form(rng):
    grid = GridSpec((1.0, 2.0, 3.0), (9, 11, 13))
    psi = rng.standard_normal(grid.shape)
    assert np.array_equal(_one_sided_laplacian(psi, grid),
                          _closure_laplacian(psi, grid))
    new, old = (_normal_derivatives(psi, grid),
                _closure_normal_derivatives(psi, grid))
    assert len(new) == len(old) == 6
    for a, b in zip(new, old):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_monotone_lemma_constant(sg):
    psi = np.ones(sg.grid.shape)
    res = monotone_lemma_check(sg, psi, 0.05)
    assert res["min_margin"] >= -1e-10


def test_monotone_lemma_cosine_mode(sg):
    h = min(sg.grid.spacing)
    psi = _cos_mode(sg.grid, 1, 0, 0)
    res = monotone_lemma_check(sg, psi, 0.02, tol=face_tol(h))
    # both sides equal -pi^2 e^{-pi^2 t} psi up to stencil error
    assert res["min_margin"] >= -face_tol(h) * 3


def test_monotone_lemma_inward_sloped(sg):
    X, Y, Z = meshgrid(sg.grid)
    # paraboloid: outward normal derivative is exactly -1 on every face
    psi = -((X - 0.5) ** 2 + (Y - 0.5) ** 2 + (Z - 0.5) ** 2)
    res = monotone_lemma_check(sg, psi, 0.05)
    h = min(sg.grid.spacing)
    assert res["min_margin"] >= -face_tol(h)


def test_monotone_lemma_rejects_outward_slope(sg):
    X, _, _ = meshgrid(sg.grid)
    psi = X * X  # outward derivative +2 at the high-x face
    with pytest.raises(ValueError, match="normal derivative"):
        monotone_lemma_check(sg, psi, 0.05)


def _scalar_heat_series(sg, f0, times):
    return [sg.heat_apply(t - times[0], f0) for t in times]


def test_compose_lemma_exact_heat_solution(sg, rng):
    # u solving the plain heat equation saturates the bound (g = 0)
    f0 = np.abs(rng.standard_normal(sg.grid.shape)) + 0.5
    times = np.linspace(0.0, 0.1, 9)
    u = _scalar_heat_series(sg, f0, times)
    g = [np.zeros(sg.grid.shape) for _ in times]
    for partition in ([0, 8], [0, 4, 8], [0, 2, 3, 5, 8]):
        res = compose_lemma_check(sg, times, u, g, partition, tol=1e-9)
        assert res["passed"]
        assert res["worst_composed_margin"] >= -1e-9


def test_compose_lemma_with_source(sg, rng):
    # adding a nonnegative source strictly enlarges the bound
    f0 = np.abs(rng.standard_normal(sg.grid.shape)) + 0.5
    times = np.linspace(0.0, 0.1, 9)
    u = _scalar_heat_series(sg, f0, times)
    g = [np.full(sg.grid.shape, 0.3) for _ in times]
    res = compose_lemma_check(sg, times, u, g, [0, 3, 6, 8], tol=0.0)
    assert res["passed"]
    assert min(res["subinterval_margins"]) > 0


def test_compose_lemma_random_partitions(sg, rng):
    f0 = np.abs(rng.standard_normal(sg.grid.shape)) + 0.5
    times = np.linspace(0.0, 0.08, 13)
    u = _scalar_heat_series(sg, f0, times)
    g = [np.full(sg.grid.shape, 0.1) for _ in times]
    for _ in range(5):
        k = rng.integers(1, 6)
        inner = sorted(rng.choice(np.arange(1, 12), size=k, replace=False))
        partition = [0] + [int(i) for i in inner] + [12]
        res = compose_lemma_check(sg, times, u, g, partition, tol=1e-9)
        assert res["passed"]


def test_compose_lemma_detects_violation(sg):
    # u jumping above the heat bound must be rejected on its subinterval
    times = np.array([0.0, 0.05, 0.1])
    base = np.ones(sg.grid.shape)
    u = [base, 2.0 * base, 4.0 * base]
    g = [np.zeros(sg.grid.shape)] * 3
    with pytest.raises(ValueError, match="fails"):
        compose_lemma_check(sg, times, u, g, [0, 1, 2], tol=1e-6)


def test_compose_lemma_partition_must_span(sg):
    times = np.linspace(0.0, 0.1, 5)
    u = [np.ones(sg.grid.shape)] * 5
    g = [np.zeros(sg.grid.shape)] * 5
    with pytest.raises(ValueError, match="partition"):
        compose_lemma_check(sg, times, u, g, [1, 4])
