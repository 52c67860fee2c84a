import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ymheat.algebra import su2, u1
from ymheat.fields import random_smooth
from ymheat.flow import FlowConfig, dt_ceiling, integrate
from ymheat.grid import GridSpec, KForm, NEUMANN, apply_boundary
from ymheat import transport as transport_module
from ymheat.transport import (
    CHUNK_STEPS,
    Loop,
    Path,
    Segment,
    arc_segment,
    convergence_probe,
    line_integral,
    line_segment,
    segment_from_json,
    transport,
    transport_many,
    _FieldInterpolator,
    _generators,
)

from paper_checks import (
    PathPerturbation,
    basis,
    deriv_bound_check,
    gauge_transform,
    group_exp,
    loops_to_paths,
    path_length,
    reversed_path,
    to_matrices,
    wilson_trace,
)

CENTER = (0.5, 0.5, 0.5)


def _circle(radius=0.2, z=0.5):
    return Loop([arc_segment((0.5, 0.5), radius, 0.0, 2 * math.pi, z=z)])


def _square(half=0.2, z=0.5):
    c = 0.5
    pts = [
        (c - half, c - half, z), (c + half, c - half, z),
        (c + half, c + half, z), (c - half, c + half, z),
    ]
    return Loop([line_segment(pts[i], pts[(i + 1) % 4]) for i in range(4)])


def _loop_battery():
    return [
        _circle(0.15),
        _circle(0.25),
        _square(0.15),
        _square(0.25),
        Loop([
            arc_segment((0.5, 0.5), 0.2, 0.0, math.pi, z=0.5),
            line_segment((0.3, 0.5, 0.5), (0.7, 0.5, 0.5)),
        ]),
    ]


@pytest.fixture(scope="module")
def field():
    g = GridSpec((1.0, 1.0, 1.0), (16, 16, 16))
    from ymheat.algebra import su2

    return apply_boundary(
        random_smooth(g, su2(), seed=41, amplitude=0.4), NEUMANN
    )


@pytest.fixture(scope="module")
def abelian(field):
    from ymheat.algebra import u1

    return apply_boundary(
        random_smooth(field.grid, u1(), seed=42, amplitude=0.6), NEUMANN
    )


def test_path_rejects_disconnected_segments():
    with pytest.raises(ValueError):
        Path([line_segment((0.2, 0.2, 0.5), (0.5, 0.5, 0.5)),
              line_segment((0.6, 0.6, 0.5), (0.7, 0.7, 0.5))])


def test_loop_rejects_open_path():
    with pytest.raises(ValueError):
        Loop([line_segment((0.2, 0.2, 0.5), (0.8, 0.8, 0.5))])


def test_segment_from_json_roundtrip():
    seg = segment_from_json(
        {"kind": "arc", "center": [0.5, 0.5], "radius": 0.2,
         "phi0": 0.0, "phi1": 3.14159, "z": 0.5}
    )
    p0 = seg.position(0.0)
    assert np.allclose(p0, (0.7, 0.5, 0.5), atol=1e-12)
    with pytest.raises(ValueError):
        segment_from_json({"kind": "spiral"})


def test_path_length_circle():
    loop = _circle(0.2)
    assert abs(path_length(loop) - 2 * math.pi * 0.2) < 1e-6


def test_line_integral_samples_each_segment_once(abelian):
    loop = _loop_battery()[4]
    calls = []

    def counted(seg):
        def position(s):
            calls.append(seg)
            return seg.position(s)
        return Segment(position, seg.velocity)

    path = Path([counted(seg) for seg in loop.segments])
    calls.clear()  # Path checks that its segments join
    assert np.array_equal(line_integral(abelian, path),
                          line_integral(abelian, loop))
    assert calls == loop.segments


def test_abelian_transport_matches_closed_form(abelian):
    loop = _circle(0.2)
    integral = line_integral(abelian, loop)[0]
    g = transport(abelian, loop, n_steps=512)
    exact = np.exp(1j * integral)
    assert abs(g[0, 0] - exact) < 1e-7


def test_transport_composition(field):
    p1 = Path([line_segment((0.3, 0.3, 0.5), (0.7, 0.4, 0.5))])
    p2 = Path([line_segment((0.7, 0.4, 0.5), (0.5, 0.7, 0.5))])
    g12 = transport(field, Path(p1.segments + p2.segments), n_steps=512)
    g = transport(field, p1, n_steps=512) @ transport(field, p2, n_steps=512)
    assert np.max(np.abs(g12 - g)) < 1e-8


def test_transport_inverse(field):
    p = Path([line_segment((0.3, 0.3, 0.5), (0.7, 0.6, 0.5))])
    g = transport(field, p, n_steps=512)
    g_rev = transport(field, reversed_path(p), n_steps=512)
    assert np.max(np.abs(g @ g_rev - np.eye(2))) < 1e-8


def test_transport_reparametrization(field):
    loop = _circle(0.2)
    # the same circle traversed with a nonuniform parameter speed
    def pos(s):
        s = np.asarray(s, dtype=float)
        w = s + 0.3 * np.sin(math.pi * s) ** 2 / math.pi
        phi = 2 * math.pi * w
        return np.stack([0.5 + 0.2 * np.cos(phi), 0.5 + 0.2 * np.sin(phi),
                         np.full_like(phi, 0.5)], axis=-1)

    def vel(s):
        s = np.asarray(s, dtype=float)
        dw = 1.0 + 0.3 * 2 * np.sin(math.pi * s) * np.cos(math.pi * s)
        phi = 2 * math.pi * (s + 0.3 * np.sin(math.pi * s) ** 2 / math.pi)
        dphi = 2 * math.pi * dw
        return np.stack([-0.2 * np.sin(phi) * dphi, 0.2 * np.cos(phi) * dphi,
                         np.zeros_like(phi)], axis=-1)

    from ymheat.transport import Segment

    g1 = transport(field, loop, n_steps=1024)
    g2 = transport(field, Loop([Segment(pos, vel)]), n_steps=1024)
    assert np.max(np.abs(g1 - g2)) < 5e-8


def test_transport_unitarity(field):
    for loop in _loop_battery():
        g = transport(field, loop, n_steps=256)
        assert np.max(np.abs(np.conj(g.T) @ g - np.eye(2))) < 1e-10
        assert abs(np.linalg.det(g) - 1.0) < 1e-9


def test_wilson_trace_gauge_invariant(field):
    theta = random_smooth(field.grid, field.algebra, seed=43, degree=0,
                          amplitude=0.4)
    k = group_exp(field.algebra, theta.values[0])
    A_k = apply_boundary(gauge_transform(field, k), NEUMANN)
    for loop in _loop_battery()[:3]:
        t1 = wilson_trace(field, loop, n_steps=512)
        t2 = wilson_trace(A_k, loop, n_steps=512)
        # gauge transforms shift the field by O(h^2) stencil error only
        assert abs(t1 - t2) < 5e-4


def test_wilson_trace_real_for_su2(field):
    for loop in _loop_battery()[:2]:
        z = wilson_trace(field, loop)
        assert abs(z.imag) < 1e-9
        assert abs(z) <= 2.0 + 1e-9


def test_band_violation_raises(field):
    p = Path([line_segment((0.01, 0.5, 0.5), (0.99, 0.5, 0.5))])
    with pytest.raises(ValueError, match="band"):
        transport(field, p)


def test_loops_to_paths_reduces_on_based_loops(field):
    base = np.array([0.3, 0.5, 0.5])
    loop = Loop([
        arc_segment((0.5, 0.5), 0.2, math.pi, 3 * math.pi, z=0.5)
    ])  # starts and ends at (0.3, 0.5, 0.5) = base
    P = lambda lp: wilson_trace(field, lp, n_steps=512)
    direct = P(loop)
    extended = loops_to_paths(P, base, loop)
    assert abs(direct - extended) < 1e-8


def test_loops_to_paths_open_path_closure(field):
    path = Path([line_segment((0.4, 0.4, 0.5), (0.6, 0.6, 0.5))])
    P = lambda lp: wilson_trace(field, lp, n_steps=256)
    val = loops_to_paths(P, (0.5, 0.5, 0.5), path)
    assert np.isfinite(val.real)


def test_perturbation_must_vanish_at_endpoints():
    with pytest.raises(ValueError):
        PathPerturbation(lambda s: np.array([1.0, 0.0, 0.0]),
                         lambda s: np.zeros(3))


def _lift():
    """A vertical bump along the loop, vanishing at its base point."""
    return PathPerturbation(
        lambda s: np.array([0.0, 0.0, 0.05 * math.sin(math.pi * s) ** 2]),
        lambda s: np.array(
            [0.0, 0.0, 0.05 * math.pi * math.sin(2 * math.pi * s)]
        ),
    )


def test_deriv_bound_holds(field):
    res = deriv_bound_check(field, _circle(0.2), _lift())
    assert res["margin"] >= -1e-6
    assert res["richardson_deviation"] <= 0.10


def test_deriv_bound_refuses_an_unfilled_field_before_transporting(
        field, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("transport started")

    monkeypatch.setattr(transport_module, "transport_many", forbidden)
    # the patch is reached: a filled field gets as far as transporting
    with pytest.raises(AssertionError, match="transport started"):
        deriv_bound_check(field, _circle(0.2), _lift())
    unfilled = field.copy()
    unfilled.bc = None
    with pytest.raises(ValueError, match="ghost fill"):
        deriv_bound_check(unfilled, _circle(0.2), _lift())


def test_deriv_bound_zero_perturbation(field):
    loop = _circle(0.2)
    u = PathPerturbation(lambda s: np.zeros(3), lambda s: np.zeros(3))
    res = deriv_bound_check(field, loop, u)
    assert res["derivative_norm"] == 0.0
    assert res["margin"] >= 0.0


@pytest.mark.parametrize("algebra", [su2, u1], ids=["SU2", "U1"])
def test_closed_form_generators_equal_the_einsum_oracle(algebra, rng):
    """`transport_many`'s closed-form generators equal the einsum over the
    basis matrices, value for value and bit for bit (signed zeros too),
    on random coefficients and on every mix of exact zeros of either sign
    with nonzero entries."""
    alg = algebra()
    mixed = list(itertools.product([0.0, -0.0, 0.75, -1.25], repeat=alg.dim))
    for x in (np.array(mixed), rng.standard_normal((3, 40, alg.dim))):
        got, want = _generators(x), to_matrices(alg, x)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _reference_transport(A, path, n_steps):
    """Unchunked per-pair RK4 with per-matrix polar projection: the loop
    `transport_many` batches, kept here to pin its bits."""
    interp = _FieldInterpolator([A])
    g = np.eye(basis(A.algebra).shape[-1], dtype=complex)
    ds = 1.0 / n_steps
    s = np.linspace(0.0, 1.0, 2 * n_steps + 1)
    for seg in path.segments:
        mats = to_matrices(A.algebra, interp.along(
            np.asarray(seg.position(s), dtype=float),
            np.asarray(seg.velocity(s), dtype=float))[0])
        for i in range(n_steps):
            a0, am, a1 = mats[2 * i], mats[2 * i + 1], mats[2 * i + 2]
            k1 = g @ a0
            k2 = (g + 0.5 * ds * k1) @ am
            k3 = (g + 0.5 * ds * k2) @ am
            k4 = (g + ds * k3) @ a1
            g = g + (ds / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if g.shape == (1, 1):
                g = g / abs(g[0, 0])
            else:
                u, _, vh = np.linalg.svd(g)
                p = u @ vh
                g = p / np.sqrt(np.linalg.det(p))
    return g


@pytest.mark.parametrize("algebra", [su2, u1])
@pytest.mark.parametrize("n_fields", [1, 3])
def test_transport_many_equals_per_pair_reference(algebra, n_fields):
    grid = GridSpec((1.0, 1.0, 1.0), (10, 10, 10))
    fields = [apply_boundary(random_smooth(grid, algebra(), seed=50 + i,
                                           amplitude=0.4), NEUMANN)
              for i in range(n_fields)]
    loops = [_loop_battery()[4], _square(0.2), _circle(0.2)]  # 2, 4, 1 segs
    # one full and one partial chunk of steps per segment
    n_steps = CHUNK_STEPS + 72
    hols = transport_many(fields, loops, n_steps=n_steps)
    r = basis(fields[0].algebra).shape[-1]
    assert hols.shape == (len(loops), n_fields, r, r)
    expected = [[_reference_transport(A, lp, n_steps) for A in fields]
                for lp in loops]
    assert np.array_equal(hols, np.asarray(expected))
    single = [[transport(A, lp, n_steps=n_steps) for A in fields]
              for lp in loops]
    assert np.array_equal(hols, np.asarray(single))


def test_convergence_probe_traces_match_wilson_trace():
    grid = GridSpec((1.0, 1.0, 1.0), (10, 10, 10))
    A0 = random_smooth(grid, su2(), seed=11, amplitude=0.3)
    traj = integrate(A0, FlowConfig(NEUMANN, dt_ceiling(grid), 0.04,
                                    snapshot_times=(0.005, 0.01, 0.02, 0.04)))
    loops = [_circle(0.2), _square(0.2)]
    probe = convergence_probe(traj, transport_many(traj.fields, loops, 32))
    expected = [[wilson_trace(F, lp, n_steps=32) for lp in loops]
                for F in traj.fields]
    assert np.array_equal(probe["traces"], np.asarray(expected))


@pytest.mark.parametrize("algebra", [su2, u1], ids=["SU2", "U1"])
@pytest.mark.parametrize("extents, shape", [
    ((1.0, 1.0, 1.0), (10, 10, 10)),
    ((1.0, 2.0, 3.0), (9, 11, 13)),
], ids=["cubic", "9x11x13"])
def test_interpolator_matches_scipy_bit_for_bit(algebra, extents, shape):
    from scipy.interpolate import RegularGridInterpolator

    grid = GridSpec(extents, shape)
    A = random_smooth(grid, algebra(), seed=23, amplitude=0.4)
    axes = [grid.axis_coords(a) for a in range(3)]
    vals = np.moveaxis(A.interior, 0, -2)
    scipy_interp = RegularGridInterpolator(
        axes, vals.reshape(shape + (-1,)), method="linear")
    interp = _FieldInterpolator([A])

    L = np.asarray(extents)
    rng = np.random.default_rng(8)
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    faces = rng.random((300, 3)) * L
    axis = rng.integers(0, 3, len(faces))
    faces[np.arange(len(faces)), axis] = rng.integers(0, 2, len(faces)) * L[axis]
    corners = np.array(list(itertools.product(*[(0.0, x) for x in L])))
    for points in (rng.random((2000, 3)) * L, nodes.reshape(-1, 3),
                   faces, corners):
        assert np.array_equal(interp(points), scipy_interp(points))

    for bad in ([0.5, L[1] * (1 + 1e-12), 0.5], [0.5, 0.5, np.nan]):
        points = np.array([[0.5, 0.5, 0.5], bad])
        for f in (interp, scipy_interp):
            with pytest.raises(ValueError):
                f(points)


@settings(max_examples=40, deadline=None)
@given(n_fields=st.integers(1, 5),
       shape=st.tuples(*[st.integers(8, 14)] * 3),
       extents=st.tuples(*[st.floats(0.5, 3.0)] * 3),
       algebra=st.sampled_from([su2, u1]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_interpolator_reads_each_field_as_alone(n_fields, shape,
                                                        extents, algebra,
                                                        seed):
    """One interpolator over a run's fields gives each field the bits of
    its own one-field interpolator, and of SciPy's on that field."""
    from scipy.interpolate import RegularGridInterpolator

    grid, rng = GridSpec(extents, shape), np.random.default_rng(seed)
    fields = [KForm(1, grid, algebra()) for _ in range(n_fields)]
    for A in fields:
        A.values[...] = rng.standard_normal(A.values.shape)
    axes = [grid.axis_coords(a) for a in range(3)]
    L = np.asarray(extents)
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    faces = rng.random((300, 3)) * L
    axis = rng.integers(0, 3, len(faces))
    faces[np.arange(len(faces)), axis] = rng.integers(0, 2, len(faces)) * L[axis]
    points = np.concatenate([rng.random((500, 3)) * L, nodes.reshape(-1, 3),
                             faces])
    vels = rng.standard_normal(points.shape)

    interp = _FieldInterpolator(fields)
    values = interp(points).reshape(len(points), n_fields, -1)
    along = interp.along(points, vels)
    assert along.shape == (n_fields, len(points), fields[0].algebra.dim)
    for f, A in enumerate(fields):
        assert np.array_equal(along[f],
                              _FieldInterpolator([A]).along(points, vels)[0])
        scipy_interp = RegularGridInterpolator(
            axes, np.moveaxis(A.interior, 0, -2).reshape(shape + (-1,)),
            method="linear")
        assert np.array_equal(values[:, f], scipy_interp(points))


def test_one_u1_field_is_read_through_a_view(abelian):
    """`line_integral`'s one-field interpolator copies no U(1) values: a
    single field is not stacked, and its reshape only views it."""
    interp = _FieldInterpolator([abelian])
    assert np.shares_memory(interp.values, abelian.values)
    assert interp.shape == (1, 3, 1)
