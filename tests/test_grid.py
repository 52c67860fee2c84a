import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ymheat.algebra import su2, u1
from ymheat.fields import coulomb_cosine, edge_bump, random_smooth
from ymheat.grid import (
    COMPONENT_AXES,
    NEUMANN,
    BoundarySpec,
    GridSpec,
    KForm,
    apply_boundary,
)

from paper_checks import DIRICHLET, MARINI, meshgrid


def test_spacing_and_volume():
    g = GridSpec((2.0, 1.0, 0.5), (9, 17, 11))
    assert g.spacing == (0.25, 0.0625, 0.05)
    assert g.volume == 1.0
    assert g.padded_shape == (11, 19, 13)


def test_rejects_tiny_grids():
    with pytest.raises(ValueError):
        GridSpec((1.0, 1.0, 1.0), (4, 16, 16))


def test_axis_coords_hit_both_faces():
    g = GridSpec((3.0, 1.0, 1.0), (13, 9, 9))
    x = g.axis_coords(0)
    assert x[0] == 0.0 and x[-1] == 3.0
    xg = g.axis_coords(0, ghosts=True)
    assert len(xg) == 15 and np.isclose(xg[0], -g.spacing[0])


def test_trapezoid_weights_integrate_constants():
    g = GridSpec((2.0, 3.0, 0.5), (9, 9, 9))
    assert np.isclose(g.trapezoid_weights.sum(), g.volume, rtol=1e-14)


def test_unknown_boundary_kind():
    with pytest.raises(ValueError):
        BoundarySpec("periodic")


def test_boundary_spec_is_a_lowercase_value():
    assert BoundarySpec("neumann") == NEUMANN != DIRICHLET
    assert hash(BoundarySpec("neumann")) == hash(NEUMANN)
    assert repr(NEUMANN) == "BoundarySpec(kind='neumann')"
    with pytest.raises(ValueError):
        BoundarySpec("Neumann")


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_parity_tables(degree):
    for bc in (NEUMANN, DIRICHLET, MARINI):
        for axes in COMPONENT_AXES[degree]:
            for a in range(3):
                p = bc.parity(degree, axes, a)
                assert p in (-1, 1)
                normal = a in axes
                if bc is NEUMANN:
                    assert p == (-1 if normal else 1)
                elif bc is DIRICHLET:
                    assert p == (1 if normal else -1)
                elif degree == 1:
                    assert p == 1


def test_kform_shape_and_arithmetic(unit_grid, su2_alg, rng):
    a = KForm(1, unit_grid, su2_alg)
    assert a.values.shape == (3,) + unit_grid.padded_shape + (3,)
    a.values[:] = rng.standard_normal(a.values.shape)
    b = 2.0 * a + a * (-1.0)
    assert np.allclose(b.values, a.values)
    assert np.allclose((-a + a).values, 0.0)


def test_kform_incompatible_grids(su2_alg):
    a = KForm(1, GridSpec((1, 1, 1), (8, 8, 8)), su2_alg)
    b = KForm(1, GridSpec((1, 1, 1), (9, 9, 9)), su2_alg)
    with pytest.raises(ValueError):
        a + b


def test_apply_boundary_zeroes_odd_faces(unit_grid, su2_alg, rng):
    a = KForm(1, unit_grid, su2_alg)
    a.values[:] = rng.standard_normal(a.values.shape)
    an = apply_boundary(a, NEUMANN)
    # normal component of a 1-form vanishes on the matching faces
    assert np.max(np.abs(an.values[0, 1, 1:-1, 1:-1, :])) == 0.0
    assert np.max(np.abs(an.values[0, -2, 1:-1, 1:-1, :])) == 0.0
    assert np.max(np.abs(an.values[2, 1:-1, 1:-1, -2, :])) == 0.0
    # tangential components keep their face values
    assert np.max(np.abs(an.values[1, 1, 1:-1, 1:-1, :])) > 0.0


def test_apply_boundary_mirror_parity(unit_grid, su2_alg, rng):
    a = KForm(1, unit_grid, su2_alg)
    a.values[:] = rng.standard_normal(a.values.shape)
    an = apply_boundary(a, NEUMANN)
    # odd: ghost = -mirror; even: ghost = +mirror
    assert np.allclose(
        an.values[0, 0, 1:-1, 1:-1], -an.values[0, 2, 1:-1, 1:-1]
    )
    assert np.allclose(
        an.values[1, 0, 1:-1, 1:-1], an.values[1, 2, 1:-1, 1:-1]
    )


def test_apply_boundary_idempotent(unit_grid, su2_alg, rng):
    a = KForm(2, unit_grid, su2_alg)
    a.values[:] = rng.standard_normal(a.values.shape)
    once = apply_boundary(a, DIRICHLET)
    twice = apply_boundary(once, DIRICHLET)
    assert np.array_equal(once.values, twice.values)


def test_apply_boundary_preserves_interior(unit_grid, su2_alg, rng):
    a = KForm(1, unit_grid, su2_alg)
    a.values[:] = rng.standard_normal(a.values.shape)
    an = apply_boundary(a, MARINI)
    # Marini leaves every degree-1 face value intact (even parity)
    assert np.array_equal(
        an.values[:, 2:-2, 2:-2, 2:-2], a.values[:, 2:-2, 2:-2, 2:-2]
    )
    assert np.array_equal(
        an.values[0, 1, 1:-1, 1:-1], a.values[0, 1, 1:-1, 1:-1]
    )


def test_norms_on_constant_field(unit_grid, u1_alg):
    a = KForm(0, unit_grid, u1_alg)
    a.values[..., 0] = 3.0
    assert np.isclose(a.norm("Linf"), 3.0)
    assert np.isclose(a.norm("L2"), 3.0)  # unit volume


def test_l2_scales_with_volume():
    g = GridSpec((2.0, 2.0, 2.0), (12, 12, 12))
    a = random_smooth(g, seed=5, amplitude=0.3)
    b = KForm(1, g, a.algebra, 2.0 * a.values)
    assert np.isclose(b.norm("L2"), 2.0 * a.norm("L2"), rtol=1e-13)


@settings(max_examples=40, deadline=None)
@given(degree=st.integers(0, 3), algebra=st.sampled_from([u1, su2]),
       shape=st.tuples(*[st.integers(8, 40)] * 3),
       log_range=st.tuples(*[st.floats(-150, 150)] * 2),
       zeros=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_pointwise_norm_has_the_bits_of_the_numpy_sum(degree, algebra, shape,
                                                      log_range, zeros, seed):
    """The per-node norm sums each component's algebra coefficients, then
    the components, exactly as NumPy's two-axis sum does; summing over
    the components first moves bits on SU(2) 1- and 2-forms."""
    rng = np.random.default_rng(seed)
    w = KForm(degree, GridSpec((1.0, 1.0, 1.0), shape), algebra())
    lo, hi = sorted(log_range)
    v = rng.standard_normal(w.values.shape)
    v *= 10.0 ** rng.uniform(lo, hi, v.shape)
    v[rng.random(v.shape) < zeros] = 0.0
    w.values[...] = v
    reference = np.sqrt(np.sum(np.square(w.interior), axis=(0, -1)))
    assert np.array_equal(w.pointwise_norm(), reference)


def _on_the_meshgrid(grid, alg, seed, degree, amplitude=0.3):
    """edge_bump, then random_smooth's values with three modes, evaluated
    with every sin and cos taken at every padded node."""
    X, Y, Z = meshgrid(grid, ghosts=True)
    w = np.ones_like(X)
    for coord, L in zip((X, Y, Z), grid.extents):
        w = w * np.sin(np.pi * np.clip(coord, 0.0, L) / L) ** 3
    rng = np.random.default_rng(seed)
    values = np.zeros((len(COMPONENT_AXES[degree]), *X.shape, alg.dim))
    for ci in range(len(values)):
        for d in range(alg.dim):
            acc = np.zeros_like(X)
            for _ in range(3):
                k = rng.uniform(0.5, 1.5, 3) * np.pi
                ph = rng.uniform(0, 2 * np.pi, 3)
                c = rng.standard_normal()
                acc += c * np.cos(k[0] * X + ph[0]) * np.cos(
                    k[1] * Y + ph[1]) * np.cos(k[2] * Z + ph[2])
            values[ci, ..., d] = acc * w
    values *= amplitude / np.max(np.sqrt(np.sum(values ** 2, axis=(0, -1))))
    return w, values


@pytest.mark.parametrize("extents, shape", [
    ((1.0, 1.0, 1.0), (12, 12, 12)),
    ((1.0, 1.3, 0.8), (16, 18, 14)),
    ((np.pi, np.pi, np.pi), (10, 10, 10)),
], ids=["unit", "16x18x14", "pi"])
def test_fields_from_axis_factors_have_the_meshgrid_bits(extents, shape):
    """Each field takes its sines and cosines on one axis's coordinates
    and broadcasts the products: the same bits as evaluating them on the
    full meshgrid, for the window, the random modes and the cosine mode."""
    grid = GridSpec(extents, shape)
    for alg in (u1(), su2()):
        for degree in (1, 2):
            for seed in range(3):
                w, values = _on_the_meshgrid(grid, alg, seed, degree)
                got = random_smooth(grid, alg, seed=seed, amplitude=0.3,
                                    degree=degree).values
                assert got.tobytes() == values.tobytes(), \
                    (alg.group_id, degree, seed)
    assert edge_bump(grid).tobytes() == w.tobytes()
    X, Y, _ = meshgrid(grid, ghosts=True)
    (L1, L2, _), a = grid.extents, 0.7
    k1, k2 = np.pi / L1, np.pi / L2
    A = coulomb_cosine(grid, amplitude=a).values
    assert A[0, ..., 0].tobytes() == (
        a * k2 * np.sin(k1 * X) * np.cos(k2 * Y)).tobytes()
    assert A[1, ..., 0].tobytes() == (
        -a * k1 * np.cos(k1 * X) * np.sin(k2 * Y)).tobytes()
