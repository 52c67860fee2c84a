import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ymheat.algebra import su2, u1
from ymheat.calculus import (
    bochner_laplacian,
    contraction_bracket,
    curvature,
    d_cov,
    dstar_cov,
    weitzenbock_defect,
)
from ymheat.fields import random_smooth
from ymheat.grid import (
    COMPONENT_AXES,
    NEUMANN,
    GridSpec,
    KForm,
    apply_boundary,
)

from paper_checks import (
    DIRICHLET,
    MARINI,
    gauge_transform,
    gauge_transform_form,
    group_exp,
    max_interior_norm,
    meshgrid,
    to_coeffs,
    to_matrices,
)


def _dot(a, b):
    """Plain nodal inner product over non-ghost nodes."""
    return float(np.sum(a.interior * b.interior))


def test_requires_ghost_fill(unit_grid, su2_alg):
    A = KForm(1, unit_grid, su2_alg)
    with pytest.raises(ValueError, match="ghost"):
        curvature(A)


def test_abelian_linear_field_curvature_exact(unit_grid, u1_alg):
    # A = (0, x, 0): B_12 = dA_2/dx = 1 at every node, other planes zero
    A = KForm(1, unit_grid, u1_alg)
    X, _, _ = meshgrid(unit_grid, ghosts=True)
    A.values[1, ..., 0] = X
    B = curvature(apply_boundary(A, MARINI))
    inner = B.values[:, 2:-2, 2:-2, 2:-2, 0]
    assert np.allclose(inner[0], 1.0, atol=1e-13)
    assert np.allclose(inner[1], 0.0, atol=1e-13)
    assert np.allclose(inner[2], 0.0, atol=1e-13)


def test_curvature_antisymmetric_source(unit_grid, su2_alg):
    # swapping the two 1-forms in the bracket flips the bracket term
    A = apply_boundary(
        random_smooth(unit_grid, su2_alg, seed=2, amplitude=0.4), NEUMANN
    )
    B = curvature(A)
    B_neg = curvature(apply_boundary(-1.0 * A, NEUMANN))
    lin = 0.5 * (B + B_neg)  # survives: only the quadratic bracket term
    quad = 0.5 * (B + (-1.0) * B_neg)
    two_forms = KForm(2, unit_grid, su2_alg)
    for (i, j), ci in {(0, 1): 0, (0, 2): 1, (1, 2): 2}.items():
        two_forms.values[ci] = su2_alg.bracket(A.values[i], A.values[j])
    assert np.allclose(lin.interior, two_forms.interior, atol=1e-12)
    assert quad.norm("Linf") > 0


@pytest.mark.parametrize("degree", [1, 2])
def test_d_dstar_adjointness(unit_grid, su2_alg, degree):
    A = apply_boundary(
        random_smooth(unit_grid, su2_alg, seed=3, amplitude=0.3), NEUMANN
    )
    alpha = apply_boundary(
        random_smooth(unit_grid, su2_alg, seed=4, degree=degree - 1,
                      amplitude=1.0), NEUMANN
    )
    beta = apply_boundary(
        random_smooth(unit_grid, su2_alg, seed=5, degree=degree,
                      amplitude=1.0), NEUMANN
    )
    lhs = _dot(d_cov(A, alpha), beta)
    rhs = _dot(alpha, dstar_cov(A, beta))
    assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)


def test_bianchi_residual_second_order(su2_alg):
    res = {}
    for n in (12, 24):
        g = GridSpec((1.0, 1.0, 1.0), (n, n, n))
        A = apply_boundary(
            random_smooth(g, su2_alg, seed=6, amplitude=0.3, n_modes=2),
            NEUMANN,
        )
        B = apply_boundary(curvature(A), NEUMANN)
        res[n] = max_interior_norm(d_cov(A, B), 1)
    # doubling the resolution must shrink d_A B by roughly 4x
    assert res[24] < 0.45 * res[12]


def test_bochner_eigenmode_exact(unit_grid, u1_alg):
    # zero connection, tangential cosine: compact stencil eigenvalue is
    # -(2 - 2 cos(k h))/h^2 exactly at interior nodes
    h = unit_grid.spacing[0]
    k = np.pi
    A = apply_boundary(KForm(1, unit_grid, u1_alg), NEUMANN)
    w = KForm(1, unit_grid, u1_alg)
    X, Y, _ = meshgrid(unit_grid, ghosts=True)
    # component 1 must vanish on the y faces (normal) and be even in x
    w.values[1, ..., 0] = np.cos(k * X) * np.sin(k * Y)
    wf = apply_boundary(w, NEUMANN)
    lap = bochner_laplacian(A, wf)
    lam = (2.0 - 2.0 * np.cos(k * h)) / (h * h)
    ref = -2.0 * lam * wf.values[1, 1:-1, 1:-1, 1:-1, 0]
    assert np.allclose(lap.values[1, 1:-1, 1:-1, 1:-1, 0], ref, atol=1e-10)


def test_weitzenbock_defect_no_derivatives(su2_alg):
    # the defect is pointwise-algebraic: its size must not grow under
    # refinement on a fixed smooth field (stencil residual only shrinks)
    vals = {}
    for n in (12, 24):
        g = GridSpec((1.0, 1.0, 1.0), (n, n, n))
        A = apply_boundary(
            random_smooth(g, su2_alg, seed=8, amplitude=0.3, n_modes=2),
            NEUMANN,
        )
        B = apply_boundary(curvature(A), NEUMANN)
        full = weitzenbock_defect(A, B)
        vals[n] = max_interior_norm(full, 2)
    assert vals[24] < vals[12] * 1.5 + 1e-6


def test_weitzenbock_defect_vanishes_abelian(u1_alg):
    # abelian: all curvature brackets vanish, so only the second-order
    # stencil residual remains and must quarter under grid doubling
    vals = {}
    for n in (12, 24):
        g = GridSpec((1.0, 1.0, 1.0), (n, n, n))
        A = apply_boundary(
            random_smooth(g, u1_alg, seed=9, amplitude=0.5, n_modes=2),
            NEUMANN,
        )
        w = apply_boundary(
            random_smooth(g, u1_alg, seed=10, degree=2, amplitude=1.0,
                          n_modes=2),
            NEUMANN,
        )
        vals[n] = max_interior_norm(weitzenbock_defect(A, w), 2)
    assert vals[24] < 0.45 * vals[12]


def test_contraction_bracket_bilinear(unit_grid, su2_alg):
    a = random_smooth(unit_grid, su2_alg, seed=11, amplitude=1.0)
    B = random_smooth(unit_grid, su2_alg, seed=12, degree=2, amplitude=1.0)
    c1 = contraction_bracket(2.0 * a, B)
    c2 = contraction_bracket(a, 2.0 * B)
    c3 = contraction_bracket(a, B)
    assert np.allclose(c1.values, 2.0 * c3.values, atol=1e-13)
    assert np.allclose(c2.values, 2.0 * c3.values, atol=1e-13)


def test_contraction_bracket_abelian_zero(unit_grid, u1_alg):
    a = random_smooth(unit_grid, u1_alg, seed=13, amplitude=1.0)
    B = random_smooth(unit_grid, u1_alg, seed=14, degree=2, amplitude=1.0)
    assert contraction_bracket(a, B).norm("Linf") == 0.0


def _pure_gauge(grid, alg, seed=15):
    """Smooth group-valued field supported away from the faces."""
    theta = random_smooth(grid, alg, seed=seed, degree=0, amplitude=0.3)
    return group_exp(alg, theta.values[0]), theta


def test_gauge_transform_curvature_equivariance(su2_alg):
    res = {}
    for n in (12, 24):
        g = GridSpec((1.0, 1.0, 1.0), (n, n, n))
        A = apply_boundary(
            random_smooth(g, su2_alg, seed=16, amplitude=0.3, n_modes=2),
            NEUMANN,
        )
        k, _ = _pure_gauge(g, su2_alg)
        Ak = apply_boundary(gauge_transform(A, k), NEUMANN)
        Bk = curvature(Ak)
        B_conj = gauge_transform_form(curvature(A), k)
        res[n] = max_interior_norm(Bk + (-1.0) * B_conj, 2)
    assert res[24] < 0.45 * res[12]  # second-order equivariance defect


def test_gauge_transform_rejects_nonunitary(unit_grid, su2_alg):
    A = KForm(1, unit_grid, su2_alg)
    k = np.full(unit_grid.padded_shape + (2, 2), 2.0, dtype=complex)
    with pytest.raises(ValueError, match="unitary"):
        gauge_transform(A, k)


def test_u1_pure_gauge_is_gradient(unit_grid, u1_alg):
    # transforming A = 0 by exp(i theta) gives i d(theta) to O(h^2)
    k, theta = _pure_gauge(unit_grid, u1_alg, seed=17)
    A0 = KForm(1, unit_grid, u1_alg)
    Ak = gauge_transform(A0, k)
    h = unit_grid.spacing
    for j in range(3):
        grad = np.gradient(theta.values[0][..., 0], h[j], axis=j)
        dev = np.abs(Ak.values[j, 2:-2, 2:-2, 2:-2, 0]
                     - grad[2:-2, 2:-2, 2:-2])
        assert dev.max() < 20.0 * h[j] ** 2


# -- bit-for-bit references --------------------------------------------------
# The plain evaluation of each operator's formula: full-size derivative
# arrays, the su(2) bracket as np.cross and the u(1) bracket as zeros, and
# a ghost fill one component and one face at a time.  The operators must
# reproduce these bits exactly.

_AXES = {p: {axes: i for i, axes in enumerate(c)}
         for p, c in COMPONENT_AXES.items()}
_CTR = (slice(1, -1),) * 3


def _ref_bracket(alg, x, y):
    if alg.group_id == "SU2":
        return np.cross(y, x)
    return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))


def _ref_diff(f, axis, h, second=False):
    out = np.zeros_like(f)
    plus, minus = list(_CTR), list(_CTR)
    plus[axis] = slice(2, None)
    minus[axis] = slice(0, -2)
    plus, minus = tuple(plus), tuple(minus)
    if second:
        out[_CTR] = (f[plus] - 2.0 * f[_CTR] + f[minus]) / (h * h)
    else:
        out[_CTR] = (f[plus] - f[minus]) / (2.0 * h)
    return out


def _ref_fill(omega, bc):
    out = omega.copy()
    v = out.values
    comps = COMPONENT_AXES[omega.degree]

    def sl(ci, ax, idx):
        s = [ci] + [slice(1, -1)] * 3 + [slice(None)]
        s[ax] = idx
        return tuple(s)

    for ci, axes in enumerate(comps):
        for a in range(3):
            if bc.parity(omega.degree, axes, a) < 0:
                v[sl(ci, a + 1, 1)] = 0.0
                v[sl(ci, a + 1, -2)] = 0.0
    for ci, axes in enumerate(comps):
        for a in range(3):
            p = bc.parity(omega.degree, axes, a)
            v[sl(ci, a + 1, 0)] = p * v[sl(ci, a + 1, 2)]
            v[sl(ci, a + 1, -1)] = p * v[sl(ci, a + 1, -3)]
    out.bc = bc
    return out


def _ref_curvature(A):
    h, alg = A.grid.spacing, A.algebra
    B = KForm(2, A.grid, alg)
    for (i, j), ci in _AXES[2].items():
        B.values[ci] = (_ref_diff(A.values[j], i, h[i])
                        - _ref_diff(A.values[i], j, h[j])
                        + _ref_bracket(alg, A.values[i], A.values[j]))
    return B


def _ref_d_cov(A, omega):
    p, h, alg = omega.degree, omega.grid.spacing, omega.algebra
    out = KForm(p + 1, omega.grid, alg)
    for J, cj in _AXES[p + 1].items():
        acc = np.zeros_like(out.values[cj])
        for pos, k in enumerate(J):
            w = omega.values[_AXES[p][tuple(a for a in J if a != k)]]
            sign = -1.0 if pos % 2 else 1.0
            acc += sign * (_ref_diff(w, k, h[k])
                           + _ref_bracket(alg, A.values[k], w))
        out.values[cj] = acc
    return out


def _ref_dstar_cov(A, omega):
    p, h, alg = omega.degree, omega.grid.spacing, omega.algebra
    out = KForm(p - 1, omega.grid, alg)
    for I, ci in _AXES[p - 1].items():
        acc = np.zeros_like(out.values[ci])
        for k in (k for k in range(3) if k not in I):
            J = tuple(sorted(I + (k,)))
            sign = -1.0 if J.index(k) % 2 else 1.0
            w = omega.values[_AXES[p][J]]
            acc -= sign * (_ref_diff(w, k, h[k])
                           + _ref_bracket(alg, A.values[k], w))
        out.values[ci] = acc
    return out


def _ref_bochner(A, omega):
    h, alg = omega.grid.spacing, omega.algebra
    out = KForm(omega.degree, omega.grid, alg)
    dA = [_ref_diff(A.values[j], j, h[j]) for j in range(3)]
    for ci in range(omega.values.shape[0]):
        w = omega.values[ci]
        acc = np.zeros_like(w)
        for j in range(3):
            Aj = A.values[j]
            acc += _ref_diff(w, j, h[j], second=True)
            acc += _ref_bracket(alg, dA[j], w)
            acc += 2.0 * _ref_bracket(alg, Aj, _ref_diff(w, j, h[j]))
            acc += _ref_bracket(alg, Aj, _ref_bracket(alg, Aj, w))
        out.values[ci] = acc
    return out


def _ref_weitzenbock(A, omega):
    bc = omega.bc
    hodge = _ref_dstar_cov(A, _ref_fill(_ref_d_cov(A, omega), bc))
    hodge = hodge + _ref_d_cov(A, _ref_fill(_ref_dstar_cov(A, omega), bc))
    out = KForm(omega.degree, omega.grid, omega.algebra)
    out.values[...] = -hodge.values - _ref_bochner(A, omega).values
    return out


def _ref_contraction(alpha, B):
    alg = alpha.algebra
    out = KForm(1, alpha.grid, alg)
    for j in range(3):
        acc = np.zeros_like(out.values[j])
        for i in range(3):
            if i < j:
                acc += _ref_bracket(alg, alpha.values[i],
                                    B.values[_AXES[2][(i, j)]])
            elif i > j:
                acc -= _ref_bracket(alg, alpha.values[i],
                                    B.values[_AXES[2][(j, i)]])
        out.values[j] = acc
    return out


_BOX = GridSpec((1.0, 2.0, 3.0), (9, 11, 13))
_ALGEBRAS = {"SU2": su2(), "U1": u1()}
_BCS = {"dirichlet": DIRICHLET, "neumann": NEUMANN, "marini": MARINI}


def _noise(degree, alg, seed):
    """A form with every entry, ghosts included, drawn at random."""
    w = KForm(degree, _BOX, alg)
    w.values[...] = np.random.default_rng(seed).standard_normal(
        w.values.shape)
    return w


@pytest.mark.parametrize("bc", sorted(_BCS))
@pytest.mark.parametrize("group", sorted(_ALGEBRAS))
def test_operators_match_plain_evaluation_bit_for_bit(group, bc):
    alg, bc = _ALGEBRAS[group], _BCS[bc]
    A = apply_boundary(_noise(1, alg, 1), bc)
    B = apply_boundary(_noise(2, alg, 2), bc)
    cases = [
        (curvature(A), _ref_curvature(A)),
        (contraction_bracket(A, B), _ref_contraction(A, B)),
    ]
    for p in (1, 2):
        w = apply_boundary(_noise(p, alg, 3 + p), bc)
        cases += [
            (d_cov(A, w), _ref_d_cov(A, w)),
            (dstar_cov(A, w), _ref_dstar_cov(A, w)),
            (bochner_laplacian(A, w), _ref_bochner(A, w)),
            (weitzenbock_defect(A, w), _ref_weitzenbock(A, w)),
        ]
    w0 = apply_boundary(_noise(0, alg, 6), bc)
    cases.append((d_cov(A, w0), _ref_d_cov(A, w0)))
    for got, ref in cases:
        assert np.array_equal(got.interior, ref.interior)


def _ref_gauge_transform(A, k):
    """k^-1 A k + k^-1 dk with dk a full-size derivative array."""
    alg, h = A.algebra, A.grid.spacing
    kh = np.conj(np.swapaxes(k, -1, -2))
    out = KForm(1, A.grid, alg)
    for j in range(3):
        conj = np.einsum("...ab,...bc,...cd->...ad", kh,
                         to_matrices(alg, A.values[j]), k)
        maurer = np.einsum("...ab,...bc->...ac", kh, _ref_diff(k, j, h[j]))
        out.values[j] = to_coeffs(alg, conj + maurer)
    return out


@pytest.mark.parametrize("group", sorted(_ALGEBRAS))
def test_gauge_transform_matches_plain_evaluation_bit_for_bit(group):
    alg = _ALGEBRAS[group]
    A = _noise(1, alg, 9)
    k = group_exp(alg, _noise(0, alg, 10).values[0])
    assert np.array_equal(gauge_transform(A, k).interior,
                          _ref_gauge_transform(A, k).interior)


@pytest.mark.parametrize("bc", sorted(_BCS))
@pytest.mark.parametrize("group", sorted(_ALGEBRAS))
def test_operators_leave_ghosts_zero(group, bc):
    # the inputs' edge and corner ghosts, which no fill writes, stay noise
    alg, bc = _ALGEBRAS[group], _BCS[bc]
    A = apply_boundary(_noise(1, alg, 11), bc)
    w = {p: apply_boundary(_noise(p, alg, 12 + p), bc) for p in range(4)}
    outs = [curvature(A), contraction_bracket(A, w[2])]
    outs += [d_cov(A, w[p]) for p in (0, 1, 2)]
    outs += [dstar_cov(A, w[p]) for p in (1, 2, 3)]
    for p in (1, 2):
        outs += [bochner_laplacian(A, w[p]), weitzenbock_defect(A, w[p])]
    ghosts = np.ones(_BOX.padded_shape, bool)
    ghosts[_CTR] = False
    for out in outs:
        assert not np.any(out.values[:, ghosts])


def test_operator_output_must_be_c_contiguous(unit_grid, su2_alg):
    A = apply_boundary(random_smooth(unit_grid, su2_alg, seed=1), NEUMANN)
    B = KForm(2, unit_grid, su2_alg)
    fortran = KForm(2, unit_grid, su2_alg, np.asfortranarray(B.values))
    with pytest.raises(ValueError, match="C-contiguous"):
        curvature(A, out=fortran)
    assert np.array_equal(curvature(A, out=B).values, curvature(A).values)


@settings(max_examples=50, deadline=None)
@given(shape=st.tuples(*[st.integers(8, 20)] * 3),
       extents=st.tuples(*[st.floats(0.5, 3.0)] * 3),
       group=st.sampled_from(sorted(_ALGEBRAS)),
       bc=st.sampled_from(sorted(_BCS)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_operators_match_plain_evaluation_on_any_box(shape, extents, group,
                                                     bc, seed):
    # the run's bounds and each axis's node offset follow the box's shape
    grid, alg, bc = GridSpec(extents, shape), _ALGEBRAS[group], _BCS[bc]
    rng = np.random.default_rng(seed)

    def noise(p):
        w = KForm(p, grid, alg)
        w.values[...] = rng.standard_normal(w.values.shape)
        return apply_boundary(w, bc)

    A = noise(1)
    cases = [(curvature(A), _ref_curvature(A))]
    for p in (0, 1, 2):
        w = noise(p)
        cases.append((d_cov(A, w), _ref_d_cov(A, w)))
    for p in (1, 2, 3):
        w = noise(p)
        cases.append((dstar_cov(A, w), _ref_dstar_cov(A, w)))
    for p in (1, 2):
        w = noise(p)
        cases += [
            (bochner_laplacian(A, w), _ref_bochner(A, w)),
            (weitzenbock_defect(A, w), _ref_weitzenbock(A, w)),
        ]
    for got, ref in cases:
        assert np.array_equal(got.interior, ref.interior)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("bc", sorted(_BCS))
@pytest.mark.parametrize("group", sorted(_ALGEBRAS))
def test_ghost_fill_matches_per_component_fill(group, bc, degree):
    w = _noise(degree, _ALGEBRAS[group], 7 + degree)
    got = apply_boundary(w, _BCS[bc])
    ref = _ref_fill(w, _BCS[bc])
    assert got.bc == ref.bc
    assert np.array_equal(got.values, ref.values)


def test_su2_bracket_is_np_cross_bit_for_bit(su2_alg, rng):
    A = _noise(1, su2_alg, 8)
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    stack = rng.standard_normal((4, 5, 3))
    for a, b in ((x, y), (stack, x), (x, stack),
                 (A.values[0], A.values[2])):
        assert np.array_equal(su2_alg.bracket(a, b), np.cross(b, a))
