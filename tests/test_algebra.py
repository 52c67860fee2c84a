import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ymheat.algebra import su2, u1

from paper_checks import (algebra_norm, basis, group_exp, inner, to_coeffs,
                          to_matrices)

vec3 = st.lists(st.floats(-5, 5), min_size=3, max_size=3).map(np.array)


def test_su2_basis_orthonormal(su2_alg):
    g = np.array(
        [[inner(su2_alg, x, y) for y in basis(su2_alg)]
         for x in basis(su2_alg)]
    )
    assert np.allclose(g, np.eye(3), atol=1e-14)


def test_u1_basis_orthonormal(u1_alg):
    b = basis(u1_alg)[0]
    assert abs(inner(u1_alg, b, b) - 1.0) < 1e-15


def test_coeff_matrix_roundtrip(su2_alg, rng):
    x = rng.standard_normal((4, 5, 3))
    back = to_coeffs(su2_alg, to_matrices(su2_alg, x))
    assert np.allclose(back, x, atol=1e-13)


@settings(max_examples=50, deadline=None)
@given(vec3, vec3)
def test_bracket_antisymmetry(x, y):
    alg = su2()
    assert np.allclose(alg.bracket(x, y), -alg.bracket(y, x), atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(vec3, vec3, vec3)
def test_jacobi_identity(x, y, z):
    alg = su2()
    s = (
        alg.bracket(x, alg.bracket(y, z))
        + alg.bracket(y, alg.bracket(z, x))
        + alg.bracket(z, alg.bracket(x, y))
    )
    assert np.max(np.abs(s)) < 1e-9 * max(
        1.0, np.max(np.abs(x)) * np.max(np.abs(y)) * np.max(np.abs(z))
    )


def test_bracket_matches_matrix_commutator(su2_alg, rng):
    for shape in [(3,), (4, 5, 3)]:
        x = rng.standard_normal(shape)
        y = rng.standard_normal(shape)
        mx, my = to_matrices(su2_alg, x), to_matrices(su2_alg, y)
        comm = mx @ my - my @ mx
        assert np.allclose(
            to_matrices(su2_alg, su2_alg.bracket(x, y)), comm, atol=1e-13
        )


def test_u1_bracket_vanishes(u1_alg, rng):
    x = rng.standard_normal((7, 1))
    y = rng.standard_normal((7, 1))
    assert np.max(np.abs(u1_alg.bracket(x, y))) == 0.0


@settings(max_examples=30, deadline=None)
@given(vec3)
def test_exp_is_unitary_with_unit_determinant(x):
    alg = su2()
    g = group_exp(alg, x)
    assert np.allclose(g @ g.conj().T, np.eye(2), atol=1e-12)
    assert abs(np.linalg.det(g) - 1.0) < 1e-12


def test_exp_small_angle_linearization(su2_alg):
    x = np.array([1e-6, -2e-6, 0.5e-6])
    g = group_exp(su2_alg, x)
    lin = np.eye(2) + to_matrices(su2_alg, x)
    assert np.max(np.abs(g - lin)) < 1e-11


def test_commutator_constants():
    assert su2().c == 1.0
    assert u1().c == 0.0


def test_commutator_bound_is_sharp_on_maximizer(su2_alg, u1_alg, rng):
    for alg in (su2_alg, u1_alg):
        # unit basis vectors: e0, e1 for SU2 (their bracket is -e2), and
        # (e0, e0) for the abelian U1
        e = np.eye(alg.dim)
        x, y = (e[0], e[1]) if alg.group_id == "SU2" else (e[0], e[0])
        assert np.linalg.norm(x) == 1.0 and np.linalg.norm(y) == 1.0
        if alg.dim > 1:
            assert x @ y == 0.0
        assert np.linalg.norm(alg.bracket(x, y)) == alg.c
        # and c bounds the bracket of every pair
        x, y = rng.standard_normal((2, 200, alg.dim))
        nb = algebra_norm(alg, alg.bracket(x, y))
        assert np.all(nb <= alg.c * algebra_norm(alg, x)
                      * algebra_norm(alg, y) * (1 + 1e-12))


def test_norm_matches_matrix_inner(su2_alg, rng):
    x = rng.standard_normal(3)
    m = to_matrices(su2_alg, x)
    assert abs(algebra_norm(su2_alg, x)
               - math.sqrt(inner(su2_alg, m, m))) < 1e-12
