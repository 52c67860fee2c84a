"""Checks of the paper's lemmas and the helpers they need, run only by tests.

The Neumann composition and monotonicity lemmas, the evolution
identities of B and A', gauge covariance, the holonomy derivative bound
and the sandwich bounds of the washer's angular kernel integral: no
command, demo or benchmark calls them.  Each keeps its library
text, except that a method is a function taking its object first
(``group_exp``, ``algebra_norm``, ``reversed_path`` and ``path_length``
say whose) and library functions are called as module attributes
(``neumann._add_duhamel``), so a test that patches one reaches them.
``gauge_transform`` differentiates its complex group field into an
interior-shaped buffer with a strided central difference of its own.
The algebras' basis matrices live here too: the library holds algebra
elements as coefficients alone, and ``to_matrices`` (an einsum over the
basis) is the oracle of ``transport``'s closed-form generators, as
``meshgrid`` (every node's coordinates at full shape) is of the fields'
per-axis factors.
"""

from __future__ import annotations

import math

import numpy as np

from ymheat import calculus, flow, neumann, transport, washer
from ymheat.algebra import LieAlgebraSpec
from ymheat.flow import FlowTrajectory
from ymheat.grid import BoundarySpec, GridSpec, KForm
from ymheat.neumann import NeumannSemigroup
from ymheat.transport import Loop, Path, Segment

# -- algebra ------------------------------------------------------------------

PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# each group's generators, orthonormal under the inner product
# <m1, m2> = -scale * Re tr(m1 m2), and that scale
_BASES = {"U1": (np.array([[[1j]]]), 1.0), "SU2": (0.5j * PAULI, 2.0)}


def basis(alg: LieAlgebraSpec) -> np.ndarray:
    """Anti-hermitian basis matrices of the algebra, shape (dim, r, r)."""
    return _BASES[alg.group_id][0]


def to_matrices(alg: LieAlgebraSpec, coeffs):
    """Coefficient vectors (..., dim) -> matrices (..., r, r), an einsum
    over the basis: the oracle of `transport`'s closed-form generators."""
    return np.einsum("...i,iab->...ab", np.asarray(coeffs), basis(alg))


def inner(alg: LieAlgebraSpec, m1, m2):
    """Ad-invariant inner product of two algebra matrices."""
    scale = _BASES[alg.group_id][1]
    return -scale * np.real(np.einsum("...ij,...ji->...", m1, m2))


def to_coeffs(alg: LieAlgebraSpec, mats):
    """Matrices (..., r, r) -> coefficient vectors (..., dim)."""
    mats = np.asarray(mats, dtype=complex)
    return np.stack([inner(alg, mats, b) for b in basis(alg)], axis=-1)


def algebra_norm(alg: LieAlgebraSpec, coeffs):
    """Pointwise algebra norm of a coefficient array, shape (...,)."""
    return np.sqrt(np.sum(np.square(coeffs), axis=-1))


def group_exp(alg: LieAlgebraSpec, coeffs):
    """Group element exp(xi) for xi given by coefficients (..., dim)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if alg.group_id == "U1":
        # xi = i*a with a real; exp is the unit complex number e^{ia}.
        a = coeffs[..., 0]
        return np.exp(1j * a)[..., None, None]
    # SU2: xi = (i/2) a.sigma; exp = cos(|a|/2) I + i sin(|a|/2) ahat.sigma
    a = coeffs
    theta = np.sqrt(np.sum(a * a, axis=-1))
    pos = theta[..., None] > 0
    with np.errstate(invalid="ignore"):
        ahat = np.where(pos, a / np.where(pos, theta[..., None], 1.0), 0.0)
    eye = np.eye(2, dtype=complex)
    sig = np.einsum("...k,kab->...ab", ahat, PAULI)
    half = 0.5 * theta
    return (
        np.cos(half)[..., None, None] * eye
        + 1j * np.sin(half)[..., None, None] * sig
    )


# -- grid and tolerances ------------------------------------------------------

DIRICHLET = BoundarySpec("dirichlet")
MARINI = BoundarySpec("marini")


def meshgrid(grid: GridSpec, ghosts=False):
    """The three coordinate arrays of the grid's nodes (optionally with
    ghosts), each of the full shape: the fields' per-axis factors are
    pinned against evaluations on these."""
    axes = [grid.axis_coords(a, ghosts) for a in range(3)]
    return np.meshgrid(*axes, indexing="ij")


# slack constant for one-sided face-stencil quantities (normal
# derivatives, face Laplacians): tol = C_FACE * h^2
C_FACE = 10.0


def face_tol(h: float, scale: float = 1.0) -> float:
    """Slack for one-sided boundary-stencil comparisons at spacing h."""
    return scale * C_FACE * h * h


def max_interior_norm(form: KForm, margin=0):
    """Max |omega| over nodes at least `margin` cells from every face."""
    m = 1 + margin
    sub = form.values[:, m:-m, m:-m, m:-m, :]
    return float(np.max(np.sqrt(np.sum(np.square(sub), axis=(0, -1)))))


# -- calculus: gauge transforms -----------------------------------------------


def _conjugate(k_inv, k, mats):
    """k^-1 M k for matrix fields M, with k unitary so k^-1 = k^H."""
    return np.einsum("...ab,...bc,...cd->...ad", k_inv, mats, k)


_INTERIOR = (slice(1, -1),) * 3


def _central_difference(f, axis, h, out):
    """(f[i+1] - f[i-1]) / (2h) of a padded field at the interior nodes,
    written into the interior-shaped ``out``."""
    plus, minus = list(_INTERIOR), list(_INTERIOR)
    plus[axis] = slice(2, None)
    minus[axis] = slice(0, -2)
    np.subtract(f[tuple(plus)], f[tuple(minus)], out=out)
    out /= 2.0 * h
    return out


def gauge_transform(A: KForm, k: np.ndarray) -> KForm:
    """Gauge transform A^k = k^-1 A k + k^-1 dk of a connection 1-form.

    Parameters
    ----------
    A : KForm of degree 1
    k : complex ndarray, shape grid.padded_shape + (r, r)
        Group-valued 0-form sampled on all nodes including ghosts.

    The result has unfilled ghosts (bc is None).
    """
    if A.degree != 1:
        raise ValueError("gauge_transform expects a 1-form")
    alg = A.algebra
    k = np.asarray(k, dtype=complex)
    r = basis(alg).shape[-1]
    expected = A.grid.padded_shape + (r, r)
    if k.shape != expected:
        raise ValueError(f"group field shape {k.shape} != {expected}")
    kh = np.conj(np.swapaxes(k, -1, -2))
    dev = np.max(np.abs(np.einsum("...ab,...bc->...ac", kh, k)
                        - np.eye(r)))
    if dev > 1e-10:
        raise ValueError(f"group field not unitary (deviation {dev:.3e})")
    h = A.grid.spacing
    out = KForm(1, A.grid, alg)
    dk = np.empty(A.grid.shape + k.shape[-2:], dtype=complex)
    for j in range(3):
        M = to_matrices(alg, A.values[j])
        conj = _conjugate(kh, k, M)
        # the Maurer-Cartan term at the interior nodes
        conj[_INTERIOR] += np.einsum(
            "...ab,...bc->...ac", kh[_INTERIOR],
            _central_difference(k, j, h[j], dk))
        out.values[j] = to_coeffs(alg, conj)
    return out


def gauge_transform_form(omega: KForm, k: np.ndarray) -> KForm:
    """Pointwise conjugation k^-1 omega k for forms of any degree."""
    alg = omega.algebra
    k = np.asarray(k, dtype=complex)
    kh = np.conj(np.swapaxes(k, -1, -2))
    out = KForm(omega.degree, omega.grid, alg)
    for ci in range(omega.values.shape[0]):
        M = to_matrices(alg, omega.values[ci])
        out.values[ci] = to_coeffs(alg, _conjugate(kh, k, M))
    return out


# -- flow: the evolution identities -------------------------------------------


def verify_identities(traj: FlowTrajectory) -> dict:
    """Residuals of the evolution identities for B and A' along a trajectory.

    Central-difference time derivatives from >= 3 uniformly spaced
    snapshots are compared against the Bochner form of the right sides:
    dB/dt = sum_j (grad_j^A)^2 B + (curvature defect of B), and
    dA'/dt = sum_j (grad_j^A)^2 A' + defect(A') + [A' . B].
    Returns the max pointwise residual for each identity.
    """
    ts = traj.times
    if len(ts) < 3:
        raise ValueError("need at least 3 snapshots")
    gaps = np.diff(ts)
    if np.max(np.abs(gaps - gaps[0])) > 1e-10 * gaps[0]:
        raise ValueError("snapshots are not uniformly spaced")
    dt = gaps[0]
    bc = traj.config.bc
    rhs = flow._rhs_for(traj.config.variant)
    # (filled A, filled A', B) of each stored A, from one RHS call each
    states = []
    for f in traj.fields:
        Ap, B = rhs(f, bc)
        states.append((flow.apply_boundary(f, bc),
                       flow.apply_boundary(Ap, bc), B))

    res_B = res_Ap = 0.0
    for (_, Ap0, B0), (A, Ap, B), (_, Ap2, B2) in zip(states, states[1:],
                                                     states[2:]):
        Bdot = (1.0 / (2 * dt)) * (B2 - B0)
        rhs_B = (calculus.bochner_laplacian(A, B)
                 + calculus.weitzenbock_defect(A, B))
        res_B = max(res_B, max_interior_norm(Bdot - rhs_B, 1))

        Apdot = (1.0 / (2 * dt)) * (Ap2 - Ap0)
        rhs_Ap = (
            calculus.bochner_laplacian(A, Ap)
            + calculus.weitzenbock_defect(A, Ap)
            + calculus.contraction_bracket(Ap, B)
        )
        res_Ap = max(res_Ap, max_interior_norm(Apdot - rhs_Ap, 1))

    return {"B_identity_residual": res_B, "Ap_identity_residual": res_Ap}


# -- neumann: the monotonicity and composition lemmas -------------------------


def laplacian_apply(sg: NeumannSemigroup, f: np.ndarray) -> np.ndarray:
    """Spectral Neumann Laplacian of nodal values."""
    coeffs = neumann.dctn(np.asarray(f, dtype=float))
    return neumann.idctn(sg._neg_eigenvalues * coeffs)


def _one_sided_laplacian(psi: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Laplacian with 3-point interior stencils and one-sided face stencils."""
    out = np.zeros_like(psi)
    for a, h in enumerate(grid.spacing):
        p, o = np.moveaxis(psi, a, 0), np.moveaxis(out, a, 0)
        o[1:-1] += (p[2:] - 2 * p[1:-1] + p[:-2]) / h ** 2
        # one-sided 2nd-order second derivative at the two faces
        o[0] += (2 * p[0] - 5 * p[1] + 4 * p[2] - p[3]) / h ** 2
        o[-1] += (2 * p[-1] - 5 * p[-2] + 4 * p[-3] - p[-4]) / h ** 2
    return out


def _normal_derivatives(psi: np.ndarray, grid: GridSpec):
    """Outward normal derivative at every face node (one-sided, 2nd order)."""
    vals = []
    for a, h in enumerate(grid.spacing):
        p = np.moveaxis(psi, a, 0)
        # outward at the low face is -e_a
        vals.append(-((-3 * p[0] + 4 * p[1] - p[2]) / (2 * h)))
        vals.append((3 * p[-1] - 4 * p[-2] + p[-3]) / (2 * h))
    return vals


def monotone_lemma_check(sg: NeumannSemigroup, psi: np.ndarray, t: float,
                         tol: float = 1e-12) -> dict:
    """Margin of the monotonicity e^{t Lap_N} (Lap psi) <= Lap_N e^{t Lap_N} psi.

    Requires an inward-sloping psi (outward normal derivative <= tol at
    every face node); the left side uses one-sided face stencils for the
    plain Laplacian, the right side is fully spectral.
    """
    psi = np.asarray(psi, dtype=float)
    worst_normal = max(float(np.max(d)) for d in _normal_derivatives(psi, sg.grid))
    if worst_normal > max(tol, 1e-12):
        raise ValueError(
            f"normal derivative positive somewhere (max {worst_normal:.3e})"
        )
    lhs = sg.heat_apply(t, _one_sided_laplacian(psi, sg.grid))
    rhs = laplacian_apply(sg, sg.heat_apply(t, psi))
    return {"min_margin": float(np.min(rhs - lhs))}


def compose_lemma_check(sg: NeumannSemigroup, times, u_fields, g_fields,
                        partition, tol: float = 0.0) -> dict:
    """Verify the interval-composition argument for semigroup domination.

    Given nodal samples u(t_i), g(t_i) >= 0 at times ``times`` and a
    partition a_0 < a_1 < ... < a_n of indices into ``times``, walks the
    subintervals once: each is checked on its own, and its bound is
    composed with the semigroup onto the bound so far (the induction
    step), which reproduces the inequality on the full interval; the worst
    intermediate margin is reported.

    Each g(t_i) is transformed once, and each subinterval's Duhamel term
    is evaluated once and serves both its own margin and the composed
    bound.  For m + 1 times and n subintervals that is m + 1 + 2n forward
    and m + 3n inverse DCTs.
    """
    times = np.asarray(times, dtype=float)
    part = list(partition)
    if len(part) < 2 or part[0] != 0 or part[-1] != len(times) - 1:
        raise ValueError("partition must run from the first to the last index")
    g_spectra = [sg.spectrum(g) for g in g_fields]

    sub_margins = []
    # induction: propagate the composed bound from a_0 through each a_k
    composed = u_fields[0]
    worst = math.inf
    for i0, i1 in zip(part, part[1:]):
        term = np.zeros(sg.grid.shape)
        neumann._add_duhamel(sg, term, times, g_spectra, i0, i1)
        bound = sg.heat_apply(times[i1] - times[i0], u_fields[i0])
        bound += term
        m = float(np.min(bound - u_fields[i1]))
        sub_margins.append(m)
        if m < -abs(tol):
            raise ValueError(
                f"subinterval [{times[i0]:g}, {times[i1]:g}] fails (margin {m:.3e})"
            )
        composed = sg.heat_apply(times[i1] - times[i0], composed)
        composed += term
        worst = min(worst, float(np.min(composed - u_fields[i1])))

    return {
        "subinterval_margins": sub_margins,
        "worst_composed_margin": worst,
        "passed": worst >= -(abs(tol) + 1e-10),
    }


# -- transport: path helpers, Wilson traces and the derivative bound ----------


def reversed_segment(seg: Segment) -> Segment:
    return Segment(
        lambda s: seg.position(1.0 - np.asarray(s)),
        lambda s: -seg.velocity(1.0 - np.asarray(s)),
    )


def reversed_path(path: Path) -> Path:
    return Path([reversed_segment(seg) for seg in reversed(path.segments)])


def path_length(path: Path) -> float:
    total = 0.0
    s = np.linspace(0.0, 1.0, 2048)
    for seg in path.segments:
        speed = np.linalg.norm(seg.velocity(s), axis=-1)
        total += np.trapezoid(speed, s)
    return float(total)


def as_single_segment(path: Path) -> Segment:
    """The path under the uniform global parameter: segment i of m
    covers [i/m, (i + 1)/m], so its velocity is scaled by m."""
    m = len(path.segments)

    def sampler(attr, scale):
        def sample(s):
            s = np.atleast_1d(np.asarray(s, dtype=float))
            idx = np.minimum((s * m).astype(int), m - 1)
            local = s * m - idx
            out = np.empty(s.shape + (3,))
            for i, seg in enumerate(path.segments):
                mask = idx == i
                if np.any(mask):
                    out[mask] = getattr(seg, attr)(local[mask]) * scale
            return out
        return sample

    return Segment(sampler("position", 1), sampler("velocity", m))


class PathPerturbation:
    """Direction field u(s) with u(0) = u(1) = 0 for path derivatives."""

    def __init__(self, u, u_prime):
        self.u = u
        self.u_prime = u_prime
        for s in (0.0, 1.0):
            if np.linalg.norm(np.asarray(u(s))) > transport.ENDPOINT_TOL:
                raise ValueError("perturbation must vanish at the endpoints")
        s = np.linspace(0.0, 1.0, 513)
        vals = np.asarray([u(x) for x in s])
        ders = np.asarray([u_prime(x) for x in s])
        self.sup_u = float(np.max(np.linalg.norm(vals, axis=-1)))
        self.norm = self.sup_u + float(np.max(np.linalg.norm(ders, axis=-1)))
        if not math.isfinite(self.norm):
            raise ValueError("perturbation norm is not finite")


def wilson_trace(A: KForm, loop: Loop, n_steps: int = 256) -> complex:
    """Trace of the holonomy around a closed loop (gauge invariant)."""
    return complex(np.trace(transport.transport(A, loop, n_steps=n_steps)))


def loops_to_paths(P, base, path: Path) -> np.ndarray:
    """Extend a loop functional P to open paths via the radial homotopy
    h(s, x) = base + s (x - base).

    Returns P(h_x . path . h_y^{-1}) where h_x, h_y are the radial paths
    from `base` to the endpoints of `path`; for loops based at `base`
    this reduces to P(path).
    """
    x, y = path.start(), path.end()
    base = np.asarray(base, dtype=float)
    segments = list(path.segments)
    if np.linalg.norm(x - base) > transport.ENDPOINT_TOL:
        segments.insert(0, transport.line_segment(base, x))
    if np.linalg.norm(y - base) > transport.ENDPOINT_TOL:
        segments.append(reversed_segment(transport.line_segment(base, y)))
    return P(Loop(segments))


def deriv_bound_check(A: KForm, loop: Loop, u: PathPerturbation) -> dict:
    """Check the perturbation-derivative bound for loop holonomies.

    The directional derivative of the holonomy in the direction u is
    estimated by central differences over an epsilon ladder with a
    Richardson consistency requirement (10%), and its operator norm is
    compared against ||B||_inf sup|u| Length(loop).
    """
    # refuses an unfilled A up front
    b_inf = calculus.curvature(A).norm("Linf")
    gamma = as_single_segment(loop)
    diam = max(A.grid.extents)

    def perturbed(eps):
        def shifted(along, f):
            def sample(s):
                s = np.asarray(s, dtype=float)
                return along(s) + eps * np.asarray(
                    [f(x) for x in np.atleast_1d(s)]
                ).reshape(s.shape + (3,))
            return sample

        return Path([Segment(shifted(gamma.position, u.u),
                             shifted(gamma.velocity, u.u_prime))])

    richardson_dev = 0.0
    if u.sup_u == 0.0:
        deriv_norm = 0.0
    else:
        epss = [es * diam for es in (1e-2, 5e-3, 2.5e-3)]
        hols = transport.transport_many(
            [A], [perturbed(sign * eps) for eps in epss for sign in (1, -1)],
            n_steps=1024,
        )[:, 0]
        derivs = [(hols[2 * i] - hols[2 * i + 1]) / (2 * eps)
                  for i, eps in enumerate(epss)]
        scale = max(np.linalg.norm(d, 2) for d in derivs)
        if scale > 0:
            for d1, d2 in zip(derivs, derivs[1:]):
                richardson_dev = max(
                    richardson_dev, np.linalg.norm(d2 - d1, 2) / scale
                )
            if richardson_dev > 0.10:
                raise RuntimeError(
                    "finite-difference derivative not converged "
                    f"(Richardson deviation {richardson_dev:.1%})"
                )
        # Richardson extrapolation from the last halving
        deriv = (4.0 * derivs[-1] - derivs[-2]) / 3.0
        deriv_norm = float(np.linalg.norm(deriv, 2))

    bound = b_inf * u.sup_u * path_length(loop)
    return {
        "derivative_norm": deriv_norm,
        "bound": float(bound),
        "margin": float(bound - deriv_norm),
        "richardson_deviation": float(richardson_dev),
    }


# -- washer -------------------------------------------------------------------


def lambda_profile(r):
    """Surface current profile, integrable but unbounded at the outer rim."""
    r = np.asarray(r, dtype=float)
    one_minus = 1.0 - r
    return 1.0 / (one_minus * np.log(1.0 / one_minus) ** 2)


def theta_bounds_check(u: float, v: float, theta0: float) -> dict:
    """Sandwich bounds for the angular kernel integral.

    (1/v) log(1 + v theta0/u) <= int_0^{theta0} dtheta /
    sqrt(u^2 + 2 v^2 (1-cos theta)) <= (sqrt2/(v a)) log(1 + v a theta0/u)
    with a^2 = sin(theta0)/theta0; parameters restricted to 0 < u < 1,
    1/2 <= v <= 2, 0 < theta0 < pi/2.  The integral is taken after
    sin(theta/2) = k sinh s with k = u/(2v), which turns it into
    (1/v) int_0^S ds / sqrt(1 - k^2 sinh^2 s), S = asinh(sin(theta0/2)/k):
    smooth for every u, so a 64-node Gauss-Legendre rule resolves it.
    """
    if not (0 < u < 1 and 0.5 <= v <= 2 and 0 < theta0 < math.pi / 2):
        raise ValueError("parameters outside the validated range")
    a = math.sqrt(math.sin(theta0) / theta0)
    lower = (1.0 / v) * math.log(1.0 + v * theta0 / u)
    upper = (math.sqrt(2.0) / (v * a)) * math.log(1.0 + v * a * theta0 / u)
    k = u / (2.0 * v)
    half = 0.5 * math.asinh(math.sin(0.5 * theta0) / k)
    x, w = washer._leggauss(64)
    ks = k * np.sinh(half * (x + 1.0))
    mid = half * float(np.sum(w / np.sqrt(1.0 - ks * ks))) / v
    return {
        "lower": lower,
        "integral": mid,
        "upper": upper,
        "passed": lower <= mid + 1e-8 and mid <= upper + 1e-8,
    }
