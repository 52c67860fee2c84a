"""Spectral Neumann heat semigroup on the box, its constants, and
pointwise-domination checkers.

The scalar Neumann Laplacian on a box diagonalizes in the cosine basis,
so e^{t Lap_N} is exact up to mode truncation (DCT-I on the node grid).
Every comparison of a gauge evolution against the scalar semigroup in
this module is therefore an oracle comparison, not a two-solver race.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.fft import dctn, idctn
from scipy.integrate import quad

from .calculus import (
    bochner_laplacian,
    contraction_bracket,
    curvature,
    weitzenbock_defect,
)
from .flow import FlowTrajectory, _rhs_for, _rk4_step, dt_ceiling
from .grid import GridSpec, KForm, apply_boundary

__all__ = [
    "NeumannSemigroup",
    "a4_constant",
    "monotone_lemma_check",
    "domination_check",
    "diamagnetic_check",
    "compose_lemma_check",
]


class NeumannSemigroup:
    """e^{t Lap_N} on the box via the discrete cosine transform (type I).

    The retained modes are exactly the n_i cosine modes representable on
    the node grid; eigenvalues are the continuum lambda_k = sum (pi k_i/L_i)^2.
    Evolution has two steps: ``spectrum`` (one forward DCT) and
    ``evolve`` (damp the modes, one inverse DCT).  A caller that evolves
    one field to several times transforms it once and evolves the stored
    spectrum, paying one inverse DCT per time.
    The operator norm from L^2 to L^inf is computed from the diagonal of
    the kernel, which is a product of separable corner sums.
    """

    def __init__(self, grid: GridSpec, kernel_modes: int = 512):
        self.grid = grid
        self.kernel_modes = int(kernel_modes)
        ks = np.meshgrid(
            *[np.arange(n) for n in grid.shape], indexing="ij"
        )
        self.eigenvalues = sum(
            (np.pi * k / L) ** 2 for k, L in zip(ks, grid.extents)
        )

    def spectrum(self, f: np.ndarray) -> np.ndarray:
        """DCT-I coefficients of nodal values f of shape grid.shape."""
        f = np.asarray(f, dtype=float)
        if f.shape != self.grid.shape:
            raise ValueError(f"field shape {f.shape} != {self.grid.shape}")
        return dctn(f, type=1)

    def evolve(self, t: float, coeffs: np.ndarray) -> np.ndarray:
        """Nodal values of e^{t Lap_N} f from f's ``spectrum``.

        ``coeffs`` is not modified, so one spectrum serves any number of
        times t.
        """
        if t < 0:
            raise ValueError("t must be nonnegative")
        return idctn(coeffs * np.exp(-self.eigenvalues * t), type=1)

    def heat_apply(self, t: float, f: np.ndarray) -> np.ndarray:
        """Apply e^{t Lap_N} to nodal values f of shape grid.shape.

        One forward and one inverse DCT: ``evolve(t, spectrum(f))``.
        """
        return self.evolve(t, self.spectrum(f))

    def laplacian_apply(self, f: np.ndarray) -> np.ndarray:
        """Spectral Neumann Laplacian of nodal values."""
        coeffs = dctn(np.asarray(f, dtype=float), type=1)
        return idctn(-self.eigenvalues * coeffs, type=1)

    # -- the 2->inf norm and c_N --------------------------------------------

    def norm_2_to_inf(self, t: float) -> float:
        """||e^{t Lap_N}||_{2->inf} = sup_x sqrt(K_{2t}(x,x)).

        The kernel diagonal factorizes over axes and every term peaks at
        a corner, so the sup is the product of 1-D corner sums.
        """
        if t <= 0:
            raise ValueError("t must be positive")
        s = 2.0 * t
        prod = 1.0
        for L in self.grid.extents:
            k = np.arange(1, self.kernel_modes + 1)
            terms = np.exp(-((np.pi * k / L) ** 2) * s)
            # tail of the geometric-like sum, bounded by the Gaussian integral
            tail = 0.5 * L / math.sqrt(math.pi * s) * math.erfc(
                math.sqrt(s) * math.pi * self.kernel_modes / L
            )
            total = 1.0 + 2.0 * (terms.sum() + tail)
            if tail > 1e-12 * total:
                raise ValueError(
                    "mode count too small for this t (kernel tail not negligible)"
                )
            prod *= total / L
        return math.sqrt(prod)

    def c_N_estimate(self, t_min: float = 1e-3, n_t: int = 400) -> float:
        """sup over 0 < t <= 1 of t^{3/4} ||e^{t Lap_N}||_{2->inf}."""
        ts = np.logspace(math.log10(t_min), 0.0, n_t)
        vals = [t ** 0.75 * self.norm_2_to_inf(t) for t in ts]
        return float(max(vals))


def a4_constant(n_panels: int = 200_000) -> float:
    """The Beta-type constant integral_0^1 (1-s)^{-3/4} s^{-3/4} ds.

    Computed by quadrature after the substitution s = sin^2(theta), which
    removes both endpoint singularities; equals Gamma(1/4)^2 / sqrt(pi).
    """

    def integrand(theta):
        # ds = 2 sin cos dtheta; (1-s)^{-3/4} s^{-3/4} = (cos sin)^{-3/2}
        return 2.0 * (math.sin(theta) * math.cos(theta)) ** (-0.5)

    val, _ = quad(integrand, 0.0, math.pi / 2, limit=n_panels)
    return val


# ---------------------------------------------------------------------------
# Inequality checkers
# ---------------------------------------------------------------------------


def _one_sided_laplacian(psi: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Laplacian with 3-point interior stencils and one-sided face stencils."""
    out = np.zeros_like(psi)
    for a, h in enumerate(grid.spacing):

        def shift(arr, k):
            idx = [slice(None)] * 3
            if k > 0:
                idx[a] = slice(k, None)
                pad = [slice(None)] * 3
                pad[a] = slice(0, -k)
            elif k < 0:
                idx[a] = slice(0, k)
                pad = [slice(None)] * 3
                pad[a] = slice(-k, None)
            else:
                return arr
            out_ = np.zeros_like(arr)
            out_[tuple(pad)] = arr[tuple(idx)]
            return out_

        d2 = (shift(psi, 1) - 2 * psi + shift(psi, -1)) / h ** 2
        # one-sided 2nd-order second derivative at the two faces
        n = psi.shape[a]
        idx = [slice(None)] * 3

        def take(i):
            j = list(idx)
            j[a] = i
            return psi[tuple(j)]

        lo = (2 * take(0) - 5 * take(1) + 4 * take(2) - take(3)) / h ** 2
        hi = (2 * take(n - 1) - 5 * take(n - 2) + 4 * take(n - 3) - take(n - 4)) / h ** 2
        j = list(idx)
        j[a] = 0
        d2[tuple(j)] = lo
        j[a] = n - 1
        d2[tuple(j)] = hi
        out += d2
    return out


def _normal_derivatives(psi: np.ndarray, grid: GridSpec):
    """Outward normal derivative at every face node (one-sided, 2nd order)."""
    vals = []
    for a, h in enumerate(grid.spacing):
        n = psi.shape[a]
        idx = [slice(None)] * 3

        def take(i):
            j = list(idx)
            j[a] = i
            return psi[tuple(j)]

        d_lo = (-3 * take(0) + 4 * take(1) - take(2)) / (2 * h)
        d_hi = (3 * take(n - 1) - 4 * take(n - 2) + take(n - 3)) / (2 * h)
        vals.append(-d_lo)  # outward at the low face is -e_a
        vals.append(d_hi)
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
    rhs = sg.laplacian_apply(sg.heat_apply(t, psi))
    margin = rhs - lhs
    return {
        "min_margin": float(np.min(margin)),
        "max_abs_lhs": float(np.max(np.abs(lhs))),
        "worst_normal_derivative": worst_normal,
    }


def _omega_series(traj: FlowTrajectory, omega_kind: str):
    """|omega(t_i)| and |h(t_i)| nodal fields along a trajectory.

    omega = B with source h = (curvature defect of B), or omega = A' with
    h = defect(A') + [A' . B], matching the evolution identities.
    """
    bc = traj.config.bc
    rhs = _rhs_for(traj.config.variant)
    omegas, sources = [], []
    for A in traj.fields:
        Af = apply_boundary(A, bc)
        if omega_kind == "B":
            w = apply_boundary(curvature(Af), bc)
            h = weitzenbock_defect(Af, w)
        elif omega_kind == "A'":
            Ap, B = rhs(Af, bc)
            w = apply_boundary(Ap, bc)
            h = weitzenbock_defect(Af, w) + contraction_bracket(w, B)
        else:
            raise ValueError("omega_kind must be 'B' or \"A'\"")
        omegas.append(w.pointwise_norm())
        sources.append(h.pointwise_norm())
    return omegas, sources


def domination_check(sg: NeumannSemigroup, traj: FlowTrajectory,
                     omega_kind: str = "B") -> dict:
    """Pointwise heat-kernel domination of a gauge field along the flow.

    Checks |omega(t,x)| <= {e^{t Lap_N}|omega(0)|}(x)
    + int_0^t {e^{(t-s) Lap_N}|h(s)|}(x) ds at every snapshot time, with
    the Duhamel integral by composite trapezoid over the snapshot grid.
    Returns the worst pointwise margin over x and t.

    |omega(t_0)| and every source |h(s_j)| are transformed once and the
    stored spectra are evolved to each target time, so n snapshots cost
    n + 1 forward and (n - 1)(n + 4)/2 inverse DCTs.
    """
    if len(traj.times) < 2:
        raise ValueError("need at least 2 snapshots")
    ts = np.asarray(traj.times)
    t0 = ts[0]
    omegas, sources = _omega_series(traj, omega_kind)
    # transformed in place, so each snapshot keeps one array alive
    omega0 = sg.spectrum(omegas.pop(0))
    for j, g in enumerate(sources):
        sources[j] = sg.spectrum(g)
    margins = []
    for i, omega in enumerate(omegas, start=1):
        t = ts[i]
        bound = sg.evolve(t - t0, omega0)
        # trapezoid over s in [t0, t]
        evals = [sg.evolve(t - s, g) for s, g in zip(ts[: i + 1], sources[: i + 1])]
        for j in range(i):
            bound += 0.5 * (ts[j + 1] - ts[j]) * (evals[j] + evals[j + 1])
        margins.append(float(np.min(bound - omega)))
    return {
        "min_margin": float(min(margins)),
        "per_time_margin": margins,
        "times": [float(x) for x in ts[1:]],
    }


def diamagnetic_check(sg: NeumannSemigroup, A: KForm, omega0: KForm,
                      t: float, dt: float | None = None) -> dict:
    """Compare the covariant Bochner heat evolution of omega0 against the
    scalar Neumann evolution of |omega0| (pointwise domination).

    A is held fixed; omega evolves by d omega/dt = sum_j (grad_j^A)^2 omega
    under RK4 with the same step ceiling as the flow.
    """
    ceiling = dt_ceiling(omega0.grid)
    if dt is None:
        dt = ceiling
    if dt > ceiling * (1 + 1e-12):
        raise ValueError("dt exceeds the stability ceiling h^2/8")
    bc = omega0.bc
    if bc is None:
        raise ValueError("omega0 needs a boundary fill")
    if bc.kind not in ("neumann", "dirichlet"):
        raise ValueError("diamagnetic comparison needs Neumann or Dirichlet")
    Af = apply_boundary(A, bc)

    def rhs(w, _bc):
        return bochner_laplacian(Af, apply_boundary(w, _bc))

    w = apply_boundary(omega0, bc)
    s = 0.0
    step = 0
    while s < t - 1e-14:
        h_step = min(dt, t - s)
        w = _rk4_step(w, h_step, rhs, bc, step, s)
        s += h_step
        step += 1
    scalar = sg.heat_apply(t, omega0.pointwise_norm())
    margin = scalar - w.pointwise_norm()
    return {"min_margin": float(np.min(margin)), "steps": step}


def compose_lemma_check(sg: NeumannSemigroup, times, u_fields, g_fields,
                        partition, tol: float = 0.0) -> dict:
    """Verify the interval-composition argument for semigroup domination.

    Given nodal samples u(t_i), g(t_i) >= 0 at times ``times`` and a
    partition a_0 < a_1 < ... < a_n of indices into ``times``, first checks
    the domination inequality on every subinterval, then reproduces it on
    the full interval by composing subinterval bounds with the semigroup
    (the induction step), reporting the worst intermediate margin.

    Each g(t_i) is transformed once, and each subinterval's Duhamel term
    is evaluated once and serves both passes.  For m + 1 times and n
    subintervals that is m + 1 + 2n forward and m + 3n inverse DCTs.
    """
    times = np.asarray(times, dtype=float)
    part = list(partition)
    if len(part) < 2 or part[0] != 0 or part[-1] != len(times) - 1:
        raise ValueError("partition must run from the first to the last index")
    g_spectra = [sg.spectrum(g) for g in g_fields]

    def duhamel(i0, i1, t_target):
        """trapezoid of e^{(t_target - s) Lap_N} g(s) over [times[i0], times[i1]]."""
        acc = np.zeros(sg.grid.shape)
        evals = [sg.evolve(t_target - times[j], g_spectra[j])
                 for j in range(i0, i1 + 1)]
        for j in range(i0, i1):
            acc += 0.5 * (times[j + 1] - times[j]) * (
                evals[j - i0] + evals[j + 1 - i0]
            )
        return acc

    spans = list(zip(part, part[1:]))
    sub_margins, terms = [], []
    for i0, i1 in spans:
        terms.append(duhamel(i0, i1, times[i1]))
        bound = sg.heat_apply(times[i1] - times[i0], u_fields[i0])
        bound += terms[-1]
        m = float(np.min(bound - u_fields[i1]))
        sub_margins.append(m)
        if m < -abs(tol):
            raise ValueError(
                f"subinterval [{times[i0]:g}, {times[i1]:g}] fails (margin {m:.3e})"
            )

    # induction: propagate the composed bound from a_0 through each a_k
    a0 = part[0]
    composed = u_fields[a0].copy()
    worst = math.inf
    for (i0, i1), term in zip(spans, terms):
        composed = sg.heat_apply(times[i1] - times[i0], composed)
        composed += term
        worst = min(worst, float(np.min(composed - u_fields[i1])))

    return {
        "subinterval_margins": sub_margins,
        "worst_composed_margin": worst,
        "passed": worst >= -(abs(tol) + 1e-10),
    }
