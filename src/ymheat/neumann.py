"""Spectral Neumann heat semigroup on the box, its constants, and
pointwise-domination checkers.

The scalar Neumann Laplacian on a box diagonalizes in the cosine basis,
so e^{t Lap_N} is exact up to mode truncation (DCT-I on the node grid:
``dctn``/``idctn``, NumPy's real FFT of the even extension with SciPy's
bits).  Every comparison of a gauge evolution against the scalar semigroup
in this module is therefore an oracle comparison, not a two-solver race.
Heat-kernel domination runs during the flow: ``DominationStream``, the
snapshot hook, hands each snapshot's DCTs and Duhamel bounds to two
threads, bit for bit, and ``domination_check`` gathers the margins.
Every traced call stays on the calling thread.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .calculus import (
    bochner_laplacian,
    contraction_bracket,
    weitzenbock_defect,
)
from .flow import (
    TIME_TOL,
    FlowTrajectory,
    _rk4_step,
    check_dt,
    dt_ceiling,
)
from .grid import GridSpec, KForm, apply_boundary

__all__ = [
    "NeumannSemigroup",
    "a4_constant",
    "omega_record",
    "DominationStream",
    "domination_check",
    "diamagnetic_check",
]


# A DCT-I with the bits of scipy.fft.dctn/idctn(type=1): axis by axis, in
# order, the real part of np.fft.rfft of the even extension [y, y[n-2:0:-1]];
# the inverse scales after axis 0, where pocketfft applies its factor.
# Each thread keeps its own extension and spectrum buffers.
_buffers = threading.local()


def _dct1(x: np.ndarray, inverse: bool) -> np.ndarray:
    shape, size = np.shape(x), np.size(x)
    if min(shape) < 2:
        raise ValueError(f"DCT-I needs at least 2 points per axis, not {shape}")
    if getattr(_buffers, "shape", None) != shape:
        _buffers.shape, _buffers.out = shape, np.empty(shape, complex)
        _buffers.ext = np.empty(max(size // n * 2 * (n - 1) for n in shape))
    y = x
    for a, n in enumerate(shape):
        ext = _buffers.ext[:size // n * 2 * (n - 1)].reshape(
            shape[:a] + (2 * (n - 1),) + shape[a + 1:])
        lead = (slice(None),) * a
        ext[lead + (slice(0, n),)] = y
        ext[lead + (slice(n, None),)] = y[lead + (slice(n - 2, 0, -1),)]
        y = np.fft.rfft(ext, axis=a, out=_buffers.out).real
        if inverse and a == 0:
            y *= 1 / math.prod(2 * (m - 1) for m in shape)
    return y.copy()


def dctn(x: np.ndarray) -> np.ndarray:
    """DCT-I over every axis, unnormalized, as a new C-contiguous array."""
    return _dct1(x, inverse=False)


def idctn(x: np.ndarray) -> np.ndarray:
    """The inverse of ``dctn``, as a new C-contiguous array."""
    return _dct1(x, inverse=True)


class NeumannSemigroup:
    """e^{t Lap_N} on the box via the DCT-I of ``dctn``/``idctn``.

    The retained modes are exactly the n_i cosine modes representable on
    the node grid; eigenvalues are the continuum lambda_k = sum (pi k_i/L_i)^2.
    Evolution has two steps: ``spectrum`` (one forward DCT) and
    ``evolve`` (damp the modes, one inverse DCT).  A caller that evolves
    one field to several times transforms it once and evolves the stored
    spectrum, paying one inverse DCT per time.  ``evolve`` touches no
    state of the semigroup, so threads may call it at once.
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
        self._neg_eigenvalues = -self.eigenvalues

    def spectrum(self, f: np.ndarray) -> np.ndarray:
        """DCT-I coefficients of nodal values f of shape grid.shape."""
        f = np.asarray(f, dtype=float)
        if f.shape != self.grid.shape:
            raise ValueError(f"field shape {f.shape} != {self.grid.shape}")
        return dctn(f)

    def evolve(self, t: float, coeffs: np.ndarray) -> np.ndarray:
        """Nodal values of e^{t Lap_N} f from f's ``spectrum``.

        ``coeffs`` is not modified, so one spectrum serves any number of
        times t.  The damped modes are formed in one array; the bits are
        those of ``idctn(coeffs * np.exp(-eigenvalues * t))``.
        """
        if t < 0:
            raise ValueError("t must be nonnegative")
        damped = self._neg_eigenvalues * t
        np.exp(damped, out=damped)
        np.multiply(coeffs, damped, out=damped)
        return idctn(damped)

    def heat_apply(self, t: float, f: np.ndarray) -> np.ndarray:
        """Apply e^{t Lap_N} to nodal values f of shape grid.shape.

        One forward and one inverse DCT: ``evolve(t, spectrum(f))``.
        """
        return self.evolve(t, self.spectrum(f))

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

    def c_N_estimate(self) -> float:
        """sup over 0 < t <= 1 of t^{3/4} ||e^{t Lap_N}||_{2->inf}.

        By Poisson summation each axis factor of the product equals
        (2 pi)^{-1/4} (sum_m e^{-m^2 L^2 / (2t)})^{1/2}, which increases
        with t, so the sup is the value at t = 1.
        """
        return self.norm_2_to_inf(1.0)


def a4_constant() -> float:
    """The Beta-type constant integral_0^1 (1-s)^{-3/4} s^{-3/4} ds.

    It is B(1/4, 1/4) = Gamma(1/4)^2 / sqrt(pi).
    """
    return math.gamma(0.25) ** 2 / math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# Inequality checkers
# ---------------------------------------------------------------------------


def omega_record(A: KForm, Ap: KForm, B: KForm, kinds=("B", "A'")) -> dict:
    """{kind: (|omega|, |h|)} nodal fields of one flow state, from the
    filled A, its filled direction Ap and filled curvature B that
    ``integrate`` hands its snapshot hook (none is modified).  omega = B
    with source h = (curvature defect of B), or omega = A' with
    h = defect(A') + [A' . B], matching the evolution identities.
    """
    record = {}
    for kind in kinds:
        if kind == "B":
            w, h = B, weitzenbock_defect(A, B)
        elif kind == "A'":
            w, h = Ap, weitzenbock_defect(A, Ap)
            if A.algebra.c != 0:  # u(1)'s bracket is an exact zero
                h = h + contraction_bracket(Ap, B)
        else:
            raise ValueError("omega_kind must be 'B' or \"A'\"")
        record[kind] = (w.pointwise_norm(), h.pointwise_norm())
    return record


def _add_duhamel(sg: NeumannSemigroup, out: np.ndarray, times, g_spectra,
                 i0: int, i1: int) -> None:
    """Add the trapezoid of e^{(times[i1] - s) Lap_N} g(s) over
    [times[i0], times[i1]] into ``out``, in place.

    ``g_spectra[j]`` is the ``spectrum`` of g(times[j]); each of the
    i1 - i0 + 1 samples costs one inverse DCT.  The samples stream, two
    at a time, and each panel adds 0.5 * (t_{j+1} - t_j) * (e_j + e_{j+1})
    to ``out`` in order of j.
    """
    prev = sg.evolve(times[i1] - times[i0], g_spectra[i0])
    for j in range(i0, i1):
        nxt = sg.evolve(times[i1] - times[j + 1], g_spectra[j + 1])
        prev += nxt
        prev *= 0.5 * (times[j + 1] - times[j])
        out += prev
        prev = nxt


class DominationStream:
    """Heat-kernel domination of a gauge field as ``integrate``'s snapshot
    hook, in a ``with`` block that holds a two-thread pool for the flow.

    Checks |omega(t,x)| <= {e^{t Lap_N}|omega(0)|}(x)
    + int_0^t {e^{(t-s) Lap_N}|h(s)|}(x) ds at every snapshot time, with
    the Duhamel integral by composite trapezoid over the snapshot grid.
    At snapshot i the hook takes the ``omega_record`` on the flow's
    thread and queues, per kind, the transform of |h(t_i)| (and first of
    |omega(t_0)|), then the margin of target i, which waits on the spectra
    so far.  A task drops each field it reads, and the hook returns per
    kind the future of the margin (None at t_0).  So n snapshots cost
    n + 1 forward and (n - 1)(n + 4)/2 inverse DCTs, and each margin has
    the bits of a one-thread run.  Leaving the block cancels the tasks
    not yet started (after a flow abort) and waits for the rest.
    """

    def __init__(self, sg: NeumannSemigroup, kinds=("B", "A'")):
        self.sg, self.kinds = sg, tuple(kinds)
        self._times = []
        # per kind, the spectrum of |omega(t_0)|, then that of each |h|
        self._spectra = {kind: [] for kind in self.kinds}

    def __enter__(self):
        from concurrent.futures import ThreadPoolExecutor

        self._pool = ThreadPoolExecutor(max_workers=2)
        return self

    def __exit__(self, *exc):
        self._pool.shutdown(cancel_futures=True)

    def __call__(self, t, A: KForm, Ap: KForm, B: KForm) -> dict:
        self._times.append(t)
        ts, handle = np.asarray(self._times), {}
        first = len(ts) == 1
        for kind, (omega, h) in omega_record(A, Ap, B, self.kinds).items():
            spectra = self._spectra[kind]
            if first:
                spectra.append(self._pool.submit(self.sg.spectrum, omega))
            spectra.append(self._pool.submit(self.sg.spectrum, h))
            handle[kind] = None if first else self._pool.submit(
                self._margin, ts, omega, spectra[:])
        return handle

    def _margin(self, ts, omega, spectra):
        """min over x of the bound at ts[-1] minus |omega(ts[-1])|."""
        omega0, *g_spectra = [f.result() for f in spectra]
        bound = self.sg.evolve(ts[-1] - ts[0], omega0)
        _add_duhamel(self.sg, bound, ts, g_spectra, 0, len(ts) - 1)
        bound -= omega
        return float(np.min(bound))


def domination_check(traj: FlowTrajectory, omega_kind: str = "B") -> dict:
    """The worst pointwise domination margin over x and t of one kind,
    from a flow whose snapshot hook was a ``DominationStream``; waits for
    the margins still running.  Returns it with the margin at each
    snapshot time after the first.
    """
    if len(traj.times) < 2:
        raise ValueError("need at least 2 snapshots")
    if not all(isinstance(r, dict) and omega_kind in r for r in traj.fields):
        raise ValueError(f"no {omega_kind!r} in the snapshots' stream")
    margins = [r[omega_kind].result() for r in traj.fields[1:]]
    return {
        "min_margin": float(min(margins)),
        "per_time_margin": margins,
        "times": [float(x) for x in traj.times[1:]],
    }


def diamagnetic_check(sg: NeumannSemigroup, A: KForm, omega0: KForm,
                      t: float, dt: float | None = None) -> dict:
    """Compare the covariant Bochner heat evolution of omega0 against the
    scalar Neumann evolution of |omega0| (pointwise domination).

    A is held fixed; omega evolves by d omega/dt = sum_j (grad_j^A)^2 omega
    under RK4 with the same step ceiling as the flow.
    """
    if dt is None:
        dt = dt_ceiling(omega0.grid)
    check_dt(dt, omega0.grid)
    bc = omega0.bc
    if bc is None:
        raise ValueError("omega0 needs a boundary fill")
    if bc.kind not in ("neumann", "dirichlet"):
        raise ValueError("diamagnetic comparison needs Neumann or Dirichlet")
    Af = apply_boundary(A, bc)

    def rhs(w, k):
        # every w here is this check's own, so it is filled in place
        return bochner_laplacian(Af, apply_boundary(w, bc, out=w), out=k)

    w = apply_boundary(omega0, bc)
    # the stage state, which swaps with w at each step, and 2 directions
    Y, k1, k2 = (KForm(w.degree, w.grid, w.algebra) for _ in range(3))
    s = 0.0
    step = 0
    while s < t - TIME_TOL:
        h_step = min(dt, t - s)
        w, Y = _rk4_step(w, h_step, rhs, rhs(w, k1), (Y, k2), bc, step,
                         s), w
        s += h_step
        step += 1
    scalar = sg.heat_apply(t, omega0.pointwise_norm())
    margin = scalar - w.pointwise_norm()
    return {"min_margin": float(np.min(margin))}

