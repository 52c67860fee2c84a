"""Parallel transport, Wilson loops, and long-time convergence probes.

Transport solves g^{-1} g' = A<gamma'(s)> with g(0) = I along piecewise-C1
paths, interpolating A trilinearly off the grid and re-projecting g to the
group after every RK4 step (polar decomposition).  One kernel,
`transport_many`, advances every (path, field) pair of a run as one
stacked array of group elements; `transport` is that kernel on a single
pair.  Wilson traces, the loop-to-path extension by radial homotopies,
the perturbation-derivative bound, and the flow-time convergence probe
build on it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .calculus import curvature
from .grid import GridSpec, KForm

__all__ = [
    "Segment",
    "Path",
    "Loop",
    "PathPerturbation",
    "line_segment",
    "arc_segment",
    "segment_from_json",
    "line_integral",
    "check_paths",
    "check_ladder",
    "transport",
    "transport_many",
    "wilson_trace",
    "loops_to_paths",
    "deriv_bound_check",
    "convergence_probe",
]

ENDPOINT_TOL = 1e-12
UNITARITY_TOL = 1e-10
LINE_STEPS = 512  # line_integral samples 2 LINE_STEPS + 1 points a segment


class Segment:
    """One C1 piece of a path: position and velocity on [0, 1]."""

    def __init__(self, position, velocity):
        self.position = position
        self.velocity = velocity

    def reversed(self):
        return Segment(
            lambda s: self.position(1.0 - np.asarray(s)),
            lambda s: -self.velocity(1.0 - np.asarray(s)),
        )


def line_segment(p0, p1) -> Segment:
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)

    def pos(s):
        s = np.asarray(s, dtype=float)[..., None]
        return p0 + s * (p1 - p0)

    def vel(s):
        s = np.asarray(s, dtype=float)
        return np.broadcast_to(p1 - p0, s.shape + (3,)).copy()

    return Segment(pos, vel)


def arc_segment(center, radius, phi0, phi1, z) -> Segment:
    """Circular arc about the 2-D `center` in the plane at height z, from
    angle phi0 to phi1."""
    center = np.asarray(center, dtype=float)
    if center.shape != (2,):
        raise ValueError("an arc takes a 2-D center and z")

    def pos(s):
        s = np.asarray(s, dtype=float)
        phi = phi0 + s * (phi1 - phi0)
        return np.stack(
            [
                center[0] + radius * np.cos(phi),
                center[1] + radius * np.sin(phi),
                np.full_like(phi, z),
            ],
            axis=-1,
        )

    def vel(s):
        s = np.asarray(s, dtype=float)
        phi = phi0 + s * (phi1 - phi0)
        dphi = phi1 - phi0
        return np.stack(
            [
                -radius * np.sin(phi) * dphi,
                radius * np.cos(phi) * dphi,
                np.zeros_like(phi),
            ],
            axis=-1,
        )

    return Segment(pos, vel)


def segment_from_json(spec: dict) -> Segment:
    """Build a segment from {"kind": "line"|"arc", ...} geometry JSON."""
    kind = spec.get("kind")
    if kind == "line":
        return line_segment(spec["start"], spec["end"])
    if kind == "arc":
        return arc_segment(
            spec["center"],
            spec["radius"],
            spec["phi0"],
            spec["phi1"],
            spec["z"],
        )
    raise ValueError(f"unknown segment kind {kind!r}")


class Path:
    """Piecewise-C1 path through the open box interior."""

    def __init__(self, segments):
        self.segments = list(segments)
        if not self.segments:
            raise ValueError("path needs at least one segment")
        for s1, s2 in zip(self.segments, self.segments[1:]):
            gap = np.linalg.norm(s1.position(1.0) - s2.position(0.0))
            if gap > ENDPOINT_TOL:
                raise ValueError(f"segments do not join (gap {gap:.3e})")

    def start(self):
        return np.asarray(self.segments[0].position(0.0), dtype=float)

    def end(self):
        return np.asarray(self.segments[-1].position(1.0), dtype=float)

    def reversed(self):
        return Path([seg.reversed() for seg in reversed(self.segments)])

    def concat(self, other: "Path") -> "Path":
        return Path(self.segments + other.segments)

    def length(self) -> float:
        total = 0.0
        s = np.linspace(0.0, 1.0, 2048)
        for seg in self.segments:
            speed = np.linalg.norm(seg.velocity(s), axis=-1)
            total += np.trapezoid(speed, s)
        return float(total)

    def as_single_segment(self) -> Segment:
        """The path under the uniform global parameter: segment i of m
        covers [i/m, (i + 1)/m], so its velocity is scaled by m."""
        m = len(self.segments)

        def sampler(attr, scale):
            def sample(s):
                s = np.atleast_1d(np.asarray(s, dtype=float))
                idx = np.minimum((s * m).astype(int), m - 1)
                local = s * m - idx
                out = np.empty(s.shape + (3,))
                for i, seg in enumerate(self.segments):
                    mask = idx == i
                    if np.any(mask):
                        out[mask] = getattr(seg, attr)(local[mask]) * scale
                return out
            return sample

        return Segment(sampler("position", 1), sampler("velocity", m))


class Loop(Path):
    """Closed path: start and end agree to 1e-12."""

    def __init__(self, segments):
        super().__init__(segments)
        gap = np.linalg.norm(self.start() - self.end())
        if gap > ENDPOINT_TOL:
            raise ValueError(f"loop does not close (gap {gap:.3e})")


class PathPerturbation:
    """Direction field u(s) with u(0) = u(1) = 0 for path derivatives."""

    def __init__(self, u, u_prime):
        self.u = u
        self.u_prime = u_prime
        for s in (0.0, 1.0):
            if np.linalg.norm(np.asarray(u(s))) > ENDPOINT_TOL:
                raise ValueError("perturbation must vanish at the endpoints")
        s = np.linspace(0.0, 1.0, 513)
        vals = np.asarray([u(x) for x in s])
        ders = np.asarray([u_prime(x) for x in s])
        self.sup_u = float(np.max(np.linalg.norm(vals, axis=-1)))
        self.norm = self.sup_u + float(np.max(np.linalg.norm(ders, axis=-1)))
        if not math.isfinite(self.norm):
            raise ValueError("perturbation norm is not finite")


class _FieldInterpolator:
    """Trilinear interpolation of a 1-form's coefficients off the grid.

    The arithmetic is that of SciPy's linear `RegularGridInterpolator`,
    so the values agree bit for bit: the same cell search, fractions,
    corner order and weight products.
    """

    def __init__(self, A: KForm):
        grid = A.grid
        self.axes = [grid.axis_coords(a) for a in range(3)]
        # stack (component, algebra-coefficient) into one trailing axis
        vals = np.moveaxis(A.interior, 0, -2)  # (n1,n2,n3, 3, dim)
        self.values = vals.reshape(vals.shape[:3] + (-1,))
        self.dim = A.algebra.dim

    def __call__(self, points) -> np.ndarray:
        """Values at (n, 3) points in the box, shape (n, 3 * dim)."""
        points = np.asarray(points, dtype=float)
        cells = []
        for a, x in enumerate(self.axes):
            p = points[:, a]
            if not np.all((x[0] <= p) & (p <= x[-1])):  # NaN fails too
                raise ValueError(f"point outside the grid on axis {a}")
            i = np.clip(np.searchsorted(x, p, side="right") - 1,
                        0, len(x) - 2)
            frac = (p - x[i]) / (x[i + 1] - x[i])
            cells.append(((i, 1 - frac), (i + 1, frac)))
        value = 0.0  # SciPy's sum starts at 0.0 too, so -0.0 terms agree
        for corner in itertools.product(*cells):
            idx, (w0, w1, w2) = zip(*corner)
            value = value + self.values[idx] * (w0 * w1 * w2)[:, None]
        return value

    def along(self, points, velocities):
        """Coefficients of A<gamma'(s)> at the given points, shape (n, dim)."""
        vals = self(points).reshape(len(points), 3, self.dim)
        return np.einsum("njd,nj->nd", vals, velocities)


def check_paths(grid: GridSpec, paths, n_steps: int) -> list:
    """Raise ValueError if a sample point of `n_steps` RK4 steps (2 n_steps
    + 1 points per segment) leaves the interior band: the box shrunk by one
    (smallest) grid spacing, where interpolation is safe.  Returns the
    points, one array per segment, path after path."""
    band = min(grid.spacing) * (1 - 1e-9)
    s = np.linspace(0.0, 1.0, 2 * n_steps + 1)
    checked = []
    for path in paths:
        for seg in path.segments:
            pts = np.asarray(seg.position(s), dtype=float)
            checked.append(pts)
            lo, hi = np.min(pts, axis=0), np.max(pts, axis=0)
            for a, L in enumerate(grid.extents):
                if lo[a] < band or hi[a] > L - band:
                    raise ValueError(
                        "path exits the safe interior band "
                        f"(axis {a}: range [{lo[a]:.4g}, {hi[a]:.4g}])"
                    )
    return checked


def _project_group(g: np.ndarray) -> np.ndarray:
    """Nearest unitary to each matrix of a (P, r, r) stack, by polar
    decomposition; SU(2) elements are also scaled to unit determinant."""
    if g.shape[-1] == 1:
        # hypot rounds as abs of one complex scalar does; np.abs of a
        # complex array may differ in the last bit
        return g / np.hypot(g.real, g.imag)
    u, _, vh = np.linalg.svd(g)
    p = u @ vh
    # restore unit determinant lost to rounding
    return p / np.sqrt(np.linalg.det(p))[:, None, None]


def line_integral(A: KForm, path: Path) -> np.ndarray:
    """Coefficientwise line integral of a 1-form along a path: the trapezoid
    rule on the points `transport` would sample in LINE_STEPS steps.

    For an abelian field this determines the holonomy in closed form,
    exp(integral); used as the oracle against path-ordered transport.
    """
    points = check_paths(A.grid, [path], LINE_STEPS)
    interp = _FieldInterpolator(A)
    total = np.zeros(A.algebra.dim)
    s = np.linspace(0.0, 1.0, 2 * LINE_STEPS + 1)
    for seg, pts in zip(path.segments, points):
        vels = np.asarray(seg.velocity(s), dtype=float)
        total += np.trapezoid(interp.along(pts, vels), s, axis=0)
    return total


# RK4 steps whose generator matrices are built at once: bounds the memory
# of the stacked matrices, which for all steps of a run would be megabytes
CHUNK_STEPS = 128


def transport_many(fields, paths, n_steps: int = 256) -> np.ndarray:
    """Holonomies of every (path, field) pair, shape (n_paths, n_fields, r, r).

    Solves g' = g A<gamma'> with g(0) = I by RK4 with `n_steps` steps per
    segment, re-projecting g to the group by polar decomposition after
    every step so the unitarity deviation stays below 1e-10.  All pairs
    advance as one stacked (P, r, r) array through the same arithmetic a
    single pair would see, so each holonomy has the bits it has alone.
    Segment slot j advances the pairs whose path has more than j segments;
    rows are ordered longest path first, so those pairs are a leading
    slice of the stack.  The fields share one grid and algebra (snapshots
    of one run); every path passes `check_paths` before the first step.
    """
    alg = fields[0].algebra
    check_paths(fields[0].grid, paths, n_steps)
    interps = [_FieldInterpolator(A) for A in fields]

    order = sorted(range(len(paths)), key=lambda p: -len(paths[p].segments))
    n_fields, r = len(fields), alg.rep_dim
    g = np.broadcast_to(np.eye(r, dtype=complex),
                        (len(paths) * n_fields, r, r)).copy()
    s = np.linspace(0.0, 1.0, 2 * n_steps + 1)
    ds = 1.0 / n_steps
    mats = np.empty((len(g), 2 * CHUNK_STEPS + 1, r, r), dtype=complex)
    for j in range(len(paths[order[0]].segments)):
        active = [p for p in order if len(paths[p].segments) > j]
        rows = len(active) * n_fields
        for i0 in range(0, n_steps, CHUNK_STEPS):
            i1 = min(i0 + CHUNK_STEPS, n_steps)
            # a slice of the segment's linspace: the same sample points
            sc = s[2 * i0:2 * i1 + 1]
            for k, p in enumerate(active):
                seg = paths[p].segments[j]
                pts = np.asarray(seg.position(sc), dtype=float)
                vels = np.asarray(seg.velocity(sc), dtype=float)
                for f, interp in enumerate(interps):
                    mats[k * n_fields + f, :len(sc)] = alg.to_matrices(
                        interp.along(pts, vels))
            G = g[:rows]
            for i in range(i1 - i0):
                a0 = mats[:rows, 2 * i]
                am = mats[:rows, 2 * i + 1]
                a1 = mats[:rows, 2 * i + 2]
                k1 = G @ a0
                k2 = (G + 0.5 * ds * k1) @ am
                k3 = (G + 0.5 * ds * k2) @ am
                k4 = (G + ds * k3) @ a1
                G = G + (ds / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                G = _project_group(G)
            g[:rows] = G

    dev = np.max(np.abs(np.conj(np.swapaxes(g, -1, -2)) @ g - np.eye(r)))
    if dev > UNITARITY_TOL:
        raise RuntimeError(f"transport left the group (deviation {dev:.3e})")
    out = np.empty((len(paths), n_fields, r, r), dtype=complex)
    out[order] = g.reshape(len(paths), n_fields, r, r)
    return out


def transport(A: KForm, path: Path, n_steps: int = 256) -> np.ndarray:
    """Holonomy g(1) of g' = g A<gamma'> along one path (`transport_many`
    on a single pair)."""
    return transport_many([A], [path], n_steps)[0, 0]


def wilson_trace(A: KForm, loop: Loop, n_steps: int = 256) -> complex:
    """Trace of the holonomy around a closed loop (gauge invariant)."""
    return complex(np.trace(transport(A, loop, n_steps=n_steps)))


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
    if np.linalg.norm(x - base) > ENDPOINT_TOL:
        segments.insert(0, line_segment(base, x))
    if np.linalg.norm(y - base) > ENDPOINT_TOL:
        segments.append(line_segment(base, y).reversed())
    return P(Loop(segments))


def deriv_bound_check(A: KForm, loop: Loop, u: PathPerturbation) -> dict:
    """Check the perturbation-derivative bound for loop holonomies.

    The directional derivative of the holonomy in the direction u is
    estimated by central differences over an epsilon ladder with a
    Richardson consistency requirement (10%), and its operator norm is
    compared against ||B||_inf sup|u| Length(loop).
    """
    b_inf = curvature(A).norm("Linf")  # refuses an unfilled A up front
    gamma = loop.as_single_segment()
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
        hols = transport_many(
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

    bound = b_inf * u.sup_u * loop.length()
    return {
        "derivative_norm": deriv_norm,
        "bound": float(bound),
        "margin": float(bound - deriv_norm),
        "richardson_deviation": float(richardson_dev),
    }


def check_ladder(times) -> None:
    """Raise ValueError unless the times form a dyadic ladder of >= 4 rungs."""
    ts = list(times)
    if len(ts) < 4:
        raise ValueError("time ladder too short (< 4 rungs)")
    for t1, t2 in zip(ts, ts[1:]):
        if abs(t2 - 2 * t1) > 1e-9 * t2:
            raise ValueError("snapshot times do not form a dyadic ladder")


def convergence_probe(traj, holonomies) -> dict:
    """Wilson traces of flowed fields along a dyadic time ladder.

    For each loop, records trace(t_j) and successive absolute differences,
    expected nonincreasing as the flow smooths the field.  `holonomies` is
    `transport_many(traj.fields, loops, n_steps)`.
    """
    check_ladder(traj.times)
    # (n_times, n_loops)
    traces = np.trace(holonomies, axis1=-2, axis2=-1).T
    diffs = np.abs(np.diff(traces, axis=0))
    return {
        "traces": traces,
        "trace_diffs": diffs,
        "diffs_nonincreasing_tail": bool(
            np.all(diffs[-2] <= diffs[-3] + 1e-12)
            and np.all(diffs[-1] <= diffs[-2] + 1e-12)
        ),
    }
