"""The current-carrying washer: a finite-energy magnetostatic potential
whose loop integrals along the outer rim diverge.

A flat annulus (inner radius 1/2, outer radius 1, in the z = 0 plane)
carries the azimuthal surface current lambda(r) = 1/((1-r) log(1/(1-r))^2),
which is integrable but blows up at the rim.  The vector potential
A = (-Lap)^{-1} J is azimuthal, finite-energy, and unbounded at the rim,
so fluxes through loops hugging the rim diverge like log log(1/eps).

Everywhere the rim singularity enters, integrals over r are computed in
the variable u = log(1/(1-r)), under which lambda(r) dr = u^{-2} du; a
further xi = log(u) substitution makes the truncated quadrature smooth.
The azimuthal angle integral has the closed form of a circular-loop
potential in complete elliptic integrals.  SciPy's quadrature and
elliptic integrals are imported inside the functions that call them, so
importing this module loads no SciPy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import u1
from .grid import GridSpec, KForm
from .transport import Path, arc_segment, line_segment

__all__ = [
    "WasherConfig",
    "LoopCEpsilon",
    "BoundFit",
    "lambda_profile",
    "total_current",
    "vector_potential",
    "energy",
    "theta_bounds_check",
    "fit_theta_bounds",
    "flux_probe",
    "washer_to_grid",
]

R_INNER = 0.5
R_OUTER = 1.0
U_MIN = math.log(2.0)  # u at the inner radius

# the (u, v) grid at theta0 on which the angular sandwich is fitted and checked
SANDWICH_U = (0.001, 0.01, 0.1, 0.5)
SANDWICH_V = (0.5, 1.0, 2.0)
SANDWICH_THETA0 = math.pi / 4


@dataclass
class WasherConfig:
    """Quadrature parameters for the washer integrals.

    u_max truncates the u = log(1/(1-r)) integral; the neglected current
    is exactly 1/u_max, and every reported potential value carries a tail
    bound proportional to it.
    """

    u_max: float = 40.0
    n_u: int = 128

    def __post_init__(self):
        if self.u_max <= U_MIN:
            raise ValueError("u_max must exceed log 2")


def lambda_profile(r):
    """Surface current profile, integrable but unbounded at the outer rim."""
    r = np.asarray(r, dtype=float)
    one_minus = 1.0 - r
    return 1.0 / (one_minus * np.log(1.0 / one_minus) ** 2)


def total_current(cfg: WasherConfig | None = None) -> dict:
    """Total circulating current: exact antiderivative vs quadrature.

    The antiderivative of lambda is -1/log(1/(1-r)), so the exact total
    is 1/log 2; the u-substituted quadrature plus the analytic tail
    1/u_max must reproduce it.
    """
    from scipy.integrate import quad

    cfg = cfg or WasherConfig()
    exact = 1.0 / math.log(2.0)
    quad_val, _ = quad(lambda u: u ** -2, U_MIN, cfg.u_max, limit=500)
    quad_val += 1.0 / cfg.u_max  # exact tail of the u^{-2} integrand
    return {"exact": exact, "quadrature": quad_val,
            "difference": abs(exact - quad_val)}


@functools.lru_cache(maxsize=None)
def _leggauss(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per n and
    returned read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _u_nodes(cfg: WasherConfig, u_max: float | None = None):
    """Gauss-Legendre nodes in xi = log u: returns (u, s = 1-r, weight)
    with the weight absorbing lambda(r) dr = u^{-2} du = u^{-1} dxi."""
    u_hi = cfg.u_max if u_max is None else u_max
    x, w = _leggauss(cfg.n_u)
    lo, hi = math.log(U_MIN), math.log(u_hi)
    xi = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    wq = 0.5 * (hi - lo) * w
    u = np.exp(xi)
    return u, np.exp(-u), wq / u


def _azimuthal_integral(alpha2, beta2):
    """int_{-pi}^{pi} cos(phi) dphi / sqrt(alpha2 + beta2 (1 - cos phi)).

    Closed form in complete elliptic integrals (the circular-loop
    potential kernel); alpha2 > 0 required away from the source circle.
    """
    from scipy.special import ellipe, ellipk

    alpha2 = np.asarray(alpha2, dtype=float)
    beta2 = np.asarray(beta2, dtype=float)
    A = alpha2 + beta2
    out = np.zeros(np.broadcast(alpha2, beta2).shape)
    mask = beta2 > 0
    if np.any(mask):
        m = 2.0 * beta2 / (A + beta2)
        m = np.where(mask, m, 0.0)
        pref = 4.0 / np.sqrt(A + beta2)
        val = pref * (((2.0 / np.where(mask, m, 1.0)) - 1.0) * ellipk(m)
                      - (2.0 / np.where(mask, m, 1.0)) * ellipe(m))
        out = np.where(mask, val, 0.0)
    return out


def _a_phi(rho, z, cfg: WasherConfig, u_max: float | None = None):
    """Azimuthal component of the potential at cylinder coordinates (rho, z).

    Returns (value, tail_bound): the truncated u-integral and a bound on
    the neglected current's contribution.
    """
    rho = np.asarray(rho, dtype=float)
    z = np.asarray(z, dtype=float)
    _, s, w = _u_nodes(cfg, u_max)
    # rho - r = (rho - 1) + s keeps precision for points hugging the rim
    alpha2 = ((rho[..., None] - R_OUTER) + s) ** 2 + z[..., None] ** 2
    beta2 = 2.0 * rho[..., None] * (1.0 - s)
    kern = _azimuthal_integral(alpha2, beta2)
    val = (kern * w).sum(axis=-1) / (4.0 * math.pi)
    # the neglected current beyond u_max is exactly 1/u_max and sits on the
    # rim circle; its kernel is bounded by the kernel at the rim distance
    u_hi = cfg.u_max if u_max is None else u_max
    dist2 = (rho - R_OUTER) ** 2 + z ** 2
    rim_kern = _azimuthal_integral(np.maximum(dist2, 1e-300),
                                   2.0 * rho * R_OUTER)
    tail = np.where(dist2 > 0,
                    np.abs(rim_kern) / (4.0 * math.pi * u_hi), np.inf)
    return val, tail


def vector_potential(x, cfg: WasherConfig | None = None) -> dict:
    """Potential vector at a point (or array of points) off the washer.

    The field is azimuthal about the z axis by symmetry; points on the
    closed washer surface itself are rejected.
    """
    cfg = cfg or WasherConfig()
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    rho = np.hypot(pts[:, 0], pts[:, 1])
    z = pts[:, 2]
    on_washer = (np.abs(z) == 0.0) & (rho >= R_INNER) & (rho <= R_OUTER)
    if np.any(on_washer):
        raise ValueError("point lies on the closed washer surface")
    a_phi, tail = _a_phi(rho, z, cfg)
    if not np.all(np.isfinite(a_phi)):
        raise ValueError(
            "elliptic kernel lost precision (point closer than ~1e-7 "
            "to the rim circle)"
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        phi_hat = np.stack(
            [-pts[:, 1] / np.where(rho > 0, rho, 1.0),
             pts[:, 0] / np.where(rho > 0, rho, 1.0),
             np.zeros_like(rho)],
            axis=-1,
        )
    vec = a_phi[:, None] * phi_hat
    vec[rho == 0] = 0.0
    if single:
        return {"A": vec[0], "tail_bound": float(tail[0])}
    return {"A": vec, "tail_bound": tail}


def _coplanar_kernel(u1, u2):
    """Angular kernel between two washer radii given as u = log(1/(1-r)).

    The radial separation |r1 - r2| underflows for large u, so the kernel
    is evaluated from log|r1 - r2| directly, switching to the log-form
    asymptotics of the elliptic integrals when the separation-to-radius
    ratio drops below 1e-10.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    umin = np.minimum(u1, u2)
    du = np.abs(u1 - u2)
    with np.errstate(divide="ignore"):
        log_alpha = -umin + np.log(-np.expm1(-np.maximum(du, 1e-300)))
    r1 = -np.expm1(-u1)
    r2 = -np.expm1(-u2)
    beta2 = 2.0 * r1 * r2
    out = np.empty(np.broadcast(u1, u2).shape)
    near = 2.0 * log_alpha - np.log(beta2) < math.log(1e-10)
    far = ~near
    if np.any(far):
        out[far] = _azimuthal_integral(np.exp(2.0 * log_alpha[far]), beta2[far])
    if np.any(near):
        b2 = beta2[near]
        k_big = 0.5 * (np.log(32.0 * b2) - 2.0 * log_alpha[near])
        out[near] = 4.0 / np.sqrt(2.0 * b2) * (k_big - 2.0)
    return out


def _tanh_sinh_nodes(n: int):
    """tanh-sinh quadrature nodes/weights on (0, 1), t in [-3, 3]."""
    t = np.linspace(-3.0, 3.0, n)
    ht = 0.5 * np.pi * np.sinh(t)
    x = 0.5 * (np.tanh(ht) + 1.0)
    dt = t[1] - t[0]
    w = dt * 0.25 * np.pi * np.cosh(t) / np.cosh(ht) ** 2
    return x, w


def energy(cfg: WasherConfig | None = None) -> dict:
    """Field energy W with a cutoff-refinement (Cauchy) trace over the
    doubling u_max cutoffs 32, 64, ..., 4096.

    W = 2 pi * double integral of lambda(r) lambda(r') K(r, r') with the
    elliptic kernel K; computed over the symmetric triangle r' <= r with
    tanh-sinh inner quadrature absorbing the log singularity at r' = r.
    Returns the value at each u_max cutoff; the sequence must be
    increasing and Cauchy for the energy to qualify as finite.
    """
    cfg = cfg or WasherConfig()
    cutoffs = [32.0 * 2 ** k for k in range(8)]
    xs, ws = _tanh_sinh_nodes(24 * 8)
    values = []
    for u_hi in cutoffs:
        u_out, _, w_out = _u_nodes(cfg, u_hi)
        total = 0.0
        lo = math.log(U_MIN)
        for u_i, w_i in zip(u_out, w_out):
            # inner integral over u' in [U_MIN, u_i] via xi' = log u'
            hi = math.log(u_i)
            xi_p = lo + (hi - lo) * xs
            w_p = (hi - lo) * ws
            u_p = np.exp(xi_p)
            kern = _coplanar_kernel(np.full_like(u_p, u_i), u_p)
            total += w_i * np.sum(w_p / u_p * kern)
        values.append(4.0 * math.pi * total)  # 2 pi * (2 triangles)
    gaps = [abs(b - a) / abs(b) for a, b in zip(values, values[1:])]
    return {
        "W": values[-1],
        "cutoffs": cutoffs,
        "values": values,
        "rel_gaps": gaps,
        "cauchy": bool(gaps and gaps[-1] <= 1e-3),
    }


def theta_bounds_check(u: float, v: float, theta0: float) -> dict:
    """Sandwich bounds for the angular kernel integral.

    (1/v) log(1 + v theta0/u) <= int_0^{theta0} dtheta /
    sqrt(u^2 + 2 v^2 (1-cos theta)) <= (sqrt2/(v a)) log(1 + v a theta0/u)
    with a^2 = sin(theta0)/theta0; parameters restricted to 0 < u < 1,
    1/2 <= v <= 2, 0 < theta0 < pi/2.
    """
    from scipy.integrate import quad

    if not (0 < u < 1 and 0.5 <= v <= 2 and 0 < theta0 < math.pi / 2):
        raise ValueError("parameters outside the validated range")
    a = math.sqrt(math.sin(theta0) / theta0)
    lower = (1.0 / v) * math.log(1.0 + v * theta0 / u)
    upper = (math.sqrt(2.0) / (v * a)) * math.log(1.0 + v * a * theta0 / u)
    mid, _ = quad(
        lambda th: 1.0 / math.sqrt(u * u + 2 * v * v * (1 - math.cos(th))),
        0.0, theta0, limit=500,
    )
    return {
        "lower": lower,
        "integral": mid,
        "upper": upper,
        "a_squared": a * a,
        "passed": lower <= mid + 1e-8 and mid <= upper + 1e-8,
    }


@dataclass
class BoundFit:
    """Fitted constants of the logarithmic sandwich for the cos-weighted
    angular integral, verified at every grid point."""

    c1: float
    c2: float
    C1: float
    C2: float


def fit_theta_bounds() -> BoundFit:
    """Fit c1 + c2 log(1/u) <= I(u, v) <= C1 + C2 log(1/u) over the
    SANDWICH_U x SANDWICH_V grid at SANDWICH_THETA0.

    I is the cos-weighted angular integral; the constants are chosen from
    the extreme empirical slopes so the sandwich holds at every grid
    point by construction, then re-verified.
    """
    from scipy.integrate import quad

    vals = np.empty((len(SANDWICH_U), len(SANDWICH_V)))
    for i, u in enumerate(SANDWICH_U):
        for j, v in enumerate(SANDWICH_V):
            vals[i, j], _ = quad(
                lambda th: math.cos(th)
                / math.sqrt(u * u + 2 * v * v * (1 - math.cos(th))),
                -SANDWICH_THETA0, SANDWICH_THETA0, limit=500,
            )
    logs = np.log(1.0 / np.asarray(SANDWICH_U))
    slopes = []
    for j in range(len(SANDWICH_V)):
        d = np.diff(vals[:, j]) / np.diff(logs)
        slopes.extend(d.tolist())
    c2 = 0.5 * min(slopes)
    C2 = 2.0 * max(slopes)
    if c2 <= 0:
        raise ValueError("no positive lower slope; grid too coarse")
    c1 = float(np.min(vals - c2 * logs[:, None]))
    C1 = float(np.max(vals - C2 * logs[:, None]))
    fit = BoundFit(c1, c2, C1, C2)
    lower_ok = np.all(fit.c1 + fit.c2 * logs[:, None] <= vals + 1e-12)
    upper_ok = np.all(vals <= fit.C1 + fit.C2 * logs[:, None] + 1e-12)
    if not (lower_ok and upper_ok and fit.c2 > 0 and fit.C2 > 0):
        raise ValueError("sandwich fit failed on the test grid")
    return fit


@dataclass
class LoopCEpsilon:
    """Boundary of an annular sector hugging the washer's outer rim.

    Inner arc at radius 1 + eps, outer arc at r_out, angular span phi_span,
    joined by two radial segments; all in the washer's plane.
    """

    eps: float
    r_out: float = 1.5
    phi_span: float = math.pi / 2

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.r_out <= R_OUTER + self.eps:
            raise ValueError("outer radius must clear the inner arc")

    def path(self, center=(0.0, 0.0, 0.0)) -> Path:
        """The loop about a washer centred at `center`: the inner arc, the
        radial side at +phi_span/2, the outer arc back, the other side."""
        c = np.asarray(center, dtype=float)
        phi0, phi1 = -self.phi_span / 2, self.phi_span / 2
        r_in = R_OUTER + self.eps

        def radial(phi, r0, r1):
            d = np.array([math.cos(phi), math.sin(phi), 0.0])
            return line_segment(c + r0 * d, c + r1 * d)

        return Path([
            arc_segment(c[:2], r_in, phi0, phi1, z=c[2]),
            radial(phi1, r_in, self.r_out),
            arc_segment(c[:2], self.r_out, phi1, phi0, z=c[2]),
            radial(phi0, self.r_out, r_in),
        ])


def flux_probe(loop: LoopCEpsilon, cfg: WasherConfig | None = None,
               n_quad: int = 64) -> float:
    """Line integral of the potential around the rim-hugging loop.

    Returns +inf for loop.eps = 0 (the loop touches the rim, where the
    tangential potential diverges); otherwise integrates each segment of
    `loop.path()` by Gauss quadrature (the radial ones vanish identically
    up to quadrature noise but are included).
    """
    cfg = cfg or WasherConfig()
    if loop.eps == 0.0:
        return math.inf
    x, w = _leggauss(n_quad)
    s = 0.5 * (x + 1.0)
    ws = 0.5 * w
    total = 0.0
    for seg in loop.path().segments:
        A = vector_potential(seg.position(s), cfg)["A"]
        total += float(np.sum(ws * np.einsum("ij,ij->i", A, seg.velocity(s))))
    return total


def washer_to_grid(cfg: WasherConfig, grid: GridSpec, origin,
                   cap_u_max: float | None = None) -> dict:
    """Sample the washer potential onto a box grid as a U(1) 1-form.

    The box occupies origin + [0, L1] x [0, L2] x [0, L3] in washer
    coordinates.  Nodes closer than one spacing to the closed washer
    surface are evaluated with the u-cutoff capped at `cap_u_max` and
    recorded; without a cap policy such nodes are an error.

    A_phi depends on a node only through rho = hypot(x, y) and z**2, and
    each node's value is elementwise work plus a sum over its own row of
    u-nodes.  So the kernel is evaluated once per distinct (rho, |z|)
    pair of the padded grid and gathered back onto the nodes; every node
    gets the same bits as evaluating it on its own.
    """
    if cap_u_max is not None and cap_u_max <= U_MIN:
        raise ValueError("cap_u_max must exceed log 2")
    origin = np.asarray(origin, dtype=float)
    alg = u1()
    A = KForm(1, grid, alg)
    x, y, z = (grid.axis_coords(a, ghosts=True) + origin[a] for a in range(3))
    rho_xy = np.hypot(x[:, None], y[None, :])
    rho_u, rho_idx = np.unique(rho_xy, return_inverse=True)
    z_u, z_idx = np.unique(np.abs(z), return_inverse=True)
    # the (rho, |z|) table; hypot(z, .) is even in z
    rho_t, z_t = np.meshgrid(rho_u, z_u, indexing="ij")
    radial_excess = np.maximum(np.maximum(rho_t - R_OUTER, R_INNER - rho_t),
                               0.0)
    dist = np.hypot(z_t, radial_excess)
    h = min(grid.spacing)
    close_t = dist < h
    node = (rho_idx.reshape(rho_xy.shape)[:, :, None], z_idx[None, None, :])
    close = close_t[node]
    if np.any(close) and cap_u_max is None:
        raise ValueError(
            f"{int(close.sum())} nodes lie within one spacing of the washer "
            "and no cap policy is set"
        )
    a_t = np.empty(rho_t.shape)
    a_t[~close_t], _ = _a_phi(rho_t[~close_t], z_t[~close_t], cfg)
    if np.any(close_t):
        a_t[close_t], _ = _a_phi(rho_t[close_t], z_t[close_t], cfg,
                                 u_max=cap_u_max)
    a_phi = a_t[node]
    safe_rho = np.where(rho_xy > 0, rho_xy, 1.0)
    phi_hat = np.stack([-y[None, :] / safe_rho, x[:, None] / safe_rho,
                        np.zeros_like(rho_xy)], axis=-1)
    vec = phi_hat[:, :, None, :] * a_phi[..., None]
    vec[rho_xy == 0] = 0.0
    for j in range(3):
        A.values[j, ..., 0] = vec[..., j]
    return {"field": A, "capped_nodes": int(close.sum()),
            "cap_u_max": cap_u_max}
