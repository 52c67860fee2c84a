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
potential in complete elliptic integrals, evaluated by a NumPy port of
the cephes polynomials that scipy.special uses.  Every other integral is
a fixed Gauss-Legendre rule on a substitution that makes its integrand
smooth, so nothing here loads SciPy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import u1
from .grid import GridSpec, KForm
from .transport import Path, arc_segment, line_segment

__all__ = [
    "WasherConfig",
    "LoopCEpsilon",
    "total_current",
    "vector_potential",
    "energy",
    "flux_probe",
    "washer_to_grid",
]

R_INNER = 0.5
R_OUTER = 1.0
U_MIN = math.log(2.0)  # u at the inner radius


@dataclass(frozen=True)
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


def total_current(cfg: WasherConfig = WasherConfig()) -> dict:
    """Total circulating current: exact antiderivative vs the u-rule.

    The antiderivative of lambda is -1/log(1/(1-r)), so the exact total
    is 1/log 2.  The weights of `_u_nodes`, the rule every washer
    potential is summed on, plus the analytic tail 1/u_max must
    reproduce it.
    """
    exact = 1.0 / math.log(2.0)
    ruled = float(_u_nodes(cfg.n_u, cfg.u_max)[2].sum()) + 1.0 / cfg.u_max
    return {"exact": exact, "quadrature": ruled,
            "difference": abs(exact - ruled)}


@functools.lru_cache(maxsize=None)
def _leggauss(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per n and
    returned read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _u_nodes(n_u: int, u_hi: float):
    """n_u Gauss-Legendre nodes in xi = log u up to the cutoff u_hi: returns
    (u, s = 1-r, weight) with the weight absorbing
    lambda(r) dr = u^{-2} du = u^{-1} dxi."""
    x, w = _leggauss(n_u)
    lo, hi = math.log(U_MIN), math.log(u_hi)
    xi = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    wq = 0.5 * (hi - lo) * w
    u = np.exp(xi)
    return u, np.exp(-u), wq / u


# Cephes' ellpk and ellpe (S. L. Moshier, Methods and Programs for
# Mathematical Functions, 1989), the polynomials that scipy.special's
# ellipk and ellipe evaluate: P_K, Q_K, P_E and Q_E in x = 1 - m, one column
# per Horner step, highest degree first; a leading 0.0 gives Q_E, one degree
# lower, the same number of steps, and its first step is exact
_ELLIPTIC = np.array([
    [1.37982864606273237150E-4, 2.28025724005875567385E-3,
     7.97404013220415179367E-3, 9.85821379021226008714E-3,
     6.87489687449949877925E-3, 6.18901033637687613229E-3,
     8.79078273952743772254E-3, 1.49380448916805252718E-2,
     3.08851465246711995998E-2, 9.65735902811690126535E-2,
     1.38629436111989062502E0],
    [2.94078955048598507511E-5, 9.14184723865917226571E-4,
     5.94058303753167793257E-3, 1.54850516649762399335E-2,
     2.39089602715924892727E-2, 3.01204715227604046988E-2,
     3.73774314173823228969E-2, 4.88280347570998239232E-2,
     7.03124996963957469739E-2, 1.24999999999870820058E-1,
     4.99999999999999999821E-1],
    [1.53552577301013293365E-4, 2.50888492163602060990E-3,
     8.68786816565889628429E-3, 1.07350949056076193403E-2,
     7.77395492516787092951E-3, 7.58395289413514708519E-3,
     1.15688436810574127319E-2, 2.18317996015557253103E-2,
     5.68051945617860553470E-2, 4.43147180560990850618E-1,
     1.00000000000000000299E0],
    [0.0, 3.27954898576485872656E-5, 1.00962792679356715133E-3,
     6.50609489976927491433E-3, 1.68862163993311317300E-2,
     2.61769742454493659583E-2, 3.34833904888224918614E-2,
     4.27180926518931511717E-2, 5.85936634471101055642E-2,
     9.37499997197644278445E-2, 2.49999999999888314361E-1],
]).T.copy()
_ELLPK_X_MIN = 1.11022302462515654042e-16  # 2^-53: below it, K's log form
_ELLPK_C1 = 1.3862943611198906188  # log 4


def _ellipk_ellipe(m):
    """Complete elliptic integrals K(m) and E(m), parameter m in [0, 1].

    A NumPy port of cephes' ellpk and ellpe, as scipy.special evaluates
    them: K = P_K(x) - log(x) Q_K(x) with x = 1 - m (log 4 - log(x)/2 once
    x <= 2^-53), and E = P_E(x) - log(x) x Q_E(x), with E(1) = 1.  K(1) is
    inf; m > 1, m < 0 and NaN give NaN (SciPy extends K and E to m < 0,
    which no caller needs).  Against scipy.special 1.17.1 on 10^6 uniform m
    and 10^6 m with 1 - m log-uniform in [1e-16, 1], K is within 2 ulp and E
    within 1 ulp: np.log's last bit differs from the C library's log on a
    few inputs in 10^4.  At m = 0, 1, 1 - 2^-53 and 1.5 both are identical.
    """
    x = 1.0 - np.asarray(m, dtype=float)
    coef = _ELLIPTIC.reshape(_ELLIPTIC.shape + (1,) * x.ndim)
    p = np.empty((4,) + x.shape)
    p[...] = coef[0]
    for c in coef[1:]:  # Horner, step by step as cephes' polevl
        p *= x
        p += c
    with np.errstate(divide="ignore", invalid="ignore"):
        log_x = np.log(x)
        k = p[0] - log_x * p[1]
        e = p[2] - log_x * (x * p[3])
        # K's log form for x <= 2^-53, E(1) = 1, and NaN for m < 0
        rare = ~((x > _ELLPK_X_MIN) & (x <= 1.0))
        if rare.any():
            xr = x[rare]
            k[rare] = _ELLPK_C1 - 0.5 * np.log(xr)
            e[rare] = np.where(xr == 0.0, 1.0, e[rare])
            k[x > 1.0] = e[x > 1.0] = np.nan
    return k, e


def _azimuthal_integral(alpha2, beta2):
    """int_{-pi}^{pi} cos(phi) dphi / sqrt(alpha2 + beta2 (1 - cos phi)).

    Closed form in the complete elliptic integrals of `_ellipk_ellipe` (the
    circular-loop potential kernel); alpha2 > 0 required away from the
    source circle, where m = 1 makes the value infinite.
    """
    alpha2 = np.asarray(alpha2, dtype=float)
    beta2 = np.asarray(beta2, dtype=float)
    d = (alpha2 + beta2) + beta2
    mask = beta2 > 0
    # m = 1 off the mask keeps 2/m finite there; those entries read 0
    m = np.where(mask, 2.0 * beta2 / d, 1.0)
    k, e = _ellipk_ellipe(m)
    two_m = 2.0 / m
    val = 4.0 / np.sqrt(d) * ((two_m - 1.0) * k - two_m * e)
    return np.where(mask, val, 0.0)


# kernel entries per block of _a_phi's rows: a block's temporaries stay in
# cache, and each row sums alone, so blocking moves no bit
_BLOCK = 16384


def _a_phi(rho, z, n_u: int, u_hi: float):
    """Azimuthal component of the potential at cylinder coordinates (rho, z),
    1-D arrays of one length: the u-integral truncated at u_hi, on n_u
    nodes."""
    rho = np.asarray(rho, dtype=float)
    z = np.asarray(z, dtype=float)
    _, s, w = _u_nodes(n_u, u_hi)
    out = np.empty(rho.shape)
    step = max(1, _BLOCK // n_u)
    for i in range(0, len(rho), step):
        r, zz = rho[i:i + step, None], z[i:i + step, None]
        # rho - r = (rho - 1) + s keeps precision for points hugging the rim
        alpha2 = ((r - R_OUTER) + s) ** 2 + zz ** 2
        beta2 = 2.0 * r * (1.0 - s)
        out[i:i + step] = (_azimuthal_integral(alpha2, beta2) * w).sum(
            axis=-1)
    return out / (4.0 * math.pi)


def _azimuthal(x, y, rho):
    """Unit vectors phi-hat = (-y, x, 0) / rho at points of cylinder radius
    rho; the callers zero the field on the axis, where rho = 0."""
    safe_rho = np.where(rho > 0, rho, 1.0)
    return np.stack([-y / safe_rho, x / safe_rho, np.zeros_like(rho)],
                    axis=-1)


def vector_potential(x, cfg: WasherConfig = WasherConfig()) -> dict:
    """Potential vector at a point (or array of points) off the washer.

    The field is azimuthal about the z axis by symmetry; points on the
    closed washer surface itself are rejected.  The tail bound covers the
    current neglected beyond cfg.u_max.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    rho = np.hypot(pts[:, 0], pts[:, 1])
    z = pts[:, 2]
    on_washer = (np.abs(z) == 0.0) & (rho >= R_INNER) & (rho <= R_OUTER)
    if np.any(on_washer):
        raise ValueError("point lies on the closed washer surface")
    a_phi = _a_phi(rho, z, cfg.n_u, cfg.u_max)
    if not np.all(np.isfinite(a_phi)):
        raise ValueError(
            "elliptic kernel lost precision (point closer than ~1e-7 "
            "to the rim circle)"
        )
    # the neglected current beyond u_max is exactly 1/u_max and sits on the
    # rim circle; its kernel is bounded by the kernel at the rim distance
    dist2 = (rho - R_OUTER) ** 2 + z ** 2
    rim_kern = _azimuthal_integral(np.maximum(dist2, 1e-300),
                                   2.0 * rho * R_OUTER)
    tail = np.where(dist2 > 0,
                    np.abs(rim_kern) / (4.0 * math.pi * cfg.u_max), np.inf)
    vec = a_phi[:, None] * _azimuthal(pts[:, 0], pts[:, 1], rho)
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


def energy(cfg: WasherConfig = WasherConfig()) -> dict:
    """Field energy W with a cutoff-refinement (Cauchy) trace over the
    doubling u_max cutoffs 32, 64, ..., 4096.

    W = 2 pi * double integral of lambda(r) lambda(r') K(r, r') with the
    elliptic kernel K; computed over the symmetric triangle r' <= r with
    tanh-sinh inner quadrature absorbing the log singularity at r' = r.
    Returns the value at each u_max cutoff; the sequence must be
    increasing and Cauchy for the energy to qualify as finite.
    """
    cutoffs = [32.0 * 2 ** k for k in range(8)]
    xs, ws = _tanh_sinh_nodes(24 * 8)
    values = []
    for u_hi in cutoffs:
        u_out, _, w_out = _u_nodes(cfg.n_u, u_hi)
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


def flux_probe(loop: LoopCEpsilon, cfg: WasherConfig = WasherConfig(),
               n_quad: int = 64) -> float:
    """Line integral of the potential around the rim-hugging loop.

    Returns +inf for loop.eps = 0 (the loop touches the rim, where the
    tangential potential diverges); otherwise integrates each segment of
    `loop.path()` by Gauss quadrature (the radial ones vanish identically
    up to quadrature noise but are included).  One potential call takes
    the four segments' points; each point's sum is its own, so bits hold.
    """
    if loop.eps == 0.0:
        return math.inf
    x, w = _leggauss(n_quad)
    s = 0.5 * (x + 1.0)
    ws = 0.5 * w
    segments = loop.path().segments
    pts = np.concatenate([seg.position(s) for seg in segments])
    A = np.split(vector_potential(pts, cfg)["A"], len(segments))
    total = 0.0
    for seg, a in zip(segments, A):
        total += float(np.sum(ws * np.einsum("ij,ij->i", a, seg.velocity(s))))
    return total


def washer_to_grid(cfg: WasherConfig, grid: GridSpec, origin,
                   cap_u_max: float) -> dict:
    """Sample the washer potential onto a box grid as a U(1) 1-form.

    The box occupies origin + [0, L1] x [0, L2] x [0, L3] in washer
    coordinates.  Nodes closer than one spacing to the closed washer
    surface are evaluated with the u-cutoff capped at `cap_u_max` and
    counted.

    A_phi depends on a node only through rho = hypot(x, y) and z**2, and
    each node's value is elementwise work plus a sum over its own row of
    u-nodes.  So the kernel is evaluated once per distinct (rho, |z|)
    pair of the padded grid and gathered back onto the nodes; every node
    gets the same bits as evaluating it on its own.
    """
    if cap_u_max <= U_MIN:
        raise ValueError("cap_u_max must exceed log 2")
    origin = np.asarray(origin, dtype=float)
    A = KForm(1, grid, u1())
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
    a_t = np.empty(rho_t.shape)
    a_t[~close_t] = _a_phi(rho_t[~close_t], z_t[~close_t], cfg.n_u,
                           cfg.u_max)
    if np.any(close_t):
        a_t[close_t] = _a_phi(rho_t[close_t], z_t[close_t], cfg.n_u,
                              cap_u_max)
    a_phi = a_t[node]
    phi_hat = _azimuthal(x[:, None], y[None, :], rho_xy)
    vec = phi_hat[:, :, None, :] * a_phi[..., None]
    vec[rho_xy == 0] = 0.0
    A.values[..., 0] = np.moveaxis(vec, -1, 0)
    return {"field": A, "capped_nodes": int(close_t[node].sum())}
