"""Command-line entry point: configuration, dispatch, and reports.

Every run reads one JSON config (schema-validated, unknown keys
rejected), executes a single subcommand, and writes a JSON report of
inequality checks plus CSV time series into the output directory.
Exit status: 0 if every check passes, 1 if any check fails, 2 on a
configuration problem (any ``ValueError``: the schema's, the builders'
or a library input check; or an ``OSError`` on a file the run names), 3
on a numerical abort (any ``RuntimeError``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path as FilePath

import numpy as np
import jsonschema

from . import report
from .algebra import su2, u1
from .fields import coulomb_cosine, random_smooth
from .flow import (FlowConfig, FlowConstants, dt_ceiling, integrate,
                   verify_bounds)
from .grid import BoundarySpec, GridSpec, apply_boundary
from .neumann import (
    NeumannSemigroup,
    a4_constant,
    diamagnetic_check,
    domination_check,
    omega_record,
)
from .snapshot import snapshot_read, snapshot_write
from .tolerances import margin_tol
from .transport import (
    LINE_STEPS,
    Loop,
    check_ladder,
    check_paths,
    convergence_probe,
    line_integral,
    segment_from_json,
    transport_many,
)
from .washer import (
    SANDWICH_THETA0,
    SANDWICH_U,
    SANDWICH_V,
    LoopCEpsilon,
    WasherConfig,
    energy,
    fit_theta_bounds,
    flux_probe,
    theta_bounds_check,
    total_current,
    vector_potential,
    washer_to_grid,
)

__all__ = ["main", "execute", "load_config", "CONFIG_SCHEMA"]


class ConfigError(ValueError):
    """Configuration rejected before any computation."""


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

def _numbers(n):
    return {"type": "array", "items": {"type": "number"},
            "minItems": n, "maxItems": n}


def _kind(kind, required, **keys):
    """An object of `kind` has `kind` and `keys` only, with those named in
    `required`.  One without 'kind' matches no kind, so the error reported
    is the missing 'kind'."""
    return {"if": {"properties": {"kind": {"const": kind}},
                   "required": ["kind"]},
            "then": {"properties": {"kind": {}, **keys},
                     "required": required, "additionalProperties": False}}


# a line runs from start to end; an arc turns about a 2-D center at height z
_SEGMENT_SCHEMA = {
    "type": "object",
    "properties": {"kind": {"enum": ["line", "arc"]}},
    "required": ["kind"],
    "allOf": [
        _kind("line", ["start", "end"], start=_numbers(3), end=_numbers(3)),
        _kind("arc", ["center", "z", "radius", "phi0", "phi1"],
              center=_numbers(2), z={"type": "number"},
              radius={"type": "number", "exclusiveMinimum": 0},
              phi0={"type": "number"}, phi1={"type": "number"}),
    ],
}

# the C_eps ladder of washer-flux and washer-regularize
_RIM_LADDER_PROPERTIES = {
    # the flux fit's variable log log(1/eps) needs 0 < eps < 1
    "eps_ladder": {"type": "array",
                   "items": {"type": "number", "exclusiveMinimum": 0,
                             "exclusiveMaximum": 1},
                   "minItems": 2, "uniqueItems": True},
    "r_out": {"type": "number", "exclusiveMinimum": 1},
    "phi_span": {"type": "number", "exclusiveMinimum": 0, "maximum": 6.2832},
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "grid": {
            "type": "object",
            "properties": {
                "extents": {"type": "array", "items":
                            {"type": "number", "exclusiveMinimum": 0},
                            "minItems": 3, "maxItems": 3},
                "shape": {"type": "array", "items":
                          {"type": "integer", "minimum": 8},
                          "minItems": 3, "maxItems": 3},
            },
            "required": ["extents", "shape"],
            "additionalProperties": False,
        },
        "boundary": {"enum": ["neumann", "dirichlet", "marini"]},
        "field": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["coulomb-cosine", "random-smooth",
                                  "snapshot"]},
            },
            "required": ["kind"],
            "allOf": [
                _kind("coulomb-cosine", [], amplitude={"type": "number"}),
                _kind("random-smooth", [], amplitude={"type": "number"},
                      seed={"type": "integer", "minimum": 0},
                      algebra={"enum": ["U1", "SU2"]}),
                _kind("snapshot", ["path"], path={"type": "string"}),
            ],
        },
        "flow": {
            "type": "object",
            "properties": {
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "t_end": {"type": "number", "exclusiveMinimum": 0},
                "variant": {"enum": ["YM", "ZDS"]},
                "snapshot_times": {"type": "array",
                                   "items": {"type": "number"}},
                "write_snapshots": {"type": "boolean"},
            },
            "required": ["dt", "t_end"],
            "additionalProperties": False,
        },
        "oracle": {"enum": ["abelian-spectral"]},
        "constants": {
            "type": "object",
            "properties": {
                "kernel_modes": {"type": "integer", "minimum": 8},
                "tau": {"type": "number", "exclusiveMinimum": 0,
                        "maximum": 0.5},
            },
            "additionalProperties": False,
        },
        "domination": {
            "type": "object",
            "properties": {
                "omega_kinds": {"type": "array",
                                "items": {"enum": ["B", "A'"]},
                                "minItems": 1, "uniqueItems": True},
            },
            "additionalProperties": False,
        },
        "diamagnetic": {
            "type": "object",
            "properties": {
                "t": {"type": "number", "exclusiveMinimum": 0},
                "boundaries": {"type": "array",
                               "items": {"enum": ["neumann", "dirichlet"]},
                               "minItems": 1, "uniqueItems": True},
                "omega_seed": {"type": "integer", "minimum": 0},
                "omega_degree": {"type": "integer", "minimum": 0,
                                 "maximum": 3},
            },
            "required": ["t"],
            "additionalProperties": False,
        },
        "loops": {
            "type": "array",
            "items": {"type": "array", "items": _SEGMENT_SCHEMA,
                      "minItems": 1},
            "minItems": 1,
        },
        "wilson": {
            "type": "object",
            "properties": {
                "n_steps": {"type": "integer", "minimum": 8},
                "ladder": {"type": "array",
                           "items": {"type": "number",
                                     "exclusiveMinimum": 0},
                           "minItems": 4, "uniqueItems": True},
            },
            "additionalProperties": False,
        },
        "washer": {
            "type": "object",
            "properties": {
                "u_max": {"type": "number", "exclusiveMinimum": 0},
                "n_u": {"type": "integer", "minimum": 8},
            },
            "additionalProperties": False,
        },
        "flux": {
            "type": "object",
            "properties": _RIM_LADDER_PROPERTIES,
            "additionalProperties": False,
        },
        "regularize": {
            "type": "object",
            "properties": {
                "origin": _numbers(3),
                "cap_u_max": {"type": "number", "exclusiveMinimum": 0},
                **_RIM_LADDER_PROPERTIES,
            },
            "required": ["origin"],
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}


# an "integer" is a JSON integer: the stock checker also takes an
# integral float such as 16.0, which numpy's seeds and quadratures refuse
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer",
        lambda checker, x: isinstance(x, int) and not isinstance(x, bool)),
)
# built once: jsonschema.validate would re-check the constant schema
# against its meta-schema on every call
_VALIDATOR = _Validator(CONFIG_SCHEMA)


def _finite_number(text):
    """Parse a JSON number or constant; NaN and +-Infinity (which
    ``json`` accepts, as literals or as overflowing floats) are refused."""
    x = float(text)
    if not math.isfinite(x):
        raise ConfigError(f"config number {text} is not finite")
    return x


def _validate(cfg: dict) -> None:
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(cfg))
    if error is not None:
        raise ConfigError(f"config schema violation: {error.message}")


def load_config(path) -> dict:
    """Read a JSON run configuration; `execute` validates it."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg = json.load(f, parse_float=_finite_number,
                            parse_constant=_finite_number)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    return cfg


# ---------------------------------------------------------------------------
# Shared builders
# ---------------------------------------------------------------------------


def _grid_from(cfg: dict) -> GridSpec:
    g = cfg["grid"]
    return GridSpec(tuple(g["extents"]), tuple(g["shape"]))


def _boundary_from(cfg: dict) -> BoundarySpec:
    return BoundarySpec(cfg.get("boundary", "neumann"))


def _field_from(cfg: dict, grid: GridSpec):
    f = cfg["field"]
    kind = f["kind"]
    if kind == "snapshot":
        field, _t = snapshot_read(f["path"])
        if field.grid != grid or field.degree != 1:
            raise ConfigError(
                f"snapshot holds a {field.degree}-form on {field.grid}; "
                f"the run needs a 1-form on {grid}"
            )
        return field
    if kind == "coulomb-cosine":
        return coulomb_cosine(grid, amplitude=f.get("amplitude", 1.0))
    alg = {"U1": u1, "SU2": su2}[f.get("algebra", "SU2")]()
    return random_smooth(grid, alg, seed=f.get("seed", 0),
                         amplitude=f.get("amplitude", 0.05))


def _flow_config(fl: dict, bc: BoundarySpec, grid: GridSpec) -> FlowConfig:
    """A 'flow' section as a FlowConfig, validated against the grid before
    any field is built."""
    fc = FlowConfig(bc, **{k: v for k, v in fl.items()
                           if k != "write_snapshots"})
    fc.validate(grid)
    return fc


def _monitor_csv(monitors, path) -> None:
    cols = ("t", "B_l2", "B_linf", "Ap_l2", "beta", "psi_inf")
    rows = zip(*(getattr(monitors, c) for c in cols))
    report.emit_csv(cols, rows, path)


def _abelian_spectral_check(traj, A0, tol: float) -> dict:
    """Relative L2 gap between the flowed field and its spectral solution.

    For divergence-free abelian data each cosine mode decays with the
    central-difference dispersion sum_i (sin(k_i h)/h)^2, so the end
    state has an independent closed form on the same grid.
    """
    grid = A0.grid
    t = traj.monitors.t[-1]
    L1, L2, _ = grid.extents
    h = grid.spacing
    lam = sum(
        (math.sin(math.pi / L * hh) / hh) ** 2
        for L, hh in zip((L1, L2), h[:2])
    )
    exact = math.exp(-lam * t) * A0
    err = ((traj.final + (-1.0) * exact).norm("L2")
           / max(exact.norm("L2"), 1e-300))
    return report.check_row("abelian_spectral_equivalence", err, 0.0, tol)


def _rim_loops(sec: dict) -> list:
    """The C_eps loops of a 'flux' or 'regularize' section, largest eps
    first; an absent r_out or phi_span takes LoopCEpsilon's default."""
    ladder = sorted(sec.get("eps_ladder", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]),
                    reverse=True)
    shape = {k: sec[k] for k in ("r_out", "phi_span") if k in sec}
    return [LoopCEpsilon(eps, **shape) for eps in ladder]


# ---------------------------------------------------------------------------
# Subcommand implementations (each returns (results dict, check rows))
# ---------------------------------------------------------------------------


def _cmd_constants(cfg, out, tol_scale):
    from scipy.integrate import quad

    grid = _grid_from(cfg) if "grid" in cfg \
        else GridSpec((1.0, 1.0, 1.0), (16, 16, 16))
    opts = cfg.get("constants", {})
    km = opts.get("kernel_modes", 512)
    tau = opts.get("tau", 0.5)
    sg = NeumannSemigroup(grid, kernel_modes=km)
    sg2 = NeumannSemigroup(grid, kernel_modes=2 * km)
    c_N = sg.c_N_estimate()
    c_N2 = sg2.c_N_estimate()
    # the Beta integral by quadrature after s = sin^2(theta), which removes
    # both endpoint singularities: an independent check of the closed form
    a4, _ = quad(lambda th: 2.0 * (math.sin(th) * math.cos(th)) ** (-0.5),
                 0.0, math.pi / 2, limit=200_000)
    a4_exact = a4_constant()
    k = FlowConstants(c_N=c_N2, a4=a4_exact, tau=tau)
    rows = [
        report.check_row("a4_quadrature_vs_gamma", abs(a4 - a4_exact),
                         0.0, tol_scale * 1e-8),
        report.check_row("c_N_mode_doubling_stability",
                         abs(c_N2 - c_N) / c_N, 0.0, tol_scale * 0.01),
        report.check_row("c_N_constant_mode_lower_bound", 1.0, c_N2,
                         tol_scale * 1e-9),
    ]
    results = {
        "c_N": c_N2,
        "c_N_refinement_delta": c_N2 - c_N,
        "kernel_modes": [km, 2 * km],
        "a4": a4,
        "a4_exact": a4_exact,
        "a": k.a,
        "gamma": k.gamma,
        "tau": tau,
    }
    return results, rows


def _cmd_flow(cfg, out, tol_scale):
    grid = _grid_from(cfg)
    fc = _flow_config(cfg["flow"], _boundary_from(cfg), grid)
    oracle = cfg.get("oracle") == "abelian-spectral"
    # the closed form is the cosine mode's, which a Dirichlet fill breaks
    if oracle and (cfg["field"]["kind"] != "coulomb-cosine"
                   or fc.bc.kind == "dirichlet"):
        raise ConfigError("abelian-spectral oracle needs a coulomb-cosine "
                          "field and a neumann or marini boundary")
    A0 = _field_from(cfg, grid)
    traj = integrate(A0, fc)
    m = traj.monitors
    _monitor_csv(m, out / "monitors.csv")
    if cfg["flow"].get("write_snapshots", False):
        for t, field in zip(traj.times, traj.fields):
            snapshot_write(field, t, out / f"snapshot_t{t:.6f}.ymf")
    rel_up = float(np.max(m.B_l2[1:] / np.maximum(m.B_l2[:-1], 1e-300) - 1.0)
                   ) if len(m) > 1 else 0.0
    rows = [
        report.check_row("B_l2_nonincreasing", rel_up, 0.0,
                         tol_scale * 1e-12),
        report.check_row("action_bound", m.action[-1],
                         m.B_l2[0] ** 2 * (1 + 1e-3), 0.0),
    ]
    if oracle:
        rows.append(_abelian_spectral_check(traj, A0, tol_scale * 1e-4))
    results = {
        "steps": len(m) - 1,
        "t_end": float(m.t[-1]),
        "B_l2_initial": float(m.B_l2[0]),
        "B_l2_final": float(m.B_l2[-1]),
        "Ap_l2_final": float(m.Ap_l2[-1]),
        "action": float(m.action[-1]),
        "snapshots_written": len(traj.times),
    }
    return results, rows


def _cmd_verify_bounds(cfg, out, tol_scale):
    grid = _grid_from(cfg)
    fc = _flow_config(cfg["flow"], _boundary_from(cfg), grid)
    opts = cfg.get("constants", {})
    sg = NeumannSemigroup(grid, kernel_modes=opts.get("kernel_modes", 512))
    k = FlowConstants(c_N=sg.c_N_estimate(), a4=a4_constant(),
                      tau=opts.get("tau", 0.5))
    traj = integrate(_field_from(cfg, grid), fc)
    _monitor_csv(traj.monitors, out / "monitors.csv")
    rows = verify_bounds(traj, k, margin_tol(min(grid.spacing), fc.dt,
                                             tol_scale))
    results = {"constants": {"c_N": k.c_N, "a4": k.a4, "a": k.a,
                             "gamma": k.gamma, "tau": k.tau}}
    return results, rows


def _cmd_verify_domination(cfg, out, tol_scale):
    grid = _grid_from(cfg)
    bc = _boundary_from(cfg)
    if bc.kind != "neumann":
        raise ConfigError("heat-kernel domination is a Neumann check")
    fc = _flow_config(cfg["flow"], bc, grid)
    if len(fc.snapshot_schedule()) < 3:
        raise ConfigError("domination needs >= 3 snapshot times")
    kinds = cfg.get("domination", {}).get("omega_kinds", ["B", "A'"])
    traj = integrate(_field_from(cfg, grid), fc,
                     on_snapshot=lambda A, Ap, B: omega_record(A, Ap, B, kinds))
    _monitor_csv(traj.monitors, out / "monitors.csv")
    sg = NeumannSemigroup(grid)
    h = min(grid.spacing)
    tol = margin_tol(h, fc.dt, tol_scale)
    rows, results = [], {"snapshot_times": list(traj.times)}
    for kind in kinds:
        res = domination_check(sg, traj, omega_kind=kind)
        tag = "B" if kind == "B" else "Ap"
        rows.append(report.check_row(
            f"domination_{tag}", -res["min_margin"], 0.0, tol))
        results[f"per_time_margin_{tag}"] = list(res["per_time_margin"])
    return results, rows


def _cmd_verify_diamagnetic(cfg, out, tol_scale):
    grid = _grid_from(cfg)
    dia = cfg["diamagnetic"]
    t = dia["t"]
    A = _field_from(cfg, grid)
    omega0 = random_smooth(
        grid, A.algebra, seed=dia.get("omega_seed", 1),
        amplitude=0.3, degree=dia.get("omega_degree", 2),
    )
    tol = margin_tol(min(grid.spacing), dt_ceiling(grid), tol_scale)
    sg = NeumannSemigroup(grid)
    rows, results = [], {"t": t}
    for kind in dia.get("boundaries", ["neumann", "dirichlet"]):
        bc = BoundarySpec(kind)
        res = diamagnetic_check(sg, apply_boundary(A, bc),
                                apply_boundary(omega0, bc), t)
        rows.append(report.check_row(
            f"diamagnetic_{kind}", -res["min_margin"], 0.0, tol))
        results[f"min_margin_{kind}"] = res["min_margin"]
    return results, rows


def _cmd_wilson(cfg, out, tol_scale):
    grid = _grid_from(cfg)
    loops = [Loop([segment_from_json(s) for s in spec])
             for spec in cfg["loops"]]
    opts = cfg.get("wilson", {})
    n_steps = opts.get("n_steps", 256)
    ladder = opts.get("ladder")
    if ladder is None and "flow" in cfg:
        raise ConfigError("a 'flow' section needs a wilson ladder to flow to")
    bc = _boundary_from(cfg)
    check_paths(grid, loops, n_steps)
    if ladder is not None:
        check_ladder(sorted(ladder))
        fl = cfg.get("flow", {})
        if "snapshot_times" in fl or fl.get("t_end", max(ladder)) != max(ladder):
            raise ConfigError("a wilson ladder sets the flow's snapshot "
                              "times and ends at its top rung")
        fc = _flow_config({"dt": dt_ceiling(grid), **fl, "t_end": max(ladder),
                           "snapshot_times": sorted(ladder)}, bc, grid)
    A = apply_boundary(_field_from(cfg, grid), bc)
    fields = [A]
    if ladder is not None:
        traj = integrate(A, fc)
        fields += traj.fields
    # every (loop, field) pair in one call; column 0 is the t = 0 field
    hols = transport_many(fields, loops, n_steps)
    traces = [complex(z) for z in np.trace(hols[:, 0], axis1=-2, axis2=-1)]
    report.emit_csv(
        ("loop", "re_trace", "im_trace"),
        [(i, z.real, z.imag) for i, z in enumerate(traces)],
        out / "traces.csv",
    )
    rows = [
        report.check_row("trace_unitarity_bound",
                         max(abs(z) for z in traces), float(A.algebra.rep_dim),
                         tol_scale * 1e-8)
    ]
    results = {"traces": [[z.real, z.imag] for z in traces]}
    if ladder is not None:
        probe = convergence_probe(traj, hols[:, 1:])
        rows.append(report.check_row(
            "trace_diffs_nonincreasing_tail",
            0.0 if probe["diffs_nonincreasing_tail"] else 1.0, 0.0, 0.0))
        results["ladder"] = sorted(ladder)
        results["ladder_diffs"] = [list(map(float, d))
                                   for d in np.atleast_2d(probe["trace_diffs"])]
    return results, rows


def _cmd_washer_energy(cfg, out, tol_scale):
    wc = WasherConfig(**cfg.get("washer", {}))
    res = energy(wc)
    report.emit_csv(
        ("cutoff", "value", "rel_gap"),
        [(c, v, g) for c, v, g in
         zip(res["cutoffs"], res["values"],
             [float("nan")] + res["rel_gaps"])],
        out / "energy.csv",
    )
    cur = total_current(wc)
    fit = fit_theta_bounds()
    rows = [
        report.check_row("energy_cauchy_rel_gap", res["rel_gaps"][-1],
                         0.0, tol_scale * 1e-3),
        report.check_row("total_current", cur["difference"], 0.0,
                         tol_scale * 1e-10),
        report.check_row(
            "angular_kernel_sandwich",
            0.0 if all(
                theta_bounds_check(u, v, SANDWICH_THETA0)["passed"]
                for u in SANDWICH_U for v in SANDWICH_V
            ) else 1.0, 0.0, 0.0),
    ]
    results = {
        "W": res["W"],
        "cutoffs": res["cutoffs"],
        "rel_gaps": res["rel_gaps"],
        "total_current_exact": cur["exact"],
        "sandwich_constants": {"c1": fit.c1, "c2": fit.c2,
                               "C1": fit.C1, "C2": fit.C2},
    }
    return results, rows


def _cmd_washer_flux(cfg, out, tol_scale):
    wc = WasherConfig(**cfg.get("washer", {}))
    loops = _rim_loops(cfg.get("flux", {}))
    eps_ladder = [lp.eps for lp in loops]
    fluxes, tails = [], []
    for lp in loops:
        fluxes.append(flux_probe(lp, wc))
        probe_pt = np.array([1.0 + lp.eps, 0.0, 0.0])
        tail = vector_potential(probe_pt, wc)["tail_bound"]
        tails.append(tail * lp.phi_span * (1.0 + lp.eps))
    report.emit_csv(("eps", "flux", "tail_bound"),
                    zip(eps_ladder, fluxes, tails), out / "flux.csv")
    increasing = all(b > a for a, b in zip(fluxes, fluxes[1:]))
    # conjectural growth law: flux ~ a + b log log(1/eps)
    x = np.log(np.log(1.0 / np.asarray(eps_ladder)))
    coef = np.polyfit(x, fluxes, 1)
    resid = np.max(np.abs(np.polyval(coef, x) - fluxes)) / (
        max(fluxes) - min(fluxes))
    rows = [
        report.check_row("flux_strictly_increasing",
                         0.0 if increasing else 1.0, 0.0, 0.0),
        report.check_row("loglog_fit_residual", float(resid), 0.0,
                         tol_scale * 0.05),
    ]
    results = {
        "eps_ladder": eps_ladder,
        "fluxes": fluxes,
        "tail_bounds": tails,
        "growth_rate": float(coef[0]),
        "growth_rate_conjectural": True,
    }
    return results, rows


def _cmd_washer_regularize(cfg, out, tol_scale):
    wc = WasherConfig(**cfg.get("washer", {}))
    grid = _grid_from(cfg)
    reg = cfg["regularize"]
    origin = np.asarray(reg["origin"], dtype=float)
    bc = _boundary_from(cfg)
    if bc.kind != "neumann":
        raise ConfigError("washer-regularize flows under a Neumann boundary")
    fc = _flow_config(cfg["flow"], bc, grid)
    loops = _rim_loops(reg)
    # C_eps in box coordinates, integrated on the grid after the flow
    paths = [lp.path(-origin) for lp in loops]
    check_paths(grid, paths, LINE_STEPS)
    flux0 = [flux_probe(lp, wc) for lp in loops]
    sampled = washer_to_grid(wc, grid, origin,
                             cap_u_max=reg.get("cap_u_max", 12.0))
    traj = integrate(sampled["field"], fc)
    _monitor_csv(traj.monitors, out / "monitors.csv")
    flux_t = [float(line_integral(traj.final, path)[0]) for path in paths]
    eps_ladder = [lp.eps for lp in loops]
    report.emit_csv(("eps", "flux_t0", "flux_t"),
                    zip(eps_ladder, flux0, flux_t), out / "flux.csv")

    f_a, f_b = flux_t[-2], flux_t[-1]
    conv = abs(f_b - f_a) / max(abs(f_a), 1e-300)
    diverging = all(b > a for a, b in zip(flux0, flux0[1:]))
    rows = [
        report.check_row("flowed_flux_ladder_converges", conv, 0.0,
                         tol_scale * 1e-3),
        report.check_row("initial_flux_ladder_diverges",
                         0.0 if diverging else 1.0, 0.0, 0.0),
    ]
    results = {
        "eps_ladder": eps_ladder,
        "flux_t0": flux0,
        "flux_t": flux_t,
        "t": float(traj.monitors.t[-1]),
        "capped_nodes": sampled["capped_nodes"],
        "cap_u_max": sampled["cap_u_max"],
    }
    return results, rows


# each command, the top-level sections it requires and those it may read
_DISPATCH = {
    "flow": (_cmd_flow, {"grid", "field", "flow"}, {"boundary", "oracle"}),
    "verify-domination": (_cmd_verify_domination, {"grid", "field", "flow"},
                          {"boundary", "domination"}),
    "verify-diamagnetic": (_cmd_verify_diamagnetic,
                           {"grid", "field", "diamagnetic"}, set()),
    "verify-bounds": (_cmd_verify_bounds, {"grid", "field", "flow"},
                      {"boundary", "constants"}),
    "constants": (_cmd_constants, set(), {"grid", "constants"}),
    "wilson": (_cmd_wilson, {"grid", "field", "loops"},
               {"boundary", "flow", "wilson"}),
    "washer-energy": (_cmd_washer_energy, set(), {"washer"}),
    "washer-flux": (_cmd_washer_flux, set(), {"washer", "flux"}),
    "washer-regularize": (_cmd_washer_regularize,
                          {"grid", "flow", "regularize"},
                          {"boundary", "washer"}),
}

COMMANDS = tuple(_DISPATCH)


def execute(command: str, cfg: dict, out_dir, tol_scale: float = 1.0,
            seed: int | None = None) -> int:
    """Run one subcommand on a config, schema-validated here (and again
    after `seed` is merged into its field); write report files (the first
    one creates `out_dir`); return the exit status."""
    _validate(cfg)
    if seed is not None:
        if "field" not in cfg:
            raise ConfigError("--seed sets the seed of a random-smooth field "
                              "only")
        cfg = dict(cfg, field=dict(cfg["field"], seed=seed))
        _validate(cfg)
    if not 0 < tol_scale < math.inf:
        raise ConfigError(f"tol_scale must be finite and positive, "
                          f"not {tol_scale}")
    run, required, optional = _DISPATCH[command]
    missing = sorted(required - set(cfg))
    if missing:
        raise ConfigError(f"{command} requires the sections {missing}")
    unread = sorted(set(cfg) - required - optional)
    if unread:
        raise ConfigError(f"{command} does not read {unread}")
    if command != "flow" and "write_snapshots" in cfg.get("flow", {}):
        raise ConfigError("only the flow command writes snapshots")
    out = FilePath(out_dir)
    results, rows = run(cfg, out, tol_scale)
    doc = {
        "command": command,
        "tol_scale": tol_scale,
        "seed": seed,
        "checks": rows,
        "results": results,
    }
    report.emit_json(doc, out / "report.json")
    return 0 if report.all_passed(rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ymheat",
        description="Yang-Mills heat-flow toolkit on a 3-D box",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True,
                        help="JSON run configuration")
    parser.add_argument("--out", default=".",
                        help="output directory for reports")
    parser.add_argument("--tol-scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=None,
                        help="override the random-field seed")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        return execute(args.command, cfg, args.out,
                       tol_scale=args.tol_scale, seed=args.seed)
    except (ValueError, OSError) as e:
        print(f"ymheat: config error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"ymheat: numerical abort: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
