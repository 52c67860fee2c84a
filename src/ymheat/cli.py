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
import numbers
import operator
import sys
from pathlib import Path as FilePath

import numpy as np

from . import report
from .algebra import su2, u1
from .fields import coulomb_cosine, random_smooth
from .flow import (ENERGY_SLACK, FlowConfig, FlowConstants, dt_ceiling,
                   integrate, verify_bounds)
from .grid import BoundarySpec, GridSpec, apply_boundary
from .neumann import (
    DominationStream,
    NeumannSemigroup,
    a4_constant,
    diamagnetic_check,
    domination_check,
)
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
    LoopCEpsilon,
    WasherConfig,
    energy,
    flux_probe,
    total_current,
    vector_potential,
    washer_to_grid,
)

__all__ = ["main", "execute", "load_config"]


class ConfigError(ValueError):
    """Configuration rejected before any computation."""


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}


def _numbers(n, items=_NUMBER):
    return {"type": "array", "items": items, "minItems": n, "maxItems": n}


def _unique(items, min_items):
    return {"type": "array", "items": items, "minItems": min_items,
            "uniqueItems": True}


def _strict(required=(), **properties):
    """An object with `properties` only, those in `required` among them."""
    return {"type": "object", "properties": properties,
            "required": list(required), "additionalProperties": False}


def _kinds(kinds):
    """An object whose 'kind' names one of `kinds` and whose other keys are
    that kind's: `kinds` maps each to its (required, properties).  One
    without 'kind' matches no kind, so the error reported is the missing
    'kind'."""
    return {"type": "object", "properties": {"kind": {"enum": list(kinds)}},
            "required": ["kind"],
            "allOf": [{"if": {"properties": {"kind": {"const": kind}},
                              "required": ["kind"]},
                       "then": _strict(required, kind={}, **properties)}
                      for kind, (required, properties) in kinds.items()]}


# the C_eps ladder of washer-flux and washer-regularize
_RIM_LADDER = dict(
    # the flux fit's variable log log(1/eps) needs 0 < eps < 1
    eps_ladder=_unique(dict(_POSITIVE, exclusiveMaximum=1), 2),
    r_out={"type": "number", "exclusiveMinimum": 1},
    phi_span=dict(_POSITIVE, maximum=6.2832),
)
_FLOW = dict(dt=_POSITIVE, t_end=_POSITIVE, variant={"enum": ["YM", "ZDS"]})
# an absent boundary is Neumann too
_NEUMANN = {"const": "neumann"}

# each top-level section as every command that reads it takes it, unless
# the command's schema restates it
_SECTIONS = {
    "grid": _strict(["extents", "shape"], extents=_numbers(3, _POSITIVE),
                    shape=_numbers(3, {"type": "integer", "minimum": 8})),
    "boundary": {"enum": ["neumann", "dirichlet", "marini"]},
    "field": _kinds({
        "coulomb-cosine": ([], {"amplitude": _NUMBER}),
        "random-smooth": ([], {"amplitude": _NUMBER,
                               "seed": {"type": "integer", "minimum": 0},
                               "algebra": {"enum": ["U1", "SU2"]}})}),
    "flow": _strict(["dt", "t_end"], **_FLOW),
    "oracle": {"enum": ["abelian-spectral"]},
    "constants": _strict(kernel_modes={"type": "integer", "minimum": 8},
                         tau=dict(_POSITIVE, maximum=0.5)),
    "domination": _strict(omega_kinds=_unique({"enum": ["B", "A'"]}, 1)),
    "diamagnetic": _strict(
        ["t"], t=_POSITIVE,
        boundaries=_unique({"enum": ["neumann", "dirichlet"]}, 1),
        omega_seed={"type": "integer", "minimum": 0},
        omega_degree={"type": "integer", "minimum": 0, "maximum": 3}),
    # a line runs from start to end; an arc turns about a 2-D center at
    # height z
    "loops": {"type": "array", "minItems": 1, "items": {
        "type": "array", "minItems": 1, "items": _kinds({
            "line": (["start", "end"], {"start": _numbers(3),
                                        "end": _numbers(3)}),
            "arc": (["center", "z", "radius", "phi0", "phi1"],
                    {"center": _numbers(2), "z": _NUMBER,
                     "radius": _POSITIVE, "phi0": _NUMBER,
                     "phi1": _NUMBER})})}},
    "wilson": _strict(["ladder"], n_steps={"type": "integer", "minimum": 8},
                      ladder=_unique(_POSITIVE, 4)),
    "washer": _strict(u_max=_POSITIVE, n_u={"type": "integer", "minimum": 8}),
    "flux": _strict(**_RIM_LADDER),
    "regularize": _strict(["origin"], origin=_numbers(3),
                          cap_u_max=_POSITIVE, **_RIM_LADDER),
}


def _config(required, optional=(), premise=None, **sections):
    """One command's config schema: the sections in `required`, any of
    those in `optional` and no other, each as `_SECTIONS` states it unless
    `sections` restates it.  A `premise` (section, then) makes a config
    that holds `section` match `then` too."""
    schema = _strict(required, **{k: sections.get(k, _SECTIONS[k])
                                  for k in (*required, *optional)})
    if premise is not None:
        schema["if"] = {"required": [premise[0]]}
        schema["then"] = premise[1]
    _check_schema(schema)
    return schema


# ---------------------------------------------------------------------------
# Schema interpreter: the JSON Schema keywords the schemas above use
# ---------------------------------------------------------------------------

# a bool is no number, and an "integer" is a JSON integer: 16.0 is not one,
# since numpy's seeds and quadratures refuse it
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "number": numbers.Number, "integer": int}
# each bound: the test a number breaking it passes, in jsonschema's words
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge,
                         "greater than or equal to the maximum of"),
}
_KEYWORDS = {*_BOUNDS, "type", "enum", "const", "minItems", "maxItems",
             "uniqueItems", "items", "properties", "required",
             "additionalProperties", "allOf", "if", "then"}


def _is(x, type_):
    return isinstance(x, _TYPES[type_]) and (
        type_ == "boolean" or not isinstance(x, bool))


def _equal(a, b):
    """JSON equality: 1 equals 1.0, but true does not equal 1."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _broken(key, arg, x, schema):
    """jsonschema's message if `x` breaks `schema`'s keyword `key` (which
    holds no subschema) with value `arg`, else None.  A keyword passes an
    `x` of a type it does not judge."""
    if key == "type" and not _is(x, arg):
        return f"{x!r} is not of type {arg!r}"
    if key == "enum" and not any(_equal(x, e) for e in arg):
        return f"{x!r} is not one of {arg!r}"
    if key == "const" and not _equal(x, arg):
        return f"{arg!r} was expected"
    if key in _BOUNDS and _is(x, "number") and _BOUNDS[key][0](x, arg):
        return f"{x!r} is {_BOUNDS[key][1]} {arg!r}"
    if key == "minItems" and _is(x, "array") and len(x) < arg:
        return f"{x!r} " + ("should be non-empty" if arg == 1
                            else "is too short")
    if key == "maxItems" and _is(x, "array") and len(x) > arg:
        return f"{x!r} " + ("is expected to be empty" if arg == 0
                            else "is too long")
    if key == "uniqueItems" and arg and _is(x, "array") and any(
            _equal(a, b) for i, a in enumerate(x) for b in x[:i]):
        return f"{x!r} has non-unique elements"
    if key == "additionalProperties" and _is(x, "object"):
        extra = sorted(x.keys() - schema.get("properties", {}).keys())
        if extra:
            return ("Additional properties are not allowed (%s %s "
                    "unexpected)" % (", ".join(map(repr, extra)),
                                     "was" if len(extra) == 1 else "were"))
    return None


def _errors(schema, x, path=()):
    """Yield (path, message, x has the schema's type) for each way `x`
    breaks `schema`, in jsonschema's order: keyword by keyword, subschemas
    where they stand."""
    typed = "type" in schema and _is(x, schema["type"])
    for key, arg in schema.items():
        if key == "allOf":
            for sub in arg:
                yield from _errors(sub, x, path)
        elif key == "if":
            if next(_errors(arg, x), None) is None:
                yield from _errors(schema.get("then", {}), x, path)
        elif key == "items":
            for i, item in enumerate(x if _is(x, "array") else ()):
                yield from _errors(arg, item, (*path, i))
        elif key == "properties":
            for name, sub in arg.items():
                if _is(x, "object") and name in x:
                    yield from _errors(sub, x[name], (*path, name))
        elif key == "required":
            for name in arg:
                if _is(x, "object") and name not in x:
                    yield path, f"{name!r} is a required property", typed
        elif (message := _broken(key, arg, x, schema)) is not None:
            yield path, message, typed


def _check_schema(schema) -> None:
    """Refuse a schema that holds a keyword `_errors` does not read."""
    unknown = set(schema) - _KEYWORDS
    if schema.get("additionalProperties", False) is not False:
        unknown.add("additionalProperties")
    if unknown:
        raise ValueError(f"schema keywords not interpreted: {sorted(unknown)}")
    for sub in (*schema.get("properties", {}).values(),
                *schema.get("allOf", ()),
                *(schema[k] for k in ("items", "if", "then") if k in schema)):
        _check_schema(sub)


def _finite_number(text):
    """Parse a JSON number or constant; NaN and +-Infinity (which
    ``json`` accepts, as literals or as overflowing floats) are refused."""
    x = float(text)
    if not math.isfinite(x):
        raise ConfigError(f"config number {text} is not finite")
    return x


def _validate(command: str, cfg: dict) -> None:
    # jsonschema's best_match: the shallowest error, the greatest path among
    # those, then one whose instance does not have its schema's type; the
    # first on a tie
    error = max(_errors(_DISPATCH[command][1], cfg), default=None,
                key=lambda e: (-len(e[0]), e[0], not e[2]))
    if error is not None:
        where = "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                              for k in error[0])
        raise ConfigError(f"config schema violation at {where}: {error[1]}")


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
    """The run's initial field; the library states each kind's defaults."""
    f = dict(cfg["field"])
    if f.pop("kind") == "coulomb-cosine":
        return coulomb_cosine(grid, **f)
    if "algebra" in f:
        f["algebra"] = {"U1": u1, "SU2": su2}[f["algebra"]]()
    return random_smooth(grid, **f)


def _flow_config(fl: dict, bc: BoundarySpec, grid: GridSpec) -> FlowConfig:
    """A 'flow' section as a FlowConfig, validated against the grid before
    any field is built."""
    fc = FlowConfig(bc, **fl)
    fc.validate(grid)
    return fc


def _flow_constants(cfg: dict, grid: GridSpec) -> tuple[FlowConstants, int]:
    """The smoothing-bound constants of a 'constants' section on the grid,
    and the mode count c_N was summed over."""
    opts = cfg.get("constants", {})
    sg = NeumannSemigroup(grid, kernel_modes=opts.get("kernel_modes", 512))
    k = FlowConstants(c_N=sg.c_N_estimate(), a4=a4_constant(),
                      tau=opts.get("tau", 0.5))
    return k, sg.kernel_modes


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
    lam = sum((math.sin(math.pi / L * hh) / hh) ** 2
              for L, hh in zip(grid.extents[:2], grid.spacing[:2]))
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


# the largest residual of a rim ladder's fit, as a share of its fluxes' range
_LOGLOG_FIT_TOL = 0.05


def _loglog_fit(eps_ladder, fluxes):
    """A rim ladder against the conjectural growth law flux ~ a +
    b log log(1/eps): whether its fluxes increase strictly toward the rim,
    the least-squares line's (b, a) in closed form, and its largest
    residual over the fluxes' range."""
    increasing = all(b > a for a, b in zip(fluxes, fluxes[1:]))
    x = np.log(np.log(1.0 / np.asarray(eps_ladder)))
    y = np.asarray(fluxes)
    dx, dy = x - x.mean(), y - y.mean()
    b = np.sum(dx * dy) / np.sum(dx * dx)
    resid = np.max(np.abs(b * dx - dy)) / (max(fluxes) - min(fluxes))
    return increasing, (b, y.mean() - b * x.mean()), float(resid)


# ---------------------------------------------------------------------------
# Subcommand implementations (each returns (results dict, check rows))
# ---------------------------------------------------------------------------


def _cmd_constants(cfg, out):
    grid = _grid_from(cfg) if "grid" in cfg \
        else GridSpec((1.0, 1.0, 1.0), (16, 16, 16))
    k, kernel_modes = _flow_constants(cfg, grid)
    # the Beta integral int_0^{pi/2} 2 (sin th cos th)^{-1/2} dth, twice its
    # half on [0, pi/4]; th = (pi/4) y^2 there makes the integrand smooth in
    # y, so a Gauss-Legendre rule is an independent check of the closed form
    x, w = np.polynomial.legendre.leggauss(64)
    y = 0.5 * (x + 1.0)
    th = 0.25 * math.pi * y * y
    a4 = math.pi * float(np.sum(w * y / np.sqrt(np.sin(th) * np.cos(th))))
    rows = [
        report.check_row("a4_quadrature_vs_gamma", abs(a4 - k.a4), 0.0, 1e-8),
        # the constant mode alone gives c_N >= |Omega|^{-1/2}
        report.check_row("c_N_constant_mode_lower_bound",
                         grid.volume ** -0.5, k.c_N, 1e-9),
    ]
    results = {
        "c_N": k.c_N,
        "kernel_modes": kernel_modes,
        "a4": a4,
        "a4_exact": k.a4,
        "a": k.a,
        "gamma": k.gamma,
        "tau": k.tau,
    }
    return results, rows


def _cmd_flow(cfg, out):
    grid = _grid_from(cfg)
    fc = _flow_config(cfg["flow"], _boundary_from(cfg), grid)
    A0 = _field_from(cfg, grid)
    traj = integrate(A0, fc)
    m = traj.monitors
    _monitor_csv(m, out / "monitors.csv")
    rel_up = float(np.max(m.B_l2[1:] / np.maximum(m.B_l2[:-1], 1e-300) - 1.0)
                   ) if len(m) > 1 else 0.0
    rows = [
        report.check_row("B_l2_nonincreasing", rel_up, 0.0, ENERGY_SLACK),
        report.check_row("action_bound", m.action[-1],
                         m.B_l2[0] ** 2 * (1 + 1e-3), 0.0),
    ]
    if "oracle" in cfg:
        rows.append(_abelian_spectral_check(traj, A0, 1e-4))
    results = {
        "steps": len(m) - 1,
        "t_end": float(m.t[-1]),
        "B_l2_initial": float(m.B_l2[0]),
        "B_l2_final": float(m.B_l2[-1]),
        "Ap_l2_final": float(m.Ap_l2[-1]),
        "action": float(m.action[-1]),
    }
    return results, rows


def _cmd_verify_bounds(cfg, out):
    grid = _grid_from(cfg)
    fc = _flow_config(cfg["flow"], _boundary_from(cfg), grid)
    k, _ = _flow_constants(cfg, grid)
    traj = integrate(_field_from(cfg, grid), fc)
    _monitor_csv(traj.monitors, out / "monitors.csv")
    rows = verify_bounds(traj, k, margin_tol(min(grid.spacing), fc.dt))
    results = {"constants": {"c_N": k.c_N, "a4": k.a4, "a": k.a,
                             "gamma": k.gamma, "tau": k.tau}}
    return results, rows


def _cmd_verify_domination(cfg, out):
    grid = _grid_from(cfg)
    fc = _flow_config(cfg["flow"], _boundary_from(cfg), grid)
    if len(fc.snapshot_schedule()) < 3:
        raise ConfigError("domination needs >= 3 snapshot times")
    kinds = cfg.get("domination", {}).get("omega_kinds", ["B", "A'"])
    tol = margin_tol(min(grid.spacing), fc.dt)
    with DominationStream(NeumannSemigroup(grid), kinds) as stream:
        traj = integrate(_field_from(cfg, grid), fc, on_snapshot=stream)
        traj.final = None  # free the end state while the last margins run
        _monitor_csv(traj.monitors, out / "monitors.csv")
        rows, results = [], {"snapshot_times": list(traj.times)}
        for kind in kinds:
            res = domination_check(traj, omega_kind=kind)
            tag = "B" if kind == "B" else "Ap"
            rows.append(report.check_row(
                f"domination_{tag}", -res["min_margin"], 0.0, tol))
            results[f"per_time_margin_{tag}"] = list(res["per_time_margin"])
    return results, rows


def _cmd_verify_diamagnetic(cfg, out):
    grid = _grid_from(cfg)
    dia = cfg["diamagnetic"]
    t = dia["t"]
    A = _field_from(cfg, grid)
    omega0 = random_smooth(
        grid, A.algebra, seed=dia.get("omega_seed", 1),
        amplitude=0.3, degree=dia.get("omega_degree", 2),
    )
    tol = margin_tol(min(grid.spacing), dt_ceiling(grid))
    sg = NeumannSemigroup(grid)
    rows, results = [], {"t": t}
    for kind in dia.get("boundaries", ["neumann", "dirichlet"]):
        bc = BoundarySpec(kind)
        # the check fills A itself, and reads its bc off the filled omega0
        res = diamagnetic_check(sg, A, apply_boundary(omega0, bc), t)
        rows.append(report.check_row(
            f"diamagnetic_{kind}", -res["min_margin"], 0.0, tol))
        results[f"min_margin_{kind}"] = res["min_margin"]
    return results, rows


def _cmd_wilson(cfg, out):
    grid = _grid_from(cfg)
    loops = [Loop([segment_from_json(s) for s in spec])
             for spec in cfg["loops"]]
    n_steps = cfg["wilson"].get("n_steps", 256)
    ladder = sorted(cfg["wilson"]["ladder"])
    bc = _boundary_from(cfg)
    check_paths(grid, loops, n_steps)
    check_ladder(ladder)
    fc = _flow_config({"dt": dt_ceiling(grid), **cfg.get("flow", {}),
                       "t_end": ladder[-1], "snapshot_times": ladder},
                      bc, grid)
    A = apply_boundary(_field_from(cfg, grid), bc)
    traj = integrate(A, fc)
    # every (loop, field) pair in one call; column 0 is the t = 0 field
    hols = transport_many([A, *traj.fields], loops, n_steps)
    traces = [complex(z) for z in np.trace(hols[:, 0], axis1=-2, axis2=-1)]
    report.emit_csv(
        ("loop", "re_trace", "im_trace"),
        [(i, z.real, z.imag) for i, z in enumerate(traces)],
        out / "traces.csv",
    )
    probe = convergence_probe(traj, hols[:, 1:])
    rows = [
        # |tr g| <= r for a unitary r x r holonomy
        report.check_row("trace_unitarity_bound",
                         max(abs(z) for z in traces), float(hols.shape[-1]),
                         1e-8),
        report.check_row("trace_diffs_nonincreasing_tail",
                         0.0 if probe["diffs_nonincreasing_tail"] else 1.0,
                         0.0, 0.0),
    ]
    results = {"traces": [[z.real, z.imag] for z in traces],
               "ladder": ladder,
               "ladder_diffs": [list(map(float, d))
                                for d in probe["trace_diffs"]]}
    return results, rows


def _cmd_washer_energy(cfg, out):
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
    rows = [
        report.check_row("energy_cauchy_rel_gap", res["rel_gaps"][-1], 0.0,
                         1e-3),
        report.check_row("total_current", cur["difference"], 0.0, 1e-10),
    ]
    results = {
        "W": res["W"],
        "cutoffs": res["cutoffs"],
        "rel_gaps": res["rel_gaps"],
        "total_current_exact": cur["exact"],
    }
    return results, rows


def _cmd_washer_flux(cfg, out):
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
    increasing, coef, resid = _loglog_fit(eps_ladder, fluxes)
    rows = [
        report.check_row("flux_strictly_increasing",
                         0.0 if increasing else 1.0, 0.0, 0.0),
        report.check_row("loglog_fit_residual", resid, 0.0, _LOGLOG_FIT_TOL),
    ]
    results = {
        "eps_ladder": eps_ladder,
        "fluxes": fluxes,
        "tail_bounds": tails,
        "growth_rate": float(coef[0]),
        "growth_rate_conjectural": True,
    }
    return results, rows


def _cmd_washer_regularize(cfg, out):
    wc = WasherConfig(**cfg.get("washer", {}))
    grid = _grid_from(cfg)
    reg = cfg["regularize"]
    origin = np.asarray(reg["origin"], dtype=float)
    fc = _flow_config(cfg["flow"], _boundary_from(cfg), grid)
    loops = _rim_loops(reg)
    # C_eps in box coordinates, integrated on the grid after the flow
    paths = [lp.path(-origin) for lp in loops]
    check_paths(grid, paths, LINE_STEPS)
    flux0 = [flux_probe(lp, wc) for lp in loops]
    cap_u_max = reg.get("cap_u_max", 12.0)
    sampled = washer_to_grid(wc, grid, origin, cap_u_max=cap_u_max)
    traj = integrate(sampled.pop("field"), fc)  # let the flow free it
    _monitor_csv(traj.monitors, out / "monitors.csv")
    flux_t = [float(line_integral(traj.final, path)[0]) for path in paths]
    eps_ladder = [lp.eps for lp in loops]
    report.emit_csv(("eps", "flux_t0", "flux_t"),
                    zip(eps_ladder, flux0, flux_t), out / "flux.csv")

    f_a, f_b = flux_t[-2], flux_t[-1]
    conv = abs(f_b - f_a) / max(abs(f_a), 1e-300)
    # the t = 0 ladder diverges as washer-flux's does: strictly increasing,
    # on the log log(1/eps) law
    increasing, _, resid0 = _loglog_fit(eps_ladder, flux0)
    diverging = increasing and resid0 <= _LOGLOG_FIT_TOL
    rows = [
        report.check_row("flowed_flux_ladder_converges", conv, 0.0, 1e-3),
        report.check_row("initial_flux_ladder_diverges",
                         0.0 if diverging else 1.0, 0.0, 0.0),
    ]
    results = {
        "eps_ladder": eps_ladder,
        "flux_t0": flux0,
        "flux_t": flux_t,
        "t": float(traj.monitors.t[-1]),
        "capped_nodes": sampled["capped_nodes"],
        "cap_u_max": cap_u_max,
    }
    return results, rows


# each command and the schema of its config, the one judge of its shape
_DISPATCH = {
    "flow": (_cmd_flow, _config(
        ["grid", "field", "flow"], ["boundary", "oracle"],
        # the oracle's closed form is the cosine mode's, which a Dirichlet
        # fill breaks
        premise=("oracle", {"properties": {
            "field": {"properties": {"kind": {"const": "coulomb-cosine"}}},
            "boundary": {"enum": ["neumann", "marini"]}}}))),
    # heat-kernel domination is a Neumann check, made at the snapshot times
    "verify-domination": (_cmd_verify_domination, _config(
        ["grid", "field", "flow"], ["boundary", "domination"],
        boundary=_NEUMANN, flow=_strict(
            ["dt", "t_end"], **_FLOW,
            snapshot_times={"type": "array", "items": _NUMBER}))),
    "verify-diamagnetic": (_cmd_verify_diamagnetic,
                           _config(["grid", "field", "diamagnetic"])),
    "verify-bounds": (_cmd_verify_bounds, _config(
        ["grid", "field", "flow"], ["boundary", "constants"])),
    "constants": (_cmd_constants, _config([], ["grid", "constants"])),
    # the ladder sets the flow's end and snapshot times
    "wilson": (_cmd_wilson, _config(
        ["grid", "field", "loops", "wilson"], ["boundary", "flow"],
        flow=_strict(dt=_POSITIVE, variant=_FLOW["variant"]))),
    "washer-energy": (_cmd_washer_energy, _config([], ["washer"])),
    "washer-flux": (_cmd_washer_flux, _config([], ["washer", "flux"])),
    "washer-regularize": (_cmd_washer_regularize, _config(
        ["grid", "flow", "regularize"], ["boundary", "washer"],
        boundary=_NEUMANN)),
}

COMMANDS = tuple(_DISPATCH)


def execute(command: str, cfg: dict, out_dir) -> int:
    """Run one subcommand on a config, checked here against the command's
    schema; write report files (the first one creates `out_dir`); return
    the exit status."""
    _validate(command, cfg)
    run, _ = _DISPATCH[command]
    out = FilePath(out_dir)
    results, rows = run(cfg, out)
    # the run is its config alone: both keys are fixed, and the stored
    # benchmark references still hold them
    doc = {
        "command": command,
        "tol_scale": 1.0,
        "seed": None,
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
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        return execute(args.command, cfg, args.out)
    except (ValueError, OSError) as e:
        print(f"ymheat: config error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"ymheat: numerical abort: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
