"""Spans around the public callables of each ymheat module.

The program is not instrumented: ``traced`` swaps wrappers into every
binding of the chosen callables (module globals that imported a name,
and class attributes for methods), and restores the originals on exit.
Spans stay in memory as flat records and are written out once, by the
caller, after the run.  Counts such as RHS calls or RK4 steps are
recorded at the same boundaries, so the ratios built from them repeat
exactly between runs.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import os
import sys
import time
import tracemalloc

# (span name, module, attribute); "Class.method" patches the class.
BOUNDARIES = (
    ("algebra.bracket", "ymheat.algebra", "LieAlgebraSpec.bracket"),
    ("algebra.build", "ymheat.algebra", "su2"),
    ("algebra.build", "ymheat.algebra", "u1"),
    ("grid.apply_boundary", "ymheat.grid", "apply_boundary"),
    ("calculus.curvature", "ymheat.calculus", "curvature"),
    ("calculus.dstar_cov", "ymheat.calculus", "dstar_cov"),
    ("calculus.d_cov", "ymheat.calculus", "d_cov"),
    ("calculus.weitzenbock_defect", "ymheat.calculus", "weitzenbock_defect"),
    ("calculus.bochner_laplacian", "ymheat.calculus", "bochner_laplacian"),
    ("flow.integrate", "ymheat.flow", "integrate"),
    ("flow.rhs", "ymheat.flow", "ym_rhs"),
    ("flow.rhs", "ymheat.flow", "zds_rhs"),
    ("neumann.heat_apply", "ymheat.neumann", "NeumannSemigroup.heat_apply"),
    ("neumann.c_N_estimate", "ymheat.neumann",
     "NeumannSemigroup.c_N_estimate"),
    ("neumann.a4_constant", "ymheat.neumann", "a4_constant"),
    ("neumann.domination_check", "ymheat.neumann", "domination_check"),
    ("transport.transport", "ymheat.transport", "transport"),
    ("transport.line_integral", "ymheat.transport", "line_integral"),
    ("washer.washer_to_grid", "ymheat.washer", "washer_to_grid"),
    ("washer.flux_probe", "ymheat.washer", "flux_probe"),
    ("report.emit", "ymheat.report", "emit_json"),
    ("report.emit", "ymheat.report", "emit_csv"),
    ("cli.execute", "ymheat.cli", "execute"),
)

# Per-layer metrics in report order: name -> unit.  cli.import_s and
# cli.load_config.s come from the fresh set-up process, trace.overhead_s
# from comparing traced and untraced runs; the rest from the spans.
LAYER_METRICS = {
    "algebra.bracket.calls": "count",
    "algebra.bracket.self_s": "s",
    "algebra.bracket.bytes_computed": "B",
    "algebra.build.calls": "count",
    "algebra.build.s": "s",
    "grid.apply_boundary.calls": "count",
    "grid.apply_boundary.self_s": "s",
    "grid.apply_boundary.bytes_computed": "B",
    "calculus.curvature.calls": "count",
    "calculus.curvature.self_s": "s",
    "calculus.dstar_cov.calls": "count",
    "calculus.dstar_cov.self_s": "s",
    "calculus.d_cov.calls": "count",
    "calculus.d_cov.self_s": "s",
    "calculus.weitzenbock_defect.calls": "count",
    "calculus.weitzenbock_defect.self_s": "s",
    "calculus.bochner_laplacian.calls": "count",
    "calculus.bochner_laplacian.self_s": "s",
    "flow.integrate.s": "s",
    "flow.rhs.calls": "count",
    "flow.steps_accepted": "count",
    "flow.steps_rejected": "count",
    "flow.step_acceptance": "ratio",
    "flow.curvature_per_step": "ratio",
    "flow.node_steps_per_s": "1/s",
    "neumann.heat_apply.calls": "count",
    "neumann.heat_apply.self_s": "s",
    "neumann.heat_apply_per_snapshot": "ratio",
    "neumann.domination_check.self_s": "s",
    "neumann.c_N_estimate.s": "s",
    "neumann.a4_constant.s": "s",
    "transport.transport.calls": "count",
    "transport.transport.self_s": "s",
    "transport.rk_steps": "count",
    "transport.step_us": "us",
    "transport.transports_per_loop_field": "ratio",
    "transport.line_integral.calls": "count",
    "transport.line_integral.self_s": "s",
    "washer.washer_to_grid.s": "s",
    "washer.washer_to_grid.peak_mb": "MB",
    "washer.flux_probe.calls": "count",
    "washer.flux_probe.self_s": "s",
    "washer.kernel_evals_computed": "count",
    "report.emit.calls": "count",
    "report.emit.s": "s",
    "report.emit.bytes": "B",
    "cli.import_s": "s",
    "cli.load_config.s": "s",
    "cli.execute.s": "s",
    "trace.overhead_s": "s",
}

# Counts, computed sizes and their ratios must repeat exactly between
# traced runs of one input; times need not.
EXACT_METRICS = tuple(n for n, unit in LAYER_METRICS.items()
                      if unit in ("count", "B", "ratio"))

# span record fields
NAME, START, END, PARENT, RUN, ATTRS = range(6)


class Tracer:
    """In-memory span recorder shared by all wrappers of one benchmark."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.run_id = 0
        self._keep = []  # objects whose id() keys a transport pair

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1,
                   self.run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if hook is not None:
                rec[ATTRS] = hook(self, fn, args, kwargs, out)
            return out

        return wrapper

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent, run."""
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.spans:
                f.write(json.dumps(rec[:ATTRS]) + "\n")


# -- hooks: counts and computed sizes recorded at the boundary -------------
# Each returns the span's attributes; it runs after the span has closed.


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _bracket_bytes(tracer, fn, args, kwargs, out):
    # x, y and the result: what one pass over the operands must move
    # (called as alg.bracket(x, y), so args are (self, x, y))
    return {"bytes": args[1].nbytes + args[2].nbytes + out.nbytes}


def _fill_bytes(tracer, fn, args, kwargs, out):
    # the fill copies the padded array (read + write); ghost faces are small
    return {"bytes": 2 * out.values.nbytes}


def _integrate_counts(tracer, fn, args, kwargs, out):
    A0 = _bound(fn, args, kwargs)["A0"]
    return {"accepted": len(out.monitors.t) - 1,
            "nodes": math.prod(A0.grid.shape)}


def _domination_counts(tracer, fn, args, kwargs, out):
    return {"snapshots": len(_bound(fn, args, kwargs)["traj"].times)}


def _transport_counts(tracer, fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    tracer._keep.append((a["A"], a["path"]))
    return {"rk_steps": len(a["path"].segments) * a["n_steps"],
            "pair": (id(a["A"]), id(a["path"]))}


def _emit_bytes(tracer, fn, args, kwargs, out):
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


def _flux_evals(tracer, fn, args, kwargs, out):
    from ymheat.washer import WasherConfig

    a = _bound(fn, args, kwargs)
    cfg = a["cfg"] or WasherConfig()
    # four segments of n_quad Gauss points, one kernel per u node
    return {"kernel_evals": 4 * a["n_quad"] * cfg.n_u}


def _washer_grid_counts(tracer, fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    # every padded node evaluates the elliptic kernel at each u node
    return {"kernel_evals": math.prod(a["grid"].padded_shape) * a["cfg"].n_u}


HOOKS = {
    "algebra.bracket": _bracket_bytes,
    "grid.apply_boundary": _fill_bytes,
    "flow.integrate": _integrate_counts,
    "neumann.domination_check": _domination_counts,
    "transport.transport": _transport_counts,
    "report.emit": _emit_bytes,
    "washer.flux_probe": _flux_evals,
    "washer.washer_to_grid": _washer_grid_counts,
}


def _with_peak_memory(tracer, wrapped):
    """Record the tracemalloc peak inside a wrapped call on its span."""

    @functools.wraps(wrapped)
    def wrapper(*args, **kwargs):
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        rec = len(tracer.spans)  # the span `wrapped` is about to open
        try:
            out = wrapped(*args, **kwargs)
            tracer.spans[rec][ATTRS]["peak_bytes"] = \
                tracemalloc.get_traced_memory()[1]
            return out
        finally:
            if not was_tracing:
                tracemalloc.stop()

    return wrapper


# -- installing the wrappers ----------------------------------------------


@contextlib.contextmanager
def traced(tracer):
    """Wrap every binding of each boundary callable for the duration."""
    import ymheat.cli  # noqa: F401  (loads every module that binds a name)

    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "ymheat" or k.startswith("ymheat."))]
    undo = []
    try:
        for name, modname, attr in BOUNDARIES:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = vars(cls)[meth]
                setattr(cls, meth, tracer.wrap(name, fn, HOOKS.get(name)))
                undo.append((cls, meth, fn))
                continue
            fn = getattr(owner, attr)
            wrapper = tracer.wrap(name, fn, HOOKS.get(name))
            if name == "washer.washer_to_grid":
                wrapper = _with_peak_memory(tracer, wrapper)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, fn))
        yield tracer
    finally:
        for obj, key, fn in reversed(undo):
            setattr(obj, key, fn)


# -- metrics from the spans -------------------------------------------------


def layer_metrics(spans, run_id):
    """Per-layer values of one traced run, plus the names left unmeasured.

    Returns (values, unmeasured) where unmeasured maps a metric name to
    the reason it reads 0.  cli.import_s, cli.load_config.s and
    trace.overhead_s are filled in by the caller.
    """
    recs = [r for r in spans if r[RUN] == run_id]
    index = {id(r): i for i, r in enumerate(spans)}
    child_s = {}
    for r in recs:
        if r[PARENT] >= 0:
            p = r[PARENT]
            child_s[p] = child_s.get(p, 0.0) + r[END] - r[START]

    def ancestors(r):
        p = r[PARENT]
        while p >= 0:
            yield spans[p]
            p = spans[p][PARENT]

    by_name = {}
    for r in recs:
        by_name.setdefault(r[NAME], []).append(r)

    def calls(n):
        return len(by_name.get(n, ()))

    def total(n):
        return sum(r[END] - r[START] for r in by_name.get(n, ()))

    def self_s(n):
        return sum(r[END] - r[START] - child_s.get(index[id(r)], 0.0)
                   for r in by_name.get(n, ()))

    def attr_sum(n, key):
        return sum(r[ATTRS][key] for r in by_name.get(n, ()))

    def under(n, ancestor):
        return sum(1 for r in by_name.get(n, ())
                   if any(a[NAME] == ancestor for a in ancestors(r)))

    v, unmeasured = {}, {}
    for n in ("algebra.bracket", "grid.apply_boundary", "calculus.curvature",
              "calculus.dstar_cov", "calculus.d_cov",
              "calculus.weitzenbock_defect", "calculus.bochner_laplacian",
              "neumann.heat_apply", "transport.transport",
              "transport.line_integral", "washer.flux_probe"):
        v[n + ".calls"] = calls(n)
        v[n + ".self_s"] = self_s(n)
    for n in ("algebra.build", "report.emit"):
        v[n + ".calls"] = calls(n)
        v[n + ".s"] = total(n)
    v["algebra.bracket.bytes_computed"] = attr_sum("algebra.bracket", "bytes")
    v["grid.apply_boundary.bytes_computed"] = attr_sum("grid.apply_boundary",
                                                       "bytes")
    v["report.emit.bytes"] = attr_sum("report.emit", "bytes")

    # flow: RK4 stages call the RHS three times per attempt, the accepted
    # state once more (next k1), and each integrate once at t = 0
    n_int = calls("flow.integrate")
    rhs = under("flow.rhs", "flow.integrate")
    accepted = attr_sum("flow.integrate", "accepted")
    attempts = (rhs - n_int - accepted) // 3
    v["flow.integrate.s"] = total("flow.integrate")
    v["flow.rhs.calls"] = rhs
    v["flow.steps_accepted"] = accepted
    v["flow.steps_rejected"] = attempts - accepted
    v["flow.step_acceptance"] = accepted / attempts if attempts else 0.0
    curv = under("calculus.curvature", "flow.integrate")
    v["flow.curvature_per_step"] = curv / accepted if accepted else 0.0
    node_steps = sum(r[ATTRS]["nodes"] * r[ATTRS]["accepted"]
                     for r in by_name.get("flow.integrate", ()))
    v["flow.node_steps_per_s"] = (node_steps / v["flow.integrate.s"]
                                  if n_int else 0.0)
    if not n_int:
        for k in ("flow.integrate.s", "flow.step_acceptance",
                  "flow.curvature_per_step", "flow.node_steps_per_s"):
            unmeasured[k] = "no flow.integrate call"

    snapshots = attr_sum("neumann.domination_check", "snapshots")
    dom_heat = under("neumann.heat_apply", "neumann.domination_check")
    v["neumann.heat_apply_per_snapshot"] = (dom_heat / snapshots
                                            if snapshots else 0.0)
    if not snapshots:
        unmeasured["neumann.heat_apply_per_snapshot"] = \
            "no neumann.domination_check call"
    v["neumann.domination_check.self_s"] = self_s("neumann.domination_check")
    v["neumann.c_N_estimate.s"] = total("neumann.c_N_estimate")
    v["neumann.a4_constant.s"] = total("neumann.a4_constant")

    n_tr = calls("transport.transport")
    rk = attr_sum("transport.transport", "rk_steps")
    pairs = {r[ATTRS]["pair"] for r in by_name.get("transport.transport", ())}
    v["transport.rk_steps"] = rk
    v["transport.step_us"] = (1e6 * total("transport.transport") / rk
                              if rk else 0.0)
    v["transport.transports_per_loop_field"] = (n_tr / len(pairs)
                                                if pairs else 0.0)
    if not n_tr:
        unmeasured["transport.step_us"] = "no transport call"
        unmeasured["transport.transports_per_loop_field"] = "no transport call"

    v["washer.washer_to_grid.s"] = total("washer.washer_to_grid")
    v["washer.washer_to_grid.peak_mb"] = max(
        (r[ATTRS]["peak_bytes"] for r in by_name.get("washer.washer_to_grid",
                                                     ())), default=0) / 2**20
    v["washer.kernel_evals_computed"] = (
        attr_sum("washer.washer_to_grid", "kernel_evals")
        + attr_sum("washer.flux_probe", "kernel_evals"))
    if not calls("washer.washer_to_grid"):
        unmeasured["washer.washer_to_grid.s"] = "no washer_to_grid call"
        unmeasured["washer.washer_to_grid.peak_mb"] = "no washer_to_grid call"
    v["cli.execute.s"] = total("cli.execute")
    return v, unmeasured
