"""Self-test of the benchmark.

Run from the root of a checkout (about a minute):

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every traced boundary records calls on the workload it is
heavy on, that tracing leaves every output byte-identical, that counts
repeat exactly, that peak RSS is read per child, and that the reference
comparison and the missing-sources exit behave as documented.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402

sys.path.insert(0, str(run.SRC))

# each boundary and the workload on which it does most of its work
HEAVY = {
    "algebra.bracket": "su2-bounds",
    "algebra.build": "su2-bounds",
    "grid.apply_boundary": "u1-domination",
    "calculus.curvature": "su2-bounds",
    "calculus.dstar_cov": "su2-bounds",
    "calculus.d_cov": "su2-bounds",
    "calculus.weitzenbock_defect": "u1-domination",
    "calculus.bochner_laplacian": "u1-domination",
    "flow.integrate": "su2-bounds",
    "flow.rhs": "su2-bounds",
    "neumann.heat_apply": "u1-domination",
    "neumann.domination_check": "u1-domination",
    "neumann.c_N_estimate": "su2-bounds",
    "neumann.a4_constant": "su2-bounds",
    "transport.transport": "wilson-ladder",
    "transport.line_integral": "washer-regularize",
    "washer.washer_to_grid": "washer-regularize",
    "washer.flux_probe": "washer-regularize",
    "report.emit": "washer-regularize",
    "cli.execute": "washer-regularize",
}

_RUNS = {}


def traced_twice(name, tmp_root):
    """(untraced output dir, traced output dirs, tracer) for one workload."""
    if name not in _RUNS:
        from ymheat import cli

        w = run.WORKLOADS[name]
        tmp = tmp_root / name
        tmp.mkdir()
        cfg = run.write_config(w, w.default_seed or 0, tmp / "config.json")
        cli.execute(w.command, copy.deepcopy(cfg), tmp / "plain")
        tracer = tracing.Tracer()
        for n in (0, 1):
            tracer.run_id = n
            with tracing.traced(tracer):
                cli.execute(w.command, copy.deepcopy(cfg), tmp / f"traced{n}")
        _RUNS[name] = (tmp / "plain", [tmp / "traced0", tmp / "traced1"],
                       tracer)
    return _RUNS[name]


@pytest.fixture(scope="module")
def tmp_root(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench")


def test_boundaries_are_all_listed():
    assert set(HEAVY) == {name for name, _, _ in tracing.BOUNDARIES}


@pytest.mark.parametrize("boundary", sorted(HEAVY))
def test_wrapper_fires_on_heavy_workload(boundary, tmp_root):
    _, _, tracer = traced_twice(HEAVY[boundary], tmp_root)
    calls = sum(1 for r in tracer.spans
                if r[tracing.NAME] == boundary and r[tracing.RUN] == 0)
    assert calls >= 1


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tracing_leaves_outputs_identical(name, tmp_root):
    plain, traced, _ = traced_twice(name, tmp_root)
    files = sorted(p.name for p in plain.iterdir())
    assert "report.json" in files
    for out in traced:
        assert sorted(p.name for p in out.iterdir()) == files
        for f in files:
            assert (out / f).read_bytes() == (plain / f).read_bytes(), f


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_counts_repeat_exactly(name, tmp_root):
    _, _, tracer = traced_twice(name, tmp_root)
    first, _ = tracing.layer_metrics(tracer.spans, 0)
    second, _ = tracing.layer_metrics(tracer.spans, 1)
    for metric in tracing.EXACT_METRICS:
        assert first[metric] == second[metric], metric


def test_known_counts(tmp_root):
    v, _ = tracing.layer_metrics(traced_twice("wilson-ladder",
                                              tmp_root)[2].spans, 0)
    assert v["transport.transport.calls"] == 24
    assert v["transport.rk_steps"] == 49152
    assert v["transport.transports_per_loop_field"] == 1.2
    v, _ = tracing.layer_metrics(traced_twice("u1-domination",
                                              tmp_root)[2].spans, 0)
    assert v["neumann.heat_apply.calls"] == 750
    assert v["neumann.heat_apply_per_snapshot"] == 750 / 52


def test_every_binding_is_wrapped_then_restored():
    import ymheat.cli  # noqa: F401

    def bindings():
        return {(m, k): v for m, mod in sys.modules.items()
                if m == "ymheat" or m.startswith("ymheat.")
                for k, v in vars(mod).items() if callable(v)}

    def methods():
        out = {}
        for _, mod, attr in tracing.BOUNDARIES:
            if "." in attr:
                cls, meth = attr.split(".")
                out[attr] = vars(getattr(sys.modules[mod], cls))[meth]
        return out

    before, before_methods = bindings(), methods()
    originals = {getattr(sys.modules[mod], attr)
                 for _, mod, attr in tracing.BOUNDARIES if "." not in attr}
    with tracing.traced(tracing.Tracer()):
        assert not originals & set(bindings().values())
        assert all(methods()[k] is not v for k, v in before_methods.items())
    assert bindings() == before
    assert methods() == before_methods


def test_peak_rss_is_read_per_child(tmp_path, tmp_root):
    # in-process runs first grow this process, and the heavy workload
    # comes first: either would leak into a naive reading of the light one
    traced_twice("washer-regularize", tmp_root)
    peaks = {}
    for name in ("washer-regularize", "su2-bounds"):
        w = run.WORKLOADS[name]
        work = tmp_path / name
        work.mkdir()
        with run.Session(w, w.default_seed or 0, work,
                         run.Checker(None)) as session:
            _, peaks[name] = session.cli_sample(0)
        assert not session.checker.problems
    assert peaks["washer-regularize"] > 2 * peaks["su2-bounds"]


def test_drift_scales_by_siblings():
    row = {"name": "x", "lhs": 1.0, "rhs": 1.0, "margin": 0.0,
           "tol": 1e-3, "verdict": "pass"}
    near = dict(row, margin=1e-16)
    assert run.drift(row, near) == []
    assert run.drift(row, dict(row, margin=1e-9))
    assert run.drift(row, dict(row, verdict="fail"))
    assert run.drift({"a": [1.0, 2.0]}, {"a": [1.0]})


def test_reference_outcome_for_u1_domination_seed_0():
    ref = json.loads(run.reference_path(run.WORKLOADS["u1-domination"],
                                        0).read_text())
    verdicts = {r["name"]: r["verdict"] for r in ref["checks"]}
    assert verdicts == {"domination_B": "pass", "domination_Ap": "fail"}


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "su2-bounds",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
