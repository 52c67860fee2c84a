import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ymheat
from ymheat import cli, flow, transport
from ymheat.algebra import su2
from ymheat.cli import load_config, main, ConfigError
from ymheat.fields import random_smooth
from ymheat.grid import GridSpec
from ymheat.snapshot import snapshot_write

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

BASE_FLOW = {
    "grid": {"extents": [1, 1, 1], "shape": [12, 12, 12]},
    "boundary": "neumann",
    "field": {"kind": "coulomb-cosine", "amplitude": 1.0},
    "flow": {"dt": 0.0008, "t_end": 0.004, "snapshot_times": [0.004]},
    "oracle": "abelian-spectral",
}


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _run(args):
    return main(args)


def test_empty_command_prints_usage_and_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_config_key_rejected(tmp_path):
    cfg = dict(BASE_FLOW)
    cfg["unexpected"] = 1
    assert _run(["flow", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2


def test_unknown_nested_key_rejected(tmp_path):
    cfg = json.loads(json.dumps(BASE_FLOW))
    cfg["flow"]["steps"] = 10
    assert _run(["flow", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file(tmp_path):
    assert _run(["flow", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert _run(["flow", "--config", str(p),
                 "--out", str(tmp_path / "o")]) == 2


def test_dt_above_ceiling_is_config_error(tmp_path):
    cfg = json.loads(json.dumps(BASE_FLOW))
    cfg["flow"]["dt"] = 0.1
    assert _run(["flow", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2


def test_abelian_flow_report_passes(tmp_path):
    out = tmp_path / "out"
    assert _run(["flow", "--config", _write(tmp_path, BASE_FLOW),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    names = {r["name"]: r for r in doc["checks"]}
    assert names["abelian_spectral_equivalence"]["verdict"] == "pass"
    assert names["B_l2_nonincreasing"]["verdict"] == "pass"
    header = (out / "monitors.csv").read_text().splitlines()[0]
    assert header == "t,B_l2,B_linf,Ap_l2,beta,psi_inf"


def test_reports_are_deterministic(tmp_path):
    cfgp = _write(tmp_path, BASE_FLOW)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert _run(["flow", "--config", cfgp, "--out", str(out1)]) == 0
    assert _run(["flow", "--config", cfgp, "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == \
        (out2 / "report.json").read_bytes()
    assert (out1 / "monitors.csv").read_bytes() == \
        (out2 / "monitors.csv").read_bytes()


def test_constants_report(tmp_path):
    cfg = {"grid": {"extents": [1, 1, 1], "shape": [16, 16, 16]},
           "constants": {"kernel_modes": 128}}
    out = tmp_path / "out"
    assert _run(["constants", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 0
    res = json.loads((out / "report.json").read_text())["results"]
    assert res["c_N"] >= 1.0
    assert abs(res["a4"] - 7.416298709205489) < 1e-8
    assert res["a"] > 0 and res["gamma"] > res["c_N"]


def test_tol_scale_can_force_failure(tmp_path):
    cfg = {"grid": {"extents": [1, 1, 1], "shape": [16, 16, 16]},
           "constants": {"kernel_modes": 128}}
    code = _run(["constants", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "o"), "--tol-scale", "1e-12"])
    assert code == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_abort_exits_3(tmp_path, capsys):
    cfg = {
        "grid": {"extents": [1, 1, 1], "shape": [12, 12, 12]},
        "boundary": "neumann",
        "field": {"kind": "random-smooth", "seed": 1, "amplitude": 1e6},
        "flow": {"dt": 0.0008, "t_end": 0.004},
    }
    code = _run(["flow", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "numerical abort" in capsys.readouterr().err


def test_seed_override_changes_run(tmp_path):
    cfg = {
        "grid": {"extents": [1, 1, 1], "shape": [12, 12, 12]},
        "boundary": "neumann",
        "field": {"kind": "random-smooth", "seed": 1, "amplitude": 0.05},
        "flow": {"dt": 0.0008, "t_end": 0.0024},
    }
    cfgp = _write(tmp_path, cfg)
    o1, o2 = tmp_path / "s1", tmp_path / "s2"
    assert _run(["flow", "--config", cfgp, "--out", str(o1)]) == 0
    assert _run(["flow", "--config", cfgp, "--out", str(o2),
                 "--seed", "99"]) == 0
    r1 = json.loads((o1 / "report.json").read_text())["results"]
    r2 = json.loads((o2 / "report.json").read_text())["results"]
    assert r1["B_l2_initial"] != r2["B_l2_initial"]


def test_wilson_command(tmp_path):
    cfg = {
        "grid": {"extents": [1, 1, 1], "shape": [12, 12, 12]},
        "boundary": "neumann",
        "field": {"kind": "random-smooth", "seed": 11, "amplitude": 0.3,
                  "algebra": "SU2"},
        "loops": [[{"kind": "arc", "center": [0.5, 0.5], "radius": 0.2,
                    "phi0": 0.0, "phi1": 6.283185307179586, "z": 0.5}]],
        "wilson": {"n_steps": 64},
    }
    out = tmp_path / "out"
    assert _run(["wilson", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 0
    lines = (out / "traces.csv").read_text().splitlines()
    assert lines[0] == "loop,re_trace,im_trace"
    assert len(lines) == 2


def test_washer_flux_csv(tmp_path):
    cfg = {"flux": {"eps_ladder": [1e-1, 1e-2, 1e-3]}}
    out = tmp_path / "out"
    assert _run(["washer-flux", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 0
    lines = (out / "flux.csv").read_text().splitlines()
    assert lines[0] == "eps,flux,tail_bound"
    assert len(lines) == 4


def test_load_config_rejects_bad_boundary(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"boundary": "periodic"}))
    assert _run(["constants", "--config", str(p),
                 "--out", str(tmp_path / "o")]) == 2
    assert "config schema violation" in capsys.readouterr().err


def test_grid_below_library_minimum_is_config_error(tmp_path, capsys):
    cfg = json.loads(json.dumps(BASE_FLOW))
    cfg["grid"]["shape"] = [4, 4, 4]
    assert _run(["flow", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("change", [
    {"boundary": "dirichlet"},
    {"flow": {"dt": 0.0008, "t_end": 0.004,
              "snapshot_times": [0.0, 0.004, 0.004]}},
    {"flow": {"dt": 0.0008, "t_end": 0.004}},
    {"grid": {"extents": [1, 1, 1], "shape": [10, 10, 10]},
     "flow": {"dt": 0.0008, "t_end": 0.004,
              "snapshot_times": [0.0, 0.002, 0.0040000000005]}},
])
def test_verify_domination_rejects_before_flowing(tmp_path, capsys,
                                                  monkeypatch, change):
    def no_flow(*args, **kwargs):
        raise AssertionError("integrate called")

    monkeypatch.setattr(cli, "integrate", no_flow)
    cfg = dict(BASE_FLOW, **change)
    del cfg["oracle"]
    assert _run(["verify-domination", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


CIRCLE = [{"kind": "arc", "center": [0.5, 0.5], "radius": 0.2,
           "phi0": 0.0, "phi1": 6.283185307179586, "z": 0.5}]
HALF_DISC = [
    {"kind": "arc", "center": [0.5, 0.5], "radius": 0.2,
     "phi0": 0.0, "phi1": 3.141592653589793, "z": 0.5},
    {"kind": "line", "start": [0.3, 0.5, 0.5], "end": [0.7, 0.5, 0.5]},
]
SQUARE = [
    {"kind": "line", "start": a, "end": b} for a, b in zip(
        [[0.3, 0.3, 0.5], [0.7, 0.3, 0.5], [0.7, 0.7, 0.5], [0.3, 0.7, 0.5]],
        [[0.7, 0.3, 0.5], [0.7, 0.7, 0.5], [0.3, 0.7, 0.5], [0.3, 0.3, 0.5]])
]
WILSON = {
    "grid": {"extents": [1, 1, 1], "shape": [10, 10, 10]},
    "boundary": "neumann",
    "field": {"kind": "random-smooth", "seed": 11, "amplitude": 0.3,
              "algebra": "SU2"},
    "loops": [CIRCLE, SQUARE, HALF_DISC],
    "wilson": {"n_steps": 16, "ladder": [0.005, 0.01, 0.02, 0.04]},
}


@pytest.mark.parametrize("change", [
    {"loops": [CIRCLE, [{"kind": "line", "start": [0.3, 0.3, 0.5],
                         "end": [0.7, 0.7, 0.5]}]]},
    {"loops": [CIRCLE, [{"kind": "arc", "center": [0.5, 0.5],
                         "radius": 0.45, "phi0": 0.0,
                         "phi1": 6.283185307179586, "z": 0.5}]]},
    {"wilson": {"n_steps": 16, "ladder": [0.005, 0.01, 0.02, 0.05]}},
    {"flow": {"dt": 0.001, "t_end": 0.04, "snapshot_times": [0.04]}},
    {"flow": {"dt": 0.001, "t_end": 0.03}},
], ids=["unclosed", "leaves_band", "ladder_not_dyadic",
        "ladder_with_snapshot_times", "ladder_t_end_not_top_rung"])
def test_wilson_rejects_before_flowing(tmp_path, capsys, monkeypatch,
                                       change):
    def forbidden(*args, **kwargs):
        raise AssertionError("flow or transport called")

    monkeypatch.setattr(cli, "integrate", forbidden)
    monkeypatch.setattr(cli, "transport_many", forbidden)
    cfg = dict(WILSON, **change)
    assert _run(["wilson", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


def test_wilson_transports_each_pair_once(tmp_path, monkeypatch):
    pairs, projections = [], [0]
    kernel, project = transport.transport_many, transport._project_group

    def counting_kernel(fields, paths, *args, **kwargs):
        pairs.extend((id(A), id(p)) for A in fields for p in paths)
        return kernel(fields, paths, *args, **kwargs)

    def counting_project(g):
        projections[0] += 1
        return project(g)

    monkeypatch.setattr(cli, "transport_many", counting_kernel)
    monkeypatch.setattr(transport, "transport_many", counting_kernel)
    monkeypatch.setattr(transport, "_project_group", counting_project)
    assert cli.execute("wilson", WILSON, tmp_path) == 0
    n_fields = 1 + len(WILSON["wilson"]["ladder"])
    assert len(pairs) == len(set(pairs)) == n_fields * len(WILSON["loops"])
    assert projections[0] == len(SQUARE) * WILSON["wilson"]["n_steps"]


def _drift(ref, new, where="report", scale=0.0):
    """Where `new` departs from `ref`: keys, lengths, strings and verdicts
    exactly; a number by more than 1e-12 of the largest magnitude among
    itself, its stored value and its siblings (a margin is judged against
    the lhs and rhs it is the difference of)."""
    def num(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    if isinstance(ref, list) and isinstance(new, list):
        ref, new = dict(enumerate(ref)), dict(enumerate(new))
    if isinstance(ref, dict):
        if not isinstance(new, dict) or sorted(ref) != sorted(new):
            return [f"{where}: {new!r} != {ref!r}"]
        sib = max((abs(v) for v in ref.values() if num(v)), default=0.0)
        return [p for k in ref
                for p in _drift(ref[k], new[k], f"{where}[{k!r}]", sib)]
    if num(ref) and num(new):
        ok = abs(new - ref) <= 1e-12 * max(abs(ref), abs(new), scale)
        return [] if ok else [f"{where}: {new!r} drifts from {ref!r}"]
    return [] if ref == new else [f"{where}: {new!r} != {ref!r}"]


def test_su2_bounds_workload_matches_reference(tmp_path):
    cfg = json.loads((PERFBENCH / "workloads" / "su2-bounds.json")
                     .read_text())
    assert cfg["field"]["seed"] == 7
    assert cli.execute("verify-bounds", cfg, tmp_path) == 0
    ref = PERFBENCH / "references" / "su2-bounds.seed7.json"
    new = json.loads((tmp_path / "report.json").read_text())
    assert _drift(json.loads(ref.read_text()), new) == []


def test_wilson_ladder_workload_matches_reference(tmp_path):
    cfg = json.loads((PERFBENCH / "workloads" / "wilson-ladder.json")
                     .read_text())
    assert cfg["field"]["seed"] == 11
    assert cli.execute("wilson", cfg, tmp_path) == 0
    ref = PERFBENCH / "references" / "wilson-ladder.seed11.json"
    assert json.loads((tmp_path / "report.json").read_text()) == \
        json.loads(ref.read_text())


def test_u1_domination_workload_matches_reference(tmp_path):
    # the stored outcome at seed 0 is a failed A' domination check
    cfg = json.loads((PERFBENCH / "workloads" / "u1-domination.json")
                     .read_text())
    assert cfg["field"]["seed"] == 0
    assert cli.execute("verify-domination", cfg, tmp_path) == 1
    new = json.loads((tmp_path / "report.json").read_text())
    assert [c["name"] for c in new["checks"] if c["verdict"] == "fail"] \
        == ["domination_Ap"]
    ref = PERFBENCH / "references" / "u1-domination.seed0.json"
    assert _drift(json.loads(ref.read_text()), new) == []


def test_washer_regularize_workload_matches_reference(tmp_path):
    cfg = json.loads((PERFBENCH / "workloads" / "washer-regularize.json")
                     .read_text())
    assert cli.execute("washer-regularize", cfg, tmp_path) == 0
    ref = PERFBENCH / "references" / "washer-regularize.json"
    new = json.loads((tmp_path / "report.json").read_text())
    assert _drift(json.loads(ref.read_text()), new) == []


WASHER_REGULARIZE = {
    "grid": {"extents": [4, 4, 4], "shape": [16, 16, 16]},
    "washer": {"n_u": 32},
    "flow": {"dt": 0.002, "t_end": 0.01},
    "regularize": {"origin": [-2, -2, -2]},
}


CIRCLE_NO_Z = [{"kind": "arc", "center": [0.5, 0.5], "radius": 0.2,
                "phi0": 0.0, "phi1": 6.283185307179586}]


@pytest.mark.parametrize("command, cfg", [
    ("flow", dict(BASE_FLOW, field={"kind": "random-smooth", "degree": 2})),
    ("wilson", dict(WILSON, loops=[CIRCLE_NO_Z])),
    ("washer-energy", {"washer": {"u_max": 0.5}}),
    ("washer-flux", {"flux": {"r_out": 1.05}}),
    # 8 modes resolve the unit box's kernel at t = 1, not a box of side 40
    ("constants", {"grid": {"extents": [40, 40, 40], "shape": [16, 16, 16]},
                   "constants": {"kernel_modes": 8}}),
    # a cutoff at or below log 2 would flip the sampled field's sign
    ("washer-regularize",
     dict(WASHER_REGULARIZE, regularize={"origin": [-2, -2, -2],
                                         "cap_u_max": 0.5})),
], ids=["field_degree", "arc_center_2d_no_z", "washer_u_max",
        "flux_r_out", "kernel_modes", "cap_u_max"])
def test_library_rejection_is_config_error(tmp_path, capsys, command, cfg):
    out = tmp_path / "o"
    assert _run([command, "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not (out / "report.json").exists()


DIAMAGNETIC = {"grid": {"extents": [1, 1, 1], "shape": [8, 8, 8]},
               "field": {"kind": "random-smooth", "seed": 3},
               "diamagnetic": {"t": 0.004}}


RANDOM_FLOW = {"grid": BASE_FLOW["grid"], "field": {"kind": "random-smooth"},
               "flow": BASE_FLOW["flow"]}


def _with(cfg, section, key, value):
    cfg = json.loads(json.dumps(cfg))
    cfg[section][key] = value
    return cfg


# json.dumps writes NaN and Infinity as the bare words Python's json reads
@pytest.mark.parametrize("command, text", [
    ("flow", json.dumps(_with(BASE_FLOW, "flow", "snapshot_times",
                              [float("nan")]))),
    ("flow", json.dumps(_with(BASE_FLOW, "flow", "t_end", float("inf")))),
    ("flow", json.dumps(BASE_FLOW).replace('"t_end": 0.004',
                                           '"t_end": 1e999')),
    ("verify-diamagnetic", json.dumps(_with(DIAMAGNETIC, "diamagnetic", "t",
                                            float("nan")))),
    ("flow", json.dumps(_with(RANDOM_FLOW, "field", "seed", 0.0))),
    ("verify-diamagnetic", json.dumps(_with(DIAMAGNETIC, "diamagnetic",
                                            "omega_seed", 2.0))),
    ("washer-energy", json.dumps({"washer": {"n_u": 16.0}})),
    ("constants", json.dumps({"constants": {"kernel_modes": 1e308}})),
    ("flow", json.dumps(_with(RANDOM_FLOW, "field", "seed", True))),
], ids=["snapshot_nan", "t_end_infinity", "t_end_overflow", "diamagnetic_nan",
        "seed_float", "omega_seed_float", "n_u_float", "kernel_modes_float",
        "seed_bool"])
def test_non_finite_or_non_integer_number_is_config_error(
        tmp_path, capsys, command, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "o"
    assert _run([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("shape, degree", [((10, 10, 10), 1),
                                           ((12, 12, 12), 2)],
                         ids=["grid", "degree"])
def test_snapshot_field_must_fit_the_run(tmp_path, capsys, shape, degree):
    path = tmp_path / "field.ymf"
    snapshot_write(random_smooth(GridSpec((1, 1, 1), shape), su2(),
                                 degree=degree), 0.0, path)
    cfg = dict(BASE_FLOW, field={"kind": "snapshot", "path": str(path)})
    del cfg["oracle"]
    assert _run(["flow", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_written_snapshot_reads_back_as_field(tmp_path):
    cfg = {
        "grid": {"extents": [1, 1, 1], "shape": [10, 10, 10]},
        "field": {"kind": "random-smooth", "seed": 5, "amplitude": 0.1},
        "flow": {"dt": 0.001, "t_end": 0.004, "snapshot_times": [0.004],
                 "write_snapshots": True},
    }
    first, second = tmp_path / "first", tmp_path / "second"
    assert _run(["flow", "--config", _write(tmp_path, cfg),
                 "--out", str(first)]) == 0
    snap = first / "snapshot_t0.004000.ymf"
    cfg["field"] = {"kind": "snapshot", "path": str(snap)}
    assert _run(["flow", "--config", _write(tmp_path, cfg),
                 "--out", str(second)]) == 0
    r1 = json.loads((first / "report.json").read_text())["results"]
    r2 = json.loads((second / "report.json").read_text())["results"]
    assert r1["snapshots_written"] == 1
    assert r2["B_l2_initial"] == r1["B_l2_final"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_rejection_halves_dt_until_abort(tmp_path, capsys, monkeypatch):
    # a negative slack rejects every step, so dt halves down to the floor
    monkeypatch.setattr(flow, "ENERGY_SLACK", -1.0)
    out = tmp_path / "o"
    assert _run(["flow", "--config", _write(tmp_path, BASE_FLOW),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical abort" in err and "dt underflow" in err
    assert not (out / "report.json").exists()


def test_washer_regularize_rejects_non_neumann_boundary(tmp_path, capsys,
                                                        monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("washer sampled")

    monkeypatch.setattr(cli, "washer_to_grid", forbidden)
    cfg = dict(WASHER_REGULARIZE, boundary="dirichlet")
    assert _run(["washer-regularize", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


SMOKE = {
    "flow": BASE_FLOW,
    "verify-bounds": {
        "grid": {"extents": [1, 1, 1], "shape": [10, 10, 10]},
        "field": {"kind": "random-smooth", "seed": 7, "amplitude": 0.04},
        "flow": {"dt": 0.001, "t_end": 0.004},
        "constants": {"kernel_modes": 128},
    },
    "verify-domination": {
        "grid": {"extents": [1, 1, 1], "shape": [12, 12, 12]},
        "field": {"kind": "random-smooth", "seed": 31, "amplitude": 0.05},
        "flow": {"dt": 0.0008, "t_end": 0.0032,
                 "snapshot_times": [0.0, 0.0008, 0.0016, 0.0024, 0.0032]},
    },
    "verify-diamagnetic": {
        "grid": {"extents": [1, 1, 1], "shape": [10, 10, 10]},
        "field": {"kind": "random-smooth", "seed": 3, "amplitude": 0.2},
        "diamagnetic": {"t": 0.004},
    },
    "constants": {"constants": {"kernel_modes": 128}},
    "wilson": dict(WILSON, wilson={"n_steps": 16}),
    "washer-energy": {"washer": {"n_u": 32, "u_max": 20.0}},
    "washer-flux": {"flux": {"eps_ladder": [1e-1, 1e-2, 1e-3]}},
    "washer-regularize": WASHER_REGULARIZE,
}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_command_runs(tmp_path, command):
    out = tmp_path / "o"
    assert _run([command, "--config", _write(tmp_path, SMOKE[command]),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["command"] == command and doc["checks"]


@pytest.mark.parametrize("amplitude, status", [(0.04, 0), (1.0, 1)])
def test_verify_bounds_report_holds_the_library_rows(tmp_path, monkeypatch,
                                                     amplitude, status):
    """report.json's checks are the rows `flow.verify_bounds` returned,
    verdicts included; at amplitude 1.0 the small-data gate fails, which
    makes the t^{-3/4} rows not applicable."""
    returned = []

    def keep(*args):
        returned.append(flow.verify_bounds(*args))
        return returned[-1]

    monkeypatch.setattr(cli, "verify_bounds", keep)
    cfg = SMOKE["verify-bounds"]
    cfg = dict(cfg, field=dict(cfg["field"], amplitude=amplitude))
    assert cli.execute("verify-bounds", cfg, tmp_path) == status
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    assert returned == [checks]
    assert ("not-applicable" in {r["verdict"] for r in checks}) == bool(status)


SNAPSHOT_FLOW = {k: v for k, v in BASE_FLOW.items() if k != "oracle"}
RANDOM_FIELD = {"kind": "random-smooth", "seed": 3, "amplitude": 0.05}


def _forbidden(*args, **kwargs):
    raise AssertionError("computation started")


COMPUTATION = ("integrate", "transport_many", "NeumannSemigroup",
               "random_smooth", "coulomb_cosine", "washer_to_grid",
               "energy", "flux_probe")


def _assert_rejected_before_computing(tmp_path, capsys, monkeypatch,
                                      command, cfg, *args):
    """`command` on `cfg` ("SNAP" standing for a 12^3 SU(2) snapshot)
    exits 2 with no computation started and no output directory made."""
    snap = tmp_path / "field.ymf"
    snapshot_write(random_smooth(GridSpec((1, 1, 1), (12, 12, 12)), su2()),
                   0.0, snap)
    cfg = json.loads(json.dumps(cfg).replace('"SNAP"', json.dumps(str(snap))))
    for name in COMPUTATION:
        monkeypatch.setattr(cli, name, _forbidden)
    out = tmp_path / "o"
    assert _run([command, "--config", _write(tmp_path, cfg),
                 "--out", str(out), *args]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, cfg", [
    ("wilson", dict(WILSON, wilson={"n_steps": 16},
                    flow={"dt": 0.0005, "t_end": 0.01})),
    ("wilson", dict(WILSON, flow={"dt": 0.0005, "t_end": 0.04,
                                  "write_snapshots": True})),
    ("verify-bounds", dict(SMOKE["verify-bounds"],
                           flow={"dt": 0.001, "t_end": 0.004,
                                 "write_snapshots": True})),
    ("constants", {"flow": {"dt": 0.001, "t_end": 0.004,
                            "write_snapshots": False}}),
    ("flow", dict(SNAPSHOT_FLOW, field={"kind": "snapshot", "path": "SNAP",
                                        "amplitude": 2.0})),
    ("flow", dict(SNAPSHOT_FLOW, field={"kind": "snapshot", "path": "SNAP",
                                        "seed": 4})),
    ("flow", dict(SNAPSHOT_FLOW, field={"kind": "snapshot", "path": "SNAP",
                                        "algebra": "U1"})),
    ("flow", dict(BASE_FLOW, field={"kind": "coulomb-cosine", "seed": 4})),
    ("flow", dict(BASE_FLOW, field={"kind": "coulomb-cosine",
                                    "algebra": "U1"})),
    ("flow", dict(SNAPSHOT_FLOW, field=dict(RANDOM_FIELD, path="SNAP"))),
    ("constants", dict(SMOKE["constants"], boundary="dirichlet",
                       field=RANDOM_FIELD,
                       flow={"dt": 1.0, "t_end": 1.0})),
    ("washer-regularize", dict(WASHER_REGULARIZE, field=RANDOM_FIELD)),
    ("washer-energy", dict(SMOKE["washer-energy"],
                           grid={"extents": [1, 1, 1],
                                 "shape": [8, 8, 8]})),
    ("washer-flux", dict(SMOKE["washer-flux"],
                         regularize={"origin": [-2, -2, -2]})),
    ("flow", dict(BASE_FLOW, washer={"n_u": 32})),
    ("verify-bounds", dict(SMOKE["verify-bounds"], oracle="abelian-spectral")),
    ("verify-domination", dict(SMOKE["verify-domination"],
                               constants={"kernel_modes": 128})),
    ("verify-diamagnetic", dict(SMOKE["verify-diamagnetic"],
                                boundary="neumann")),
    ("wilson", dict(WILSON, domination={"omega_kinds": ["B"]})),
], ids=["wilson_flow_without_ladder", "write_snapshots_wilson",
        "write_snapshots_verify_bounds", "write_snapshots_constants",
        "snapshot_amplitude", "snapshot_seed", "snapshot_algebra",
        "cosine_seed", "cosine_algebra", "random_path",
        "constants_flow_field_boundary", "washer_regularize_field",
        "washer_energy_grid", "washer_flux_regularize", "flow_washer",
        "verify_bounds_oracle", "verify_domination_constants",
        "verify_diamagnetic_boundary", "wilson_domination"])
def test_ignored_config_key_is_config_error(tmp_path, capsys, monkeypatch,
                                            command, cfg):
    _assert_rejected_before_computing(tmp_path, capsys, monkeypatch,
                                      command, cfg)


@pytest.mark.parametrize("command, cfg", [
    ("flow", BASE_FLOW),
    ("flow", dict(SNAPSHOT_FLOW, field={"kind": "snapshot", "path": "SNAP"})),
    ("constants", SMOKE["constants"]),
    ("washer-flux", SMOKE["washer-flux"]),
], ids=["coulomb_cosine", "snapshot", "constants", "washer_flux"])
def test_seed_without_random_field_is_config_error(tmp_path, capsys,
                                                   monkeypatch, command, cfg):
    _assert_rejected_before_computing(tmp_path, capsys, monkeypatch,
                                      command, cfg, "--seed", "5")


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_tol_scale_must_be_finite_and_positive(tmp_path, capsys, monkeypatch,
                                               value):
    _assert_rejected_before_computing(tmp_path, capsys, monkeypatch,
                                      "flow", BASE_FLOW, "--tol-scale", value)


# the sections each command cannot run without
REQUIRED = {
    "flow": ("grid", "field", "flow"),
    "verify-bounds": ("grid", "field", "flow"),
    "verify-domination": ("grid", "field", "flow"),
    "verify-diamagnetic": ("grid", "field", "diamagnetic"),
    "wilson": ("grid", "field", "loops"),
    "washer-regularize": ("grid", "flow", "regularize"),
}


@pytest.mark.parametrize("command, section", [
    (command, section) for command, sections in REQUIRED.items()
    for section in sections])
def test_missing_required_section_is_config_error(tmp_path, capsys,
                                                  monkeypatch, command,
                                                  section):
    cfg = {k: v for k, v in SMOKE[command].items() if k != section}
    _assert_rejected_before_computing(tmp_path, capsys, monkeypatch,
                                      command, cfg)


@pytest.mark.parametrize("command, cfg", [
    ("flow", dict(BASE_FLOW, field={"kind": "random-smooth",
                                    "algebra": "SU2"})),
    # the oracle's closed form holds for the cosine mode without Dirichlet
    ("flow", dict(BASE_FLOW, field={"kind": "random-smooth",
                                    "algebra": "U1"})),
    ("flow", dict(BASE_FLOW, boundary="dirichlet")),
    ("washer-regularize", dict(WASHER_REGULARIZE,
                               regularize={"origin": [-2, -2, -2],
                                           "r_out": 1.05})),
    # C_eps about (2.6, 2, 2) leaves the band of a 12^3 box of side 4
    ("washer-regularize", dict(WASHER_REGULARIZE,
                               grid={"extents": [4, 4, 4],
                                     "shape": [12, 12, 12]},
                               regularize={"origin": [-2.6, -2, -2]})),
    # the elliptic kernel loses precision within ~1e-7 of the rim
    ("washer-regularize", dict(WASHER_REGULARIZE,
                               regularize={"origin": [-2, -2, -2],
                                           "eps_ladder": [1e-1, 1e-9]})),
    # 8 kernel modes cannot resolve c_N on a box of side 40
    ("verify-bounds", dict(SMOKE["verify-bounds"],
                           grid={"extents": [40, 40, 40],
                                 "shape": [10, 10, 10]},
                           flow={"dt": 1.0, "t_end": 4.0},
                           constants={"kernel_modes": 8})),
], ids=["oracle_su2_field", "oracle_random_u1_field", "oracle_dirichlet",
        "rim_r_out", "rim_leaves_band", "rim_eps_too_small", "kernel_modes"])
def test_rejected_before_flowing_or_sampling(tmp_path, capsys, monkeypatch,
                                            command, cfg):
    for name in ("integrate", "washer_to_grid"):
        monkeypatch.setattr(cli, name, _forbidden)
    out = tmp_path / "o"
    assert _run([command, "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert [p for p in out.rglob("*") if p.is_file()] == []


ARC = CIRCLE[0]


@pytest.mark.parametrize("segment", [
    dict(ARC, start=[0.7, 0.5, 0.5]),
    dict(SQUARE[0], radius=0.2),
    # center[2] = 0.9 beside z = 0.5 was dropped
    dict(ARC, center=[0.5, 0.5, 0.9]),
    {k: v for k, v in ARC.items() if k != "center"},
    # the same circle as a 3-D center without z
    dict({k: v for k, v in ARC.items() if k != "z"}, center=[0.5, 0.5, 0.5]),
], ids=["arc_start", "line_radius", "arc_center_3d_and_z", "arc_no_center",
        "arc_center_3d"])
def test_segment_keys_follow_their_kind(tmp_path, capsys, monkeypatch,
                                        segment):
    _assert_rejected_before_computing(tmp_path, capsys, monkeypatch,
                                      "wilson", dict(WILSON,
                                                     loops=[[segment]]))


@pytest.mark.parametrize("command, cfg", [
    ("flow", dict(BASE_FLOW, field={"amplitude": 1.0})),
    ("wilson", dict(WILSON, loops=[[{k: v for k, v in ARC.items()
                                     if k != "kind"}]])),
], ids=["field", "segment"])
def test_object_without_kind_reports_the_missing_kind(tmp_path, capsys,
                                                      command, cfg):
    assert _run([command, "--config", _write(tmp_path, cfg)]) == 2
    assert "'kind' is a required property" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg", [
    ("verify-domination", dict(SMOKE["verify-domination"],
                               domination={"omega_kinds": ["B", "B"]})),
    ("verify-diamagnetic", dict(SMOKE["verify-diamagnetic"], diamagnetic={
        "t": 0.004, "boundaries": ["neumann", "neumann"]})),
    ("washer-flux", {"flux": {"eps_ladder": [1e-1, 1e-2, 1e-2]}}),
    # the report listed the repeated rung beside three diffs, not four
    ("wilson", dict(WILSON, wilson={
        "n_steps": 16, "ladder": [0.005, 0.005, 0.01, 0.02, 0.04]})),
    # log log(1/eps) is not finite: the fit failed after flux.csv was written
    ("washer-flux", {"flux": {"eps_ladder": [1.0, 1e-1, 1e-2],
                              "r_out": 2.5}}),
], ids=["omega_kinds_repeated", "boundaries_repeated", "eps_repeated",
        "ladder_repeated", "eps_one"])
def test_list_entry_repeated_or_outside_domain_is_config_error(
        tmp_path, capsys, monkeypatch, command, cfg):
    _assert_rejected_before_computing(tmp_path, capsys, monkeypatch,
                                      command, cfg)


def test_execute_validates_its_config(tmp_path, monkeypatch):
    for name in COMPUTATION:
        monkeypatch.setattr(cli, name, _forbidden)
    out = tmp_path / "o"
    with pytest.raises(ConfigError, match="schema violation"):
        cli.execute("wilson", dict(WILSON, loops=[]), out)
    assert not out.exists()


def _section(draw, required, optional):
    """The required items and a drawn subset of the optional ones."""
    return dict(required, **{k: v for k, v in optional.items()
                             if draw(st.booleans())})


@st.composite
def _fuzz_case(draw, command):
    """(config, snapshot grid or None): a schema-valid config of `command`
    on 8-10 nodes per axis and extents in [0.5, 4], flowing about four
    steps at most.  A snapshot field's path is "SNAP" (written from the
    snapshot grid) or "ABSENT"."""
    _, required, optional = cli._DISPATCH[command]
    # the rim loops fit about the washer only in a box of side 3.5 or more
    side = st.floats(3.5 if command == "washer-regularize" else 0.5, 4.0)
    extents = draw(st.lists(side, min_size=3, max_size=3))
    shape = draw(st.lists(st.integers(8, 10), min_size=3, max_size=3))
    grid = GridSpec(tuple(extents), tuple(shape))
    ceiling = flow.dt_ceiling(grid)
    dt = ceiling * draw(st.floats(0.25, 1.05))
    t_end = dt * draw(st.floats(0.5, 4.0))
    snapshot_grid = None
    sections = {
        "grid": {"extents": extents, "shape": shape},
        "boundary": draw(st.sampled_from(["neumann", "neumann", "dirichlet",
                                          "marini"])),
        "oracle": "abelian-spectral",
        "constants": _section(draw, {}, {
            "kernel_modes": draw(st.integers(8, 64)),
            "tau": draw(st.floats(0.01, 0.5))}),
        "domination": {"omega_kinds": draw(st.lists(
            st.sampled_from(["B", "A'"]), min_size=1, max_size=2,
            unique=True))},
        "diamagnetic": _section(draw, {"t": ceiling * draw(
            st.floats(0.1, 4.0))}, {
            "boundaries": draw(st.lists(
                st.sampled_from(["neumann", "dirichlet"]), min_size=1,
                max_size=2, unique=True)),
            "omega_seed": draw(st.integers(0, 3)),
            "omega_degree": draw(st.integers(0, 3))}),
        "flow": _section(draw, {"dt": dt, "t_end": t_end}, {
            "variant": draw(st.sampled_from(["YM", "ZDS"])),
            "snapshot_times": [t_end * f for f in sorted(draw(st.lists(
                st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), max_size=5,
                unique=True)))]}),
        "washer": _section(draw, {}, {
            "u_max": draw(st.floats(0.1, 40.0)),
            "n_u": draw(st.integers(8, 32))}),
    }
    kind = draw(st.sampled_from(["coulomb-cosine", "random-smooth",
                                 "snapshot"]))
    if kind == "snapshot":
        sections["field"] = {"kind": kind, "path": draw(
            st.sampled_from(["SNAP", "ABSENT"]))}
        snapshot_grid = draw(st.sampled_from([grid, GridSpec(
            tuple(extents), (8, 8, 8))]))
    elif kind == "coulomb-cosine":
        sections["field"] = _section(draw, {"kind": kind}, {
            "amplitude": draw(st.floats(0.0, 2.0))})
    else:
        # amplitudes of 1e5 and more abort the flow (exit 3)
        sections["field"] = _section(draw, {"kind": kind, "amplitude": draw(
            st.one_of(st.floats(0.0, 1.0), st.floats(1e5, 1e8)))}, {
            "seed": draw(st.integers(0, 5)),
            "algebra": draw(st.sampled_from(["U1", "SU2"]))})
    rim = {
        "eps_ladder": draw(st.lists(st.floats(1e-8, 0.99), min_size=2,
                                    max_size=4, unique=True)),
        "r_out": draw(st.floats(1.01, 2.0)),
        "phi_span": draw(st.floats(0.1, 6.28))}
    sections["flux"] = _section(draw, {}, rim)
    sections["regularize"] = _section(draw, {"origin": [
        -L / 2 * draw(st.floats(0.8, 1.2)) for L in extents]}, dict(
        rim, cap_u_max=draw(st.floats(0.5, 20.0))))
    # loops about the box centre, some of them leaving the interior band
    loops = []
    for _ in range(draw(st.integers(1, 3))):
        r = min(extents) * draw(st.floats(0.05, 0.4))
        c = [L * draw(st.floats(0.4, 0.6)) for L in extents]
        if draw(st.booleans()):
            loops.append([{"kind": "arc", "center": c[:2], "z": c[2],
                           "radius": r, "phi0": 0.0, "phi1": 2 * math.pi}])
        else:
            corners = [[c[0] + dx * r, c[1] + dy * r, c[2]]
                       for dx, dy in ((-1, -1), (1, -1), (1, 1), (-1, 1))]
            loops.append([{"kind": "line", "start": a, "end": b}
                          for a, b in zip(corners, corners[1:] + corners[:1])])
    sections["loops"] = loops
    t0 = ceiling * draw(st.floats(0.05, 0.5))
    ladder = [t0, 2 * t0, 4 * t0, 8 * t0]
    sections["wilson"] = _section(draw, {}, {
        "n_steps": draw(st.integers(8, 32)), "ladder": ladder})
    if command == "verify-domination":
        sections["flow"]["snapshot_times"] = [0.0, t_end / 2, t_end]
    if command == "flow" and draw(st.booleans()):
        sections["flow"]["write_snapshots"] = draw(st.booleans())
    if command == "wilson":
        # only a ladder flows, to its top rung
        sections["flow"] = {"dt": dt, "t_end": ladder[-1]}
        if "ladder" not in sections["wilson"]:
            optional = optional - {"flow"}
    cfg = {k: sections[k] for k in sorted(required)}
    cfg.update({k: sections[k] for k in sorted(optional)
                if draw(st.booleans())})
    return cfg, snapshot_grid


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", cli.COMMANDS)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_valid_config_ends_with_an_exit_status(command, data):
    """Exit 0, 1, 2 or 3 and no traceback; an exit 2 makes no output
    directory, an exit 3 writes no report."""
    cfg, snapshot_grid = data.draw(_fuzz_case(command))
    assert cli._VALIDATOR.is_valid(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if snapshot_grid is not None and "field" in cfg:
            snap = tmp / "field.ymf"
            snapshot_write(random_smooth(snapshot_grid, su2(), seed=1,
                                         amplitude=0.1), 0.0, snap)
            cfg["field"]["path"] = str(
                snap if cfg["field"]["path"] == "SNAP" else tmp / "absent")
        out = tmp / "o"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = main([command, "--config", _write(tmp, cfg),
                           "--out", str(out)])
        assert status in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if status == 2:
            assert not out.exists()
        if status == 3:
            assert not (out / "report.json").exists()


def test_load_config_never_rechecks_the_schema(tmp_path, monkeypatch):
    cli._Validator.check_schema(cli.CONFIG_SCHEMA)
    monkeypatch.setattr(cli._Validator, "check_schema", _forbidden)
    assert load_config(_write(tmp_path, BASE_FLOW)) == BASE_FLOW
    assert cli.execute("flow", BASE_FLOW, tmp_path / "o") == 0
    with pytest.raises(ConfigError, match="schema violation"):
        cli.execute("flow", dict(BASE_FLOW, boundary="periodic"),
                    tmp_path / "p")


@pytest.mark.parametrize("args, calls", [([], 1), (["--seed", "5"], 2)],
                         ids=["no_seed", "seed"])
def test_main_validates_each_config_once(tmp_path, monkeypatch, args, calls):
    """`main` leaves the schema to `execute`, which checks the config it is
    given and, with --seed, the config with the seed merged in."""
    seen = []
    validate = cli._validate

    def counted(cfg):
        seen.append(cfg["field"].get("seed"))
        validate(cfg)

    monkeypatch.setattr(cli, "_validate", counted)
    assert _run(["flow", "--config", _write(tmp_path, RANDOM_FLOW),
                 "--out", str(tmp_path / "o"), *args]) == 0
    assert seen == [None, 5][:calls]


def test_oracle_runs_without_a_snapshot_at_t_end(tmp_path):
    """The oracle reads the flow's end state, so a run without a snapshot
    at t_end reports the row of one with it: that snapshot changes no
    step."""
    rows = []
    for snaps in ([0.0024], [0.0024, 0.004]):
        out = tmp_path / f"o{len(snaps)}"
        cfg = _with(BASE_FLOW, "flow", "snapshot_times", snaps)
        assert _run(["flow", "--config", _write(tmp_path, cfg),
                     "--out", str(out)]) == 0
        checks = json.loads((out / "report.json").read_text())["checks"]
        rows.append([r for r in checks
                     if r["name"] == "abelian_spectral_equivalence"])
    assert len(rows[0]) == 1 and rows[0] == rows[1]


def _fresh_python(code):
    """Run `code` in a new interpreter that imports this checkout's ymheat;
    return what it prints, parsed as JSON."""
    src = str(Path(ymheat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


LOADED = ("import json, sys\n"
          "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' "
          "or m.startswith('scipy.') or m.startswith('ymheat.'))))")


def test_cli_import_loads_no_scipy_and_every_traced_module():
    loaded = _fresh_python("import ymheat.cli\n" + LOADED)
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {mod for _name, mod, _attr in tracing.BOUNDARIES}
    assert traced <= set(loaded)
    # importing starts no thread and loads no executor machinery
    assert _fresh_python(
        "import ymheat.cli\nimport json, sys, threading\n"
        "print(json.dumps([threading.active_count(), "
        "'concurrent.futures' in sys.modules]))") == [1, False]


@pytest.mark.parametrize("command", ["flow", "verify-bounds", "wilson"])
def test_command_runs_without_scipy(tmp_path, command):
    args = [command, "--config", _write(tmp_path, SMOKE[command]),
            "--out", str(tmp_path / "o")]
    loaded = _fresh_python("from ymheat import cli\n"
                           f"assert cli.main({args!r}) == 0\n" + LOADED)
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = str(Path(ymheat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
