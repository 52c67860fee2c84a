import json
from pathlib import Path

import pytest

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


def test_load_config_rejects_bad_boundary(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"boundary": "periodic"}))
    with pytest.raises(ConfigError):
        load_config(p)


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


def test_wilson_ladder_workload_matches_reference(tmp_path):
    cfg = json.loads((PERFBENCH / "workloads" / "wilson-ladder.json")
                     .read_text())
    assert cfg["field"]["seed"] == 11
    assert cli.execute("wilson", cfg, tmp_path) == 0
    ref = PERFBENCH / "references" / "wilson-ladder.seed11.json"
    assert json.loads((tmp_path / "report.json").read_text()) == \
        json.loads(ref.read_text())


CIRCLE_NO_Z = [{"kind": "arc", "center": [0.5, 0.5], "radius": 0.2,
                "phi0": 0.0, "phi1": 6.283185307179586}]


@pytest.mark.parametrize("command, cfg", [
    ("flow", dict(BASE_FLOW, field={"kind": "random-smooth", "degree": 2})),
    ("wilson", dict(WILSON, loops=[CIRCLE_NO_Z])),
    ("washer-energy", {"washer": {"u_max": 0.5}}),
    ("washer-flux", {"flux": {"r_out": 1.05}}),
    ("constants", {"constants": {"kernel_modes": 8}}),
], ids=["field_degree", "arc_center_2d_no_z", "washer_u_max",
        "flux_r_out", "kernel_modes"])
def test_library_rejection_is_config_error(tmp_path, capsys, command, cfg):
    out = tmp_path / "o"
    assert _run([command, "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 2
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


WASHER_REGULARIZE = {
    "grid": {"extents": [4, 4, 4], "shape": [16, 16, 16]},
    "washer": {"n_u": 32},
    "flow": {"dt": 0.002, "t_end": 0.01},
    "regularize": {"origin": [-2, -2, -2]},
}


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
