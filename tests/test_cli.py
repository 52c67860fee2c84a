import contextlib
import copy
import importlib
import importlib.util
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ymheat
from ymheat import calculus, cli, flow, report, transport, washer
from ymheat.cli import load_config, main, ConfigError
from ymheat.grid import GridSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    """perfbench/<name>.py as the module perfbench_<name>, read as the
    benchmark runs it."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks up its module
    spec.loader.exec_module(module)
    return module


# the benchmark's rule for a report against its stored reference
drift = _perfbench_module("run").drift

BASE_FLOW = {
    "grid": {"extents": [1, 1, 1], "shape": [12, 12, 12]},
    "boundary": "neumann",
    "field": {"kind": "coulomb-cosine", "amplitude": 1.0},
    "flow": {"dt": 0.0008, "t_end": 0.004},
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
    doc = json.loads((out / "report.json").read_text())
    res = doc["results"]
    assert [r["name"] for r in doc["checks"]] == [
        "a4_quadrature_vs_gamma", "c_N_constant_mode_lower_bound"]
    assert sorted(res) == ["a", "a4", "a4_exact", "c_N", "gamma",
                           "kernel_modes", "tau"]
    assert res["kernel_modes"] == 128
    assert res["c_N"] >= 1.0
    assert abs(res["a4"] - 7.416298709205489) < 1e-8
    assert res["a"] > 0 and res["gamma"] > res["c_N"]


def test_too_few_kernel_modes_are_refused_by_the_tail(tmp_path, capsys):
    """The kernel's tail bound is the mode count's one check: 8 modes do
    not sum an axis of length 8 at t = 1, and the run exits 2."""
    cfg = {"grid": {"extents": [8, 1, 1], "shape": [16, 16, 16]},
           "constants": {"kernel_modes": 8}}
    out = tmp_path / "o"
    assert _run(["constants", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 2
    assert "mode count too small" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_c_N_keeps_its_bits_from_8_kernel_modes_to_1024(tmp_path):
    """Where the tail bound lets 8 modes through, they sum c_N to the
    bits of 1024."""
    c_N = {}
    for modes in (8, 1024):
        cfg = {"grid": {"extents": [4, 4, 4], "shape": [16, 16, 16]},
               "constants": {"kernel_modes": modes}}
        out = tmp_path / str(modes)
        assert cli.execute("constants", cfg, out) == 0
        res = json.loads((out / "report.json").read_text())["results"]
        assert res["kernel_modes"] == modes
        c_N[modes] = res["c_N"]
    assert c_N[8] == c_N[1024]


def _c_N_row(tmp_path, extents):
    cfg = {"grid": {"extents": list(extents), "shape": [16, 16, 16]}}
    code = cli.execute("constants", cfg, tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    rows = {r["name"]: r for r in doc["checks"]}
    return code, rows["c_N_constant_mode_lower_bound"], doc["results"]["c_N"]


@pytest.mark.parametrize("extents", [
    (1, 2, 3), (2, 2, 2), (4, 4, 4), (1, 1.3, 0.8)],
    ids=["1x2x3", "2^3", "4^3", "1x1.3x0.8"])
def test_c_N_lower_bound_is_the_constant_mode_of_the_box(tmp_path, extents):
    """The constant mode gives c_N >= |Omega|^{-1/2}, not c_N >= 1: on
    these boxes c_N is below 1 and the row passes."""
    code, row, c_N = _c_N_row(tmp_path, extents)
    assert c_N < 1.0
    assert code == 0 and row["verdict"] == "pass"


def test_c_N_lower_bound_on_the_unit_box_keeps_its_bits(tmp_path):
    # 1.0 ** -0.5 == 1.0: the row is the one that judged 1 <= c_N
    code, row, c_N = _c_N_row(tmp_path, (1, 1, 1))
    assert code == 0
    assert row == report.check_row("c_N_constant_mode_lower_bound", 1.0,
                                   c_N, 1e-9)


@pytest.mark.parametrize("extents", [(1, 1, 1), (4, 4, 4), (1, 1.3, 0.8)],
                         ids=["unit", "4^3", "1x1.3x0.8"])
def test_c_N_lower_bound_fails_without_the_constant_mode(tmp_path,
                                                         monkeypatch,
                                                         extents):
    """Control: c_N summed without its k = 0 mode falls below the bound."""
    def without_constant_mode(sg):
        prod = 1.0
        for L in sg.grid.extents:
            k = np.arange(1, sg.kernel_modes + 1)
            prod *= 2.0 * np.exp(-((np.pi * k / L) ** 2) * 2.0).sum() / L
        return math.sqrt(prod)

    monkeypatch.setattr(cli.NeumannSemigroup, "c_N_estimate",
                        without_constant_mode)
    code, row, _ = _c_N_row(tmp_path, extents)
    assert code == 1 and row["verdict"] == "fail"


def test_a4_row_fails_on_a_wrong_closed_form(tmp_path, monkeypatch):
    """Control: a Gamma-function a4 off by one part in a million fails the
    quadrature row and only that row."""
    exact = cli.a4_constant()
    monkeypatch.setattr(cli, "a4_constant", lambda: exact * (1 + 1e-6))
    assert cli.execute("constants", SMOKE["constants"], tmp_path) == 1
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["results"]["a4_exact"] != exact
    verdicts = {r["name"]: r["verdict"] for r in doc["checks"]}
    assert verdicts == {"a4_quadrature_vs_gamma": "fail",
                        "c_N_constant_mode_lower_bound": "pass"}


def test_a4_rule_meets_the_closed_form_to_rounding(tmp_path):
    assert cli.execute("constants", SMOKE["constants"], tmp_path) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    row = next(r for r in doc["checks"]
               if r["name"] == "a4_quadrature_vs_gamma")
    assert row["lhs"] <= 1e-14


def _washer_energy_rows(tmp_path, cfg):
    code = cli.execute("washer-energy", cfg, tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    return code, {r["name"]: r for r in doc["checks"]}


def test_total_current_holds_on_a_far_cutoff(tmp_path, capsys):
    """u_max = 1e6 on 32 nodes: the washer's own u-rule still sums the
    current to 1/log 2, with no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, rows = _washer_energy_rows(
            tmp_path, {"washer": {"n_u": 32, "u_max": 1e6}})
    assert code == 0 and caught == []
    assert capsys.readouterr().err == ""
    assert rows["total_current"]["lhs"] < 1e-13


def test_total_current_fails_on_misweighted_u_nodes(tmp_path, monkeypatch):
    """Control: u-rule weights off by one part in 1e9 fail total_current
    and only that row; the energy gaps are scale-free."""
    u_nodes = washer._u_nodes

    def misweighted(n_u, u_hi):
        u, s, w = u_nodes(n_u, u_hi)
        return u, s, w * (1 + 1e-9)

    monkeypatch.setattr(washer, "_u_nodes", misweighted)
    code, rows = _washer_energy_rows(tmp_path, SMOKE["washer-energy"])
    assert code == 1
    assert {n: r["verdict"] for n, r in rows.items()} == {
        "energy_cauchy_rel_gap": "pass", "total_current": "fail"}
    assert rows["total_current"]["lhs"] == pytest.approx(1.39e-9, rel=0.01)


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


def test_wilson_command(tmp_path):
    cfg = {
        "grid": {"extents": [1, 1, 1], "shape": [12, 12, 12]},
        "boundary": "neumann",
        "field": {"kind": "random-smooth", "seed": 11, "amplitude": 0.3,
                  "algebra": "SU2"},
        "loops": [[{"kind": "arc", "center": [0.5, 0.5], "radius": 0.2,
                    "phi0": 0.0, "phi1": 6.283185307179586, "z": 0.5}]],
        "wilson": {"n_steps": 64, "ladder": [0.005, 0.01, 0.02, 0.04]},
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


def _washer_flux_verdicts(tmp_path, monkeypatch, flux):
    """The washer-flux rows' verdicts on the SMOKE ladder, each rim's flux
    given by ``flux(eps)``."""
    monkeypatch.setattr(cli, "flux_probe", lambda lp, wc: flux(lp.eps))
    code = cli.execute("washer-flux", SMOKE["washer-flux"], tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    return code, {r["name"]: r["verdict"] for r in doc["checks"]}


def test_falling_loglog_line_fails_flux_strictly_increasing(tmp_path,
                                                            monkeypatch):
    """Control: fluxes on an exact line in log log(1/eps) that falls fail
    the monotonicity row alone; the line fits itself."""
    code, verdicts = _washer_flux_verdicts(
        tmp_path, monkeypatch,
        lambda eps: 1.0 - 0.5 * math.log(math.log(1.0 / eps)))
    assert code == 1
    assert verdicts == {"flux_strictly_increasing": "fail",
                        "loglog_fit_residual": "pass"}


def test_power_law_growth_fails_loglog_fit_residual(tmp_path, monkeypatch):
    """Control: fluxes that rise like eps^{-1/2} increase but fit no line
    in log log(1/eps), and fail the residual row alone."""
    code, verdicts = _washer_flux_verdicts(tmp_path, monkeypatch,
                                           lambda eps: eps ** -0.5)
    assert code == 1
    assert verdicts == {"flux_strictly_increasing": "pass",
                        "loglog_fit_residual": "fail"}


def test_load_config_rejects_bad_boundary(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(dict(BASE_FLOW, boundary="periodic")))
    assert _run(["flow", "--config", str(p),
                 "--out", str(tmp_path / "o")]) == 2
    assert "config schema violation at $.boundary" in capsys.readouterr().err


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
    {"flow": {"dt": 0.001, "t_end": 0.04}},
], ids=["unclosed", "leaves_band", "ladder_not_dyadic",
        "ladder_with_snapshot_times", "ladder_t_end_not_top_rung",
        "ladder_t_end_top_rung"])
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


def test_transport_many_interpolates_each_chunk_once(tmp_path,
                                                    monkeypatch):
    """One interpolator reads every field of the run: each chunk of each
    active path samples the five fields of the ladder in one call."""
    calls = [0]
    call = transport._FieldInterpolator.__call__

    def counting(self, points):
        calls[0] += 1
        return call(self, points)

    monkeypatch.setattr(transport._FieldInterpolator, "__call__", counting)
    # a full and a partial chunk of steps per segment
    cfg = dict(WILSON, wilson=dict(WILSON["wilson"],
                                   n_steps=transport.CHUNK_STEPS + 16))
    assert cli.execute("wilson", cfg, tmp_path) == 0
    assert calls[0] == 2 * sum(len(loop) for loop in WILSON["loops"])


def test_reversed_ladder_fails_trace_diffs_nonincreasing_tail(tmp_path,
                                                              monkeypatch):
    """The ladder's holonomies read top rung first: the trace differences
    grow along the ladder, and that row alone fails."""
    kernel = cli.transport_many

    def reversed_ladder(fields, paths, n_steps):
        h = kernel(fields, paths, n_steps)
        h[:, 1:] = h[:, :0:-1]
        return h

    monkeypatch.setattr(cli, "transport_many", reversed_ladder)
    assert cli.execute("wilson", WILSON, tmp_path) == 1
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    failed = [r for r in checks if r["verdict"] != "pass"]
    assert [r["name"] for r in failed] == ["trace_diffs_nonincreasing_tail"]
    assert failed[0]["lhs"] == 1.0


@pytest.fixture(scope="module")
def wilson_without_flow(tmp_path_factory):
    out = tmp_path_factory.mktemp("wilson")
    assert cli.execute("wilson", WILSON, out) == 0
    return out


@pytest.mark.parametrize("flow_section, same_bytes", [
    ({}, True),
    ({"dt": 1 / 9 * (1 / 9) / 8}, True),  # h^2/8, h = 1/9 on a 10^3 unit box
    ({"dt": 0.0005}, False),
], ids=["empty", "dt_ceiling", "dt"])
def test_wilson_flow_section_takes_dt_alone(tmp_path, wilson_without_flow,
                                            flow_section, same_bytes):
    """Beside a ladder, which sets the flow's end and snapshot times, a
    flow section takes dt and variant; an absent dt is the step ceiling."""
    cfg = dict(WILSON, flow=flow_section)
    assert _run(["wilson", "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 0
    if same_bytes:
        for name in ("report.json", "traces.csv"):
            assert (tmp_path / "o" / name).read_bytes() \
                == (wilson_without_flow / name).read_bytes()


def test_su2_bounds_workload_matches_reference(tmp_path):
    cfg = json.loads((PERFBENCH / "workloads" / "su2-bounds.json")
                     .read_text())
    assert cfg["field"]["seed"] == 7
    assert cli.execute("verify-bounds", cfg, tmp_path) == 0
    ref = PERFBENCH / "references" / "su2-bounds.seed7.json"
    new = json.loads((tmp_path / "report.json").read_text())
    assert drift(json.loads(ref.read_text()), new) == []


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
    assert new == json.loads(ref.read_text())


def test_domination_B_fails_on_the_cosine_mode_at_amplitude_one(tmp_path):
    # the failing control of domination_B, as the u1-domination reference
    # above is domination_Ap's
    cfg = {
        "grid": {"extents": [1, 1, 1], "shape": [12, 12, 12]},
        "boundary": "neumann",
        "field": {"kind": "coulomb-cosine", "amplitude": 1.0},
        "flow": {"dt": 0.0008, "t_end": 0.0032,
                 "snapshot_times": [0, 0.0008, 0.0016, 0.0024, 0.0032]},
    }
    assert cli.execute("verify-domination", cfg, tmp_path) == 1
    checks = {c["name"]: c for c in
              json.loads((tmp_path / "report.json").read_text())["checks"]}
    assert {name: c["verdict"] for name, c in checks.items()} == \
        {"domination_B": "fail", "domination_Ap": "pass"}
    # lhs 0.1097 against tol 0.0331: not a failure by round-off
    assert checks["domination_B"]["lhs"] > 3 * checks["domination_B"]["tol"]


def test_washer_regularize_workload_matches_reference(tmp_path):
    cfg = json.loads((PERFBENCH / "workloads" / "washer-regularize.json")
                     .read_text())
    assert cli.execute("washer-regularize", cfg, tmp_path) == 0
    ref = PERFBENCH / "references" / "washer-regularize.json"
    assert json.loads((tmp_path / "report.json").read_text()) == \
        json.loads(ref.read_text())


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
    ("verify-domination", json.dumps(_with(RANDOM_FLOW, "flow",
                                           "snapshot_times", [float("nan")]))),
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


def test_ascent_fails_B_l2_nonincreasing(tmp_path, monkeypatch):
    """The flow takes every step, so an energy increase reaches the row:
    with ym_rhs negated, ||B||_2 climbs and the command exits 1 on
    B_l2_nonincreasing instead of retrying the step away."""
    rhs = flow.ym_rhs

    def ascent(*args):
        Ap, B = rhs(*args)
        np.negative(Ap.values, out=Ap.values)
        return Ap, B

    monkeypatch.setattr(flow, "ym_rhs", ascent)
    out = tmp_path / "o"
    assert _run(["flow", "--config", _write(tmp_path, BASE_FLOW),
                 "--out", str(out)]) == 1
    checks = json.loads((out / "report.json").read_text())["checks"]
    row = next(r for r in checks if r["name"] == "B_l2_nonincreasing")
    assert row["verdict"] == "fail"
    assert row["lhs"] == pytest.approx(1.55e-2, rel=0.01)


def test_stencil_off_by_1e_3_fails_abelian_spectral_equivalence(tmp_path,
                                                               monkeypatch):
    """The spectral oracle sees a first-derivative divisor off by 1e-3
    relative: the flowed field leaves the closed form by more than tol."""
    d1 = calculus._d1
    monkeypatch.setattr(calculus, "_d1", lambda f, axis, h, out:
                        d1(f, axis, h * (1 + 1e-3), out))
    out = tmp_path / "o"
    assert _run(["flow", "--config", _write(tmp_path, BASE_FLOW),
                 "--out", str(out)]) == 1
    checks = json.loads((out / "report.json").read_text())["checks"]
    row = next(r for r in checks
               if r["name"] == "abelian_spectral_equivalence")
    assert row["verdict"] == "fail" and row["tol"] == 1e-4
    assert row["lhs"] == pytest.approx(1.53e-4, rel=0.01)


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
    "wilson": WILSON,
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
    # fixed keys, which the stored benchmark references hold
    assert doc["tol_scale"] == 1.0 and doc["seed"] is None


def _late_bounds():
    """The su2-bounds workload at tau = 0.01: its flow to t = 0.025 passes
    t = 2 tau, so the late smoothing rows judge nonempty windows."""
    cfg = json.loads((PERFBENCH / "workloads" / "su2-bounds.json")
                     .read_text())
    cfg["constants"]["tau"] = 0.01
    return cfg


def _bounds_rows(tmp_path, cfg):
    code = cli.execute("verify-bounds", cfg, tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    return code, {r["name"]: r for r in doc["checks"]}


def test_late_smoothing_rows_are_applicable_and_pass(tmp_path):
    """An empty window reads lhs = rhs = 0; at tau = 0.01 both late rows
    judge the flow after t = tau (B) and t = 2 tau (A')."""
    code, rows = _bounds_rows(tmp_path, _late_bounds())
    assert code == 0
    for name, lhs, rhs in [("B_linf_late", 6.31e-2, 2.89),
                           ("Ap_linf_late", 9.45e-4, 0.202)]:
        assert rows[name]["verdict"] == "pass"
        assert rows[name]["lhs"] == pytest.approx(lhs, rel=0.01)
        assert rows[name]["rhs"] == pytest.approx(rhs, rel=0.01)


def _plant_c_N(monkeypatch, factor):
    estimate = cli.NeumannSemigroup.c_N_estimate
    monkeypatch.setattr(cli.NeumannSemigroup, "c_N_estimate",
                        lambda sg: estimate(sg) * factor)


def _plant_monitor(monkeypatch, name, factor, after_start=False):
    """Scale the monitored norm `name` by `factor` as the flow records it,
    at every time or only after t = 0."""
    record = flow.MonitorSeries.record
    i = flow.MonitorSeries.FIELDS.index(name) - 1  # record's norms follow t

    def planted(self, t, *norms):
        norms = list(norms)
        if t > 0 or not after_start:
            norms[i] *= factor
        return record(self, t, *norms)

    monkeypatch.setattr(flow.MonitorSeries, "record", planted)


@pytest.mark.parametrize("plant, failing", [
    (lambda mp: _plant_c_N(mp, 1e-3), {"B_linf_late", "Ap_linf_early"}),
    (lambda mp: _plant_monitor(mp, "B_linf", 100.0),
     {"B_linf_early", "B_linf_late"}),
    (lambda mp: _plant_monitor(mp, "Ap_linf", 1e3),
     {"Ap_linf_early", "Ap_linf_late"}),
    (lambda mp: _plant_monitor(mp, "Bp_l2", 10.0), {"energy_dissipation"}),
    (lambda mp: _plant_monitor(mp, "Ap_l2", 10.0), {"action_bound"}),
    (lambda mp: _plant_monitor(mp, "Ap_l2", 2.0, after_start=True),
     {"energy_dissipation", "Ap_l2_growth"}),
], ids=["c_N_x1e-3", "B_linf_x100", "Ap_linf_x1e3", "Bp_l2_x10", "Ap_l2_x10",
        "Ap_l2_x2_after_start"])
def test_planted_constant_fails_its_bounds_rows(tmp_path, monkeypatch, plant,
                                                failing):
    """Controls of the verify-bounds rows at tau = 0.01: one wrong
    constant, in c_N or in one monitored norm, fails exactly these rows.
    The slack is absolute (1.78e-2 here), so gamma x 1e-3 cannot fail
    Ap_linf_late, whose lhs is 9.45e-4: its control raises ||A'||_inf.
    Ap_l2_growth follows from energy_dissipation under the early bound,
    so no control fails it alone."""
    plant(monkeypatch)
    code, rows = _bounds_rows(tmp_path, _late_bounds())
    assert code == 1
    assert {n for n, r in rows.items() if r["verdict"] == "fail"} == failing


def test_planted_A_prime_norm_fails_flow_action_bound(tmp_path, monkeypatch):
    """Control: ||A'||_2 read 10x too large makes the action 100x too
    large, past ||B_0||^2 on the cosine flow, and only that row fails."""
    _plant_monitor(monkeypatch, "Ap_l2", 10.0)
    assert cli.execute("flow", SMOKE["flow"], tmp_path) == 1
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    assert [r["name"] for r in checks if r["verdict"] == "fail"] \
        == ["action_bound"]


def test_divergent_current_fails_energy_cauchy_rel_gap(tmp_path,
                                                       monkeypatch):
    """Control: the energy kernel of the current 1/((1-r) log(1/(1-r))),
    whose energy diverges (each weight u^-2 du becomes u^-1 du), keeps a
    cutoff gap of one half; the total current does not see the kernel."""
    kernel = washer._coplanar_kernel
    monkeypatch.setattr(washer, "_coplanar_kernel",
                        lambda u1, u2: kernel(u1, u2) * u1 * u2)
    code, rows = _washer_energy_rows(tmp_path, SMOKE["washer-energy"])
    assert code == 1
    assert {n: r["verdict"] for n, r in rows.items()} == {
        "energy_cauchy_rel_gap": "fail", "total_current": "pass"}


def _washer_regularize_verdicts(tmp_path, cfg=SMOKE["washer-regularize"]):
    assert cli.execute("washer-regularize", cfg, tmp_path) == 1
    doc = json.loads((tmp_path / "report.json").read_text())
    return {r["name"]: r["verdict"] for r in doc["checks"]}


def test_unflowed_rim_fluxes_fail_flowed_flux_ladder_converges(tmp_path,
                                                               monkeypatch):
    """Control: the washer's own rim fluxes, which grow like
    log log(1/eps), in place of the flowed field's line integrals."""
    reg = SMOKE["washer-regularize"]
    loops = iter(cli._rim_loops(reg["regularize"]))
    wc = washer.WasherConfig(**reg["washer"])
    monkeypatch.setattr(cli, "line_integral", lambda A, path: np.array(
        [cli.flux_probe(next(loops), wc)]))
    assert _washer_regularize_verdicts(tmp_path) == {
        "flowed_flux_ladder_converges": "fail",
        "initial_flux_ladder_diverges": "pass"}


def test_falling_rim_fluxes_fail_initial_flux_ladder_diverges(tmp_path,
                                                              monkeypatch):
    """Control: t = 0 fluxes that fall toward the rim (flux = eps)."""
    monkeypatch.setattr(cli, "flux_probe", lambda lp, wc: lp.eps)
    assert _washer_regularize_verdicts(tmp_path) == {
        "flowed_flux_ladder_converges": "pass",
        "initial_flux_ladder_diverges": "fail"}


def test_converging_rim_fluxes_fail_initial_flux_ladder_diverges(
        tmp_path, monkeypatch):
    """Control: t = 0 fluxes 1 - eps, which increase toward the rim but
    converge to 1, lie off the log log(1/eps) law (residual 0.283)."""
    monkeypatch.setattr(cli, "flux_probe", lambda lp, wc: 1.0 - lp.eps)
    assert _washer_regularize_verdicts(tmp_path) == {
        "flowed_flux_ladder_converges": "pass",
        "initial_flux_ladder_diverges": "fail"}


def test_bounded_potential_fails_initial_flux_ladder_diverges(tmp_path):
    """Control: a current cut off at u_max = 1 (r = 1 - 1/e) has a bounded
    potential, whose rim fluxes increase and converge (residual 0.273)."""
    cfg = dict(SMOKE["washer-regularize"], washer={"n_u": 32, "u_max": 1.0})
    assert _washer_regularize_verdicts(tmp_path, cfg) == {
        "flowed_flux_ladder_converges": "pass",
        "initial_flux_ladder_diverges": "fail"}


# Each (command, report row): the test whose control makes the row read
# "fail", or the ROADMAP item that says why no control can
ROW_CONTROLS = {
    ("flow", "B_l2_nonincreasing"):
        "test_cli.py::test_ascent_fails_B_l2_nonincreasing",
    ("flow", "action_bound"):
        "test_cli.py::test_planted_A_prime_norm_fails_flow_action_bound",
    ("flow", "abelian_spectral_equivalence"):
        "test_cli.py::test_stencil_off_by_1e_3_fails_abelian_spectral_"
        "equivalence",
    ("verify-domination", "domination_B"):
        "test_cli.py::test_domination_B_fails_on_the_cosine_mode_at_"
        "amplitude_one",
    ("verify-domination", "domination_Ap"):
        "test_cli.py::test_u1_domination_workload_matches_reference",
    ("verify-diamagnetic", "diamagnetic_neumann"): "ROADMAP 21",
    ("verify-diamagnetic", "diamagnetic_dirichlet"): "ROADMAP 21",
    ("verify-bounds", "small_data_gate"):
        "test_flow.py::test_verify_bounds_not_applicable_when_gate_fails",
    ("verify-bounds", "B_linf_early"):
        "test_cli.py::test_planted_constant_fails_its_bounds_rows"
        "[B_linf_x100]",
    ("verify-bounds", "B_linf_late"):
        "test_cli.py::test_planted_constant_fails_its_bounds_rows"
        "[c_N_x1e-3]",
    ("verify-bounds", "Ap_linf_early"):
        "test_cli.py::test_planted_constant_fails_its_bounds_rows"
        "[c_N_x1e-3]",
    ("verify-bounds", "Ap_linf_late"):
        "test_cli.py::test_planted_constant_fails_its_bounds_rows"
        "[Ap_linf_x1e3]",
    ("verify-bounds", "energy_dissipation"):
        "test_cli.py::test_planted_constant_fails_its_bounds_rows[Bp_l2_x10]",
    ("verify-bounds", "Ap_l2_growth"):
        "test_cli.py::test_planted_constant_fails_its_bounds_rows"
        "[Ap_l2_x2_after_start]",
    ("verify-bounds", "action_bound"):
        "test_cli.py::test_planted_constant_fails_its_bounds_rows[Ap_l2_x10]",
    ("constants", "a4_quadrature_vs_gamma"):
        "test_cli.py::test_a4_row_fails_on_a_wrong_closed_form",
    ("constants", "c_N_constant_mode_lower_bound"):
        "test_cli.py::test_c_N_lower_bound_fails_without_the_constant_mode",
    ("wilson", "trace_unitarity_bound"): "ROADMAP 27",
    ("wilson", "trace_diffs_nonincreasing_tail"):
        "test_cli.py::test_reversed_ladder_fails_trace_diffs_nonincreasing_"
        "tail",
    ("washer-energy", "energy_cauchy_rel_gap"):
        "test_cli.py::test_divergent_current_fails_energy_cauchy_rel_gap",
    ("washer-energy", "total_current"):
        "test_cli.py::test_total_current_fails_on_misweighted_u_nodes",
    ("washer-flux", "flux_strictly_increasing"):
        "test_cli.py::test_falling_loglog_line_fails_flux_strictly_increasing",
    ("washer-flux", "loglog_fit_residual"):
        "test_cli.py::test_power_law_growth_fails_loglog_fit_residual",
    ("washer-regularize", "flowed_flux_ladder_converges"):
        "test_cli.py::test_unflowed_rim_fluxes_fail_flowed_flux_ladder_"
        "converges",
    ("washer-regularize", "initial_flux_ladder_diverges"):
        "test_cli.py::test_converging_rim_fluxes_fail_initial_flux_ladder_"
        "diverges",
}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_report_row_has_a_control(tmp_path, command):
    """Every row the command emits on its SMOKE config has a ROW_CONTROLS
    entry, and every entry names a test or ROADMAP item that exists."""
    assert cli.execute(command, SMOKE[command], tmp_path) == 0
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    missing = [r["name"] for r in checks
               if (command, r["name"]) not in ROW_CONTROLS]
    assert missing == [], f"{command} rows with no control: {missing}"
    root = PERFBENCH.parent
    roadmap = (root / "ROADMAP.md").read_text()
    for (cmd, row), control in ROW_CONTROLS.items():
        if cmd != command:
            continue
        if control.startswith("ROADMAP "):
            item = control.split()[1]
            assert re.search(rf"^{item}\. \*\*", roadmap, re.M), control
            continue
        path, name = control.split("::")
        test, _, case = name.partition("[")
        text = (root / "tests" / path).read_text()
        assert f"def {test}(" in text, (row, control)
        assert not case or f'"{case[:-1]}"' in text, (row, control)


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


def test_verify_domination_frees_the_end_state(tmp_path, monkeypatch):
    """domination_check reads only the times and the stream's handles, so
    the command drops the trajectory's end state before the check."""
    finals = []
    check = cli.domination_check

    def capture(traj, omega_kind):
        finals.append(traj.final)
        return check(traj, omega_kind=omega_kind)

    monkeypatch.setattr(cli, "domination_check", capture)
    assert cli.execute("verify-domination", SMOKE["verify-domination"],
                       tmp_path) == 0
    assert finals == [None, None]


def test_washer_regularize_lets_the_flow_free_its_field(tmp_path,
                                                       monkeypatch):
    """The command hands `integrate` its last reference to the sampled
    field, which is freed before the flow's first monitor record; control:
    a sampler that keeps the field keeps it alive there."""
    sample, record = cli.washer_to_grid, flow._record
    refs, kept, alive = [], [], []

    def recording(*args):
        alive.append(refs[-1]() is not None)
        return record(*args)

    monkeypatch.setattr(flow, "_record", recording)
    for keep in (False, True):
        def sampling(*args, **kwargs):
            out = sample(*args, **kwargs)
            refs.append(weakref.ref(out["field"].values))
            if keep:
                kept.append(out["field"])
            return out

        monkeypatch.setattr(cli, "washer_to_grid", sampling)
        assert cli.execute("washer-regularize", SMOKE["washer-regularize"],
                           tmp_path / str(keep)) == 0
        assert alive[0] is keep
        alive.clear()


RANDOM_FIELD = {"kind": "random-smooth", "seed": 3, "amplitude": 0.05}


def _forbidden(*args, **kwargs):
    raise AssertionError("computation started")


COMPUTATION = ("integrate", "transport_many", "NeumannSemigroup",
               "random_smooth", "coulomb_cosine", "washer_to_grid",
               "energy", "flux_probe")


def _assert_rejected_before_computing(tmp_path, capsys, monkeypatch,
                                      command, cfg):
    """`command` on `cfg` exits 2 with no computation started and no
    output directory made; returns its stderr."""
    for name in COMPUTATION:
        monkeypatch.setattr(cli, name, _forbidden)
    out = tmp_path / "o"
    assert _run([command, "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert not out.exists()
    return err


def test_wilson_without_a_ladder_is_config_error(tmp_path, capsys,
                                                 monkeypatch):
    """The wilson command flows its ladder: a config without one exits 2
    before any computation, and the refusal names the ladder."""
    err = _assert_rejected_before_computing(
        tmp_path, capsys, monkeypatch, "wilson",
        dict(WILSON, wilson={"n_steps": 16}))
    assert ("config schema violation at $.wilson: 'ladder' is a required "
            "property") in err


@pytest.mark.parametrize("command, cfg, where, keys", [
    ("wilson", dict(WILSON, wilson={"n_steps": 16},
                    flow={"dt": 0.0005, "t_end": 0.01}),
     "$.wilson", ["ladder"]),
    ("wilson", dict(WILSON, flow={"dt": 0.0005, "t_end": 0.04,
                                  "write_snapshots": True}),
     "$.flow", ["write_snapshots"]),
    ("verify-bounds", dict(SMOKE["verify-bounds"],
                           flow={"dt": 0.001, "t_end": 0.004,
                                 "write_snapshots": True}),
     "$.flow", ["write_snapshots"]),
    ("constants", {"flow": {"dt": 0.001, "t_end": 0.004,
                            "write_snapshots": False}}, "$", ["flow"]),
    ("flow", dict(BASE_FLOW, field={"kind": "coulomb-cosine", "seed": 4}),
     "$.field", ["seed"]),
    ("flow", dict(BASE_FLOW, field={"kind": "coulomb-cosine",
                                    "algebra": "U1"}),
     "$.field", ["algebra"]),
    ("flow", _with(RANDOM_FLOW, "field", "path", "SNAP"), "$.field",
     ["path"]),
    ("constants", dict(SMOKE["constants"], boundary="dirichlet",
                       field=RANDOM_FIELD,
                       flow={"dt": 1.0, "t_end": 1.0}),
     "$", ["boundary", "field", "flow"]),
    ("washer-regularize", dict(WASHER_REGULARIZE, field=RANDOM_FIELD),
     "$", ["field"]),
    ("washer-energy", dict(SMOKE["washer-energy"],
                           grid={"extents": [1, 1, 1],
                                 "shape": [8, 8, 8]}), "$", ["grid"]),
    ("washer-flux", dict(SMOKE["washer-flux"],
                         regularize={"origin": [-2, -2, -2]}),
     "$", ["regularize"]),
    ("flow", dict(BASE_FLOW, washer={"n_u": 32}), "$", ["washer"]),
    ("verify-bounds", dict(SMOKE["verify-bounds"], oracle="abelian-spectral"),
     "$", ["oracle"]),
    ("verify-domination", dict(SMOKE["verify-domination"],
                               constants={"kernel_modes": 128}),
     "$", ["constants"]),
    ("verify-diamagnetic", dict(SMOKE["verify-diamagnetic"],
                                boundary="neumann"), "$", ["boundary"]),
    ("wilson", dict(WILSON, domination={"omega_kinds": ["B"]}),
     "$", ["domination"]),
], ids=["wilson_flow_without_ladder", "write_snapshots_wilson",
        "write_snapshots_verify_bounds", "write_snapshots_constants",
        "cosine_seed", "cosine_algebra", "random_smooth_path",
        "constants_flow_field_boundary", "washer_regularize_field",
        "washer_energy_grid", "washer_flux_regularize", "flow_washer",
        "verify_bounds_oracle", "verify_domination_constants",
        "verify_diamagnetic_boundary", "wilson_domination"])
def test_ignored_config_key_is_config_error(tmp_path, capsys, monkeypatch,
                                            command, cfg, where, keys):
    """The refusal names the case's own keys at their location, so a case
    that breaks a second rule still fails once its own rule is lifted."""
    err = _assert_rejected_before_computing(tmp_path, capsys, monkeypatch,
                                            command, cfg)
    head = f"config schema violation at {where}: "
    assert head in err
    assert all(repr(key) in err.split(head, 1)[1] for key in keys)


DOMINATION = SMOKE["verify-domination"]
# a field read from a file, which no command takes any more
FIELD_FILE = {"kind": "snapshot", "path": "field.bin"}
# a config of each command that reads a `flow` section, but verify-bounds,
# whose case stands in the table below
FLOWING = {"flow": BASE_FLOW, "verify-domination": DOMINATION,
           "wilson": dict(WILSON, flow={"dt": 0.0005}),
           "washer-regularize": WASHER_REGULARIZE}
# (id, command, config, where): no command reads or writes a field file
FIELD_FILE_CASES = [
    *((f"field_file_{command}", command,
       dict(SMOKE[command], field=FIELD_FILE), "$.field.kind")
      for command in ("flow", "verify-bounds", "verify-domination",
                      "verify-diamagnetic", "wilson")),
    *((f"write_snapshots_{command}", command,
       _with(cfg, "flow", "write_snapshots", True), "$.flow")
      for command, cfg in FLOWING.items()),
    ("snapshot_times_flow", "flow",
     _with(BASE_FLOW, "flow", "snapshot_times", [0.004]), "$.flow"),
]


@pytest.mark.parametrize("command, cfg, where", [
    ("flow", dict(BASE_FLOW, field=RANDOM_FIELD), "$.field.kind"),
    ("flow", dict(BASE_FLOW, boundary="dirichlet"), "$.boundary"),
    ("verify-domination", dict(DOMINATION, boundary="dirichlet"),
     "$.boundary"),
    ("washer-regularize", dict(WASHER_REGULARIZE, boundary="marini"),
     "$.boundary"),
    ("wilson", dict(WILSON, wilson={"n_steps": 16},
                    flow={"dt": 0.0005, "t_end": 0.01}), "$.wilson"),
    ("wilson", dict(WILSON, flow={"dt": 0.0005, "t_end": 0.04,
                                  "snapshot_times": [0.04]}), "$.flow"),
    ("wilson", dict(WILSON, flow={"dt": 0.0005, "t_end": 0.04}), "$.flow"),
    ("verify-bounds", dict(SMOKE["verify-bounds"],
                           flow={"dt": 0.001, "t_end": 0.004,
                                 "write_snapshots": True}), "$.flow"),
    ("verify-bounds", {k: v for k, v in SMOKE["verify-bounds"].items()
                       if k != "field"}, "$"),
    ("verify-domination", dict(DOMINATION, constants={"kernel_modes": 128}),
     "$"),
    ("verify-bounds", dict(SMOKE["verify-bounds"],
                           flow={"dt": 0.001, "t_end": 0.004,
                                 "snapshot_times": [0.002]}), "$.flow"),
    ("washer-regularize", dict(WASHER_REGULARIZE,
                               flow={"dt": 0.002, "t_end": 0.01,
                                     "snapshot_times": [0.01]}), "$.flow"),
    *(case[1:] for case in FIELD_FILE_CASES),
], ids=["oracle_random_field", "oracle_dirichlet", "domination_dirichlet",
        "washer_regularize_marini", "wilson_flow_without_ladder",
        "wilson_snapshot_times", "wilson_t_end",
        "verify_bounds_write_snapshots",
        "verify_bounds_without_field", "verify_domination_constants",
        "verify_bounds_snapshot_times", "washer_regularize_snapshot_times",
        *(case[0] for case in FIELD_FILE_CASES)])
def test_schema_refuses_at_the_location(tmp_path, capsys, monkeypatch,
                                        command, cfg, where):
    """Each command's schema states which boundary, flow keys and sections
    it takes; a refusal names where the config breaks the rule."""
    err = _assert_rejected_before_computing(tmp_path, capsys, monkeypatch,
                                            command, cfg)
    assert f"config schema violation at {where}: " in err


@pytest.mark.parametrize("option", [["--seed", "5"], ["--tol-scale", "2"]],
                         ids=["seed", "tol_scale"])
def test_run_is_its_config_alone(tmp_path, capsys, monkeypatch, option):
    """No option sets a seed or scales a tolerance: argparse refuses
    either flag with a usage error before any computation."""
    for name in COMPUTATION:
        monkeypatch.setattr(cli, name, _forbidden)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["flow", "--config", _write(tmp_path, RANDOM_FLOW),
              "--out", str(out), *option])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(option)}" in err
    assert "Traceback" not in err
    assert not out.exists()


# the sections each command cannot run without
REQUIRED = {
    "flow": ("grid", "field", "flow"),
    "verify-bounds": ("grid", "field", "flow"),
    "verify-domination": ("grid", "field", "flow"),
    "verify-diamagnetic": ("grid", "field", "diamagnetic"),
    "wilson": ("grid", "field", "loops", "wilson"),
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


# the oracle `cli`'s interpreter mirrors: jsonschema's draft 2020-12, with
# "integer" a JSON integer as `cli` types it (16.0 is not one)
Oracle = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer",
        lambda checker, x: isinstance(x, int) and not isinstance(x, bool)))
ORACLES = {command: Oracle(schema)
           for command, (_, schema) in cli._DISPATCH.items()}


def _keywords(schema):
    """Every keyword `schema` and its subschemas use."""
    subs = [*schema.get("properties", {}).values(), *schema.get("allOf", []),
            *(schema[k] for k in ("items", "if", "then", "additionalProperties")
              if isinstance(schema.get(k), dict))]
    return set(schema).union(*map(_keywords, subs))


def _bounds(schema, key=None, found=None):
    """{name: the numeric bounds on the key of that name or its entries}
    over `schema` and its subschemas."""
    found = {} if found is None else found
    for k, v in schema.items():
        if k in ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum"):
            found.setdefault(key, set()).add(v)
        for name, sub in (v.items() if k == "properties" else
                          [(key, v)] if k in ("items", "if", "then") else
                          [(key, sub) for sub in v] if k == "allOf" else []):
            _bounds(sub, name, found)
    return found


BOUNDS = _bounds({"allOf": [schema for _, schema in cli._DISPATCH.values()]})
WRONG_TYPES = ["x", True, False, None, [], {}, 16.0, [1, 1.0]]


def _paths(x, path=()):
    """The path of `x` and of every value inside it."""
    yield path
    items = x.items() if isinstance(x, dict) else \
        enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield from _paths(v, (*path, k))


def _at(x, path):
    for k in path:
        x = x[k]
    return x


# how a config is mutated: an unknown key added, a number moved onto or
# across one of its bounds, a key or entry dropped, a list's first entry
# repeated (as itself, as 1 then 1.0, or as true then 1, which differ) or
# its last appended, a value replaced by one of a wrong type, or the top
# level replaced
MUTATIONS = ("add", "bound", "drop", "repeat", "retype", "top")


def _mutate(draw, cfg, how):
    """`cfg` with one change of kind `how` at a drawn place."""
    if how == "top" or not isinstance(cfg, dict):
        return draw(st.sampled_from([[], "cfg", 3, None, [cfg]]))

    def name(p):  # the key of the value at p, or of the lists holding it
        return ([k for k in p if isinstance(k, str)] or [""])[-1]

    fits = {"drop": bool, "retype": bool,  # any path but the top level's
            "add": lambda p: isinstance(_at(cfg, p), dict),
            "bound": lambda p: name(p) in BOUNDS and type(
                _at(cfg, p)) in (int, float),
            "repeat": lambda p: isinstance(_at(cfg, p), list)
            and len(_at(cfg, p)) > 1}
    paths = [p for p in _paths(cfg) if fits[how](p)]
    if not paths:  # only the empty config's top level is left
        how, paths = "add", [()]
    # a key, then one of its paths: a rare key is as likely as a common one
    key = draw(st.sampled_from(sorted({name(p) for p in paths})))
    path = draw(st.sampled_from([p for p in paths if name(p) == key]))
    value = _at(cfg, path)
    if how == "add":
        value["unknown"] = 1
    elif how == "repeat":
        value[:2] = draw(st.sampled_from([[value[0], value[0]], [1, 1.0],
                                          [True, 1], [*value[:2], value[-1]]]))
    elif how == "drop":
        del _at(cfg, path[:-1])[path[-1]]
    else:  # a wrong type, or a number on, below or above one of its bounds
        _at(cfg, path[:-1])[path[-1]] = draw(st.sampled_from(
            [b + d for b in sorted(BOUNDS[name(path)]) for d in (-1, 0, 1)]
            if how == "bound" else WRONG_TYPES))
    return cfg


@pytest.mark.parametrize("command", cli.COMMANDS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_interpreter_agrees_with_jsonschema(command, data):
    """A valid config and mutations of it: `cli` refuses exactly what the
    oracle refuses, at best_match's location and with its message."""
    cfg = data.draw(_fuzz_case(command))
    cases = [cfg] + [_mutate(data.draw, copy.deepcopy(cfg), how)
                     for how in MUTATIONS]
    # and two changes at once
    cases.append(_mutate(data.draw, copy.deepcopy(cases[1]), data.draw(
        st.sampled_from(MUTATIONS))))
    for case in cases:
        error = jsonschema.exceptions.best_match(
            ORACLES[command].iter_errors(case))
        if error is None:
            cli._validate(command, case)
            continue
        where = "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                              for k in error.absolute_path)
        with pytest.raises(ConfigError) as refused:
            cli._validate(command, case)
        assert str(refused.value) == (f"config schema violation at {where}: "
                                      f"{error.message}")


def _section(draw, required, optional):
    """The required items and a drawn subset of the optional ones."""
    return dict(required, **{k: v for k, v in optional.items()
                             if draw(st.booleans())})


@st.composite
def _fuzz_case(draw, command):
    """A config that `command`'s schema accepts, on 8-10 nodes per axis and
    extents in [0.5, 4], flowing about four steps at most."""
    schema = cli._DISPATCH[command][1]
    required = set(schema["required"])
    optional = set(schema["properties"]) - required
    # the rim loops fit about the washer only in a box of side 3.5 or more
    side = st.floats(3.5 if command == "washer-regularize" else 0.5, 4.0)
    extents = draw(st.lists(side, min_size=3, max_size=3))
    shape = draw(st.lists(st.integers(8, 10), min_size=3, max_size=3))
    grid = GridSpec(tuple(extents), tuple(shape))
    ceiling = flow.dt_ceiling(grid)
    dt = ceiling * draw(st.floats(0.25, 1.05))
    t_end = dt * draw(st.floats(0.5, 4.0))
    sections = {
        "grid": {"extents": extents, "shape": shape},
        # domination and the washer's regularization are Neumann checks
        "boundary": draw(st.sampled_from(
            ["neumann"] if command in ("verify-domination",
                                       "washer-regularize")
            else ["neumann", "neumann", "dirichlet", "marini"])),
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
            "variant": draw(st.sampled_from(["YM", "ZDS"]))}),
        "washer": _section(draw, {}, {
            "u_max": draw(st.floats(0.1, 40.0)),
            "n_u": draw(st.integers(8, 32))}),
    }
    kind = draw(st.sampled_from(["coulomb-cosine", "random-smooth"]))
    if kind == "coulomb-cosine":
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
    sections["wilson"] = _section(draw, {"ladder": ladder}, {
        "n_steps": draw(st.integers(8, 32))})
    # only verify-domination reads snapshot times
    if command == "verify-domination":
        sections["flow"]["snapshot_times"] = [0.0, t_end / 2, t_end]
    # the oracle's closed form is the cosine mode's, off a Dirichlet fill
    if sections["field"]["kind"] != "coulomb-cosine" \
            or sections["boundary"] == "dirichlet":
        optional = optional - {"oracle"}
    if command == "wilson":
        # the ladder sets the flow's end and snapshot times
        sections["flow"] = {"dt": dt} if draw(st.booleans()) else {}
    cfg = {k: sections[k] for k in sorted(required)}
    cfg.update({k: sections[k] for k in sorted(optional)
                if draw(st.booleans())})
    return cfg


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", cli.COMMANDS)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_valid_config_ends_with_an_exit_status(command, data):
    """Exit 0, 1, 2 or 3 and no traceback; an exit 2 makes no output
    directory, an exit 3 writes no report."""
    cfg = data.draw(_fuzz_case(command))
    assert ORACLES[command].is_valid(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
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


def test_every_schema_is_valid_and_interpreted(tmp_path):
    """Each command's schema is a draft 2020-12 schema that holds only the
    keywords `cli` interprets; `load_config` only reads, and `execute`
    judges the config."""
    for _, schema in cli._DISPATCH.values():
        Oracle.check_schema(schema)
        assert _keywords(schema) <= cli._KEYWORDS
    assert load_config(_write(tmp_path, BASE_FLOW)) == BASE_FLOW
    assert cli.execute("flow", BASE_FLOW, tmp_path / "o") == 0
    with pytest.raises(ConfigError, match="schema violation"):
        cli.execute("flow", dict(BASE_FLOW, boundary="periodic"),
                    tmp_path / "p")


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^x"},
    {"type": "object", "properties": {"a": {"type": "string",
                                            "pattern": "^x"}}},
    {"type": "object", "additionalProperties": {"type": "number"}},
    {"allOf": [{"if": {"required": ["a"]}, "then": {"minLength": 1}}]},
], ids=["pattern", "nested_pattern", "additional_schema", "then_minLength"])
def test_schema_with_an_uninterpreted_keyword_is_refused(schema):
    """A keyword the interpreter does not read would pass every config, so
    `cli` refuses such a schema when it builds its table."""
    with pytest.raises(ValueError, match="not interpreted"):
        cli._check_schema(schema)
    with pytest.raises(ValueError, match="not interpreted"):
        cli._config([], ["grid"], grid=schema)


@pytest.mark.parametrize("field", [
    RANDOM_FLOW["field"], dict(RANDOM_FLOW["field"], seed=5)],
    ids=["no_seed", "config_seed"])
def test_main_validates_each_config_once(tmp_path, monkeypatch, field):
    """`main` leaves the schema to `execute`, which checks the config it is
    given once, its own seed included: a seed sweep edits `field.seed`."""
    seen = []
    validate = cli._validate

    def counted(command, cfg):
        seen.append(cfg["field"])
        validate(command, cfg)

    monkeypatch.setattr(cli, "_validate", counted)
    assert _run(["flow", "--config",
                 _write(tmp_path, dict(RANDOM_FLOW, field=field)),
                 "--out", str(tmp_path / "o")]) == 0
    assert seen == [field]


def test_oracle_runs_without_a_snapshot_at_t_end():
    """The oracle reads the flow's end state, so a flow without a snapshot
    at t_end gives the row of one with it: that snapshot changes no
    step."""
    grid = cli._grid_from(BASE_FLOW)
    A0 = cli._field_from(BASE_FLOW, grid)
    rows = []
    for snaps in ([0.0024], [0.0024, 0.004]):
        fc = cli._flow_config(dict(BASE_FLOW["flow"], snapshot_times=snaps),
                              cli._boundary_from(BASE_FLOW), grid)
        traj = flow.integrate(A0, fc)
        assert traj.times == snaps
        rows.append(cli._abelian_spectral_check(traj, A0, 1e-4))
    assert rows[0] == rows[1] and rows[0]["verdict"] == "pass"


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
          "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] "
          "in ('scipy', 'jsonschema', 'ymheat'))))")


def _heavy(loaded):
    """The SciPy and jsonschema modules among `loaded`."""
    return [m for m in loaded if m.split(".")[0] in ("scipy", "jsonschema")]


def test_cli_import_loads_no_scipy_and_every_traced_module():
    loaded = _fresh_python("import ymheat.cli\n" + LOADED)
    assert _heavy(loaded) == []
    tracing = _perfbench_module("tracing")
    traced = {mod for _name, mod, _attr in tracing.BOUNDARIES}
    assert traced <= set(loaded)
    # every traced callable resolves as the tracer patches it, with each
    # argument its hook reads by name
    for name, mod, attr in tracing.BOUNDARIES:
        owner = importlib.import_module(mod)
        if "." in attr:
            cls, meth = attr.split(".")
            fn = vars(getattr(owner, cls))[meth]
        else:
            fn = getattr(owner, attr)
        hook = tracing.HOOKS.get(name)
        read = re.findall(r'\["(\w+)"\]', inspect.getsource(hook)) \
            if hook else []
        assert set(read) <= set(inspect.signature(fn).parameters), name
    # the names the benchmark's runner and set-up probe call
    for attr in ("execute", "load_config", "su2", "u1"):
        assert callable(getattr(cli, attr))
    # importing starts no thread and loads no executor machinery
    assert _fresh_python(
        "import ymheat.cli\nimport json, sys, threading\n"
        "print(json.dumps([threading.active_count(), "
        "'concurrent.futures' in sys.modules]))") == [1, False]


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_command_runs_without_scipy(tmp_path, command):
    args = [command, "--config", _write(tmp_path, SMOKE[command]),
            "--out", str(tmp_path / "o")]
    loaded = _fresh_python("from ymheat import cli\n"
                           f"assert cli.main({args!r}) == 0\n" + LOADED)
    assert _heavy(loaded) == []


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = str(Path(ymheat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
