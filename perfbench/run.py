"""The ymheat benchmark: four CLI workloads, end-to-end timings, traced layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs the four workloads in turn, each with its own
default seed unless ``--seed`` is given.  Each workload is one
subcommand on a fixed config in ``perfbench/workloads``; the seed is
written into ``field.seed`` of the config the program reads.  The load
is a closed loop with one client: fresh set-up processes, fresh
``python -m ymheat.cli`` processes and in-process ``cli.execute`` calls
take turns, each starting when the previous one has ended, until S
seconds have passed.  Every output is checked (exit status,
byte-identical reports across runs, stored reference where one exists).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``tracing.py``).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Scratch files go to ``.perfbench_work`` in the checkout.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One BLAS thread for children and this process, printed with every
# result.  On the shared two-core machine it was written on, a second
# thread made u1-domination about a tenth slower.
BLAS_ENV = {v: "1" for v in
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

MIN_ROUNDS = 2  # sample rounds per run, however short --seconds is
DRIFT = 1e-12  # relative ceiling on report drift (ROADMAP)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    algebra: str          # the algebra set-up builds: "SU2" or "U1"
    default_seed: int | None  # None: the config has no random input
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("su2-bounds", "verify-bounds", "SU2", 7,
             "t^-3/4 smoothing battery on a 16^3 SU(2) flow: bracket, "
             "stencils, ghost fill, curvature, d_A*, RHS, RK4 and monitors "
             "carry nearly all the time"),
    Workload("wilson-ladder", "wilson", "SU2", 11,
             "Wilson-loop ladder: 24 transports of 2x2 RK4 steps with an "
             "SVD each dominate, the SU(2) flow is about a fifth"),
    Workload("washer-regularize", "washer-regularize", "U1", None,
             "washer elliptic kernel on 32^3 nodes dominates; largest "
             "memory, shortest run so import time shows most; no random "
             "input, the seed is ignored"),
    Workload("u1-domination", "verify-domination", "U1", 0,
             "only workload led by the DCT heat semigroup (750 heat_apply), "
             "and flow plus calculus on a u(1) field of 32^3 nodes"),
)}


# ---------------------------------------------------------------------------
# Inputs and references
# ---------------------------------------------------------------------------


def write_config(w: Workload, seed: int, path: Path) -> dict:
    """The workload config with `seed` in field.seed, written to `path`."""
    cfg = json.loads((BENCH / "workloads" / f"{w.name}.json").read_text())
    if w.default_seed is not None:
        cfg["field"]["seed"] = seed
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return cfg


def reference_path(w: Workload, seed: int) -> Path:
    name = w.name if w.default_seed is None else f"{w.name}.seed{seed}"
    return BENCH / "references" / f"{name}.json"


def drift(ref, new, where="report", scale=0.0):
    """Differences between a stored and a new report.json document.

    Keys, list lengths, strings (verdicts among them), booleans and
    nulls must match exactly.  A number may drift by DRIFT relative to
    the largest magnitude among itself, its stored value and its
    siblings (the numbers in the same JSON object or list), so a margin
    near zero is judged against the lhs and rhs it was computed from.
    """
    def is_num(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    if isinstance(ref, dict) and isinstance(new, dict):
        if sorted(ref) != sorted(new):
            return [f"{where}: keys {sorted(ref)} != {sorted(new)}"]
        sib = max((abs(v) for v in ref.values()
                   if is_num(v) and math.isfinite(v)), default=0.0)
        return [p for k in ref for p in drift(ref[k], new[k],
                                              f"{where}.{k}", sib)]
    if isinstance(ref, list) and isinstance(new, list):
        if len(ref) != len(new):
            return [f"{where}: length {len(ref)} != {len(new)}"]
        sib = max((abs(v) for v in ref if is_num(v) and math.isfinite(v)),
                  default=0.0)
        return [p for i, (a, b) in enumerate(zip(ref, new))
                for p in drift(a, b, f"{where}[{i}]", sib)]
    if is_num(ref) and is_num(new):
        if math.isnan(ref) and math.isnan(new) or ref == new:
            return []
        tol = DRIFT * max(abs(ref), abs(new), scale)
        if abs(new - ref) <= tol:
            return []
        return [f"{where}: {new!r} drifts from {ref!r}"]
    return [] if ref == new else [f"{where}: {new!r} != {ref!r}"]


class Checker:
    """Checks every run's outputs and counts attempted and failed runs.

    A run fails if it raises, exits with a status other than 0 or 1, or
    exits with a status that disagrees with its verdicts (1 iff a check
    failed); if its output files differ from the first run's; or if its
    report drifts from the stored reference for this seed.
    """

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.canonical = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, label, status, out_dir: Path):
        self.attempted += 1
        problems = []
        if isinstance(status, str):
            problems.append(status)
        elif status not in (0, 1):
            problems.append(f"exit status {status}")
        files = ({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
                 if out_dir.is_dir() else {})
        if "report.json" not in files:
            problems.append("no report.json")
        else:
            doc = json.loads(files["report.json"])
            expected = int(any(r["verdict"] == "fail" for r in doc["checks"]))
            if status in (0, 1) and status != expected:
                problems.append(f"exit status {status}, verdicts say "
                                f"{expected}")
            if self.canonical is None:
                self.canonical = files
            elif files != self.canonical:
                problems.append("output files differ from the first run's")
            if self.reference is not None:
                problems += drift(self.reference, doc)[:5]
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
        shutil.rmtree(out_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Session:
    """One workload run: its config, scratch directory, checker and the
    helper process (spawner.py) that starts every child process."""

    def __init__(self, w: Workload, seed: int, work: Path, checker):
        self.w, self.work, self.checker = w, work, checker
        self.cfg_path = work / "config.json"
        self.cfg = write_config(w, seed, self.cfg_path)
        self._helper = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._helper.stdin.close()
        self._helper.wait()

    def spawn(self, argv, log: str):
        """Run one fresh process; return (wall s, exit status, peak RSS MB)."""
        req = {"argv": argv, "env": child_env(), "cwd": str(ROOT),
               "stdout": str(self.work / f"{log}.out"),
               "stderr": str(self.work / f"{log}.err")}
        self._helper.stdin.write(json.dumps(req) + "\n")
        self._helper.stdin.flush()
        rep = json.loads(self._helper.stdout.readline())
        return rep["wall_s"], rep["status"], rep["maxrss_kb"] / 1024.0

    def setup_sample(self):
        """Fresh-process set-up time and its phases (import, load, build)."""
        wall, status, _ = self.spawn(
            [sys.executable, str(BENCH / "setup_probe.py"),
             str(self.cfg_path), self.w.algebra], "setup")
        if status != 0:
            raise RuntimeError("set-up probe failed:\n"
                               + (self.work / "setup.err").read_text())
        return wall, json.loads((self.work / "setup.out").read_text())

    def cli_sample(self, n):
        """One fresh `python -m ymheat.cli`; returns (wall s, peak RSS MB)."""
        out = self.work / f"cli{n}"
        wall, status, rss = self.spawn(
            [sys.executable, "-m", "ymheat.cli", self.w.command,
             "--config", str(self.cfg_path), "--out", str(out)], f"cli{n}")
        if status not in (0, 1):
            err = (self.work / f"cli{n}.err").read_text().strip()
            status = f"exit status {status}: {err[-300:]}"
        self.checker.check(f"cli run {n}", status, out)
        return wall, rss

    def run_sample(self, label):
        """One in-process cli.execute; returns its wall time."""
        from ymheat import cli

        out = self.work / label
        gc.collect()
        t0 = time.perf_counter()
        try:
            status = cli.execute(self.w.command, copy.deepcopy(self.cfg), out)
        except Exception as e:  # a raising run is a failed run, not a crash
            status = f"raised {type(e).__name__}: {e}"
        wall = time.perf_counter() - t0
        self.checker.check(label, status, out)
        return wall


def another_round(done, start, seconds):
    """True until MIN_ROUNDS are done and another would end past `seconds`."""
    elapsed = time.perf_counter() - start
    return done < MIN_ROUNDS or elapsed * (done + 1) / done <= seconds


def summary(values):
    """Median, count, and the highest percentile with >= 10 samples beyond."""
    n = len(values)
    high = None
    if n > 10:
        high = (round(100.0 * (n - 10) / n), sorted(values)[n - 11])
    return statistics.median(values), n, high


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def timed_run(session, seconds):
    """End-to-end metrics: set-up, fresh CLI processes, in-process runs.

    Each round takes one sample of each kind, so all three spread over
    the whole run and see the same drift of a shared machine.
    """
    setup = [session.setup_sample()[0]]
    session.run_sample("warm-up")
    walls, rss, runs = [], [], []
    start = time.perf_counter()
    while another_round(len(runs), start, seconds):
        n = len(runs)
        setup.append(session.setup_sample()[0])
        wall, mb = session.cli_sample(n)
        walls.append(wall)
        rss.append(mb)
        runs.append(session.run_sample(f"run{n}"))
    samples = {"cli_wall_s": (walls, "s"), "run_s": (runs, "s"),
               "setup_s": (setup, "s"), "peak_rss_mb": (rss, "MB")}
    return samples, {}


def traced_run(session, seconds):
    """Per-layer metrics from traced in-process runs.

    Untraced and traced runs alternate; the difference of their median
    times is the tracing overhead.  Counts must repeat exactly across
    the traced runs, and every traced report must equal the untraced one.
    """
    import tracing

    _, phases = session.setup_sample()
    session.run_sample("warm-up")
    tracer = tracing.Tracer()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while another_round(len(layers), start, seconds):
        n = len(layers)
        plain.append(session.run_sample(f"run{n}"))
        tracer.run_id = n
        with tracing.traced(tracer):
            traced.append(session.run_sample(f"traced run {n}"))
        layers.append(tracing.layer_metrics(tracer.spans, n))
    tracer.write(WORK / f"{session.w.name}.spans.jsonl")

    unmeasured = layers[0][1]
    for name in tracing.EXACT_METRICS:
        seen = [v[name] for v, _ in layers]
        if len(set(seen)) > 1:
            session.checker.problems.append(f"{name} does not repeat: {seen}")
    samples = {}
    for name, unit in tracing.LAYER_METRICS.items():
        if name == "cli.import_s":
            vals = [phases["import_s"]]
        elif name == "cli.load_config.s":
            vals = [phases["load_config_s"]]
        elif name == "trace.overhead_s":
            vals = [statistics.median(traced) - statistics.median(plain)]
        elif name in tracing.EXACT_METRICS:
            vals = [layers[0][0][name]]
        else:
            vals = [v[name] for v, _ in layers]
        samples[name] = (vals, unit)
    return samples, unmeasured


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------


def environment() -> dict:
    from importlib.metadata import version

    import numpy
    import scipy

    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    env = {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jsonschema": version("jsonschema"),
        "child_env": BLAS_ENV,
    }
    env.update(_git_state())
    return env


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None,
                "git_note": "not a git checkout"}
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True,
                              check=False).stdout.strip()
    return {"git_sha": git("rev-parse", "HEAD") or None,
            "git_dirty": bool(git("status", "--porcelain"))}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool):
    """Run one workload, print its table; return the result object."""
    load_start = os.getloadavg()[0]
    ref_file = reference_path(w, seed)
    reference = (json.loads(ref_file.read_text()) if ref_file.is_file()
                 else None)
    checker = Checker(reference)
    work = WORK / f"{w.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        with Session(w, seed, work, checker) as session:
            body = traced_run if trace else timed_run
            samples, unmeasured = body(session, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment()
    env["loadavg_1m"] = {"start": load_start, "end": os.getloadavg()[0]}

    print(f"perfbench {w.name}: ymheat {w.command}, seed {seed}"
          + (" (ignored: no random input)" if w.default_seed is None else "")
          + f", {'traced' if trace else 'untraced'}")
    print("reference: " + (str(ref_file.relative_to(ROOT)) if reference
                           else "none for this seed (exit status and "
                           "run-to-run identity checked)"))
    print(f"{'metric':40s} {'value':>16s} {'unit':6s} {'n':>3s}  "
          "highest percentile with >= 10 samples beyond")
    metrics = {}
    for name, (vals, unit) in samples.items():
        med, n, high = summary(vals)
        metrics[name] = {"value": med, "unit": unit}
        tail = f"p{high[0]} = {high[1]:.6g}" if high else "n/a (n <= 10)"
        note = f"  unmeasured: {unmeasured[name]}" if name in unmeasured \
            else ""
        print(f"{name:40s} {med:16.6g} {unit:6s} {n:3d}  {tail}{note}")
    ratio = checker.failed / checker.attempted
    print(f"{'failed_ratio':40s} {ratio:16.6g} {'ratio':6s} "
          f"{checker.attempted:3d}  ({checker.failed} failed of "
          f"{checker.attempted} attempted)")
    if trace:
        print("unmeasured layer: snapshot (no workload writes snapshots)")
    for p in checker.problems:
        print(f"problem: {p}")
    print("env: " + json.dumps(env, sort_keys=True))
    return {"correct": not checker.problems, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or all four in turn")
    parser.add_argument("--seed", type=int, default=None,
                        help="field seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ymheat" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'ymheat'} is missing; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2

    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        w = WORKLOADS[name]
        seed = args.seed if args.seed is not None else (w.default_seed or 0)
        results[name] = run_workload(w, seed, args.seconds, bool(args.trace))
    if len(results) == 1:
        (result,) = results.values()
    else:  # all four: metric names prefixed by workload
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
