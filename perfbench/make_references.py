"""Regenerate the stored reference reports in perfbench/references.

Usage, from the root of a checkout:

    python3 perfbench/make_references.py [WORKLOAD ...]

Runs each workload through ``cli.execute`` for every seed in
REFERENCE_SEEDS (once for a workload without random input) and stores
its report.json.  Prints each run's exit status and failing checks.
Regenerate only on purpose: the benchmark counts a run whose verdicts
or numbers differ from these files as failed.
"""

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run

REFERENCE_SEEDS = range(12)


def main(names):
    os.environ.update(run.BLAS_ENV)
    sys.path.insert(0, str(run.SRC))
    from ymheat import cli

    (run.BENCH / "references").mkdir(exist_ok=True)
    run.WORK.mkdir(exist_ok=True)
    for name in names or run.WORKLOADS:
        w = run.WORKLOADS[name]
        seeds = REFERENCE_SEEDS if w.default_seed is not None else [0]
        for seed in seeds:
            with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
                cfg = run.write_config(w, seed, Path(tmp) / "config.json")
                out = Path(tmp) / "out"
                status = cli.execute(w.command, cfg, out)
                report = out / "report.json"
                failing = [r["name"] for r in
                           json.loads(report.read_text())["checks"]
                           if r["verdict"] == "fail"]
                shutil.copyfile(report, run.reference_path(w, seed))
            print(f"{name} seed {seed}: exit {status}"
                  + (f", failing: {', '.join(failing)}" if failing else ""),
                  flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
