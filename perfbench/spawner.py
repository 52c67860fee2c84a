"""Runs the benchmark's child processes from a small process of its own.

Linux reports a child's peak RSS (ru_maxrss from wait4) as at least the
high-water RSS of the process that spawned it, even across exec.  The
benchmark process grows to hundreds of MB while it runs workloads in
process, so it starts every child through this helper, whose own
footprint stays at a few MB.  wait4 gives each child's own rusage;
RUSAGE_CHILDREN would keep the maximum over all children so far.

Protocol: one JSON request per line on stdin, with keys argv, env, cwd,
stdout and stderr (file paths); one JSON reply per line on stdout, with
keys wall_s, status and maxrss_kb.  The helper exits at end of input.
"""

import json
import os
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, \
                open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], env=req["env"],
                                    cwd=req["cwd"], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "status": proc.returncode,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
