"""One fresh-process set-up: import ymheat.cli, load a config, build algebra.

Usage: python3 perfbench/setup_probe.py CONFIG {SU2,U1}

Prints the three phase times, in seconds, as one JSON object.  The
benchmark times the whole process from outside as ``setup_s``.
"""

import json
import sys
import time


def main():
    config, algebra = sys.argv[1], sys.argv[2]
    t0 = time.perf_counter()
    from ymheat import cli

    t1 = time.perf_counter()
    cli.load_config(config)
    t2 = time.perf_counter()
    {"SU2": cli.su2, "U1": cli.u1}[algebra]()
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_config_s": t2 - t1,
                      "build_s": t3 - t2}))


if __name__ == "__main__":
    main()
