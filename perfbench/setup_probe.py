"""Set-up probe, run in a fresh process: the time to import galiray and build
and validate one workload's config.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED  (galiray on PYTHONPATH)
Prints one JSON line: {"seconds": ..., "galiray": <package file>}.
"""
import json
import sys
import time

from workloads import WORKLOADS


def main(name: str, seed: int):
    workload = WORKLOADS[name]
    t0 = time.perf_counter()
    import galiray  # the import is part of what is timed
    from galiray import harness

    workload.config(harness, seed).validate()
    elapsed = time.perf_counter() - t0
    print(json.dumps({"seconds": elapsed, "galiray": galiray.__file__}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
