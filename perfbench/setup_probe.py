"""Time one fresh interpreter's set-up for a workload.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Imports hypkm, then loads every config of the workload from WORKDIR and
builds its spaces, maps, schedules and examples through hypkm's builders.
Prints one JSON line with ``import_s`` and ``build_s``.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (does not import hypkm)


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv
    ops = workloads.all_ops(workloads.specs(workload, int(seed)))
    t0 = time.perf_counter()
    import hypkm.acceptance  # noqa: F401
    import hypkm.cli  # noqa: F401

    t1 = time.perf_counter()
    for op in ops:
        workloads.build_op(op, workdir)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
