"""Set-up time of a fresh process.

    python3 bench/probe.py <workload> <seed>

Times, from its first statement, the import of `fsqubit.harness.cli` and the
parse of the workload's scenarios, and prints the seconds as its only
stdout line.  run.py starts it with the package's `src` on PYTHONPATH, and
under `python -X importtime` for the per-module import times.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402  (imports fsqubit.harness.cli)

workloads.parse_scenarios(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - T0))
