"""Repeat the benchmark over seeds and report the spread of each metric.

    python3 bench/repeat.py --workloads dynamics scans --seeds 101 102 103 [--out FILE]

Runs `run.py --trace 0` once per workload and seed, one after another, for
BENCHMARK.json's `run_seconds`, and reads the JSON object on the last
stdout line.  For each metric it prints the median, the quartiles from
`statistics.quantiles(values, n=4)` and their distance as a share of the
median, next to the metric's bound.  With `--out` it also writes every run
and the summary to FILE as JSON.  The exit code is 1 when any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs, ok = [], True
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
            record = BENCH / "_work" / workload / "result-trace0.json"
            unscaled = json.loads(record.read_text())["unscaled"] if result else None
            runs.append({"workload": workload, "seed": seed, "run_s": took, "result": result,
                         "unscaled": unscaled})
            print(f"{workload} seed {seed}: {took:.1f} s, exit {proc.returncode}", flush=True)

    summary = {}
    for workload in args.workloads:
        results = [r["result"] for r in runs if r["workload"] == workload and r["result"]]
        if not results:
            continue
        summary[workload] = {name: summarize([r["metrics"][name]["value"] for r in results])
                             for name in results[0]["metrics"]}
        for name, s in summary[workload].items():
            if name in bounds:
                flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
                print(f"{workload:9s} {name:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                      f"q3 {s['q3']:.6g}  spread {s['spread']:.3f}  bound {bounds[name]}{flag}")
    if args.out:
        args.out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
