#!/usr/bin/env python3
"""Benchmark a change against its parent tree in alternated pairs.

    git clone --quiet . ../parent && git -C ../parent checkout --quiet HEAD~1
    python3 scripts/bench_pairs.py --parent ../parent \\
        --pairs dynamics=10 scans=10 analysis=5 --seed 700 --out BENCH_<pr>.json

For each workload and pair, runs `bench/repeat.py --workloads W --seeds S`
once in each tree, the parent first in even pairs and the change first in
odd ones, with seed S = --seed + pair.  The output keeps every run as
`repeat.py --out` writes it, per side and workload, with a summary of the
same layout over all of a side's runs and, per end-to-end metric, the
number of pairs the change won (lower is better; ties count for neither).
It also records each tree's `src.lines`, the wall time of its Tier-1 suite
(run on one BLAS thread, as CI and `bench/run.py` run) and the machine
record of the change's last run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from repeat import summarize  # noqa: E402


def repeat(tree: Path, workload: str, seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "repeat.json"
        subprocess.run([sys.executable, "bench/repeat.py", "--workloads", workload,
                        "--seeds", str(seed), "--out", str(out)], cwd=tree, check=True)
        return json.loads(out.read_text())


def tier1(tree: Path) -> dict:
    # one BLAS thread, as CI and bench/run.py use, so both sides' times compare
    env = {**os.environ, "PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                          cwd=tree, env=env, capture_output=True, text=True)
    return {"wall_s": time.perf_counter() - t0, "exit": proc.returncode,
            "result": proc.stdout.strip().splitlines()[-1]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--pairs", nargs="+", required=True, help="WORKLOAD=N, one per workload")
    parser.add_argument("--seed", type=int, default=700)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]

    record = {"workloads": {}}
    for item in args.pairs:
        workload, n = item.split("=")
        runs = {"parent": [], "change": []}
        for pair in range(int(n)):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].extend(repeat(trees[side], workload, args.seed + pair)["runs"])
        summary = {}
        for side, side_runs in runs.items():
            results = [r["result"] for r in side_runs if r["result"]]
            summary[side] = {name: summarize([r["metrics"][name]["value"] for r in results])
                             for name in results[0]["metrics"]}
        wins = {name: sum(c["result"]["metrics"][name]["value"] < p["result"]["metrics"][name]["value"]
                          for p, c in zip(runs["parent"], runs["change"]))
                for name in end_to_end}
        record["workloads"][workload] = {"pairs": int(n), "change_wins": wins,
                                         "summary": summary, "runs": runs}

    record["tier1"] = {side: tier1(tree) for side, tree in trees.items()}
    machines = {side: json.loads((tree / "bench" / "_work" / workload / "result-trace0.json")
                                 .read_text())["machine"] for side, tree in trees.items()}
    record["src.lines"] = {side: machine["src.lines"] for side, machine in machines.items()}
    record["machine"] = machines["change"]
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
