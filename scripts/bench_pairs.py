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
number of pairs the change won (lower is better; ties count for neither,
and a pair counts only when both of its runs passed): `change_wins` on the
scaled metrics, `change_wins_unscaled` on the times before `bench/run.py`
scaled them by its reference kernel, whose own noise can flip a pair
(`peak_rss_mb` is never scaled, so its two counts agree).  A `repeat.py` run that
exits non-zero, such as one whose preset check failed, is kept with its exit
code under `exit`, counted per side in `failed`, and the pairs go on.
It also records each tree's `src.lines`, the wall time of its Tier-1 suite
(run on one BLAS thread, as CI and `bench/run.py` run) and the machine
record of the change's last run.

Before the pairs, each packaged scenario runs in three fresh processes per
tree, alternated and on one BLAS thread: the 11 presets as `fsqubit
reproduce FIG`, `ramsey_default` and `echo_default` as `fsqubit simulate
ramsey|echo`.  `cold_s` holds each side's process wall times per scenario.
`outputs` compares the last run directories file by file: "identical" when
the bytes match; for a CSV (read through `config.parse_csv`) or a JSON file,
each moved column or numeric leaf with its largest absolute and relative
change; "differs" for any other file.  The manifest is compared without
its timestamp, so its digests show which files moved.  `dry_run` runs the
same commands with `--dry-run`, alternated in the same three fresh processes
per tree, and records, per scenario, "identical" when both sides print the
same text (exit code, stdout and stderr, with each tree's path replaced by
`<tree>`), or else the differing lines; `dry_run_s` holds those processes'
wall times in the layout of `cold_s`, the start-up a user waits for before
any simulation.  `golden` holds, per preset and check, the value in both
sides' last `summary.json`, the value in `tests/golden_checks.json` and
whether each side is within that file's tolerance,
|value - golden| <= atol + rtol * |golden|.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))
from repeat import summarize  # noqa: E402

from fsqubit.config import parse_csv  # noqa: E402
from fsqubit.harness.presets import FIGURE_PRESETS  # noqa: E402

# one BLAS thread, as CI and bench/run.py use, so both sides' times and digits compare
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# the `fsqubit` console script, run from the tree on PYTHONPATH
CLI = "import sys; from fsqubit.harness.cli import main; sys.exit(main())"
# fresh processes per scenario and side
COLD_RUNS = 3
# the change tree's pinned preset check values, with their one tolerance
GOLDEN = json.loads((ROOT / "tests" / "golden_checks.json").read_text())
# packaged scenario -> the `fsqubit` arguments that run it
SCENARIOS = {**{fig: ("reproduce", fig) for fig in FIGURE_PRESETS},
             "ramsey_default": ("simulate", "ramsey"), "echo_default": ("simulate", "echo")}


def repeat(tree: Path, workload: str, seed: int) -> list[dict]:
    """The runs of one `repeat.py` call, each with the call's exit code; one
    run without a result when the call wrote no record."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "repeat.json"
        proc = subprocess.run([sys.executable, "bench/repeat.py", "--workloads", workload,
                               "--seeds", str(seed), "--out", str(out)], cwd=tree)
        runs = (json.loads(out.read_text())["runs"] if out.exists()
                else [{"workload": workload, "seed": seed, "result": None}])
        return [{**run, "exit": proc.returncode} for run in runs]


def tier1(tree: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": "src", **ONE_THREAD}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                          cwd=tree, env=env, capture_output=True, text=True)
    return {"wall_s": time.perf_counter() - t0, "exit": proc.returncode,
            "result": proc.stdout.strip().splitlines()[-1]}


def run_cli(tree: Path, args: tuple, cwd: Path) -> tuple[subprocess.CompletedProcess, float]:
    """One fresh `fsqubit ARGS` process of `tree`, and its wall seconds."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), **ONE_THREAD}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CLI, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    return proc, time.perf_counter() - t0


def cold_run(tree: Path, args: tuple[str, ...], out: Path) -> float:
    """Wall seconds of one fresh `fsqubit ARGS --out OUT` process."""
    proc, took = run_cli(tree, (*args, "--out", str(out)), out.parent)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(args)} exited {proc.returncode}\n{proc.stderr}")
    return took


def dry_runs(trees: dict) -> tuple[dict, dict]:
    """Per scenario: each side's `--dry-run` process wall times, run as `cold_s`
    runs its commands, and "identical" when both sides' dry-run text matches,
    else the differing lines."""
    dry_s, out = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in SCENARIOS.items():
            times, texts = {"parent": [], "change": []}, {}
            for i in range(COLD_RUNS):
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    proc, took = run_cli(trees[side], (*args, "--dry-run"), Path(tmp))
                    times[side].append(took)
                    text = f"exit {proc.returncode}\n{proc.stdout}{proc.stderr}"
                    texts[side] = text.replace(str(trees[side]), "<tree>").splitlines()
            dry_s[name] = {side: summarize(values) for side, values in times.items()}
            diff = [line for line in difflib.unified_diff(texts["parent"], texts["change"],
                                                          lineterm="", n=0)
                    if line[:1] in "+-" and not line.startswith(("+++", "---"))]
            out[name] = diff or "identical"
    return dry_s, out


def moved(old, new) -> dict | None:
    """Largest absolute and relative change of new against old; None when equal."""
    old, new = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    if old.shape != new.shape:
        return {"shape": [list(old.shape), list(new.shape)]}
    if np.array_equal(old, new, equal_nan=True):
        return None
    diff = np.abs(new - old)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = diff / np.abs(old)
    return {"max_abs": float(np.nanmax(diff)), "max_rel": float(np.nanmax(rel))}


def leaves(node, prefix: str = "") -> dict:
    """Flatten nested JSON to {"a.0.b": value}."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return {prefix: node}
    out = {}
    for key, value in items:
        out.update(leaves(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def compare_file(old: Path, new: Path):
    if old.read_bytes() == new.read_bytes():
        return "identical"
    if old.suffix == ".csv":
        (h_old, d_old), (h_new, d_new) = (parse_csv(p.read_text(), str(p)) for p in (old, new))
        if h_old != h_new:
            return {"header": [h_old, h_new]}
        changes = {name: moved(d_old[:, i], d_new[:, i]) for i, name in enumerate(h_old)}
    elif old.suffix == ".json":
        l_old, l_new = (leaves(json.loads(p.read_text())) for p in (old, new))
        if old.name == "manifest.json":
            l_old.pop("timestamp_utc", None)
            l_new.pop("timestamp_utc", None)
        changes = {}
        for key in sorted(l_old.keys() | l_new.keys()):
            a, b = l_old.get(key), l_new.get(key)
            numeric = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
            changes[key] = moved(a, b) if numeric else (None if a == b else {"old": a, "new": b})
    else:
        return "differs"
    return {name: change for name, change in changes.items() if change is not None} or "identical"


def golden(runs: dict, want: dict) -> dict:
    """Per check of one preset: each side's value from the `summary.json` in
    `runs[side]`, the golden value and whether each side is within tolerance."""
    got = {side: {c["name"]: c["value"]
                  for c in json.loads((run / "summary.json").read_text())["checks"]}
           for side, run in runs.items()}
    out = {}
    for name, value in want.items():
        entry = {side: checks.get(name) for side, checks in got.items()}
        entry["golden"] = value
        for side in got:
            entry[f"{side}_within"] = entry[side] is not None and (
                abs(entry[side] - value) <= GOLDEN["atol"] + GOLDEN["rtol"] * abs(value))
        out[name] = entry
    return out


def outputs_and_cold(trees: dict) -> tuple[dict, dict, dict]:
    """Per scenario: each side's cold wall times, how its outputs moved and,
    for a preset, its check values against the golden ones."""
    cold, outputs, checks = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in SCENARIOS.items():
            times = {"parent": [], "change": []}
            for i in range(COLD_RUNS):
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    out = Path(tmp) / side / name
                    out.mkdir(parents=True, exist_ok=True)
                    times[side].append(cold_run(trees[side], args, out))
            cold[name] = {side: summarize(values) for side, values in times.items()}
            # each command writes one run directory under its --out
            old, new = (next((Path(tmp) / side / name).iterdir()) for side in ("parent", "change"))
            names = sorted({p.name for p in old.iterdir()} | {p.name for p in new.iterdir()})
            outputs[name] = {
                name: compare_file(old / name, new / name)
                if (old / name).exists() and (new / name).exists() else "only on one side"
                for name in names}
            if name in GOLDEN["checks"]:
                checks[name] = golden({"parent": old, "change": new}, GOLDEN["checks"][name])
    return cold, outputs, {"rtol": GOLDEN["rtol"], "atol": GOLDEN["atol"], "checks": checks}


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
    record["cold_s"], record["outputs"], record["golden"] = outputs_and_cold(trees)
    record["dry_run_s"], record["dry_run"] = dry_runs(trees)
    for item in args.pairs:
        workload, n = item.split("=")
        runs = {"parent": [], "change": []}
        for pair in range(int(n)):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].extend(repeat(trees[side], workload, args.seed + pair))
        summary = {}
        for side, side_runs in runs.items():
            results = [r["result"] for r in side_runs if r["result"]]
            summary[side] = {name: summarize([r["metrics"][name]["value"] for r in results])
                             for name in (results[0]["metrics"] if results else ())}
        passed = [(p, c) for p, c in zip(runs["parent"], runs["change"])
                  if p["result"] and c["result"]]

        def wins(scaled: bool) -> dict:
            def value(run, name):
                metric = run["result"]["metrics"][name]["value"]
                return metric if scaled else run["unscaled"].get(name, metric)
            return {name: sum(value(c, name) < value(p, name) for p, c in passed)
                    for name in end_to_end}

        failed = {side: sum(r["exit"] != 0 for r in side_runs) for side, side_runs in runs.items()}
        record["workloads"][workload] = {"pairs": int(n), "change_wins": wins(True),
                                         "change_wins_unscaled": wins(False),
                                         "failed": failed, "summary": summary, "runs": runs}

    record["tier1"] = {side: tier1(tree) for side, tree in trees.items()}
    machines = {side: json.loads((tree / "bench" / "_work" / workload / "result-trace0.json")
                                 .read_text())["machine"] for side, tree in trees.items()}
    record["src.lines"] = {side: machine["src.lines"] for side, machine in machines.items()}
    record["machine"] = machines["change"]
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
