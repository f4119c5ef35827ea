#!/usr/bin/env python3
"""Run every packaged figure preset and print a one-line summary per figure."""

import argparse
import json
import sys
import time
from pathlib import Path

from fsqubit.harness.presets import FIGURE_PRESETS, reproduce


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("runs"))
    parser.add_argument("figures", nargs="*", default=list(FIGURE_PRESETS))
    args = parser.parse_args()

    failures = 0
    for fig in args.figures:
        t0 = time.time()
        ok = reproduce(fig, args.out / fig)
        summary = json.loads((args.out / fig / "summary.json").read_text())
        checks = ", ".join(
            f"{c['name']}={c['value']:.4g}" for c in summary["checks"]
        )
        status = "ok  " if ok else "FAIL"
        print(f"{fig:6s} {status} {time.time() - t0:6.1f}s  {checks}")
        failures += 0 if ok else 1
    return 4 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
