"""Benchmark workloads: seeded inputs, one pass of work, and its checks.

The program is driven only through its public entry points:
`harness.scenario.parse_scenario`, `harness.presets.run_scenario` and
`harness.cli.main`.  No call passes `workers`, so the program runs with its
defaults.  Importing this module imports `fsqubit.harness.cli`; the caller
puts the package's `src` directory on `sys.path` first.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from fsqubit import formulas
from fsqubit.harness import cli, presets, scenario

# Why each workload exists:
# - dynamics: long propagation of a few generators (Rabi ensembles, the
#   169x169 scattering decay, coherence scans); a batched propagator shows here.
# - scans: thousands of tiny independent solves (n_samples=2 evolves, SVD
#   steady states, the Landau-Zener loop); per-call overhead dominates, and
#   a batching change should leave it unchanged.
# - analysis: the extraction chain on measured-style traces read through the
#   Trace CSV codec; it never touches lindblad or sequences.
WORKLOADS: dict[str, tuple[str, ...]] = {
    "dynamics": ("fig3d", "fig3e", "fig4c", "figS3", "figS1"),
    "scans": ("fig1c", "fig2a", "fig2b", "fig2c", "fig4e"),
    "analysis": ("figS2",),
}

ANALYSIS_TRACES = 48

# Truth windows for `analyze rabi`: the figS2 preset's own omega_rel_err and
# tau_rel_err windows, fixed here and never widened.
OMEGA_REL_TOL = 2e-3
TAU_REL_TOL = 0.10

_SEED_LINE = re.compile(r"(?m)^seed\s*=.*$")


def preset_scenario(figure: str, seed: int) -> scenario.Scenario:
    """Packaged preset with its `seed =` line replaced by the workload seed."""
    text = presets.packaged_scenario_path(figure).read_text()
    text, n = _SEED_LINE.subn(f"seed = {seed}", text)
    if n != 1:
        raise RuntimeError(f"preset {figure} has {n} seed lines, expected 1")
    return scenario.parse_scenario(text, source=f"{figure}.scenario")


def parse_scenarios(workload: str, seed: int) -> list[scenario.Scenario]:
    return [preset_scenario(fig, seed) for fig in WORKLOADS[workload]]


@dataclass
class Item:
    """One unit of work.

    `run` is timed.  `evaluate` is called on its return value after the
    pass and gives the number of checks attempted and a line per failed one.
    """

    label: str
    run: Callable[[], object]
    evaluate: Callable[[object], tuple[int, list[str]]]


def _preset_item(sc: scenario.Scenario, label: str, outdir: Path) -> Item:
    def run():
        return presets.run_scenario(sc, outdir)

    def evaluate(_) -> tuple[int, list[str]]:
        checks = json.loads((outdir / "summary.json").read_text())["checks"]
        return len(checks), [f"{label}.{c['name']} = {c['value']!r} outside {c['window']}"
                             for c in checks if not c["pass"]]

    return Item(label, run, evaluate)


def _synthetic_trace(rng: np.random.Generator, n: int):
    """A damped Rabi trace of n samples with slow loss and white noise.

    figS2 records ~207 cycles with tau = 0.33 of the record, loss 0.17 with
    tau_loss = 0.56 of the record and noise 0.05; the draws bracket these.
    """
    f_hz = rng.uniform(60e3, 140e3)
    duration = rng.uniform(150.0, 250.0) / f_hz
    tau = duration * rng.uniform(0.25, 0.45)
    loss_amp = rng.uniform(0.10, 0.20)
    tau_loss = duration * rng.uniform(0.40, 0.70)
    noise = rng.uniform(0.02, 0.05)
    t = np.arange(n) * (duration / n)
    y = formulas.damped_model(t, 2.0 * math.pi * f_hz, 0.0, tau, loss_amp, tau_loss)
    y = y + noise * rng.standard_normal(n)
    return t, y, f_hz, tau


def _trace_item(path: Path, f_hz: float, tau: float) -> Item:
    argv = ["analyze", "rabi", "--input", str(path)]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def evaluate(result) -> tuple[int, list[str]]:
        code, text = result
        if code != 0:
            return 2, [f"{path.name}: analyze rabi exited {code}; omega and tau not checked"] * 2
        res = json.loads(text)
        failed = []
        if not abs(res["omega_hz"] / f_hz - 1.0) <= OMEGA_REL_TOL:
            failed.append(f"{path.name}: omega_hz {res['omega_hz']!r}, true {f_hz!r}")
        if not abs(res["tau_s"] / tau - 1.0) <= TAU_REL_TOL:
            failed.append(f"{path.name}: tau_s {res['tau_s']!r}, true {tau!r}")
        return 2, failed

    return Item(path.name, run, evaluate)


def build_items(workload: str, seed: int, workdir: Path) -> list[Item]:
    """Write the workload's inputs under `workdir` and return its items in pass order."""
    items = []
    if workload == "analysis":
        rng = np.random.default_rng([seed, 0xA5])
        # One length drawn in each of ANALYSIS_TRACES equal strata of
        # [2048, 16384]: most are not powers of two, and the total work
        # hardly depends on the seed.
        strata = np.linspace(2048, 16384, ANALYSIS_TRACES + 1)
        lengths = rng.permutation(rng.uniform(strata[:-1], strata[1:]).astype(int))
        tdir = workdir / "traces"
        tdir.mkdir(parents=True, exist_ok=True)
        for i, n in enumerate(lengths):
            t, y, f_hz, tau = _synthetic_trace(rng, int(n))
            path = tdir / f"trace_{i:03d}.csv"
            path.write_text("t,y\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(t, y)))
            items.append(_trace_item(path, f_hz, tau))
    for fig, sc in zip(WORKLOADS[workload], parse_scenarios(workload, seed)):
        items.append(_preset_item(sc, fig, workdir / "presets" / fig))
    return items
