"""Command-line interface.

Verbs mirror the experiment taxonomy: `simulate` runs a single protocol,
`scan` sweeps a parameter, `analyze` fits externally supplied trace CSVs,
`trap` answers polarizability questions, and `reproduce` runs a packaged
figure preset end to end.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 failed acceptance checks in `reproduce`.
"""

from __future__ import annotations

import argparse
import functools
import importlib.resources
import json
import math
import sys
from pathlib import Path

import numpy as np

from .. import driven, dsp, lindblad, trap
from ..config import ConfigError
from ..units import SR88_MASS_U, TWO_PI
from .presets import default_scenario_for_kind, load_preset, run_scenario
from .runio import json_text
from .scenario import load_scenario

_SIMULATE_KINDS = {"rabi": "rabi", "lz": "lz", "ramsey": "ramsey",
                   "echo": "echo", "scatter": "scatter"}
_SCAN_KINDS = {"autler-townes": "at", "cpt": "cpt", "detuning": "detuning"}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=Path, default=Path("runs"), help="output directory root")
    p.add_argument("--dry-run", action="store_true",
                   help="validate the configuration and print the resolved parameters")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(prog="fsqubit",
                                     description="metastable-qubit simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one protocol from a scenario file")
    p_sim.add_argument("protocol", choices=sorted(_SIMULATE_KINDS))
    p_sim.add_argument("--scenario", type=Path, default=None, help="scenario file")
    _add_common(p_sim)

    p_scan = sub.add_parser("scan", help="run a parameter scan from a scenario file")
    p_scan.add_argument("protocol", choices=sorted(_SCAN_KINDS))
    p_scan.add_argument("--scenario", type=Path, default=None, help="scenario file")
    _add_common(p_scan)

    p_an = sub.add_parser("analyze", help="fit a measured or simulated trace CSV")
    p_an.add_argument("what", choices=["rabi", "ramsey", "decay"])
    p_an.add_argument("--input", type=Path, required=True, help="2-column t,y CSV")
    p_an.add_argument("--out", type=Path, default=None, help="write a JSON result here")
    p_an.add_argument("--dry-run", action="store_true")

    p_trap = sub.add_parser("trap", help="polarizability and lattice conversions")
    p_trap.add_argument("what", choices=["magic", "recoil", "slope"])
    p_trap.add_argument("--wavelength", type=float, required=True, help="nm")
    p_trap.add_argument("--angle", type=float, default=90.0, help="polarization angle (deg)")
    p_trap.add_argument("--mass-u", type=float, default=SR88_MASS_U)
    p_trap.add_argument("--table", type=Path, default=None, help="polarizability CSV")
    p_trap.add_argument("--dry-run", action="store_true")

    p_rep = sub.add_parser("reproduce", help="run a packaged figure preset")
    p_rep.add_argument("figure")
    _add_common(p_rep)
    return parser


def _scenario_for(args, kind: str):
    path = args.scenario if args.scenario is not None else default_scenario_for_kind(kind)
    sc = load_scenario(path)
    if sc.kind != kind:
        raise ConfigError(f"scenario kind {sc.kind!r} does not match the requested {kind!r}")
    return sc, path


def _number(value) -> str:
    """A summary.json number for the terminal; null stands for a non-finite value."""
    return "null" if value is None else f"{value:.6g}"


def _run_kind(args, kind: str) -> int:
    sc, path = _scenario_for(args, kind)
    if args.dry_run:
        print(f"scenario file: {path}")
        for line in sc.resolved_lines():
            print(line)
        return 0
    outdir = args.out / sc.name
    ok = run_scenario(sc, outdir)
    print(f"outputs in {outdir}")
    summary = json.loads((outdir / "summary.json").read_text())
    for check in summary["checks"]:
        mark = "pass" if check["pass"] else "FAIL"
        lo, hi = check["window"]
        print(f"  [{mark}] {check['name']} = {_number(check['value'])} "
              f"window [{_number(lo)}, {_number(hi)}]")
    return 0 if ok else 4


def _load_table(path: Path | None) -> trap.PolarizabilityTable:
    if path is not None:
        return trap.PolarizabilityTable.from_csv(path.read_text(), source=str(path))
    res = importlib.resources.files("fsqubit") / "data" / "polarizability_sr88.csv"
    return trap.PolarizabilityTable.from_csv(res.read_text(), source="polarizability_sr88.csv")


def _cmd_trap(args) -> int:
    if args.dry_run:
        print(f"trap {args.what}: wavelength={args.wavelength} nm "
              f"angle={args.angle} deg mass={args.mass_u} u table={args.table or 'builtin'}")
        return 0
    if args.what == "recoil":
        rec = trap.recoil_energy(args.wavelength, args.mass_u)
        print(f"recoil frequency: {rec.frequency_hz:.4f} Hz")
        print(f"recoil temperature: {rec.temperature_uk:.6f} uK")
        return 0
    table = _load_table(args.table)
    if args.what == "magic":
        res = trap.magic_angle(table, args.wavelength)
        if res.degenerate:
            print("degenerate: every angle is magic for this table")
        elif res.beta is None:
            print("no magic angle on [0, 90] deg at this wavelength")
        else:
            print(f"magic angle: {math.degrees(res.beta):.3f} deg "
                  f"+- {math.degrees(res.sigma):.3f} deg")
        return 0
    slope, sigma = trap.shift_slope(table, args.wavelength, math.radians(args.angle))
    print(f"differential shift slope: {slope:.2f} +- {sigma:.2f} Hz/uK")
    return 0


def _cmd_analyze(args) -> int:
    if args.dry_run:
        print(f"analyze {args.what}: input={args.input}")
        return 0
    trace = dsp.Trace.from_csv(args.input)
    if args.what == "rabi":
        res = dsp.extract_rabi(trace)
        out = {
            "omega_hz": res.omega / TWO_PI,
            "omega_sigma_hz": res.omega_sigma / TWO_PI,
            "tau_s": res.tau,
            "tau_sigma_s": res.tau_sigma,
            "cycles": res.cycles,
            "flags": {k: bool(v) if isinstance(v, (bool, np.bool_)) else v
                      for k, v in res.flags.items()},
        }
    elif args.what == "ramsey":
        fit = dsp.fit_sinusoid(trace.times, trace.samples)
        out = {
            "f_ramsey_hz": abs(fit.value("frequency")),
            "f_sigma_hz": fit.sigma("frequency"),
            "contrast": fit.meta["contrast"],
        }
    else:
        fit = dsp.fit_exponential(trace)
        out = {
            "amplitude": fit.value("amplitude"),
            "tau_s": fit.value("tau"),
            "tau_sigma_s": fit.sigma("tau"),
            "tau_unbounded": bool(fit.meta["tau_unbounded"]),
        }
    text_out = json_text(out)
    print(text_out)
    if args.out is not None:
        args.out.write_text(text_out + "\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _run_kind(args, _SIMULATE_KINDS[args.protocol])
        if args.command == "scan":
            return _run_kind(args, _SCAN_KINDS[args.protocol])
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "trap":
            return _cmd_trap(args)
        if args.command == "reproduce":
            sc = load_preset(args.figure)
            if args.dry_run:
                for line in sc.resolved_lines():
                    print(line)
                return 0
            ok = run_scenario(sc, args.out / args.figure)
            summary = json.loads((args.out / args.figure / "summary.json").read_text())
            for check in summary["checks"]:
                mark = "pass" if check["pass"] else "FAIL"
                print(f"[{mark}] {check['name']} = {_number(check['value'])}")
            return 0 if ok else 4
        raise ConfigError(f"unknown command {args.command!r}")
    # the lazy modules' exception classes are named through their modules, so
    # a module is loaded here only while an exception is being matched
    except (ConfigError, driven.ModelError, trap.TableError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (lindblad.DegenerateSteadyStateError, dsp.FitError, dsp.PipelineError, ValueError,
            ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
