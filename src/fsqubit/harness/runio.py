"""Per-run output directory: CSVs, plots, summary checks, and a manifest.

CSV payloads are written with repr-exact float formatting, so identical
scenarios with identical seeds reproduce byte-identical files.  The
manifest records the scenario hash, package version, and the digest of
every output file; its timestamp is the only non-reproducible field.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..config import format_csv, parse_csv
from .scenario import Scenario

ARTIFACT_VERSION = "0.1.0"


def json_text(obj) -> str:
    """`obj` as JSON (RFC 8259), indented with sorted keys; JSON has no
    infinity or NaN, so a non-finite float at any depth is written as null,
    and the flags beside it (`tau_unbounded`, `non_decaying`) say why."""
    def finite(value):
        if isinstance(value, float):
            return value if math.isfinite(value) else None
        if isinstance(value, dict):
            return {k: finite(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(v) for v in value]
        return value

    return json.dumps(finite(obj), indent=2, sort_keys=True, allow_nan=False)


@dataclass
class Check:
    name: str
    value: float
    lo: float
    hi: float

    @property
    def passed(self) -> bool:
        return self.lo <= self.value <= self.hi

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "window": [self.lo, self.hi],
            "pass": self.passed,
        }


@dataclass
class RunWriter:
    outdir: Path
    scenario: Scenario
    outputs: list[str] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self.outdir = Path(self.outdir)
        self.outdir.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        return self.outdir / name

    def write_csv(self, name: str, columns: dict[str, np.ndarray]) -> Path:
        return self.write_text(name, format_csv(columns))

    def write_text(self, name: str, text: str) -> Path:
        p = self.path(name)
        p.write_text(text, encoding="utf-8")
        self.outputs.append(name)
        return p

    def register(self, name: str) -> Path:
        """Track a file produced by other writers (e.g. the SVG emitter)."""
        self.outputs.append(name)
        return self.path(name)

    def check(self, name: str, value: float, lo: float, hi: float) -> bool:
        c = Check(name=name, value=float(value), lo=float(lo), hi=float(hi))
        self.checks.append(c)
        return c.passed

    def read_csv(self, name: str) -> dict[str, np.ndarray]:
        """Read back one of this run's CSVs; summary checks run on these."""
        header, data = parse_csv(self.path(name).read_text(encoding="utf-8"), source=name)
        return {h: data[:, i] for i, h in enumerate(header)}

    def finish(self) -> bool:
        """Write summary.json and manifest.json; True when all checks pass."""
        import hashlib  # here, not at the top: a dry run never needs it

        all_pass = all(c.passed for c in self.checks)
        summary = {
            "scenario": self.scenario.name,
            "kind": self.scenario.kind,
            "seed": self.scenario.seed,
            "info": self.info,
            "checks": [c.as_dict() for c in self.checks],
            "pass": all_pass,
        }
        self.path("summary.json").write_text(json_text(summary) + "\n", encoding="utf-8")
        self.outputs.append("summary.json")
        manifest = {
            "scenario_sha256": self.scenario.digest(),
            "artifact_version": ARTIFACT_VERSION,
            "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "outputs": {
                name: hashlib.sha256(self.path(name).read_bytes()).hexdigest()
                for name in sorted(set(self.outputs))
            },
        }
        self.path("manifest.json").write_text(json_text(manifest) + "\n", encoding="utf-8")
        return all_pass
