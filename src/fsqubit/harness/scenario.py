"""Scenario files: strict, unit-tagged experiment configurations.

A scenario is sectioned `key = value unit` text (see fsqubit.config).  Every
scenario declares `[scenario] name / kind / seed`; the remaining sections
are checked against the schema of that kind in `SCHEMAS`, which is the one
place that knows a key: its quantity and its default.

- A key is `REQUIRED`, or defaults to a value in canonical units, or is
  `WITH_SECTION`: required once the file gives its section.  Echo's
  `[noise]` and scatter's `[detuning_scan]` are all-or-nothing this way;
  without them the run has no noise and no detuning scan.
- A `count` (every `samples`, `points`, `dark_points`, `phases`,
  `ramp_points` and `depth_points`) is a whole number >= 1, the `rabi`
  kind's `[simulation] samples` one >= 2 (its analysis reads the sample
  spacing), and the `[scenario] seed` (0 when omitted) a whole number in
  [0, 2**63).
- The `dark_min` and `dark_max` of the ramsey, echo and coherence kinds are
  both > 0, and dark_min < dark_max.
- A word-valued key takes one of its listed words: `[scan] strong` of an
  Autler-Townes scan is `down` (the default) or `up`.

Unknown sections or keys, missing units, non-finite numbers, counts and
seeds that are not whole or out of range, unlisted words and dark-time
ranges outside their rule are rejected at parse time with line numbers, so
`--dry-run` checks a scenario completely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from ..config import ConfigError, RawValue, convert, parse_config

# Each key maps to (quantity, default).  The quantity is a unit kind of
# fsqubit.config, a whole-number quantity of _WHOLE (held as an int) or the
# tuple of words the key takes; the default is a value in canonical units,
# REQUIRED or WITH_SECTION.
REQUIRED = object()
WITH_SECTION = object()

# whole-number quantity -> (smallest value, bound it stays below, the rule in words);
# a seed keys a uint64 Philox stream and stays within int64
_WHOLE = {"count": (1, math.inf, ">= 1"), "trace_samples": (2, math.inf, ">= 2"),
          "seed": (0, 2**63, "in [0, 2**63)")}

_RABI_PAIR = {"rabi_up": ("frequency", REQUIRED), "rabi_down": ("frequency", REQUIRED)}
_RESONANT_DRIVE = {**_RABI_PAIR, "detuning": ("frequency", REQUIRED)}
_RAMAN_DRIVE = {**_RESONANT_DRIVE, "delta": ("frequency", 0.0)}
_ENSEMBLE = {
    "rabi_spread": ("dimensionless", 0.0),
    "delta_sigma": ("frequency", 0.0),
    "samples": ("count", 1),
}
_DARK_SCAN = {
    "dark_min": ("time", REQUIRED),
    "dark_max": ("time", REQUIRED),
    "dark_points": ("count", REQUIRED),
    "phases": ("count", REQUIRED),
}

# kind -> section -> key -> (quantity, default)
SCHEMAS: dict[str, dict[str, dict[str, tuple[str | tuple[str, ...], object]]]] = {
    "rabi": {
        "drive": _RAMAN_DRIVE,
        "ensemble": _ENSEMBLE,
        "simulation": {"duration": ("time", REQUIRED), "samples": ("trace_samples", REQUIRED)},
    },
    "lz": {
        "sweep": {
            "rabi": ("frequency", REQUIRED),
            "range": ("frequency", REQUIRED),
            "ramp_min": ("ramp", REQUIRED),
            "ramp_max": ("ramp", REQUIRED),
            "ramp_points": ("count", REQUIRED),
        },
        "validation": {"range": ("frequency", REQUIRED), "ramp": ("ramp", REQUIRED)},
    },
    "ramsey": {
        "drive": _RAMAN_DRIVE,
        "ensemble": _ENSEMBLE,
        "scan": _DARK_SCAN,
    },
    "echo": {
        "drive": _RAMAN_DRIVE,
        "ensemble": _ENSEMBLE,
        "noise": {"ou_sigma": ("frequency", WITH_SECTION), "ou_tau": ("time", WITH_SECTION)},
        "scan": _DARK_SCAN,
    },
    "coherence": {
        "drive": _RESONANT_DRIVE,
        "ramsey": {
            "delta_sigma": ("frequency", REQUIRED),
            "samples": ("count", REQUIRED),
            "dark_min": ("time", REQUIRED),
            "dark_max": ("time", REQUIRED),
            "dark_points": ("count", REQUIRED),
        },
        "echo": {
            "ou_sigma": ("frequency", REQUIRED),
            "ou_tau": ("time", REQUIRED),
            "samples": ("count", REQUIRED),
            "dark_min": ("time", REQUIRED),
            "dark_max": ("time", REQUIRED),
            "dark_points": ("count", REQUIRED),
        },
        "scan": {"phases": ("count", REQUIRED)},
    },
    "scatter": {
        "drive": {"rabi_up": ("frequency", REQUIRED), "detuning": ("frequency", REQUIRED)},
        "times": {
            "min": ("time", REQUIRED),
            "max": ("time", REQUIRED),
            "points": ("count", REQUIRED),
        },
        "detuning_scan": {
            "min": ("frequency", WITH_SECTION),
            "max": ("frequency", WITH_SECTION),
            "points": ("count", WITH_SECTION),
        },
    },
    "at": {
        "scan": {
            "power_min": ("power", REQUIRED),
            "power_max": ("power", REQUIRED),
            "points": ("count", REQUIRED),
            "calibration": ("calibration", REQUIRED),
            "probe_rabi": ("frequency", REQUIRED),
            "strong": (("down", "up"), "down"),
        },
    },
    "cpt": {
        "drive": _RABI_PAIR,
        "scan": {"delta_max": ("frequency", REQUIRED), "points": ("count", REQUIRED)},
    },
    "detuning": {
        "drive": _RABI_PAIR,
        "scan": {
            "detuning_min": ("frequency", REQUIRED),
            "detuning_max": ("frequency", REQUIRED),
            "points": ("count", REQUIRED),
        },
        "ensemble": {"rabi_spread": ("dimensionless", 0.0), "samples": ("count", 1)},
        "simulation": {"cycles": ("dimensionless", 150.0)},
    },
    "lightshift": {
        "drive": {**_RESONANT_DRIVE, "delta": ("frequency", REQUIRED)},
        "lattice": {
            "slope": ("slope", REQUIRED),
            "depth_min": ("depth", REQUIRED),
            "depth_max": ("depth", REQUIRED),
            "depth_points": ("count", REQUIRED),
            "frequency_noise": ("frequency", 0.0),
        },
        "scan": {"dark_max": ("time", REQUIRED), "dark_points": ("count", REQUIRED)},
    },
    "pipeline": {
        "signal": {
            "rabi": ("frequency", REQUIRED),
            "tau": ("time", REQUIRED),
            "loss_amp": ("dimensionless", REQUIRED),
            "tau_loss": ("time", REQUIRED),
            "noise": ("dimensionless", REQUIRED),
            "duration": ("time", REQUIRED),
            "samples": ("count", REQUIRED),
        },
    },
    "fidelity": {
        "drive": _RESONANT_DRIVE,
        "readout": {
            "lz_efficiency": ("dimensionless", REQUIRED),
            "reference_drift": ("dimensionless", 0.1),
        },
    },
}


@dataclass(frozen=True)
class Scenario:
    """A checked scenario.  `params` holds the value of every key the file
    gives or the schema defaults, `raw` the text of each key the file gives."""

    name: str
    kind: str
    seed: int
    params: dict[tuple[str, str], float | int | str]
    raw: dict[tuple[str, str], str]
    text: str

    def get(self, section: str, key: str) -> float:
        if (section, key) not in self.params:
            raise ConfigError(f"scenario {self.name!r}: missing [{section}] {key}")
        return self.params[(section, key)]

    def get_int(self, section: str, key: str) -> int:
        return int(self.get(section, key))

    def string(self, section: str, key: str) -> str:
        return str(self.get(section, key))

    def has(self, section: str) -> bool:
        """Whether the file sets a key of [section]."""
        return any(sec == section for sec, _ in self.raw)

    def digest(self) -> str:
        import hashlib  # here, not at the top: a dry run never needs it

        return hashlib.sha256(self.text.encode()).hexdigest()

    def resolved_lines(self) -> list[str]:
        out = [f"name = {self.name}", f"kind = {self.kind}", f"seed = {self.seed}"]
        out.extend(f"{section}.{key} = {text}" for (section, key), text in sorted(self.raw.items()))
        return out


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file {path} does not exist")
    return parse_scenario(path.read_text(), source=str(path))


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    sections = parse_config(text, source)
    if "scenario" not in sections:
        raise ConfigError(f"{source}: missing [scenario] section with the scenario name")
    head = sections.pop("scenario")
    if "name" not in head:
        raise ConfigError(f"{source}: missing scenario name")
    name = head.pop("name").text
    if "kind" not in head:
        raise ConfigError(f"{source}: missing scenario kind")
    kind = head.pop("kind").text
    if kind not in SCHEMAS:
        raise ConfigError(f"{source}: unknown scenario kind {kind!r} "
                          f"(known: {', '.join(sorted(SCHEMAS))})")
    seed_rv = head.pop("seed", None)
    seed = _value(seed_rv, "seed", "[scenario] seed", source) if seed_rv is not None else 0
    for key, rv in head.items():
        raise ConfigError(f"{source}:{rv.line}: unknown key {key!r} in [scenario]")

    schema = SCHEMAS[kind]
    params: dict[tuple[str, str], float | int | str] = {}
    given: dict[tuple[str, str], RawValue] = {}
    for sec_name, body in sections.items():
        if sec_name not in schema:
            raise ConfigError(f"{source}: unknown section [{sec_name}] for kind {kind!r}")
        sec_schema = schema[sec_name]
        for key, rv in body.items():
            if key not in sec_schema:
                raise ConfigError(f"{source}:{rv.line}: unknown key {key!r} in [{sec_name}]")
            params[(sec_name, key)] = _value(rv, sec_schema[key][0], f"[{sec_name}] {key}", source)
            given[(sec_name, key)] = rv
    for sec_name, sec_schema in schema.items():
        for key, (_, default) in sec_schema.items():
            if (sec_name, key) in params:
                continue
            if default is REQUIRED:
                raise ConfigError(f"{source}: kind {kind!r} requires [{sec_name}] {key}")
            if default is WITH_SECTION:
                if sec_name in sections:
                    raise ConfigError(f"{source}: [{sec_name}] is all-or-nothing and lacks {key}")
                continue
            params[(sec_name, key)] = default
        if "dark_min" in sec_schema:
            _check_dark_range(params, given, sec_name, source)
    raw = {where: rv.text for where, rv in given.items()}
    return Scenario(name=name, kind=kind, seed=seed, params=params, raw=raw, text=text)


def _check_dark_range(params, given, section: str, source: str) -> None:
    """The dark times of `section`, which the file gives: dark_min and
    dark_max both > 0, and dark_min < dark_max."""
    lo, hi = given[(section, "dark_min")], given[(section, "dark_max")]
    for key, rv in (("dark_min", lo), ("dark_max", hi)):
        if not params[(section, key)] > 0:
            raise ConfigError(f"{source}:{rv.line}: [{section}] {key} = {rv.text!r} must be > 0")
    if not params[(section, "dark_min")] < params[(section, "dark_max")]:
        raise ConfigError(f"{source}:{hi.line}: [{section}] dark_max = {hi.text!r} must exceed "
                          f"dark_min = {lo.text!r}")


def _value(rv: RawValue, quantity: str | tuple[str, ...], what: str,
           source: str) -> float | int | str:
    """`rv` as `quantity`: one of its words, a whole number, or a finite
    number in canonical units."""
    if isinstance(quantity, tuple):
        if rv.text not in quantity:
            raise ConfigError(f"{source}:{rv.line}: {what} must be one of "
                              f"{', '.join(quantity)}, got {rv.text!r}")
        return rv.text
    value = convert(rv, "dimensionless" if quantity in _WHOLE else quantity, source)
    if not math.isfinite(value):
        raise ConfigError(f"{source}:{rv.line}: {what} = {rv.text!r} is not a finite number")
    if quantity not in _WHOLE:
        return value
    low, high, rule = _WHOLE[quantity]
    try:
        # a bare integer literal converts exactly; a float rounds it past 2**53
        whole = int(rv.text)
    except ValueError:
        whole = round(value)
    if not low <= whole < high or abs(value - whole) > 1e-9:
        raise ConfigError(f"{source}:{rv.line}: {what} = {rv.text!r} is not a whole number {rule}")
    return whole
