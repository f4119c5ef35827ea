"""Sectioned key = value config parser with mandatory unit suffixes.

The same format is used for harness scenario files and for level-scheme /
decay-table configs.  Every numeric value carries a unit token; dimensionless
quantities use an empty-unit declaration on the consumer side.  Parsing is
strict: unknown keys, missing units, and malformed lines raise ConfigError
with the offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass

from .units import TWO_PI


class ConfigError(Exception):
    """Malformed or out-of-contract configuration input."""


@dataclass(frozen=True)
class RawValue:
    """An unconverted `value unit` token pair plus its source line."""

    number: float
    unit: str
    line: int
    text: str


# Unit token -> (kind, scale to canonical unit of that kind).
# Canonical units: frequency rad/s, time s, ramp rad/s^2, field G, power mW,
# angle rad, length nm, depth_temperature uK, rate 1/s, dimensionless 1.
_UNITS: dict[str, tuple[str, float]] = {
    "THz": ("frequency", TWO_PI * 1e12),
    "GHz": ("frequency", TWO_PI * 1e9),
    "MHz": ("frequency", TWO_PI * 1e6),
    "kHz": ("frequency", TWO_PI * 1e3),
    "Hz": ("frequency", TWO_PI),
    "s": ("time", 1.0),
    "ms": ("time", 1e-3),
    "us": ("time", 1e-6),
    "µs": ("time", 1e-6),
    "ns": ("time", 1e-9),
    "Hz/ms": ("ramp", TWO_PI * 1e3),
    "Hz/s": ("ramp", TWO_PI),
    "kHz/s": ("ramp", TWO_PI * 1e3),
    "G": ("field", 1.0),
    "mW": ("power", 1.0),
    "uW": ("power", 1e-3),
    "µW": ("power", 1e-3),
    "nW": ("power", 1e-6),
    "MHz/sqrt(mW)": ("calibration", TWO_PI * 1e6),
    "deg": ("angle", TWO_PI / 360.0),
    "rad": ("angle", 1.0),
    "nm": ("length", 1.0),
    "um": ("length", 1e3),
    "uK": ("depth", 1.0),
    "µK": ("depth", 1.0),
    "E_rec": ("depth_recoil", 1.0),
    "1/s": ("rate", 1.0),
    "Hz/uK": ("slope", 1.0),
    "u": ("mass", 1.0),
    "1": ("dimensionless", 1.0),
    "%": ("dimensionless", 1e-2),
}


def parse_config(text: str, source: str = "<config>") -> dict[str, dict[str, RawValue]]:
    """Parse sectioned key = value text into {section: {key: RawValue}}.

    Section order and key order are preserved (dicts are ordered).  Duplicate
    sections or keys are rejected.
    """
    sections: dict[str, dict[str, RawValue]] = {}
    current: dict[str, RawValue] | None = None
    current_name = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"{source}:{lineno}: empty section name")
            if name in sections:
                raise ConfigError(f"{source}:{lineno}: duplicate section [{name}]")
            current = {}
            current_name = name
            sections[name] = current
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected `key = value unit`, got {line!r}")
        if current is None:
            raise ConfigError(f"{source}:{lineno}: key outside any [section]")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: missing key before `=`")
        if key in current:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} in [{current_name}]")
        current[key] = _parse_value(rhs, lineno, source)
    return sections


def _parse_value(rhs: str, lineno: int, source: str) -> RawValue:
    parts = rhs.split(None, 1)
    if not parts:
        raise ConfigError(f"{source}:{lineno}: missing value")
    num_text = parts[0]
    unit = parts[1].strip() if len(parts) > 1 else ""
    try:
        number = float(num_text)
    except ValueError:
        # tolerate non-numeric values for name-like keys; unit stays empty
        if len(parts) == 1:
            return RawValue(number=float("nan"), unit="", line=lineno, text=rhs)
        raise ConfigError(f"{source}:{lineno}: {num_text!r} is not a number") from None
    return RawValue(number=number, unit=unit, line=lineno, text=rhs)


def convert(value: RawValue, kind: str, source: str = "<config>") -> float:
    """Convert a RawValue to the canonical unit of `kind`.

    `kind="dimensionless"` additionally accepts a bare number with no unit.
    """
    if value.unit == "":
        if kind == "dimensionless":
            return value.number
        raise ConfigError(
            f"{source}:{value.line}: value {value.text!r} needs a {kind} unit"
        )
    entry = _UNITS.get(value.unit)
    if entry is None:
        raise ConfigError(f"{source}:{value.line}: unknown unit {value.unit!r}")
    unit_kind, scale = entry
    if unit_kind != kind:
        raise ConfigError(
            f"{source}:{value.line}: expected a {kind} unit, got {value.unit!r} ({unit_kind})"
        )
    return value.number * scale
