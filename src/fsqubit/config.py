"""The package's text formats: sectioned key = value configs and numeric CSV.

Configs (harness scenario files, the only sectioned format) carry a unit
token on every numeric value; dimensionless quantities use an empty-unit
declaration on the consumer side.  Parsing is strict: unknown
keys, missing units, and malformed lines raise ConfigError with the
offending line number.  Numeric CSV is written repr-exact by `format_csv`
and read back bit-exact by `parse_csv`.  Plain numeric text, which is what
`format_csv` writes, is read by numpy's C tokenizer (`np.loadtxt`); text
with comments, unusual line ends or any error goes to a line-by-line parser.
That parser stays: it skips comments anywhere, and it alone names the line
of an error and the column of a non-finite value.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

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


def format_csv(columns: dict[str, np.ndarray]) -> str:
    """Numeric CSV text: a header line of the column names, then one line per
    row with every value written repr-exact (%.17g), so equal arrays give
    byte-identical text."""
    names = list(columns)
    data = np.column_stack([np.asarray(columns[c], dtype=float) for c in names])
    row = ",".join(["%.17g"] * len(names)) + "\n"
    return ",".join(names) + "\n" + row * len(data) % tuple(data.ravel().tolist())


def parse_csv(text: str, source: str = "<csv>") -> tuple[list[str], np.ndarray]:
    """Parse numeric CSV text into (header, data of shape (rows, width)).

    Blank lines and `#` comments are skipped.  The first remaining line is
    the header when it starts with a letter and not with a number such as
    `nan` or `inf`; otherwise the header is empty.  A ragged row, a field
    that is not a number and a non-finite value raise ValueError naming
    `source` and the physical (1-based) line.

    Plain text is read by one `np.loadtxt` call, numpy's C tokenizer: ASCII
    without `#`, whose only line ends are LF and CR LF, with at least one
    data row as wide as the header and every value finite.  Every other text
    (comments, a malformed or non-finite field, a ragged or header-only
    body) goes to the line parser.  It returns the same header and data bit
    for bit, and it is the one that names the line of an error, so the
    messages do not depend on the path.
    """
    return _parse_plain(text) or _parse_lines(text, source)


# Line breaks of str.splitlines that numpy's tokenizer reads as whitespace.
_SPLITLINES_BREAKS = "\x0b\x0c\x1c\x1d\x1e"


def _parse_plain(text: str) -> tuple[list[str], np.ndarray] | None:
    """`parse_csv` of plain text through `np.loadtxt`, or None for any other text."""
    if not text.isascii() or "#" in text or any(c in text for c in _SPLITLINES_BREAKS):
        return None
    first, _, rest = text.lstrip().partition("\n")
    first = first.strip()
    if "\r" in first:  # a lone CR ends a line for the line parser
        return None
    header = _header(first)
    body = rest if header else text
    if not body or body.isspace():
        return None
    try:
        data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    except ValueError:
        return None
    if header and data.shape[1] != len(header) or not np.isfinite(data).all():
        return None
    return header, data


def _header(line: str) -> list[str]:
    """The column names when the first stripped line `line` is a header, else []."""
    if line[:1].isalpha():
        try:
            float(line.split(",", 1)[0])
        except ValueError:
            return [h.strip() for h in line.split(",")]
    return []


def _parse_lines(text: str, source: str) -> tuple[list[str], np.ndarray]:
    """`parse_csv` line by line: every text, and the error message naming the line."""
    numbered = [(n, s) for n, raw in enumerate(text.splitlines(), start=1)
                if (s := raw.strip()) and s[0] != "#"]
    header = _header(numbered[0][1]) if numbered else []
    if header:
        numbered.pop(0)
    if not numbered:
        return header, np.empty((0, len(header)))
    width = len(header) or numbered[0][1].count(",") + 1
    for n, s in numbered:
        if s.count(",") != width - 1:
            raise ValueError(f"{source}: line {n} has {s.count(',') + 1} fields, expected {width}")
    try:
        data = np.array(",".join([s for _, s in numbered]).split(","), dtype=float).reshape(-1, width)
    except ValueError:
        for n, s in numbered:
            for field in s.split(","):
                try:
                    float(field)
                except ValueError:
                    raise ValueError(f"{source}: {field!r} is not a number on line {n}") from None
        raise
    rows, cols = np.nonzero(~np.isfinite(data))
    if rows.size:
        column = header[cols[0]] if header else f"column {cols[0] + 1}"
        raise ValueError(f"{source}: non-finite {column!r} on line {numbered[rows[0]][0]}")
    return header, data
