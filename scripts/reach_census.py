#!/usr/bin/env python3
"""Which functions and defaulted parameters of fsqubit the product paths reach.

    python3 scripts/reach_census.py

Imports the package and then runs, all under `sys.setprofile`: every packaged
figure preset through `presets.reproduce` (which calls
`presets.run_scenario`) and through `fsqubit reproduce`, `simulate ramsey`
and `simulate echo` on their packaged scenarios, the dry run of each of
those 13, `analyze rabi|ramsey|decay` on figS2's trace and on a copy that
opens with a `# comment` line (so `config.parse_csv` is reached), and
`trap magic|recoil|slope`.  It then prints two lists:

- each function or method defined under `src/fsqubit` that was never entered
  (comprehensions, lambdas and class bodies aside);
- each parameter with a default, dataclass fields included, that held its
  default on every call of its function (a value equal to the default
  counts as the default; functions never entered are left out).

Items in KEPT are marked with the reason they stay.  The exit code is 1 when
an item outside KEPT is listed, or a KEPT item is no longer listed (so the
table stays true), and 0 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import inspect
import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

PACKAGE = Path(importlib.util.find_spec("fsqubit").origin).resolve().parent

STATE_CHECKS = "the density-matrix invariants (Hermiticity, trace, positivity) a run may check"
# never entered or always defaulted on purpose, with the reason
KEPT = {
    "driven.py:_full_model": "the full 13-level Raman model, for a cross-check of the "
                             "eliminated qubit model",
    "driven.py:build_lambda_model(env)": "the magnetic field of the full model's mode",
    "lindblad.py:DensityMatrix.validate": STATE_CHECKS,
    "lindblad.py:DensityMatrix.min_eigenvalue": STATE_CHECKS,
    "lindblad.py:DensityMatrix.hermiticity_defect": STATE_CHECKS,
    "trap.py:magic_angle(tol)": "tests pin the root accuracy with it",
    "dsp.py:DegenerateParameterError.__init__": "raised by a fit of degenerate data, which "
                                                "the fits of noisy or flat data catch",
    "trap.py:MagicAngleResult(degenerate)": "set for a `--table` whose 3P2 and 3P0 rows "
                                            "coincide at the wavelength",
    "sequences.py:ramsey_phase_scan(ou)": "the OU noise of a ramsey scenario with a [noise] "
                                          "section; no packaged one has it",
    "atom.py:MagneticEnvironment(b_gauss)": "every packaged run is at the experiment's 20 G; "
                                            "the Zeeman tests set other fields",
}

def _source_functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> "file:qualname" for every function code
    object compiled from the package's sources (code objects carry their
    qualname only from Python 3.11 on, so it is built here)."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        stack = [(compile(path.read_text(), str(path), "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            function = code.co_flags & inspect.CO_OPTIMIZED
            qualname = prefix + code.co_name if code.co_name != "<module>" else ""
            inner = qualname + (".<locals>." if function else ".") if qualname else ""
            stack.extend((c, inner) for c in code.co_consts if isinstance(c, types.CodeType))
            if function and not code.co_name.startswith("<"):
                out[(str(path), code.co_firstlineno, code.co_name)] = f"{rel}:{qualname}"
    return out


def _functions_of(obj, module: str):
    """The functions a module, or a class of it, defines."""
    for value in list(vars(obj).values()):
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if isinstance(value, property):
            yield from (f for f in (value.fget, value.fset, value.fdel) if f is not None)
            continue
        value = inspect.unwrap(value) if callable(value) else value
        if isinstance(value, types.FunctionType) and value.__module__ == module:
            yield value
        elif isinstance(value, type) and value.__module__ == module and obj is not value:
            yield from _functions_of(value, module)


def _defaulted() -> dict[types.CodeType, tuple[str, dict[str, object]]]:
    """code object -> (report name, {parameter: default}) for every package
    function with a defaulted parameter; a dataclass's generated __init__ is
    reported by its class name."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        module = importlib.import_module(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
        for fn in _functions_of(module, module.__name__):
            params = {p.name: p.default for p in inspect.signature(fn).parameters.values()
                      if p.default is not inspect.Parameter.empty}
            if not params:
                continue
            owner = fn.__qualname__.rsplit(".", 1)[0]
            generated = fn.__code__.co_filename == "<string>"
            if generated and not dataclasses.is_dataclass(getattr(module, owner, None)):
                continue
            out[fn.__code__] = (f"{rel}:{owner if generated else fn.__qualname__}", params)
    return out


def _same(value, default) -> bool:
    if value is default:
        return True
    simple = (bool, int, float, complex, str, bytes, tuple, frozenset, type(None))
    return type(value) is type(default) and isinstance(default, simple) and value == default


def _workload(out: Path) -> None:
    """The product paths: the packaged scenarios, `analyze` and `trap`."""
    from fsqubit.harness import cli, presets

    for fig in presets.FIGURE_PRESETS:
        presets.reproduce(fig, out / fig)
        cli.main(["reproduce", fig, "--out", str(out / "cli")])
        cli.main(["reproduce", fig, "--dry-run"])
    for kind in ("ramsey", "echo"):
        cli.main(["simulate", kind, "--out", str(out)])
        cli.main(["simulate", kind, "--dry-run"])
    trace = out / "figS2" / "trace.csv"
    commented = out / "trace_comment.csv"
    commented.write_text("# comment\n" + trace.read_text())
    for what in ("rabi", "ramsey", "decay"):
        for path in (trace, commented):
            cli.main(["analyze", what, "--input", str(path)])
        cli.main(["analyze", what, "--input", str(trace), "--dry-run"])
    for what in ("magic", "recoil", "slope"):
        cli.main(["trap", what, "--wavelength", "914"])
        cli.main(["trap", what, "--wavelength", "914", "--dry-run"])


def census() -> tuple[list[str], list[str]]:
    """(functions never entered, parameters that always held their default)."""
    functions = _source_functions()
    defaulted: dict[types.CodeType, tuple[str, dict[str, object]]] = {}
    entered: set[tuple[str, int, str]] = set()
    called: set[types.CodeType] = set()
    moved: set[tuple[types.CodeType, str]] = set()
    files: dict[str, str | None] = {}

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        path = files.get(code.co_filename, 0)
        if path == 0:
            resolved = Path(os.path.realpath(code.co_filename))
            path = files[code.co_filename] = str(resolved) if PACKAGE in resolved.parents else None
        if path is not None:
            entered.add((path, code.co_firstlineno, code.co_name))
        spec = defaulted.get(code)
        if spec is None:
            return
        called.add(code)
        f_locals = frame.f_locals
        for name, default in spec[1].items():
            if name in f_locals and not _same(f_locals[name], default):
                moved.add((code, name))

    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as devnull:
        stdout, sys.stdout = sys.stdout, devnull
        sys.setprofile(profile)
        try:
            # the import runs under the profile too: the package binds its
            # modules lazily, so its import-time functions are entered here
            defaulted.update(_defaulted())
            _workload(Path(tmp))
        finally:
            sys.setprofile(None)
            sys.stdout = stdout

    never = sorted(label for key, label in functions.items() if key not in entered)
    defaults = sorted(f"{label}({name})" for code, (label, params) in defaulted.items()
                      if code in called for name in params if (code, name) not in moved)
    return never, defaults


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    never, defaults = census()
    unexpected = []
    for title, items in (("never entered", never), ("always defaulted", defaults)):
        print(f"{title}: {len(items)}")
        for item in items:
            reason = KEPT.get(item)
            print(f"  {item}" + (f"  [kept: {reason}]" if reason else ""))
            if reason is None:
                unexpected.append(item)
    stale = sorted(set(KEPT) - set(never) - set(defaults))
    for item in stale:
        print(f"kept but reached: {item}")
    if unexpected or stale:
        print(f"{len(unexpected)} unexpected, {len(stale)} stale", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
