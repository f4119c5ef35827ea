"""In-memory span recorder for the traced benchmark run.

The recorder wraps public fsqubit functions by name.  Each wrapped object is
replaced in every fsqubit module that binds it, so a call through an
imported name (for example `liouvillian` inside `fsqubit.sequences`) is
recorded as well.  One span is kept per call: name, start, end and the index
of the span that was open when it started.  Self time is a span's duration
minus the durations of its direct children.  Nothing is written until the
benchmark asks for it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

# span name -> (module that defines the objects, attributes to wrap).  A
# dotted attribute is a method of a class in that module.  `expm` is defined
# in scipy but wrapped only where fsqubit modules bind it (lindblad,
# sequences, rates).
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "driven.build": ("fsqubit.driven", (
        "build_lambda_model", "build_single_drive_model", "build_effective_qubit_model")),
    "lindblad.liouvillian": ("fsqubit.lindblad", ("liouvillian",)),
    "lindblad.evolve": ("fsqubit.lindblad", ("evolve",)),
    "lindblad.steady_state": ("fsqubit.lindblad", ("steady_state",)),
    "lindblad.expm": ("scipy.linalg", ("expm",)),
    "sequences.run": ("fsqubit.sequences", ("run",)),
    "sequences.run_rabi_ensemble": ("fsqubit.sequences", ("run_rabi_ensemble",)),
    "sequences.coherence_scan": ("fsqubit.sequences", (
        "ramsey_phase_scan", "spin_echo_scan", "ramsey_time_scan")),
    "sequences.scattering_decay": ("fsqubit.sequences", ("scattering_decay",)),
    "sequences.autler_townes_scan": ("fsqubit.sequences", ("autler_townes_scan",)),
    "sequences.cpt_scan": ("fsqubit.sequences", ("cpt_scan",)),
    "sequences.landau_zener": ("fsqubit.sequences", ("landau_zener",)),
    "rates.survival": ("fsqubit.rates", ("survival",)),
    "rates.fit_scattering_rate": ("fsqubit.rates", ("fit_scattering_rate",)),
    "dsp.nlls": ("fsqubit.dsp", ("nlls",)),
    "dsp.trace_parse": ("fsqubit.dsp", ("Trace.from_csv",)),
    "dsp.filter": ("fsqubit.dsp", ("butterworth_bandpass", "hilbert_envelope")),
    "dsp.extract_rabi": ("fsqubit.dsp", ("extract_rabi",)),
    "harness.csv_write": ("fsqubit.harness.runio", ("RunWriter.write_csv",)),
    "harness.csv_read": ("fsqubit.harness.runio", ("RunWriter.read_csv",)),
    "harness.svg": ("fsqubit.harness.svgplot", ("emit_plot",)),
    "harness.manifest": ("fsqubit.harness.runio", ("RunWriter.finish",)),
}


def _count_nlls(counters, result) -> None:
    counters["dsp.nlls_iterations"] += int(getattr(result, "iterations", 0))
    counters["dsp.nlls_converged"] += bool(getattr(result, "converged", False))


def _count_csv_bytes(counters, result) -> None:
    if isinstance(result, (str, Path)):
        counters["harness.csv_bytes_written"] += Path(result).stat().st_size


# Counters read from a wrapped call's return value, after its span ends.
HOOKS = {"dsp.nlls": _count_nlls, "harness.csv_write": _count_csv_bytes}


def _fsqubit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "fsqubit" or name.startswith("fsqubit."))]


class Tracer:
    """Spans and counters of one traced pass.

    Not thread-safe: the benchmark runs the program on one thread.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []  # "span: module.attribute" that no longer exists
        self.installed: set[str] = set()  # span names with at least one wrapper
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, open_, counters, hook = self.spans, self._open, self.counters, HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, open_[-1] if open_ else -1])
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(counters, result)
            return result

        return wrapper

    def _patch(self, name: str, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)
        self.installed.add(name)

    def install(self) -> None:
        modules = _fsqubit_modules()
        for name, (modname, attrs) in LAYERS.items():
            try:
                home = importlib.import_module(modname)
            except ImportError:
                self.missing.extend(f"{name}: {modname}.{a}" for a in attrs)
                continue
            for attr in attrs:
                cls_name, _, meth = attr.rpartition(".")
                owner = getattr(home, cls_name, None) if cls_name else home
                if owner is None or meth not in vars(owner):
                    self.missing.append(f"{name}: {modname}.{attr}")
                    continue
                raw = vars(owner)[meth]
                if not cls_name:
                    wrapper = self._wrap(name, raw)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is raw:
                                self._patch(name, mod, key, wrapper)
                elif isinstance(raw, classmethod):
                    self._patch(name, owner, meth, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._patch(name, owner, meth, self._wrap(name, raw))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            s = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["incl_s"] += end - start
            s["self_s"] += end - start - inner
        return out


def wrapper_cost(calls: int = 20000, repeats: int = 7) -> float:
    """Seconds one wrapped call adds to a plain call, the least over `repeats`."""

    def plain():
        return None

    best = float("inf")
    for _ in range(repeats):
        wrapped = Tracer()._wrap("calibration", plain)
        a = time.perf_counter()
        for _ in range(calls):
            plain()
        b = time.perf_counter()
        for _ in range(calls):
            wrapped()
        c = time.perf_counter()
        best = min(best, (c - b) - (b - a))
    return max(best, 0.0) / calls
