"""Classical rate-equation model of single-laser optical pumping.

Population-only dynamics on the full sublevel set: the drive pumps each
addressable Zeeman line at its off-resonant scattering rate, decay follows
the branching table, and the intermediate manifold recycles population to
the ground state.  Used to extract scattering rates from decay traces.

The pumped lines and their Zeeman-shifted detunings are read off the
field's single-drive Hamiltonian (`driven.build_single_drive_model`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsp, formulas
from .atom import DecayTable, LevelScheme, MagneticEnvironment, decay_rates
from .driven import DriveField, ModelError, build_single_drive_model
from .lindblad import steps


@dataclass(frozen=True)
class RateModel:
    """Rate matrix M (1/s) with dp/dt = M p; columns sum to zero."""

    matrix: np.ndarray
    labels: tuple[str, ...]
    initial: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        p = np.asarray(self.initial, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "initial", p)
        off = m - np.diag(np.diag(m))
        if off.min() < 0:
            raise ValueError("off-diagonal rates must be >= 0")
        if np.abs(m.sum(axis=0)).max() > 1e-9 * max(np.abs(m).max(), 1.0):
            raise ValueError("rate-matrix columns must sum to zero")

    def index(self, label: str) -> int:
        return self.labels.index(label)


def pump_rates(
    field: DriveField,
    scheme: LevelScheme,
    table: DecayTable,
    env: MagneticEnvironment,
) -> list[tuple[int, int, float]]:
    """Per-Zeeman-line scattering rates (from, to_excited, rate 1/s).

    Each line is a coupling H_ab of the field's single-drive Hamiltonian; it
    scatters at Rabi frequency 2|H_ab| and detuning H_aa - H_bb, which
    carries the line's differential Zeeman shift.  Every line scatters at the
    3S1 linewidth, so the field must drive a transition into 3S1."""
    low, high = sorted((scheme.levels[i] for i in field.transition), key=lambda lvl: lvl.energy)
    if high.manifold != "3S1":
        raise ModelError(f"rate model scatters via 3S1, not {low.manifold}-{high.manifold}")
    h = build_single_drive_model(field, scheme, None, env).hamiltonian
    out = []
    for line in zip(*np.nonzero(np.triu(h, 1))):
        a, b = sorted(map(int, line), key=lambda i: scheme.levels[i].energy)
        out.append((a, b, formulas.scattering_rate(2.0 * abs(h[a, b]), (h[a, a] - h[b, b]).real,
                                                   table.gamma_s)))
    return out


def build_rate_model(
    field: DriveField,
    scheme: LevelScheme,
    table: DecayTable,
    env: MagneticEnvironment | None = None,
) -> RateModel:
    """Rate matrix from optical pumping plus the decay table, starting in `up`."""
    env = env or MagneticEnvironment()
    n = scheme.n
    m = np.zeros((n, n))
    for i, j, rate in pump_rates(field, scheme, table, env):
        m[j, i] += rate
        m[i, i] -= rate
    for i, j, rate in decay_rates(scheme, table):
        m[j, i] += rate
        m[i, i] -= rate
    labels = tuple(scheme.label(i) for i in range(n))
    p0 = np.zeros(n)
    p0[labels.index("up")] = 1.0
    return RateModel(matrix=m, labels=labels, initial=p0)


def evolve_rates(model: RateModel, times) -> np.ndarray:
    """Populations at the requested times, shape (len(times), n)."""
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0) or times[0] < 0:
        raise ValueError("times must be increasing and nonnegative")
    return _populations(model.matrix, model.initial, times)


def _populations(matrix: np.ndarray, p0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Populations at increasing times >= 0, starting from `p0` at t = 0."""
    if times[0] > 0:
        return np.concatenate(list(steps(matrix, p0, np.concatenate(([0.0], times)))))[1:]
    return np.concatenate(list(steps(matrix, p0, times)))


def survival(model: RateModel, times) -> np.ndarray:
    pops = evolve_rates(model, times)
    i = model.index("up")
    return pops[:, i] / model.initial[i]


def fit_scattering_rate(
    times,
    data,
    field: DriveField,
    scheme: LevelScheme,
    table: DecayTable,
    env: MagneticEnvironment | None = None,
) -> dsp.FitResult:
    """Fit the rate model's scattering rate to a survival trace.

    The single parameter scales every pump rate together (their ratios are
    fixed by line strengths and Zeeman shifts), so the result is the m=0
    scattering rate.  Reports tau_max = 1/rate in meta; a non-decaying
    trace is flagged."""
    times = np.asarray(times, dtype=float)
    data = np.asarray(data, dtype=float)
    env = env or MagneticEnvironment()
    base = build_rate_model(field, scheme, table, env)
    rate0 = formulas.scattering_rate(field.rabi, field.detuning, table.gamma_s)
    pump = build_rate_model(field, scheme, DecayTable(gamma_s=table.gamma_s, channels=()), env)
    decay_only = base.matrix - pump.matrix
    pump_unit = pump.matrix / rate0
    i_up = base.index("up")

    def model_fn(t, gamma_sc):
        return _populations(decay_only + gamma_sc * pump_unit, base.initial, t)[:, i_up]

    slope0 = _initial_rate_guess(times, data)
    fit = dsp.nlls(model_fn, (times, data), [max(slope0, 1.0)], names=("gamma_sc",))
    gamma = fit.value("gamma_sc")
    meta = dict(fit.meta)
    meta["tau_max"] = 1.0 / gamma if gamma > 0 else np.inf
    meta["non_decaying"] = gamma <= 0 or data[-1] >= data[0]
    return dsp.FitResult(fit.names, fit.params, fit.uncertainties, fit.covariance,
                         fit.rss, fit.converged, fit.iterations, meta)


def _initial_rate_guess(times, data) -> float:
    floor = 1e-6
    y = np.clip(data, floor, None)
    pos = y > floor
    if pos.sum() < 2:
        return 1.0
    slope, _ = np.polyfit(times[pos], np.log(y[pos]), 1)
    return -slope
