"""Classical rate-equation model of single-laser optical pumping.

Population-only dynamics on the full sublevel set: the drive pumps each
addressable Zeeman line at its off-resonant scattering rate, decay follows
the branching table, and the intermediate manifold recycles population to
the ground state.  Used to extract scattering rates from decay traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsp, formulas
from .atom import DecayTable, LevelScheme, MagneticEnvironment, decay_rates, zeeman_shift
from .driven import DriveField, ModelError, _pi_coupling_ratio
from .lindblad import propagate


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

    Line strengths scale with the pi-coupling ratios; each line's detuning
    includes its differential Zeeman shift, which barely matters at GHz
    detunings but is carried anyway.  Every line scatters at the 3S1
    linewidth, so the field must drive a transition into 3S1."""
    lo, hi = field.transition
    low_lvl, high_lvl = scheme.levels[lo], scheme.levels[hi]
    if low_lvl.energy > high_lvl.energy:
        low_lvl, high_lvl = high_lvl, low_lvl
    if high_lvl.manifold != "3S1":
        raise ModelError(f"rate model scatters via 3S1, not {low_lvl.manifold}-{high_lvl.manifold}")
    out = []
    j_max = min(low_lvl.j, high_lvl.j)
    z_low0 = zeeman_shift(scheme.levels[scheme.index(low_lvl.manifold, low_lvl.m_j)], env)
    z_high0 = zeeman_shift(scheme.levels[scheme.index(high_lvl.manifold, high_lvl.m_j)], env)
    for m in range(-j_max, j_max + 1):
        if not (scheme.has(low_lvl.manifold, m) and scheme.has(high_lvl.manifold, m)):
            continue
        ratio = _pi_coupling_ratio(low_lvl.j, high_lvl.j, m)
        if ratio == 0.0:
            continue
        i_lo = scheme.index(low_lvl.manifold, m)
        i_hi = scheme.index(high_lvl.manifold, m)
        z_line = (zeeman_shift(scheme.levels[i_hi], env) - z_high0) - (
            zeeman_shift(scheme.levels[i_lo], env) - z_low0
        )
        det = field.detuning - z_line
        rate = formulas.scattering_rate(field.rabi * abs(ratio), det, table.gamma_s)
        out.append((i_lo, i_hi, rate))
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
        return propagate(matrix, p0, np.concatenate(([0.0], times)))[1:]
    return propagate(matrix, p0, times)


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
