"""Canonical experiment protocols: Rabi ensembles, Ramsey and echo scans,
Autler-Townes and CPT spectra, one-photon scattering decay and the
Landau-Zener sweep.

Quasi-static Rabi and detuning inhomogeneity is averaged over Gauss-Hermite
nodes; the coherence scans average slow OU detuning noise in closed form.
Far-detuned Raman pulses run on the adiabatically eliminated qubit model.
A linear detuning sweep is `landau_zener`, a product of closed-form SU(2)
steps, each kept as its two Cayley-Klein parameters.

Every scan steps its points as one stack: the coherence scans take all dark
times and ensemble members at once, a Rabi ensemble takes every row of a
detuning scan and its members at once, the Autler-Townes scan steps one
stack of models per power column, and the CPT scan solves one stack for its
steady states.  Each stack is one model with a member axis, built in one
broadcast pass from array-valued drive parameters (see `driven`).  Rabi
ensembles and coherence scans step their stack on the invariant block that
holds the initial state (`lindblad.model_block`) and find each level and
each pair of levels there through the model's labels.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import dsp, formulas
from .atom import DecayTable, LevelScheme, MagneticEnvironment
from .driven import (
    DriveField,
    ModelError,
    RamanConfig,
    RotatingFrameModel,
    build_effective_qubit_model,
    build_lambda_model,
    build_single_drive_model,
    elimination_applies,
    raman_config,
)
from .lindblad import (
    DensityMatrix,
    Trajectory,
    complex_entries,
    expm,
    model_block,
    model_steps,
    steady_state,
    steps,
)
from .units import TWO_PI


# ------------------------------------------------------------- ensembles

@dataclass(frozen=True)
class EnsembleSpec:
    """Quasi-static shot-to-shot inhomogeneity: a Gaussian fractional scale
    on the two-photon Rabi frequency plus a Gaussian two-photon detuning
    offset, averaged over `samples` Gauss-Hermite quadrature nodes per axis
    with a spread (the product grid when both have one), with matching
    weights, so the average is deterministic."""

    rabi_spread: float = 0.0
    delta_sigma: float = 0.0
    samples: int = 1

    def __post_init__(self):
        if self.rabi_spread < 0 or self.delta_sigma < 0:
            raise ValueError("spreads must be >= 0")
        if self.samples < 1:
            raise ValueError("sample count must be >= 1")


@dataclass(frozen=True)
class OUNoise:
    """Ornstein-Uhlenbeck two-photon detuning noise during the dark times."""

    sigma: float   # rad/s
    tau_c: float   # s

    def __post_init__(self):
        if self.sigma < 0 or self.tau_c <= 0:
            raise ValueError("need sigma >= 0 and tau_c > 0")


def member_average(values: np.ndarray, weights: np.ndarray, axis: int = 0) -> np.ndarray:
    """Weighted mean over the member axis `axis`, as np.average computes it."""
    values = np.asarray(values)
    w = weights.reshape(-1, *(1,) * (values.ndim - 1 - axis))
    return (values * w).sum(axis=axis) / weights.sum()


def _draws_and_weights(spec: EnsembleSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-member (rabi scale, delta offset) nodes (M, 2) and their
    normalised quadrature weights (M,)."""
    def axis(spread):
        # an axis without spread is a single node of weight 1 at no change
        if spread == 0.0:
            return np.zeros(1), np.ones(1)
        nodes, w = np.polynomial.hermite_e.hermegauss(spec.samples)
        return spread * nodes, w / w.sum()

    (scale, scale_w), (off, off_w) = axis(spec.rabi_spread), axis(spec.delta_sigma)
    sg, og = np.meshgrid(1.0 + scale, off, indexing="ij")
    return np.column_stack([sg.ravel(), og.ravel()]), np.outer(scale_w, off_w).ravel()


def _ou_moments(ou: OUNoise, span) -> tuple[np.ndarray, np.ndarray]:
    """Variance of the OU phase accumulated over a span h from a stationary
    start, 2 sigma^2 tau^2 (h/tau - 1 + e^{-h/tau}), and the covariance of
    the phases of two adjacent spans h, sigma^2 tau^2 (1 - e^{-h/tau})^2;
    h/tau - 1 + e^{-h/tau} is summed as x + expm1(-x), which keeps its
    digits at short spans (Klauder and Anderson, Phys. Rev. 125, 912, 1962;
    Cywinski et al., Phys. Rev. B 77, 174509, 2008)."""
    x = np.asarray(span, dtype=float) / ou.tau_c
    scale = (ou.sigma * ou.tau_c) ** 2
    return 2.0 * scale * (x + np.expm1(-x)), scale * np.expm1(-x) ** 2


# ------------------------------------------------------------------ pulses

def pulse_duration(config: RamanConfig, kind: str = "pi") -> float:
    """Pi or pi/2 pulse duration from the effective Rabi frequency."""
    rabi = formulas.raman_rabi(config.up.rabi, config.down.rabi, config.delta_one)
    if rabi == 0.0:
        raise ModelError("cannot size a pulse at zero effective Rabi frequency")
    if kind == "pi":
        return math.pi / rabi
    if kind == "pi/2":
        return math.pi / (2.0 * rabi)
    raise ValueError(f"unknown pulse kind {kind!r}")


# ----------------------------------------------------------- Landau-Zener

# steps per chunk of the sweep product, which bounds its working arrays
_LZ_CHUNK = 1 << 14
# most steps of a sweep's first pass, 2 per unit of sweep_range_hz x duration;
# its doublings reach 8 times that (fig1c reaches 204 800 steps after them)
_LZ_MAX_STEPS = 1 << 22


@dataclass(frozen=True)
class LZResult:
    fidelity: float
    regime_warning: bool


def landau_zener(
    rabi: float,
    sweep_range_hz: float,
    duration: float,
) -> LZResult:
    """Transfer fidelity of a linear sweep symmetric about resonance.

    Propagates the driven two-level state with midpoint-sampled
    piecewise-constant steps (exact within each step), multiplied in chunks
    as SU(2) Cayley-Klein pairs, and refines the step count until the
    fidelity changes by less than 2e-5.  The first pass takes 2 steps per
    unit of sweep_range_hz x duration, at least 20 000; a sweep that needs
    more than `_LZ_MAX_STEPS` is rejected before any step runs.  The
    closed-form sweep probability is only reached for sweep ranges well
    beyond the Rabi frequency; a warning flag is set when the range is
    smaller than the coupling."""
    for name, value in (("rabi", rabi), ("sweep_range_hz", sweep_range_hz), ("duration", duration)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if rabi < 0:
        raise ValueError("Rabi frequency must be >= 0")
    if duration <= 0 or sweep_range_hz <= 0:
        raise ValueError("sweep range and duration must be positive")
    span = sweep_range_hz * duration
    if 2 * span > _LZ_MAX_STEPS:
        raise ValueError(f"sweep_range_hz x duration = {span:.6g} needs {2 * span:.6g} steps, "
                         f"more than the limit of {_LZ_MAX_STEPS}")
    warn = TWO_PI * sweep_range_hz < rabi
    if rabi == 0.0:
        return LZResult(fidelity=0.0, regime_warning=warn)
    n = max(20_000, int(2 * span))
    f_prev = _lz_sweep(rabi, sweep_range_hz, duration, n)
    for _ in range(3):
        n *= 2
        f_next = _lz_sweep(rabi, sweep_range_hz, duration, n)
        if abs(f_next - f_prev) < 2e-5:
            return LZResult(f_next, warn)
        f_prev = f_next
    return LZResult(f_prev, warn)


def _lz_sweep(rabi: float, sweep_range_hz: float, duration: float, n: int) -> float:
    """Transfer fidelity of n midpoint steps, as the ordered product of their
    SU(2) parts, chunk by chunk.  The step for H = [[0, rabi/2], [rabi/2, -det]]
    is e^{i det dt/2} [[alpha, -conj(beta)], [beta, conj(alpha)]], with the
    Cayley-Klein parameters alpha = cos(theta) - i (det/2) sinc and
    beta = -i (rabi/2) sinc, theta = |a| dt, sinc = sin(theta)/|a|, |a| =
    hypot(rabi, det)/2 (Goldstein, Classical Mechanics, 3rd ed., 4.5).  The
    phases have modulus 1 and leave 1 - |alpha|^2 as it is: they are dropped."""
    dt = duration / n
    a, b = 1.0 + 0.0j, 0.0 + 0.0j
    for start in range(0, n, _LZ_CHUNK):
        t_mid = (np.arange(start, min(start + _LZ_CHUNK, n)) + 0.5) * dt
        det = TWO_PI * sweep_range_hz * (t_mid / duration - 0.5)
        amag = 0.5 * np.hypot(rabi, det)
        theta = amag * dt
        sinc = np.sin(theta) / amag
        alpha, beta = np.empty(len(det), complex), np.zeros(len(det), complex)
        alpha.real, alpha.imag, beta.imag = np.cos(theta), -0.5 * det * sinc, -0.5 * rabi * sinc
        # the state, unit and started in |g>, is the first column of a product
        a, b = _cayley_klein_product(*_pairwise_product(alpha, beta), a, b)
    return 1.0 - abs(a) ** 2


def _cayley_klein_product(alpha_l, beta_l, alpha_e, beta_e):
    """Cayley-Klein parameters (alpha, beta) of the SU(2) product later x earlier."""
    return (alpha_l * alpha_e - beta_l.conjugate() * beta_e,
            beta_l * alpha_e + alpha_l.conjugate() * beta_e)


def _pairwise_product(alpha, beta):
    """Cayley-Klein parameters of the ordered product M[L-1] ... M[1] M[0] of
    L SU(2) matrices, each given as its pair over the steps.

    Each round multiplies neighbours, later x earlier, halving the stack; an
    odd stack is padded with the identity, (1, 0).  The product is
    associative, so only the rounding differs from stepping a state through
    the matrices one by one (a pairwise tree reduction; Blelloch, CMU-CS-90-190, 1990)."""
    while len(alpha) > 1:
        if len(alpha) % 2:
            alpha, beta = np.append(alpha, 1.0), np.append(beta, 0.0)
        alpha, beta = _cayley_klein_product(alpha[1::2], beta[1::2], alpha[0::2], beta[0::2])
    return alpha[0], beta[0]


# ------------------------------------------------- coherence (Ramsey/echo)

def _phase_rotation_vec(dim: int, level: int, phi, block: np.ndarray) -> np.ndarray:
    """Diagonal of the vectorized conjugation by the phase e^{i phi} on one
    level, at the vec positions `block` (the pair (a, b) at a * dim + b gains
    e^{i phi} per a == level and e^{-i phi} per b == level); an array of
    phases gives one diagonal each, (*phi.shape, len(block))."""
    phi = np.asarray(phi, dtype=float)
    d = np.ones((*phi.shape, dim), dtype=complex)
    d[..., level] = np.exp(1j * phi)
    a, b = np.divmod(block, dim)
    return d[..., a] * d[..., b].conj()


def _drive_rows(config: RamanConfig) -> tuple[int, ...]:
    """The shape that the drive parameters of both fields broadcast to: ()
    for one drive, (D,) for a scan of D rows."""
    return np.broadcast(*(np.asarray(getattr(f, k)) for f in (config.up, config.down)
                          for k in ("rabi", "detuning", "phase"))).shape


def _member_models(config: RamanConfig, table: DecayTable,
                   draws: np.ndarray) -> tuple[RotatingFrameModel, np.ndarray]:
    """The stack of eliminated qubit models of the (scale, offset) draws, and
    each member's two-photon detuning (M,).

    The scale multiplies the two-photon Rabi frequency, so each one-photon
    amplitude carries sqrt(scale), clipped at 0; the offset shifts the down
    detuning.  Drive parameters with a leading (D,) row axis give D * M
    members, row by row: row d's members are d * M to d * M + M - 1."""
    rows = _drive_rows(config)

    def per_member(value):
        return np.broadcast_to(np.expand_dims(value, -1), (*rows, len(draws)))

    root = np.sqrt(np.maximum(draws[:, 0], 0.0))
    up, down = config.up, config.down
    members = RamanConfig(
        up=replace(up, rabi=(per_member(up.rabi) * root).ravel(),
                   detuning=per_member(up.detuning).ravel(), phase=per_member(up.phase).ravel()),
        down=replace(down, rabi=(per_member(down.rabi) * root).ravel(),
                     detuning=(per_member(down.detuning) - draws[:, 1]).ravel(),
                     phase=per_member(down.phase).ravel()))
    return build_effective_qubit_model(members, table), members.delta_two


def _apply(ops: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector products, (..., n, n) @ (..., n)."""
    return (ops @ vecs[..., None])[..., 0]


def ramsey_phase_scan(
    dark_time,
    phases,
    config: RamanConfig,
    table: DecayTable,
    ensemble: EnsembleSpec | None = None,
    ou: OUNoise | None = None,
) -> np.ndarray:
    """Population in `up` after pi/2 - dark(T) - pi/2(phase).

    `dark_time` is a scalar or an array of dark times; the result has shape
    (*np.shape(dark_time), len(phases)), one row of phases per dark time."""
    return _two_pulse_scan(dark_time, phases, config, table, ensemble, ou, echo=False)


def spin_echo_scan(
    dark_time,
    phases,
    config: RamanConfig,
    table: DecayTable,
    ensemble: EnsembleSpec | None = None,
    ou: OUNoise | None = None,
) -> np.ndarray:
    """Ramsey scan with a rephasing pi pulse inserted at T/2; the result has
    shape (*np.shape(dark_time), len(phases)) as in `ramsey_phase_scan`."""
    return _two_pulse_scan(dark_time, phases, config, table, ensemble, ou, echo=True)


def _two_pulse_scan(dark_time, phases, config, table, ensemble, ou, echo: bool) -> np.ndarray:
    """Every member and dark time in one stack: members on axis 0, dark
    times on the next axes and phases last, averaged over the members.

    The states live on the eliminated model's invariant block that holds the
    `up` state (`lindblad.model_block`): the up/down populations and
    coherences and the `lost` population, 5 of the 9 vec entries.  All
    members' pi/2-pulse propagators come from one `lindblad.expm` call on
    the stacked (M, 5, 5) real block generators, each taken to the block's
    complex entries as T expm(G t) T^-1.  A dark segment gives the down
    level a phase, and the final pulse's phase turns the up level before
    and back after it, each a diagonal on the block's entries.

    The OU noise is averaged in closed form.  The entry of the pair (a, b)
    carries the charge n = (a == down) - (b == down), so a dark phase phi
    multiplies it by e^{i n phi}, and a Gaussian phase averages that to
    exp(-n^2 V / 2) (`_ou_moments`).  In an echo the state after the first
    half is split by charge n, each part goes through the pi pulse, and an
    entry of charge m after the second half gains
    exp(-(n^2 V + m^2 V + 2 n m C) / 2), with C the covariance of the two
    halves' phases; the parts are then summed."""
    if not elimination_applies(config, table):
        warnings.warn("coherence scans assume the far-detuned regime",
                      formulas.RegimeWarning, stacklevel=3)
    dark_time = np.asarray(dark_time, dtype=float)
    phases = np.asarray(phases, dtype=float)
    t_half = pulse_duration(config, "pi/2")
    draws, weights = _draws_and_weights(ensemble or EnsembleSpec())
    model, delta = _member_models(config, table, draws)
    up, down = model.index("up"), model.index("down")
    block, lv, vec = model_block(model, DensityMatrix.pure(model.dim, up).matrix)
    a, b = np.divmod(block, model.dim)
    # T and T^-1 = T^H / |T's columns|^2 between the real basis and the block's entries
    t = complex_entries(np.eye(len(block)), block, model.dim).T
    t_inv = t.conj().T / np.where(a == b, 1.0, 2.0)[:, None]
    # each member's axis broadcasts against the dark-time axes
    grid = (len(draws), *(1,) * dark_time.ndim)
    u_half = (t @ expm(lv * t_half) @ t_inv).reshape(*grid, len(block), len(block))
    vec = _apply(u_half, complex_entries(vec, block, model.dim).reshape(*grid, len(block)))
    charge = (a == down).astype(int) - (b == down)
    # one dark span: the whole dark time, or each echo half
    span = dark_time / 2 if echo else dark_time
    turn = _phase_rotation_vec(model.dim, down, delta.reshape(grid) * span, block)
    # the OU moments per dark time against the block's entries; without
    # noise, sigma = 0 makes both exactly 0
    var, cov = _ou_moments(ou or OUNoise(0.0, 1.0), span[..., None])
    if echo:
        n = np.arange(-1, 2).reshape(3, *(1,) * vec.ndim)
        parts = _apply(u_half, _apply(u_half, np.where(charge == n, turn * vec, 0.0)))
        damp = np.exp(-0.5 * ((n * n + charge * charge) * var + 2 * n * charge * cov))
        vec = turn * (damp * parts).sum(axis=0)
    else:
        vec = turn * vec * np.exp(-0.5 * charge * charge * var)
    # the final pulse at each phase; only its up-population row is needed
    rot = _phase_rotation_vec(model.dim, up, phases, block)
    row = block.searchsorted(up * (model.dim + 1))
    pulsed = ((rot.conj() * vec[..., None, :]) @ u_half[..., row, :, None])[..., 0]
    return member_average((rot[:, row] * pulsed).real, weights)


def ramsey_time_scan(dark_times, config: RamanConfig, table: DecayTable) -> np.ndarray:
    """Fixed-phase Ramsey fringe vs dark time of one atom; oscillates at the
    two-photon detuning (plus any light-shift offsets)."""
    return _two_pulse_scan(dark_times, [0.0], config, table, None, None, echo=False)[..., 0]


def ramsey_contrast(populations: np.ndarray, phases) -> float:
    """Fringe contrast amplitude / offset of a phase scan, from the linear
    least-squares fit of offset + amplitude cos(x + phase).

    The N >= 5 phases must spread evenly over one period: the sums of
    e^{i x_k} and of e^{2i x_k} vanish, as they do for x_k = x_0 + 2 pi k / N
    in any order.  Then cos x and sin x are orthogonal to each other and to
    the constant, so the fit is closed form: the offset is the mean and the
    amplitude 2|z|/N, with z = sum_k (y_k - offset) e^{-i x_k} the first
    DFT coefficient."""
    x = np.asarray(phases, dtype=float)
    y = np.asarray(populations, dtype=float)
    n = len(x)
    if n < 5:
        raise dsp.FitError(f"a phase scan needs at least 5 phases, got {n}")
    sums = np.abs([np.exp(1j * x).sum(), np.exp(2j * x).sum()])
    if not sums.max() <= 1e-9 * n:
        raise dsp.FitError("the phases must spread evenly over one period: |sum e^(ix)| and "
                           f"|sum e^(2ix)| must vanish, got {sums[0]:.3g} and {sums[1]:.3g}")
    if not np.isfinite(y).all():
        raise dsp.FitError("phase-scan populations must be finite")
    off = y.mean()
    z = np.sum((y - off) * np.exp(-1j * x))
    return float(2.0 * abs(z) / n / off) if off != 0 else math.inf


# -------------------------------------------------------- Autler-Townes

@dataclass(frozen=True)
class ATScanResult:
    powers_mw: np.ndarray            # (n_powers,)
    detunings: np.ndarray            # (n_powers, 161) rad/s, each spectrum's own axis
    spectra: np.ndarray              # (n_powers, 161) loss signal
    splittings: tuple[float | None, ...]  # rad/s, None when unresolved
    dressing_rabis: np.ndarray       # rad/s, from the power calibration


def autler_townes_scan(
    powers_mw,
    calibration: float,
    scheme: LevelScheme,
    table: DecayTable,
    probe_rabi: float,
    strong: str,
) -> ATScanResult:
    """Probe spectra against a strong resonant dressing field.

    `calibration` maps laser power to the dressing Rabi frequency,
    rad/s per sqrt(mW), and `strong` names the dressed leg, "up" or
    "down".  The probe, of Rabi frequency `probe_rabi`, is weak, and the
    signal is the population that decayed out of the Lambda system (the
    atoms detected in the ground state).  Each power column spans 161
    detunings over +-1.6 max(dressing Rabi, linewidth), and its models are
    built and stepped as one stack.  Per power column the two dressed resonances are
    fitted and their separation reported; below the natural linewidth the
    doublet is unresolved and the splitting is None.
    """
    if probe_rabi > table.gamma_s / 10.0:
        warnings.warn("probe exceeds gamma_s/10; extraction accuracy degrades",
                      formulas.RegimeWarning, stacklevel=2)
    if strong not in ("up", "down"):
        raise ValueError("strong must be 'up' or 'down'")
    powers_mw = np.asarray(powers_mw, dtype=float)
    rabis = calibration * np.sqrt(powers_mw)
    t_probe = table.gamma_s / probe_rabi**2

    axes, spectra, splittings = [], [], []
    for rabi_s in rabis:
        span = 1.6 * max(rabi_s, table.gamma_s)
        dets = np.linspace(-span, span, 161)
        if strong == "down":
            cfg = raman_config(scheme, probe_rabi, rabi_s, dets, dets)
        else:
            cfg = raman_config(scheme, rabi_s, probe_rabi, 0.0, dets)
        model = build_lambda_model(cfg, scheme, table, mode="lossy")
        dim = model.dim
        rho0 = DensityMatrix.pure(dim, model.index("up" if strong == "down" else "down"))
        *_, final = model_steps(model, rho0.matrix, [0.0, t_probe])
        signal = final[:, model.index("lost") * (dim + 1)].real
        axes.append(dets)
        spectra.append(signal)
        if rabi_s < table.gamma_s:
            splittings.append(None)
        else:
            splittings.append(_two_peak_separation(dets, signal, rabi_s, table.gamma_s))
    return ATScanResult(
        powers_mw=powers_mw,
        detunings=np.vstack(axes),
        spectra=np.vstack(spectra),
        splittings=tuple(splittings),
        dressing_rabis=rabis,
    )


def _double_lorentzian(x, amp1, c1, amp2, c2, fwhm, offset):
    return (
        amp1 / (1.0 + (2.0 * (x - c1) / fwhm) ** 2)
        + amp2 / (1.0 + (2.0 * (x - c2) / fwhm) ** 2)
        + offset
    )


def _two_peak_separation(dets, signal, rabi_guess, gamma) -> float | None:
    p0 = [signal.max(), -rabi_guess / 2, signal.max(), rabi_guess / 2, gamma, 0.0]
    try:
        fit = dsp.nlls(
            _double_lorentzian, (dets, signal), p0,
            names=("amp1", "c1", "amp2", "c2", "fwhm", "offset"),
        )
    except dsp.FitError:
        return None
    sep = abs(fit.value("c2") - fit.value("c1"))
    if not fit.converged or sep < fit.value("fwhm") / 2:
        return None
    return float(sep)


# ------------------------------------------------------------------- CPT

def cpt_scan(
    rabi_up: float,
    rabi_down: float,
    delta_grid,
    scheme: LevelScheme,
    table: DecayTable,
) -> np.ndarray:
    """Steady-state excited population vs two-photon detuning.

    With the up laser resonant and weak fields, the spectrum shows the
    dark-resonance dip reaching zero at delta = 0.  Every detuning's closed
    model is one member of a stack, solved in one batched steady state."""
    if max(rabi_up, rabi_down) > table.gamma_s / 5.0:
        warnings.warn("CPT scan assumes weak fields", formulas.RegimeWarning, stacklevel=2)
    cfg = raman_config(scheme, rabi_up, rabi_down, 0.0, np.asarray(delta_grid, dtype=float))
    model = build_lambda_model(cfg, scheme, table, mode="closed")
    return steady_state(model).populations()[:, model.index("s")]


# -------------------------------------------------------- one-photon decay

def scattering_decay(
    field: DriveField,
    times,
    scheme: LevelScheme,
    table: DecayTable,
    env: MagneticEnvironment,
) -> np.ndarray:
    """Survival N_up(t)/N_up(0) under a single drive on the full scheme.

    Includes optical pumping among the Zeeman sublevels and recycling via
    the intermediate manifold back to the ground state."""
    times = np.asarray(times, dtype=float)
    if times.size == 0 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be non-empty, start at 0 and increase")
    model = build_single_drive_model(field, scheme, table, env)
    i_up = model.index("up")
    rho0 = DensityMatrix.pure(model.dim, i_up).matrix
    vecs = np.array(list(model_steps(model, rho0, times)))
    return vecs[:, i_up * (model.dim + 1)].real


# ------------------------------------------------------- ensemble wrapper

def run_rabi_ensemble(
    config: RamanConfig,
    table: DecayTable,
    duration,
    n_samples: int,
    ensemble: EnsembleSpec,
) -> Trajectory | list[Trajectory]:
    """Ensemble-averaged Rabi trace on the eliminated qubit model.

    Every member steps together on the invariant block that holds the `up`
    state (`lindblad.model_block`).  The members' populations are read off
    each block of consecutive samples that `lindblad.steps` yields, and the
    block's rows are averaged over their members in one `member_average`
    call, bit-equal to averaging each row's members sample by sample; only
    the mean populations are kept.

    A scan is one stack: drive parameters (a detuning scan's detunings) with
    a leading (D,) row axis, and `duration` a scalar or (D,), give D rows of
    the ensemble's M members, and one Trajectory per row, each bit-equal to
    its own scalar call.  Each row samples `np.linspace(0, duration, n)` of
    its own duration, so its generator is scaled by its own sample gap and
    the whole stack steps the unit grid 0, 1, ..., n - 1 (x * 1.0 is exact,
    so every propagator is the one the row's own grid gives).  Each row's
    members are averaged in the member order of the scalar call.  Every
    duration must be positive and `n_samples` >= 1."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rows = _drive_rows(config)
    if len(rows) > 1:
        raise ValueError(f"drive parameters may carry one row axis, got shape {rows}")
    durations = np.broadcast_to(np.asarray(duration, dtype=float), rows).reshape(-1).tolist()
    for row, value in enumerate(durations):
        if not value > 0.0:
            where = f"row {row}: " if rows else ""
            raise ValueError(f"{where}duration must be positive, got {value}")
    times = [np.linspace(0.0, value, n_samples) for value in durations]
    draws, weights = _draws_and_weights(ensemble)
    model, _ = _member_models(config, table, draws)
    block, lv, vec0 = model_block(model, DensityMatrix.pure(model.dim, model.index("up")).matrix)
    # the gap each row's own grid steps by; a single sample steps no gap
    gaps = np.array([t[1] - t[0] if n_samples > 1 else 0.0 for t in times])
    lv = lv * np.repeat(gaps, len(draws))[:, None, None]
    # each population's position among the block's entries
    populations = block.searchsorted(np.arange(model.dim) * (model.dim + 1))
    mean = np.empty((len(times), n_samples, model.dim))
    k = 0
    for states in steps(lv, vec0, np.arange(n_samples, dtype=float)):
        # C-ordered (rows, members, samples, levels), so each sample's sum
        # over a row's members runs in member order, as it does for one
        # sample's (members, levels) array; `states[..., populations]` is not
        # C-ordered, and its sums round differently
        pops = states.take(populations, -1).reshape(len(times), len(draws), -1, model.dim)
        mean[:, k:k + pops.shape[2]] = member_average(pops, weights, axis=1)
        k += pops.shape[2]
    trajectories = [Trajectory(times=t, populations=dict(zip(model.labels, m.T)))
                    for t, m in zip(times, mean)]
    return trajectories if rows else trajectories[0]
