import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from fsqubit import driven, dsp, formulas, lindblad, sequences
from fsqubit.config import parse_csv
from fsqubit.harness import presets
from fsqubit.lindblad import DensityMatrix
from fsqubit.units import TWO_PI


PHASES = np.linspace(0, 2 * math.pi, 12, endpoint=False)


# ------------------------------------------------------------------ pulses

def _phased(config, dphase_up):
    """`config` with the up field's phase advanced by `dphase_up`."""
    return driven.RamanConfig(replace(config.up, phase=config.up.phase + dphase_up), config.down)


def _final_state(pulses, rho0, model_states):
    """The density matrix after each (model, duration) pulse in turn, every
    pulse stepped on an 11-point grid from the state the last one left."""
    for model, duration in pulses:
        rho0 = model_states(model, rho0, np.linspace(0.0, duration, 11))[-1]
    return rho0


def test_single_drive_damped_cosine_starts_at_one(fig3_config, table, model_states):
    t_pi = sequences.pulse_duration(fig3_config, "pi")
    model = driven.build_effective_qubit_model(fig3_config, table)
    times = np.linspace(0.0, 40 * t_pi, 841)
    i = model.index("up")
    up = model_states(model, DensityMatrix.pure(model.dim, i).matrix, times)[:, i, i].real
    assert up[0] == pytest.approx(1.0)
    # oscillates with near-full contrast at the effective Rabi frequency
    fit = dsp.extract_rabi(dsp.Trace(dt=times[1] - times[0], samples=up))
    assert abs(fit.omega / (TWO_PI * 108e3) - 1.0) < 0.02
    assert up[:30].min() < 0.02


def test_dark_only_sequence_preserves_state(lam, table, model_states):
    model = driven.build_lambda_model(driven.raman_config(lam, 0.0, 0.0, 0.0, 0.0), lam, table,
                                      mode="lossy")
    i = model.index("up")
    states = model_states(model, DensityMatrix.pure(model.dim, i).matrix, np.linspace(0.0, 1e-3, 21))
    assert np.abs(states[:, i, i].real - 1.0).max() < 1e-12


def test_rotation_unrotation_composition(fig3_config, no_decay, model_states):
    # pi/2, then pi/2 with the up phase turned by pi: the second pulse undoes the first
    t_half = sequences.pulse_duration(fig3_config, "pi/2")
    pulses = [(driven.build_effective_qubit_model(cfg, no_decay), t_half)
              for cfg in (fig3_config, _phased(fig3_config, math.pi))]
    final = _final_state(pulses, DensityMatrix.pure(3, 0).matrix, model_states)
    assert abs(DensityMatrix(final).population(0) - 1.0) < 1e-6


def test_concatenation_associativity(fig3_config, table, model_states):
    t_half = sequences.pulse_duration(fig3_config, "pi/2")
    drive = driven.build_effective_qubit_model(fig3_config, table)
    dark = driven.build_effective_qubit_model(
        driven.RamanConfig(replace(fig3_config.up, rabi=0.0), replace(fig3_config.down, rabi=0.0)),
        table)
    seg_a, seg_b, seg_c = (drive, t_half), (dark, 5e-6), (drive, 2 * t_half)
    rho0 = DensityMatrix.pure(3, drive.index("up")).matrix
    full = _final_state([seg_a, seg_b, seg_c], rho0, model_states)
    part1 = _final_state([seg_a, seg_b], rho0, model_states)
    # the third segment, stepped on its own from where the first two left off
    *_, final = lindblad.model_steps(drive, part1, [0.0, seg_c[1]])
    assert np.abs(final.reshape(3, 3) - full).max() < 1e-10


def test_readout_invariant_under_global_phase(fig3_config, table, model_states):
    t_half = sequences.pulse_duration(fig3_config, "pi/2")
    model = driven.build_effective_qubit_model(fig3_config, table)
    times = np.linspace(0.0, t_half, 11)
    base = DensityMatrix.from_state([1.0, 0.0, 0.0])
    phased = DensityMatrix.from_state([np.exp(1j * 0.83), 0.0, 0.0])
    a = model_states(model, base.matrix, times)
    b = model_states(model, phased.matrix, times)
    for k in ("up", "down"):
        i = model.index(k)
        assert np.abs(a[:, i, i] - b[:, i, i]).max() < 1e-12


def test_phase_covariance_of_populations(fig3_config, table, model_states):
    # a never-interfered drive phase cannot change populations
    t_pi = sequences.pulse_duration(fig3_config, "pi")
    times = np.linspace(0.0, t_pi, 21)
    plain, shifted = (driven.build_effective_qubit_model(cfg, table)
                      for cfg in (fig3_config, _phased(fig3_config, 1.23)))
    rho0 = DensityMatrix.pure(3, plain.index("up")).matrix
    a = model_states(plain, rho0, times)
    b = model_states(shifted, rho0, times)
    for k in ("up", "down"):
        i = plain.index(k)
        assert np.abs(a[:, i, i] - b[:, i, i]).max() < 1e-10


# one defect each, with the message that names it; the eliminated qubit
# basis of fig3_config is 3-dimensional.  A pulse's final state is handed on
# as the initial state of further stepping (see test_concatenation_associativity),
# and `DensityMatrix.validate` is the check such an initial state passes.
@pytest.mark.parametrize("matrix, message", [
    pytest.param([[1.0, 0.1, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], "not Hermitian",
                 id="not_hermitian"),
    pytest.param(np.diag([0.5, 0.6, 0.0]), "trace differs from 1", id="trace_not_one"),
    pytest.param(np.diag([1.2, -0.2, 0.0]), "negative eigenvalue", id="negative_eigenvalue"),
])
def test_run_and_evolve_reject_invalid_initial_state(matrix, message, fig3_config, table,
                                                     model_states):
    model = driven.build_effective_qubit_model(fig3_config, table)
    rho_up = DensityMatrix.pure(model.dim, model.index("up")).matrix
    handed_on = DensityMatrix(_final_state([(model, 1e-6)], rho_up, model_states))
    assert handed_on.dim == len(model.labels) == 3
    handed_on.validate()
    rho0 = DensityMatrix(np.array(matrix))
    assert rho0.dim == len(model.labels)
    with pytest.raises(lindblad.StateError, match=message):
        rho0.validate()


def test_rabi_ensemble_rejects_an_empty_grid_and_a_nonpositive_duration(fig3_config, table):
    spec = sequences.EnsembleSpec(rabi_spread=0.004, samples=4)
    with pytest.raises(ValueError, match="n_samples must be >= 1, got 0"):
        sequences.run_rabi_ensemble(fig3_config, table, 1e-4, 0, spec)
    for duration in (0.0, -1e-4):
        with pytest.raises(ValueError, match="duration must be positive"):
            sequences.run_rabi_ensemble(fig3_config, table, duration, 11, spec)


# ------------------------------------------------------------ Landau-Zener

def test_lz_zero_rabi():
    assert sequences.landau_zener(0.0, 4e3, 50e-3).fidelity == 0.0


def test_lz_regime_warning_flag():
    res = sequences.landau_zener(TWO_PI * 10e3, 4e3, 50e-3)
    assert res.regime_warning
    assert not sequences.landau_zener(TWO_PI * 100.0, 4e3, 50e-3).regime_warning


def test_lz_monotone_with_duration():
    fast = sequences.landau_zener(TWO_PI * 173.0, 4e3, 25e-3).fidelity
    slow = sequences.landau_zener(TWO_PI * 173.0, 4e3, 250e-3).fidelity
    assert slow > fast


def test_lz_paper_point_wide_sweep(lz_rabi_for_fidelity):
    # the calibrated coupling reproduces the reference transfer fidelity once
    # the sweep range is far beyond the coupling
    ramp = TWO_PI * 80e3
    rabi = lz_rabi_for_fidelity(0.975, ramp)
    span = 64e3
    res = sequences.landau_zener(rabi, span, TWO_PI * span / ramp)
    assert abs(res.fidelity - 0.975) < 2e-3


def test_lz_matches_formula_within_half_percent():
    ramp = TWO_PI * 80e3
    span = 64e3
    duration = TWO_PI * span / ramp
    for f in (50.0, 173.0, 400.0):
        rabi = TWO_PI * f
        sim = sequences.landau_zener(rabi, span, duration).fidelity
        assert abs(sim - formulas.lz_probability(rabi, ramp)) < 5e-3


def test_lz_matches_rk45_sweep(rk45):
    # the paper's sweep, 4 kHz in 50 ms, against the time-dependent
    # generator -iH(t), H = [[0, rabi/2], [rabi/2, -det(t)]], integrated by RK45
    rabi, span, duration = TWO_PI * 172.92, 4e3, 50e-3

    def generator(t):
        det = TWO_PI * span * (t / duration - 0.5)
        return -1j * np.array([[0.0, rabi / 2], [rabi / 2, -det]])

    psi = rk45(generator, [1.0, 0.0], [0.0, duration], rtol=1e-9, atol=1e-12)[-1]
    assert abs(sequences.landau_zener(rabi, span, duration).fidelity
               - (1.0 - abs(psi[0]) ** 2)) < 1e-6


def test_lz_finite_range_oscillation_shrinks_with_range():
    # at 80 Hz/ms the finite sweep range leaves an interference oscillation
    # about the closed form that a 64 kHz range, but not a 4 kHz one, removes
    # (the claim scripts/lz_sweep_study.py prints)
    rabi, ramp = TWO_PI * 172.92, TWO_PI * 80e3
    analytic = formulas.lz_probability(rabi, ramp)
    deviation = {span: abs(sequences.landau_zener(rabi, span, TWO_PI * span / ramp).fidelity
                           - analytic) for span in (4e3, 64e3)}
    assert deviation[4e3] > 5e-3
    assert deviation[64e3] < 1e-3


def _lz_sweep_stepwise(rabi, sweep_range_hz, duration, n):
    # the state stepped through each midpoint SU(2) matrix in turn
    dt = duration / n
    det = TWO_PI * sweep_range_hz * ((np.arange(n) + 0.5) * dt / duration - 0.5)
    amag = 0.5 * np.hypot(rabi, det)
    cos_t = np.cos(amag * dt)
    sinc = np.sin(amag * dt) / amag
    az, ax = det / 2.0, rabi / 2.0
    phase = np.exp(1j * det * dt / 2.0)
    u00 = phase * (cos_t - 1j * sinc * az)
    u01 = phase * (-1j * sinc * ax)
    u11 = phase * (cos_t + 1j * sinc * az)
    a, b = 1.0 + 0.0j, 0.0 + 0.0j
    for k in range(n):
        a, b = u00[k] * a + u01[k] * b, u01[k] * a + u11[k] * b
    return 1.0 - abs(a) ** 2


@pytest.mark.parametrize("n", [1, 2, 3, 2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 5])
def test_lz_sweep_matches_stepwise_product(n):
    # odd stacks and chunk edges; the pairwise product only reorders rounding
    args = (TWO_PI * 172.92, 4e3, 50e-3, n)
    assert abs(sequences._lz_sweep(*args) - _lz_sweep_stepwise(*args)) < 1e-13


@settings(max_examples=60, deadline=None)
@given(rabi=st.floats(1.0, TWO_PI * 2e3), span=st.floats(10.0, 1e5),
       duration=st.floats(1e-4, 0.5), n=st.integers(1, 200))
def test_lz_sweep_matches_stepwise_product_at_random_sweeps(rabi, span, duration, n):
    # dropping each step's phase leaves 1 - |a|^2 of the U(2) product as it is
    args = (rabi, span, duration, n)
    assert abs(sequences._lz_sweep(*args) - _lz_sweep_stepwise(*args)) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 2**14 - 1, 2**14 + 1, 3 * 2**14 + 5])
def test_lz_pairwise_product_stays_in_su2(n):
    # the Cayley-Klein product of n steps of the paper's sweep keeps unit norm
    rabi, span, duration = TWO_PI * 172.92, 4e3, 50e-3
    det = TWO_PI * span * ((np.arange(n) + 0.5) / n - 0.5)
    amag = 0.5 * np.hypot(rabi, det)
    sinc = np.sin(amag * duration / n) / amag
    alpha, beta = sequences._pairwise_product(
        np.cos(amag * duration / n) - 0.5j * det * sinc, -0.5j * rabi * sinc)
    assert abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) < 1e-13


def test_lz_rejects_non_finite_input():
    args = {"rabi": TWO_PI * 172.92, "sweep_range_hz": 4e3, "duration": 50e-3}
    for name in args:
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                sequences.landau_zener(**{**args, name: bad})


def test_lz_rejects_a_sweep_beyond_the_step_limit():
    """The first pass takes 2 steps per unit of sweep_range_hz x duration, so
    a product just over half the limit is rejected before any step runs."""
    limit = sequences._LZ_MAX_STEPS
    over = limit / 2 * (1 + 1e-9)
    for rabi in (TWO_PI * 172.92, 0.0):
        with pytest.raises(ValueError, match=rf"sweep_range_hz x duration .*limit of {limit}"):
            sequences.landau_zener(rabi, 4e3, over / 4e3)
    with pytest.raises(ValueError, match="sweep_range_hz x duration"):
        sequences.landau_zener(TWO_PI * 172.92, 4e3, 1e300)


def test_fig1c_fidelities_pinned(tmp_path):
    # the four ramps and the 64 kHz sweep, recorded from the stepwise product
    presets.reproduce("fig1c", tmp_path)
    header, data = parse_csv((tmp_path / "fidelity_vs_ramp.csv").read_text(), "fig1c")
    sim = data[:, header.index("fidelity_sim")]
    wide = json.loads((tmp_path / "summary.json").read_text())["info"]["fidelity_wide_sweep"]
    np.testing.assert_allclose(
        [*sim, wide],
        [0.9987677881426483, 0.9821200352309691, 0.7923532025269892, 0.6846152281152453,
         0.9747196994722808],
        rtol=1e-11, atol=0.0)


# ------------------------------------------------------------------ Ramsey

@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=5, max_value=64), st.floats(-10.0, 10.0), st.floats(0.1, 1.0),
       st.floats(0.01, 1.0), st.floats(-math.pi, math.pi), st.integers(0, 2**32 - 1))
def test_ramsey_contrast_is_the_least_squares_fit(n, start, offset, fraction, phase, seed):
    # an evenly spread phase grid, in any order, with noise on the fringe
    rng = np.random.default_rng(seed)
    x = start + rng.permutation(np.linspace(0.0, 2 * math.pi, n, endpoint=False))
    y = offset + fraction * offset * np.cos(x + phase) + 0.01 * offset * rng.standard_normal(n)
    design = np.column_stack([np.ones(n), np.cos(x), np.sin(x)])
    (c0, c1, c2), *_ = np.linalg.lstsq(design, y, rcond=None)
    assert sequences.ramsey_contrast(y, x) == pytest.approx(math.hypot(c1, c2) / c0, rel=1e-12)


def test_ramsey_contrast_needs_five_phases():
    phases = np.linspace(0, 2 * math.pi, 4, endpoint=False)
    with pytest.raises(dsp.FitError, match="at least 5 phases, got 4"):
        sequences.ramsey_contrast(0.5 + 0.4 * np.cos(phases), phases)


@pytest.mark.parametrize("phases", [
    pytest.param(np.linspace(0, math.pi, 12), id="half_period"),
    pytest.param(np.linspace(0, 2 * math.pi, 12), id="endpoint_repeated"),
    pytest.param(np.array([0.0, 1.0, 2.0, 3.0, math.nan]), id="nan"),
])
def test_ramsey_contrast_needs_phases_spread_over_one_period(phases):
    with pytest.raises(dsp.FitError, match="spread evenly over one period"):
        sequences.ramsey_contrast(0.5 + 0.4 * np.cos(phases), phases)


def test_ramsey_contrast_makes_no_nlls_call(monkeypatch, fig3_config, no_decay):
    calls = []
    nlls = dsp.nlls
    monkeypatch.setattr(dsp, "nlls", lambda *args, **kw: calls.append(args) or nlls(*args, **kw))
    pops = sequences.ramsey_phase_scan(0.5e-3, PHASES, fig3_config, no_decay)
    assert sequences.ramsey_contrast(pops, PHASES) == pytest.approx(1.0, abs=1e-9)
    assert calls == []


def test_ramsey_zero_dark_full_contrast(fig3_config, no_decay):
    pops = sequences.ramsey_phase_scan(0.0, PHASES, fig3_config, no_decay)
    contrast = sequences.ramsey_contrast(pops, PHASES)
    assert abs(contrast - 1.0) < 1e-6


def test_ramsey_matches_gaussian_dephasing_oracle(fig3_config, no_decay):
    sigma = math.sqrt(2.0) / 2.03e-3
    spec = sequences.EnsembleSpec(delta_sigma=sigma, samples=41)
    for t_dark in (0.7e-3, 2.03e-3):
        pops = sequences.ramsey_phase_scan(t_dark, PHASES, fig3_config, no_decay, ensemble=spec)
        contrast = sequences.ramsey_contrast(pops, PHASES)
        analytic = math.exp(-((sigma * t_dark) ** 2) / 2.0)
        assert abs(contrast / analytic - 1.0) < 0.01


def test_ramsey_contrast_one_over_e_at_preset(fig3_config, no_decay):
    t2_star = 2.03e-3
    sigma = math.sqrt(2.0) / t2_star
    spec = sequences.EnsembleSpec(delta_sigma=sigma, samples=41)
    pops = sequences.ramsey_phase_scan(t2_star, PHASES, fig3_config, no_decay, ensemble=spec)
    contrast = sequences.ramsey_contrast(pops, PHASES)
    assert contrast == pytest.approx(1.0 / math.e, rel=0.01)


# -------------------------------------------------------------------- echo

def test_echo_rephases_static_spread(lam, no_decay):
    cfg = driven.raman_config(lam, TWO_PI * 69.3e6, TWO_PI * 69.3e6, -TWO_PI * 2e9)
    sigma = math.sqrt(2.0) / 2.03e-3
    spec = sequences.EnsembleSpec(delta_sigma=sigma, samples=21)
    pops = sequences.spin_echo_scan(6e-3, PHASES, cfg, no_decay, ensemble=spec)
    contrast = sequences.ramsey_contrast(pops, PHASES)
    assert contrast > 1.0 - 1e-6


def test_echo_equals_ramsey_at_zero_dark(lam, no_decay):
    # at a stiff pulse the extra refocusing pulse changes nothing at T = 0
    cfg = driven.raman_config(lam, TWO_PI * 69.3e6, TWO_PI * 69.3e6, -TWO_PI * 2e9)
    sigma = math.sqrt(2.0) / 2.03e-3
    spec = sequences.EnsembleSpec(delta_sigma=sigma, samples=11)
    echo = sequences.spin_echo_scan(0.0, PHASES, cfg, no_decay, ensemble=spec)
    ce = sequences.ramsey_contrast(echo, PHASES)
    ramsey = sequences.ramsey_phase_scan(0.0, PHASES, cfg, no_decay, ensemble=spec)
    cr = sequences.ramsey_contrast(ramsey, PHASES)
    assert ce == pytest.approx(cr, abs=1e-6)


def test_echo_with_ou_noise_decays(fig3_config, no_decay):
    ou = sequences.OUNoise(sigma=103.0, tau_c=25e-3)
    pops_short = sequences.spin_echo_scan(5e-3, PHASES, fig3_config, no_decay, ou=ou)
    pops_long = sequences.spin_echo_scan(60e-3, PHASES, fig3_config, no_decay, ou=ou)
    c_short = sequences.ramsey_contrast(pops_short, PHASES)
    c_long = sequences.ramsey_contrast(pops_long, PHASES)
    assert c_short > 0.9
    assert c_long < 0.5


@pytest.mark.parametrize("x", [1e-6, 1e-3, 0.2, 1.5, 6.0])
def test_ou_moments_match_double_integral(x):
    """The phase variance over a span h and the covariance of two adjacent
    spans are double integrals of the OU autocorrelation sigma^2 e^{-|t-s|/tau};
    at h/tau = 1e-6 the form x - 1 + e^{-x} would lose every digit but 4."""
    from scipy.integrate import dblquad

    ou = sequences.OUNoise(sigma=103.0, tau_c=25e-3)
    h = x * ou.tau_c

    def corr(s, t):
        return ou.sigma ** 2 * math.exp(-abs(t - s) / ou.tau_c)

    opts = {"epsabs": 0.0, "epsrel": 1e-12}
    # the kink at s = t splits the square into two triangles
    var = (dblquad(corr, 0.0, h, 0.0, lambda t: t, **opts)[0]
           + dblquad(corr, 0.0, h, lambda t: t, h, **opts)[0])
    cov = dblquad(corr, 0.0, h, h, 2.0 * h, **opts)[0]
    got_var, got_cov = sequences._ou_moments(ou, h)
    assert got_var == pytest.approx(var, rel=1e-8)
    assert got_cov == pytest.approx(cov, rel=1e-8)


def test_ou_coherence_matches_monte_carlo(fig3_config, no_decay):
    """fig4c's OU noise and dark times: the closed-form Ramsey and echo
    contrasts agree with 20000 OU paths drawn here within 5 standard errors.

    Each path steps exactly (Gillespie, Phys. Rev. E 54, 2084, 1996) on a
    grid of tau_c / 210 that holds every dark time and echo half, and its
    phase is the trapezoid sum, whose bias sits far below the error.  A
    member's populations are a sinusoid in the final phase, offset c plus
    the complex amplitude A, so the contrast |mean A| / mean c has the
    standard error of its linearised per-member terms."""
    ou = sequences.OUNoise(sigma=TWO_PI * 16.393, tau_c=25e-3)
    dark = np.linspace(5e-3, 75e-3, 7)
    dt = 2.5e-3 / 21  # 21 steps to the first echo half, 49 between the halves
    n_steps = int(round(dark[-1] / dt))
    rng = np.random.default_rng(2024)
    members = 20000
    decay = math.exp(-dt / ou.tau_c)
    kick = ou.sigma * math.sqrt(1.0 - decay * decay)
    delta = ou.sigma * rng.standard_normal(members)
    phase = np.zeros((n_steps + 1, members))
    for k in range(n_steps):
        nxt = delta * decay + kick * rng.standard_normal(members)
        phase[k + 1] = phase[k] + 0.5 * (delta + nxt) * dt
        delta = nxt

    t_half = sequences.pulse_duration(fig3_config, "pi/2")
    u = expm(lindblad.liouvillian(driven.build_effective_qubit_model(fig3_config, no_decay))
             * t_half)
    start = u @ DensityMatrix.pure(3, 0).matrix.reshape(-1)
    rot = kron_rotation(0, PHASES)
    # the up population after the final pulse is row 0 of u
    readout = rot.conj() * u[0]
    fringe = np.exp(-1j * PHASES) * 2.0 / len(PHASES)
    frame = fig3_config.delta_two
    for echo in (False, True):
        got = (sequences.spin_echo_scan if echo else sequences.ramsey_phase_scan)(
            dark, PHASES, fig3_config, no_decay, ou=ou)
        for t, row in zip(dark, got):
            end = int(round(t / dt))
            if echo:
                mid = end // 2
                vec = kron_rotation(1, frame * t / 2 + phase[mid]) * start
                vec = vec @ u.T @ u.T
                vec = kron_rotation(1, frame * t / 2 + phase[end] - phase[mid]) * vec
            else:
                vec = kron_rotation(1, frame * t + phase[end]) * start
            pops = (vec @ readout.T).real
            offset, amp = pops.mean(axis=1), pops @ fringe
            contrast = abs(amp.mean()) / offset.mean()
            along = (amp * np.conj(amp.mean())).real / abs(amp.mean())
            sem = np.std((along - contrast * offset) / offset.mean(), ddof=1) / math.sqrt(members)
            assert abs(sequences.ramsey_contrast(row, PHASES) - contrast) <= 5.0 * sem


def test_ramsey_time_scan_frequency(fig3_config, lam, no_decay):
    delta = TWO_PI * 10e3
    cfg = driven.raman_config(lam, fig3_config.up.rabi, fig3_config.down.rabi,
                              fig3_config.delta_one, delta)
    dark = np.linspace(0.0, 0.6e-3, 49)
    pops = sequences.ramsey_time_scan(dark, cfg, no_decay)
    fit = dsp.fit_sinusoid(dark, pops)
    assert abs(fit.value("frequency")) == pytest.approx(10e3, rel=2e-3)


# ----------------------------------------------------------- Autler-Townes

def test_at_dressed_state_oracle(lam, table):
    # dressed doublet of a resonant coupling sits at +- half the Rabi rate;
    # just below the natural linewidth the splitting is reported absent even
    # though the two maxima are visible
    scan = sequences.autler_townes_scan(
        [1.0], TWO_PI * 10e6, lam, table, probe_rabi=TWO_PI * 0.5e6)
    assert scan.splittings[0] is None  # 10 MHz dressing < the 11 MHz linewidth
    spectrum = scan.spectra[0]
    dets = scan.detunings[0]
    i_lo = np.argmax(spectrum[: len(dets) // 2])
    i_hi = np.argmax(spectrum[len(dets) // 2:]) + len(dets) // 2
    assert dets[i_lo] == pytest.approx(-TWO_PI * 5e6, rel=0.15)
    assert dets[i_hi] == pytest.approx(TWO_PI * 5e6, rel=0.15)


def test_at_paper_calibration_point(lam, table):
    scan = sequences.autler_townes_scan([3.6], TWO_PI * 19.3e6, lam, table)
    assert scan.dressing_rabis[0] == pytest.approx(TWO_PI * 36.62e6, rel=1e-3)
    assert scan.splittings[0] == pytest.approx(scan.dressing_rabis[0], rel=0.03)


def test_at_zero_power_single_line(lam, table):
    scan = sequences.autler_townes_scan([0.0], TWO_PI * 19.3e6, lam, table)
    assert scan.splittings[0] is None
    spectrum = scan.spectra[0]
    fit = dsp.fit_lorentzian((scan.detunings[0], spectrum))
    # single line; saturation of the timed probe broadens it slightly
    assert abs(fit.value("fwhm")) == pytest.approx(table.gamma_s, rel=0.3)
    assert fit.value("center") == pytest.approx(0.0, abs=table.gamma_s / 10)


def test_at_each_power_on_its_own_axis(lam, table):
    # every power column spans its own detuning range, so each doublet must
    # sit at +- half its own dressing Rabi rate on that row's axis
    scan = sequences.autler_townes_scan([1.0, 10.0], TWO_PI * 19.3e6, lam, table)
    assert scan.detunings.shape == scan.spectra.shape == (2, 161)
    for dets, spectrum, rabi in zip(scan.detunings, scan.spectra, scan.dressing_rabis):
        half = len(dets) // 2
        i_lo = np.argmax(spectrum[:half])
        i_hi = np.argmax(spectrum[half:]) + half
        assert dets[i_lo] == pytest.approx(-rabi / 2, rel=0.15)
        assert dets[i_hi] == pytest.approx(rabi / 2, rel=0.15)


@pytest.mark.parametrize("strong", ["down", "up"])
def test_stacked_at_scan_matches_point_loop(lam, table, strong):
    probe, rabi_s = TWO_PI * 1.0e6, TWO_PI * 19.3e6 * math.sqrt(2.0)
    scan = sequences.autler_townes_scan([2.0], TWO_PI * 19.3e6, lam, table, strong=strong)
    t_probe = table.gamma_s / probe**2
    want = []
    # every fourth of the 161 points, both ends included
    for det in scan.detunings[0, ::4]:
        if strong == "down":
            cfg, init = driven.raman_config(lam, probe, rabi_s, det, det), "up"
        else:
            cfg, init = driven.raman_config(lam, rabi_s, probe, 0.0, det), "down"
        model = driven.build_lambda_model(cfg, lam, table, mode="lossy")
        rho0 = DensityMatrix.pure(4, model.index(init)).matrix
        *_, final = lindblad.model_steps(model, rho0, [0.0, t_probe])
        want.append(final[model.index("lost") * 5].real)
    assert np.abs(scan.spectra[0, ::4] - np.array(want)).max() < 1e-12


def test_at_splitting_accuracy_above_five_linewidths(lam, table):
    for mult in (5.0, 8.0):
        rabi = mult * table.gamma_s
        power = (rabi / (TWO_PI * 19.3e6)) ** 2
        scan = sequences.autler_townes_scan([power], TWO_PI * 19.3e6, lam, table)
        assert scan.splittings[0] == pytest.approx(rabi, rel=0.02)


# -------------------------------------------------------------------- CPT

def test_cpt_dark_at_zero_detuning(lam, table):
    grid = np.array([-TWO_PI * 200.0, 0.0, TWO_PI * 200.0])
    exc = sequences.cpt_scan(TWO_PI * 76.8e3, TWO_PI * 61e3, grid, lam, table)
    assert exc[1] < 1e-8
    assert exc[0] > 1e-6 and exc[2] > 1e-6


def test_stacked_cpt_scan_matches_point_loop(lam, table):
    """fig2c's scan: every point bit-equal to its own steady state, the
    dark resonance at delta = 0 included."""
    grid = np.linspace(-TWO_PI * 3e3, TWO_PI * 3e3, 241)
    exc = sequences.cpt_scan(TWO_PI * 76.8e3, TWO_PI * 61e3, grid, lam, table)
    want = []
    for delta in grid:
        cfg = driven.raman_config(lam, TWO_PI * 76.8e3, TWO_PI * 61e3, 0.0, delta)
        model = driven.build_lambda_model(cfg, lam, table, mode="closed")
        want.append(lindblad.steady_state(model).population(model.index("s")))
    assert np.array_equal(exc.view(np.int64), np.array(want).view(np.int64))


def test_cpt_width_grows_with_power(lam, table):
    grid = np.linspace(-TWO_PI * 6e3, TWO_PI * 6e3, 161)

    def fwhm(scale):
        exc = sequences.cpt_scan(scale * TWO_PI * 76.8e3, scale * TWO_PI * 61e3,
                                 grid, lam, table)
        fit = dsp.fit_lorentzian((grid / TWO_PI, exc))
        return abs(fit.value("fwhm"))

    assert fwhm(2.0) > 2.5 * fwhm(1.0)


def test_cpt_no_dip_without_second_field(lam, table):
    grid = np.linspace(-TWO_PI * 2e3, TWO_PI * 2e3, 41)
    exc = sequences.cpt_scan(TWO_PI * 76.8e3, 0.0, grid, lam, table)
    i0 = len(grid) // 2
    assert exc[i0] >= exc.max() * 0.999  # flat absorption, no interference dip


# -------------------------------------------------------- scattering decay

def test_scattering_decay_flat_without_drive(full_scheme, table, env):
    field = driven.DriveField((full_scheme.up, full_scheme.s), 0.0, -TWO_PI * 6e9)
    times = np.array([0.0, 1e-4, 1e-3])
    surv = sequences.scattering_decay(field, times, full_scheme, table, env)
    assert np.abs(surv - 1.0).max() < 1e-9


def test_scattering_decay_quadratic_detuning_scaling(full_scheme, table, env):
    times = np.concatenate([[0.0], np.geomspace(1e-5, 2e-3, 10)])

    def initial_rate(detuning):
        field = driven.DriveField((full_scheme.up, full_scheme.s), TWO_PI * 36e6, detuning)
        surv = sequences.scattering_decay(field, times, full_scheme, table, env)
        return -np.log(surv[5]) / times[5]

    r1 = initial_rate(-TWO_PI * 3e9)
    r2 = initial_rate(-TWO_PI * 6e9)
    assert r1 / r2 == pytest.approx(4.0, rel=0.05)


def test_scattering_decay_rejects_empty_times(full_scheme, table, env):
    field = driven.DriveField((full_scheme.up, full_scheme.s), TWO_PI * 36e6, -TWO_PI * 6e9)
    with pytest.raises(ValueError, match="times must be non-empty"):
        sequences.scattering_decay(field, [], full_scheme, table, env)


def test_scattering_decay_monotone(full_scheme, table, env):
    field = driven.DriveField((full_scheme.up, full_scheme.s), TWO_PI * 36e6, -TWO_PI * 6e9)
    times = np.concatenate([[0.0], np.geomspace(1e-5, 5e-3, 15)])
    surv = sequences.scattering_decay(field, times, full_scheme, table, env)
    assert np.all(np.diff(surv) < 0)


# ---------------------------------------------------------------- ensemble

def test_ensemble_zero_spread_is_identity(fig3_config, table):
    base = sequences.run_rabi_ensemble(fig3_config, table, 50e-6, 201,
                                       sequences.EnsembleSpec(samples=1))
    multi = sequences.run_rabi_ensemble(fig3_config, table, 50e-6, 201,
                                        sequences.EnsembleSpec(samples=8))
    assert np.array_equal(base.populations["up"], multi.populations["up"])


def test_member_draws_hermite_weights_normalized():
    spec = sequences.EnsembleSpec(rabi_spread=0.01, delta_sigma=5.0, samples=9)
    draws, weights = sequences._draws_and_weights(spec)
    assert len(draws) == 81  # tensor grid over both axes
    assert weights.sum() == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("samples", [1, 5, 41])
@pytest.mark.parametrize("rabi_spread, delta_sigma", [(0.01, 0.0), (0.0, 5.0), (0.01, 5.0)])
def test_hermite_draws_and_weights_pinned(rabi_spread, delta_sigma, samples):
    # reference: Gauss-Hermite nodes and normalised weights on each spread axis,
    # a tensor grid (scale-major) when both axes spread
    nodes, w = np.polynomial.hermite_e.hermegauss(samples)
    w = w / w.sum()
    if delta_sigma == 0.0:
        want = np.column_stack([1.0 + rabi_spread * nodes, np.zeros(samples)]), w
    elif rabi_spread == 0.0:
        want = np.column_stack([np.ones(samples), delta_sigma * nodes]), w
    else:
        sg, og = np.meshgrid(1.0 + rabi_spread * nodes, delta_sigma * nodes, indexing="ij")
        want = np.column_stack([sg.ravel(), og.ravel()]), np.outer(w, w).ravel()
    spec = sequences.EnsembleSpec(rabi_spread=rabi_spread, delta_sigma=delta_sigma,
                                  samples=samples)
    for got, ref in zip(sequences._draws_and_weights(spec), want):
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_member_average_hermite_weights():
    spec = sequences.EnsembleSpec(delta_sigma=2.0, samples=41)
    draws, weights = sequences._draws_and_weights(spec)
    mean = sequences.member_average(draws[:, 1] ** 2, weights)
    assert mean == pytest.approx(4.0, rel=1e-9)


def test_member_average_is_np_average_over_members():
    rng = np.random.default_rng(3)
    values, weights = rng.standard_normal((7, 5, 3)), rng.uniform(0.1, 1.0, 7)
    got = sequences.member_average(values, weights)
    assert np.array_equal(got, np.average(values, axis=0, weights=weights))


# ------------------------------------- stacked members against a member loop

def scaled_config(config: driven.RamanConfig, scale: float, delta_offset: float) -> driven.RamanConfig:
    """Apply a two-photon Rabi scale and a detuning offset to a drive config.

    The scale multiplies the two-photon Rabi frequency, so each one-photon
    amplitude carries sqrt(scale); the offset shifts the down detuning."""
    root = math.sqrt(max(scale, 0.0))
    up = driven.DriveField(config.up.transition, config.up.rabi * root, config.up.detuning,
                           config.up.phase)
    down = driven.DriveField(
        config.down.transition,
        config.down.rabi * root,
        config.down.detuning - delta_offset,
        config.down.phase,
    )
    return driven.RamanConfig(up=up, down=down)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, -0.4]) | st.floats(-1.0, 2.0),
                          st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)),
                min_size=1, max_size=6))
def test_member_model_stack_bit_equal_to_scaled_member_builds(fig3_config, table, draws):
    """A scale at or below 0 clips the member's Rabi frequencies to 0, so it
    does not scatter: amplitude 0 on its jump slots, bit-equal to the scalar
    build and to a model without those jumps."""
    draws = np.array(draws, dtype=float)
    model, delta = sequences._member_models(fig3_config, table, draws)
    rho0 = DensityMatrix.pure(3, 0).matrix
    for index in (None, lindblad.invariant_block(model, rho0)):
        got = lindblad.liouvillian(model, index)
        for m, (scale, offset) in enumerate(draws):
            cfg = scaled_config(fig3_config, scale, offset)
            member = driven.build_effective_qubit_model(cfg, table)
            bare = driven.RotatingFrameModel(
                member.hamiltonian, [j for j in member.jumps if j[2] != 0.0], member.labels)
            assert np.array_equal(model.hamiltonian[m].view(np.int64),
                                  member.hamiltonian.view(np.int64))
            assert np.float64(delta[m]).view(np.int64) == np.float64(cfg.delta_two).view(np.int64)
            for want in (lindblad.liouvillian(member, index), lindblad.liouvillian(bare, index)):
                assert np.array_equal(got[m].view(np.int64), want.view(np.int64))


def reference_rabi_ensemble(stepped, config, table, duration, n_samples, spec):
    """Mean populations with every member propagated on its own."""
    times = np.linspace(0.0, duration, n_samples)
    draws, weights = sequences._draws_and_weights(spec)
    members = []
    for scale, offset in draws:
        model = driven.build_effective_qubit_model(scaled_config(config, scale, offset),
                                                   table)
        vec0 = DensityMatrix.pure(3, 0).matrix.reshape(-1)
        vecs = stepped(lindblad.liouvillian(model), vec0, times)
        members.append(vecs[:, ::4].real)
    return np.average(members, axis=0, weights=weights)


def kron_rotation(index, phi):
    """The vectorized conjugation by the phase e^{i phi} on one level, one
    diagonal (..., 9) per phase."""
    phi = np.asarray(phi, dtype=float)
    d = np.ones((*phi.shape, 3), dtype=complex)
    d[..., index] = np.exp(1j * phi)
    return (d[..., :, None] * d[..., None, :].conj()).reshape(*phi.shape, 9)


def ou_phase_grid(ou, dark_time, echo, nodes=16):
    """Gauss-Hermite nodes (K, 2) and weights (K,) of the OU phases (phi1,
    phi2) over the two echo halves, a correlated Gaussian pair reached through
    the Cholesky factor of its covariance, or of the Ramsey phase over the
    whole dark time (phi2 = 0); a single point at dark time 0."""
    if ou is None or dark_time == 0.0:
        return np.zeros((1, 2)), np.ones(1)
    z, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / w.sum()
    if not echo:
        var, _ = sequences._ou_moments(ou, dark_time)
        return np.column_stack([math.sqrt(var) * z, np.zeros(nodes)]), w
    var, cov = sequences._ou_moments(ou, dark_time / 2)
    chol = np.linalg.cholesky(np.array([[var, cov], [cov, var]]))
    z1, z2 = np.meshgrid(z, z, indexing="ij")
    return np.column_stack([z1.ravel(), z2.ravel()]) @ chol.T, np.outer(w, w).ravel()


def reference_two_pulse(dark_time, phases, config, table, spec, ou, echo):
    """pi/2 - dark - pi/2(phase) (with a pi pulse at T/2 for echo), member by
    member, each member averaged over a quadrature grid of its OU phases."""
    draws, weights = sequences._draws_and_weights(spec)
    noise, noise_w = ou_phase_grid(ou, dark_time, echo)
    t_half = sequences.pulse_duration(config, "pi/2")
    members = []
    for scale, offset in draws:
        cfg = scaled_config(config, scale, offset)
        u = expm(lindblad.liouvillian(driven.build_effective_qubit_model(cfg, table)) * t_half)
        # the dark phases give the state one row per OU quadrature point
        vec = u @ DensityMatrix.pure(3, 0).matrix.reshape(-1)
        if echo:
            vec = kron_rotation(1, cfg.delta_two * dark_time / 2 + noise[:, 0]) * vec
            vec = vec @ u.T @ u.T
            vec = kron_rotation(1, cfg.delta_two * dark_time / 2 + noise[:, 1]) * vec
        else:
            vec = kron_rotation(1, cfg.delta_two * dark_time + noise[:, 0]) * vec
        rot = kron_rotation(0, phases)
        pops = (rot * ((rot.conj() * vec[:, None, :]) @ u.T))[..., 0].real
        members.append(noise_w @ pops)
    return np.average(members, axis=0, weights=weights)


@pytest.mark.parametrize("spread, samples", [
    pytest.param(0.0, 12, id="0.0"),
    pytest.param(0.004, 12, id="0.004"),
    # an odd Gauss-Hermite rule also puts a node at the centre of each axis
    pytest.param(0.0, 5, id="0.0-hermite"),
    pytest.param(0.004, 5, id="0.004-hermite"),
])
def test_streamed_rabi_ensemble_matches_member_loop(fig3_config, table, stepped, spread, samples):
    spec = sequences.EnsembleSpec(rabi_spread=spread, delta_sigma=50.0, samples=samples)
    traj = sequences.run_rabi_ensemble(fig3_config, table, 60e-6, 301, spec)
    want = reference_rabi_ensemble(stepped, fig3_config, table, 60e-6, 301, spec)
    for i, label in enumerate(("up", "down", "lost")):
        assert np.abs(traj.populations[label] - want[:, i]).max() < 1e-12


def hermite_rabi_trace(config, table, nodes, duration, n_samples):
    """(levels, times) mean populations of the 0.4 % Rabi spread over `nodes`
    Gauss-Hermite nodes."""
    spec = sequences.EnsembleSpec(rabi_spread=0.004, samples=nodes)
    traj = sequences.run_rabi_ensemble(config, table, duration, n_samples, spec)
    return np.stack([traj.populations[label] for label in ("up", "down", "lost")])


def test_hermite_rabi_ensemble_converges_by_12_nodes(fig3_config, table):
    """fig3d's drive, spread and full 0.5 ms trace: 12 nodes give the
    40-node mean within 1e-9 (8 nodes miss it by about 6e-8).  A short
    trace cannot tell the counts apart: the spread's phase needs many
    cycles to matter."""
    want = hermite_rabi_trace(fig3_config, table, 40, 0.5e-3, 1111)
    assert np.abs(hermite_rabi_trace(fig3_config, table, 12, 0.5e-3, 1111) - want).max() < 1e-9
    assert np.abs(hermite_rabi_trace(fig3_config, table, 8, 0.5e-3, 1111) - want).max() > 1e-9


def test_hermite_rabi_ensemble_matches_monte_carlo(fig3_config, lam, table):
    """A Gaussian ensemble of 4000 members, drawn and stepped here, agrees
    with the 12-node mean at every sample within 5 of its own standard
    errors; the 1e-12 covers t = 0, where every member is the same."""
    times = np.linspace(0.0, 60e-6, 301)
    root = np.sqrt(1.0 + 0.004 * np.random.default_rng(2024).standard_normal(4000))
    members = driven.raman_config(lam, TWO_PI * 36e6 * root, TWO_PI * 36e6 * root,
                                  -TWO_PI * 6e9)
    generator = lindblad.liouvillian(driven.build_effective_qubit_model(members, table))
    vec0 = np.broadcast_to(DensityMatrix.pure(3, 0).matrix.reshape(-1), (len(root), 9))
    mean = np.empty((3, len(times)))
    sem = np.empty((3, len(times)))
    k = 0
    # each block's (members, samples, levels) populations, reduced over the members
    for block in lindblad.steps(generator, vec0, times):
        pops = block[..., ::4].real
        mean[:, k:k + pops.shape[1]] = pops.mean(axis=0).T
        sem[:, k:k + pops.shape[1]] = pops.std(axis=0, ddof=1).T / math.sqrt(len(root))
        k += pops.shape[1]
    want = hermite_rabi_trace(fig3_config, table, 12, 60e-6, 301)
    assert np.all(np.abs(mean - want) <= 5.0 * sem + 1e-12)


def test_rabi_ensemble_with_and_without_scattering_matches_member_loop(fig3_config, table,
                                                                       stepped):
    """A member whose Rabi scale clips to 0 has amplitude 0 on all 6 jump
    slots of the stack, so a wide spread stacks members without jumps beside
    members with 6: 40 nodes at a spread of 1.5 reach below a scale of 0."""
    spec = sequences.EnsembleSpec(rabi_spread=1.5, samples=40)
    draws, _ = sequences._draws_and_weights(spec)
    model, _ = sequences._member_models(fig3_config, table, draws)
    amps = np.array([amp for *_, amp in model.jumps])
    assert amps.shape == (6, spec.samples)
    assert set(np.count_nonzero(amps, axis=0)) == {0, 6}
    traj = sequences.run_rabi_ensemble(fig3_config, table, 60e-6, 301, spec)
    want = reference_rabi_ensemble(stepped, fig3_config, table, 60e-6, 301, spec)
    for i, label in enumerate(("up", "down", "lost")):
        assert np.abs(traj.populations[label] - want[:, i]).max() < 1e-12


@pytest.mark.parametrize("echo", [False, True])
@pytest.mark.parametrize("with_ou", [False, True])
def test_batched_coherence_scans_match_member_loop(fig3_config, table, echo, with_ou):
    ou = sequences.OUNoise(sigma=103.0, tau_c=25e-3) if with_ou else None
    spec = sequences.EnsembleSpec(rabi_spread=0.004, delta_sigma=150.0, samples=9)
    scan = sequences.spin_echo_scan if echo else sequences.ramsey_phase_scan
    got = scan(4e-3, PHASES, fig3_config, table, ensemble=spec, ou=ou)
    want = reference_two_pulse(4e-3, PHASES, fig3_config, table, spec, ou, echo)
    assert np.abs(got - want).max() < 1e-12
    # every dark time in one call: one row per dark time, each the scalar call
    dark = np.array([0.0, 1e-3, 4e-3, 9e-3])
    rows = scan(dark, PHASES, fig3_config, table, ensemble=spec, ou=ou)
    assert rows.shape == (len(dark), len(PHASES))
    for t, row in zip(dark, rows):
        want = reference_two_pulse(t, PHASES, fig3_config, table, spec, ou, echo)
        assert np.abs(row - want).max() < 1e-12
        assert np.array_equal(row, scan(t, PHASES, fig3_config, table, ensemble=spec, ou=ou))


def test_coherence_scans_exponentiate_only_block_stacks(fig3_config, table, monkeypatch):
    """Every pulse propagator of the coherence scans is built on the 5-entry
    invariant block of the eliminated qubit from `up`: one (members, 5, 5)
    stack per scan."""
    shapes = []

    def recording_expm(a):
        shapes.append(np.shape(a))
        return lindblad.expm(a)

    monkeypatch.setattr(sequences, "expm", recording_expm)
    spec = sequences.EnsembleSpec(rabi_spread=0.004, delta_sigma=150.0, samples=9)
    ou = sequences.OUNoise(sigma=103.0, tau_c=25e-3)
    dark = np.array([0.0, 1e-3, 4e-3])
    sequences.ramsey_phase_scan(dark, PHASES, fig3_config, table, ensemble=spec)
    sequences.spin_echo_scan(dark, PHASES, fig3_config, table, ensemble=spec, ou=ou)
    sequences.ramsey_time_scan(dark, fig3_config, table, ensemble=spec)
    # the product grid of 9 nodes on each spread axis
    assert shapes == [(spec.samples ** 2, 5, 5)] * 3


def test_batched_ramsey_time_scan_matches_member_loop(fig3_config, lam, table):
    cfg = driven.raman_config(lam, fig3_config.up.rabi, fig3_config.down.rabi,
                              fig3_config.delta_one, TWO_PI * 10e3)
    spec = sequences.EnsembleSpec(delta_sigma=300.0, samples=7)
    dark = np.linspace(0.0, 0.6e-3, 25)
    got = sequences.ramsey_time_scan(dark, cfg, table, ensemble=spec)
    want = [reference_two_pulse(t, [0.0], cfg, table, spec, None, echo=False)[0] for t in dark]
    assert np.abs(got - np.array(want)).max() < 1e-12


@pytest.mark.parametrize("n_samples", [2, 127, 128, 129, 257])
def test_chunked_rabi_ensemble_is_the_per_sample_average(fig3_config, table, n_samples):
    """Averaging a chunk of samples at a time is bit-equal to averaging each
    sample's member populations on its own, across the chunk edges."""
    spec = sequences.EnsembleSpec(rabi_spread=0.004, delta_sigma=50.0, samples=13)
    traj = sequences.run_rabi_ensemble(fig3_config, table, 60e-6, n_samples, spec)
    draws, weights = sequences._draws_and_weights(spec)
    model, _ = sequences._member_models(fig3_config, table, draws)
    times = np.linspace(0.0, 60e-6, n_samples)
    want = np.array([sequences.member_average(vec[:, ::4].real, weights)
                     for vec in lindblad.model_steps(model, DensityMatrix.pure(3, 0).matrix, times)])
    got = np.column_stack([traj.populations[k] for k in ("up", "down", "lost")])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


DETUNING_ROWS = -TWO_PI * np.array([1.8e9, 3.0e9, 6.0e9, 12.0e9])


@pytest.mark.parametrize("n_samples", [2, 127, 128, 129, 257])
@pytest.mark.parametrize("delta_sigma, samples", [
    pytest.param(0.0, 13, id="rabi-spread"),
    pytest.param(50.0, 5, id="product-grid"),
])
def test_stacked_rabi_ensemble_rows_match_scalar_calls(lam, table, n_samples, delta_sigma,
                                                        samples):
    """Each row of a detuning scan stepped as one stack, each over its own
    duration, is bit-equal to its own call, across the chunk edges."""
    spec = sequences.EnsembleSpec(rabi_spread=0.004, delta_sigma=delta_sigma, samples=samples)
    rabi = TWO_PI * 36e6
    durations = 40.0 / (formulas.raman_rabi(rabi, rabi, DETUNING_ROWS) / TWO_PI)
    rows = sequences.run_rabi_ensemble(driven.raman_config(lam, rabi, rabi, DETUNING_ROWS),
                                       table, durations, n_samples, spec)
    assert len(rows) == len(DETUNING_ROWS)
    for got, detuning, duration in zip(rows, DETUNING_ROWS, durations):
        want = sequences.run_rabi_ensemble(driven.raman_config(lam, rabi, rabi, detuning),
                                           table, duration, n_samples, spec)
        assert np.array_equal(got.times.view(np.int64), want.times.view(np.int64))
        assert got.populations.keys() == want.populations.keys()
        for label, pops in want.populations.items():
            assert np.array_equal(got.populations[label].view(np.int64), pops.view(np.int64))


def test_stacked_rabi_ensemble_shares_a_scalar_duration(lam, table):
    spec = sequences.EnsembleSpec(rabi_spread=0.004, samples=4)
    rabi = TWO_PI * 36e6
    rows = sequences.run_rabi_ensemble(driven.raman_config(lam, rabi, rabi, DETUNING_ROWS),
                                       table, 60e-6, 131, spec)
    for got, detuning in zip(rows, DETUNING_ROWS):
        want = sequences.run_rabi_ensemble(driven.raman_config(lam, rabi, rabi, detuning),
                                           table, 60e-6, 131, spec)
        assert np.array_equal(got.populations["up"].view(np.int64),
                              want.populations["up"].view(np.int64))


@pytest.mark.parametrize("row, bad", [(0, 0.0), (2, -1e-4), (3, math.nan)])
def test_stacked_rabi_ensemble_rejects_a_nonpositive_duration_in_any_row(lam, table, row, bad):
    spec = sequences.EnsembleSpec(rabi_spread=0.004, samples=4)
    rabi = TWO_PI * 36e6
    durations = np.full(len(DETUNING_ROWS), 1e-4)
    durations[row] = bad
    with pytest.raises(ValueError, match=f"^row {row}: duration must be positive, got {bad}$"):
        sequences.run_rabi_ensemble(driven.raman_config(lam, rabi, rabi, DETUNING_ROWS),
                                    table, durations, 11, spec)
    with pytest.raises(ValueError):
        sequences.run_rabi_ensemble(driven.raman_config(lam, rabi, rabi, DETUNING_ROWS),
                                    table, np.full(3, 1e-4), 11, spec)


def test_fig3e_steps_its_scan_in_one_ensemble_call_and_one_expm(tmp_path, monkeypatch):
    calls = {"run_rabi_ensemble": 0, "expm": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sequences, "run_rabi_ensemble",
                        counted("run_rabi_ensemble", sequences.run_rabi_ensemble))
    monkeypatch.setattr(lindblad, "expm", counted("expm", lindblad.expm))
    monkeypatch.setattr(sequences, "expm", lindblad.expm)
    assert presets.reproduce("fig3e", tmp_path)
    assert calls == {"run_rabi_ensemble": 1, "expm": 1}


def test_presets_exponentiate_only_real_slices(tmp_path, monkeypatch):
    """Every slice `lindblad.expm` gets in fig2a's, fig3d's, fig4c's and
    figS3's runs is real: the Lindblad block generators in the real basis
    and figS3's rate matrices."""
    dtypes = []
    expm_of_lindblad = lindblad.expm

    def recording_expm(a):
        dtypes.append(np.asarray(a).dtype)
        return expm_of_lindblad(a)

    monkeypatch.setattr(lindblad, "expm", recording_expm)
    monkeypatch.setattr(sequences, "expm", recording_expm)
    for fig in ("fig2a", "fig3d", "fig4c", "figS3"):
        assert presets.reproduce(fig, tmp_path / fig)
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}


def test_stacked_rabi_ensemble_memory_is_its_buffer_and_propagators(lam, table):
    """The bound is counted, not measured, per member of a row: the 16 powers
    of its real (5, 5) block propagator that `lindblad.steps` holds for a run
    of equal gaps (3200 bytes), and 3072 bytes for the rest.  The rest
    counts three more real (5, 5) stacks (the generator scaled by each row's
    gap, `steps`' copy scaled by the unit gap and `expm`'s output), two
    blocks of 16 real 5-entry states (the one stepped and the one it starts
    from), a block's populations and their weighted copy, and the model's
    complex (3, 3) Hamiltonians: 2792 bytes, with room for the draws,
    weights and jump amplitudes.  The per-sample buffer that blocks replaced
    had the same bound: 128 samples of 3 levels (3072 bytes) and eight
    stacks of complex (5, 5) matrices (3200 bytes).  Holding the (members,
    samples, 5) block states of the whole trace would need 12 000 bytes and
    breaks the bound."""
    rows, members, n_samples = len(DETUNING_ROWS), 150, 300
    spec = sequences.EnsembleSpec(rabi_spread=0.004, samples=members)
    rabi = TWO_PI * 36e6
    cfg = driven.raman_config(lam, rabi, rabi, DETUNING_ROWS)
    powers = 16 * 5 * 5 * 8
    tracemalloc.start()
    try:
        sequences.run_rabi_ensemble(cfg, table, 60e-6, n_samples, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rows * members * (powers + 3072)


def test_rabi_ensemble_memory_stays_streamed(fig3_config, table):
    # fig3d size: one (200, 1111, 9) complex stack of member states is 32 MB
    spec = sequences.EnsembleSpec(rabi_spread=0.004, samples=200)
    tracemalloc.start()
    try:
        sequences.run_rabi_ensemble(fig3_config, table, 0.5e-3, 1111, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6
