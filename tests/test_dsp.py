import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fsqubit import dsp, formulas, sequences
from fsqubit.config import format_csv
from fsqubit.harness import presets
from fsqubit.units import TWO_PI


def make_trace(fn, duration, n, noise=0.0, seed=0):
    dt = duration / n
    t = np.arange(n) * dt
    y = fn(t)
    if noise > 0:
        y = y + np.random.default_rng(seed).normal(0.0, noise, n)
    return dsp.Trace(dt=dt, samples=y), t


# ------------------------------------------------------------------- nlls

def test_nlls_converges_at_truth_immediately():
    def model(x, a, b):
        return a * np.exp(-b * x)

    x = np.linspace(0, 1, 50)
    y = model(x, 2.0, 3.0)
    fit = dsp.nlls(model, (x, y), [2.0, 3.0], names=("a", "b"))
    assert fit.converged
    assert fit.iterations <= 2
    np.testing.assert_allclose(fit.params, [2.0, 3.0], rtol=1e-10)


def test_nlls_linear_through_points():
    def line(x, slope, intercept):
        return slope * x + intercept

    fit = dsp.nlls(line, (np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 4.0])), [1.0, 0.5],
                   names=("slope", "intercept"))
    assert fit.value("slope") == pytest.approx(2.0, abs=1e-9)
    assert fit.value("intercept") == pytest.approx(0.0, abs=1e-9)
    assert fit.rss < 1e-18


def test_nlls_requires_enough_points():
    with pytest.raises(dsp.FitError):
        dsp.nlls(lambda x, a, b: a * x + b, (np.array([0.0, 1.0]), np.array([0.0, 1.0])),
                 [1.0, 0.0], names=("a", "b"))


def test_nlls_rejects_nonfinite_start():
    with pytest.raises(dsp.FitError):
        dsp.nlls(lambda x, a: a * x, (np.arange(3.0), np.arange(3.0)), [np.nan], names=("a",))


def recording(fn):
    """`fn` wrapped to record every parameter vector it is called with."""
    seen = []

    def model(x, *params):
        seen.append(tuple(params))
        return fn(x, *params)

    return model, seen


@pytest.mark.parametrize("case", ["lorentzian", "exponential", "gradient exit"])
def test_nlls_evaluates_each_parameter_vector_once(case):
    x = np.linspace(-1.0, 1.0, 81)
    noise = np.random.default_rng(5).normal(0.0, 0.01, x.size)
    names = ("amplitude", "rate")
    if case == "lorentzian":
        model, seen = recording(dsp._lorentzian)
        y, p0 = dsp._lorentzian(x, 0.1, 0.5, 1.0, 0.2) + noise, [0.0, 0.4, 0.8, 0.1]
        names = ("center", "fwhm", "amplitude", "offset")
    elif case == "exponential":
        model, seen = recording(dsp._exp_rate)
        y, p0 = dsp._exp_rate(x + 1.0, 2.0, 3.0) + noise, [1.5, 2.0]
        x = x + 1.0
    else:
        # noise-free data at the start: the first gradient test ends the fit
        model, seen = recording(dsp._exp_rate)
        y, p0 = dsp._exp_rate(x, 2.0, 3.0), [2.0, 3.0]
    fit = dsp.nlls(model, (x, y), p0, names=names)
    assert fit.converged
    if case == "gradient exit":
        assert fit.iterations == 0
    assert len(seen) == len(set(seen))


def test_nlls_degenerate_pair_named():
    def model(x, a, b, c):
        return (a + b) * x + c  # a and b are perfectly degenerate

    x = np.linspace(0, 1, 20)
    y = 2 * x + 1
    with pytest.raises(dsp.DegenerateParameterError) as err:
        dsp.nlls(model, (x, y), [1.0, 1.0, 1.0], names=("a", "b", "c"))
    assert set(err.value.pair) == {"a", "b"}


def test_nlls_covariance_matches_monte_carlo():
    """The uncertainties that the reduced chi-square scaling predicts, as the
    RMS over 1000 noisy fits, match the scatter of the fitted parameters."""
    rng = np.random.default_rng(12)

    def model(x, amp, rate):
        return amp * np.exp(-rate * x)

    x = np.linspace(0, 2.0, 40)
    truth = (1.5, 1.7)
    sigma = 0.03
    fits, predicted = [], []
    for _ in range(1000):
        y = model(x, *truth) + rng.normal(0, sigma, len(x))
        fit = dsp.nlls(model, (x, y), [1.4, 1.5], names=("amp", "rate"))
        fits.append(fit.params)
        predicted.append(fit.uncertainties)
    scatter = np.std(np.array(fits), axis=0)
    ratio = np.sqrt(np.mean(np.square(predicted), axis=0)) / scatter
    assert np.all(ratio > 0.9) and np.all(ratio < 1.1)


def test_nlls_converges_from_distant_start():
    def model(x, amp, rate):
        return amp * np.exp(-rate * x)

    x = np.linspace(0, 3.0, 60)
    y = model(x, 2.5, 0.8)
    fit = dsp.nlls(model, (x, y), [0.5, 3.0], names=("amp", "rate"))
    assert fit.converged
    np.testing.assert_allclose(fit.params, [2.5, 0.8], rtol=1e-7)


# ------------------------------------------------------------------- fft

def test_fft_pure_cosine_peak():
    f0 = 100e3
    trace, _ = make_trace(lambda t: np.cos(TWO_PI * f0 * t), duration=10 / f0, n=512)
    spec = dsp.fft_spectrum(trace)
    resolution = spec.frequencies[1] - spec.frequencies[0]
    assert abs(spec.peak_frequency() - f0) <= resolution
    assert spec.magnitude.max() == pytest.approx(1.0, rel=0.05)


def test_fft_constant_trace_is_zero():
    trace = dsp.Trace(dt=1e-6, samples=np.full(64, 0.7))
    spec = dsp.fft_spectrum(trace)
    assert np.abs(spec.magnitude).max() < 1e-12


def test_fft_needs_eight_samples():
    with pytest.raises(ValueError):
        dsp.fft_spectrum(dsp.Trace(dt=1e-6, samples=np.ones(7)))


def test_fft_parseval():
    """sum((y - mean)^2) from the one-sided bins: weight 1 on the DC bin (and
    on the Nyquist bin when n is even) and 1/2 on every other bin."""
    rng = np.random.default_rng(3)
    for n in (64, 65):
        y = rng.normal(size=n)
        trace = dsp.Trace(dt=1e-6, samples=y)
        spec = dsp.fft_spectrum(trace)
        weights = np.full(len(spec.magnitude), 0.5)
        weights[0] = 1.0
        if n % 2 == 0:
            weights[-1] = 1.0
        direct = float(np.sum((y - y.mean()) ** 2))
        assert n * np.sum(weights * spec.magnitude**2) == pytest.approx(direct, rel=1e-9)


def test_fft_damped_signal_peak_near_carrier():
    omega, tau = TWO_PI * 100.94e3, 684e-6
    trace, _ = make_trace(lambda t: formulas.damped_model(t, omega, 0.0, tau, 0.17, 1.15e-3),
                          duration=2.048e-3, n=5120)
    spec = dsp.fft_spectrum(trace)
    guard = spec.frequencies[3]
    masked = spec.magnitude.copy()
    masked[spec.frequencies < guard] = 0.0
    peak = spec.frequencies[np.argmax(masked)]
    assert abs(peak - 100.94e3) < 1e3


# -------------------------------------------------------------- lorentzian

def test_lorentzian_exact_recovery():
    x = np.linspace(-5, 5, 301)
    y = 2.0 / (1 + (2 * (x - 0.4) / 1.3) ** 2) + 0.1
    fit = dsp.fit_lorentzian((x, y))
    assert fit.value("center") == pytest.approx(0.4, rel=1e-8)
    assert fit.value("fwhm") == pytest.approx(1.3, rel=1e-8)
    assert fit.value("amplitude") == pytest.approx(2.0, rel=1e-8)
    assert fit.value("offset") == pytest.approx(0.1, rel=1e-6)


def test_lorentzian_dip_negative_amplitude():
    x = np.linspace(-4, 4, 241)
    y = 0.8 - 0.5 / (1 + (2 * (x + 0.3) / 0.9) ** 2)
    fit = dsp.fit_lorentzian((x, y))
    assert fit.value("amplitude") == pytest.approx(-0.5, rel=1e-6)
    assert abs(fit.value("fwhm")) == pytest.approx(0.9, rel=1e-6)
    assert fit.value("center") == pytest.approx(-0.3, rel=1e-5)


def test_lorentzian_boundary_peak_rejected():
    x = np.linspace(0, 1, 50)
    y = np.exp(-x)  # maximum at the first sample
    with pytest.raises(dsp.FitError):
        dsp.fit_lorentzian((x, y))


# -------------------------------------------------------------- bandpass

def test_bandpass_center_gain_and_phase():
    f_lo, f_hi = 50e3, 150e3
    f0 = math.sqrt(f_lo * f_hi)
    trace, t = make_trace(lambda t: np.sin(TWO_PI * f0 * t), duration=60 / f0, n=6000)
    out = dsp.butterworth_bandpass(trace, f_lo, f_hi)
    mid = slice(len(t) // 4, 3 * len(t) // 4)
    amp = np.abs(out.samples[mid]).max()
    assert amp == pytest.approx(1.0, abs=0.01)
    # zero-phase: the filtered signal tracks the input without delay
    shift = np.argmax(np.correlate(out.samples[mid], trace.samples[mid], "full")) - (len(t[mid]) - 1)
    assert shift == 0


def test_bandpass_rejects_dc():
    trace = dsp.Trace(dt=1e-6, samples=np.full(4096, 0.9))
    out = dsp.butterworth_bandpass(trace, 50e3, 150e3)
    assert np.abs(out.samples.mean()) < 1e-3 * 0.9


def test_bandpass_cutoff_validation():
    trace = dsp.Trace(dt=1e-6, samples=np.zeros(64))
    with pytest.raises(ValueError):
        dsp.butterworth_bandpass(trace, 100e3, 600e3)  # above Nyquist (500 kHz)
    with pytest.raises(ValueError):
        dsp.butterworth_bandpass(trace, 200e3, 100e3)


@given(a=st.floats(-3, 3), b=st.floats(-3, 3), seed=st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_bandpass_linearity(a, b, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=512)
    y = rng.normal(size=512)
    f = lambda arr: dsp.butterworth_bandpass(dsp.Trace(dt=1e-6, samples=arr), 50e3, 150e3).samples
    lhs = f(a * x + b * y)
    rhs = a * f(x) + b * f(y)
    assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, abs(a) + abs(b))


def test_bandpass_suppresses_slow_loss_term():
    omega, tau = TWO_PI * 100.94e3, 684e-6
    loss = lambda t: -0.17 * (1 - np.exp(-t / 1.15e-3))
    full = lambda t: formulas.damped_model(t, omega, 0.0, tau, 0.17, 1.15e-3)
    trace, t = make_trace(full, duration=2.048e-3, n=5120)
    out = dsp.butterworth_bandpass(trace, 0.5 * 100.94e3, 1.5 * 100.94e3)
    # the slow component is strongly attenuated while the oscillation remains
    mid = slice(512, 4608)
    osc = 0.5 * np.cos(omega * t) * np.exp(-t / tau)
    residual = out.samples[mid] - osc[mid]
    assert np.abs(residual).max() < 0.05
    assert np.abs(out.samples[mid]).max() > 0.3


@given(fs=st.floats(1e-3, 1e9), lo=st.floats(1e-6, 0.999), hi=st.floats(1e-6, 0.999))
@settings(max_examples=300, deadline=None)
def test_bandpass_design_bit_equal_to_butter(fs, lo, hi):
    from scipy.signal import butter

    f_lo, f_hi = sorted((lo * fs / 2, hi * fs / 2))
    assume(f_lo < f_hi)
    want = butter(2, [f_lo, f_hi], btype="band", fs=fs, output="sos")
    got = dsp._bandpass_sos(fs, f_lo, f_hi)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n", [16, dsp.FILTER_BLOCK - 1, dsp.FILTER_BLOCK + 1, 2048, 4999, 16384])
def test_bandpass_matches_sosfiltfilt(n):
    """The block recursion sums in another order than scipy's sample-by-sample
    one, so it is held to 1e-12 of the output's largest magnitude, not to the
    bit, on the extraction chain's band, 0.5 to 1.5 times a carrier of 1% to
    30% of the sample rate (the presets' and the benchmark's traces sit near 4%)."""
    from scipy.signal import butter, sosfiltfilt

    dt = 0.4e-6
    rng = np.random.default_rng(n)
    t = np.arange(n) * dt
    y = 0.5 + 0.5 * np.cos(TWO_PI * 100.94e3 * t) * np.exp(-t / 684e-6) - 0.17 * t / 1e-3
    y = y + rng.normal(0.0, 0.05, n)
    for share in (0.01, 0.04, 0.3):
        f_c = share / dt
        want = sosfiltfilt(butter(2, [0.5 * f_c, 1.5 * f_c], btype="band", fs=1.0 / dt,
                                  output="sos"), y)
        got = dsp.butterworth_bandpass(dsp.Trace(dt=dt, samples=y), 0.5 * f_c, 1.5 * f_c).samples
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), share


@pytest.mark.parametrize("n", [1, 10, dsp.FILTER_PAD])
def test_bandpass_needs_more_than_the_pad(n):
    trace = dsp.Trace(dt=1e-6, samples=np.cos(np.arange(n)))
    with pytest.raises(ValueError, match=f"more than {dsp.FILTER_PAD}, got {n}$"):
        dsp.butterworth_bandpass(trace, 50e3, 150e3)


def test_extract_rabi_on_a_record_no_longer_than_the_pad_fails_at_the_bandpass():
    # 15 samples: the spectrum and the carrier fit still run, the band-pass cannot
    k = np.arange(dsp.FILTER_PAD)
    trace = dsp.Trace(dt=1e-6, samples=np.cos(TWO_PI * 4.3 * k / len(k)) * np.exp(-k / 40))
    with pytest.raises(dsp.PipelineError, match=f"^stage 'bandpass': .*got {dsp.FILTER_PAD}$"):
        dsp.extract_rabi(trace)


# -------------------------------------------------------------- envelope

def test_envelope_constant_amplitude():
    f0 = 20e3
    trace, _ = make_trace(lambda t: 0.8 * np.cos(TWO_PI * f0 * t), duration=40 / f0, n=4096)
    env = dsp.hilbert_envelope(trace)
    interior = env.samples[env.valid]
    assert np.abs(interior - 0.8).max() < 0.005 * 0.8


def test_envelope_exponential():
    f0, tau = 50e3, 500e-6
    trace, t = make_trace(lambda t: np.exp(-t / tau) * np.cos(TWO_PI * f0 * t),
                          duration=1e-3, n=4000)
    env = dsp.hilbert_envelope(trace)
    expected = np.exp(-t / tau)
    rel = np.abs(env.samples[env.valid] / expected[env.valid] - 1.0)
    assert rel.max() < 0.01


def test_envelope_zero_trace():
    env = dsp.hilbert_envelope(dsp.Trace(dt=1e-6, samples=np.zeros(256)))
    assert np.all(env.samples == 0.0)


@given(scale=st.floats(min_value=0.1, max_value=50.0))
@settings(max_examples=20, deadline=None)
def test_envelope_scales_linearly(scale):
    rng = np.random.default_rng(5)
    y = rng.normal(size=512)
    base = dsp.hilbert_envelope(dsp.Trace(dt=1e-6, samples=y)).samples
    scaled = dsp.hilbert_envelope(dsp.Trace(dt=1e-6, samples=scale * y)).samples
    np.testing.assert_allclose(scaled, scale * base, rtol=1e-10, atol=1e-12)


def test_envelope_edges_flagged():
    env = dsp.hilbert_envelope(dsp.Trace(dt=1e-6, samples=np.ones(200)))
    assert not env.valid[:10].any()
    assert not env.valid[-10:].any()
    assert env.valid[10:-10].all()


@pytest.mark.parametrize("n", [1, 100, 512, 4999])
def test_envelope_matches_scipy_hilbert(n):
    from scipy.signal import hilbert

    y = np.random.default_rng(n).normal(size=n)
    want = np.abs(hilbert(y, N=1 << (n - 1).bit_length())[:n])
    got = dsp.hilbert_envelope(dsp.Trace(dt=1e-6, samples=y)).samples
    assert np.abs(got - want).max() <= 1e-14 * max(np.abs(want).max(), 1.0)


# ------------------------------------------------------------ exponential

def test_exponential_exact_recovery():
    tau = 684e-6
    trace, _ = make_trace(lambda t: 0.5 * np.exp(-t / tau), duration=2e-3, n=1024)
    fit = dsp.fit_exponential(trace)
    assert fit.value("tau") == pytest.approx(tau, rel=1e-6)
    assert not fit.meta["tau_unbounded"]


def test_exponential_constant_flags_unbounded():
    trace = dsp.Trace(dt=1e-6, samples=np.full(512, 0.3))
    fit = dsp.fit_exponential(trace)
    assert fit.meta["tau_unbounded"]


def test_exponential_respects_valid_mask():
    tau = 300e-6
    dt = 1e-6
    t = np.arange(1000) * dt
    y = np.exp(-t / tau)
    y[:50] = 5.0  # corrupted edge samples
    valid = np.ones(1000, bool)
    valid[:50] = False
    fit = dsp.fit_exponential(dsp.Trace(dt=dt, samples=y, valid=valid))
    assert fit.value("tau") == pytest.approx(tau, rel=1e-6)


# ------------------------------------------------------------ extract_rabi

def test_extract_rabi_on_clean_model_signal():
    omega, tau = TWO_PI * 100.94e3, 684e-6
    trace, _ = make_trace(lambda t: formulas.damped_model(t, omega, 0.0, tau, 0.17, 1.15e-3),
                          duration=2.048e-3, n=5120)
    res = dsp.extract_rabi(trace)
    assert abs(res.omega / omega - 1.0) < 1e-3
    assert abs(res.tau / tau - 1.0) < 0.03
    assert res.cycles == pytest.approx(69.0, abs=2.0)


def test_extract_rabi_pipeline_windows():
    # recovery holds over a broad cycle range with dense sampling
    for cycles, f0 in ((15, 50e3), (80, 100e3), (180, 200e3)):
        tau = cycles / f0
        duration = 2.5 * tau
        n = max(int(duration * f0 * 20), 512)
        trace, _ = make_trace(
            lambda t: formulas.damped_model(t, TWO_PI * f0, 0.0, tau, 0.0, 1.0),
            duration=duration, n=n)
        res = dsp.extract_rabi(trace)
        assert abs(res.omega / (TWO_PI * f0) - 1.0) < 1e-3
        assert abs(res.tau / tau - 1.0) < 0.03


def test_extract_rabi_undamped_flags_tau():
    trace, _ = make_trace(lambda t: 0.5 + 0.5 * np.cos(TWO_PI * 50e3 * t),
                          duration=1e-3, n=2048)
    res = dsp.extract_rabi(trace)
    assert res.flags["tau_unbounded"]
    assert math.isinf(res.cycles)


def test_extract_rabi_stage_errors_are_named():
    with pytest.raises(dsp.PipelineError) as err:
        dsp.extract_rabi(dsp.Trace(dt=1e-6, samples=np.ones(16)))
    assert "stage" in str(err.value)


# ------------------------------------------------------------- slow loss

@pytest.mark.parametrize("k", [3.0, -3.0, 40.0, -40.0])
def test_loss_window_closed_form(k):
    u = np.linspace(0.0, 1.0, 101)
    want = 0.5 - 0.2 * (1 - np.exp(-k * u)) / (1 - np.exp(-k))
    np.testing.assert_allclose(dsp._loss_window(u, 0.2, k, 0.5), want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("k", [0.0, 1e-17, -1e-17])
def test_loss_window_straight_line_at_vanishing_rate(k):
    u = np.linspace(0.0, 1.0, 101)
    assert np.array_equal(dsp._loss_window(u, 0.2, k, 0.5), 0.5 - 0.2 * u)


def test_loss_window_finite_at_steep_decay():
    # exp(-800) underflows, so exprel(-800) takes its -1/x branch, 1/800
    u = np.linspace(0.0, 1.0, 101)
    got = dsp._loss_window(u, 0.2, 800.0, 0.5)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, 0.5 - 0.2 * (1 - np.exp(-800.0 * u)), rtol=1e-15)


def fit_loss(trace, carrier_hz=100.94e3):
    """`dsp.fit_loss` against the band-pass at +-50% around `carrier_hz`, the
    band that `extract_rabi` and the figS2 pipeline use."""
    return dsp.fit_loss(trace, dsp.butterworth_bandpass(trace, 0.5 * carrier_hz, 1.5 * carrier_hz))


def test_fit_loss_from_raw_minus_filtered():
    omega, tau = TWO_PI * 100.94e3, 684e-6
    loss_amp, tau_loss = 0.17, 1.15e-3
    trace, _ = make_trace(
        lambda t: formulas.damped_model(t, omega, 0.0, tau, loss_amp, tau_loss),
        duration=2.048e-3, n=5120)
    fit = fit_loss(trace)
    assert fit.value("loss_amp") == pytest.approx(loss_amp, rel=0.05)
    assert fit.value("tau_loss") == pytest.approx(tau_loss, rel=0.25)


def test_fit_loss_flat_without_loss():
    omega, tau = TWO_PI * 100.94e3, 684e-6
    trace, _ = make_trace(
        lambda t: formulas.damped_model(t, omega, 0.0, tau, 0.0, 1.0),
        duration=2.048e-3, n=5120)
    fit = fit_loss(trace)
    assert abs(fit.value("loss_amp")) < 0.02


@pytest.mark.parametrize("noise", [0.05, None])
def test_fit_loss_flags_unresolved_loss(noise):
    omega, tau = TWO_PI * 100.94e3, 684e-6
    if noise is None:  # constant trace: the rate has no curvature to fix it
        trace = dsp.Trace(dt=2.048e-3 / 5120, samples=np.full(5120, 0.5))
    else:
        trace, _ = make_trace(
            lambda t: formulas.damped_model(t, omega, 0.0, tau, 0.0, 1.0),
            duration=2.048e-3, n=5120, noise=noise, seed=3)
    fit = fit_loss(trace)
    assert fit.meta["loss_unresolved"]
    assert abs(fit.value("loss_amp")) < 0.02
    assert math.isfinite(fit.value("loss_amp")) and math.isfinite(fit.value("offset"))
    assert fit.value("offset") == pytest.approx(0.5, abs=0.02)


def test_fit_loss_never_resolves_a_negative_loss():
    # a fitted rise is not a loss; on these noisy flat traces the rate's
    # sign test alone let two come back resolved with loss_amp < 0
    omega, tau = TWO_PI * 100.94e3, 684e-6
    for seed in range(200, 240):
        trace, _ = make_trace(
            lambda t: formulas.damped_model(t, omega, 0.0, tau, 0.0, 1.0),
            duration=2.048e-3, n=5120, noise=0.05, seed=seed)
        fit = fit_loss(trace)
        assert fit.meta["loss_unresolved"] or fit.value("loss_amp") >= 0.0, seed


def test_figS2_band_passes_its_trace_once_outside_extract_rabi(tmp_path, monkeypatch):
    """The loss fit and filtered.csv share the pipeline's one band-pass;
    `extract_rabi` runs the other."""
    calls = []
    bandpass = dsp.butterworth_bandpass

    def counting(*args):
        calls.append(args[1:])
        return bandpass(*args)

    monkeypatch.setattr(dsp, "butterworth_bandpass", counting)
    assert presets.reproduce("figS2", tmp_path)
    assert len(calls) == 2 and calls[1] == pytest.approx(calls[0], rel=1e-12)


# ------------------------------------------------------------- sinusoid

def test_sinusoid_phase_scan_contrast():
    phases = np.linspace(0, 2 * math.pi, 24, endpoint=False)
    y = 0.5 + 0.4 * np.cos(phases)
    assert sequences.ramsey_contrast(y, phases) == pytest.approx(0.8, rel=1e-9)


def test_sinusoid_time_scan_frequency():
    f0 = 10e3
    t = np.linspace(0, 1e-3, 64)
    y = 0.5 + 0.45 * np.cos(TWO_PI * f0 * t + 0.3)
    fit = dsp.fit_sinusoid(t, y)
    assert abs(fit.value("frequency")) == pytest.approx(f0, rel=1e-6)
    assert not fit.meta["frequency_unidentifiable"]


def test_sinusoid_zero_amplitude_flagged():
    t = np.linspace(0, 1e-3, 64)
    y = np.full(64, 0.5)
    fit = dsp.fit_sinusoid(t, y)
    assert fit.meta["frequency_unidentifiable"]
    assert fit.meta["contrast"] < 1e-6


def test_sinusoid_needs_five_points():
    with pytest.raises(dsp.FitError):
        dsp.fit_sinusoid(np.arange(4.0), np.arange(4.0))


# ---------------------------------------------------------- gaussian decay

def test_gaussian_decay_recovery():
    for t2 in (2.03e-3, 38e-3):
        t = np.linspace(0, 2.2 * t2, 12)
        c = np.exp(-((t / t2) ** 2))
        fit = dsp.fit_gaussian_decay(t, c)
        assert fit.value("t2") == pytest.approx(t2, rel=1e-6)


def test_gaussian_decay_single_point_rejected():
    with pytest.raises(dsp.FitError):
        dsp.fit_gaussian_decay(np.array([1e-3]), np.array([0.5]))


def test_gaussian_decay_range_check():
    with pytest.raises(dsp.FitError):
        dsp.fit_gaussian_decay(np.array([0.0, 1.0, 2.0]), np.array([1.2, 0.5, 0.1]))


# -------------------------------------------------------------- fit_linear

def test_linear_two_points():
    fit = dsp.fit_linear(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
    assert fit.value("slope") == pytest.approx(2.0)
    assert fit.value("intercept") == pytest.approx(0.0)


def test_linear_degenerate_y():
    fit = dsp.fit_linear(np.array([0.0, 1.0, 2.0]), np.zeros(3))
    assert fit.value("slope") == 0.0
    assert fit.sigma("slope") == 0.0


def test_linear_identical_x_rejected():
    with pytest.raises(dsp.FitError):
        dsp.fit_linear(np.ones(4), np.arange(4.0))


def test_linear_slope_band_with_noise():
    rng = np.random.default_rng(7)
    depths = np.array([11.0, 21.0, 33.0, 52.0])
    sigma = 300.0
    f = 10e3 + 192.0 * depths + rng.normal(0, sigma, len(depths))
    fit = dsp.fit_linear(depths, f, sigma=np.full(len(depths), sigma))
    assert abs(fit.value("slope") - 192.0) < 82.0


# ------------------------------------------------------ detection fidelity

def test_detection_fidelity_paper_point():
    out = dsp.detection_fidelity(dsp.Measured(0.94, 0.03), dsp.Measured(0.98, 0.01))
    assert out.value == pytest.approx(0.9592, abs=2e-4)
    assert out.sigma == pytest.approx(0.032, abs=2e-3)


def test_detection_fidelity_trivial_points():
    same = dsp.detection_fidelity(dsp.Measured(0.5, 0.02), dsp.Measured(0.5, 0.02))
    assert same.value == pytest.approx(1.0)
    exact = dsp.detection_fidelity(dsp.Measured(0.5, 0.0), dsp.Measured(1.0, 0.0))
    assert exact == dsp.Measured(0.5, 0.0)


def test_detection_fidelity_domain():
    with pytest.raises(ValueError):
        dsp.detection_fidelity(dsp.Measured(0.0, 0.1), dsp.Measured(0.9, 0.1))
    with pytest.raises(ValueError):
        dsp.detection_fidelity(dsp.Measured(0.5, 0.1), dsp.Measured(1.2, 0.1))


# ----------------------------------------------------------------- trace IO

def test_trace_csv_roundtrip(tmp_path):
    trace = dsp.Trace(dt=2e-6, samples=np.array([0.1, 0.5, 0.9, 0.4]))
    path = tmp_path / "trace.csv"
    path.write_text(format_csv({"t_s": trace.times, "value": trace.samples}))
    back = dsp.Trace.from_csv(path)
    assert back.dt == pytest.approx(trace.dt)
    np.testing.assert_allclose(back.samples, trace.samples)


def test_trace_csv_rejects_non_finite_row(tmp_path):
    text = "t_s,value\n0,0.1\n2e-06,nan\n4e-06,0.3\n6e-06,0.2\n"
    path = tmp_path / "trace.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"trace.csv: non-finite 'value' on line 3"):
        dsp.Trace.from_csv(path)
    path.write_text(text.replace("2e-06,nan", "2e-06,0.2").replace("4e-06", "nan"))
    with pytest.raises(ValueError, match=r"trace.csv: non-finite 't_s' on line 4"):
        dsp.Trace.from_csv(path)


def test_trace_rejects_non_finite_samples():
    with pytest.raises(ValueError, match=r"non-finite trace samples at index 2"):
        dsp.Trace(dt=1e-6, samples=np.array([0.1, 0.2, np.inf, np.nan]))


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-6])
def test_trace_rejects_bad_sample_interval(dt):
    with pytest.raises(ValueError, match=r"\bdt\b"):
        dsp.Trace(dt=dt, samples=np.ones(8))


def test_trace_rejects_nonuniform():
    with pytest.raises(ValueError):
        dsp.Trace.from_xy(np.array([0.0, 1.0, 3.0]), np.zeros(3))
