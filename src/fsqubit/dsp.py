"""Signal extraction and curve fitting for oscillation traces.

Implements the damped-Rabi analysis chain (Fourier spectrum, Lorentzian
carrier fit, zero-phase Butterworth band-pass, Hilbert envelope, exponential
envelope fit) plus the general damped least-squares engine behind every fit
in the package.

The band-pass and the envelope are numpy code, so no command imports
`scipy.signal`, which costs about a second and 44 MB of peak memory.  The
band-pass design is a bit-equal port of `scipy.signal.butter`; the zero-phase
filter runs in blocks of FILTER_BLOCK samples and agrees with
`scipy.signal.sosfiltfilt` to about 1e-14 of the output's largest magnitude,
not bit for bit (see `butterworth_bandpass`).  `scipy.special` (about 0.3 s)
is imported inside `_loss_window`, the only function that uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import formulas
from .config import read_csv


# share of samples at each record edge left out of fits after a filter step
EDGE_FRACTION = 0.05
# low-frequency spectrum bins skipped by the carrier peak search
GUARD_BINS = 3
# samples of odd reflection added at each end before the band-pass runs:
# scipy.signal.sosfiltfilt's default, 3 (2 * sections + 1), for two sections
FILTER_PAD = 15
# samples per block of the band-pass's block recursion; its rounding moves the
# fits downstream, and with 64 every pinned preset check value holds
FILTER_BLOCK = 64


class FitError(Exception):
    pass


class DegenerateParameterError(FitError):
    """J^T J is numerically singular; carries the offending parameter pair."""

    def __init__(self, name_a: str, name_b: str):
        self.pair = (name_a, name_b)
        super().__init__(f"parameters {name_a!r} and {name_b!r} are degenerate")


class PipelineError(Exception):
    """A stage of the extraction chain failed; the stage name is included."""


class Measured(NamedTuple):
    value: float
    sigma: float


def _require_finite(values: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"non-finite trace {what} at index {bad[0]}")


@dataclass(frozen=True)
class Trace:
    """Uniformly sampled real signal.

    `valid` is an optional mask of the samples an envelope fit may use; the
    Hilbert envelope sets it to exclude its edge-distorted samples.
    """

    dt: float
    samples: np.ndarray
    valid: np.ndarray | None = None

    def __post_init__(self):
        y = np.asarray(self.samples, dtype=float)
        y.setflags(write=False)
        object.__setattr__(self, "samples", y)
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"sample interval dt must be positive and finite, got {self.dt!r}")
        _require_finite(y, "samples")

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n) * self.dt

    @classmethod
    def from_xy(cls, t: np.ndarray, y: np.ndarray) -> "Trace":
        t = np.asarray(t, dtype=float)
        diffs = np.diff(t)
        if len(diffs) == 0:
            raise ValueError("need at least two samples")
        dt = float(np.median(diffs))
        if not np.allclose(diffs, dt, rtol=1e-6, atol=1e-12 * abs(dt)):
            raise ValueError("trace sampling is not uniform")
        return cls(dt=dt, samples=np.asarray(y, dtype=float))

    @classmethod
    def from_csv(cls, path) -> "Trace":
        """A trace from the numeric CSV file at `path` (see `config.read_csv`):
        times in the first column, samples in the second."""
        _, data = read_csv(path)
        if data.shape[1] < 2:
            raise ValueError(f"{path}: need a time and a sample column")
        return cls.from_xy(data[:, 0], data[:, 1])


@dataclass(frozen=True)
class FitResult:
    names: tuple[str, ...]
    params: np.ndarray
    uncertainties: np.ndarray
    covariance: np.ndarray
    rss: float
    converged: bool
    iterations: int
    meta: dict = field(default_factory=dict)

    def value(self, name: str) -> float:
        return float(self.params[self.names.index(name)])

    def sigma(self, name: str) -> float:
        return float(self.uncertainties[self.names.index(name)])


def _numeric_jacobian(fn, x, params, f0):
    """Forward-difference Jacobian of `fn` at `params`."""
    p = np.asarray(params, dtype=float)
    jac = np.empty((len(f0), len(p)))
    root_eps = math.sqrt(np.finfo(float).eps)
    for j in range(len(p)):
        # relative step with an absolute floor so near-zero parameters
        # (converged phases, offsets) keep a resolvable step
        h = root_eps * (abs(p[j]) + 1.0)
        stepped = p.copy()
        stepped[j] += h
        np.divide(np.subtract(fn(x, *stepped), f0), h, out=jac[:, j])
    return jac


def nlls(model_fn: Callable, data, p0, names: tuple[str, ...]) -> FitResult:
    """Unweighted damped (Levenberg-Marquardt) least squares with numeric Jacobian.

    Parameters
    ----------
    model_fn : callable(x, *params) -> y
    data : (x, y) pair
    p0 : initial parameter vector (finite)
    names : parameter names, one per entry of p0

    The covariance is (J^T J)^-1 scaled by the reduced chi-square estimate
    rss / (n - p), so the uncertainties come from the residual scatter.

    Converged when the relative cost change drops below 1e-10 or the
    gradient infinity-norm below 1e-12; an exit after 200 iterations returns
    converged=False.
    """
    x, y = data
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = np.asarray(p0, dtype=float).copy()
    if not np.all(np.isfinite(p)):
        raise FitError("initial parameters must be finite")
    if len(y) < len(p) + 1:
        raise FitError(f"need at least {len(p) + 1} points to fit {len(p)} parameters")

    # each parameter vector is evaluated once: f0 is the model at p, kept
    # from the accepted trial, and jac is taken at p_jac
    f0 = model_fn(x, *p)
    r = y - f0
    cost = float(r @ r)
    lam = 1e-3
    iterations = 0
    converged = False
    p_jac = None
    for iterations in range(1, 201):
        jac = _numeric_jacobian(model_fn, x, p, f0)
        p_jac = p
        jtj = jac.T @ jac
        grad = jac.T @ r
        if float(np.abs(grad).max(initial=0.0)) < 1e-12:
            converged = True
            iterations -= 1
            break
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = 1e-30
        accepted = False
        for _ in range(50):
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = p + step
            f_trial = model_fn(x, *trial)
            r_trial = y - f_trial
            cost_trial = float(r_trial @ r_trial)
            if np.isfinite(cost_trial) and cost_trial <= cost:
                rel_drop = (cost - cost_trial) / max(cost, 1e-300)
                p, f0, r, cost = trial, f_trial, r_trial, cost_trial
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                if rel_drop < 1e-10:
                    converged = True
                break
            lam *= 10.0
            if lam > 1e12:
                break
        if converged or not accepted:
            if not accepted and not converged:
                converged = True  # no downhill direction left at machine resolution
            break

    if p is not p_jac:
        jac = _numeric_jacobian(model_fn, x, p, f0)
        jtj = jac.T @ jac
    dof = len(y) - len(p)
    cov = _covariance(jtj, names) * (cost / dof if dof > 0 else 0.0)
    unc = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return FitResult(
        names=names,
        params=p,
        uncertainties=unc,
        covariance=cov,
        rss=cost,
        converged=converged,
        iterations=iterations,
    )


def _covariance(jtj: np.ndarray, names: tuple[str, ...]) -> np.ndarray:
    scale = np.sqrt(np.clip(np.diag(jtj), 0.0, None))
    scale[scale == 0] = 1.0
    normalized = jtj / np.outer(scale, scale)
    evals, evecs = np.linalg.eigh(normalized)
    if evals[-1] <= 0 or evals[0] < 1e-14 * evals[-1]:
        vec = np.abs(evecs[:, 0])
        order = np.argsort(vec)[::-1]
        a = names[order[0]]
        b = names[order[1]] if len(names) > 1 else names[order[0]]
        raise DegenerateParameterError(a, b)
    inv = (evecs / evals) @ evecs.T
    return inv / np.outer(scale, scale)


@dataclass(frozen=True)
class Spectrum:
    """One-sided amplitude spectrum; `magnitude` is in signal units."""

    frequencies: np.ndarray  # Hz
    magnitude: np.ndarray
    n: int
    dt: float

    def peak_frequency(self) -> float:
        i = int(np.argmax(self.magnitude[1:]) + 1)
        return float(self.frequencies[i])


def fft_spectrum(trace: Trace) -> Spectrum:
    """One-sided magnitude spectrum of a mean-removed trace (no window)."""
    if trace.n < 8:
        raise ValueError("spectral operations need at least 8 samples")
    y = trace.samples - trace.samples.mean()
    spec = np.fft.rfft(y)
    mags = np.abs(spec) * 2.0 / trace.n
    mags[0] = np.abs(spec[0]) / trace.n
    if trace.n % 2 == 0:
        mags[-1] = np.abs(spec[-1]) / trace.n
    freqs = np.fft.rfftfreq(trace.n, trace.dt)
    return Spectrum(frequencies=freqs, magnitude=mags, n=trace.n, dt=trace.dt)


def _lorentzian(x, center, fwhm, amplitude, offset):
    return amplitude / (1.0 + (2.0 * (x - center) / fwhm) ** 2) + offset


def fit_lorentzian(data) -> FitResult:
    """Lorentzian fit with a deterministic peak-and-half-width initial guess.

    `data` is an (x, y) pair.  Dips are fitted with negative amplitude when
    the strongest interior feature points downward.
    """
    x, y = data
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    base = float(np.median(y))
    i_hi = int(np.argmax(y))
    i_lo = int(np.argmin(y))
    dip = (base - y[i_lo]) > (y[i_hi] - base)
    i_pk = i_lo if dip else i_hi
    if i_pk in (0, len(y) - 1):
        raise FitError("spectrum extremum sits on the boundary; cannot fit a Lorentzian")
    amp = y[i_pk] - base
    half = base + amp / 2.0
    j = i_pk
    while j < len(y) - 1 and (y[j] < half if dip else y[j] > half):
        j += 1
    k = i_pk
    while k > 0 and (y[k] < half if dip else y[k] > half):
        k -= 1
    width = max(float(x[j] - x[k]), float(abs(x[1] - x[0])))
    p0 = [float(x[i_pk]), width, float(amp), base]
    return nlls(_lorentzian, (x, y), p0, names=("center", "fwhm", "amplitude", "offset"))


def _fit_carrier(spectrum: Spectrum) -> FitResult:
    """Lorentzian carrier fit restricted to a window around the strongest
    peak above the low-frequency guard.

    A line narrower than the frequency resolution (all power in one bin)
    makes the Lorentzian ill-posed; the peak bin is then reported directly
    with a one-bin center uncertainty."""
    mags = spectrum.magnitude
    freqs = spectrum.frequencies
    if len(mags) <= GUARD_BINS + 2:
        raise FitError("spectrum too short for a guarded peak search")
    i_pk = int(np.argmax(mags[GUARD_BINS:]) + GUARD_BINS)
    f_pk = freqs[i_pk]
    resolution = float(freqs[1] - freqs[0])
    lo = max(1, int(np.searchsorted(freqs, 0.5 * f_pk)))
    hi = min(len(freqs), int(np.searchsorted(freqs, 1.5 * f_pk)) + 1)
    if hi - lo < 8:
        lo = max(1, i_pk - 10)
        hi = min(len(freqs), i_pk + 11)
    try:
        return fit_lorentzian((freqs[lo:hi], mags[lo:hi]))
    except DegenerateParameterError:
        params = np.array([f_pk, resolution, float(mags[i_pk]), 0.0])
        unc = np.array([resolution, resolution, 0.0, 0.0])
        return FitResult(
            names=("center", "fwhm", "amplitude", "offset"),
            params=params,
            uncertainties=unc,
            covariance=np.diag(unc**2),
            rss=0.0,
            converged=True,
            iterations=0,
            meta={"unresolved_line": True},
        )


def _bandpass_sos(fs: float, f_lo: float, f_hi: float) -> np.ndarray:
    """`scipy.signal.butter(2, [f_lo, f_hi], btype="band", fs=fs, output="sos")`,
    bit for bit: scipy's steps (`buttap`, `lp2bp_zpk`, `bilinear_zpk`, the
    "nearest" pairing of `zpk2sos`) in scipy's order, worked out for order 2."""
    # the analog prototype's poles, and the band edges pre-warped as for fs = 2
    p = -np.exp(1j * np.pi * np.array([-1.0, 1.0]) / 4)
    warped = 2 * 2.0 * np.tan(np.pi * (np.array([f_lo, f_hi], dtype=float) / (fs / 2)) / 2.0)
    bw = float(warped[1] - warped[0])
    wo = float(np.sqrt(warped[0] * warped[1]))
    # low-pass to band-pass: each pole splits around +-wo, two zeros at the origin
    p = p * bw / 2
    root = np.sqrt(p**2 - wo**2)
    p = np.concatenate((p + root, p - root))
    # bilinear map: the zeros go to z = 1 and the two at infinity to z = -1
    gain = bw**2 * np.real(16.0 / np.prod(4.0 - p))
    p = (4.0 + p) / (4.0 - p)
    # one pole of each conjugate pair, in _cplxreal's order; the pole nearest the
    # unit circle goes to the last section with the zero pair nearest it
    up = p[p.imag > 0]
    up = up[np.lexsort((abs(up.imag), up.real))]
    if up[1].real - up[0].real <= 100 * np.finfo(float).eps * abs(up[0]):
        up = up[np.lexsort([abs(up.imag)])]
    worst = int(np.argmin(np.abs(1 - np.abs(up))))
    zero = -1.0 if abs(-1.0 - up[worst]) <= abs(1.0 - up[worst]) else 1.0
    sos = np.empty((2, 6))
    for row, pole in ((0, up[1 - worst]), (1, up[worst])):
        sos[row, 3:] = np.convolve([1.0, -pole], [1.0, -pole.conj()]).real
    sos[0, :3] = gain, 2.0 * zero * gain, gain
    sos[1, :3] = 1.0, -2.0 * zero, 1.0
    return sos


class _BlockFilter(NamedTuple):
    """A cascade of two second-order sections run FILTER_BLOCK samples at a time.

    The sections, each in transposed direct form II as `scipy.signal.sosfilt`
    runs them, make one 4-state system s' = A s + B x, y = C s + D x.  With
    L = FILTER_BLOCK, `step` (L x (L + 4)) maps a block's input to its
    zero-state output (the lower-triangular Toeplitz matrix of the impulse
    response) and its zero-state end state, `free` (4 x L) maps the block's
    start state to its output, and `carry` = A^L carries a start state to the
    next block's (Burrus, IEEE Trans. Audio Electroacoust. 20, 230, 1972).
    `steady` is the state after a long unit step, `sosfilt_zi`'s initial state.
    """

    step: np.ndarray
    free: np.ndarray
    carry: np.ndarray
    steady: np.ndarray

    @classmethod
    def of(cls, sos: np.ndarray) -> "_BlockFilter":
        (b0, b1, b2, _, a1, a2), (d0, d1, d2, _, c1, c2) = sos
        e1, e2 = d1 - c1 * d0, d2 - c2 * d0
        a = np.array([[-a1, 1.0, 0.0, 0.0],
                      [-a2, 0.0, 0.0, 0.0],
                      [e1, 0.0, -c1, 1.0],
                      [e2, 0.0, -c2, 0.0]])
        b = np.array([b1 - a1 * b0, b2 - a2 * b0, e1 * b0, e2 * b0])
        c = np.array([d0, 0.0, 1.0, 0.0])
        n = FILTER_BLOCK
        # powers[k] = A^k for k = 0..L, by doubling
        powers = np.empty((n + 1, 4, 4))
        powers[0] = np.eye(4)
        powers[1] = a
        m = 1
        while m < n:
            k = min(m, n - m)
            powers[m + 1:m + k + 1] = powers[1:k + 1] @ powers[m]
            m += k
        c_powers = c @ powers
        impulse = np.concatenate((np.zeros(n - 1), [b0 * d0], c_powers[:n - 1] @ b))
        step = np.empty((n, n + 4))
        step[:, :n] = np.lib.stride_tricks.sliding_window_view(impulse, n)[::-1]
        step[:, n:] = powers[n - 1::-1] @ b
        return cls(step, c_powers[:n].T, powers[n], np.linalg.solve(np.eye(4) - a, b))

    def run(self, x: np.ndarray, state: np.ndarray) -> np.ndarray:
        """The cascade's output for input `x` from start state `state`."""
        n = FILTER_BLOCK
        blocks = np.zeros((-(-len(x) // n), n))
        blocks.flat[:len(x)] = x
        out = blocks @ self.step
        starts = np.empty((len(blocks), 4))
        for j, end in enumerate(out[:, n:]):
            starts[j] = state
            state = self.carry @ state + end
        return (out[:, :n] + starts @ self.free).ravel()[:len(x)]


def butterworth_bandpass(trace: Trace, f_lo: float, f_hi: float) -> Trace:
    """2nd-order Butterworth band-pass, run forward and backward (zero phase).

    This is `scipy.signal.sosfiltfilt` of `scipy.signal.butter(2, [f_lo, f_hi],
    btype="band", fs=1/dt, output="sos")`: the samples are extended by an odd
    reflection of FILTER_PAD samples at each end, and each pass starts from the
    steady state of its first sample.  The design is bit-equal to scipy's; the
    block recursion of `_BlockFilter` sums in another order than scipy's
    sample-by-sample one, so the output agrees to within about 1e-14 of max |y|.
    """
    nyquist = 0.5 / trace.dt
    if not 0.0 < f_lo < f_hi:
        raise ValueError("need 0 < f_lo < f_hi")
    if f_hi >= nyquist:
        raise ValueError(f"upper cutoff {f_hi:.6g} Hz reaches the Nyquist frequency {nyquist:.6g} Hz")
    y = trace.samples
    if len(y) <= FILTER_PAD:
        raise ValueError(f"the band-pass pads each end with {FILTER_PAD} samples and needs more "
                         f"than {FILTER_PAD}, got {len(y)}")
    filt = _BlockFilter.of(_bandpass_sos(1.0 / trace.dt, f_lo, f_hi))
    ext = np.concatenate((2 * y[0] - y[FILTER_PAD:0:-1], y, 2 * y[-1] - y[-2:-FILTER_PAD - 2:-1]))
    forward = filt.run(ext, filt.steady * ext[0])
    backward = filt.run(forward[::-1], filt.steady * forward[-1])
    return Trace(dt=trace.dt, samples=backward[::-1][FILTER_PAD:-FILTER_PAD])


def hilbert_envelope(trace: Trace) -> Trace:
    """Magnitude of the analytic signal, sqrt(y^2 + H[y]^2).

    The transform is computed spectrally with zero padding to the next power
    of two, as `scipy.signal.hilbert(y, N=nfft)[:n]`.  The first and last
    EDGE_FRACTION of samples are flagged invalid; envelope fits skip them.
    """
    n = trace.n
    nfft = 1 << (n - 1).bit_length()
    spec = np.fft.fft(trace.samples, nfft)
    # the analytic signal keeps the positive frequencies, doubled, and drops the negative ones
    spec[1:(nfft + 1) // 2] *= 2.0
    spec[nfft // 2 + 1:] = 0.0
    env = np.abs(np.fft.ifft(spec)[:n])
    return Trace(dt=trace.dt, samples=env, valid=_interior(n))


def _interior(n: int) -> np.ndarray:
    """Mask that drops the first and last EDGE_FRACTION of n samples."""
    n_edge = int(EDGE_FRACTION * n)
    valid = np.ones(n, dtype=bool)
    if n_edge > 0:
        valid[:n_edge] = False
        valid[-n_edge:] = False
    return valid


def _exp_rate(t, amplitude, rate):
    return amplitude * np.exp(-rate * t)


def fit_exponential(envelope: Trace) -> FitResult:
    """Fit amplitude * exp(-t/tau) to an envelope, reporting tau.

    Internally parameterized by the rate 1/tau so a flat envelope stays
    finite; such fits come back flagged `tau_unbounded` with the tau
    uncertainty spanning zero rate.
    """
    t = envelope.times
    y = envelope.samples
    mask = envelope.valid if envelope.valid is not None else np.ones(len(y), bool)
    pos = mask & (y > 0)
    if pos.sum() < 3:
        raise FitError("not enough positive envelope samples to fit")
    slope, intercept = np.polyfit(t[pos], np.log(y[pos]), 1)
    p0 = [math.exp(intercept), max(-slope, 1e-6 / (t[-1] - t[0] + 1e-300))]
    fit = nlls(_exp_rate, (t[mask], y[mask]), p0, names=("amplitude", "rate"))
    amp, rate = fit.params
    rate_sigma = fit.uncertainties[1]
    span = float(t[mask][-1] - t[mask][0])
    # unbounded when the rate is non-positive, its sign is not resolved, or
    # the implied decay time dwarfs the record
    unbounded = (rate <= 0) or (rate_sigma >= abs(rate)) or (rate * span < 1e-2)
    tau = 1.0 / rate if rate > 0 else math.inf
    tau_sigma = rate_sigma / rate**2 if rate > 0 else math.inf
    jac = np.array([[1.0, 0.0], [0.0, -1.0 / rate**2 if rate != 0 else 0.0]])
    cov = jac @ fit.covariance @ jac.T
    return FitResult(
        names=("amplitude", "tau"),
        params=np.array([amp, tau]),
        uncertainties=np.array([fit.uncertainties[0], tau_sigma]),
        covariance=cov,
        rss=fit.rss,
        converged=fit.converged,
        iterations=fit.iterations,
        meta={"tau_unbounded": unbounded, "rate": rate, "rate_sigma": rate_sigma},
    )


@dataclass(frozen=True)
class RabiExtraction:
    omega: float          # rad/s
    omega_sigma: float
    tau: float            # s
    tau_sigma: float
    cycles: float
    flags: dict


def extract_rabi(trace: Trace) -> RabiExtraction:
    """Carrier and envelope extraction for a damped oscillation trace.

    Chain: Fourier spectrum, Lorentzian carrier fit, band-pass at +-50%
    around the carrier, Hilbert envelope, exponential envelope fit.  Any
    stage failure is re-raised with the stage name.

    Slow population loss concentrates spectral weight in the first few
    resolution bins; the carrier peak is picked above GUARD_BINS and the
    Lorentzian is fitted inside +-50% of that peak so a strong loss
    component cannot capture the fit.
    """

    def stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            raise PipelineError(f"stage {name!r}: {exc}") from exc

    spectrum = stage("fft", fft_spectrum, trace)
    carrier = stage("lorentzian", _fit_carrier, spectrum)
    f_c = carrier.value("center")
    if f_c <= 0:
        raise PipelineError("stage 'lorentzian': carrier frequency is not positive")
    filtered = stage("bandpass", butterworth_bandpass, trace, 0.5 * f_c, 1.5 * f_c)
    centered = Trace(dt=filtered.dt, samples=filtered.samples - filtered.samples.mean())
    envelope = stage("envelope", hilbert_envelope, centered)
    env_fit = stage("exponential", fit_exponential, envelope)
    tau = env_fit.value("tau")
    omega = 2.0 * math.pi * f_c
    if env_fit.meta["tau_unbounded"] or not math.isfinite(tau):
        n_cycles = math.inf
    else:
        n_cycles = formulas.cycles(omega, tau)
    flags = dict(env_fit.meta)
    # carrier center uncertainty in angular units
    omega_sigma = 2.0 * math.pi * carrier.sigma("center")
    return RabiExtraction(
        omega=omega,
        omega_sigma=omega_sigma,
        tau=tau,
        tau_sigma=env_fit.sigma("tau"),
        cycles=n_cycles,
        flags=flags,
    )


def _loss_window(u, drop, rate_span, level):
    """level - drop (1 - exp(-k u)) / (1 - exp(-k)) with k = rate_span, on
    u in [0, 1]: `level` at u = 0, `level - drop` at u = 1, a straight line
    at k = 0; finite for k > -709.78, below which exp(-k) overflows."""
    from scipy.special import exprel

    with np.errstate(over="ignore", invalid="ignore"):
        return level - drop * u * exprel(-rate_span * u) / exprel(-rate_span)


def fit_loss(trace: Trace, filtered: Trace) -> FitResult:
    """Slow-loss parameters from the difference of the raw trace and
    `filtered`, its band-passed version (`butterworth_bandpass` at +-50%
    around the carrier, as `extract_rabi` runs it).

    The band-pass keeps only the oscillation, so the difference carries the
    slow population loss, offset - loss_amp (1 - exp(-t/tau_loss)).  The
    difference is taken on the raw samples, before any envelope step.

    The band-pass leaves transients at the record edges, so the first and
    last EDGE_FRACTION of samples are left out, as in `hilbert_envelope`.
    Over the remaining window [t0, t1] the fit is parameterized by the drop
    across the window, the rate 1/tau_loss (as rate (t1 - t0)) and the level
    at t0, seeded from medians of the early and late tenths of the window.
    A loss time far beyond the record then only makes the fitted curve
    straight, instead of sending loss_amp and tau_loss off together along
    amp/tau = constant.

    meta["loss_unresolved"] is set when the fitted drop is not positive (a
    rise is not a loss), the rate is not positive, its sign is not
    resolved (sigma >= |rate|), rate (t1 - t0) < 1e-2 (no curvature
    over the window), or rate t0 >= 1 (a loss faster than the masked leading
    edge, not separable from the band-pass transient).  The curve then says
    nothing trustworthy about an amplitude, so loss_amp is the drop across
    the record, t = 0 to its last sample, and offset the level at t = 0, of
    a straight line fitted to the window; never an amplitude extrapolated
    along the fitted curve.  tau_loss is 1/rate, inf when the rate is not
    positive.  meta also carries `rate` and `rate_sigma`.
    """
    mask = _interior(trace.n)
    t = trace.times[mask]
    slow = (trace.samples - filtered.samples)[mask]
    if len(t) < 4:
        raise FitError("too few samples left inside the edge mask to fit the loss")
    t0, span = float(t[0]), float(t[-1] - t[0])
    tenth = max(len(slow) // 10, 1)
    early, late = float(np.median(slow[:tenth])), float(np.median(slow[-tenth:]))
    try:
        fit = nlls(_loss_window, ((t - t0) / span, slow), [early - late, 1.0, early],
                   names=("drop", "rate_span", "level"))
        drop, k, level = fit.params
        rate, rate_sigma = float(k / span), float(fit.uncertainties[1] / span)
    except DegenerateParameterError:
        # no loss curvature at all (a constant trace): the rate is unidentified
        fit, drop, rate, rate_sigma = None, 0.0, 0.0, math.inf
    unresolved = bool(fit is None or drop <= 0 or rate <= 0 or rate_sigma >= abs(rate)
                      or rate * span < 1e-2 or rate * t0 >= 1.0)
    tau = 1.0 / rate if rate > 0 else math.inf
    tau_sigma = rate_sigma / rate**2 if rate > 0 else math.inf
    if unresolved:
        line = fit_linear(t, slow)
        record = float(trace.times[-1])
        params = np.array([-line.value("slope") * record, tau, line.value("intercept")])
        jac = np.array([[-record, 0.0], [0.0, 0.0], [0.0, 1.0]])
        cov = jac @ line.covariance @ jac.T
        cov[1, 1] = tau_sigma**2
        rss = line.rss
    else:
        # window parameters to offset - loss_amp (1 - exp(-rate t))
        full = -1.0 / math.expm1(-k)              # 1 / (1 - exp(-k))
        back = math.exp(rate * t0)
        params = np.array([drop * full * back, tau, level + drop * (back - 1.0) * full])
        d_full = -full / math.expm1(k)
        d_amp = drop * back * (d_full + full * t0 / span)
        jac = np.array([
            [full * back, d_amp, 0.0],
            [0.0, -span / k**2, 0.0],
            [(back - 1.0) * full, d_amp - drop * d_full, 1.0],
        ])
        cov = jac @ fit.covariance @ jac.T
        rss = fit.rss
    return FitResult(
        names=("loss_amp", "tau_loss", "offset"),
        params=params,
        uncertainties=np.sqrt(np.clip(np.diag(cov), 0.0, None)),
        covariance=cov,
        rss=rss,
        converged=True if fit is None else fit.converged,
        iterations=0 if fit is None else fit.iterations,
        meta={"loss_unresolved": unresolved, "rate": rate, "rate_sigma": rate_sigma},
    )


def _sin_time(t, amplitude, frequency, phase, offset):
    return offset + amplitude * np.cos(2.0 * np.pi * frequency * t + phase)


def fit_sinusoid(x, y) -> FitResult:
    """Free-frequency sinusoid fit of a time scan, y = offset +
    amplitude cos(2 pi f x + phase), with f initialized from the periodogram
    peak.  meta carries the fringe contrast amplitude/offset and a
    `frequency_unidentifiable` flag when the amplitude is consistent with
    zero.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 5:
        raise FitError("sinusoid fits need at least 5 points")
    off0 = float(y.mean())
    f0 = fft_spectrum(Trace.from_xy(x, y)).peak_frequency()
    if f0 <= 0:
        f0 = 1.0 / (x[-1] - x[0])
    z = np.sum((y - off0) * np.exp(-2j * np.pi * f0 * x))
    amp0 = 2.0 * abs(z) / len(x)
    p0 = [max(amp0, 1e-12), f0, float(np.angle(z)), off0]
    names = ("amplitude", "frequency", "phase", "offset")
    try:
        fit = nlls(_sin_time, (x, y), p0, names=names)
    except DegenerateParameterError:
        # vanishing amplitude leaves phase (and frequency) unconstrained
        params = np.array(p0)
        params[0] = 0.0
        unc = np.full(len(p0), np.inf)
        unc[-1] = 0.0
        fit = FitResult(names, params, unc, np.diag(unc**2), rss=float(np.sum((y - off0) ** 2)),
                        converged=True, iterations=0)
    amp = abs(fit.value("amplitude"))
    off = fit.value("offset")
    meta = dict(fit.meta)
    meta["contrast"] = amp / off if off != 0 else math.inf
    floor = 1e-9 * (abs(off) + float(np.ptp(y)) + 1e-300)
    meta["frequency_unidentifiable"] = amp <= max(fit.sigma("amplitude"), floor)
    return FitResult(fit.names, fit.params, fit.uncertainties, fit.covariance,
                     fit.rss, fit.converged, fit.iterations, meta)


def _gauss_decay(t, contrast0, t2):
    return contrast0 * np.exp(-((t / t2) ** 2))


def fit_gaussian_decay(times, contrasts) -> FitResult:
    """Fit C0 exp(-(T/T2)^2) to contrast-vs-dark-time data."""
    t = np.asarray(times, dtype=float)
    c = np.asarray(contrasts, dtype=float)
    if np.any(c < 0) or np.any(c > 1.05):
        raise FitError("contrasts must lie in [0, 1.05]")
    c0 = float(c.max())
    below = np.nonzero(c < c0 / math.e)[0]
    t2_0 = float(t[below[0]]) if len(below) else float(t.max())
    if t2_0 <= 0:
        t2_0 = float(t.max()) or 1.0
    return nlls(_gauss_decay, (t, c), [c0, t2_0], names=("contrast0", "t2"))


def fit_linear(x, y, sigma=None) -> FitResult:
    """Weighted least-squares line fit, closed form."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(np.unique(x)) < 2:
        raise FitError("need at least two distinct x values")
    w = np.ones_like(y) if sigma is None else 1.0 / np.asarray(sigma, dtype=float) ** 2
    sw = w.sum()
    sx = (w * x).sum()
    sy = (w * y).sum()
    sxx = (w * x * x).sum()
    sxy = (w * x * y).sum()
    det = sw * sxx - sx * sx
    slope = (sw * sxy - sx * sy) / det
    intercept = (sxx * sy - sx * sxy) / det
    cov = np.array([[sw, -sx], [-sx, sxx]]) / det
    resid = y - slope * x - intercept
    rss = float((w * resid**2).sum())
    if sigma is None:
        dof = len(y) - 2
        cov = cov * (rss / dof if dof > 0 else 0.0)
    unc = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return FitResult(
        names=("slope", "intercept"),
        params=np.array([slope, intercept]),
        uncertainties=unc,
        covariance=cov,
        rss=rss,
        converged=True,
        iterations=0,
    )


def detection_fidelity(measured: Measured, excitation: Measured) -> Measured:
    """Ratio of measured to excited population with first-order error
    propagation, treating the two inputs as independent."""
    for m in (measured, excitation):
        if not 0.0 < m.value <= 1.05:
            raise ValueError("populations must lie in (0, 1.05]")
    ratio = measured.value / excitation.value
    rel = math.hypot(measured.sigma / measured.value, excitation.sigma / excitation.value)
    return Measured(ratio, ratio * rel)
