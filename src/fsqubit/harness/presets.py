"""Scenario runners and figure-reproduction presets.

Each runner simulates one scenario kind, writes the data CSVs and SVG plots
into the run directory, and records pass/fail checks computed from the CSVs
it just wrote (so every flag in summary.json can be re-derived offline).
The `reproduce` entry point maps figure identifiers onto packaged scenario
files plus their runners.
"""

from __future__ import annotations

import importlib.resources
import math
from pathlib import Path

import numpy as np

from .. import atom, driven, dsp, formulas, lindblad, rates, sequences
from ..config import ConfigError
from ..units import TWO_PI, ordinary
from .readout import normalize_readout
from .runio import RunWriter
from .scenario import Scenario, load_scenario
from .svgplot import Series, emit_plot

FIGURE_PRESETS = (
    "fig1c", "fig2a", "fig2b", "fig2c", "fig3d", "fig3e",
    "fig4c", "fig4e", "figS1", "figS2", "figS3",
)

_KIND_DEFAULT_SCENARIO = {
    "rabi": "fig3d",
    "lz": "fig1c",
    "ramsey": "ramsey_default",
    "echo": "echo_default",
    "scatter": "figS3",
    "at": "fig2a",
    "cpt": "fig2c",
    "detuning": "fig3e",
    "coherence": "fig4c",
    "lightshift": "fig4e",
    "pipeline": "figS2",
    "fidelity": "figS1",
}


def packaged_scenario_path(name: str) -> Path:
    res = importlib.resources.files("fsqubit") / "data" / "scenarios" / f"{name}.scenario"
    return Path(str(res))


def default_scenario_for_kind(kind: str) -> Path:
    if kind not in _KIND_DEFAULT_SCENARIO:
        raise ConfigError(f"no default scenario for kind {kind!r}")
    return packaged_scenario_path(_KIND_DEFAULT_SCENARIO[kind])


def _drive_config(sc: Scenario, scheme, *delta_two: float) -> driven.RamanConfig:
    """The Raman pair of `[drive]`, on two-photon resonance unless a
    `delta_two` is passed."""
    return driven.raman_config(scheme, sc.get("drive", "rabi_up"), sc.get("drive", "rabi_down"),
                               sc.get("drive", "detuning"), *delta_two)


def _ensemble(sc: Scenario) -> sequences.EnsembleSpec:
    """The `[ensemble]` spreads, averaged over `samples` Gauss-Hermite nodes per axis."""
    return sequences.EnsembleSpec(
        rabi_spread=sc.get("ensemble", "rabi_spread"),
        delta_sigma=sc.get("ensemble", "delta_sigma"),
        samples=sc.get_int("ensemble", "samples"),
    )


def _contrast_decay(sc: Scenario, w: RunWriter, section: str, name: str, scan_fn,
                    phases, cfg, table, spec, ou):
    """Fringe contrast at each dark time of `section`, written to `name`, and
    the Gaussian decay fitted to the contrasts read back from it."""
    dark = np.linspace(sc.get(section, "dark_min"), sc.get(section, "dark_max"),
                       sc.get_int(section, "dark_points"))
    pops = scan_fn(dark, phases, cfg, table, ensemble=spec, ou=ou)
    contrast = np.array([sequences.ramsey_contrast(row, phases) for row in pops])
    w.write_csv(name, {"dark_s": dark, "contrast": contrast})
    data = w.read_csv(name)
    return data, dsp.fit_gaussian_decay(data["dark_s"], np.clip(data["contrast"], 0, 1.05))


# --------------------------------------------------------------- runners

def run_rabi(sc: Scenario, w: RunWriter) -> None:
    """Ensemble-mean Rabi trace: the static spreads of `[ensemble]` are
    averaged over Gauss-Hermite nodes, `samples` per spread axis, so the
    trace and its checks do not depend on `[scenario] seed`."""
    scheme = atom.lambda_scheme()
    table = atom.default_decay_table()
    cfg = _drive_config(sc, scheme, sc.get("drive", "delta"))
    traj = sequences.run_rabi_ensemble(
        cfg, table,
        duration=sc.get("simulation", "duration"),
        n_samples=sc.get_int("simulation", "samples"),
        ensemble=_ensemble(sc),
    )
    w.write_csv("trace.csv", {"t_s": traj.times, **traj.populations})
    data = w.read_csv("trace.csv")
    trace = dsp.Trace(dt=float(data["t_s"][1] - data["t_s"][0]), samples=data["up"])
    result = dsp.extract_rabi(trace)
    nominal = formulas.raman_rabi(cfg.up.rabi, cfg.down.rabi, cfg.delta_one)
    w.info["omega_hz"] = ordinary(result.omega)
    w.info["tau_s"] = result.tau
    w.info["cycles"] = result.cycles
    w.check("omega_vs_formula_rel", result.omega / nominal, 0.98, 1.02)
    w.check("cycles", result.cycles, 40.0, 80.0)
    emit_plot(w.register("trace.svg"),
              [Series(traj.times * 1e3, traj.populations["up"], "up", "line")],
              "time (ms)", "population")


def run_lz(sc: Scenario, w: RunWriter) -> None:
    rabi = sc.get("sweep", "rabi")
    span_hz = ordinary(sc.get("sweep", "range"))
    ramps = np.geomspace(sc.get("sweep", "ramp_min"), sc.get("sweep", "ramp_max"),
                         sc.get_int("sweep", "ramp_points"))
    sim = []
    analytic = []
    for ramp in ramps:
        duration = TWO_PI * span_hz / ramp
        sim.append(sequences.landau_zener(rabi, span_hz, duration).fidelity)
        analytic.append(formulas.lz_probability(rabi, ramp))
    ramp_hz_ms = ramps / TWO_PI / 1e6 * 1e3
    w.write_csv("fidelity_vs_ramp.csv", {
        "ramp_hz_per_ms": ramp_hz_ms,
        "fidelity_sim": np.array(sim),
        "fidelity_formula": np.array(analytic),
    })
    val_span = ordinary(sc.get("validation", "range"))
    val_ramp = sc.get("validation", "ramp")
    val_duration = TWO_PI * val_span / val_ramp
    f_wide = sequences.landau_zener(rabi, val_span, val_duration).fidelity
    f_formula = formulas.lz_probability(rabi, val_ramp)
    w.info["fidelity_wide_sweep"] = f_wide
    w.info["fidelity_formula"] = f_formula
    w.check("fidelity_at_nominal_ramp", f_wide, 0.973, 0.977)
    w.check("sim_vs_formula_abs", abs(f_wide - f_formula), 0.0, 0.005)
    emit_plot(w.register("fidelity.svg"), [
        Series(ramp_hz_ms, np.array(sim), "simulated", "markers"),
        Series(ramp_hz_ms, np.array(analytic), "formula", "line"),
    ], "ramp speed (Hz/ms)", "transfer fidelity")


def run_at(sc: Scenario, w: RunWriter) -> None:
    scheme = atom.lambda_scheme()
    table = atom.default_decay_table()
    powers = np.linspace(sc.get("scan", "power_min"), sc.get("scan", "power_max"),
                         sc.get_int("scan", "points"))
    calibration = sc.get("scan", "calibration")
    result = sequences.autler_townes_scan(
        powers, calibration, scheme, table,
        probe_rabi=sc.get("scan", "probe_rabi"),
        strong=sc.string("scan", "strong"),
    )
    spec_cols = {}
    for p, dets, row in zip(result.powers_mw, result.detunings, result.spectra):
        spec_cols[f"detuning_hz_p{p:.3g}mW"] = dets / TWO_PI
        spec_cols[f"loss_p{p:.3g}mW"] = row
    w.write_csv("spectra.csv", spec_cols)
    resolved = [(p, s, r) for p, s, r in
                zip(result.powers_mw, result.splittings, result.dressing_rabis)
                if s is not None]
    pr = np.array([p for p, _, _ in resolved])
    split = np.array([s for _, s, _ in resolved])
    dress = np.array([r for _, _, r in resolved])
    w.write_csv("splittings.csv", {
        "power_mw": pr,
        "splitting_hz": split / TWO_PI,
        "dressing_rabi_hz": dress / TWO_PI,
    })
    data = w.read_csv("splittings.csv")
    fit = dsp.fit_linear(np.sqrt(data["power_mw"]), data["splitting_hz"])
    slope = fit.value("slope")
    w.info["calibration_fit_hz_per_sqrt_mw"] = slope
    w.info["calibration_fit_sigma"] = fit.sigma("slope")
    w.check("calibration_slope_rel", slope / ordinary(calibration), 0.97, 1.03)
    strong_ok = dress >= 5 * table.gamma_s
    if strong_ok.any():
        worst = float(np.abs(split[strong_ok] / dress[strong_ok] - 1).max())
        w.check("splitting_vs_dressing_rel_err", worst, 0.0, 0.02)
    emit_plot(w.register("splittings.svg"), [
        Series(np.sqrt(pr), split / TWO_PI / 1e6, "extracted", "markers"),
        Series(np.sqrt(pr), slope * np.sqrt(pr) / 1e6, "sqrt-power fit", "line"),
    ], "sqrt(power) (sqrt(mW))", "splitting (MHz)")


def run_cpt(sc: Scenario, w: RunWriter) -> None:
    scheme = atom.lambda_scheme()
    table = atom.default_decay_table()
    delta_max = sc.get("scan", "delta_max")
    grid = np.linspace(-delta_max, delta_max, sc.get_int("scan", "points"))
    excitation = sequences.cpt_scan(
        sc.get("drive", "rabi_up"), sc.get("drive", "rabi_down"),
        grid, scheme, table,
    )
    w.write_csv("spectrum.csv", {"delta_hz": grid / TWO_PI, "excitation": excitation})
    data = w.read_csv("spectrum.csv")
    fit = dsp.fit_lorentzian((data["delta_hz"], data["excitation"]))
    fwhm_khz = abs(fit.value("fwhm")) / 1e3
    i0 = int(np.argmin(np.abs(data["delta_hz"])))
    w.info["fwhm_khz"] = fwhm_khz
    w.check("dip_at_zero", float(data["excitation"][i0]), 0.0, 1e-8)
    w.check("fwhm_khz", fwhm_khz, 0.71 / 3.0, 0.71 * 3.0)
    emit_plot(w.register("spectrum.svg"), [
        Series(data["delta_hz"] / 1e3, data["excitation"], "steady state", "line"),
    ], "two-photon detuning (kHz)", "excited population")


def run_detuning(sc: Scenario, w: RunWriter) -> None:
    """Rabi frequency, envelope decay and cycle count of the ensemble-mean
    trace at each one-photon detuning; the Rabi-amplitude spread is averaged
    over `[ensemble] samples` Gauss-Hermite nodes, so nothing depends on
    `[scenario] seed`.  Every detuning steps in one `run_rabi_ensemble`
    stack, each row over `[simulation] cycles` of its own Rabi period."""
    scheme = atom.lambda_scheme()
    table = atom.default_decay_table()
    mags = np.geomspace(abs(sc.get("scan", "detuning_min")),
                        abs(sc.get("scan", "detuning_max")),
                        sc.get_int("scan", "points"))
    cycles_target = sc.get("simulation", "cycles")
    spec = sequences.EnsembleSpec(rabi_spread=sc.get("ensemble", "rabi_spread"),
                                  samples=sc.get_int("ensemble", "samples"))
    rabi_up = sc.get("drive", "rabi_up")
    rabi_down = sc.get("drive", "rabi_down")
    cfg = driven.raman_config(scheme, rabi_up, rabi_down, -mags)
    durations = cycles_target / ordinary(formulas.raman_rabi(rabi_up, rabi_down, mags))
    trajs = sequences.run_rabi_ensemble(cfg, table, durations, int(cycles_target * 22), spec)
    omegas, taus, n_cycles = [], [], []
    for traj in trajs:
        result = dsp.extract_rabi(dsp.Trace(dt=traj.dt, samples=traj.populations["up"]))
        omegas.append(result.omega)
        taus.append(result.tau)
        n_cycles.append(result.cycles)
    w.write_csv("detuning_scan.csv", {
        "detuning_ghz": -mags / TWO_PI / 1e9,
        "omega_hz": np.array(omegas) / TWO_PI,
        "tau_s": np.array(taus),
        "cycles": np.array(n_cycles),
    })
    data = w.read_csv("detuning_scan.csv")
    fit = dsp.fit_linear(np.log10(-data["detuning_ghz"]), np.log10(data["omega_hz"]))
    w.info["scaling_exponent"] = fit.value("slope")
    w.check("omega_scaling_exponent", fit.value("slope"), -1.02, -0.98)
    w.check("cycles_saturation", float(data["cycles"][-1]), 40.0, 80.0)
    ghz = -data["detuning_ghz"]
    coeff = rabi_up * rabi_down / 2.0  # two-photon coupling times |detuning|
    emit_plot(w.register("omega_vs_detuning.svg"), [
        Series(ghz, data["omega_hz"] / 1e3, "extracted", "markers"),
        Series(ghz, ordinary(coeff) / (ghz * 1e9 * TWO_PI) / 1e3, "1/detuning", "line"),
    ], "|detuning| (GHz)", "Rabi frequency (kHz)")
    emit_plot(w.register("tau_vs_detuning.svg"),
              [Series(ghz, data["tau_s"] * 1e3, "envelope decay", "markers")],
              "|detuning| (GHz)", "decay time (ms)")
    emit_plot(w.register("cycles_vs_detuning.svg"),
              [Series(ghz, data["cycles"], "cycles", "markers")],
              "|detuning| (GHz)", "cycles")


def run_coherence(sc: Scenario, w: RunWriter) -> None:
    scheme = atom.lambda_scheme()
    table = atom.DecayTable(gamma_s=0.0, channels=())  # dephasing-only presets
    cfg = _drive_config(sc, scheme)
    phases = np.linspace(0.0, 2.0 * math.pi, sc.get_int("scan", "phases"), endpoint=False)

    sigma_delta = sc.get("ramsey", "delta_sigma")
    spec_r = sequences.EnsembleSpec(delta_sigma=sigma_delta, samples=sc.get_int("ramsey", "samples"))
    dr, fit_r = _contrast_decay(sc, w, "ramsey", "ramsey_contrast.csv",
                                sequences.ramsey_phase_scan, phases, cfg, table, spec_r, None)

    # the echo refocuses the same static spread; the OU noise is averaged in closed form
    spec_e = sequences.EnsembleSpec(delta_sigma=sigma_delta, samples=sc.get_int("echo", "samples"))
    ou = sequences.OUNoise(sigma=sc.get("echo", "ou_sigma"), tau_c=sc.get("echo", "ou_tau"))
    de, fit_e = _contrast_decay(sc, w, "echo", "echo_contrast.csv",
                                sequences.spin_echo_scan, phases, cfg, table, spec_e, ou)

    t2_star = fit_r.value("t2")
    t2_echo = fit_e.value("t2")
    t2_analytic = math.sqrt(2.0) / sigma_delta
    w.info["t2_star_ms"] = t2_star * 1e3
    w.info["t2_echo_ms"] = t2_echo * 1e3
    w.check("t2_star_vs_static_spread_rel", t2_star / t2_analytic, 0.95, 1.05)
    w.check("t2_echo_ms", t2_echo * 1e3, 28.0, 50.0)
    grid_r = np.linspace(dr["dark_s"][0], dr["dark_s"][-1], 80)
    grid_e = np.linspace(de["dark_s"][0], de["dark_s"][-1], 80)
    emit_plot(w.register("contrast.svg"), [
        Series(dr["dark_s"] * 1e3, dr["contrast"], "ramsey", "markers"),
        Series(de["dark_s"] * 1e3, de["contrast"], "echo", "markers"),
        Series(grid_r * 1e3, fit_r.value("contrast0") * np.exp(-((grid_r / t2_star) ** 2)),
               "ramsey fit", "line"),
        Series(grid_e * 1e3, fit_e.value("contrast0") * np.exp(-((grid_e / t2_echo) ** 2)),
               "echo fit", "line"),
    ], "dark time (ms)", "contrast", log_x=True)


def run_lightshift(sc: Scenario, w: RunWriter) -> None:
    scheme = atom.lambda_scheme()
    table = atom.DecayTable(gamma_s=0.0, channels=())
    depths = np.linspace(sc.get("lattice", "depth_min"), sc.get("lattice", "depth_max"),
                         sc.get_int("lattice", "depth_points"))
    slope_true = sc.get("lattice", "slope")  # Hz/uK
    noise = sc.get("lattice", "frequency_noise") / TWO_PI  # Hz, as the fringe frequencies
    delta0 = sc.get("drive", "delta")
    dark = np.linspace(0.0, sc.get("scan", "dark_max"), sc.get_int("scan", "dark_points"))
    rng = np.random.Generator(np.random.Philox(key=np.array([sc.seed, 0], dtype=np.uint64)))
    freqs, sigmas = [], []
    fringe_cols = {"dark_s": dark}
    for depth in depths:
        delta_total = delta0 + TWO_PI * slope_true * depth
        cfg = _drive_config(sc, scheme, delta_total)
        pops = sequences.ramsey_time_scan(dark, cfg, table)
        fringe_cols[f"p_up_{depth:.3g}uK"] = pops
        fit = dsp.fit_sinusoid(dark, pops)
        f_meas = abs(fit.value("frequency")) + noise * rng.standard_normal()
        freqs.append(f_meas)
        sigmas.append(max(noise, fit.sigma("frequency")))
    w.write_csv("fringes.csv", fringe_cols)
    w.write_csv("shift_vs_depth.csv", {
        "depth_uk": depths,
        "f_ramsey_hz": np.array(freqs),
        "sigma_hz": np.array(sigmas),
    })
    data = w.read_csv("shift_vs_depth.csv")
    fit = dsp.fit_linear(data["depth_uk"], data["f_ramsey_hz"], sigma=data["sigma_hz"])
    slope = fit.value("slope")
    w.info["slope_hz_per_uk"] = slope
    w.info["slope_sigma"] = fit.sigma("slope")
    w.check("slope_within_band", abs(slope - 192.0), 0.0, 82.0)
    emit_plot(w.register("shift_vs_depth.svg"), [
        Series(data["depth_uk"], data["f_ramsey_hz"] / 1e3, "measured", "markers"),
        Series(depths, (fit.value("intercept") + slope * depths) / 1e3, "linear fit", "line"),
    ], "lattice depth (uK)", "fringe frequency (kHz)")


def run_fidelity(sc: Scenario, w: RunWriter) -> None:
    """Two pi times of the `[drive]` pulse from `up`, on the eliminated qubit
    model in the far-detuned regime and on the Lambda model with its loss
    state otherwise, read out through drifting references.  The summary
    records the model and its margin against `driven.ELIMINATION_FACTOR`."""
    scheme = atom.lambda_scheme()
    table = atom.default_decay_table()
    cfg = _drive_config(sc, scheme)
    t_pi = sequences.pulse_duration(cfg, "pi")
    if driven.elimination_applies(cfg, table):
        model = driven.build_effective_qubit_model(cfg, table)
        w.info["model"] = "eliminated"
    else:
        model = driven.build_lambda_model(cfg, scheme, table, mode="lossy")
        w.info["model"] = "lossy"
    w.info["elimination_margin"] = driven.elimination_margin(cfg, table)
    w.info["elimination_factor"] = driven.ELIMINATION_FACTOR
    times = np.linspace(0.0, 2.0 * t_pi, 161)
    rho0 = lindblad.DensityMatrix.pure(model.dim, model.index("up")).matrix
    vecs = np.array(list(lindblad.model_steps(model, rho0, times)))
    up, down = (vecs[:, model.index(k) * (model.dim + 1)].real for k in ("up", "down"))
    # reference-normalization demonstration: references drift linearly
    drift = sc.get("readout", "reference_drift")
    ref_times = np.linspace(-0.1 * times[-1], 1.1 * times[-1], 7)
    ref_values = 1000.0 * (1.0 + drift * ref_times / times[-1])
    ref_interp = np.interp(times, ref_times, ref_values)
    lz_eff = sc.get("readout", "lz_efficiency")
    norm = normalize_readout(times, up * ref_interp, ref_times, ref_values,
                             down * ref_interp, lz_eff)
    w.write_csv("pulse_trace.csv", {
        "t_s": times,
        "up_normalized": norm.up,
        "down_normalized_corrected": norm.down,
    })
    data = w.read_csv("pulse_trace.csv")
    i_pi = int(np.argmin(np.abs(data["t_s"] - t_pi)))
    excitation = 1.0 - data["up_normalized"][i_pi]
    w.info["pi_time_us"] = t_pi * 1e6
    w.info["excitation_fraction"] = excitation
    flat_err = float(np.abs(norm.up - up).max())
    w.check("normalization_removes_drift", flat_err, 0.0, 1e-9)
    w.check("excitation_fraction", excitation, 0.97, 1.0)
    chain = dsp.detection_fidelity(dsp.Measured(0.94, 0.03), dsp.Measured(0.98, 0.01))
    w.info["detection_fidelity_example"] = [chain.value, chain.sigma]
    w.check("detection_fidelity_chain", chain.value, 0.955, 0.965)
    w.check("detection_fidelity_sigma", chain.sigma, 0.025, 0.035)
    emit_plot(w.register("pulse_trace.svg"), [
        Series(data["t_s"] * 1e6, data["up_normalized"], "up", "line"),
        Series(data["t_s"] * 1e6, data["down_normalized_corrected"], "down", "line"),
    ], "time (us)", "population")


def run_pipeline(sc: Scenario, w: RunWriter) -> None:
    omega = sc.get("signal", "rabi")
    tau = sc.get("signal", "tau")
    n = sc.get_int("signal", "samples")
    duration = sc.get("signal", "duration")
    dt = duration / n
    t = np.arange(n) * dt
    clean = formulas.damped_model(t, omega, 0.0, tau,
                                  sc.get("signal", "loss_amp"),
                                  sc.get("signal", "tau_loss"))
    rng = np.random.Generator(np.random.Philox(key=np.array([sc.seed, 0], dtype=np.uint64)))
    noisy = clean + sc.get("signal", "noise") * rng.standard_normal(n)
    w.write_csv("trace.csv", {"t_s": t, "value": noisy})
    data = w.read_csv("trace.csv")
    trace = dsp.Trace(dt=dt, samples=data["value"])
    result = dsp.extract_rabi(trace)
    w.info["omega_hz"] = ordinary(result.omega)
    w.info["tau_us"] = result.tau * 1e6
    w.info["cycles"] = result.cycles
    w.check("omega_rel_err", abs(result.omega / omega - 1.0), 0.0, 2e-3)
    w.check("tau_rel_err", abs(result.tau / tau - 1.0), 0.0, 0.10)
    w.check("cycles", result.cycles, 65.0, 73.0)
    f_c = ordinary(result.omega)
    filtered = dsp.butterworth_bandpass(trace, 0.5 * f_c, 1.5 * f_c)
    loss_fit = dsp.fit_loss(trace, filtered)
    w.info["loss_amp"] = loss_fit.value("loss_amp")
    w.info["tau_loss_ms"] = loss_fit.value("tau_loss") * 1e3
    w.info["loss_unresolved"] = loss_fit.meta["loss_unresolved"]
    w.check("loss_amp", loss_fit.value("loss_amp"),
            0.5 * sc.get("signal", "loss_amp"), 1.5 * sc.get("signal", "loss_amp"))
    spectrum = dsp.fft_spectrum(trace)
    w.write_csv("spectrum.csv", {"f_hz": spectrum.frequencies, "magnitude": spectrum.magnitude})
    envelope = dsp.hilbert_envelope(
        dsp.Trace(dt=dt, samples=filtered.samples - filtered.samples.mean()))
    w.write_csv("filtered.csv", {"t_s": t, "filtered": filtered.samples,
                                 "envelope": envelope.samples})
    emit_plot(w.register("spectrum.svg"),
              [Series(spectrum.frequencies / 1e3, spectrum.magnitude, "spectrum", "line")],
              "frequency (kHz)", "amplitude")
    emit_plot(w.register("filtered.svg"), [
        Series(t * 1e3, filtered.samples, "band-passed", "line"),
        Series(t * 1e3, envelope.samples, "envelope", "line"),
    ], "time (ms)", "signal")


def run_scatter(sc: Scenario, w: RunWriter) -> None:
    scheme = atom.sr88_scheme()
    table = atom.default_decay_table()
    env = atom.MagneticEnvironment()
    field = driven.DriveField((scheme.up, scheme.s),
                              sc.get("drive", "rabi_up"), sc.get("drive", "detuning"))
    times = np.concatenate([[0.0], np.geomspace(sc.get("times", "min"),
                                                sc.get("times", "max"),
                                                sc.get_int("times", "points"))])
    surv = sequences.scattering_decay(field, times, scheme, table, env)
    w.write_csv("survival.csv", {"t_s": times, "survival": surv})
    data = w.read_csv("survival.csv")
    fit = rates.fit_scattering_rate(data["t_s"], data["survival"], field, scheme, table, env)
    gamma = fit.value("gamma_sc")
    w.info["gamma_sc"] = gamma
    w.info["tau_max_ms"] = fit.meta["tau_max"] * 1e3
    w.check("gamma_sc", gamma, 600.0, 1200.0)
    w.check("tau_identity", gamma * fit.meta["tau_max"], 1.0 - 1e-9, 1.0 + 1e-9)

    if sc.has("detuning_scan"):
        mags = np.geomspace(abs(sc.get("detuning_scan", "min")),
                            abs(sc.get("detuning_scan", "max")),
                            sc.get_int("detuning_scan", "points"))
        taus = []
        for mag in mags:
            fld = driven.DriveField((scheme.up, scheme.s), sc.get("drive", "rabi_up"), -mag)
            model = rates.build_rate_model(fld, scheme, table, env)
            tgrid = np.concatenate([[0.0], np.geomspace(1e-5, 20.0 / formulas.scattering_rate(
                fld.rabi, mag, table.gamma_s), 20)])
            sub = rates.survival(model, tgrid)
            f2 = rates.fit_scattering_rate(tgrid, sub, fld, scheme, table, env)
            taus.append(f2.meta["tau_max"])
        w.write_csv("tau_vs_detuning.csv", {
            "detuning_ghz": mags / TWO_PI / 1e9,
            "tau_max_s": np.array(taus),
        })
        dd = w.read_csv("tau_vs_detuning.csv")
        quad = dsp.fit_linear(dd["detuning_ghz"] ** 2, dd["tau_max_s"])
        a_us = quad.value("slope") * 1e6
        w.info["a_us_per_2pi_ghz2"] = a_us
        w.check("a_coefficient", a_us, 30.0, 50.0)
        emit_plot(w.register("tau_vs_detuning.svg"), [
            Series(dd["detuning_ghz"], dd["tau_max_s"] * 1e3, "fitted", "markers"),
            Series(dd["detuning_ghz"], (quad.value("intercept") +
                   quad.value("slope") * dd["detuning_ghz"] ** 2) * 1e3, "quadratic", "line"),
        ], "|detuning| (GHz)", "decay-time limit (ms)")
    emit_plot(w.register("survival.svg"),
              [Series(times * 1e3, surv, "up survival", "markers")],
              "hold time (ms)", "survival")


def run_ramsey(sc: Scenario, w: RunWriter) -> None:
    _run_two_pulse(sc, w, echo=False)


def run_echo(sc: Scenario, w: RunWriter) -> None:
    _run_two_pulse(sc, w, echo=True)


def _run_two_pulse(sc: Scenario, w: RunWriter, echo: bool) -> None:
    scheme = atom.lambda_scheme()
    table = atom.DecayTable(gamma_s=0.0, channels=())
    cfg = _drive_config(sc, scheme, sc.get("drive", "delta"))
    phases = np.linspace(0.0, 2.0 * math.pi, sc.get_int("scan", "phases"), endpoint=False)
    spec = _ensemble(sc)
    ou = None
    if sc.has("noise"):
        ou = sequences.OUNoise(sigma=sc.get("noise", "ou_sigma"), tau_c=sc.get("noise", "ou_tau"))
    scan_fn = sequences.spin_echo_scan if echo else sequences.ramsey_phase_scan
    data, fit = _contrast_decay(sc, w, "scan", "contrast.csv", scan_fn, phases, cfg, table, spec, ou)
    w.info["t2_ms"] = fit.value("t2") * 1e3
    emit_plot(w.register("contrast.svg"),
              [Series(data["dark_s"] * 1e3, data["contrast"], "contrast", "markers")],
              "dark time (ms)", "contrast")


RUNNERS = {
    "rabi": run_rabi,
    "lz": run_lz,
    "at": run_at,
    "cpt": run_cpt,
    "detuning": run_detuning,
    "coherence": run_coherence,
    "lightshift": run_lightshift,
    "fidelity": run_fidelity,
    "pipeline": run_pipeline,
    "scatter": run_scatter,
    "ramsey": run_ramsey,
    "echo": run_echo,
}


def run_scenario(sc: Scenario, outdir: Path) -> bool:
    writer = RunWriter(outdir=Path(outdir), scenario=sc)
    RUNNERS[sc.kind](sc, writer)
    return writer.finish()


def load_preset(figure: str) -> Scenario:
    """The packaged scenario of one figure preset; ConfigError for any other name."""
    if figure not in FIGURE_PRESETS:
        raise ConfigError(
            f"unknown figure {figure!r}; presets: {', '.join(FIGURE_PRESETS)}"
        )
    return load_scenario(packaged_scenario_path(figure))


def reproduce(figure: str, outdir: Path) -> bool:
    """Run one figure preset; returns True when all summary checks pass."""
    return run_scenario(load_preset(figure), Path(outdir))
