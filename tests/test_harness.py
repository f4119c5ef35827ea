import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fsqubit.config import ConfigError
from fsqubit.dsp import Measured, detection_fidelity
from fsqubit.harness import presets, readout
from fsqubit.harness.cli import main as cli_main
from fsqubit.harness.runio import RunWriter
from fsqubit.harness.scenario import load_scenario, parse_scenario
from fsqubit.harness.svgplot import PlotError, Series, emit_plot


GOOD_SCENARIO = """
[scenario]
name = test-run
kind = rabi
seed = 5

[drive]
rabi_up = 36 MHz
rabi_down = 36 MHz
detuning = -6 GHz

[ensemble]
rabi_spread = 0.4 %
samples = 3

[simulation]
duration = 0.1 ms
samples = 256
"""


# ---------------------------------------------------------------- scenario

def test_scenario_parses_and_converts():
    sc = parse_scenario(GOOD_SCENARIO)
    assert sc.name == "test-run"
    assert sc.kind == "rabi"
    assert sc.seed == 5
    assert sc.get("drive", "detuning") == pytest.approx(-2 * math.pi * 6e9)
    assert sc.get_int("simulation", "samples") == 256


def test_scenario_missing_name():
    with pytest.raises(ConfigError) as err:
        parse_scenario("[scenario]\nkind = rabi\n")
    assert "name" in str(err.value)


def test_scenario_empty_file():
    with pytest.raises(ConfigError) as err:
        parse_scenario("")
    assert "scenario" in str(err.value)


def test_scenario_missing_unit_line_numbered():
    bad = GOOD_SCENARIO.replace("detuning = -6 GHz", "detuning = -6")
    with pytest.raises(ConfigError) as err:
        parse_scenario(bad, source="f.scenario")
    assert "unit" in str(err.value)


def test_scenario_unknown_key_rejected():
    bad = GOOD_SCENARIO.replace("rabi_up = 36 MHz", "rabi_up = 36 MHz\nwat = 3 MHz")
    with pytest.raises(ConfigError) as err:
        parse_scenario(bad)
    assert "wat" in str(err.value)


def test_scenario_unknown_section_rejected():
    with pytest.raises(ConfigError):
        parse_scenario(GOOD_SCENARIO + "\n[mystery]\nx = 1 ms\n")


def test_scenario_missing_required_key():
    bad = GOOD_SCENARIO.replace("duration = 0.1 ms\n", "")
    with pytest.raises(ConfigError) as err:
        parse_scenario(bad)
    assert "duration" in str(err.value)


def test_scenario_unknown_kind():
    with pytest.raises(ConfigError):
        parse_scenario("[scenario]\nname = x\nkind = nonsense\n")


def test_all_packaged_scenarios_parse():
    for fig in presets.FIGURE_PRESETS:
        sc = load_scenario(presets.packaged_scenario_path(fig))
        assert sc.kind in presets.RUNNERS


def _packaged_text(name: str) -> str:
    return presets.packaged_scenario_path(name).read_text()


def test_scenario_omitted_keys_read_schema_defaults():
    sc = parse_scenario(GOOD_SCENARIO.replace("[ensemble]\nrabi_spread = 0.4 %\nsamples = 3\n", ""))
    assert sc.get("drive", "delta") == 0.0
    assert sc.get("ensemble", "rabi_spread") == 0.0
    assert sc.get_int("ensemble", "samples") == 1
    assert not sc.has("ensemble")
    assert parse_scenario(_packaged_text("fig2a").replace("strong = down\n", "")).string(
        "scan", "strong") == "down"
    # keys the dry run prints are the file's own
    assert not any(line.startswith("drive.delta") for line in sc.resolved_lines())


def test_scenario_unlisted_word_rejected_with_line():
    bad = _packaged_text("fig2a").replace("strong = down", "strong = sideways")
    with pytest.raises(ConfigError,
                       match=r"fig2a.scenario:13: \[scan\] strong must be one of down, up"):
        parse_scenario(bad, source="fig2a.scenario")


@pytest.mark.parametrize("name,old,new", [
    ("fig2a", "points = 7", "points = 0"),
    ("fig3d", "samples = 1111", "samples = -5"),
    # a rabi trace of one sample leaves its analysis no sample spacing
    ("fig3d", "samples = 1111", "samples = 1"),
    ("fig2a", "points = 7", "points = 2.5"),
    ("fig2a", "points = 7", "points = many"),
])
def test_scenario_count_must_be_whole_and_positive(name, old, new):
    text = _packaged_text(name)
    assert old in text
    line = text[:text.index(old)].count("\n") + 1
    with pytest.raises(ConfigError,
                       match=rf"{name}.scenario:{line}: .* not a (whole|finite) number"):
        parse_scenario(text.replace(old, new), source=f"{name}.scenario")


def test_cli_dry_run_rejects_bad_count_with_exit_2(tmp_path, capsys):
    p = tmp_path / "fig2a.scenario"
    p.write_text(_packaged_text("fig2a").replace("points = 7", "points = 2.5"))
    assert cli_main(["scan", "autler-townes", "--scenario", str(p), "--dry-run"]) == 2
    assert f"{p}:10: [scan] points = '2.5' is not a whole number >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("seed, rule", [
    ("abc", "is not a finite number"),
    ("2.7", "is not a whole number in [0, 2**63)"),
    ("-3", "is not a whole number in [0, 2**63)"),
    ("1e19", "is not a whole number in [0, 2**63)"),
])
def test_cli_dry_run_rejects_bad_seed_with_exit_2(tmp_path, capsys, seed, rule):
    p = tmp_path / "fig3d.scenario"
    p.write_text(_packaged_text("fig3d").replace("seed = 31", f"seed = {seed}"))
    assert cli_main(["simulate", "rabi", "--scenario", str(p), "--dry-run"]) == 2
    assert f"{p}:5: [scenario] seed = '{seed}' {rule}" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [str(2**53 + 1), str(2**63 - 1)])
def test_cli_dry_run_prints_a_large_seed_exactly(tmp_path, capsys, seed):
    p = tmp_path / "fig3d.scenario"
    p.write_text(_packaged_text("fig3d").replace("seed = 31", f"seed = {seed}"))
    assert cli_main(["simulate", "rabi", "--scenario", str(p), "--dry-run"]) == 0
    assert f"\nseed = {seed}\n" in capsys.readouterr().out


def test_cli_dry_run_rejects_seed_2_to_the_63(tmp_path, capsys):
    p = tmp_path / "fig3d.scenario"
    p.write_text(_packaged_text("fig3d").replace("seed = 31", f"seed = {2**63}"))
    assert cli_main(["simulate", "rabi", "--scenario", str(p), "--dry-run"]) == 2
    err = capsys.readouterr().err
    assert f"{p}:5: [scenario] seed = '{2**63}' is not a whole number in [0, 2**63)" in err


@pytest.mark.parametrize("name,dropped,missing", [
    ("echo_default", "ou_sigma = 16.393 Hz\n", "ou_sigma"),
    ("figS3", "min = -3 GHz\n", "min"),
    ("echo_default", "ou_sigma = 16.393 Hz\nou_tau = 25 ms\n", "ou_sigma"),
])
def test_scenario_partial_section_rejected(name, dropped, missing):
    text = _packaged_text(name)
    assert dropped in text
    with pytest.raises(ConfigError, match=rf"is all-or-nothing and lacks {missing}"):
        parse_scenario(text.replace(dropped, ""))



def _line_of(text: str, old: str) -> int:
    assert old in text
    return text[:text.index(old)].count("\n") + 1


@pytest.mark.parametrize("name,old,new,key", [
    ("ramsey_default", "dark_max = 3.2 ms", "dark_max = -3.2 ms", "dark_max"),
    ("ramsey_default", "dark_min = 0.3 ms", "dark_min = -0.3 ms", "dark_min"),
    ("echo_default", "dark_min = 5 ms", "dark_min = 0 ms", "dark_min"),
    ("fig4c", "dark_min = 0.3 ms", "dark_min = 0 ms", "dark_min"),
    ("fig4c", "dark_max = 75 ms", "dark_max = 0 s", "dark_max"),
])
def test_dark_times_must_be_positive(name, old, new, key):
    text = _packaged_text(name)
    line = _line_of(text, old)
    value = new.split("= ")[1]
    with pytest.raises(ConfigError, match=rf"{name}.scenario:{line}: \[\w+\] {key} = '{value}' "
                                          r"must be > 0"):
        parse_scenario(text.replace(old, new, 1), source=f"{name}.scenario")


@pytest.mark.parametrize("name,section,old,new", [
    ("ramsey_default", "scan", "dark_max = 3.2 ms", "dark_max = 0.3 ms"),
    ("fig4c", "echo", "dark_max = 75 ms", "dark_max = 2 ms"),
])
def test_dark_min_must_be_below_dark_max(name, section, old, new):
    text = _packaged_text(name)
    line = _line_of(text, old)
    with pytest.raises(ConfigError, match=rf"{name}.scenario:{line}: \[{section}\] dark_max = "
                                          rf"'{new.split('= ')[1]}' must exceed dark_min"):
        parse_scenario(text.replace(old, new), source=f"{name}.scenario")


@pytest.mark.parametrize("name,old,new,key", [
    ("fig4e", "depth_min = 11 uK", "depth_min = -11 uK", "depth_min"),
    ("fig4e", "depth_max = 52 uK", "depth_max = -52 uK", "depth_max"),
    ("fig4e", "frequency_noise = 150 Hz", "frequency_noise = -150 Hz", "frequency_noise"),
    ("figS2", "noise = 0.05", "noise = -0.05", "noise"),
])
def test_nonnegative_keys_reject_a_negative_value(name, old, new, key):
    text = _packaged_text(name)
    line = _line_of(text, old)
    value = new.split("= ")[1]
    with pytest.raises(ConfigError, match=rf"{name}.scenario:{line}: \[\w+\] {key} = '{value}' "
                                          r"must be >= 0"):
        parse_scenario(text.replace(old, new, 1), source=f"{name}.scenario")


def test_nonnegative_keys_accept_zero():
    for name, old, new in (("fig4e", "frequency_noise = 150 Hz", "frequency_noise = 0 Hz"),
                           ("figS2", "noise = 0.05", "noise = 0")):
        text = _packaged_text(name)
        assert old in text
        parse_scenario(text.replace(old, new, 1))


def test_cli_dry_run_rejects_a_negative_depth_with_exit_2(tmp_path, capsys, monkeypatch):
    # the lightshift kind runs only as a preset: edit fig4e's packaged file
    p = tmp_path / "fig4e.scenario"
    p.write_text(_packaged_text("fig4e").replace("depth_min = 11 uK", "depth_min = -11 uK"))
    monkeypatch.setattr(presets, "packaged_scenario_path", lambda figure: p)
    assert cli_main(["reproduce", "fig4e", "--dry-run"]) == 2
    assert "[lattice] depth_min = '-11 uK' must be >= 0" in capsys.readouterr().err


def test_cli_dry_run_rejects_a_negative_dark_time_with_exit_2(tmp_path, capsys):
    p = tmp_path / "ramsey.scenario"
    p.write_text(_packaged_text("ramsey_default").replace("dark_max = 3.2 ms", "dark_max = -3.2 ms"))
    assert cli_main(["simulate", "ramsey", "--scenario", str(p), "--dry-run"]) == 2
    assert "[scan] dark_max = '-3.2 ms' must be > 0" in capsys.readouterr().err

# ---------------------------------------------------------------- readout

def test_normalize_constant_references():
    times = np.linspace(0, 1e-3, 9)
    truth = np.linspace(1.0, 0.2, 9)
    refs_t = np.array([-1e-4, 1.1e-3])
    refs_v = np.array([500.0, 500.0])
    out = readout.normalize_readout(times, truth * 500.0, refs_t, refs_v)
    np.testing.assert_allclose(out.up, truth, rtol=1e-12)


def test_normalize_drifting_references_flat_signal():
    times = np.linspace(0, 1e-3, 17)
    refs_t = np.linspace(-1e-4, 1.1e-3, 5)
    refs_v = 800.0 * (1.0 + 0.1 * refs_t / 1e-3)  # 10% linear drift
    ref_at = np.interp(times, refs_t, refs_v)
    raw = 0.75 * ref_at
    out = readout.normalize_readout(times, raw, refs_t, refs_v)
    np.testing.assert_allclose(out.up, 0.75, rtol=1e-12)


def test_normalize_extrapolation_warns():
    with pytest.warns(readout.ReadoutWarning):
        readout.normalize_readout(np.array([0.0, 2.0]), np.array([1.0, 1.0]),
                                  np.array([0.5, 1.0]), np.array([1.0, 1.0]))


def test_down_correction_and_fidelity_chain():
    times = np.array([0.0, 1.0])
    refs_t = np.array([-0.5, 1.5])
    refs_v = np.array([100.0, 100.0])
    raw_down = np.array([0.0, 0.94 * 0.975]) * 100.0
    out = readout.normalize_readout(times, np.array([100.0, 2.0]), refs_t, refs_v,
                                    raw_down=raw_down, lz_efficiency=0.975)
    assert out.down[-1] == pytest.approx(0.94, rel=1e-12)
    chain = detection_fidelity(Measured(out.down[-1], 0.03), Measured(0.98, 0.01))
    assert chain.value == pytest.approx(0.96, abs=5e-3)
    assert chain.sigma == pytest.approx(0.03, abs=5e-3)


# ------------------------------------------------------------------- plots

def test_emit_plot_single_polyline(tmp_path):
    path = tmp_path / "p.svg"
    emit_plot(path, [Series(np.array([0.0, 1.0]), np.array([1.0, 2.0]))], "x", "y")
    text = path.read_text()
    assert text.count("<polyline") == 1
    assert "<svg" in text and "</svg>" in text


def test_emit_plot_two_series_with_fits(tmp_path):
    path = tmp_path / "c.svg"
    t = np.geomspace(1e-3, 1e-1, 7)
    emit_plot(path, [
        Series(t, np.exp(-t / 2e-3), "a", "markers"),
        Series(t, np.exp(-t / 38e-3), "b", "markers"),
        Series(t, np.exp(-((t / 2e-3) ** 2)), "fit a", "line"),
        Series(t, np.exp(-((t / 38e-3) ** 2)), "fit b", "line"),
    ], "dark time", "contrast", log_x=True)
    text = path.read_text()
    assert text.count("<polyline") == 2
    assert text.count("<circle") == 14


def test_emit_plot_empty_rejected(tmp_path):
    with pytest.raises(PlotError):
        emit_plot(tmp_path / "e.svg", [], "x", "y")
    with pytest.raises(PlotError):
        Series(np.array([]), np.array([]))


def test_emit_plot_deterministic_bytes(tmp_path):
    s = [Series(np.arange(5.0), np.arange(5.0) ** 2, "q", "line")]
    emit_plot(tmp_path / "a.svg", s, "x", "y")
    emit_plot(tmp_path / "b.svg", s, "x", "y")
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
    low = (tmp_path / "a.svg").read_text().lower()
    assert "date" not in low and "time:" not in low


# ------------------------------------------------------------------- runio

def test_runwriter_summary_and_manifest(tmp_path):
    sc = parse_scenario(GOOD_SCENARIO)
    w = RunWriter(outdir=tmp_path / "run", scenario=sc)
    w.write_csv("data.csv", {"x": np.array([1.0, 2.0]), "y": np.array([3.0, 4.0])})
    assert w.check("x_max", 2.0, 1.5, 2.5)
    assert not w.check("bad", 9.0, 0.0, 1.0)
    ok = w.finish()
    assert not ok
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["pass"] is False
    assert [c["name"] for c in summary["checks"]] == ["x_max", "bad"]
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["scenario_sha256"] == sc.digest()
    assert "data.csv" in manifest["outputs"]
    digest = hashlib.sha256((tmp_path / "run" / "data.csv").read_bytes()).hexdigest()
    assert manifest["outputs"]["data.csv"] == digest



# the 36 MHz Rabi frequencies are the largest of the margin's three scales
@pytest.mark.parametrize("detuning, model, margin", [
    pytest.param("-6 GHz", "eliminated", 6e9 / 36e6, id="eliminated"),
    pytest.param("-60 MHz", "lossy", 60e6 / 36e6, id="lossy"),
])
def test_fidelity_run_records_its_model_and_elimination_margin(tmp_path, detuning, model,
                                                               margin):
    """figS1 as packaged, and at a detuning of 60 MHz, where it steps the
    lossy Lambda model: the summary names the model and its margin
    |Delta| / max(Omega_up, Omega_down, Gamma) beside the threshold."""
    text = _packaged_text("figS1").replace("detuning = -6 GHz", f"detuning = {detuning}")
    presets.run_scenario(parse_scenario(text), tmp_path / "run")
    info = json.loads((tmp_path / "run" / "summary.json").read_text())["info"]
    assert info["model"] == model
    assert info["elimination_margin"] == pytest.approx(margin, rel=1e-12)
    assert info["elimination_factor"] == 100.0


def _strict_json(text: str):
    """`text` parsed as RFC 8259 JSON, which has no Infinity or NaN."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_unbounded_decay_writes_valid_json(tmp_path):
    # a decay time 1000 times the record leaves the envelope fit's tau
    # unbounded, so the number of cycles is infinite
    text = _packaged_text("figS2").replace("tau = 684 us", "tau = 684 ms")
    assert not presets.run_scenario(parse_scenario(text), tmp_path / "run")
    summary = _strict_json((tmp_path / "run" / "summary.json").read_text())
    assert summary["info"]["cycles"] is None
    check = next(c for c in summary["checks"] if c["name"] == "cycles")
    assert check["value"] is None and check["pass"] is False
    out = tmp_path / "analysis.json"
    assert cli_main(["analyze", "rabi", "--input", str(tmp_path / "run" / "trace.csv"),
                     "--out", str(out)]) == 0
    result = _strict_json(out.read_text())
    assert result["cycles"] is None and result["flags"]["tau_unbounded"] is True

def test_read_csv_roundtrip(tmp_path):
    sc = parse_scenario(GOOD_SCENARIO)
    w = RunWriter(outdir=tmp_path / "run", scenario=sc)
    cols = {"t_s": np.linspace(0, 1, 7), "v": np.sin(np.linspace(0, 1, 7))}
    w.write_csv("x.csv", cols)
    back = w.read_csv("x.csv")
    for k in cols:
        np.testing.assert_array_equal(back[k], cols[k])


def test_read_csv_rejects_non_finite(tmp_path):
    w = RunWriter(outdir=tmp_path / "run", scenario=parse_scenario(GOOD_SCENARIO))
    w.write_csv("x.csv", {"t_s": [0.0, 1.0, 2.0], "v": [0.5, 0.4, np.nan]})
    with pytest.raises(ValueError, match=r"x.csv: non-finite 'v' on line 4"):
        w.read_csv("x.csv")


# --------------------------------------------------------------------- CLI

def test_cli_dry_run_smoke(capsys):
    assert cli_main(["simulate", "rabi", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "drive.detuning" in out
    assert cli_main(["reproduce", "fig3d", "--dry-run"]) == 0
    assert cli_main(["trap", "magic", "--wavelength", "914", "--dry-run"]) == 0
    assert cli_main(["scan", "cpt", "--dry-run"]) == 0


def test_cli_trap_magic(capsys):
    assert cli_main(["trap", "magic", "--wavelength", "914"]) == 0
    assert "79.0" in capsys.readouterr().out
    assert cli_main(["trap", "magic", "--wavelength", "1064"]) == 0
    assert "no magic angle" in capsys.readouterr().out


def test_cli_trap_recoil(capsys):
    assert cli_main(["trap", "recoil", "--wavelength", "914"]) == 0
    assert "2716.86" in capsys.readouterr().out


def test_cli_unknown_figure_exit_code(capsys):
    for extra in ([], ["--dry-run"]):
        assert cli_main(["reproduce", "fig99", *extra]) == 2
        err = capsys.readouterr().err
        assert "unknown figure 'fig99'" in err
        assert "fig3d" in err  # lists the available presets



def test_cli_reproduce_takes_no_scenario_option(capsys):
    # a preset runs its packaged scenario; an ignored --scenario would hide that
    with pytest.raises(SystemExit) as exc:
        cli_main(["reproduce", "fig2c", "--scenario", "/nonexistent/x.scenario", "--dry-run"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --scenario" in capsys.readouterr().err

def test_cli_missing_scenario_file():
    assert cli_main(["simulate", "rabi", "--scenario", "/nonexistent.scenario"]) == 2


def test_cli_model_error_is_a_configuration_error(tmp_path, capsys):
    p = tmp_path / "negative.scenario"
    p.write_text(GOOD_SCENARIO.replace("rabi_up = 36 MHz", "rabi_up = -36 MHz"))
    assert cli_main(["simulate", "rabi", "--scenario", str(p), "--out", str(tmp_path)]) == 2
    assert "Rabi frequency must be >= 0" in capsys.readouterr().err


def test_cli_lz_sweep_of_infinite_duration_is_a_numerical_failure(tmp_path, capsys):
    # a ramp so slow that the validation sweep's duration overflows to inf
    p = tmp_path / "slow.scenario"
    p.write_text(presets.packaged_scenario_path("fig1c").read_text().replace(
        "ramp = 80 Hz/ms", "ramp = 1e-310 Hz/ms"))
    assert cli_main(["simulate", "lz", "--scenario", str(p), "--out", str(tmp_path)]) == 3
    assert "duration must be finite" in capsys.readouterr().err


def test_cli_lz_sweep_beyond_the_step_limit_fails_fast(tmp_path, capsys):
    # a ramp slow enough to ask for about 8e306 steps, with a finite duration of 6.4e301 s
    p = tmp_path / "slow.scenario"
    p.write_text(presets.packaged_scenario_path("fig1c").read_text().replace(
        "ramp = 80 Hz/ms", "ramp = 1e-300 Hz/ms"))
    start = time.perf_counter()
    assert cli_main(["simulate", "lz", "--scenario", str(p), "--out", str(tmp_path)]) == 3
    assert time.perf_counter() - start < 1.0
    assert "sweep_range_hz x duration" in capsys.readouterr().err


# scipy modules the program imports only inside the functions that use them
LAZY_SCIPY = ("scipy.linalg", "scipy.special", "scipy.signal")


def _last_words(code):
    """The words of the last line a fresh process prints when it runs `code`."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    return proc.stdout.splitlines()[-1].split()


def _loaded_after(code):
    """The LAZY_SCIPY modules (and scipy.integrate) in sys.modules after a fresh
    process runs `code`."""
    return _last_words(
        code + "\nimport sys; print(*(m for m in (*%r, 'scipy.integrate') if m in sys.modules))"
        % (LAZY_SCIPY,))


def test_cli_import_skips_signal_and_integrate():
    # scipy.linalg, scipy.special and scipy.signal are imported only by `lindblad.expm`,
    # `dsp._loss_window` and the filters, and each costs start-up time; nothing in the
    # program imports scipy.integrate
    assert _loaded_after("import fsqubit.harness.cli") == []


def test_commands_without_exponentials_load_no_lazy_scipy(tmp_path):
    """The Landau-Zener preset, a dry run and `trap magic` never load the scipy
    modules imported inside functions; one `lindblad.expm` call does."""
    for args in (["reproduce", "fig1c", "--out", str(tmp_path)],
                 ["reproduce", "fig3d", "--dry-run"],
                 ["trap", "magic", "--wavelength", "914"]):
        code = f"from fsqubit.harness.cli import main\nassert main({args!r}) == 0"
        assert _loaded_after(code) == [], args
    code = "import numpy as np\nfrom fsqubit import lindblad\nlindblad.expm(np.eye(2))"
    assert "scipy.linalg" in _loaded_after(code)


def test_filtering_commands_do_not_load_scipy_signal(tmp_path):
    """The presets and the command that band-pass a trace and take its envelope
    run without scipy.signal."""
    from fsqubit import formulas
    from fsqubit.units import TWO_PI

    t = np.arange(4096) * 0.4e-6
    y = formulas.damped_model(t, TWO_PI * 100.94e3, 0.0, 684e-6, 0.17, 1.15e-3)
    src = tmp_path / "trace.csv"
    src.write_text("t_s,value\n" + "".join(f"{ti:.17g},{yi:.17g}\n" for ti, yi in zip(t, y)))
    loaded = {}
    for args in (["reproduce", "figS2", "--out", str(tmp_path)],
                 ["reproduce", "fig3d", "--out", str(tmp_path)],
                 ["analyze", "rabi", "--input", str(src)]):
        code = f"from fsqubit.harness.cli import main\nassert main({args!r}) == 0"
        loaded[args[1]] = _loaded_after(code)
        assert "scipy.signal" not in loaded[args[1]], args
    # the extraction chain alone needs no scipy module at all
    assert loaded["rabi"] == []


LAZY_FSQUBIT = tuple(f"fsqubit.{m}" for m in
                     ("atom", "driven", "dsp", "lindblad", "rates", "sequences", "trap"))


def _run_after(code):
    """The LAZY_FSQUBIT modules whose code has run after a fresh process runs
    `code`.  Any attribute access would load a lazy module, so a module counts
    as run only when its type is plain ModuleType again."""
    return _last_words(
        code + "\nimport sys, types\n"
        "print(*(m for m in %r if type(sys.modules.get(m)) is types.ModuleType))"
        % (LAZY_FSQUBIT,))


def test_set_up_paths_run_no_simulation_module(tmp_path):
    """Importing the CLI, a dry run and `trap magic` run none of the simulation
    modules, `trap` apart for its own command; `analyze rabi` runs `dsp` alone."""
    from fsqubit import formulas
    from fsqubit.units import TWO_PI

    t = np.arange(4096) * 0.4e-6
    y = formulas.damped_model(t, TWO_PI * 100.94e3, 0.0, 684e-6, 0.17, 1.15e-3)
    src = tmp_path / "trace.csv"
    src.write_text("t_s,value\n" + "".join(f"{ti:.17g},{yi:.17g}\n" for ti, yi in zip(t, y)))
    assert _run_after("import fsqubit.harness.cli") == []
    for args, want in ((["reproduce", "fig3d", "--dry-run"], []),
                       (["trap", "magic", "--wavelength", "914"], ["fsqubit.trap"]),
                       (["analyze", "rabi", "--input", str(src)], ["fsqubit.dsp"])):
        code = f"from fsqubit.harness.cli import main\nassert main({args!r}) == 0"
        assert _run_after(code) == want, args
    # the first attribute access runs a module and the modules it imports
    assert "fsqubit.sequences" in _run_after("import fsqubit\nfsqubit.sequences.pulse_duration")


def test_cli_parser_is_built_once_and_keeps_no_state():
    from fsqubit.harness.cli import build_parser

    assert build_parser() is build_parser()
    first = build_parser().parse_args(["trap", "slope", "--wavelength", "914", "--angle", "45"])
    second = build_parser().parse_args(["trap", "slope", "--wavelength", "914"])
    assert (first.angle, second.angle) == (45.0, 90.0)


def test_cli_kind_mismatch(tmp_path):
    p = tmp_path / "x.scenario"
    p.write_text(GOOD_SCENARIO)
    assert cli_main(["simulate", "lz", "--scenario", str(p)]) == 2


def test_cli_analyze_rabi(tmp_path, capsys):
    from fsqubit import formulas
    from fsqubit.units import TWO_PI

    dt = 0.4e-6
    t = np.arange(4096) * dt
    y = formulas.damped_model(t, TWO_PI * 100.94e3, 0.0, 684e-6, 0.17, 1.15e-3)
    csv = "t_s,value\n" + "\n".join(f"{ti:.17g},{yi:.17g}" for ti, yi in zip(t, y))
    src = tmp_path / "trace.csv"
    src.write_text(csv)
    out = tmp_path / "result.json"
    assert cli_main(["analyze", "rabi", "--input", str(src), "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["omega_hz"] == pytest.approx(100.94e3, rel=2e-3)
    assert result["tau_s"] == pytest.approx(684e-6, rel=0.05)


def test_cli_analyze_rabi_reads_crlf_and_comments_alike(tmp_path, capsys):
    from fsqubit import formulas
    from fsqubit.units import TWO_PI

    t = np.arange(4096) * 0.4e-6
    y = formulas.damped_model(t, TWO_PI * 100.94e3, 0.0, 684e-6, 0.17, 1.15e-3)
    rows = [f"{ti:.17g},{yi:.17g}" for ti, yi in zip(t, y)]
    texts = {
        "plain": "t_s,value\n" + "".join(row + "\n" for row in rows),
        "crlf": "t_s,value\r\n" + "".join(row + "\r\n" for row in rows),
        "commented": "# trace\n\nt_s,value\n" + "".join(
            row + ("\n\n# block\n" if k % 1000 == 999 else "\n") for k, row in enumerate(rows)),
    }
    printed = {}
    for name, text in texts.items():
        src = tmp_path / f"{name}.csv"
        src.write_bytes(text.encode())
        assert cli_main(["analyze", "rabi", "--input", str(src)]) == 0
        printed[name] = capsys.readouterr().out
    assert json.loads(printed["plain"])["omega_hz"] == pytest.approx(100.94e3, rel=2e-3)
    assert printed["crlf"] == printed["plain"]
    assert printed["commented"] == printed["plain"]


def test_cli_analyze_decay(tmp_path):
    t = np.linspace(0, 2e-3, 200)
    y = 0.8 * np.exp(-t / 300e-6)
    src = tmp_path / "d.csv"
    src.write_text("t_s,value\n" + "\n".join(f"{a:.17g},{b:.17g}" for a, b in zip(t, y)))
    assert cli_main(["analyze", "decay", "--input", str(src)]) == 0


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    src = tmp_path / "short.csv"
    src.write_text("t_s,value\n0,1\n1e-6,1\n2e-6,1\n3e-6,1\n")
    assert cli_main(["analyze", "rabi", "--input", str(src)]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("t,y\n", "need at least two samples"),
    ("t,y\n0,1\n1e-6\n2e-6,0.5\n", "line 3 has 1 fields, expected 2"),
])
def test_cli_analyze_malformed_trace_exit_code(tmp_path, capsys, text, message):
    src = tmp_path / "bad.csv"
    src.write_text(text)
    assert cli_main(["analyze", "rabi", "--input", str(src)]) == 3
    assert message in capsys.readouterr().err


def test_cli_failed_checks_exit_code(tmp_path, capsys):
    # a trace too short for the pipeline windows fails its checks
    bad = GOOD_SCENARIO.replace("duration = 0.1 ms", "duration = 0.05 ms") \
                       .replace("samples = 256", "samples = 128")
    p = tmp_path / "bad.scenario"
    p.write_text(bad)
    code = cli_main(["simulate", "rabi", "--scenario", str(p), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 4
    assert "FAIL" in out


# ------------------------------------------------------------ reproducing

def test_reproduce_unknown_figure():
    with pytest.raises(ConfigError):
        presets.reproduce("fig0", Path("/tmp/never"))


def test_reproduce_fig3d_byte_identical_and_worker_independent(tmp_path):
    ok1 = presets.reproduce("fig3d", tmp_path / "a")
    ok2 = presets.reproduce("fig3d", tmp_path / "b")
    assert ok1 and ok2
    csv_a = (tmp_path / "a" / "trace.csv").read_bytes()
    csv_b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert hashlib.sha256(csv_a).hexdigest() == hashlib.sha256(csv_b).hexdigest()
    assert csv_a.splitlines()[0] == b"t_s,up,down,lost"
    m_a = json.loads((tmp_path / "a" / "manifest.json").read_text())
    m_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert m_a["outputs"] == m_b["outputs"]


@pytest.mark.parametrize("name", ["fig3d", "fig3e", "fig4c", "ramsey_default", "echo_default"])
def test_no_ensemble_depends_on_seed(name, tmp_path):
    """Every ensemble is averaged over quadrature nodes and fig4c's and
    echo_default's OU noise in closed form, so a run's outputs, its check
    values and its recorded diagnostics are the ensemble mean, not one draw;
    only the summary's own `seed` field tells the two runs apart."""
    text = _packaged_text(name)
    runs = []
    for seed in (1, 2):
        sc = parse_scenario(re.sub(r"^seed = \d+$", f"seed = {seed}", text, flags=re.M))
        assert sc.seed == seed
        out = tmp_path / str(seed)
        assert presets.run_scenario(sc, out)
        summary = json.loads((out / "summary.json").read_text())
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        del outputs["summary.json"]
        runs.append((summary["checks"], summary["info"], outputs))
    assert runs[0] == runs[1]


def test_lightshift_noise_is_in_hz(tmp_path):
    """fig4e's `frequency_noise = 150 Hz` scatters fringe frequencies in Hz, so
    the recorded uncertainty is 150 Hz (or the fit's, when larger), not 2 pi 150."""
    presets.reproduce("fig4e", tmp_path / "run")
    data = np.genfromtxt(tmp_path / "run" / "shift_vs_depth.csv", delimiter=",", names=True)
    assert np.all(data["sigma_hz"] >= 150.0)
    assert np.all(data["sigma_hz"] < 300.0)


def test_summary_checks_recomputable_from_csv(tmp_path):
    presets.reproduce("fig2c", tmp_path / "run")
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    data = np.genfromtxt(tmp_path / "run" / "spectrum.csv", delimiter=",", names=True)
    dip = data["excitation"][np.argmin(np.abs(data["delta_hz"]))]
    recorded = next(c for c in summary["checks"] if c["name"] == "dip_at_zero")
    assert recorded["value"] == pytest.approx(float(dip), abs=1e-15)
