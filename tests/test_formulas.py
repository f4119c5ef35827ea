import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fsqubit import formulas
from fsqubit.units import TWO_PI


def test_raman_rabi_working_point():
    rabi = formulas.raman_rabi(TWO_PI * 36e6, TWO_PI * 36e6, TWO_PI * 6e9)
    assert rabi == pytest.approx(TWO_PI * 108e3, rel=1e-12)
    # the measured value sits within calibration slack of the formula
    assert abs(rabi / (TWO_PI * 100.94e3) - 1.0) < 0.10


def test_raman_rabi_scalings():
    base = formulas.raman_rabi(1e6, 2e6, 1e9)
    assert formulas.raman_rabi(1e6, 2e6, 2e9) == pytest.approx(base / 2, rel=1e-12)
    assert formulas.raman_rabi(0.0, 2e6, 1e9) == 0.0
    with pytest.raises(ZeroDivisionError):
        formulas.raman_rabi(1e6, 1e6, 0.0)


def test_raman_rabi_regime_warning():
    with pytest.warns(formulas.RegimeWarning):
        formulas.raman_rabi(1e6, 1e6, 5e6)


def test_differential_stark(differential_stark):
    w_dn = TWO_PI * 36e6
    w_up = math.sqrt(2.0) * w_dn
    val = differential_stark(w_up, w_dn, -TWO_PI * 6e9)
    assert val == pytest.approx(-TWO_PI * 54e3, rel=1e-9)
    assert differential_stark(w_up, w_dn, TWO_PI * 6e9) == pytest.approx(-val)
    assert differential_stark(w_dn, w_dn, -TWO_PI * 6e9) == 0.0


def test_scattering_rate_and_decay_time(table):
    rate = formulas.scattering_rate(TWO_PI * 36e6, TWO_PI * 6e9, table.gamma_s)
    assert rate == pytest.approx(622.0, rel=2e-3)
    assert formulas.scattering_rate(0.0, TWO_PI * 6e9, table.gamma_s) == 0.0
    # the reference rate maps onto the reference decay-time limit
    assert 1.0 / 867.0 == pytest.approx(1.153e-3, rel=1e-3)


def test_scattering_rate_quadratic_in_detuning(table):
    r1 = formulas.scattering_rate(TWO_PI * 36e6, TWO_PI * 3e9, table.gamma_s)
    r2 = formulas.scattering_rate(TWO_PI * 36e6, TWO_PI * 6e9, table.gamma_s)
    assert r1 / r2 == pytest.approx(4.0, rel=1e-12)


def test_lz_probability_limits():
    assert formulas.lz_probability(0.0, 1e5) == 0.0
    assert formulas.lz_probability(TWO_PI * 400.0, 1e-6) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        formulas.lz_probability(1.0, 0.0)
    with pytest.raises(ValueError):
        formulas.lz_probability(-1.0, 1.0)


def test_lz_inversion_gives_173_hz(lz_rabi_for_fidelity):
    ramp = TWO_PI * 80e3  # 80 Hz/ms in angular units
    rabi = lz_rabi_for_fidelity(0.975, ramp)
    assert rabi / TWO_PI == pytest.approx(173.0, abs=0.5)
    assert formulas.lz_probability(rabi, ramp) == pytest.approx(0.975, rel=1e-12)


def test_damped_model_point_values():
    assert formulas.damped_model(0.0, 1.0, 0.0, 1.0, 0.3, 1.0) == pytest.approx(1.0)
    late = formulas.damped_model(1e9, TWO_PI * 1e3, 0.0, 1e-3, 0.3, 1e-3)
    assert late == pytest.approx(0.5 - 0.3, abs=1e-12)
    omega, tau = TWO_PI * 100.94e3, 684e-6
    at_tau = formulas.damped_model(tau, omega, 0.0, tau, 0.0, 1.0)
    envelope = (at_tau - 0.5) / math.cos(omega * tau)
    assert envelope == pytest.approx(0.5 / math.e, rel=1e-12)


def test_damped_model_partner_phase():
    omega = TWO_PI * 1e3
    up = formulas.damped_model(0.0, omega, 0.0, 1.0, 0.0, 1.0)
    down = formulas.damped_model(0.0, omega, math.pi, 1.0, 0.0, 1.0)
    assert up == pytest.approx(1.0) and down == pytest.approx(0.0, abs=1e-12)


@given(
    omega=st.floats(min_value=1e2, max_value=1e7),
    tau=st.floats(min_value=1e-5, max_value=1e-1),
    t=st.floats(min_value=0.0, max_value=1e-1),
)
@settings(max_examples=100)
def test_damped_model_bounded_without_loss(omega, tau, t):
    val = formulas.damped_model(t, omega, 0.0, tau, 0.0, 1.0)
    assert -1e-12 <= val <= 1.0 + 1e-12


def test_damped_model_extrema_at_phase_multiples_of_pi():
    omega, tau = TWO_PI * 5e3, 2e-3
    t = np.linspace(0, 1e-3, 200001)
    y = formulas.damped_model(t, omega, 0.0, tau, 0.0, 1.0)
    interior = np.nonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])
                          | (y[1:-1] < y[:-2]) & (y[1:-1] < y[2:]))[0] + 1
    phases = omega * t[interior] / math.pi
    assert np.abs(phases - np.round(phases)).max() < 1e-2


def test_cycles():
    assert formulas.cycles(TWO_PI * 100.94e3, 684e-6) == pytest.approx(69.04, abs=0.05)
    assert formulas.cycles(TWO_PI * 1.0, 1.0) == pytest.approx(1.0)
    assert formulas.cycles(TWO_PI * 1e3, 2.0) == pytest.approx(2 * formulas.cycles(TWO_PI * 1e3, 1.0))
    with pytest.raises(ValueError):
        formulas.cycles(0.0, 1.0)


def test_effective_two_level_fields(fig3_config, table):
    eff = formulas.effective_two_level(fig3_config.up.rabi, fig3_config.down.rabi,
                                       fig3_config.delta_one, table.gamma_s)
    assert eff.rabi == pytest.approx(TWO_PI * 108e3, rel=1e-12)
    assert eff.scatter_up == pytest.approx(622.0, rel=2e-3)
    with pytest.raises(ValueError, match="rates must be >= 0"):
        formulas.EffectiveTwoLevel(rabi=1.0, stark_up=0, stark_down=0,
                                   scatter_up=-1.0, scatter_down=1.0)


def test_effective_two_level_is_the_single_formulas_checked_once(table):
    gamma = table.gamma_s
    up, down = TWO_PI * np.array([36e6, 1e6, 0.0]), TWO_PI * np.array([30e6, 0.0, 2e6])
    for detuning in (-TWO_PI * 6e9, TWO_PI * np.array([6e9, -4e7, 3e6])):
        eff = formulas.effective_two_level(up, down, detuning, gamma)
        assert np.array_equal(eff.rabi, formulas.raman_rabi(up, down, detuning))
        assert np.array_equal(eff.scatter_up, formulas.scattering_rate(up, detuning, gamma))
        assert np.array_equal(eff.scatter_down, formulas.scattering_rate(down, detuning, gamma))
    # only the scattering rates' scale, the linewidth, flags this detuning
    with pytest.warns(formulas.RegimeWarning) as record:
        formulas.effective_two_level(1.0, 1.0, 5.0 * gamma, gamma)
    assert len(record) == 1
    with pytest.raises(ZeroDivisionError, match="detuning"):
        formulas.effective_two_level(1.0, 1.0, np.array([1e9, 0.0]), gamma)


def test_generalized_rabi(generalized_rabi):
    assert generalized_rabi(3.0, 4.0) == pytest.approx(5.0)
    assert generalized_rabi(3.0, 0.0) == pytest.approx(3.0)
