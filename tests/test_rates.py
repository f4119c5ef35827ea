import math

import numpy as np
import pytest

from fsqubit import driven, formulas, rates, sequences
from fsqubit.units import TWO_PI


@pytest.fixture(scope="module")
def up_field(full_scheme):
    return driven.DriveField((full_scheme.up, full_scheme.s), TWO_PI * 36e6, -TWO_PI * 6e9)


@pytest.fixture(scope="module")
def model(up_field, full_scheme, table, env):
    return rates.build_rate_model(up_field, full_scheme, table, env)


def test_columns_sum_to_zero(model):
    sums = np.abs(model.matrix.sum(axis=0))
    assert sums.max() < 1e-12 * np.abs(model.matrix).max()


def test_off_diagonals_nonnegative(model):
    off = model.matrix - np.diag(np.diag(model.matrix))
    assert off.min() >= 0.0


def test_zero_pump_is_pure_decay(full_scheme, table, env):
    field = driven.DriveField((full_scheme.up, full_scheme.s), 0.0, -TWO_PI * 6e9)
    m = rates.build_rate_model(field, full_scheme, table, env)
    # no rate out of any 3P2 or 1S0 sublevel
    for label in ("up", "g"):
        i = m.index(label)
        assert m.matrix[i, i] == 0.0
    times = np.array([0.0, 1e-4, 1e-2])
    surv = rates.survival(m, times)
    assert np.array_equal(surv, np.ones(3))


def test_initial_rate_matches_closed_form(model, up_field, table):
    gamma_sc = formulas.scattering_rate(up_field.rabi, up_field.detuning, table.gamma_s)
    i_up = model.index("up")
    assert -model.matrix[i_up, i_up] == pytest.approx(gamma_sc, rel=1e-6)


def test_population_conserved(model):
    times = np.concatenate([[0.0], np.geomspace(1e-6, 3e-2, 25)])
    pops = rates.evolve_rates(model, times)
    totals = pops.sum(axis=1)
    assert np.abs(totals - 1.0).max() < 1e-9
    assert pops.min() > -1e-12


def test_long_time_population_in_absorbing_levels(model, full_scheme):
    # with only the up laser on, the ground state, the stretched m = +-2
    # sublevels, and the unaddressed down state are all absorbing
    pops = rates.evolve_rates(model, np.array([0.0, 60.0 / 622.0]))[-1]
    absorbing = [model.index("g"), model.index("down"),
                 full_scheme.index("3P2", 2), full_scheme.index("3P2", -2)]
    assert pops[absorbing].sum() > 0.999


def test_evolve_at_zero_returns_initial(model):
    pops = rates.evolve_rates(model, np.array([0.0]))
    assert np.array_equal(pops[0], model.initial)


def test_evolve_from_above_zero_equals_the_grid_from_zero(model):
    # a grid that starts after t = 0 is stepped from the initial state at 0
    times = np.concatenate([[1e-5], np.geomspace(2e-5, 3e-2, 12)])
    late = rates.evolve_rates(model, times)
    full = rates.evolve_rates(model, np.concatenate([[0.0], times]))
    assert late.shape == (len(times), len(model.labels))
    assert np.array_equal(late.view(np.int64), full[1:].view(np.int64))


def test_rate_model_agrees_with_master_equation(up_field, full_scheme, table, env):
    times = np.concatenate([[0.0], np.geomspace(1e-5, 5e-3, 12)])
    surv_rate = rates.survival(rates.build_rate_model(up_field, full_scheme, table, env), times)
    surv_me = sequences.scattering_decay(up_field, times, full_scheme, table, env)
    assert np.abs(surv_rate - surv_me).max() < 0.02


def test_initial_slope_agreement_with_master_equation(up_field, full_scheme, table, env):
    # quasi-steady loss rates agree for GHz-scale detunings
    t_probe = 2e-4
    times = np.array([0.0, t_probe])
    r_rate = -math.log(rates.survival(
        rates.build_rate_model(up_field, full_scheme, table, env), times)[-1]) / t_probe
    r_me = -math.log(sequences.scattering_decay(
        up_field, times, full_scheme, table, env)[-1]) / t_probe
    assert abs(r_rate / r_me - 1.0) < 0.05


def test_fit_recovers_generating_rate(up_field, full_scheme, table, env):
    m = rates.build_rate_model(up_field, full_scheme, table, env)
    times = np.concatenate([[0.0], np.geomspace(1e-5, 1e-2, 20)])
    surv = rates.survival(m, times)
    fit = rates.fit_scattering_rate(times, surv, up_field, full_scheme, table, env)
    truth = formulas.scattering_rate(up_field.rabi, up_field.detuning, table.gamma_s)
    assert fit.value("gamma_sc") == pytest.approx(truth, rel=0.01)
    assert fit.meta["tau_max"] == pytest.approx(1.0 / fit.value("gamma_sc"), rel=1e-12)
    assert not fit.meta["non_decaying"]


def test_fit_flags_non_decaying(up_field, full_scheme, table, env):
    times = np.array([0.0, 1e-4, 2e-4, 4e-4, 1e-3])
    flat = np.ones(5)
    fit = rates.fit_scattering_rate(times, flat, up_field, full_scheme, table, env)
    assert fit.meta["non_decaying"]


def test_tau_max_quadratic_in_detuning(full_scheme, table, env):
    mags = np.array([3e9, 4.5e9, 6e9, 8e9]) * TWO_PI
    taus = []
    for mag in mags:
        field = driven.DriveField((full_scheme.up, full_scheme.s), TWO_PI * 36e6, -mag)
        m = rates.build_rate_model(field, full_scheme, table, env)
        horizon = 20.0 / formulas.scattering_rate(field.rabi, mag, table.gamma_s)
        times = np.concatenate([[0.0], np.geomspace(1e-5, horizon, 18)])
        fit = rates.fit_scattering_rate(times, rates.survival(m, times),
                                        field, full_scheme, table, env)
        taus.append(fit.meta["tau_max"])
    ghz = mags / TWO_PI / 1e9
    coeff = np.polyfit(ghz**2, np.array(taus) * 1e6, 1)[0]  # us per (2pi GHz)^2
    assert 30.0 <= coeff <= 50.0


def test_total_triplet_population_non_increasing(model, full_scheme):
    # ground-state recycling only removes population from the triplet states
    times = np.concatenate([[0.0], np.geomspace(1e-6, 2e-2, 30)])
    pops = rates.evolve_rates(model, times)
    triplet = [i for i, lvl in enumerate(full_scheme.levels) if lvl.manifold != "1S0"]
    totals = pops[:, triplet].sum(axis=1)
    assert np.all(np.diff(totals) <= 1e-12)


def test_zeeman_shifted_lines_carry_reduced_rates(up_field, full_scheme, table, env):
    pumped = rates.pump_rates(up_field, full_scheme, table, env)
    by_m = {full_scheme.levels[i].m_j: r for i, _, r in pumped}
    assert set(by_m) == {-1, 0, 1}
    # pi line strengths: m = +-1 at 3/4 of the m = 0 rate, barely Zeeman-shifted
    assert by_m[1] / by_m[0] == pytest.approx(0.75, rel=0.01)
    assert by_m[-1] / by_m[0] == pytest.approx(0.75, rel=0.01)
    assert by_m[1] != by_m[-1]  # opposite Zeeman shifts at finite field


def test_rate_model_rejects_field_outside_3s1(full_scheme, table, env):
    # a valid single-drive field, but the rate model scatters at the 3S1 linewidth
    field = driven.DriveField((full_scheme.g, full_scheme.up), TWO_PI * 1e3, 0.0)
    driven.build_single_drive_model(field, full_scheme, table, env)
    with pytest.raises(driven.ModelError, match="1S0-3P2"):
        rates.pump_rates(field, full_scheme, table, env)
    with pytest.raises(driven.ModelError, match="1S0-3P2"):
        rates.build_rate_model(field, full_scheme, table, env)


def test_j_to_j_field_rejected_naming_the_transition(full_scheme, table, env):
    # 3P1 - 3S1 is J = 1 -> 1: the m = 0 pi line the ladder is scaled by vanishes
    field = driven.DriveField((full_scheme.index("3P1", 1), full_scheme.index("3S1", 1)),
                              TWO_PI * 1e3, 0.0)
    with pytest.raises(driven.ModelError, match=r"\(3P1,1\)-\(3S1,1\)"):
        driven.build_single_drive_model(field, full_scheme, table, env)
    with pytest.raises(driven.ModelError, match=r"\(3P1,1\)-\(3S1,1\)"):
        rates.build_rate_model(field, full_scheme, table, env)


def test_pump_rates_pinned_at_the_figS3_working_point(up_field, full_scheme, table, env):
    from fsqubit import atom

    pumped = rates.pump_rates(up_field, full_scheme, table, env)
    assert [(full_scheme.levels[i].key(), full_scheme.levels[j].key()) for i, j, _ in pumped] == [
        (("3P2", m), ("3S1", m)) for m in (-1, 0, 1)]
    ref = atom.clebsch_gordan(2, 0, 1, 0, 1, 0)

    def z(manifold, m):
        return atom.zeeman_shift(atom.Sublevel(manifold, m, 0.0), env)

    for i, _, rate in pumped:
        m = full_scheme.levels[i].m_j
        ratio = atom.clebsch_gordan(2, m, 1, 0, 1, m) / ref
        z_line = (z("3S1", m) - z("3S1", 0)) - (z("3P2", m) - z("3P2", 0))
        expected = formulas.scattering_rate(up_field.rabi * abs(ratio), up_field.detuning - z_line,
                                            table.gamma_s)
        assert rate == pytest.approx(expected, rel=1e-12, abs=0.0)
