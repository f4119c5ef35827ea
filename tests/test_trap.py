import importlib.resources
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fsqubit import trap


MAGIC_DEG = 54.735610317245346  # 3 cos^2(beta) = 1


@pytest.fixture(scope="module")
def sample_table():
    res = importlib.resources.files("fsqubit") / "data" / "polarizability_sr88.csv"
    return trap.PolarizabilityTable.from_csv(res.read_text())


def test_csv_header_strict():
    with pytest.raises(trap.TableError) as err:
        trap.PolarizabilityTable.from_csv("wrong,header\n1,2\n", source="t.csv")
    assert "t.csv:1" in str(err.value)


def test_csv_field_count_line_numbered():
    text = "state,wavelength_nm,alpha_s,alpha_s_sigma,alpha_t,alpha_t_sigma\n3P0,914,1,0\n"
    with pytest.raises(trap.TableError) as err:
        trap.PolarizabilityTable.from_csv(text, source="t.csv")
    assert "t.csv:2" in str(err.value)


def test_wavelengths_must_increase():
    with pytest.raises(trap.TableError):
        trap.PolarizabilityTable(rows={"3P0": np.array([[914.0, 1, 0, 0, 0],
                                                        [900.0, 1, 0, 0, 0]])})


def test_j0_states_have_no_tensor_part():
    with pytest.raises(trap.TableError):
        trap.PolarizabilityTable(rows={"3P0": np.array([[914.0, 1, 0, 0.5, 0]])})


def test_tensor_term_vanishes_at_magic_projection(sample_table):
    beta = math.radians(MAGIC_DEG)
    val, _ = trap.polarizability(sample_table, "3P2", 914.0, beta)
    a_s = sample_table.interpolate("3P2", 914.0)[0]
    assert val == pytest.approx(a_s, rel=1e-12)


def test_formula_endpoints(sample_table):
    a_s, _, a_t, _ = sample_table.interpolate("3P2", 914.0)
    parallel, _ = trap.polarizability(sample_table, "3P2", 914.0, 0.0)
    orthogonal, _ = trap.polarizability(sample_table, "3P2", 914.0, math.pi / 2)
    assert parallel == pytest.approx(a_s - a_t, rel=1e-12)
    assert orthogonal == pytest.approx(a_s + a_t / 2, rel=1e-12)


def test_j0_polarizability_is_scalar_only(sample_table):
    for beta in (0.0, 0.7, math.pi / 2):
        val, _ = trap.polarizability(sample_table, "3P0", 914.0, beta)
        assert val == pytest.approx(355.0, rel=1e-12)


def test_interpolation_matches_nodes_and_is_continuous(sample_table):
    arr = sample_table.rows["3P2"]
    for lam, a_s, _, a_t, _ in arr:
        got = sample_table.interpolate("3P2", lam)
        assert got[0] == pytest.approx(a_s, rel=1e-12)
        assert got[2] == pytest.approx(a_t, rel=1e-12)
    # continuity across a node
    eps = 1e-6
    left = trap.polarizability(sample_table, "3P2", 914.0 - eps, 0.3)[0]
    right = trap.polarizability(sample_table, "3P2", 914.0 + eps, 0.3)[0]
    assert abs(left - right) < 1e-3


def test_extrapolation_rejected(sample_table):
    with pytest.raises(trap.TableError):
        trap.polarizability(sample_table, "3P2", 700.0, 0.0)


@given(beta=st.floats(min_value=0.0, max_value=math.pi / 2))
@settings(max_examples=50)
def test_angle_dependence_monotone_for_fixed_sign_tensor(beta):
    table = trap.PolarizabilityTable(rows={
        "3P2": np.array([[900.0, 400.0, 0, -100.0, 0], [1000.0, 400.0, 0, -100.0, 0]]),
        "3P0": np.array([[900.0, 380.0, 0, 0, 0], [1000.0, 380.0, 0, 0, 0]]),
    })
    val, _ = trap.polarizability(table, "3P2", 950.0, beta)
    lo, _ = trap.polarizability(table, "3P2", 950.0, math.pi / 2)
    hi, _ = trap.polarizability(table, "3P2", 950.0, 0.0)
    assert lo - 1e-9 <= val <= hi + 1e-9


def test_magic_angle_at_914(sample_table):
    res = trap.magic_angle(sample_table, 914.0)
    assert res.beta is not None
    assert math.degrees(res.beta) == pytest.approx(79.00, abs=0.01)
    assert res.sigma > 0


def test_magic_angle_root_closes_the_gap(sample_table):
    res = trap.magic_angle(sample_table, 914.0)
    a_up, _ = trap.polarizability(sample_table, "3P2", 914.0, res.beta)
    a_dn, _ = trap.polarizability(sample_table, "3P0", 914.0, 0.0)
    assert abs(a_up - a_dn) < 1e-4 * a_dn  # bisection tolerance in angle


def test_magic_angle_refined_tolerance(sample_table):
    res = trap.magic_angle(sample_table, 914.0, tol=1e-7)
    a_up, _ = trap.polarizability(sample_table, "3P2", 914.0, res.beta)
    a_dn, _ = trap.polarizability(sample_table, "3P0", 914.0, 0.0)
    assert abs(a_up - a_dn) < 1e-6 * a_dn


def test_no_magic_angle_at_1064(sample_table):
    res = trap.magic_angle(sample_table, 1064.0)
    assert res.beta is None and not res.degenerate


def test_degenerate_table_flagged():
    table = trap.PolarizabilityTable(rows={
        "3P2": np.array([[900.0, 380.0, 0, 0.0, 0], [1000.0, 380.0, 0, 0.0, 0]]),
        "3P0": np.array([[900.0, 380.0, 0, 0, 0], [1000.0, 380.0, 0, 0, 0]]),
    })
    assert trap.magic_angle(table, 950.0).degenerate


def test_recoil_energy_914_and_1064():
    assert trap.recoil_energy(914.0).frequency_hz == pytest.approx(2716.9, rel=5e-3)
    assert trap.recoil_energy(1064.0).frequency_hz == pytest.approx(2005.0, rel=5e-3)


def test_recoil_scaling_with_wavelength():
    one = trap.recoil_energy(600.0).frequency_hz
    two = trap.recoil_energy(1200.0).frequency_hz
    assert one / two == pytest.approx(4.0, rel=1e-12)


def test_shift_slope_zero_at_magic(sample_table):
    res = trap.magic_angle(sample_table, 914.0, tol=1e-9)
    slope, _ = trap.shift_slope(sample_table, 914.0, res.beta)
    assert abs(slope) < 0.1  # Hz/uK


def test_shift_slope_one_percent_rule():
    # one percent differential polarizability puts one percent of the
    # depth-in-frequency on the qubit
    table = trap.PolarizabilityTable(rows={
        "3P2": np.array([[1000.0, 400.0, 0, 0.0, 0], [1100.0, 400.0, 0, 0.0, 0]]),
        "3P0": np.array([[1000.0, 396.0, 0, 0, 0], [1100.0, 396.0, 0, 0, 0]]),
    })
    slope, _ = trap.shift_slope(table, 1064.0, 0.0)
    hz_per_uk = 20836.6
    assert slope == pytest.approx(0.01 * hz_per_uk, rel=1e-6)


def test_shift_slope_tuned_table(sample_table):
    slope, sigma = trap.shift_slope(sample_table, 1064.0, math.pi / 2)
    assert slope == pytest.approx(192.0, abs=0.01)
    assert sigma > 0
