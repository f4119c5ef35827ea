import math

import pytest
from hypothesis import given, strategies as st

from fsqubit import atom
from fsqubit.config import ConfigError
from fsqubit.units import MU_B_MHZ_PER_G, TWO_PI


def test_full_scheme_has_13_sublevels(full_scheme):
    assert full_scheme.n == 13
    counts = {}
    for lvl in full_scheme.levels:
        counts[lvl.manifold] = counts.get(lvl.manifold, 0) + 1
    assert counts == {"1S0": 1, "3P0": 1, "3P1": 3, "3P2": 5, "3S1": 3}


def test_lambda_scheme_is_the_restricted_triple(lam):
    assert lam.n == 3
    assert {lam.up, lam.s, lam.down} == {0, 1, 2}


def test_named_indices_distinct(full_scheme):
    idx = {full_scheme.g, full_scheme.up, full_scheme.down, full_scheme.s}
    assert len(idx) == 4


def test_energy_ordering(full_scheme):
    e = {m: None for m in ("3P0", "3P1", "3P2", "3S1")}
    for lvl in full_scheme.levels:
        if lvl.manifold in e:
            e[lvl.manifold] = lvl.energy
    assert e["3P0"] < e["3P1"] < e["3P2"] < e["3S1"]


def test_qubit_splitting_near_17_thz(full_scheme):
    up = full_scheme.levels[full_scheme.up].energy
    down = full_scheme.levels[full_scheme.down].energy
    assert abs((up - down) / (TWO_PI * 1e12) - 17.0) < 0.6


def test_sublevel_rejects_bad_mj():
    with pytest.raises(atom.ValidationError):
        atom.Sublevel("3P0", 1, 0.0)


def test_sublevel_rejects_unknown_manifold():
    # the guard zeeman_shift relies on when it indexes MANIFOLDS
    with pytest.raises(ConfigError, match="unknown manifold '3D1'"):
        atom.Sublevel("3D1", 0, 0.0)


def test_zeeman_42mhz_point(env):
    lvl = atom.Sublevel("3P2", 1, 0.0)
    shift = atom.zeeman_shift(lvl, env)
    assert abs(shift / (TWO_PI * 1e6) - 41.99) < 0.01


def test_zeeman_zero_field():
    lvl = atom.Sublevel("3S1", 1, 0.0)
    assert atom.zeeman_shift(lvl, atom.MagneticEnvironment(b_gauss=0.0)) == 0.0


def test_zeeman_j0_has_no_shift(env):
    assert atom.zeeman_shift(atom.Sublevel("3P0", 0, 0.0), env) == 0.0


@given(
    m=st.integers(min_value=-2, max_value=2),
    b=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
)
def test_zeeman_odd_in_mj_and_linear_in_b(m, b):
    env = atom.MagneticEnvironment(b_gauss=b)
    plus = atom.zeeman_shift(atom.Sublevel("3P2", m, 0.0), env)
    minus = atom.zeeman_shift(atom.Sublevel("3P2", -m, 0.0), env)
    assert plus == -minus
    doubled = atom.zeeman_shift(atom.Sublevel("3P2", m, 0.0), atom.MagneticEnvironment(b_gauss=2 * b))
    assert math.isclose(doubled, 2 * plus, rel_tol=1e-12, abs_tol=1e-9)


def test_lande_factors():
    assert atom.MANIFOLDS["3P2"][1] == 1.5
    assert atom.MANIFOLDS["3S1"][1] == 2.0
    assert atom.MANIFOLDS["3P1"][1] == 1.5
    assert atom.MANIFOLDS["1S0"][1] == 0.0 and atom.MANIFOLDS["3P0"][1] == 0.0
    # zeeman_shift reads g_J from MANIFOLDS, the only copy
    env = atom.MagneticEnvironment()
    for manifold, m in (("3S1", 1), ("3P2", 2), ("3P1", -1)):
        g = atom.MANIFOLDS[manifold][1]
        expected = TWO_PI * MU_B_MHZ_PER_G * 1e6 * g * m * env.b_gauss
        assert atom.zeeman_shift(atom.Sublevel(manifold, m, 0.0), env) == expected


def test_decay_fraction_times_linewidth(table):
    # 0.217 branch at the full linewidth
    rate = 0.217 * table.gamma_s
    assert abs(rate - 1.50e7) / 1.50e7 < 2e-3


def test_branching_sums_to_unity_within_tolerance(table):
    for m in (-1, 0, 1):
        total = sum(f for (src, _, f) in table.channels if src == ("3S1", m))
        assert abs(total - 1.0) <= 2e-3
    # the m=0 aggregates used everywhere
    branch = table.branching(("3S1", 0))
    assert math.isclose(branch[("3P2", 0)], 0.217 * (0.543 / 0.543), rel_tol=5e-3)
    m_nonzero = sum(v for (man, m), v in branch.items() if man == "3P2" and m != 0)
    assert math.isclose(m_nonzero, 0.326, rel_tol=5e-3)


def test_sigma_weights_equal_by_symmetry(table):
    branch = table.branching(("3S1", 0))
    assert math.isclose(branch[("3P2", 1)], branch[("3P2", -1)], rel_tol=1e-12)
    # m = +-2 is unreachable from m = 0 by a single photon
    assert ("3P2", 2) not in branch and ("3P2", -2) not in branch


def test_decay_rates_sum_matches_linewidth(full_scheme, table):
    rates = atom.decay_rates(full_scheme, table)
    total = sum(r for i, _, r in rates if full_scheme.levels[i].key() == ("3S1", 0))
    assert abs(total / table.gamma_s - 1.0) <= 2e-3


def test_decay_rates_empty_table(full_scheme):
    empty = atom.DecayTable(channels=())
    assert atom.decay_rates(full_scheme, empty) == []


def test_decay_rates_downhill_validation(full_scheme):
    uphill = atom.DecayTable(channels=((("3P0", 0), ("3S1", 0), 1.0),))
    with pytest.raises(atom.ValidationError):
        atom.decay_rates(full_scheme, uphill)


@pytest.mark.parametrize("gamma_s", [-1.0, math.nan, math.inf, -math.inf])
def test_bad_gamma_s_rejected(table, gamma_s):
    """A negative or non-finite 3S1 rate is named when the table is made, so
    no model builder reaches it (a negative one used to reach the lossy
    Lambda builder's square root)."""
    with pytest.raises(atom.ValidationError, match="gamma_s"):
        atom.DecayTable(gamma_s=gamma_s, channels=table.channels)


def test_bad_fraction_sum_rejected(full_scheme):
    bad = atom.DecayTable(channels=(
        (("3S1", 0), ("3P2", 0), 0.5),
        (("3S1", 0), ("3P0", 0), 0.4),
    ))
    with pytest.raises(atom.ValidationError):
        atom.decay_rates(full_scheme, bad)


def test_sequential_cascade_channels(table, full_scheme):
    rates = atom.decay_rates(full_scheme, table)
    p1_rates = [r for i, j, r in rates
                if full_scheme.levels[i].manifold == "3P1"
                and full_scheme.levels[j].manifold == "1S0"]
    assert len(p1_rates) == 3
    for r in p1_rates:
        assert math.isclose(r, 1.0 / atom.TAU_3P1, rel_tol=1e-12)


def test_clebsch_gordan_reference_values():
    # decay weights of a J=1, m=0 state onto J=2
    w = atom.emission_weights(1, 0, 2)
    assert math.isclose(w[0], 0.4, abs_tol=1e-12)
    assert math.isclose(w[1], 0.3, abs_tol=1e-12)
    assert math.isclose(w[-1], 0.3, abs_tol=1e-12)
    # J=1 -> J=1 pi line from m=0 vanishes
    w11 = atom.emission_weights(1, 0, 1)
    assert 0 not in w11
    assert math.isclose(w11[1], 0.5, abs_tol=1e-12)


@given(m_e=st.integers(min_value=-1, max_value=1), j_g=st.integers(min_value=0, max_value=2))
def test_emission_weights_normalized(m_e, j_g):
    w = atom.emission_weights(1, m_e, j_g)
    if w:
        assert math.isclose(sum(w.values()), 1.0, rel_tol=1e-12)
        assert all(v >= 0 for v in w.values())


def test_immutability(full_scheme, table):
    with pytest.raises(Exception):
        full_scheme.levels[0].m_j = 2  # frozen dataclass
    with pytest.raises(Exception):
        table.gamma_s = 0.0
