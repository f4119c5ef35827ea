import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fsqubit import atom, driven, lindblad
from fsqubit.units import TWO_PI


def raman(scheme, rabi_up, rabi_down, delta_one, delta_two=0.0, phase_up=0.0, phase_down=0.0):
    """`driven.raman_config` with the up and down fields' phases set."""
    config = driven.raman_config(scheme, rabi_up, rabi_down, delta_one, delta_two)
    return driven.RamanConfig(replace(config.up, phase=phase_up),
                              replace(config.down, phase=phase_down))


def test_drive_field_validation():
    with pytest.raises(driven.ModelError):
        driven.DriveField((0, 1), -1.0, 0.0)
    with pytest.raises(driven.ModelError):
        driven.DriveField((2, 2), 1.0, 0.0)


def test_raman_config_detunings(lam):
    cfg = driven.raman_config(lam, 1.0, 2.0, delta_one=10.0, delta_two=3.0)
    assert cfg.delta_one == 10.0
    assert cfg.delta_two == pytest.approx(3.0)
    assert cfg.down.detuning == pytest.approx(7.0)


def test_lambda_hamiltonian_structure(lam, table):
    cfg = driven.raman_config(lam, TWO_PI * 1e6, TWO_PI * 2e6, -TWO_PI * 1e9, TWO_PI * 1e3)
    m = driven.build_lambda_model(cfg, lam, table, mode="closed")
    h = m.hamiltonian
    assert h[0, 0] == 0.0
    assert h[1, 1] == pytest.approx(TWO_PI * 1e9)
    assert h[2, 2] == pytest.approx(-TWO_PI * 1e3)
    assert h[0, 1] == pytest.approx(TWO_PI * 0.5e6)
    assert h[1, 2] == pytest.approx(TWO_PI * 1e6)


def test_hermiticity_exact(lam, table):
    cfg = raman(lam, TWO_PI * 36e6, TWO_PI * 36e6, -TWO_PI * 6e9, phase_up=0.7, phase_down=-1.2)
    for mode in ("closed", "lossy"):
        m = driven.build_lambda_model(cfg, lam, table, mode=mode)
        assert np.array_equal(m.hamiltonian, m.hamiltonian.conj().T)
        assert np.linalg.norm(m.hamiltonian - m.hamiltonian.conj().T) == 0.0


def test_full_model_hermitian_at_main_working_point(full_scheme, table, env):
    cfg = driven.raman_config(full_scheme, TWO_PI * 36e6, TWO_PI * 36e6, -TWO_PI * 6e9)
    m = driven.build_lambda_model(cfg, full_scheme, table, env, mode="full")
    assert m.dim == 13
    defect = np.linalg.norm(m.hamiltonian - m.hamiltonian.conj().T)
    assert defect < 1e-12 * np.linalg.norm(m.hamiltonian)


def test_resonant_coupling_block_eigenvalues(lam, table):
    w_up, w_dn = TWO_PI * 1.3e6, TWO_PI * 0.6e6
    cfg = driven.raman_config(lam, w_up, w_dn, 0.0, 0.0)
    m = driven.build_lambda_model(cfg, lam, table, mode="closed")
    eig = np.sort(np.linalg.eigvalsh(m.hamiltonian))
    expected = math.sqrt(w_up**2 + w_dn**2) / 2.0
    np.testing.assert_allclose(eig, [-expected, 0.0, expected], atol=1e-6 * expected)


def test_zero_drive_is_diagonal(lam, table):
    cfg = driven.raman_config(lam, 0.0, 0.0, 0.0)
    m = driven.build_lambda_model(cfg, lam, table, mode="lossy")
    assert np.count_nonzero(m.hamiltonian - np.diag(np.diag(m.hamiltonian))) == 0


def test_jump_endpoints_must_be_model_levels():
    h = np.zeros((3, 3))
    labels = ("a", "b", "c")
    assert driven.RotatingFrameModel(h, ((2, 0, 1.0), (1, 1, 0.5)), labels).jumps == (
        (2, 0, 1.0), (1, 1, 0.5))
    for jump in ((0, 3, 1.0), (3, 0, 1.0), (-1, 0, 1.0), (0, -1, 1.0)):
        with pytest.raises(driven.ModelError, match="outside the model's 3 levels"):
            driven.RotatingFrameModel(h, (jump,), labels)


def test_lossy_branching_rates(lam, table):
    cfg = driven.raman_config(lam, TWO_PI * 1e6, TWO_PI * 1e6, 0.0)
    m = driven.build_lambda_model(cfg, lam, table, mode="lossy")
    rates = sorted(amp ** 2 for _, _, amp in m.jumps)
    branch = table.branching(("3S1", 0))
    b_up = branch[("3P2", 0)]
    b_down = branch[("3P0", 0)]
    b_lost = sum(branch.values()) - b_up - b_down
    expected = sorted(f * table.gamma_s for f in (b_up, b_down, b_lost))
    np.testing.assert_allclose(rates, expected, rtol=1e-9)
    # the reference branching aggregates hold at their stated precision
    np.testing.assert_allclose(sorted((b_up, b_down, b_lost)),
                               sorted((0.217, 0.116, 0.666)), atol=5e-4)


def test_zero_linewidth_table_with_default_channels_adds_nothing(lam, table, no_decay):
    """gamma_s = 0 with the default channels gives jumps of amplitude 0,
    whose generator equals the one built without channels."""
    silent = atom.DecayTable(gamma_s=0.0, channels=table.channels)
    cfg = driven.raman_config(lam, TWO_PI * 1e6, TWO_PI * 2e6, -TWO_PI * 3e6, TWO_PI * 1e5)
    for build in (lambda t: driven.build_lambda_model(cfg, lam, t, mode="lossy"),
                  lambda t: driven.build_single_drive_model(cfg.up, lam, t)):
        model = build(silent)
        assert model.jumps and all(amp == 0.0 for *_, amp in model.jumps)
        assert np.array_equal(lindblad.liouvillian(model), lindblad.liouvillian(build(no_decay)))
    closed = driven.build_lambda_model(cfg, lam, silent, mode="closed")
    undamped = driven.RotatingFrameModel(closed.hamiltonian, (), closed.labels)
    assert np.array_equal(lindblad.liouvillian(closed), lindblad.liouvillian(undamped))


def test_closed_model_names_a_missing_decay_branch(lam, no_decay):
    cfg = driven.raman_config(lam, TWO_PI * 1e6, TWO_PI * 1e6, 0.0)
    with pytest.raises(driven.ModelError, match=r"\(3S1,0\) decay branch into \(3P2,0\) or \(3P0,0\)"):
        driven.build_lambda_model(cfg, lam, no_decay, mode="closed")


def test_forbidden_transition_rejected(full_scheme, table):
    # 1S0 - 3P0 is J=0 to J=0
    field = driven.DriveField((full_scheme.g, full_scheme.down), 1.0, 0.0)
    with pytest.raises(driven.ModelError):
        driven.build_single_drive_model(field, full_scheme, table)


def test_quadrupole_pair_allowed_for_state_prep(table):
    two = atom.two_level_scheme()
    field = driven.DriveField((0, 1), TWO_PI * 173.0, 0.0)
    m = driven.build_single_drive_model(field, two, None)
    assert m.dim == 2
    assert m.hamiltonian[0, 1] == pytest.approx(TWO_PI * 173.0 / 2)


def test_zero_amplitude_field_is_pure_decay(full_scheme, table, env):
    field = driven.DriveField((full_scheme.up, full_scheme.s), 0.0, -TWO_PI * 6e9)
    m = driven.build_single_drive_model(field, full_scheme, table, env)
    off_diag = m.hamiltonian - np.diag(np.diag(m.hamiltonian))
    assert np.count_nonzero(off_diag) == 0
    rates = atom.decay_rates(full_scheme, table)
    assert m.jumps == tuple((i, j, math.sqrt(rate)) for i, j, rate in rates)


def test_single_drive_full_scheme_couplings(full_scheme, table, env):
    field = driven.DriveField((full_scheme.up, full_scheme.s), TWO_PI * 36e6, -TWO_PI * 6e9)
    m = driven.build_single_drive_model(field, full_scheme, table, env)
    up_m1 = full_scheme.index("3P2", 1)
    s_m1 = full_scheme.index("3S1", 1)
    ratio = abs(m.hamiltonian[up_m1, s_m1]) / abs(m.hamiltonian[full_scheme.up, full_scheme.s])
    assert ratio == pytest.approx(math.sqrt(0.3 / 0.4), rel=1e-9)
    # m = +-2 sublevels are dark to the pi-polarized drive
    up_m2 = full_scheme.index("3P2", 2)
    assert np.count_nonzero(m.hamiltonian[up_m2, :]) == 1  # diagonal only


def test_full_model_diagonal_entries(full_scheme, table, env):
    delta = -TWO_PI * 6e9
    cfg = driven.raman_config(full_scheme, TWO_PI * 36e6, TWO_PI * 36e6, delta, TWO_PI * 5e3)
    m = driven.build_lambda_model(cfg, full_scheme, table, env, mode="full")
    h = m.hamiltonian
    assert h[full_scheme.up, full_scheme.up] == 0.0
    assert h[full_scheme.s, full_scheme.s].real == pytest.approx(-delta, rel=1e-12)
    assert h[full_scheme.down, full_scheme.down].real == pytest.approx(-TWO_PI * 5e3)
    z = atom.zeeman_shift(full_scheme.levels[full_scheme.index("3P2", 2)], env)
    assert h[full_scheme.index("3P2", 2), full_scheme.index("3P2", 2)].real == pytest.approx(z)


def test_effective_model_parameters(fig3_config, table):
    m = driven.build_effective_qubit_model(fig3_config, table)
    assert m.labels == ("up", "down", "lost")
    coupling = abs(m.hamiltonian[0, 1]) * 2
    assert coupling == pytest.approx(TWO_PI * 108e3, rel=1e-9)
    # balanced fields: no differential light shift
    assert (m.hamiltonian[0, 0] - m.hamiltonian[1, 1]).real == pytest.approx(0.0, abs=1e-6)


def test_phase_enters_off_diagonal(lam, table):
    cfg = raman(lam, TWO_PI * 1e6, TWO_PI * 1e6, -TWO_PI * 1e9, phase_up=0.9)
    m = driven.build_effective_qubit_model(cfg, table)
    coupling = m.hamiltonian[0, 1]
    # red detuning makes the signed coupling negative: phase 0.9 plus pi
    assert coupling == pytest.approx(abs(coupling) * np.exp(1j * (0.9 + math.pi)))


def test_drive_phase_sits_on_lower_upper_entry_in_every_builder(lam, full_scheme, table, env):
    # H[lower, upper] = (rabi / 2) e^{i phase}, lower and upper ordered by energy
    phases = {"up": 0.3, "down": 0.5}
    for scheme, mode, index in ((lam, "lossy", {"up": 0, "s": 1, "down": 2}),
                                (full_scheme, "full", {"up": full_scheme.up, "s": full_scheme.s,
                                                       "down": full_scheme.down})):
        cfg = raman(scheme, TWO_PI * 1e6, TWO_PI * 2e6, -TWO_PI * 1e9,
                    phase_up=phases["up"], phase_down=phases["down"])
        h = driven.build_lambda_model(cfg, scheme, table, env, mode=mode).hamiltonian
        for arm in ("up", "down"):
            assert np.angle(h[index[arm], index["s"]]) == pytest.approx(phases[arm], abs=1e-12)
        single = driven.build_single_drive_model(cfg.down, scheme, table, env).hamiltonian
        assert np.angle(single[scheme.down, scheme.s]) == pytest.approx(phases["down"], abs=1e-12)


@given(phase=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_phase_covariance_conjugates_coupling(phase):
    lam_local = atom.lambda_scheme()
    tab = atom.default_decay_table()
    cfg0 = driven.raman_config(lam_local, TWO_PI * 1e6, TWO_PI * 1e6, 0.0)
    cfg1 = raman(lam_local, TWO_PI * 1e6, TWO_PI * 1e6, 0.0, phase_up=phase)
    m0 = driven.build_lambda_model(cfg0, lam_local, tab, mode="closed")
    m1 = driven.build_lambda_model(cfg1, lam_local, tab, mode="closed")
    assert m1.hamiltonian[0, 1] == pytest.approx(m0.hamiltonian[0, 1] * np.exp(1j * phase))
    assert m1.hamiltonian[1, 0] == pytest.approx(np.conj(m1.hamiltonian[0, 1]))


def test_elimination_threshold(fig3_config, table, lam):
    assert driven.elimination_applies(fig3_config, table)
    near = driven.raman_config(lam, TWO_PI * 36e6, TWO_PI * 36e6, -TWO_PI * 1e9)
    assert not driven.elimination_applies(near, table)


def test_models_are_immutable(fig3_config, table):
    m = driven.build_effective_qubit_model(fig3_config, table)
    with pytest.raises(ValueError):
        m.hamiltonian[0, 0] = 1.0


def test_full_model_reads_the_up_ladder_off_the_single_drive_model(full_scheme, table, env):
    # figS3's working point: 36 MHz up laser, -6 GHz, 20 G
    cfg = driven.raman_config(full_scheme, TWO_PI * 36e6, TWO_PI * 36e6, -TWO_PI * 6e9, TWO_PI * 5e3)
    full = driven.build_lambda_model(cfg, full_scheme, table, env, mode="full").hamiltonian
    single = driven.build_single_drive_model(cfg.up, full_scheme, table, env).hamiltonian
    for m in (-1, 0, 1):
        a, b = full_scheme.index("3P2", m), full_scheme.index("3S1", m)
        assert full[a, b] == single[a, b] and full[b, a] == single[b, a]
        assert full[a, b] != 0.0
    ladder = [i for i, lvl in enumerate(full_scheme.levels) if lvl.manifold in ("3P2", "3S1")]
    assert len(ladder) == 8
    for i in ladder:
        assert full[i, i] == single[i, i]
    # levels the up field does not address keep 0 on the diagonal; 3P0 carries -delta
    for m in (-1, 0, 1):
        i = full_scheme.index("3P1", m)
        assert full[i, i] == 0.0
    assert full[full_scheme.down, full_scheme.down] == -cfg.delta_two


def test_pi_lines_of_the_up_field(full_scheme, lam):
    field = driven.DriveField((full_scheme.s, full_scheme.up), 1.0, 0.0)
    low, high, lines = driven.pi_lines(field, full_scheme)
    assert (low.key(), high.key()) == (("3P2", 0), ("3S1", 0))
    expected = [(full_scheme.index("3P2", m), full_scheme.index("3S1", m), r)
                for m, r in ((-1, math.sqrt(0.75)), (0, 1.0), (1, math.sqrt(0.75)))]
    assert [(a, b) for a, b, _ in lines] == [(a, b) for a, b, _ in expected]
    np.testing.assert_allclose([r for *_, r in lines], [r for *_, r in expected], rtol=1e-12)
    # the restricted Lambda holds only the m = 0 line
    _, _, lam_lines = driven.pi_lines(driven.DriveField((lam.up, lam.s), 1.0, 0.0), lam)
    assert lam_lines == [(lam.up, lam.s, 1.0)]


def test_pi_lines_reject_wrong_polarization_and_range(full_scheme):
    with pytest.raises(driven.ModelError, match=r"\(3P2,1\)-\(3S1,0\)"):
        driven.pi_lines(driven.DriveField((full_scheme.index("3P2", 1), full_scheme.s), 1.0, 0.0),
                        full_scheme)
    with pytest.raises(driven.ModelError, match="out of range"):
        driven.pi_lines(driven.DriveField((0, full_scheme.n), 1.0, 0.0), full_scheme)


# ------------------------------------------------ stacks from array parameters

# Drive values keep every product clear of underflow: where a nonzero
# product underflows to zero, numpy's vectorized complex multiply and its
# scalar one may round it to zeros of opposite sign.
SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
RABIS = st.one_of(SIGNED_ZEROS, st.floats(1e-3, TWO_PI * 1e8))
DETUNINGS = st.one_of(SIGNED_ZEROS, st.floats(-TWO_PI * 1e8, TWO_PI * 1e8))
FAR_DETUNINGS = st.floats(TWO_PI * 1e8, TWO_PI * 1e10) | st.floats(-TWO_PI * 1e10, -TWO_PI * 1e8)
PHASES = st.one_of(SIGNED_ZEROS, st.floats(1e-6, 4.0), st.floats(-4.0, -1e-6))


@st.composite
def raman_arguments(draw, layouts=("generic", "strong down", "strong up"), delta_ones=DETUNINGS):
    """`raman_config` arguments after the scheme for a stack of 1 to 5
    members, and the member count: the two-photon detuning an array, every
    other argument a float that the members share or an array.  The layout
    is a generic one or one of the Autler-Townes scan's two."""
    members = draw(st.integers(1, 5))

    def array(values):
        return np.array(draw(st.lists(values, min_size=members, max_size=members)))

    def shared_or_array(values):
        return array(values) if draw(st.booleans()) else draw(values)

    dets = array(DETUNINGS)
    layout = draw(st.sampled_from(layouts))
    if layout == "strong down":
        return (draw(RABIS), shared_or_array(RABIS), dets, dets), members
    if layout == "strong up":
        return (shared_or_array(RABIS), draw(RABIS), 0.0, dets), members
    return (shared_or_array(RABIS), shared_or_array(RABIS), shared_or_array(delta_ones), dets,
            shared_or_array(PHASES), shared_or_array(PHASES)), members


def member_arguments(args, m):
    return tuple(a[m] if np.ndim(a) else a for a in args)


def assert_stack_bit_equal(stack, members):
    """Each member of the stack against its own scalar build, by int64 views:
    the Hamiltonian, the jump amplitudes, and the generator, whole and on the
    stack's invariant block from the pure `up` state, which is also the
    generator of the member without its jumps of amplitude 0."""
    assert stack.hamiltonian.shape == (len(members), stack.dim, stack.dim)
    rho0 = lindblad.DensityMatrix.pure(stack.dim, stack.index("up")).matrix
    for m, member in enumerate(members):
        assert np.array_equal(stack.hamiltonian[m].view(np.int64), member.hamiltonian.view(np.int64))
        assert [(f, t) for f, t, _ in stack.jumps] == [(f, t) for f, t, _ in member.jumps]
        amps = np.array([a[m] if np.ndim(a) else a for *_, a in stack.jumps], dtype=float)
        assert np.array_equal(amps.view(np.int64),
                              np.array([a for *_, a in member.jumps], dtype=float).view(np.int64))
    for index in (None, lindblad.invariant_block(stack, rho0)):
        got = lindblad.liouvillian(stack, index)
        for m, member in enumerate(members):
            bare = driven.RotatingFrameModel(
                member.hamiltonian, [j for j in member.jumps if j[2] != 0.0], member.labels)
            for want in (lindblad.liouvillian(member, index), lindblad.liouvillian(bare, index)):
                assert np.array_equal(got[m].view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("mode", ["closed", "lossy", "full", "single drive"])
@settings(max_examples=40, deadline=None)
@given(case=raman_arguments())
def test_lambda_stack_bit_equal_to_member_builds(lam, full_scheme, table, env, mode, case):
    """The Lambda builds, and on all 13 sublevels the full Raman build and
    the single-drive build of the down field, whose detuning is always an
    array; the full build's up field may be scalar, so its model broadcasts
    over the down field's members."""
    args, members = case
    scheme = full_scheme if mode in ("full", "single drive") else lam

    def build(*arguments):
        config = raman(scheme, *arguments)
        if mode == "single drive":
            return driven.build_single_drive_model(config.down, scheme, table, env)
        return driven.build_lambda_model(config, scheme, table, env, mode=mode)

    assert_stack_bit_equal(build(*args), [build(*member_arguments(args, m)) for m in range(members)])


@settings(max_examples=60, deadline=None)
@given(case=raman_arguments(layouts=("generic",), delta_ones=FAR_DETUNINGS))
def test_effective_stack_bit_equal_to_member_builds(lam, table, case):
    """Members with a field of Rabi frequency 0 do not scatter: amplitude 0
    on their jump slots, bit-equal to a build without those jumps."""
    args, members = case
    stack = driven.build_effective_qubit_model(raman(lam, *args), table)
    assert_stack_bit_equal(stack, [
        driven.build_effective_qubit_model(raman(lam, *member_arguments(args, m)), table)
        for m in range(members)])


def test_effective_stack_squares_as_the_scalar_build_does(lam, table):
    """A float's x**2 calls pow, which for some x differs in the last bit
    from the x * x that an array's x**2 computes; the stack squares each
    member's Rabi frequencies as its scalar build does."""
    rabis = (TWO_PI * 1e6 * np.linspace(1.0, 40.0, 4001)).tolist()
    # the values where they differ first (4 of these 4001 with glibc's pow)
    odd = ([r for r in rabis if r**2 != r * r] + rabis)[:4]
    args = (np.array(odd), np.array(odd[::-1]), -TWO_PI * 6e9, np.zeros(4))
    stack = driven.build_effective_qubit_model(raman(lam, *args), table)
    assert_stack_bit_equal(stack, [
        driven.build_effective_qubit_model(driven.raman_config(lam, up, down, -TWO_PI * 6e9), table)
        for up, down in zip(odd, odd[::-1])])


def test_stacked_amplitudes_must_match_the_member_axis():
    h = np.zeros((2, 3, 3))
    labels = ("a", "b", "c")
    model = driven.RotatingFrameModel(h, ((1, 0, np.array([0.5, 0.0])), (1, 2, 0.3)), labels)
    with pytest.raises(ValueError):
        model.jumps[0][2][0] = 1.0
    for amps, hamiltonian in ((np.ones(3), h), (np.ones(2), h[0])):
        with pytest.raises(driven.ModelError, match="amplitudes of shape"):
            driven.RotatingFrameModel(hamiltonian, ((1, 0, amps),), labels)
