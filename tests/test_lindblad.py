import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.linalg._matfuncs_expm import pick_pade_structure

from fsqubit import driven, lindblad, sequences
from fsqubit.lindblad import DensityMatrix, steady_state
from fsqubit.units import TWO_PI


@pytest.fixture(scope="module")
def two_level_model(two_level):
    """The driven two-level model, decaying from up at the rate `gamma`."""
    def build(rabi, detuning=0.0, gamma=0.0):
        field = driven.DriveField((0, 1), rabi, detuning)
        model = driven.build_single_drive_model(field, two_level, None)
        if gamma > 0:
            model = driven.RotatingFrameModel(model.hamiltonian, ((1, 0, math.sqrt(gamma)),),
                                              model.labels)
        return model

    return build


def populations(states: np.ndarray) -> np.ndarray:
    """The diagonals (len(times), d) of stepped density matrices."""
    return np.diagonal(states, axis1=1, axis2=2).real


def test_identity_evolution(trace_distance, model_states):
    model = driven.RotatingFrameModel(np.zeros((3, 3)), (), ("a", "b", "c"))
    rho0 = DensityMatrix.from_state([0.6, 0.8j, 0.0])
    for st in model_states(model, rho0.matrix, np.linspace(0.0, 1e-3, 11)):
        assert trace_distance(DensityMatrix(st), rho0) < 1e-12


def test_resonant_rabi_formula(model_states, two_level_model):
    rabi = TWO_PI * 1e5
    model = two_level_model(rabi)
    duration = 2 * math.pi / rabi  # one full cycle; passes through the pi point
    times = np.linspace(0.0, duration, 81)
    states = model_states(model, DensityMatrix.pure(2, 0).matrix, times)
    up = populations(states)[:, model.index("up")]
    expected = np.sin(rabi * times / 2.0) ** 2
    assert np.abs(up - expected).max() < 1e-6


def test_pure_decay_efold(table, model_states, two_level_model):
    gamma = table.gamma_s
    model = two_level_model(0.0, gamma=gamma)
    states = model_states(model, DensityMatrix.pure(2, 1).matrix, np.linspace(0.0, 1.0 / gamma, 5))
    assert populations(states)[-1, model.index("up")] == pytest.approx(1.0 / math.e, rel=1e-9)
    assert 1.0 / gamma == pytest.approx(14.5e-9, rel=0.01)


def test_trace_preservation_and_positivity(fig3_config, table, model_states):
    model = driven.build_effective_qubit_model(fig3_config, table)
    for m in model_states(model, DensityMatrix.pure(3, 0).matrix, np.linspace(0.0, 1e-3, 64)):
        st = DensityMatrix(m)
        assert abs(np.trace(st.matrix).real - 1.0) < 1e-8
        assert st.min_eigenvalue() > -1e-9
        assert st.hermiticity_defect() < 1e-9


def test_gauge_invariance(fig3_config, table, model_states):
    model = driven.build_effective_qubit_model(fig3_config, table)
    # the same model with a constant added to the Hamiltonian diagonal
    shifted = driven.RotatingFrameModel(model.hamiltonian + TWO_PI * 123e6 * np.eye(model.dim),
                                        model.jumps, model.labels)
    rho0, times = DensityMatrix.pure(3, 0).matrix, np.linspace(0.0, 20e-6, 21)
    a = populations(model_states(model, rho0, times))
    b = populations(model_states(shifted, rho0, times))
    assert np.abs(a - b).max() < 1e-9


def test_expm_matches_rk(fig3_config, table, rk45, model_states):
    model = driven.build_effective_qubit_model(fig3_config, table)
    rho0 = DensityMatrix.pure(3, 0).matrix
    times = np.linspace(0.0, 50e-6, 26)
    a = populations(model_states(model, rho0, times))
    b = rk45(lindblad.liouvillian(model), rho0.reshape(-1), times, rtol=1e-11, atol=1e-13)
    assert np.abs(a - b[:, ::model.dim + 1].real).max() < 1e-8


# ----------------------------------------------------------------- steps

MHZ = st.floats(min_value=0.5, max_value=20.0)


def lossy_lambda(lam, table, rabi_up_mhz, rabi_down_mhz, delta_one_mhz, delta_two_mhz):
    cfg = driven.raman_config(lam, TWO_PI * 1e6 * rabi_up_mhz, TWO_PI * 1e6 * rabi_down_mhz,
                              TWO_PI * 1e6 * delta_one_mhz, TWO_PI * 1e6 * delta_two_mhz)
    return driven.build_lambda_model(cfg, lam, table, mode="lossy")


def random_state(amplitudes):
    psi = np.array(amplitudes[:4]) + 1j * np.array(amplitudes[4:])
    return DensityMatrix.from_state(psi) if np.linalg.norm(psi) > 1e-3 else DensityMatrix.pure(4, 0)


LAMBDA_MODELS = st.tuples(MHZ, MHZ, st.floats(-20.0, 20.0), st.floats(-2.0, 2.0))
AMPLITUDES = st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)


@settings(max_examples=10, deadline=None)
@given(LAMBDA_MODELS, AMPLITUDES)
def test_propagate_matches_rk_on_lossy_lambda(lam, table, rk45, stepped, params, amplitudes):
    lv = lindblad.liouvillian(lossy_lambda(lam, table, *params))
    vec0 = random_state(amplitudes).matrix.reshape(-1)
    times = np.linspace(0.0, 0.5e-6, 11)
    got = stepped(lv, vec0, times)
    want = rk45(lv, vec0, times, rtol=1e-10, atol=1e-12)
    assert np.abs(got - want).max() < 1e-9


@settings(max_examples=10, deadline=None)
@given(LAMBDA_MODELS, AMPLITUDES, st.integers(min_value=3, max_value=30))
def test_propagate_irregular_grid_equals_per_gap_expm(lam, table, stepped, params, amplitudes, n):
    lv = lindblad.liouvillian(lossy_lambda(lam, table, *params))
    times = np.concatenate([[0.0], np.geomspace(1e-9, 2e-6, n)])
    vec = random_state(amplitudes).matrix.reshape(-1)
    want = [vec]
    for gap in np.diff(times):
        vec = expm(lv * gap) @ vec
        want.append(vec)
    got = stepped(lv, want[0], times)
    assert np.abs(got - np.array(want)).max() < 1e-12


@settings(max_examples=10, deadline=None)
@given(LAMBDA_MODELS, AMPLITUDES)
def test_propagated_states_are_physical(lam, table, stepped, params, amplitudes):
    model = lossy_lambda(lam, table, *params)
    rho0 = random_state(amplitudes)
    times = np.linspace(0.0, 2e-6, 41)
    vecs = stepped(lindblad.liouvillian(model), rho0.matrix.reshape(-1), times)
    for vec in vecs:
        DensityMatrix(vec.reshape(4, 4)).validate()


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=20, max_size=20))
def test_propagate_rate_matrix_conserves_population(stepped, rates):
    m = np.zeros((5, 5))
    m[~np.eye(5, dtype=bool)] = rates
    m -= np.diag(m.sum(axis=0))
    p0 = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    pops = stepped(m, p0, np.linspace(0.0, 1e-2, 51))
    assert pops.dtype == np.float64
    assert np.abs(pops.sum(axis=1) - 1.0).max() < 1e-12
    assert pops.min() > -1e-12


MEMBERS = st.lists(st.tuples(LAMBDA_MODELS, AMPLITUDES), min_size=1, max_size=4)
GRIDS = {
    "uniform": np.linspace(0.0, 2e-6, 41),
    "geomspace": np.concatenate([[0.0], np.geomspace(1e-9, 2e-6, 20)]),
}


def stacked_members(lam, table, members):
    lv = np.stack([lindblad.liouvillian(lossy_lambda(lam, table, *params)) for params, _ in members])
    vec0 = np.stack([random_state(amps).matrix.reshape(-1) for _, amps in members])
    return lv, vec0


@pytest.mark.parametrize("grid", sorted(GRIDS))
@settings(max_examples=10, deadline=None)
@given(MEMBERS)
def test_stacked_propagate_equals_per_member(lam, table, stepped, grid, members):
    lv, vec0 = stacked_members(lam, table, members)
    got = stepped(lv, vec0, GRIDS[grid])
    assert got.shape == (len(GRIDS[grid]), len(members), 16)
    for m in range(len(members)):
        want = stepped(lv[m], vec0[m], GRIDS[grid])
        assert np.abs(got[:, m] - want).max() < 1e-12


@settings(max_examples=10, deadline=None)
@given(MEMBERS)
def test_stacked_states_are_physical(lam, table, stepped, members):
    lv, vec0 = stacked_members(lam, table, members)
    for vecs in stepped(lv, vec0, GRIDS["uniform"]):
        for vec in vecs:
            DensityMatrix(vec.reshape(4, 4)).validate()


# ------------------------------------------------------------------ expm

# a third of the slices generic, the rest through scipy's own branches
EXPM_KINDS = ("generic", "generic", "diagonal", "upper", "lower", "zero")


def contraction(rng, n, is_complex, norm):
    """A skew-Hermitian matrix minus a positive semidefinite one, scaled to
    the 1-norm `norm`, so its exponential neither overflows nor vanishes."""
    def normal():
        x = rng.standard_normal((n, n))
        return x + 1j * rng.standard_normal((n, n)) if is_complex else x
    x, p = normal(), normal()
    a = x - x.conj().T - 0.1 * p @ p.conj().T
    return a * (norm / max(np.abs(a).sum(axis=0).max(), 1e-300))


def expm_slice(rng, n, is_complex, norm, kind):
    a = contraction(rng, n, is_complex, norm)
    return {"generic": a, "diagonal": np.diag(np.diag(a)), "upper": np.triu(a),
            "lower": np.tril(a), "zero": 0 * a}[kind]


def squarings(a):
    """scipy's squaring count s for the 2-D array `a`."""
    work = np.empty((5, *a.shape), dtype=a.dtype)
    work[0] = a
    return pick_pade_structure(work)[1]


@st.composite
def expm_stacks(draw):
    """An (n, n), (M, n, n) or (B, M, n, n) array, n from 1 to 13, real or
    complex, its slices of 1-norms from 1e-4 to 3e7 (s from 0 to 23) and of
    every kind: generic, diagonal, upper and lower triangular and zero."""
    n = draw(st.integers(1, 13))
    batch = draw(st.sampled_from([(), (1,), (4,), (2, 3), (3, 1)]))
    count = math.prod(batch)
    kinds = draw(st.lists(st.sampled_from(EXPM_KINDS), min_size=count, max_size=count))
    norms = draw(st.lists(st.floats(-4.0, 7.5), min_size=count, max_size=count))
    is_complex = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    slices = [expm_slice(rng, n, is_complex, 10.0**e, kind) for e, kind in zip(norms, kinds)]
    return np.array(slices).reshape(*batch, n, n)


def assert_bit_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=300, deadline=None)
@given(expm_stacks())
def test_expm_bit_equal_to_scipy(a):
    assert_bit_equal(lindblad.expm(a), expm(a))


@pytest.mark.parametrize("is_complex", [False, True])
def test_expm_bit_equal_across_squaring_counts(is_complex):
    """One stack whose slices need every squaring count from 0 to 21, in
    shuffled order, with triangular, diagonal and zero slices among them."""
    rng = np.random.default_rng(11)
    norms = 5.0 * 2.0 ** np.arange(-4, 22)
    kinds = ["generic"] * len(norms) + ["upper", "lower", "diagonal", "zero"] * 3
    norms = np.concatenate([norms, np.geomspace(1e-2, 1e7, 12)])
    order = rng.permutation(len(kinds))
    a = np.array([expm_slice(rng, 6, is_complex, norms[k], kinds[k]) for k in order])
    assert set(range(22)) <= {squarings(x) for x in a}
    assert_bit_equal(lindblad.expm(a), expm(a))


def steps_per_gap(generator, vec0, times):
    """Oracle: the per-gap loop that `steps` replaced, one `scipy.linalg.expm`
    per gap that needs a new propagator."""
    times = np.asarray(times, dtype=float)
    vec = np.asarray(vec0)
    yield vec
    step, built_for = None, 0.0
    for gap in np.diff(times):
        if step is None or abs(gap - built_for) > 1e-9 * built_for:
            step, built_for = expm(generator * gap), gap
        vec = (step @ vec[..., None])[..., 0]
        yield vec


STEP_GRIDS = {
    "uniform": np.linspace(0.0, 2e-6, 41),
    "figS3": np.concatenate([[0.0], np.geomspace(10e-6, 10e-3, 25)]),
    "runs": np.concatenate([np.linspace(0.0, 1e-6, 5), np.linspace(1e-6, 4e-6, 7)[1:],
                            np.linspace(4e-6, 5e-6, 4)[1:], [5.5e-6, 6e-6, 6.5e-6]]),
    "near_gap": np.cumsum([0.0, 1e-6, 1e-6, 1e-6 * (1 + 5e-10), 1e-6 * (1 + 2e-9), 1e-6]),
    "single": np.array([0.0]),
}


def step_generators(kind, lam, full_scheme, table, env):
    """(generator, vec0): a 2-D or stacked Liouvillian block, or a stack of
    real rate matrices."""
    if kind == "figS3":
        field = driven.DriveField((full_scheme.up, full_scheme.s), TWO_PI * 36e6, -TWO_PI * 6e9)
        model = driven.build_single_drive_model(field, full_scheme, table, env)
        _, lv, vec0 = lindblad.model_block(model, DensityMatrix.pure(model.dim, model.index("up")).matrix)
        return lv, vec0
    if kind == "stack":
        members = [((5.0, 7.0, -3.0, 0.4), [0.3, 0.5, 0.1, 0.0, 0.2, 0.0, 0.4, 0.1]),
                   ((36.0, 36.0, -6e3, 0.1), [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
                   ((0.5, 20.0, 20.0, -2.0), [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])]
        return stacked_members(lam, table, members)
    rng = np.random.default_rng(3)
    m = rng.uniform(0.0, 1e6, (2, 5, 5))
    m[:, np.eye(5, dtype=bool)] = 0.0
    m[:, range(5), range(5)] = -m.sum(axis=1)
    return m, np.broadcast_to(np.eye(5)[0], (2, 5))


def steps_in_blocks(generator, vec0, times, block):
    """Oracle: the per-gap loop's propagators, with each run of r >= 2 gaps
    that share one stepped in blocks of up to `block` states: the powers P,
    ..., P^min(r, block) by successive products P^k = P^(k-1) @ P, then one
    (b n, n) product of the first b powers with the state before the block;
    a gap whose propagator serves no other gap steps as in the loop."""
    times = np.asarray(times, dtype=float)
    vec = np.asarray(vec0)
    yield vec[..., None, :]
    runs = []  # [first gap, count]
    for gap in np.diff(times):
        if runs and abs(gap - runs[-1][0]) <= 1e-9 * runs[-1][0]:
            runs[-1][1] += 1
        else:
            runs.append([gap, 1])
    n = vec.shape[-1]
    for gap, count in runs:
        step = expm(generator * gap)
        if count == 1:
            vec = (step @ vec[..., None])[..., 0]
            yield vec[..., None, :]
            continue
        powers = [step]
        while len(powers) < min(count, block):
            powers.append(powers[-1] @ step)
        powers = np.stack(powers, axis=-3)
        for at in range(0, count, block):
            b = min(block, count - at)
            stack = powers[..., :b, :, :].reshape(*step.shape[:-2], b * n, n)
            states = (stack @ vec[..., None]).reshape(*vec.shape[:-1], b, n)
            vec = states[..., -1, :]
            yield states


@pytest.mark.parametrize("step_bytes", [None, 1])
@pytest.mark.parametrize("kind", ["figS3", "stack", "rates"])
@pytest.mark.parametrize("grid", sorted(STEP_GRIDS))
def test_steps_bit_equal_to_per_gap_loop(lam, full_scheme, table, env, monkeypatch, stepped,
                                         grid, kind, step_bytes):
    """Every state is bit-equal to the per-gap loop's, with the propagators
    built in one chunk or one per chunk, when every block holds one state:
    always on "figS3" and "single", which have no run of equal gaps, and on
    the other grids with `_STEP_BLOCK` at 1."""
    monkeypatch.setattr(lindblad, "_STEP_BLOCK", 1)
    if step_bytes is not None:
        monkeypatch.setattr(lindblad, "_STEP_BYTES", step_bytes)
    generator, vec0 = step_generators(kind, lam, full_scheme, table, env)
    times = STEP_GRIDS[grid]
    got = stepped(generator, vec0, times)
    want = np.array(list(steps_per_gap(generator, vec0, times)))
    assert got.shape == (len(times), *np.shape(vec0))
    assert_bit_equal(got, want)


@pytest.mark.parametrize("step_bytes", [None, 1])
@pytest.mark.parametrize("kind", ["figS3", "stack", "rates"])
@pytest.mark.parametrize("grid", ["uniform", "runs", "near_gap"])
def test_steps_bit_equal_to_block_oracle(lam, full_scheme, table, env, monkeypatch,
                                         grid, kind, step_bytes):
    """On grids with runs of equal gaps (one run of 40; runs of 4, 6, 3 and 3;
    a run of 3 within the 1e-9 match), every block is bit-equal to
    `steps_in_blocks`' and C-contiguous: of up to 16 states, or of one state
    when a 1-byte budget leaves room for no more than one power."""
    if step_bytes is not None:
        monkeypatch.setattr(lindblad, "_STEP_BYTES", step_bytes)
    block = lindblad._STEP_BLOCK if step_bytes is None else 1
    generator, vec0 = step_generators(kind, lam, full_scheme, table, env)
    times = STEP_GRIDS[grid]
    got = list(lindblad.steps(generator, vec0, times))
    want = list(steps_in_blocks(generator, vec0, times, block))
    assert [g.shape for g in got] == [w.shape for w in want]
    assert max(g.shape[-2] for g in got) == min(block, {"uniform": 40, "runs": 6, "near_gap": 3}[grid])
    for g, w in zip(got, want):
        assert g.flags.c_contiguous
        assert_bit_equal(g, w)


@pytest.mark.parametrize("kind", ["figS3", "stack"])
def test_steps_do_not_depend_on_memory_order(lam, full_scheme, table, env, stepped, kind):
    """A Fortran-ordered copy of the generator gives bit-equal states: a
    matmul rounds by memory layout, so `steps` steps it C-ordered.  Stepped
    in its own order, the copy of figS3's 19 x 19 block generator gives
    states up to 7.8e-16 relative apart on the "figS3" grid."""
    generator, vec0 = step_generators(kind, lam, full_scheme, table, env)
    for times in STEP_GRIDS.values():
        want = stepped(generator, vec0, times)
        got = stepped(np.asfortranarray(generator), np.asfortranarray(vec0), times)
        assert_bit_equal(got, want)


def test_steps_match_a_40_digit_product(fig3_config, table, stepped):
    """fig3d's stack (12 Gauss-Hermite members, 1111 samples on the unit grid
    `run_rabi_ensemble` steps) against the exact powers of each member's
    unit-gap propagator, expm(G) of the float generator G to 40 digits: the
    blocks of powers and the per-gap loop both stay within 1e-13 of every
    entry (measured 3.6e-14 and 2.8e-14, each set by the float propagator)."""
    import mpmath

    spec = sequences.EnsembleSpec(rabi_spread=0.004, samples=12)
    draws, _ = sequences._draws_and_weights(spec)
    model, _ = sequences._member_models(fig3_config, table, draws)
    _, lv, vec0 = lindblad.model_block(model, DensityMatrix.pure(3, 0).matrix)
    generator = lv * np.linspace(0.0, 0.5e-3, 1111)[1]
    times = np.arange(1111, dtype=float)
    blocks = stepped(generator, vec0, times)
    loop = np.array(list(steps_per_gap(generator, vec0, times)))
    exact = np.empty_like(blocks)
    with mpmath.workdps(40):
        for m in range(len(generator)):
            step = mpmath.expm(mpmath.matrix(generator[m].tolist()))
            vec = mpmath.matrix(vec0[m].tolist())
            for k in range(len(times)):
                exact[k, m] = [float(x) for x in vec]
                vec = step * vec
    assert np.abs(blocks - exact).max() < 1e-13
    assert np.abs(loop - exact).max() < 1e-13


def test_steps_holds_a_bounded_set_of_propagators():
    """5000 log-spaced times over a (200, 5, 5) stack: every gap needs its
    own propagator, 400 MB if built at once; chunks keep the working set to
    a few times `_STEP_BYTES` (about 50 gaps' propagators)."""
    rng = np.random.default_rng(8)
    x = rng.standard_normal((200, 5, 5)) + 1j * rng.standard_normal((200, 5, 5))
    generator = 1e6 * (x - x.conj().swapaxes(-1, -2))
    vec0 = np.broadcast_to(np.eye(5)[0], (200, 5))
    times = np.concatenate([[0.0], np.geomspace(1e-9, 1e-3, 4999)])
    tracemalloc.start()
    try:
        # three chunks of propagators
        for _, vec in zip(range(110), lindblad.steps(generator, vec0, times)):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * lindblad._STEP_BYTES


def kron_liouvillian(model):
    """The Liouvillian as built with np.kron, the reference for the broadcast
    build, with each jump (from, to, amplitude) as the dense collapse operator
    amplitude |to><from|."""
    h, eye = model.hamiltonian, np.eye(model.dim)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for frm, to, amp in model.jumps:
        c = np.zeros((model.dim, model.dim), dtype=complex)
        c[to, frm] = amp
        cdc = c.conj().T @ c
        lv += np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    return lv


def test_liouvillian_bit_equal_to_kron_build(lam, full_scheme, table, env, fig3_config):
    field = driven.DriveField((full_scheme.up, full_scheme.s), TWO_PI * 36e6, -TWO_PI * 6e9)
    models = [
        driven.build_effective_qubit_model(fig3_config, table),
        lossy_lambda(lam, table, 5.0, 7.0, -3.0, 0.4),
        driven.build_single_drive_model(field, full_scheme, table, env),
    ]
    assert [m.dim for m in models] == [3, 4, 13]
    for model in models:
        assert np.array_equal(lindblad.liouvillian(model), kron_liouvillian(model))


# ------------------------------------------------------- invariant block

def model_kinds(lam, full_scheme, table, env, fig3_config):
    """One model of each kind `driven` builds, with its block size from the
    pure `up` state."""
    field = driven.DriveField((full_scheme.up, full_scheme.s), TWO_PI * 36e6, -TWO_PI * 6e9)
    full_cfg = driven.raman_config(full_scheme, TWO_PI * 36e6, TWO_PI * 36e6, -TWO_PI * 6e9)
    closed_cfg = driven.raman_config(lam, TWO_PI * 5e6, TWO_PI * 7e6, -TWO_PI * 3e6)
    return {
        "closed": (driven.build_lambda_model(closed_cfg, lam, table, mode="closed"), 9),
        "lossy": (lossy_lambda(lam, table, 5.0, 7.0, -3.0, 0.4), 10),
        "full raman": (driven.build_lambda_model(full_cfg, full_scheme, table, env, mode="full"), 23),
        "single drive": (driven.build_single_drive_model(field, full_scheme, table, env), 19),
        "eliminated": (driven.build_effective_qubit_model(fig3_config, table), 5),
    }


def up_and_coherent_states(model):
    """The pure `up` state, and an up/`last level` superposition that puts a
    coherence across two components wherever they differ."""
    up, last = model.index("up"), model.dim - 1
    psi = np.zeros(model.dim, dtype=complex)
    psi[[up, last]] = 0.6, 0.8j
    return DensityMatrix.pure(model.dim, up).matrix, DensityMatrix.from_state(psi).matrix


def test_block_sizes_of_every_model_kind(lam, full_scheme, table, env, fig3_config):
    """The closed Lambda's block from `up` is its whole space, given as every
    vec position like any other block."""
    for name, (model, size) in model_kinds(lam, full_scheme, table, env, fig3_config).items():
        pure, _ = up_and_coherent_states(model)
        assert len(lindblad.invariant_block(model, pure)) == size, name
    closed, _ = model_kinds(lam, full_scheme, table, env, fig3_config)["closed"]
    assert np.array_equal(lindblad.invariant_block(closed, up_and_coherent_states(closed)[0]),
                          np.arange(9))


def test_generator_maps_block_into_itself(lam, full_scheme, table, env, fig3_config):
    for name, (model, _) in model_kinds(lam, full_scheme, table, env, fig3_config).items():
        lv = lindblad.liouvillian(model)
        for rho0 in up_and_coherent_states(model):
            index = lindblad.invariant_block(model, rho0)
            outside = np.setdiff1d(np.arange(model.dim ** 2), index)
            assert np.count_nonzero(rho0.reshape(-1)[outside]) == 0, name
            assert np.count_nonzero(lv[np.ix_(outside, index)]) == 0, name


def test_block_liouvillian_bit_equal_to_slice(lam, full_scheme, table, env, fig3_config):
    for name, (model, _) in model_kinds(lam, full_scheme, table, env, fig3_config).items():
        lv = lindblad.liouvillian(model)
        for rho0 in up_and_coherent_states(model):
            index = lindblad.invariant_block(model, rho0)
            assert np.array_equal(lindblad.liouvillian(model, index), lv[np.ix_(index, index)]), name


@st.composite
def sparse_models(draw, dim):
    """A model with random couplings on random level pairs and random jumps,
    self-jumps included."""
    value = st.floats(-3.0, 3.0)
    h = np.diag([draw(value) for _ in range(dim)]).astype(complex)
    pairs = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    for i, j in draw(st.lists(pairs, max_size=dim)):
        if i != j:
            h[i, j] = complex(draw(value), draw(value))
            h[j, i] = np.conj(h[i, j])
    jumps = [(frm, to, math.sqrt(draw(st.floats(0.1, 3.0))))
             for to, frm in draw(st.lists(pairs, max_size=4))]
    return driven.RotatingFrameModel(h, jumps, tuple(f"l{k}" for k in range(dim)))


def stack_models(models):
    """One stacked model of models of one dimension: each member's jumps in
    their own slots, with amplitude 0 for every other member."""
    slots = []
    for m, model in enumerate(models):
        for frm, to, amp in model.jumps:
            amps = np.zeros(len(models))
            amps[m] = amp
            slots.append((frm, to, amps))
    return driven.RotatingFrameModel(np.array([m.hamiltonian for m in models]), slots,
                                     models[0].labels)


@st.composite
def stacks_and_states(draw):
    dim = draw(st.integers(2, 5))
    models = draw(st.lists(sparse_models(dim), min_size=1, max_size=3))
    support = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim, unique=True))
    psi = np.zeros(dim, dtype=complex)
    for k in support:
        psi[k] = complex(draw(st.floats(0.1, 1.0)), draw(st.floats(-1.0, 1.0)))
    return models, DensityMatrix.from_state(psi).matrix


@st.composite
def wide_stacks_and_states(draw):
    """Up to six sparse models of one dimension, whose jump lists differ
    (none, self-jumps, repeated jumps) and whose Hamiltonian diagonals may
    carry a -0.0 imaginary part, and a state to block them on."""
    dim = draw(st.integers(2, 5))
    models = draw(st.lists(sparse_models(dim), min_size=1, max_size=6))
    for m, model in enumerate(models):
        h = model.hamiltonian.copy()
        signs = st.lists(st.sampled_from([0.0, -0.0]), min_size=dim, max_size=dim)
        h.imag[np.diag_indices(dim)] = draw(signs)
        models[m] = driven.RotatingFrameModel(h, model.jumps, model.labels)
    psi = np.array([complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
                    for _ in range(dim)])
    if np.linalg.norm(psi) < 1e-3:
        return models, DensityMatrix.pure(dim, 0).matrix
    return models, DensityMatrix.from_state(psi).matrix


@settings(max_examples=200, deadline=None)
@given(wide_stacks_and_states())
def test_stacked_liouvillian_bit_equal_to_member_builds(case):
    models, rho0 = case
    stack = stack_models(models)
    for index in (None, lindblad.invariant_block(stack, rho0)):
        want = np.stack([lindblad.liouvillian(m, index) for m in models])
        got = lindblad.liouvillian(stack, index)
        assert got.shape == want.shape
        # signed zeros included
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(stacks_and_states(), st.sampled_from(sorted(GRIDS)))
def test_block_propagation_equals_full_propagation(stepped, case, grid):
    models, rho0 = case
    times = GRIDS[grid] * 1e6  # the sparse models' rates are of order 1
    stack = stack_models(models)
    index = lindblad.invariant_block(stack, rho0)
    outside = np.setdiff1d(np.arange(rho0.size), index)
    stacked = np.array(list(lindblad.model_steps(stack, rho0, times)))
    for m, model in enumerate(models):
        want = stepped(lindblad.liouvillian(model), rho0.reshape(-1), times)
        alone = np.array(list(lindblad.model_steps(model, rho0, times)))
        assert np.abs(alone - want).max() < 1e-12
        assert np.abs(stacked[:, m] - want).max() < 1e-12
        assert np.count_nonzero(alone[:, outside]) == 0


def test_block_propagation_with_self_jumps_and_cross_coherence(lam, table, fig3_config, stepped):
    """The eliminated model scatters each qubit state back into itself; a
    dark segment (no drive: every level its own component) carries an
    up/down coherence across components."""
    dark = driven.build_lambda_model(driven.raman_config(lam, 0.0, 0.0, 0.0), lam, table)
    psi = np.array([0.6, 0.0, 0.8j, 0.0])
    cases = [
        (driven.build_effective_qubit_model(fig3_config, table), DensityMatrix.pure(3, 0).matrix),
        (dark, DensityMatrix.from_state(psi).matrix),
    ]
    assert any(frm == to == 0 and amp != 0 for frm, to, amp in cases[0][0].jumps)
    for model, rho0 in cases:
        index = lindblad.invariant_block(model, rho0)
        assert len(index) < model.dim ** 2
        times = np.linspace(0.0, 2e-6, 21)
        want = stepped(lindblad.liouvillian(model), rho0.reshape(-1), times)
        got = np.array(list(lindblad.model_steps(model, rho0, times)))
        assert np.abs(got - want).max() < 1e-12


# ------------------------------------------------------------ real basis

def paper_models(lam, full_scheme, table, env, fig3_config):
    """fig2a's, fig3d's and figS3's models, each with the times it is
    stepped over from `up`: five probe detunings of fig2a's 10 mW
    Autler-Townes column as one stack, fig3d's eliminated qubit and figS3's
    single drive on the full scheme."""
    rabi_s, probe = TWO_PI * 19.3e6 * math.sqrt(10.0), TWO_PI * 1e6
    dets = np.linspace(-1.6 * rabi_s, 1.6 * rabi_s, 5)
    fig2a = driven.build_lambda_model(driven.raman_config(lam, probe, rabi_s, dets, dets),
                                      lam, table, mode="lossy")
    field = driven.DriveField((full_scheme.up, full_scheme.s), TWO_PI * 36e6, -TWO_PI * 6e9)
    return {
        "fig2a": (fig2a, np.linspace(0.0, table.gamma_s / probe**2, 5)),
        "fig3d": (driven.build_effective_qubit_model(fig3_config, table),
                  np.linspace(0.0, 0.5e-3, 11)),
        "figS3": (driven.build_single_drive_model(field, full_scheme, table, env),
                  STEP_GRIDS["figS3"]),
    }


def swapped(dim):
    """The vec position of (b, a) for each position of (a, b)."""
    a, b = np.divmod(np.arange(dim * dim), dim)
    return b * dim + a


def test_liouvillian_is_conjugate_symmetric_under_the_pair_swap(lam, full_scheme, table, env,
                                                                fig3_config):
    """L maps (b, a) as it maps (a, b), conjugated, value for value (the
    sign of a zero aside), so the generator in the real basis, read off one
    pair of each, loses nothing."""
    for name, (model, _) in paper_models(lam, full_scheme, table, env, fig3_config).items():
        lv, swap = lindblad.liouvillian(model), swapped(model.dim)
        assert np.array_equal(lv[..., swap, :][..., swap], lv.conj()), name


def test_block_generator_is_the_real_basis_transform(lam, full_scheme, table, env, fig3_config):
    """The block generator is T^-1 L T, with T's columns the unit vector of a
    population, e_ab + e_ba for Re rho_ab and i (e_ab - e_ba) for Im rho_ab;
    the matmuls round, so they agree to a few ulps of L's largest entry."""
    for name, (model, _) in paper_models(lam, full_scheme, table, env, fig3_config).items():
        rho0 = DensityMatrix.pure(model.dim, model.index("up")).matrix
        index, generator, vec0 = lindblad.model_block(model, rho0)
        assert generator.dtype == vec0.dtype == np.float64, name
        t = lindblad.complex_entries(np.eye(len(index)), index, model.dim).T
        a, b = np.divmod(index, model.dim)
        t_inv = t.conj().T / np.where(a == b, 1.0, 2.0)[:, None]
        assert np.array_equal(t_inv @ t, np.eye(len(index))), name
        lv = lindblad.liouvillian(model, index)
        want = t_inv @ lv @ t
        scale = np.abs(lv).max()
        assert np.abs(want.imag).max() <= 4 * np.finfo(float).eps * scale, name
        assert np.abs(generator - want.real).max() <= 4 * np.finfo(float).eps * scale, name
        assert np.array_equal(lindblad.complex_entries(vec0, index, model.dim),
                              np.broadcast_to(rho0.reshape(-1)[index], vec0.shape)), name


# rtol against the whole generator's exponential, which at figS3's 10 ms
# carries about 1.5e-9 of rounding of its own
ORACLE_RTOL = {"fig2a": 1e-12, "fig3d": 1e-10, "figS3": 1e-8}


def test_model_steps_match_expm_of_the_whole_liouvillian(lam, full_scheme, table, env,
                                                        fig3_config):
    """Oracle: scipy's expm of the whole d^2 x d^2 complex Liouvillian times
    each time, applied to `up`, member by member."""
    for name, (model, times) in paper_models(lam, full_scheme, table, env, fig3_config).items():
        rho0 = DensityMatrix.pure(model.dim, model.index("up")).matrix
        got = np.array(list(lindblad.model_steps(model, rho0, times)))
        lv = lindblad.liouvillian(model)
        want = np.array([expm(lv * t) @ rho0.reshape(-1) for t in times])
        assert got.shape == want.shape, name
        assert np.abs(got - want).max() <= ORACLE_RTOL[name] * np.abs(want).max(), name


def test_propagated_states_are_exactly_hermitian(lam, full_scheme, table, env, fig3_config):
    cases = [(model, DensityMatrix.pure(model.dim, model.index("up")).matrix, times)
             for model, times in paper_models(lam, full_scheme, table, env, fig3_config).values()]
    lossy = lossy_lambda(lam, table, 5.0, 7.0, -3.0, 0.4)
    cases.append((lossy, random_state([0.3, 0.5, 0.1, 0.2, 0.2, -0.1, 0.4, 0.1]).matrix,
                  GRIDS["uniform"]))
    for model, rho0, times in cases:
        for vec in lindblad.model_steps(model, rho0, times):
            for member in vec.reshape(-1, model.dim, model.dim):
                assert DensityMatrix(member).hermiticity_defect() == 0.0


def test_model_block_rejects_a_non_hermitian_state(fig3_config, table):
    model = driven.build_effective_qubit_model(fig3_config, table)
    rho0 = DensityMatrix.pure(3, 0).matrix.copy()
    rho0[0, 1] = 0.1
    with pytest.raises(lindblad.StateError, match="not Hermitian"):
        lindblad.model_block(model, rho0)


def test_steady_state_two_level_formula(two_level_model):
    rabi, det, gamma = TWO_PI * 2e6, TWO_PI * 1e6, TWO_PI * 1.5e6
    model = two_level_model(rabi, detuning=det, gamma=gamma)
    rho = steady_state(model)
    # independent closed-form solution of the driven-damped two-level system
    expected = (rabi**2 / 4.0) / (det**2 + rabi**2 / 2.0 + gamma**2 / 4.0)
    assert rho.population(1) == pytest.approx(expected, rel=1e-9)


def test_steady_state_no_drive_is_ground(two_level_model):
    model = two_level_model(0.0, gamma=1e6)
    rho = steady_state(model)
    assert rho.population(0) == pytest.approx(1.0, abs=1e-12)


def test_steady_state_dark_state(lam, table):
    cfg = driven.raman_config(lam, TWO_PI * 50e3, TWO_PI * 80e3, 0.0, 0.0)
    model = driven.build_lambda_model(cfg, lam, table, mode="closed")
    rho = steady_state(model)
    assert rho.population(model.index("s")) < 1e-10


def test_steady_state_degenerate_rejected():
    # no coupling at all: every diagonal state is stationary
    model = driven.RotatingFrameModel(np.zeros((2, 2)), (), ("a", "b"))
    with pytest.raises(lindblad.DegenerateSteadyStateError):
        steady_state(model)


def test_stacked_steady_state_bit_equal_to_member_solves(lam, table):
    cfg = driven.raman_config(lam, TWO_PI * 50e3, TWO_PI * 80e3, 0.0,
                              np.linspace(-TWO_PI * 3e3, TWO_PI * 3e3, 31))
    stack = driven.build_lambda_model(cfg, lam, table, mode="closed")
    got = steady_state(stack)
    assert got.matrix.shape == (31, 3, 3)
    assert got.dim == 3
    for m, delta in enumerate(cfg.delta_two):
        member = driven.raman_config(lam, TWO_PI * 50e3, TWO_PI * 80e3, 0.0, delta)
        want = steady_state(driven.build_lambda_model(member, lam, table, mode="closed"))
        assert np.array_equal(got.matrix[m].view(np.int64), want.matrix.view(np.int64))
        assert np.array_equal(got.populations()[m], want.populations())


def test_stacked_steady_state_names_a_degenerate_member(two_level_model):
    damped = two_level_model(TWO_PI * 2e6, gamma=TWO_PI * 1e6)
    undriven = driven.RotatingFrameModel(np.zeros((2, 2)), (), damped.labels)
    with pytest.raises(lindblad.DegenerateSteadyStateError, match="^member 1: .*degenerate"):
        steady_state(stack_models([damped, undriven, damped]))


def test_steady_state_matches_long_time_evolution(trace_distance, model_states, two_level_model):
    rabi, gamma = TWO_PI * 2e6, TWO_PI * 1e6
    model = two_level_model(rabi, detuning=TWO_PI * 0.3e6, gamma=gamma)
    rho_ss = steady_state(model)
    horizon = 50.0 / min(gamma, rabi)
    states = model_states(model, DensityMatrix.pure(2, 0).matrix, np.linspace(0.0, horizon, 3))
    assert trace_distance(DensityMatrix(states[-1]), rho_ss) < 1e-6


def test_density_matrix_validation():
    good = DensityMatrix.pure(2, 0)
    good.validate()
    bad = DensityMatrix(np.array([[0.5, 0.0], [0.0, 0.6]], dtype=complex))
    with pytest.raises(lindblad.StateError):
        bad.validate()
    # one defect each, with the message that names it
    for matrix, message in (
        ([[1.0, 0.1, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], "not Hermitian"),
        (np.diag([0.5, 0.6, 0.0]), "trace differs from 1"),
        (np.diag([1.2, -0.2, 0.0]), "negative eigenvalue"),
    ):
        with pytest.raises(lindblad.StateError, match=message):
            DensityMatrix(np.array(matrix)).validate()

