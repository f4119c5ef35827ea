import numpy as np
import pytest

from fsqubit import atom, driven, lindblad
from fsqubit.units import TWO_PI


def from_state(psi) -> lindblad.DensityMatrix:
    """The pure state |psi><psi| of the state vector `psi`, normalised."""
    v = np.asarray(psi, dtype=complex)
    v = v / np.linalg.norm(v)
    return lindblad.DensityMatrix(np.outer(v, v.conj()))


@pytest.fixture(scope="session")
def full_scheme():
    return atom.sr88_scheme()


@pytest.fixture(scope="session")
def lam():
    return atom.lambda_scheme()


@pytest.fixture(scope="session")
def two_level(full_scheme):
    """Ground state plus up, the 671-nm state-preparation transition: the
    1S0 and (3P2, 0) sublevels of the full scheme."""
    return atom.LevelScheme((full_scheme.levels[full_scheme.index("1S0")],
                             full_scheme.levels[full_scheme.up]))


@pytest.fixture(scope="session")
def table():
    return atom.default_decay_table()


@pytest.fixture(scope="session")
def no_decay():
    return atom.DecayTable(gamma_s=0.0, channels=())


@pytest.fixture(scope="session")
def env():
    return atom.MagneticEnvironment(b_gauss=20.0)


@pytest.fixture(scope="session")
def fig3_config(lam):
    """The balanced far-detuned working point used throughout."""
    return driven.raman_config(lam, TWO_PI * 36e6, TWO_PI * 36e6, -TWO_PI * 6e9)


@pytest.fixture(autouse=True)
def _quiet_regime_warnings():
    import warnings

    from fsqubit.formulas import RegimeWarning

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        yield


@pytest.fixture(scope="session")
def rk45():
    """Oracle: the states of dv/dt = L v at every time, (len(times), n), by
    scipy's adaptive RK45.  `generator` is L, or a function of t giving L(t)."""
    from scipy.integrate import solve_ivp

    def integrate(generator, vec0, times, rtol, atol):
        at = generator if callable(generator) else (lambda t: generator)
        sol = solve_ivp(lambda t, v: at(t) @ v, (times[0], times[-1]),
                        np.asarray(vec0, dtype=complex), t_eval=times, method="RK45",
                        rtol=rtol, atol=atol)
        assert sol.success, sol.message
        return sol.y.T

    return integrate


@pytest.fixture(scope="session")
def stepped():
    """Every state `lindblad.steps` yields, (len(times), *vec0.shape): its
    blocks (..., b, n) joined along their time axis, which then leads."""
    def states(generator, vec0, times):
        blocks = list(lindblad.steps(generator, vec0, times))
        return np.moveaxis(np.concatenate(blocks, axis=-2), -2, 0)

    return states


@pytest.fixture(scope="session")
def model_states():
    """The density matrices (len(times), d, d) of a model started in the
    matrix `rho0` at `times[0]`, stepped by `lindblad.model_steps`."""
    def states(model, rho0, times):
        vecs = np.array(list(lindblad.model_steps(model, rho0, times)))
        return vecs.reshape(len(times), model.dim, model.dim)

    return states


@pytest.fixture(scope="session")
def lz_rabi_for_fidelity():
    """Oracle: the Rabi frequency at which the closed-form sweep probability,
    `formulas.lz_probability`, is `fidelity` at the sweep rate `ramp`."""
    return lambda fidelity, ramp: np.sqrt(-2.0 * ramp * np.log(1.0 - fidelity) / np.pi)


@pytest.fixture(scope="session")
def trace_distance():
    """Oracle: the trace distance (1/2) ||a - b||_1 of two density matrices."""
    def distance(a, b):
        diff = a.matrix - b.matrix
        diff = 0.5 * (diff + diff.conj().T)
        return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())

    return distance


@pytest.fixture(scope="session")
def differential_stark():
    """Oracle: the signed differential light shift of a Raman pair,
    (Omega_up^2 - Omega_down^2) / (4 Delta)."""
    return lambda rabi_up, rabi_down, detuning: (rabi_up**2 - rabi_down**2) / (4.0 * detuning)


@pytest.fixture(scope="session")
def generalized_rabi():
    """Oracle: the oscillation frequency sqrt(rabi^2 + detuning_eff^2) of a
    detuned drive."""
    return lambda rabi, detuning_eff: float(np.hypot(rabi, detuning_eff))
