"""Master-equation evolution, steady states, and parameter scans.

The master equation is integrated on the vectorized density matrix.  A
constant generator is stepped by `steps` (collected by `propagate`), the one
place the program steps a state through time with a matrix exponential: the
propagator over one grid step is computed once and applied repeatedly, which
is exact up to roundoff and untroubled by GHz-scale rotating-frame
diagonals.  A stack of generators steps every ensemble member at once.
Time-dependent detuning schedules (frequency ramps) fall back to an
adaptive embedded Runge-Kutta integrator on the same vectorized equation.
Trace is never renormalized; its drift is a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .driven import RotatingFrameModel


class IntegrationError(Exception):
    pass


class DegenerateSteadyStateError(Exception):
    """The Liouvillian null space is not one-dimensional; add a small
    dephasing to break the degeneracy."""


@dataclass(frozen=True)
class DensityMatrix:
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def pure(cls, dim: int, index: int) -> "DensityMatrix":
        m = np.zeros((dim, dim), dtype=complex)
        m[index, index] = 1.0
        return cls(m)

    @classmethod
    def from_state(cls, psi: Sequence[complex]) -> "DensityMatrix":
        v = np.asarray(psi, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def population(self, index: int) -> float:
        return float(self.matrix[index, index].real)

    def populations(self) -> np.ndarray:
        return np.diag(self.matrix).real.copy()

    def hermiticity_defect(self) -> float:
        return float(np.linalg.norm(self.matrix - self.matrix.conj().T))

    def min_eigenvalue(self) -> float:
        h = 0.5 * (self.matrix + self.matrix.conj().T)
        return float(np.linalg.eigvalsh(h)[0])

    def validate(self, tol: float = 1e-9) -> None:
        if self.hermiticity_defect() > tol:
            raise IntegrationError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(self.matrix).real - 1.0) > tol:
            raise IntegrationError("density matrix trace differs from 1")
        if self.min_eigenvalue() < -tol:
            raise IntegrationError("density matrix has a negative eigenvalue")


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) trace norm of the difference."""
    diff = a.matrix - b.matrix
    diff = 0.5 * (diff + diff.conj().T)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled populations, optionally with the full states."""

    times: np.ndarray
    populations: dict[str, np.ndarray]
    states: tuple[DensityMatrix, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        pops = {}
        for k, v in self.populations.items():
            v = np.asarray(v, dtype=float)
            v.setflags(write=False)
            pops[k] = v
        object.__setattr__(self, "populations", pops)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    def column(self, label: str) -> np.ndarray:
        return self.populations[label]


def liouvillian(model: RotatingFrameModel) -> np.ndarray:
    """Vectorized generator L with drho_vec/dt = L rho_vec (row-major vec)."""
    h = model.hamiltonian
    eye = np.eye(model.dim)
    lv = -1j * (_kron(h, eye) - _kron(eye, h.T))
    for c in model.collapse_ops:
        cd = c.conj().T
        cdc = cd @ c
        lv += _kron(c, c.conj()) - 0.5 * (_kron(cdc, eye) + _kron(eye, cdc.T))
    return lv


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices by broadcasting: the same single products, so
    bit-equal, without np.kron's per-call overhead."""
    (p, q), (r, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)


@dataclass(frozen=True)
class DetuningRamp:
    """Linear sweep added to one diagonal Hamiltonian entry.

    The swept entry is -detuning(t) with detuning running linearly from
    `start` to `stop` over the segment duration.
    """

    level: int
    start: float  # rad/s
    stop: float   # rad/s


def evolve(
    model: RotatingFrameModel,
    rho0: DensityMatrix,
    duration: float,
    n_samples: int = 201,
    engine: str = "auto",
    rtol: float = 1e-9,
    atol: float = 1e-12,
    store_states: bool = False,
    ramp: DetuningRamp | None = None,
) -> Trajectory:
    """Integrate the master equation and sample populations on a uniform grid.

    engine "expm" propagates with the exact one-step matrix exponential
    (constant generator only); "rk" uses adaptive RK45 on the vectorized
    equation; "auto" picks expm unless a ramp is present.
    """
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    if model.dim != rho0.dim:
        raise ValueError("model and state dimension mismatch")
    if engine == "auto":
        engine = "rk" if ramp is not None else "expm"
    if engine == "expm" and ramp is not None:
        raise IntegrationError("the expm engine cannot integrate a detuning ramp")
    times = np.linspace(0.0, duration, n_samples)
    if engine == "expm":
        vecs = propagate(liouvillian(model), rho0.matrix.reshape(-1), times)
    elif engine == "rk":
        vecs = _integrate_rk(model, rho0.matrix, times, rtol, atol, ramp)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    states = vecs.reshape(len(times), model.dim, model.dim)
    pops = {label: states[:, i, i].real.copy() for i, label in enumerate(model.labels)}
    stored = tuple(DensityMatrix(st) for st in states) if store_states else None
    return Trajectory(times=times, populations=pops, states=stored)


def propagate(generator: np.ndarray, vec0: np.ndarray, times) -> np.ndarray:
    """States of dv/dt = generator @ v at every time, shape (len(times), *vec0.shape).

    `vec0` is the state at `times[0]`.  The generator may stack independent
    members, shape (..., n, n) with `vec0` of shape (..., n); see `steps`.
    A real generator and a real state (a rate matrix and populations) give
    real states.
    """
    vec0 = np.asarray(vec0)
    out = np.empty((len(times), *vec0.shape), dtype=np.result_type(generator, vec0))
    for k, vec in enumerate(steps(generator, vec0, times)):
        out[k] = vec
    return out


def steps(generator: np.ndarray, vec0: np.ndarray, times):
    """Yield the state of dv/dt = generator @ v at every time, `vec0` first.

    Each gap between consecutive times is stepped with expm(generator * gap);
    the propagator is reused while the next gap matches the one it was built
    for within a relative 1e-9, so a uniform grid costs one matrix
    exponential.  A stacked generator (..., n, n) steps states (..., n) of
    every member at once: one batched expm per distinct gap and one matmul
    per time, each member bit-equal to stepping it alone.  Yielding instead
    of collecting lets a caller reduce the members per time without ever
    holding the (members, times, n) stack.
    """
    times = np.asarray(times, dtype=float)
    vec = np.asarray(vec0)
    yield vec
    step, built_for = None, 0.0
    for gap in np.diff(times):
        if step is None or abs(gap - built_for) > 1e-9 * built_for:
            step, built_for = expm(generator * gap), gap
        vec = (step @ vec[..., None])[..., 0]
        yield vec


def _integrate_rk(model, rho0, times, rtol, atol, ramp) -> np.ndarray:
    n = model.dim
    lv = liouvillian(model)
    duration = times[-1]
    if ramp is not None:
        proj = np.zeros((n, n))
        proj[ramp.level, ramp.level] = 1.0
        eye = np.eye(n)
        lv_ramp = -1j * (_kron(proj, eye) - _kron(eye, proj))
        slope = (ramp.stop - ramp.start) / duration

        def rhs(t, y):
            det = ramp.start + slope * t
            return lv @ y + (-det) * (lv_ramp @ y)
    else:

        def rhs(t, y):
            return lv @ y

    sol = solve_ivp(
        rhs,
        (0.0, duration),
        rho0.reshape(-1).astype(complex),
        t_eval=times,
        method="RK45",
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        rates = [np.abs(c).max() ** 2 for c in model.collapse_ops]
        scales = [r for r in rates if r > 0]
        scales += [abs(x) for x in np.diag(model.hamiltonian).real if x != 0]
        ratio = max(scales) / min(scales) if len(scales) > 1 else 1.0
        raise IntegrationError(
            f"integrator failed ({sol.message}); stiffest rate ratio in the model is {ratio:.3g}"
        )
    return sol.y.T


def steady_state(model: RotatingFrameModel) -> DensityMatrix:
    """Null-space steady state of the vectorized Liouvillian.

    Raises DegenerateSteadyStateError when the null space is not unique at
    numerical resolution.
    """
    lv = liouvillian(model)
    _, svals, vh = np.linalg.svd(lv)
    smax = svals[0] if svals[0] > 0 else 1.0
    tiny = max(1e-12 * smax, np.finfo(float).eps * smax * lv.shape[0])
    if svals[-2] < tiny:
        raise DegenerateSteadyStateError(
            "Liouvillian null space is degenerate; add a small dephasing"
        )
    rho = vh[-1].conj().reshape(model.dim, model.dim)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < 1e-14:
        raise DegenerateSteadyStateError("null vector is traceless; no physical steady state")
    rho = rho / tr
    return DensityMatrix(rho)


def scan(
    model_factory: Callable[[float], RotatingFrameModel],
    grid: Iterable[float],
    observable: str,
    protocol: str = "steady",
    evolve_time: float | None = None,
    rho0: DensityMatrix | None = None,
) -> np.ndarray:
    """Evaluate one named population over a parameter grid.

    protocol "steady" reads the steady state; "evolve" propagates `rho0`
    for `evolve_time` and reads the final sample.  Points are independent,
    so evaluation order cannot affect the result.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("scan grid must not be empty")
    if protocol not in ("steady", "evolve"):
        raise ValueError(f"unknown scan protocol {protocol!r}")
    if protocol == "evolve" and (evolve_time is None or rho0 is None):
        raise ValueError("evolve protocol needs evolve_time and rho0")

    def one(value: float) -> float:
        try:
            model = model_factory(value)
            idx = model.index(observable)
            if protocol == "steady":
                return steady_state(model).population(idx)
            traj = evolve(model, rho0, evolve_time, n_samples=2)
            return float(traj.populations[observable][-1])
        except Exception as exc:
            raise IntegrationError(f"scan point {value!r} failed: {exc}") from exc

    return np.array([one(value) for value in grid])
