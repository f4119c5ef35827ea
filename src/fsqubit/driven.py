"""Rotating-frame Hamiltonians and decay jumps for Raman drives.

Builders return immutable RotatingFrameModel instances.  The Hamiltonian is
assembled from one entry per coupled pair, mirrored as its conjugate, so
Hermiticity holds exactly.  Every drive coupling is written as
H[lower, upper] = (rabi / 2) e^{i phase}, with lower and upper the field's
endpoints ordered by energy, whatever their order in the basis.  Each decay
channel is one jump (from, to, amplitude), the collapse operator
amplitude |to><from| of rate amplitude**2, which keeps branching auditable.

Every builder broadcasts over array-valued drive parameters (the rabi,
detuning and phase of each field): arrays of shape (M,) give a stack, one
model with a leading member axis, built in one numpy pass and bit-equal
member by member to the scalar builds; scalars run the same code without a
member axis.

`pi_lines` alone decides which Zeeman lines a pi-polarized field drives and
how strongly.  `build_single_drive_model` sets them on the Zeeman-shifted
diagonal of the field's two manifolds, with 0 on every level the field does
not address; the full Raman model and `rates.pump_rates` read that model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import formulas
from .atom import (
    DecayTable,
    LevelScheme,
    MagneticEnvironment,
    Sublevel,
    clebsch_gordan,
    decay_rates,
    zeeman_shift,
)


# least |Delta| / max(Rabi frequencies, linewidth) at which the eliminated model applies
ELIMINATION_FACTOR = 100.0

# the eliminated qubit model's levels, in basis order
QUBIT_BASIS = ("up", "down", "lost")


class ModelError(Exception):
    """Drive configuration incompatible with the level scheme."""


@dataclass(frozen=True)
class DriveField:
    """One laser field coupling a pair of scheme sublevels (pi polarized).

    `rabi`, `detuning` and `phase` are floats, or arrays over a stack's
    member axis that broadcast together."""

    transition: tuple[int, int]  # (lower index, upper index) within a scheme
    rabi: float                  # rad/s, >= 0
    detuning: float              # rad/s
    phase: float = 0.0           # rad

    def __post_init__(self):
        if np.count_nonzero(self.rabi < 0):
            raise ModelError("Rabi frequency must be >= 0")
        if self.transition[0] == self.transition[1]:
            raise ModelError("transition endpoints must be distinct")


@dataclass(frozen=True)
class RamanConfig:
    """Up (3P2-3S1) and down (3S1-3P0) field pair of one Lambda drive."""

    up: DriveField
    down: DriveField

    @property
    def delta_one(self) -> float:
        """One-photon detuning Delta (the up laser's)."""
        return self.up.detuning

    @property
    def delta_two(self) -> float:
        """Two-photon detuning delta = Delta_up - Delta_down."""
        return self.up.detuning - self.down.detuning


def raman_config(
    scheme: LevelScheme,
    rabi_up: float,
    rabi_down: float,
    delta_one: float,
    delta_two: float = 0.0,
) -> RamanConfig:
    """Convenience constructor wiring the fields onto the scheme's Lambda triple."""
    up = DriveField((scheme.up, scheme.s), rabi_up, delta_one)
    down = DriveField((scheme.down, scheme.s), rabi_down, delta_one - delta_two)
    return RamanConfig(up=up, down=down)


@dataclass(frozen=True)
class RotatingFrameModel:
    """Hermitian rotating-frame Hamiltonian plus decay jumps.

    A jump (from, to, amplitude) is the collapse operator amplitude |to><from|
    of rate amplitude**2: one pair of levels by construction, which the
    invariant-block reduction in `lindblad` relies on.  An amplitude of 0
    means no such jump.

    A stack of models is one model with a leading member axis: `hamiltonian`
    is (M, d, d), and each jump's amplitude is a float that every member
    shares or an (M,) array, 0 for a member without that jump.
    """

    hamiltonian: np.ndarray
    jumps: tuple[tuple[int, int, float], ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        h.setflags(write=False)
        object.__setattr__(self, "hamiltonian", h)
        if not np.array_equal(h, h.conj().swapaxes(-1, -2)):
            raise ModelError("Hamiltonian must be Hermitian")
        d = h.shape[-1]
        jumps = []
        for frm, to, amp in self.jumps:
            if not (0 <= frm < d and 0 <= to < d):
                raise ModelError(f"jump ({frm}, {to}) has an endpoint outside the model's {d} levels")
            if np.ndim(amp):
                if np.shape(amp) != h.shape[:-2] or h.ndim != 3:
                    raise ModelError(f"jump ({frm}, {to}) has amplitudes of shape {np.shape(amp)} "
                                     f"for Hamiltonians of shape {h.shape}")
                amp = np.array(amp, dtype=float)
                amp.setflags(write=False)
            jumps.append((frm, to, amp))
        object.__setattr__(self, "jumps", tuple(jumps))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[-1]

    def index(self, label: str) -> int:
        return self.labels.index(label)


def _hermitian(dim: int, entries: dict[tuple[int, int], complex]) -> np.ndarray:
    """Build a Hermitian matrix from diagonal entries plus one entry (i, j) per
    coupled pair, mirrored as its conjugate into (j, i).  Array-valued
    entries broadcast together into a stack (M, dim, dim)."""
    shape = np.broadcast(*entries.values()).shape
    h = np.zeros((*shape, dim, dim), dtype=complex)
    for (i, j), v in entries.items():
        if i == j:
            h[..., i, i] = np.real(v)
        else:
            h[..., i, j] = v
            h[..., j, i] = np.conj(v)
    return h


def build_lambda_model(
    config: RamanConfig,
    scheme: LevelScheme,
    table: DecayTable,
    env: MagneticEnvironment | None = None,
    mode: str = "lossy",
) -> RotatingFrameModel:
    """Rotating-frame model of the driven Lambda system.

    mode "closed": 3x3 on (up, s, down); decay branching renormalized into
    the Lambda so the model is trace-preserving on its own (CPT spectra,
    steady states).  mode "lossy": a fourth `lost` state collects decay out
    of the Lambda.  mode "full": all 13 sublevels with their Zeeman and
    detuning diagonal entries (requires `env`).  Every mode broadcasts over
    array-valued drive parameters into a stack; the jumps depend on the
    table alone, so every member shares them.
    """
    for name, fld, lower in (("up", config.up, "3P2"), ("down", config.down, "3P0")):
        if sorted(fld.transition) != sorted((scheme.index(lower, 0), scheme.s)):
            raise ModelError(f"{name} field must drive ({lower},0)-(3S1,0)")

    if mode == "full":
        return _full_model(config, scheme, table, env)
    if mode not in ("closed", "lossy"):
        raise ModelError(f"unknown lambda-model mode {mode!r}")

    # basis (up, s, down) with diagonal (0, -Delta, -delta)
    entries: dict[tuple[int, int], complex] = {
        (1, 1): -config.delta_one,
        (2, 2): -config.delta_two,
        (0, 1): (config.up.rabi / 2.0) * np.exp(1j * config.up.phase),
        (2, 1): (config.down.rabi / 2.0) * np.exp(1j * config.down.phase),
    }
    branch = table.branching(("3S1", 0))
    b_up = branch.get(("3P2", 0), 0.0)
    b_down = branch.get(("3P0", 0), 0.0)
    if mode == "closed":
        norm = b_up + b_down
        if norm == 0.0:
            raise ModelError("the closed model needs a (3S1,0) decay branch into "
                             "(3P2,0) or (3P0,0); the table has neither")
        jumps = (
            (1, 0, math.sqrt(table.gamma_s * b_up / norm)),
            (1, 2, math.sqrt(table.gamma_s * b_down / norm)),
        )
        return RotatingFrameModel(_hermitian(3, entries), jumps, ("up", "s", "down"))
    b_lost = sum(branch.values()) - b_up - b_down
    jumps = tuple(
        (1, to, math.sqrt(table.gamma_s * b))
        for to, b in ((0, b_up), (2, b_down), (3, b_lost))
        if b > 0.0
    )
    return RotatingFrameModel(_hermitian(4, entries), jumps, ("up", "s", "down", "lost"))


def _pi_coupling_ratio(j_low: int, j_high: int, m: int) -> float:
    """Relative pi-transition amplitude (m -> m) against the m = 0 line."""
    ref = clebsch_gordan(j_low, 0, 1, 0, j_high, 0)
    return clebsch_gordan(j_low, m, 1, 0, j_high, m) / ref


# manifold pairs a pi-polarized field may drive: the dipole lines into 3S1,
# plus the (1S0, 3P2) quadrupole line used for state preparation
_DRIVEN_PAIRS = ({"3P2", "3S1"}, {"3P0", "3S1"}, {"3P1", "3S1"}, {"1S0", "3P2"})


def pi_lines(
    field_: DriveField, scheme: LevelScheme
) -> tuple[Sublevel, Sublevel, list[tuple[int, int, float]]]:
    """The Zeeman lines a pi-polarized field drives: (lower, upper, lines).

    lower and upper are the field's endpoints ordered by energy.  Each line
    m -> m that the scheme holds in both manifolds is (lower index, upper
    index, amplitude ratio against the m = 0 line).  A J -> J field is
    rejected: its m = 0 reference line vanishes."""
    lo, hi = field_.transition
    if not (0 <= lo < scheme.n and 0 <= hi < scheme.n):
        raise ModelError("field transition indices out of range for scheme")
    a, b = scheme.levels[lo], scheme.levels[hi]
    name = f"({a.manifold},{a.m_j})-({b.manifold},{b.m_j})"
    if a.m_j != b.m_j or {a.manifold, b.manifold} not in _DRIVEN_PAIRS:
        raise ModelError(f"drive on {name} is not an allowed transition")
    if a.j == b.j:
        raise ModelError(f"drive on {name} is J -> J, whose m = 0 reference line vanishes")
    low, high = (b, a) if a.energy > b.energy else (a, b)
    lines = []
    for m in range(-min(low.j, high.j), min(low.j, high.j) + 1):
        if scheme.has(low.manifold, m) and scheme.has(high.manifold, m):
            ratio = 1.0 if m == 0 else _pi_coupling_ratio(low.j, high.j, m)
            lines.append((scheme.index(low.manifold, m), scheme.index(high.manifold, m), ratio))
    return low, high, lines


def _full_model(
    config: RamanConfig,
    scheme: LevelScheme,
    table: DecayTable,
    env: MagneticEnvironment | None,
) -> RotatingFrameModel:
    """The up field's single-drive model plus the down coupling and -delta on
    3P0; a stacked down field broadcasts the up model over its members."""
    if env is None:
        raise ModelError("the full model needs a MagneticEnvironment")
    if scheme.n != 13:
        raise ModelError("full mode expects the 13-sublevel scheme")
    up = build_single_drive_model(config.up, scheme, table, env)
    coupling = config.down.rabi / 2.0 * np.exp(1j * config.down.phase)
    shape = np.broadcast(up.hamiltonian[..., 0, 0], config.delta_two, coupling).shape
    h = np.broadcast_to(up.hamiltonian, (*shape, scheme.n, scheme.n)).copy()
    h[..., scheme.down, scheme.down] = -config.delta_two
    h[..., scheme.down, scheme.s] = coupling
    h[..., scheme.s, scheme.down] = np.conj(coupling)
    return RotatingFrameModel(h, up.jumps, up.labels)


def build_single_drive_model(
    field_: DriveField,
    scheme: LevelScheme,
    table: DecayTable | None,
    env: MagneticEnvironment,
) -> RotatingFrameModel:
    """Model with one laser on: the scattering-decay and state-prep settings.

    On the full scheme the pi-polarized field addresses every Zeeman line of
    its manifold pair with Clebsch-Gordan-scaled amplitude and the
    Zeeman-shifted detuning; its jumps are the table's channels in the
    order of `atom.decay_rates`.  On a scheme without decay sources (e.g.
    the 1S0-3P2 pair) this reduces to a bare two-level model for sweep
    simulations.  Array-valued drive parameters give a stack.
    """
    low_lvl, high_lvl, lines = pi_lines(field_, scheme)
    n = scheme.n
    entries: dict[tuple[int, int], complex] = {}
    z_ref_low = zeeman_shift(low_lvl, env)
    z_ref_high = zeeman_shift(high_lvl, env)
    # levels the field does not address keep 0 on the diagonal
    for i, lvl in enumerate(scheme.levels):
        if lvl.manifold == high_lvl.manifold:
            entries[(i, i)] = -field_.detuning + zeeman_shift(lvl, env) - z_ref_high
        elif lvl.manifold == low_lvl.manifold:
            entries[(i, i)] = zeeman_shift(lvl, env) - z_ref_low
    for a, b, ratio in lines:
        entries[(a, b)] = field_.rabi * ratio / 2.0 * np.exp(1j * field_.phase)
    rates = decay_rates(scheme, table) if table is not None else []
    jumps = tuple((i, j, math.sqrt(rate)) for i, j, rate in rates)
    labels = tuple(scheme.label(i) for i in range(n))
    return RotatingFrameModel(_hermitian(n, entries), jumps, labels)


def build_effective_qubit_model(
    config: RamanConfig, table: DecayTable
) -> RotatingFrameModel:
    """Adiabatically eliminated qubit model on (up, down, lost).

    Uses the closed-form effective parameters: two-photon coupling, one-photon
    light shifts on the diagonal, and per-state scattering with the table's
    branching back into the qubit or out to `lost`.  Broadcasts over
    array-valued drive parameters into a stack; a state that does not
    scatter (a field of Rabi frequency 0) has jumps of amplitude 0.
    """
    eff = formulas.effective_two_level(
        config.up.rabi, config.down.rabi, config.delta_one, table.gamma_s
    )
    rel_phase = config.up.phase - config.down.phase
    entries = {
        (0, 0): eff.stark_up,
        (1, 1): -config.delta_two + eff.stark_down,
        (0, 1): (_signed_eff_coupling(config) / 2.0) * np.exp(1j * rel_phase),
    }
    h = _hermitian(3, entries)
    branch = table.branching(("3S1", 0))
    b_up = branch.get(("3P2", 0), 0.0)
    b_down = branch.get(("3P0", 0), 0.0)
    b_lost = sum(branch.values()) - b_up - b_down
    jumps = tuple(
        (src, to, np.sqrt(rate * b))
        for src, rate in ((0, eff.scatter_up), (1, eff.scatter_down))
        for to, b in ((0, b_up), (1, b_down), (2, b_lost))
        if b > 0.0
    )
    return RotatingFrameModel(h, jumps, QUBIT_BASIS)


def _signed_eff_coupling(config: RamanConfig) -> float:
    return config.up.rabi * config.down.rabi / (2.0 * config.delta_one)


def elimination_margin(config: RamanConfig, table: DecayTable) -> float:
    """|Delta| over the largest of the two Rabi frequencies and the linewidth."""
    return abs(config.delta_one) / max(config.up.rabi, config.down.rabi, table.gamma_s)


def elimination_applies(config: RamanConfig, table: DecayTable) -> bool:
    """Whether |Delta| is large enough to eliminate the intermediate state:
    its margin exceeds `ELIMINATION_FACTOR`."""
    return elimination_margin(config, table) > ELIMINATION_FACTOR
