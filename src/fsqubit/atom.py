"""Strontium triplet level structure, Zeeman shifts, and spontaneous decay.

Levels are identified by (manifold, m_J).  Energies are angular frequencies
(rad/s) measured from the midpoint of the two metastable qubit states, so
detunings entering rotating-frame models stay numerically small.

The 88Sr constants below (`MANIFOLDS`, `_ENERGY_THZ`, `TAU_3P1`,
`GAMMA_S_DEFAULT`, `_BRANCH_*`) are the only copy of the level structure:
schemes, Zeeman shifts and decay tables all read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import ConfigError
from .units import MU_B_MHZ_PER_G, TWO_PI, angular


class ValidationError(Exception):
    """Physical-consistency check failed (branching sums, orderings, ...)."""


# manifold -> (J, Lande g_J).  LS-coupling g values; J=0 manifolds have no
# linear Zeeman shift and get g_J = 0.
MANIFOLDS: dict[str, tuple[int, float]] = {
    "1S0": (0, 0.0),
    "3P0": (0, 0.0),
    "3P1": (1, 1.5),
    "3P2": (2, 1.5),
    "3S1": (1, 2.0),
}

# Manifold energies (THz, ordinary frequency) relative to the qubit midpoint,
# from the usual Sr term values.  The 3P2-3P0 interval is 17.42 THz.
_ENERGY_THZ: dict[str, float] = {
    "1S0": -437.9375,
    "3P0": -8.7095,
    "3P1": -3.1085,
    "3P2": 8.7095,
    "3S1": 432.6235,
}

# Lifetime of 3P1 (s); sets the rate of the second step of the sequential
# 3S1 -> 3P1 -> 1S0 cascade.
TAU_3P1 = 21.4e-6

# Population decay rate of 3S1 (also its linewidth), rad/s == 1/s
GAMMA_S_DEFAULT = angular(11e6)

# Branching of 3S1 decays by destination manifold
_BRANCH_3P2 = 0.217 + 0.326
_BRANCH_3P1 = 0.340
_BRANCH_3P0 = 0.116


@dataclass(frozen=True)
class Sublevel:
    manifold: str
    m_j: int
    energy: float  # rad/s, relative to the qubit midpoint

    def __post_init__(self):
        if self.manifold not in MANIFOLDS:
            raise ConfigError(f"unknown manifold {self.manifold!r}")
        j = MANIFOLDS[self.manifold][0]
        if abs(self.m_j) > j:
            raise ValidationError(f"|m_J|={abs(self.m_j)} exceeds J={j} of {self.manifold}")

    @property
    def j(self) -> int:
        return MANIFOLDS[self.manifold][0]

    def key(self) -> tuple[str, int]:
        return (self.manifold, self.m_j)


@dataclass(frozen=True)
class LevelScheme:
    """Ordered sublevels plus named indices for the working states."""

    levels: tuple[Sublevel, ...]

    def __post_init__(self):
        keys = [lvl.key() for lvl in self.levels]
        if len(set(keys)) != len(keys):
            raise ValidationError("duplicate sublevels in scheme")

    def index(self, manifold: str, m_j: int = 0) -> int:
        for i, lvl in enumerate(self.levels):
            if lvl.manifold == manifold and lvl.m_j == m_j:
                return i
        raise ConfigError(f"scheme has no sublevel ({manifold}, m_J={m_j})")

    def has(self, manifold: str, m_j: int = 0) -> bool:
        return any(l.manifold == manifold and l.m_j == m_j for l in self.levels)

    @property
    def n(self) -> int:
        return len(self.levels)

    @property
    def up(self) -> int:
        return self.index("3P2", 0)

    @property
    def down(self) -> int:
        return self.index("3P0", 0)

    @property
    def s(self) -> int:
        return self.index("3S1", 0)

    @property
    def g(self) -> int:
        return self.index("1S0", 0)

    def label(self, i: int) -> str:
        """Short state label used in trajectory columns."""
        lvl = self.levels[i]
        named = {("3P2", 0): "up", ("3P0", 0): "down", ("3S1", 0): "s", ("1S0", 0): "g"}
        if lvl.key() in named:
            return named[lvl.key()]
        sign = "+" if lvl.m_j >= 0 else "-"
        return f"{lvl.manifold}m{sign}{abs(lvl.m_j)}"


def _sublevel(manifold: str, m_j: int) -> Sublevel:
    return Sublevel(manifold, m_j, angular(_ENERGY_THZ[manifold] * 1e12))


def sr88_scheme() -> LevelScheme:
    """Full 13-sublevel scheme: 1S0, 3P0, 3P1(3), 3P2(5), 3S1(3)."""
    levels = [_sublevel("1S0", 0), _sublevel("3P0", 0)]
    levels += [_sublevel("3P1", m) for m in (-1, 0, 1)]
    levels += [_sublevel("3P2", m) for m in (-2, -1, 0, 1, 2)]
    levels += [_sublevel("3S1", m) for m in (-1, 0, 1)]
    scheme = LevelScheme(tuple(levels))
    if scheme.n != 13:
        raise ValidationError("full scheme must have 13 sublevels")
    return scheme


def lambda_scheme() -> LevelScheme:
    """Restricted Lambda scheme: up (3P2, m=0), s (3S1, m=0), down (3P0)."""
    return LevelScheme((_sublevel("3P2", 0), _sublevel("3S1", 0), _sublevel("3P0", 0)))


def two_level_scheme() -> LevelScheme:
    """Ground state plus up: the 671-nm state-preparation transition."""
    return LevelScheme((_sublevel("1S0", 0), _sublevel("3P2", 0)))


@dataclass(frozen=True)
class MagneticEnvironment:
    b_gauss: float = 20.0

    def __post_init__(self):
        if self.b_gauss < 0:
            raise ValidationError("bias field must be >= 0")


def zeeman_shift(level: Sublevel, env: MagneticEnvironment) -> float:
    """Linear Zeeman shift of a sublevel, rad/s, with g_J from `MANIFOLDS`."""
    g = MANIFOLDS[level.manifold][1]
    return TWO_PI * MU_B_MHZ_PER_G * 1e6 * g * level.m_j * env.b_gauss


def clebsch_gordan(j1: float, m1: float, j2: float, m2: float, j: float, m: float) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | j m> (Racah formula)."""
    if m1 + m2 != m or j > j1 + j2 or j < abs(j1 - j2):
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m) > j:
        return 0.0
    fac = math.factorial
    pref = (
        (2 * j + 1)
        * fac(int(j + j1 - j2)) * fac(int(j - j1 + j2)) * fac(int(j1 + j2 - j))
        / fac(int(j1 + j2 + j + 1))
    )
    pref *= (
        fac(int(j + m)) * fac(int(j - m))
        * fac(int(j1 - m1)) * fac(int(j1 + m1))
        * fac(int(j2 - m2)) * fac(int(j2 + m2))
    )
    total = 0.0
    for k in range(0, int(j1 + j2 + j) + 1):
        denoms = (
            j1 + j2 - j - k,
            j1 - m1 - k,
            j2 + m2 - k,
            j - j2 + m1 + k,
            j - j1 - m2 + k,
        )
        if any(d < 0 for d in denoms):
            continue
        term = fac(k)
        for d in denoms:
            term *= fac(int(d))
        total += (-1) ** k / term
    return math.sqrt(pref) * total


def emission_weights(j_e: int, m_e: int, j_g: int) -> dict[int, float]:
    """Relative decay weights from (j_e, m_e) onto the m_g sublevels of j_g.

    Weights are |<j_g m_g; 1 q | j_e m_e>|^2 normalized to sum to 1 over the
    destination manifold; q = m_e - m_g is the emitted polarization.
    """
    weights: dict[int, float] = {}
    for m_g in range(-j_g, j_g + 1):
        q = m_e - m_g
        if abs(q) > 1:
            continue
        c = clebsch_gordan(j_g, m_g, 1, q, j_e, m_e)
        if c != 0.0:
            weights[m_g] = c * c
    norm = sum(weights.values())
    return {m: w / norm for m, w in weights.items()}


DecayChannel = tuple[tuple[str, int], tuple[str, int], float]


@dataclass(frozen=True)
class DecayTable:
    """Spontaneous-decay channels with per-source branching fractions.

    `gamma_s` is the total 3S1 decay rate; the 3P1 rate of the sequential
    cascade back to the ground state is 1 / `TAU_3P1`.  Channel fractions
    are branches of the source manifold's total rate.  The 3P1 lifetime and
    the energies `validate` checks downhill decays against are the module
    constants, the only copy of the level data.

    `gamma_s` is checked when the table is made, so `validate` and every
    model builder, including those that never call `validate`, see a finite
    rate >= 0.
    """

    gamma_s: float = GAMMA_S_DEFAULT
    channels: tuple[DecayChannel, ...] = ()

    def __post_init__(self):
        if not (math.isfinite(self.gamma_s) and self.gamma_s >= 0.0):
            raise ValidationError(f"gamma_s must be finite and >= 0, got {self.gamma_s!r}")

    def rate_of(self, manifold: str) -> float:
        if manifold == "3S1":
            return self.gamma_s
        if manifold == "3P1":
            return 1.0 / TAU_3P1
        raise ConfigError(f"no decay rate defined for source manifold {manifold!r}")

    def validate(self) -> None:
        if not (0.0 <= min((f for *_, f in self.channels), default=0.0)):
            raise ValidationError("negative branching fraction")
        if any(f > 1.0 for *_, f in self.channels):
            raise ValidationError("branching fraction above 1")
        sums: dict[tuple[str, int], float] = {}
        for src, dst, frac in self.channels:
            if _ENERGY_THZ[src[0]] <= _ENERGY_THZ[dst[0]]:
                raise ValidationError(f"channel {src} -> {dst} is not downhill in energy")
            sums[src] = sums.get(src, 0.0) + frac
        for src, total in sums.items():
            if src[0] == "3S1" and abs(total - 1.0) > 2e-3:
                raise ValidationError(
                    f"fractions from {src} sum to {total:.4f}, outside the 0.2% tolerance"
                )

    def branching(self, src: tuple[str, int]) -> dict[tuple[str, int], float]:
        return {dst: f for s, dst, f in self.channels if s == src}


def default_decay_table() -> DecayTable:
    """Decay table for 3S1 and the 3P1 cascade.

    Manifold totals from 3S1 are 54.3% / 34.0% / 11.6% to 3P2 / 3P1 / 3P0;
    the split over destination m_J follows the pi/sigma dipole weights of
    `emission_weights` (equal sigma+ / sigma- by symmetry).  For m_e = 0 this
    puts 21.7% on (3P2, 0) and 16.3% on each of (3P2, +-1).
    """
    channels: list[DecayChannel] = []
    for m_e in (-1, 0, 1):
        src = ("3S1", m_e)
        for manifold, branch, j_g in (
            ("3P2", _BRANCH_3P2, 2),
            ("3P1", _BRANCH_3P1, 1),
            ("3P0", _BRANCH_3P0, 0),
        ):
            for m_g, w in emission_weights(1, m_e, j_g).items():
                channels.append((src, (manifold, m_g), branch * w))
    for m in (-1, 0, 1):
        channels.append((("3P1", m), ("1S0", 0), 1.0))
    table = DecayTable(channels=tuple(channels))
    table.validate()
    return table


def decay_rates(scheme: LevelScheme, table: DecayTable) -> list[tuple[int, int, float]]:
    """Resolve table channels onto a scheme: (from_index, to_index, rate 1/s).

    Channels whose endpoints are missing from the scheme are skipped; model
    builders account for the skipped weight as loss out of the subspace.
    """
    table.validate()
    rates = []
    for src, dst, frac in table.channels:
        if scheme.has(*src) and scheme.has(*dst):
            rates.append((scheme.index(*src), scheme.index(*dst), frac * table.rate_of(src[0])))
    return rates
