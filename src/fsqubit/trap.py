"""State-dependent light shifts and lattice unit conversions.

Total polarizability of a (J, m_J=0) state under linear polarization tilted
by beta from the quantization axis:

    alpha(lambda, beta) = alpha_s(lambda) - alpha_t(lambda) (3 cos^2(beta) - 1) / 2

Scalar and tensor tables are user-supplied per wavelength (linear
interpolation between rows); J=0 states carry no tensor part.  The magic
angle solver finds the polarization angle equalizing the two qubit-state
polarizabilities, with uncertainties propagated from the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import ATOMIC_MASS_KG, H_PLANCK, K_BOLTZMANN, SR88_MASS_U


class TableError(Exception):
    pass


_CSV_HEADER = "state,wavelength_nm,alpha_s,alpha_s_sigma,alpha_t,alpha_t_sigma"
_J0_STATES = ("1S0", "3P0")


@dataclass(frozen=True)
class PolarizabilityTable:
    """Per-state rows of (wavelength nm, alpha_s, alpha_t) with 1-sigma columns."""

    rows: dict[str, np.ndarray]  # state -> array of (lambda, a_s, s_as, a_t, s_at)

    def __post_init__(self):
        for state, arr in self.rows.items():
            arr = np.asarray(arr, dtype=float)
            arr.setflags(write=False)
            self.rows[state] = arr
            lam = arr[:, 0]
            if np.any(np.diff(lam) <= 0):
                raise TableError(f"{state}: wavelengths must be strictly increasing")
            if np.any(arr[:, 2] < 0) or np.any(arr[:, 4] < 0):
                raise TableError(f"{state}: uncertainties must be >= 0")
            if state in _J0_STATES and np.any(arr[:, 3] != 0):
                raise TableError(f"{state}: J=0 states must have zero tensor polarizability")

    def states(self) -> tuple[str, ...]:
        return tuple(self.rows)

    def interpolate(self, state: str, wavelength_nm: float) -> tuple[float, float, float, float]:
        """(alpha_s, sigma_s, alpha_t, sigma_t) at a wavelength inside the table."""
        if state not in self.rows:
            raise TableError(f"table has no state {state!r}")
        arr = self.rows[state]
        lam = arr[:, 0]
        if not lam[0] <= wavelength_nm <= lam[-1]:
            raise TableError(
                f"{state}: {wavelength_nm} nm is outside the table range "
                f"[{lam[0]}, {lam[-1]}] nm; refusing to extrapolate"
            )
        out = tuple(float(np.interp(wavelength_nm, lam, arr[:, k])) for k in (1, 2, 3, 4))
        return out  # type: ignore[return-value]

    @classmethod
    def from_csv(cls, text: str, source: str = "<csv>") -> "PolarizabilityTable":
        lines = text.strip().splitlines()
        if not lines or lines[0].strip() != _CSV_HEADER:
            raise TableError(f"{source}:1: header must be exactly {_CSV_HEADER!r}")
        raw: dict[str, list[list[float]]] = {}
        for lineno, line in enumerate(lines[1:], start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 6:
                raise TableError(f"{source}:{lineno}: expected 6 comma-separated fields")
            state = parts[0].strip()
            try:
                nums = [float(p) for p in parts[1:]]
            except ValueError as exc:
                raise TableError(f"{source}:{lineno}: {exc}") from None
            raw.setdefault(state, []).append([nums[0], nums[1], nums[2], nums[3], nums[4]])
        try:
            return cls(rows={s: np.array(v) for s, v in raw.items()})
        except TableError as exc:
            raise TableError(f"{source}: {exc}") from None


def tensor_weight(beta: float) -> float:
    return (3.0 * math.cos(beta) ** 2 - 1.0) / 2.0


def polarizability(
    table: PolarizabilityTable, state: str, wavelength_nm: float, beta: float
) -> tuple[float, float]:
    """Total polarizability (atomic units) and its 1-sigma uncertainty."""
    a_s, s_s, a_t, s_t = table.interpolate(state, wavelength_nm)
    u = tensor_weight(beta)
    value = a_s - a_t * u
    sigma = math.hypot(s_s, u * s_t)
    return value, sigma


@dataclass(frozen=True)
class MagicAngleResult:
    beta: float | None        # rad
    sigma: float              # rad, 0 when beta is None
    degenerate: bool = False


def magic_angle(table: PolarizabilityTable, wavelength_nm: float,
                tol: float = 1e-4) -> MagicAngleResult:
    """Polarization angle where the 3P2 and 3P0 polarizabilities cross.

    Bisection on [0, pi/2] to `tol` radians.  Returns beta=None when the
    difference keeps one sign over the interval; a table making every angle
    magic (zero tensor part and equal scalars) is reported as degenerate.
    """
    a_p0, s_p0 = polarizability(table, "3P0", wavelength_nm, 0.0)

    def diff(beta: float) -> float:
        val, _ = polarizability(table, "3P2", wavelength_nm, beta)
        return val - a_p0

    lo, hi = 0.0, math.pi / 2
    f_lo, f_hi = diff(lo), diff(hi)
    scale = abs(a_p0) if a_p0 != 0 else 1.0
    if abs(f_lo) < 1e-12 * scale and abs(f_hi) < 1e-12 * scale:
        return MagicAngleResult(beta=None, sigma=0.0, degenerate=True)
    if f_lo == 0.0:
        root = lo
    elif f_hi == 0.0:
        root = hi
    elif f_lo * f_hi > 0:
        return MagicAngleResult(beta=None, sigma=0.0)
    else:
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            f_mid = diff(mid)
            if f_mid == 0.0:
                lo = hi = mid
                break
            if f_lo * f_mid < 0:
                hi, f_hi = mid, f_mid
            else:
                lo, f_lo = mid, f_mid
        root = 0.5 * (lo + hi)

    # sigma from the root condition: alpha_s2 - alpha_t2 u(beta) - alpha_p0 = 0
    a_s2, s_s2, a_t2, s_t2 = table.interpolate("3P2", wavelength_nm)
    u = tensor_weight(root)
    sigma_f = math.sqrt(s_s2**2 + (u * s_t2) ** 2 + s_p0**2)
    dfdb = 3.0 * a_t2 * math.sin(root) * math.cos(root)
    sigma_beta = sigma_f / abs(dfdb) if dfdb != 0 else math.inf
    return MagicAngleResult(beta=root, sigma=sigma_beta)


@dataclass(frozen=True)
class RecoilEnergy:
    frequency_hz: float
    temperature_uk: float


def recoil_energy(wavelength_nm: float, mass_u: float = SR88_MASS_U) -> RecoilEnergy:
    """Lattice photon recoil energy h / (2 m lambda^2), as Hz and uK."""
    if wavelength_nm <= 0 or mass_u <= 0:
        raise ValueError("wavelength and mass must be positive")
    lam = wavelength_nm * 1e-9
    mass = mass_u * ATOMIC_MASS_KG
    freq = H_PLANCK / (2.0 * mass * lam * lam)
    temp_uk = H_PLANCK * freq / K_BOLTZMANN * 1e6
    return RecoilEnergy(frequency_hz=freq, temperature_uk=temp_uk)


# depth expressed in uK -> Hz, independent of wavelength
_HZ_PER_UK = K_BOLTZMANN * 1e-6 / H_PLANCK


def shift_slope(
    table: PolarizabilityTable, wavelength_nm: float, beta: float
) -> tuple[float, float]:
    """Differential qubit light shift per unit trap depth, Hz/uK.

    Depth is expressed as experienced by the 3P2 state, so the slope is
    (k_B/h per uK) times the relative differential polarizability
    (alpha_3P2 - alpha_3P0)/alpha_3P2."""
    a_up, s_up = polarizability(table, "3P2", wavelength_nm, beta)
    a_dn, s_dn = polarizability(table, "3P0", wavelength_nm, 0.0)
    if a_up == 0.0:
        raise ZeroDivisionError("3P2 polarizability is zero; depth reference undefined")
    slope = _HZ_PER_UK * (a_up - a_dn) / a_up
    # d slope/d a_up = f * a_dn / a_up^2 ; d slope/d a_dn = -f / a_up
    sigma = _HZ_PER_UK * math.hypot(s_up * a_dn / a_up**2, s_dn / a_up)
    return slope, sigma
