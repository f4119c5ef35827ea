"""Analytic reductions of the driven Lambda system.

Effective two-level parameters for far-detuned Raman driving, the
Landau-Zener transfer probability, off-resonant scattering rates, and the
damped-oscillation signal model used by the analysis pipeline.  The
effective two-level parameters broadcast over array-valued drive parameters.
They square with `np.float_power`, which calls the C library's pow for a
float and for each array element alike; `x**2` on an array multiplies x * x
instead, which differs from pow in the last bit for about 1 value in 1300.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .units import TWO_PI


class RegimeWarning(UserWarning):
    """A closed-form expression was evaluated outside its validity regime."""


def _check_detuning(detuning: float, *scales: float) -> None:
    """Raise when `detuning` is zero; warn when |detuning| is not large against
    the scales.  For arrays, the message names the smallest such |detuning|
    and the largest such scale.  `np.count_nonzero` tests a float and an
    array alike, at a fraction of `np.any`'s cost on a float."""
    if np.count_nonzero(detuning == 0.0):
        raise ZeroDivisionError("detuning must be nonzero")
    detuning, scale = np.abs(detuning), reduce(np.maximum, scales)
    outside = detuning <= 10.0 * scale
    if np.count_nonzero(outside):
        detuning, scale, outside = np.broadcast_arrays(detuning, scale, outside)
        warnings.warn(
            f"|detuning|={detuning[outside].min():.3g} rad/s is not large against the drive "
            f"scales (max {scale[outside].max():.3g}); the adiabatic-elimination formulas "
            "are inaccurate here",
            RegimeWarning,
            stacklevel=3,
        )


def raman_rabi(rabi_up: float, rabi_down: float, detuning: float) -> float:
    """Two-photon Rabi frequency magnitude Omega_up Omega_down / (2 |Delta|)."""
    _check_detuning(detuning, rabi_up, rabi_down)
    return rabi_up * rabi_down / (2.0 * abs(detuning))


def scattering_rate(rabi: float, detuning: float, gamma: float) -> float:
    """Off-resonant one-photon scattering rate Gamma Omega^2 / (4 Delta^2), 1/s."""
    _check_detuning(detuning, rabi, gamma)
    return gamma * np.float_power(rabi, 2) / (4.0 * np.float_power(detuning, 2))


def lz_probability(rabi: float, ramp: float) -> float:
    """Adiabatic transfer probability 1 - exp(-pi Omega^2 / (2 ramp)).

    `ramp` is the detuning sweep rate in rad/s per second; the symmetric-sweep
    convention is assumed.
    """
    if ramp <= 0.0:
        raise ValueError("ramp rate must be positive")
    if rabi < 0.0:
        raise ValueError("Rabi frequency must be >= 0")
    return 1.0 - np.exp(-np.pi * rabi**2 / (2.0 * ramp))


def damped_model(t, omega: float, phase: float, tau: float, loss_amp: float, tau_loss: float):
    """Damped-oscillation population model.

    0.5 cos(omega t + phase) exp(-t/tau) - loss_amp (1 - exp(-t/tau_loss)) + 0.5

    with phase 0 for the initial state and pi for its partner.  The second
    term tracks slow loss out of the Lambda system by one-photon scattering.
    """
    if tau <= 0.0 or tau_loss <= 0.0:
        raise ValueError("decay times must be positive")
    t = np.asarray(t, dtype=float)
    return (
        0.5 * np.cos(omega * t + phase) * np.exp(-t / tau)
        - loss_amp * (1.0 - np.exp(-t / tau_loss))
        + 0.5
    )


def cycles(omega: float, tau: float) -> float:
    """Number of coherent oscillation cycles omega tau / (2 pi)."""
    if omega <= 0.0 or tau <= 0.0:
        raise ValueError("omega and tau must be positive")
    return omega * tau / TWO_PI


@dataclass(frozen=True)
class EffectiveTwoLevel:
    """Adiabatically eliminated qubit parameters for one Raman configuration.

    Frequencies are rad/s, scattering rates 1/s, each a float or an array
    over a stack's members.  `stark_up/down` are the one-photon light shifts
    entering the effective Hamiltonian diagonal.
    """

    rabi: float
    stark_up: float
    stark_down: float
    scatter_up: float
    scatter_down: float

    def __post_init__(self):
        if any(np.count_nonzero(v < 0) for v in (self.rabi, self.scatter_up, self.scatter_down)):
            raise ValueError("rates must be >= 0")


def effective_two_level(
    rabi_up: float, rabi_down: float, detuning: float, gamma: float
) -> EffectiveTwoLevel:
    """Effective qubit parameters from one-photon drive amplitudes.

    The values of `raman_rabi` and `scattering_rate`, bit for bit, from one
    check against all three scales (which warns where any of theirs would)
    and each square taken once."""
    _check_detuning(detuning, rabi_up, rabi_down, gamma)
    up2, down2 = np.float_power(rabi_up, 2), np.float_power(rabi_down, 2)
    scatter_den = 4.0 * np.float_power(detuning, 2)
    return EffectiveTwoLevel(
        rabi=rabi_up * rabi_down / (2.0 * abs(detuning)),
        stark_up=up2 / (4.0 * detuning),
        stark_down=down2 / (4.0 * detuning),
        scatter_up=gamma * up2 / scatter_den,
        scatter_down=gamma * down2 / scatter_den,
    )
