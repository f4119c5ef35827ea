"""Physical constants and frequency-unit conventions.

All internal frequencies are angular (rad/s).  Anything crossing an I/O
boundary (configs, CSV headers, CLI flags, printed summaries) is ordinary
frequency in Hz, converted explicitly with the helpers below.
"""

import math

TWO_PI = 2.0 * math.pi

# CODATA values
H_PLANCK = 6.62607015e-34        # J s
K_BOLTZMANN = 1.380649e-23       # J/K
ATOMIC_MASS_KG = 1.66053906660e-27  # kg

# Bohr magneton over Planck constant, in MHz per gauss
MU_B_MHZ_PER_G = 1.399624

# 88Sr atomic mass (u)
SR88_MASS_U = 87.9056


def angular(frequency_hz: float) -> float:
    """Ordinary frequency (Hz) to angular frequency (rad/s)."""
    return TWO_PI * frequency_hz


def ordinary(omega: float) -> float:
    """Angular frequency (rad/s) to ordinary frequency (Hz)."""
    return omega / TWO_PI
