"""Reference-normalized readout.

Measurements are interleaved with reference shots of the initial-state atom
number; a linear interpolation of the references divides out slow drifts.
Populations come out as N_up(t)/N_up(0) and N_down(t)/N_up(0), optionally
corrected for the transfer-sweep efficiency of the state-selective readout.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


class ReadoutWarning(UserWarning):
    pass


@dataclass(frozen=True)
class NormalizedReadout:
    times: np.ndarray
    up: np.ndarray
    down: np.ndarray | None


def normalize_readout(
    times,
    raw_up,
    ref_times,
    ref_values,
    raw_down=None,
    lz_efficiency: float | None = None,
) -> NormalizedReadout:
    """Divide raw atom numbers by linearly interpolated references.

    `lz_efficiency` (when given) corrects the down-state numbers for the
    finite transfer-sweep efficiency of the readout.  Measurement times
    outside the reference bracket trigger a warning, since the linear
    interpolation then extrapolates.
    """
    times = np.asarray(times, dtype=float)
    raw_up = np.asarray(raw_up, dtype=float)
    ref_times = np.asarray(ref_times, dtype=float)
    ref_values = np.asarray(ref_values, dtype=float)
    if len(ref_times) < 2:
        raise ValueError("need at least two reference measurements")
    if times.min() < ref_times.min() or times.max() > ref_times.max():
        warnings.warn(
            "measurement times extend beyond the reference bracket; extrapolating",
            ReadoutWarning,
            stacklevel=2,
        )
    ref = np.interp(times, ref_times, ref_values)
    up = raw_up / ref
    down = None
    if raw_down is not None:
        down = np.asarray(raw_down, dtype=float) / ref
        if lz_efficiency is not None:
            if not 0.0 < lz_efficiency <= 1.0:
                raise ValueError("transfer efficiency must be in (0, 1]")
            down = down / lz_efficiency
    return NormalizedReadout(times=times, up=up, down=down)
