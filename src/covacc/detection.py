"""Detection thresholds, calibrated on an attack-free rehearsal.

A covert attack is invisible in the victim's own measurements but shows in
the received error of its neighbors' cooperative observers.  Each node
compares the norm of that error with a threshold of its own; steps 3-4 of
``scenario._simulate`` turn the comparisons into alarms and decisions.
"""

from __future__ import annotations

import warnings
from typing import Mapping, Sequence


def calibrate_thresholds(
    residual_norms: Mapping[int, Sequence[float]],
    factor: float = 2.0,
    floor: float = 1e-6,
    window: tuple = (10, 20),
) -> dict:
    """Per-node thresholds from an attack-free run of the same scenario.

    Rule: ``factor`` times the worst in-window residual, plus an absolute
    ``floor`` so a perfectly converged run still gets a positive
    threshold.  The window skips the startup transient.  A window reaching
    past the recorded history triggers a warning and is truncated.
    """
    lo, hi = int(window[0]), int(window[1])
    out = {}
    for i in sorted(residual_norms):
        hist = list(residual_norms[i])
        if hi > len(hist):
            warnings.warn(
                f"node {i}: calibration window [{lo},{hi}) exceeds the recorded "
                f"{len(hist)} steps; truncating",
                RuntimeWarning,
                stacklevel=2,
            )
        segment = hist[lo:hi]
        peak = max(segment) if segment else 0.0
        out[i] = factor * peak + floor
    return out
