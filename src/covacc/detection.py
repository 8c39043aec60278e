"""Alarm generation and the unanimity rule that turns alarms into a verdict.

A node cannot see a covert attack on itself, because its masked
measurements evolve exactly like unattacked ones.  Its neighbors can: the
victim broadcasts an estimate of its visible state while its true state
has drifted by the attacker's replica state, and that gap enters every
listener through the coupling.  Each node thresholds the received error of
its cooperative observer, attaches a one-step-lagged aggregate of what the
coupling pushed in as the alarm payload, and a node declares itself
attacked only when every inbound neighbor raises a nonzero alarm in the
same tick.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ProtocolError


@dataclass(frozen=True)
class AlarmSignal:
    """One node's broadcast alarm for one step.

    The payload is the zero vector while the node is quiet and the lagged
    aggregate error otherwise, so receivers get the measurement and the
    verdict in one message.
    """

    origin: int
    step: int
    payload: np.ndarray

    @property
    def active(self) -> bool:
        return bool(np.any(self.payload))


@dataclass
class DetectionState:
    """Mutable per-node detection bookkeeping."""

    threshold: float
    prev_error: np.ndarray = None
    decided: bool = False
    decided_step: int = None


def aggregate_error(
    err_now: np.ndarray,
    err_prev: np.ndarray,
    transition: np.ndarray,
) -> np.ndarray:
    """Back out the coupling-driven drive from two samples of the received error.

    The cooperative observer's received error evolves as its own stable
    transition plus whatever the neighbors' decoupled errors push in
    through the coupling.  Differencing consecutive samples isolates that
    push, one step late: the value returned at step k describes step k-1.
    Returns None until two samples exist.
    """
    if err_prev is None:
        return None
    return np.asarray(err_now, dtype=float) - transition @ np.asarray(err_prev, dtype=float)


def emit_alarm(
    origin: int,
    step: int,
    residual_norm: float,
    threshold: float,
    aggregate: np.ndarray,
    dim: int,
    armed: bool = True,
) -> AlarmSignal:
    """Zero payload when quiet, the lagged aggregate when the residual is loud.

    Strictly-greater comparison; a residual exactly at the threshold stays
    quiet.  The alarm is also silent before two error samples exist
    (``aggregate`` is None) and while the startup transient is not yet
    armed out.
    """
    if armed and aggregate is not None and residual_norm > threshold:
        payload = np.asarray(aggregate, dtype=float).copy()
    else:
        payload = np.zeros(dim)
    return AlarmSignal(origin=origin, step=step, payload=payload)


def decide_attack(inbound: Mapping[int, AlarmSignal], neighbor_set: Sequence[int]) -> bool:
    """Unanimity over the inbound neighbors.

    True only when every inbound neighbor's alarm is active this step.
    ``inbound`` is any mapping from node to alarm that contains every node
    of ``neighbor_set``; the runner passes the whole network's alarms.  A
    node with no inbound neighbors never decides: it has no witnesses, and
    a vacuous unanimity would declare it attacked forever.
    """
    neighbors = tuple(neighbor_set)
    if not neighbors:
        return False
    for j in neighbors:
        if j not in inbound:
            raise ProtocolError(f"no alarm received from neighbor {j}")
        if not inbound[j].active:
            return False
    return True


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
