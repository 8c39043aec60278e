"""Per-node observer pair.

Each local unit runs two estimators side by side.  The first treats every
inbound coupling as an unknown input and produces an estimate that no
neighbor signal can touch.  The second is a cooperative observer that does
consume the neighbors' exchanged estimates and therefore reacts when a
neighbor's estimate goes bad.  The gap between what the two see is the raw
material of the detection layer: a covert attack is invisible in the
victim's own residuals but shows up in its neighbors' cooperative ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ProtocolError, SynthesisError, UioExistenceError
from .model import Subsystem
from .numerics import matrix_rank, observer_gain, pseudo_inverse, spectral_radius


@dataclass(frozen=True)
class UioDesign:
    """Gains of the neighbor-decoupled observer.

    Update form:

        z+       = F z + T B u + (K1 + K2) y_meas
        estimate = z + H y_meas

    E stacks the inbound coupling blocks.  H reproduces E through the
    measurement map (H C E = E), so T = I - H C annihilates every inbound
    coupling and the estimation error never sees the neighbors' states.
    K1 places the error dynamics F = T A - K1 C, and K2 = F H completes the
    measurement feedthrough.
    """

    F: np.ndarray
    T: np.ndarray
    H: np.ndarray
    K1: np.ndarray
    K2: np.ndarray
    E: np.ndarray


@dataclass
class ObserverState:
    """Mutable runtime state of one node's observer pair."""

    z: np.ndarray
    xhat_coop: np.ndarray


def design_uio(
    subsystem: Subsystem,
    inbound_blocks: Sequence[np.ndarray],
    target_radius: float = 0.5,
) -> UioDesign:
    """Design the neighbor-decoupled observer for one node.

    ``inbound_blocks`` are the coupling blocks feeding the node, in
    neighbor order.  An empty sequence degenerates to a plain full-order
    observer (H = 0, T = I).

    Raises UioExistenceError when the measurement map loses rank on the
    coupling stack, and SynthesisError when the residual pair cannot be
    made stable at the target radius.
    """
    n = subsystem.n
    blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in inbound_blocks]
    E = np.hstack(blocks) if blocks else np.zeros((n, 0))
    CE = subsystem.C @ E
    if matrix_rank(CE) < matrix_rank(E):
        raise UioExistenceError(
            f"node {subsystem.index}: measurement map drops the coupling stack rank "
            f"from {matrix_rank(E)} to {matrix_rank(CE)}; no decoupling observer exists"
        )
    H = E @ pseudo_inverse(CE)
    T = np.eye(n) - H @ subsystem.C
    K1 = observer_gain(T @ subsystem.A, subsystem.C, target_radius)
    F = T @ subsystem.A - K1 @ subsystem.C
    K2 = F @ H

    # Decoupling identity must hold numerically, not just by construction.
    slack = float(np.max(np.abs(H @ CE - E))) if E.size else 0.0
    if slack > 1e-9:
        raise SynthesisError(
            f"node {subsystem.index}: decoupling identity violated by {slack:.3g}"
        )
    achieved = spectral_radius(F)
    if achieved >= 1.0:
        raise SynthesisError(
            f"node {subsystem.index}: unstable error dynamics, spectral radius {achieved:.6g}"
        )
    return UioDesign(F=F, T=T, H=H, K1=K1, K2=K2, E=E)


def step_uio(
    design: UioDesign,
    subsystem: Subsystem,
    z: np.ndarray,
    u: np.ndarray,
    y_meas: np.ndarray,
) -> np.ndarray:
    """One update of the decoupled observer's internal state."""
    return design.F @ z + design.T @ (subsystem.B @ u) + (design.K1 + design.K2) @ y_meas


def uio_estimate(design: UioDesign, z: np.ndarray, y_meas: np.ndarray) -> np.ndarray:
    """State estimate paired with the measurement that just arrived."""
    return z + design.H @ y_meas


def step_distributed(
    subsystem: Subsystem,
    gain: np.ndarray,
    xhat: np.ndarray,
    u: np.ndarray,
    y_meas: np.ndarray,
    coupling: Mapping[int, np.ndarray],
    neighbor_estimates: Mapping[int, np.ndarray],
) -> np.ndarray:
    """One update of the cooperative observer.

    ``coupling`` maps each inbound neighbor to its block and
    ``neighbor_estimates`` carries those neighbors' decoupled estimates
    from the same tick.  A neighbor without an estimate is a protocol
    violation, not a silent default.
    """
    nxt = subsystem.A @ xhat + subsystem.B @ u + gain @ (y_meas - subsystem.C @ xhat)
    for j in sorted(coupling):
        if j not in neighbor_estimates:
            raise ProtocolError(
                f"node {subsystem.index}: no estimate received from neighbor {j}"
            )
        nxt = nxt + coupling[j] @ neighbor_estimates[j]
    return nxt
