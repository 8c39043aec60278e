"""Design of the neighbor-decoupled observer.

Each node runs two observers.  The decoupled one treats every inbound
coupling as an unknown input, so no neighbor signal touches its estimate.
The cooperative one (a plain ``numerics.observer_gain``) consumes the
neighbors' exchanged estimates, so a bad neighbor estimate shows in its
received error: a covert attack is invisible in the victim's own residuals
but visible at its neighbors.  Both advance at step 7 of ``scenario.run``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SynthesisError, UioExistenceError
from .model import Subsystem
from .numerics import matrix_rank, observer_gain, pseudo_inverse, spectral_radius


@dataclass(frozen=True)
class UioDesign:
    """Gains of the neighbor-decoupled observer.

    Update form:

        z+       = F z + T B u + (K1 + K2) y_meas
        estimate = z + H y_meas

    With E the inbound coupling blocks side by side, H reproduces E through
    the measurement map (H C E = E), so T = I - H C annihilates every inbound
    coupling and the estimation error never sees the neighbors' states.
    K1 places the error dynamics F = T A - K1 C, and K2 = F H completes the
    measurement feedthrough.
    """

    F: np.ndarray
    T: np.ndarray
    H: np.ndarray
    K1: np.ndarray
    K2: np.ndarray


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
    return UioDesign(F=F, T=T, H=H, K1=K1, K2=K2)
