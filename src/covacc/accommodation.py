"""Post-detection machinery.

Three stages, each feeding the next:

1. Pin down the attacker's replica state from the neighbors' alarm
   payloads by least squares through the outbound coupling stack.  When
   the stack is rank deficient only the interacting component is
   recoverable this way; the minimum-norm solution leaves the kernel
   component at exactly zero.
2. Recover the injected actuator input from a short window of those
   estimates by inverting the replica dynamics over the window.  The
   recovered value arrives with a fixed delay set by how many steps the
   input needs to show up in the observed combination.
3. Fold both into the control law (tick step 6 of ``scenario``, part of
   the update a full window adds to the runner's operator): feed back on
   the node's own estimate plus the replica estimate, keep the usual
   neighbor-cancellation terms, and subtract the recovered input at the
   actuator.

For a rank-deficient stack the kernel directions are filled in by running
the replica model forward under the recovered inputs, which is the only
route to them.

This module builds the fixed maps of those stages at design time
(``LsEstimator.stack_pinv``, ``InputReconstructor.readout``, the
projectors of ``ProjectionPair``); ``scenario._operator`` folds them into
the runner's one augmented operator, so no stage runs as per-step code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from numpy.linalg import matrix_power
from scipy.linalg import eig as generalized_eig

from .errors import ConfigurationError, SynthesisError
from .model import Topology
from .numerics import ProjectionPair, kernel_and_projection, matrix_rank, pseudo_inverse

# Entries below this, relative to the model scale, count as structural zeros
# in the relative-degree search.
_STRUCT_TOL = 1e-12


@dataclass(frozen=True)
class LsEstimator:
    """Least-squares recovery of the replica state from stacked alarm payloads.

    ``sources`` are the nodes that observe the target through their own
    coupling, ascending; ``stack_pinv`` is the pseudo-inverse of their
    coupling blocks stacked in the same order, which maps the stacked
    payloads to the replica state.  The projection records how much of the
    state the stack can see.
    """

    sources: tuple
    stack_pinv: np.ndarray
    projection: ProjectionPair

    @property
    def regime(self) -> str:
        return "full" if self.projection.kernel_dim == 0 else "low"


def build_ls_estimator(topology: Topology, target: int, state_dim: int) -> LsEstimator:
    stack = topology.outbound_stack(target, state_dim)
    return LsEstimator(
        sources=topology.sources(target),
        stack_pinv=pseudo_inverse(stack),
        projection=kernel_and_projection(stack),
    )


@dataclass(frozen=True)
class InputReconstructor:
    """Window inversion recovering the injected input with a fixed delay.

    Works on ``window + 1`` consecutive replica-state estimates.  The
    oldest sample anchors the window: its interacting part is known and
    subtracted from the remaining samples, while its kernel coordinates
    join the stacked inputs as unknowns.  The solver matrix therefore has
    one column block for the anchor's kernel coordinates and one
    lower-triangular block-Toeplitz column block per windowed input.  Only
    the input block sitting ``output_delay + 1`` steps behind the newest
    sample is guaranteed unique; a null-space certificate at build time
    proves that block is pinned down, and it is the one returned.
    ``input_offset`` locates that input block among the stacked unknowns.
    ``readout`` folds the whole inversion into one matrix: applied to the
    window's samples stacked oldest first, it gives that input block.  It is
    the block's rows of the solver's pseudo-inverse times the map from the
    samples to the left-hand side, whose row block ``t`` is ``P`` on sample
    ``t`` minus ``P A^t P^T P`` on the anchor (``P`` the interacting map).
    """

    A: np.ndarray
    B: np.ndarray
    window: int
    rel_degree: tuple
    output_delay: int
    input_offset: int
    readout: np.ndarray


def _relative_degrees(A: np.ndarray, B: np.ndarray, out_map: np.ndarray) -> list:
    """Per observed row: how many steps before the input shows up.

    Bounded by the state dimension; beyond that the powers of A add
    nothing new and the row never reacts.
    """
    n = A.shape[0]
    scale = max(float(np.max(np.abs(B))), 1.0)
    degrees = []
    for idx, row in enumerate(out_map):
        for s in range(1, n + 1):
            if np.max(np.abs(row @ matrix_power(A, s - 1) @ B)) > _STRUCT_TOL * scale:
                degrees.append(s)
                break
        else:
            raise SynthesisError(
                f"observed row {idx} never reacts to the injected input; "
                "the input cannot be recovered from the alarm data"
            )
    return degrees


def _check_invariant_zeros(A: np.ndarray, B: np.ndarray, out_map: np.ndarray) -> None:
    """Every finite invariant zero of (A, B, out_map) must be invisible to out_map.

    A zero the output can see lets a nonzero input history cancel out of
    the window exactly, and no window length recovers it.  The square case
    is solved as a generalized eigenvalue problem of the system pencil;
    otherwise a rank probe over the plant eigenvalues has to do.
    """
    n, m = B.shape
    p = out_map.shape[0]
    pencil_lhs = np.block([[A, B], [-out_map, np.zeros((p, m))]])
    pencil_rhs = np.zeros((n + p, n + m))
    pencil_rhs[:n, :n] = np.eye(n)

    if p == m:
        eigs = generalized_eig(pencil_lhs, pencil_rhs, right=False)
        zeros_found = [z for z in eigs if np.isfinite(z)]
    else:
        def rosenbrock(lam):
            return np.block(
                [[lam * np.eye(n) - A, -B.astype(complex)], [out_map, np.zeros((p, m))]]
            )

        probes = (0.937, -0.711, 1.618, 2.414, -1.303)
        normal_rank = max(matrix_rank(rosenbrock(lam)) for lam in probes)
        zeros_found = [
            lam for lam in np.linalg.eigvals(A) if matrix_rank(rosenbrock(lam)) < normal_rank
        ]

    for z in zeros_found:
        observability = np.vstack([z * np.eye(n) - A, out_map.astype(complex)])
        if matrix_rank(observability) == n:
            raise SynthesisError(
                f"invariant zero {z:.6g} of the replica model is visible through the "
                "coupling projection; the hidden-direction input history cannot be recovered"
            )


def build_reconstructor(
    A: np.ndarray,
    B: np.ndarray,
    projection: ProjectionPair,
    window: int = None,
) -> InputReconstructor:
    """Assemble the window inversion for one replica model.

    ``projection`` comes from the outbound coupling stack; pass the trivial
    pair (identity map, empty kernel) when the stack has full column rank.
    ``window`` defaults to the state dimension, the smallest length the
    inversion supports.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    m = B.shape[1]
    out_map = projection.interacting_map
    g = projection.kernel_dim
    if out_map.shape[0] == 0:
        raise SynthesisError(
            "the coupling stack has no nonzero row, so no neighbor sees the replica "
            "state and no alarm can witness the attack or recover its input"
        )

    window = n if window is None else int(window)
    if window < n:
        raise ConfigurationError(
            f"reconstruction window {window} is shorter than the state dimension {n}"
        )

    degrees = _relative_degrees(A, B, out_map)
    output_delay = max(degrees)

    # Distinct inputs must produce distinct observed windows.  The rows of
    # first influence decide that.
    first_influence = np.vstack(
        [out_map[l] @ matrix_power(A, degrees[l] - 1) @ B for l in range(len(degrees))]
    )
    if matrix_rank(first_influence) < m:
        raise SynthesisError(
            "first-influence map is rank deficient: different injected inputs "
            "produce identical observed windows"
        )
    if g > 0:
        _check_invariant_zeros(A, B, out_map)

    # Solver: rows t = 1..window of
    #   out_map x(t) - out_map A^t (known interacting part of the anchor)
    #     = [out_map A^t kernel_basis | out_map A^(t-c) B ...] [anchor kernel coords; stacked inputs]
    p = out_map.shape[0]
    kernel_cols = []
    toeplitz_cols = [[] for _ in range(window)]
    for t in range(1, window + 1):
        kernel_cols.append(out_map @ matrix_power(A, t) @ projection.kernel_basis)
        for c in range(1, window + 1):
            if t >= c:
                toeplitz_cols[c - 1].append(out_map @ matrix_power(A, t - c) @ B)
            else:
                toeplitz_cols[c - 1].append(np.zeros((p, m)))
    solver = np.hstack(
        [np.vstack(kernel_cols)] + [np.vstack(col) for col in toeplitz_cols]
    )
    input_offset = g + (window - output_delay) * m

    # Certificate: the returned input block must be untouched by the solver's
    # null space, otherwise the window does not determine it.
    _, s, Vt = np.linalg.svd(solver)
    tol = max(solver.shape) * (s[0] if s.size else 0.0) * 1e-12
    null_rows = Vt[np.count_nonzero(s > tol):]
    if null_rows.size and np.max(np.abs(null_rows[:, input_offset:input_offset + m])) > 1e-9:
        raise SynthesisError(
            f"window of length {window} does not pin down the delayed input block; "
            "enlarge the reconstruction window"
        )

    # Left-hand side from the stacked samples: row block t is
    # P x(t) - P A^t P^T P x(0).
    lhs_map = np.zeros((window * p, (window + 1) * n))
    for t in range(1, window + 1):
        rows = slice((t - 1) * p, t * p)
        lhs_map[rows, :n] = -out_map @ matrix_power(A, t) @ projection.interacting_projector
        lhs_map[rows, t * n:(t + 1) * n] = out_map

    return InputReconstructor(
        A=A.copy(),
        B=B.copy(),
        window=window,
        rel_degree=tuple(degrees),
        output_delay=output_delay,
        input_offset=input_offset,
        readout=pseudo_inverse(solver)[input_offset:input_offset + m] @ lhs_map,
    )


def neighbor_cancellation_gains(B: np.ndarray, coupling: Mapping[int, np.ndarray]) -> dict:
    """Feedforward gains cancelling each inbound coupling through the actuator.

    Exact cancellation when the coupling lands in the input range,
    least-squares otherwise.
    """
    Bp = pseudo_inverse(B)
    return {j: -(Bp @ np.asarray(coupling[j], dtype=float)) for j in sorted(coupling)}
