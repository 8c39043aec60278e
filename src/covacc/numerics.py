"""Matrix services used by the observer and accommodation layers.

Thin wrappers around numpy and scipy with the package conventions baked
in: one numerical rank rule everywhere, orthonormal projection bases, and
gain synthesis that is re-verified after the fact instead of trusted.

Pole placement with rank(B) = 1 (a single input column) or rank(B) = n is
computed here, in closed form, by the same steps as
``scipy.signal.place_poles``; every other input goes to that routine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_discrete_are
# stays at module top: the benchmark's import probe needs a scipy.signal line
from scipy.signal import place_poles

from .errors import SynthesisError

# Singular values below max(shape) * sigma_max * RANK_RTOL count as zero.
RANK_RTOL = 1e-12


def pseudo_inverse(M: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse, defined for every real matrix."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return np.zeros((M.shape[1], M.shape[0]))
    return np.linalg.pinv(M)


def matrix_rank(M: np.ndarray) -> int:
    """Numerical rank under the package-wide singular value threshold."""
    M = np.atleast_2d(np.asarray(M))
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    tol = max(M.shape) * s[0] * RANK_RTOL
    return int(np.count_nonzero(s > tol))


def spectral_radius(M: np.ndarray) -> float:
    M = np.atleast_2d(np.asarray(M))
    if M.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(M))))


@dataclass(frozen=True)
class ProjectionPair:
    """Orthogonal split of a state space induced by a stacked coupling matrix.

    ``interacting_map`` has orthonormal rows spanning the row space of the
    stack, the directions that neighboring systems can actually see.
    ``kernel_basis`` has orthonormal columns spanning its null space, the
    directions hidden from every neighbor.  When the stack has full column
    rank the split is trivial and ``interacting_map`` is the identity.
    ``interacting_projector`` (``P^T P``) and ``kernel_projector`` (``N N^T``)
    are the two orthogonal projectors, which sum to the identity.
    """

    interacting_map: np.ndarray  # ((n - kernel_dim) x n), orthonormal rows
    kernel_basis: np.ndarray  # (n x kernel_dim), orthonormal columns
    kernel_dim: int
    interacting_projector: np.ndarray = field(init=False, repr=False)
    kernel_projector: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        P, N = self.interacting_map, self.kernel_basis
        object.__setattr__(self, "interacting_projector", P.T @ P)
        object.__setattr__(self, "kernel_projector", N @ N.T)


def kernel_and_projection(stack: np.ndarray) -> ProjectionPair:
    """Split R^n along the kernel of a stacked coupling matrix.

    Returns the pair (interacting map, kernel basis).  The interacting map
    is the identity whenever the stack has full column rank, so callers can
    apply it unconditionally.
    """
    stack = np.atleast_2d(np.asarray(stack, dtype=float))
    n = stack.shape[1]
    if stack.shape[0] == 0 or not stack.any():
        return ProjectionPair(np.zeros((0, n)), np.eye(n), n)
    _, s, Vt = np.linalg.svd(stack)
    tol = max(stack.shape) * s[0] * RANK_RTOL
    rank = int(np.count_nonzero(s > tol))
    if rank == n:
        return ProjectionPair(np.eye(n), np.zeros((n, 0)), 0)
    return ProjectionPair(Vt[:rank].copy(), Vt[rank:].T.copy(), n - rank)


def _placement_poles(n: int, target_radius: float) -> np.ndarray:
    # Geometric spacing below the target keeps the poles distinct, which
    # single-input pole placement needs.
    return target_radius * 0.5 ** np.arange(n)


def _closed_form_gain(A: np.ndarray, B: np.ndarray, poles: np.ndarray) -> np.ndarray | None:
    """Gain K placing the real, distinct ``poles`` in A - B K, or None if not covered.

    The two closed-form branches of ``scipy.signal.place_poles`` (Kautsky,
    Nichols and Van Dooren, 1985), step for step: rank(B) = n is a least-
    squares solve, one input column of rank 1 builds each eigenvector from
    the kernel of u1^T (A - p I).  Raises ValueError (``LinAlgError``) when
    the poles cannot be placed, as scipy does; returns None for every other
    rank, which has to go to scipy's iteration.
    """
    n, m = B.shape
    rank = np.linalg.matrix_rank(B)
    poles = np.sort(poles)
    if rank == n:
        K = -np.linalg.lstsq(B, np.diag(poles) - A, rcond=-1)[0]
    elif rank == 1 and m == 1:
        u, z = np.linalg.qr(B, mode="complete")
        u0, u1 = u[:, :1], u[:, 1:]
        columns = []
        for p in poles:
            # the kernel of u1^T (A - p I) is one column, the last of its full Q
            x = np.linalg.qr(np.dot(u1.T, A - p * np.eye(n)).T, mode="complete")[0][:, -1]
            columns.append(x / np.linalg.norm(x))
        X = np.column_stack(columns).astype(complex)
        closed = np.linalg.solve(X.T, np.dot(np.diag(poles), X.T)).T
        K = np.real(-np.linalg.solve(z[:1], np.dot(u0.T, closed - A)))
    else:
        return None
    if not np.isfinite(K).all():
        # scipy's closing eigen-decomposition refuses a non-finite gain
        raise np.linalg.LinAlgError("the placed gain is not finite")
    return K


def stabilizing_gain(A: np.ndarray, B: np.ndarray, target_radius: float = 0.5) -> np.ndarray:
    """State-feedback gain K with spectral radius of (A - B K) at most the target.

    Pole placement at a geometric ladder under ``target_radius`` is tried
    first: in closed form when rank(B) is n (a least-squares solve) or B is
    one column (an eigenvector per pole from a QR kernel), through
    ``scipy.signal.place_poles`` otherwise.  A Riccati design with shrinking
    input weight covers pairs that placement rejects.  A pair whose
    uncontrollable modes already sit inside the target gets the zero gain.
    The result is always re-checked with ``spectral_radius`` before being
    returned.

    Raises SynthesisError, naming the offending eigenvalue, when some mode
    outside the target radius cannot be moved.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    m = B.shape[1]

    # PBH test: modes outside the target must be controllable.
    for lam in np.linalg.eigvals(A):
        if abs(lam) <= target_radius + 1e-12:
            continue
        pencil = np.hstack([lam * np.eye(n) - A, B.astype(complex)])
        if matrix_rank(pencil) < n:
            raise SynthesisError(
                f"eigenvalue {lam:.6g} lies outside the target radius "
                f"{target_radius:g} and cannot be relocated (rank defect in the "
                "controllability pencil)"
            )

    K = None
    if B.any():
        poles = _placement_poles(n, target_radius)
        try:
            K = _closed_form_gain(A, B, poles)
            if K is None:
                K = place_poles(A, B, poles).gain_matrix
        except ValueError:
            K = None
    if K is None and spectral_radius(A) <= target_radius + 1e-12:
        return np.zeros((m, n))
    if K is None:
        # Cheap input weight pushes the closed loop toward the deadbeat end.
        for weight in 10.0 ** -np.arange(0, 13):
            R = weight * np.eye(m)
            X = solve_discrete_are(A, B, np.eye(n), R)
            K = np.linalg.solve(R + B.T @ X @ B, B.T @ X @ A)
            if spectral_radius(A - B @ K) <= target_radius + 1e-9:
                break
        else:
            raise SynthesisError(
                f"no gain found with closed-loop radius <= {target_radius:g} "
                f"(best achieved {spectral_radius(A - B @ K):.6g})"
            )

    achieved = spectral_radius(A - B @ K)
    if achieved > target_radius + 1e-9:
        raise SynthesisError(
            f"synthesized gain misses the target radius: {achieved:.6g} > {target_radius:g}"
        )
    return K


def observer_gain(A: np.ndarray, C: np.ndarray, target_radius: float = 0.5) -> np.ndarray:
    """Output-injection gain L with spectral radius of (A - L C) at most the target.

    Dual of ``stabilizing_gain`` through transposition.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    return stabilizing_gain(A.T, C.T, target_radius).T
