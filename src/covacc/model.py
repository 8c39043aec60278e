"""The network model: linear subsystems and their directed coupling.

The plant is a directed network of linear subsystems

    x_i(k+1) = A_i x_i(k) + B_i u_i(k) + sum over inbound neighbors j of A_ij x_j(k)
    y_i(k)   = C_i x_i(k)

updated synchronously: every next state is computed from the common
pre-step snapshot, which makes the network exactly the stacked global
linear system that ``scenario.run`` advances.

The covert attacker on one node feeds a private replica of the node's
model with whatever it injects at the actuator and subtracts the replica's
output from the node's measurements, which therefore evolve as if nothing
had been injected: local detection is impossible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigurationError


def _has_bool(value) -> bool:
    """Whether a nested list (or array) holds a boolean, which numpy would read as 0 or 1."""
    if isinstance(value, np.ndarray):
        return value.dtype == bool
    if isinstance(value, (list, tuple)):
        return any(_has_bool(v) for v in value)
    return isinstance(value, (bool, np.bool_))


def _floats(value, label: str) -> np.ndarray:
    if _has_bool(value):
        raise ConfigurationError(f"{label}: expected numbers, got a boolean")
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{label}: expected numbers: {exc}") from None


def _number(value, kind: type, label: str):
    """``kind(value)`` for a scenario field, or a ConfigurationError naming the field.

    A fractional number for an ``int`` field is an error, not a truncation
    (``100.0`` is fine), and so is a boolean.
    """
    try:
        out = None if isinstance(value, bool) else kind(value)
        finite = out is not None and math.isfinite(out)
    except (TypeError, ValueError, OverflowError):  # an int past the float range overflows
        finite = False
    if not finite or (isinstance(value, float) and out != value):
        raise ConfigurationError(f"{label}: expected a finite {kind.__name__}, got {value!r}")
    return out


def _finite(arr: np.ndarray, label: str) -> np.ndarray:
    """Load-time guard; the per-step conversions skip it."""
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{label}: entries must be finite")
    return arr


def _matrix(value, label: str) -> np.ndarray:
    arr = np.atleast_2d(_floats(value, label))
    if arr.ndim != 2:
        raise ConfigurationError(f"{label}: expected a matrix, got ndim={arr.ndim}")
    return _finite(arr, label)


def _vector(value, dim: int, label: str) -> np.ndarray:
    arr = np.atleast_1d(_floats(value, label))
    if arr.shape != (dim,):
        raise ConfigurationError(f"{label}: expected length {dim}, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Subsystem:
    """One node of the network."""

    index: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    x0: np.ndarray = None

    def __post_init__(self):
        index = _number(self.index, int, "subsystem.index")
        tag = f"subsystem {index}"
        A = _matrix(self.A, f"{tag}.A")
        if A.shape[0] != A.shape[1] or A.shape[0] < 1:
            raise ConfigurationError(f"{tag}.A: expected square, got {A.shape}")
        n = A.shape[0]
        B = _matrix(self.B, f"{tag}.B")
        if B.shape[0] != n or B.shape[1] < 1:
            raise ConfigurationError(f"{tag}.B: expected {n} rows, got {B.shape}")
        C = _matrix(self.C, f"{tag}.C")
        if C.shape[1] != n or C.shape[0] < 1:
            raise ConfigurationError(f"{tag}.C: expected {n} columns, got {C.shape}")
        x0 = np.zeros(n) if self.x0 is None else _vector(self.x0, n, f"{tag}.x0")
        _finite(x0, f"{tag}.x0")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "x0", x0)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class Topology:
    """Directed neighbor structure with one coupling block per inbound edge.

    ``neighbors[i]`` lists the nodes whose states feed node i;
    ``coupling[(i, j)]`` is the block applied to x_j inside node i's update.
    Edges are directed: j feeding i says nothing about i feeding j.
    """

    n_nodes: int
    neighbors: Mapping[int, tuple]
    coupling: Mapping[tuple, np.ndarray]

    def __post_init__(self):
        n_nodes = _number(self.n_nodes, int, "topology.n_nodes")
        if n_nodes < 1:
            raise ConfigurationError(f"topology: n_nodes must be positive, got {n_nodes}")
        object.__setattr__(self, "n_nodes", n_nodes)
        nodes = set(range(1, n_nodes + 1))
        neighbors = {}
        raw = {_number(i, int, "topology.neighbors"): nbrs for i, nbrs in self.neighbors.items()}
        for i in sorted(raw):
            if i not in nodes:
                raise ConfigurationError(f"topology.neighbors: node {i} out of range 1..{self.n_nodes}")
            seen = []
            for j in raw[i]:
                j = _number(j, int, f"topology.neighbors[{i}]")
                if j not in nodes:
                    raise ConfigurationError(
                        f"topology.neighbors[{i}]: neighbor {j} out of range 1..{self.n_nodes}"
                    )
                if j == i:
                    raise ConfigurationError(f"topology.neighbors[{i}]: self-loop not allowed")
                if j in seen:
                    raise ConfigurationError(f"topology.neighbors[{i}]: duplicate neighbor {j}")
                seen.append(j)
            neighbors[i] = tuple(seen)
        if set(neighbors) != nodes:
            missing = sorted(nodes - set(neighbors))
            raise ConfigurationError(f"topology.neighbors: missing entries for nodes {missing}")
        coupling = {}
        for key in self.coupling:
            i, j = (_number(end, int, "topology.coupling") for end in key)
            if j not in neighbors.get(i, ()):
                raise ConfigurationError(
                    f"topology.coupling[({i},{j})]: ({i},{j}) is not an edge of the neighbor sets"
                )
            coupling[(i, j)] = _matrix(self.coupling[key], f"topology.coupling[({i},{j})]")
        for i, nbrs in neighbors.items():
            for j in nbrs:
                if (i, j) not in coupling:
                    raise ConfigurationError(f"topology.coupling: no block for edge ({i},{j})")
        object.__setattr__(self, "neighbors", neighbors)
        object.__setattr__(self, "coupling", coupling)

    def inbound(self, i: int) -> tuple:
        """Nodes whose states feed node i, in declaration order."""
        return self.neighbors[i]

    def sources(self, i: int) -> tuple:
        """Nodes that receive node i's state through their own coupling, ascending."""
        return tuple(sorted(j for j in self.neighbors if i in self.neighbors[j]))

    def outbound_stack(self, i: int, state_dim: int) -> np.ndarray:
        """Vertical stack of the blocks through which node i's state reaches others.

        Rows follow ``sources(i)`` order.  Empty (0 x state_dim) when nobody
        listens to node i.
        """
        blocks = [self.coupling[(j, i)] for j in self.sources(i)]
        if not blocks:
            return np.zeros((0, state_dim))
        return np.vstack(blocks)

    def one_way_pairs(self) -> list:
        """Directed edges whose reverse edge is absent."""
        return [
            (i, j)
            for i in sorted(self.neighbors)
            for j in self.neighbors[i]
            if i not in self.neighbors[j]
        ]
