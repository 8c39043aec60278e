"""Scenario files, the closed-loop runner, and trace persistence.

A scenario is a JSON document: the network matrices, the topology, the
design targets, an optional attack, and a threshold policy.  The runner
wires plant, attacker, observers, detection and accommodation together
with one fixed tick order and logs everything to a step-by-node trace
that serializes to CSV with 17-significant-digit floats, so reruns of the
same file are byte-identical.

Between alarm and decision events the closed loop is one linear system
over all nodes.  The runner keeps one augmented state
``[x; z; xhat_coop; replica]`` for the whole network and advances it with
one transition matrix per step.  Only what feeds back into the dynamics
runs per step as code: the alarms, the decisions, and the target's
accommodation, whose correction enters the next step through a rank-m
column block.  The states are kept per step; after the loop each linear
trace field is one product over all steps.  The tests hold the runner to
a node-by-node oracle (``tests/reference.py``).

Tick order (all quantities of step k before anything advances):

1. measurements, masked at the attacked node
2. decoupled estimates and received errors, residual norms
3. lagged aggregates and alarms
4. detection decisions (latching)
5. accommodation: least squares, window inversion, forward model
6. control laws
7. injection applied, plant and replica advance, observers advance
"""

from __future__ import annotations

import collections
import json
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .accommodation import (
    InputReconstructor,
    LsEstimator,
    build_ls_estimator,
    build_reconstructor,
    merge_kernel_component,
    neighbor_cancellation_gains,
    reconstruct_input,
)
from .detection import calibrate_thresholds
from .errors import ConfigurationError, ProtocolError
from .model import Subsystem, Topology, _finite, _vector
from .numerics import observer_gain, pseudo_inverse, stabilizing_gain
from .observers import UioDesign, design_uio

_SIGNAL_KINDS = ("constant", "sinusoid", "table")


@dataclass(frozen=True)
class AttackSpec:
    """Attack description: who, when, and what gets injected."""

    target: int
    onset: int
    signal: Callable[[int], np.ndarray]


@dataclass(frozen=True)
class ThresholdPolicy:
    """Either calibrate from an attack-free run or take explicit values."""

    mode: str = "calibrate"
    factor: float = 2.0
    floor: float = 1e-6
    window: tuple = (10, 20)
    values: dict = None


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    horizon: int
    control_radius: float
    observer_radius: float
    subsystems: Mapping[int, Subsystem]
    topology: Topology
    attack: AttackSpec
    thresholds: ThresholdPolicy
    reconstruction_window: int = None
    arm_step: int = None


def _signal_factory(desc: Mapping, m: int, onset: int, path: str) -> Callable[[int], np.ndarray]:
    kind = _mapping(desc, path).get("kind")
    if kind not in _SIGNAL_KINDS:
        raise ConfigurationError(f"{path}.kind: expected one of {_SIGNAL_KINDS}, got {kind!r}")

    def as_vec(value, label):
        return _finite(_vector(value, m, label), label)

    if kind == "constant":
        value = as_vec(_require(desc, "value", path), f"{path}.value")
        return lambda k: value.copy()
    if kind == "sinusoid":
        amplitude = as_vec(desc.get("amplitude", 1.0), f"{path}.amplitude")
        period = _number(desc.get("period", 0.0), float, f"{path}.period")
        if period <= 0:
            raise ConfigurationError(f"{path}.period: must be positive")
        phase = _number(desc.get("phase", 0.0), float, f"{path}.phase")
        return lambda k: amplitude * math.sin(2.0 * math.pi * (k - onset) / period + phase)
    # table
    raw = desc.get("values")
    if not isinstance(raw, list) or not raw:
        raise ConfigurationError(f"{path}.values: expected a non-empty list")
    rows = [as_vec(v, f"{path}.values[{idx}]") for idx, v in enumerate(raw)]
    after = desc.get("after", "hold")
    if after not in ("hold", "zero"):
        raise ConfigurationError(f"{path}.after: expected 'hold' or 'zero', got {after!r}")
    tail = rows[-1] if after == "hold" else np.zeros(m)

    def table(k):
        idx = k - onset
        if 0 <= idx < len(rows):
            return rows[idx].copy()
        return tail.copy()

    return table


def _require(doc: Mapping, key: str, path: str):
    if key not in doc:
        raise ConfigurationError(f"{path}.{key}: missing required field")
    return doc[key]


def _number(value, kind: type, label: str):
    """``kind(value)`` for a scenario field, or a ConfigurationError naming the field.

    A fractional number for an ``int`` field is an error, not a truncation
    (``100.0`` is fine), and so is a JSON boolean.
    """
    try:
        out = None if isinstance(value, bool) else kind(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or not math.isfinite(out) or (isinstance(value, float) and out != value):
        raise ConfigurationError(f"{label}: expected a finite {kind.__name__}, got {value!r}")
    return out


def _mapping(value, label: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ConfigurationError(f"{label}: expected an object")
    return value


def default_calibration_window(attack: AttackSpec, horizon: int) -> tuple:
    """``(min(10, hi), hi)`` with ``hi`` the attack onset, else ``min(20, horizon)``."""
    hi = attack.onset if attack is not None else min(20, horizon)
    return min(10, hi), hi


def load_scenario(source) -> ScenarioConfig:
    """Load and validate a scenario from a JSON file or an equivalent mapping.

    Every validation failure names the offending field.  Directed
    topologies (an edge without its reverse) load fine but draw a warning,
    since most physical couplings come in pairs.
    """
    if isinstance(source, Mapping):
        doc = source
        default_name = "scenario"
    else:
        path = Path(source)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigurationError(f"cannot read scenario file {path}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
        default_name = path.stem
    if not isinstance(doc, Mapping):
        raise ConfigurationError("scenario document: expected a JSON object at top level")

    name = str(doc.get("name", default_name))
    horizon = _number(doc.get("horizon", 100), int, "horizon")
    if horizon < 1:
        raise ConfigurationError(f"horizon: must be at least 1, got {horizon}")
    control_radius, observer_radius = (
        _number(doc.get(label, 0.5), float, label)
        for label in ("control_spectral_radius", "observer_spectral_radius")
    )
    for label, value in (("control_spectral_radius", control_radius),
                         ("observer_spectral_radius", observer_radius)):
        if not 0.0 < value < 1.0:
            raise ConfigurationError(f"{label}: must lie in (0, 1), got {value}")

    raw_subs = _require(doc, "subsystems", "scenario")
    if not isinstance(raw_subs, list) or not raw_subs:
        raise ConfigurationError("subsystems: expected a non-empty list")
    subsystems = {}
    for pos, entry in enumerate(raw_subs):
        tag = f"subsystems[{pos}]"
        _mapping(entry, tag)
        idx = _number(_require(entry, "index", tag), int, f"{tag}.index")
        if idx in subsystems:
            raise ConfigurationError(f"{tag}.index: duplicate index {idx}")
        subsystems[idx] = Subsystem(
            index=idx,
            A=_require(entry, "A", tag),
            B=_require(entry, "B", tag),
            C=_require(entry, "C", tag),
            x0=entry.get("x0"),
        )
    n_nodes = len(subsystems)
    if set(subsystems) != set(range(1, n_nodes + 1)):
        raise ConfigurationError(
            f"subsystems: indices must be exactly 1..{n_nodes}, got {sorted(subsystems)}"
        )

    raw_topo = _mapping(_require(doc, "topology", "scenario"), "topology")
    raw_nbrs = _mapping(_require(raw_topo, "neighbors", "topology"), "topology.neighbors")
    neighbors = {}
    for key, value in raw_nbrs.items():
        i = _number(key, int, "topology.neighbors")
        if not isinstance(value, list):
            raise ConfigurationError(f"topology.neighbors[{key}]: expected a list")
        neighbors[i] = tuple(_number(j, int, f"topology.neighbors[{key}]") for j in value)
    raw_coupling = _mapping(raw_topo.get("coupling", {}), "topology.coupling")
    default_block = raw_coupling.get("default")
    edges = raw_coupling.get("edges", [])
    overrides = {}
    if not isinstance(edges, list):
        raise ConfigurationError("topology.coupling.edges: expected a list")
    for pos, entry in enumerate(edges):
        tag = f"topology.coupling.edges[{pos}]"
        _mapping(entry, tag)
        i = _number(_require(entry, "i", tag), int, f"{tag}.i")
        j = _number(_require(entry, "j", tag), int, f"{tag}.j")
        overrides[(i, j)] = _require(entry, "matrix", tag)
    coupling = {}
    for i in sorted(neighbors):
        for j in neighbors[i]:
            block = overrides.pop((i, j), default_block)
            if block is None:
                raise ConfigurationError(
                    f"topology.coupling: no block for edge ({i},{j}) and no default given"
                )
            coupling[(i, j)] = block
    if overrides:
        extra = sorted(overrides)
        raise ConfigurationError(
            f"topology.coupling.edges: entries for non-edges {extra}"
        )
    topology = Topology(n_nodes=n_nodes, neighbors=neighbors, coupling=coupling)
    for (i, j), block in topology.coupling.items():
        want = (subsystems[i].n, subsystems[j].n)
        if block.shape != want:
            raise ConfigurationError(
                f"topology.coupling[({i},{j})]: expected shape {want[0]}x{want[1]}, "
                f"got {block.shape[0]}x{block.shape[1]}"
            )
    one_way = topology.one_way_pairs()
    if one_way:
        warnings.warn(
            f"scenario {name!r}: directed topology, edges without a reverse edge: {one_way}",
            RuntimeWarning,
            stacklevel=2,
        )

    attack = None
    raw_attack = doc.get("attack")
    if raw_attack is not None:
        _mapping(raw_attack, "attack")
        target = _number(_require(raw_attack, "target", "attack"), int, "attack.target")
        if target not in subsystems:
            raise ConfigurationError(f"attack.target: node {target} out of range 1..{n_nodes}")
        onset = _number(_require(raw_attack, "onset", "attack"), int, "attack.onset")
        if onset < 0:
            raise ConfigurationError(f"attack.onset: must be non-negative, got {onset}")
        if onset >= horizon:
            raise ConfigurationError(
                f"attack.onset: {onset} does not precede the horizon {horizon}"
            )
        raw_signal = _require(raw_attack, "signal", "attack")
        signal = _signal_factory(raw_signal, subsystems[target].m, onset, "attack.signal")
        attack = AttackSpec(target=target, onset=onset, signal=signal)

    raw_thresh = _mapping(doc.get("thresholds", {"mode": "calibrate"}), "thresholds")
    mode = raw_thresh.get("mode", "calibrate")
    if mode == "calibrate":
        window = raw_thresh.get("window", default_calibration_window(attack, horizon))
        if (not isinstance(window, (list, tuple))) or len(window) != 2:
            raise ConfigurationError("thresholds.window: expected [start, end]")
        lo, hi = (_number(v, int, "thresholds.window") for v in window)
        if lo < 0 or hi < lo:
            raise ConfigurationError(f"thresholds.window: bad window [{lo},{hi})")
        thresholds = ThresholdPolicy(
            mode="calibrate",
            factor=_number(raw_thresh.get("factor", 2.0), float, "thresholds.factor"),
            floor=_number(raw_thresh.get("floor", 1e-6), float, "thresholds.floor"),
            window=(lo, hi),
        )
        if thresholds.factor <= 0:
            raise ConfigurationError("thresholds.factor: must be positive")
        if thresholds.floor < 0:
            raise ConfigurationError("thresholds.floor: must be non-negative")
    elif mode == "explicit":
        raw_values = _mapping(_require(raw_thresh, "values", "thresholds"), "thresholds.values")
        values = {}
        for key, val in raw_values.items():
            i = _number(key, int, "thresholds.values")
            if i not in subsystems:
                raise ConfigurationError(f"thresholds.values: node {i} out of range")
            values[i] = _number(val, float, f"thresholds.values[{i}]")
            if values[i] <= 0:
                raise ConfigurationError(f"thresholds.values[{i}]: must be positive")
        missing = sorted(set(subsystems) - set(values))
        if missing:
            raise ConfigurationError(f"thresholds.values: missing nodes {missing}")
        thresholds = ThresholdPolicy(mode="explicit", values=values)
    else:
        raise ConfigurationError(f"thresholds.mode: expected 'calibrate' or 'explicit', got {mode!r}")

    recon_window = doc.get("reconstruction_window")
    if recon_window is not None:
        recon_window = _number(recon_window, int, "reconstruction_window")
        if recon_window < 1:
            raise ConfigurationError(f"reconstruction_window: must be positive, got {recon_window}")
    arm_step = doc.get("arm_step")
    if arm_step is not None:
        arm_step = _number(arm_step, int, "arm_step")
        if arm_step < 0:
            raise ConfigurationError(f"arm_step: must be non-negative, got {arm_step}")

    return ScenarioConfig(
        name=name,
        horizon=horizon,
        control_radius=control_radius,
        observer_radius=observer_radius,
        subsystems=subsystems,
        topology=topology,
        attack=attack,
        thresholds=thresholds,
        reconstruction_window=recon_window,
        arm_step=arm_step,
    )


@dataclass(frozen=True)
class NodeDesign:
    """Everything synthesized for one node before the run starts."""

    uio: UioDesign
    coop_gain: np.ndarray
    coop_transition: np.ndarray
    feedback_gain: np.ndarray
    neighbor_gains: Mapping[int, np.ndarray]
    C_pinv: np.ndarray
    ls: LsEstimator = None
    recon: InputReconstructor = None


def build_designs(config: ScenarioConfig) -> dict:
    """Synthesize observers, gains and the accommodation pieces for every node.

    Synthesis failures surface here, before any simulation step.
    """
    designs = {}
    for i in sorted(config.subsystems):
        sub = config.subsystems[i]
        inbound = config.topology.inbound(i)
        blocks = [config.topology.coupling[(i, j)] for j in inbound]
        uio = design_uio(sub, blocks, config.observer_radius)
        L = observer_gain(sub.A, sub.C, config.observer_radius)
        inbound_coupling = {j: config.topology.coupling[(i, j)] for j in inbound}
        ls = None
        recon = None
        if config.attack is not None and i == config.attack.target:
            ls = build_ls_estimator(config.topology, i, sub.n)
            recon = build_reconstructor(
                sub.A, sub.B, ls.projection, window=config.reconstruction_window
            )
        designs[i] = NodeDesign(
            uio=uio,
            coop_gain=L,
            coop_transition=sub.A - L @ sub.C,
            # synthesized for x+ = A x - B K x; the control law adds, so negate
            feedback_gain=-stabilizing_gain(sub.A, sub.B, config.control_radius),
            neighbor_gains=neighbor_cancellation_gains(sub.B, inbound_coupling),
            C_pinv=pseudo_inverse(sub.C),
            ls=ls,
            recon=recon,
        )
    return designs


_VECTOR_FIELDS = (
    ("x", "n"),
    ("xa", "n"),
    ("xhat_loc", "n"),
    ("xhat_coop", "n"),
    ("ymeas", "p"),
    ("u", "m"),
    ("u_applied", "m"),
    ("inj", "m"),
    ("inj_hat", "m"),
    ("xa_ls", "n"),
    ("xa_pub", "n"),
    ("xa_fwd", "n"),
    ("alarm", "n"),
)
_SCALAR_FIELDS = ("resid_loc", "resid_coop", "alarm_on", "decided", "phase")
_INT_FIELDS = {"alarm_on", "decided", "phase"}

# Rows per write in ScenarioTrace.to_csv: enough to amortize the formatting
# call, few enough that the text never weighs on peak memory.
_CSV_CHUNK_ROWS = 4096


def _column_index(subsystems: Mapping[int, Subsystem]) -> dict:
    """Where each field sits in a node's rows of the trace table.

    A node's row holds step and node in columns 0 and 1, then its vector
    fields at its own dimensions, then the scalar fields, with no gaps:
    ``{node: {field: slice for a vector field, column for a scalar}}``.
    Columns past a smaller node's last scalar stay zero.
    """
    index = {}
    for i in sorted(subsystems):
        col = 2
        cols = {}
        for fieldname, attr in _VECTOR_FIELDS:
            dim = getattr(subsystems[i], attr)
            cols[fieldname] = slice(col, col + dim)
            col += dim
        for col, fieldname in enumerate(_SCALAR_FIELDS, start=col):
            cols[fieldname] = col
        index[i] = cols
    return index


def _column_label(cols: Mapping[str, object], col: int) -> str:
    """The CSV column name of a field's table column in one node's rows."""
    for fieldname, where in cols.items():
        if isinstance(where, slice) and where.start <= col < where.stop:
            return f"{fieldname}{col - where.start + 1}"
        if where == col:
            return fieldname


@dataclass
class ScenarioTrace:
    """Full per-step, per-node log of one run.

    ``table`` is a read-only float array with one row per (step, node),
    step-major like the CSV; ``index[node]`` locates each field in that
    node's rows (see ``_column_index``).  ``series(i, field)`` is a
    read-only view of shape (horizon, dim) for vector fields or (horizon,)
    for scalars; the int fields come back as floats holding integers.
    """

    name: str
    horizon: int
    nodes: tuple
    table: np.ndarray
    index: dict
    thresholds: dict
    arm_step: int
    decision_steps: dict
    designs: dict
    config: ScenarioConfig

    def series(self, node: int, fieldname: str) -> np.ndarray:
        cols = self.index[node][fieldname]
        return self.table[self.nodes.index(node)::len(self.nodes), cols]

    def _widths(self) -> dict:
        """Columns per vector field: the largest node's dimension."""
        return {
            fieldname: max(self.series(i, fieldname).shape[1] for i in self.nodes)
            for fieldname, _ in _VECTOR_FIELDS
        }

    def column_names(self) -> list:
        names = ["step", "node"]
        for fieldname, width in self._widths().items():
            names.extend(f"{fieldname}{c + 1}" for c in range(width))
        names.extend(_SCALAR_FIELDS)
        return names

    def to_csv(self, path) -> None:
        """Write the trace as ``csv.writer`` would write ``column_names()`` and the rows.

        Floats at 17 significant digits, step, node and the int fields as
        integers, an empty cell wherever a node's vector is shorter than the
        widest, ``\\r\\n`` line ends.  Each node has one ``%``-format string;
        the file is written a chunk of steps at a time.
        """
        n_nodes = len(self.nodes)
        widths = self._widths()
        formats = []
        for i in self.nodes:
            cells = ["%d", "%d"]
            for fieldname, _ in _VECTOR_FIELDS:
                dim = self.series(i, fieldname).shape[1]
                cells += ["%.17g"] * dim + [""] * (widths[fieldname] - dim)
            cells += ["%d" if f in _INT_FIELDS else "%.17g" for f in _SCALAR_FIELDS]
            formats.append(",".join(cells) + "\r\n")
        step_format = "".join(formats)
        # the table cells the formats consume: each node's row up to its last scalar
        last = np.array([[self.index[i][_SCALAR_FIELDS[-1]]] for i in self.nodes])
        used = np.arange(self.table.shape[1]) <= last
        chunk = max(1, _CSV_CHUNK_ROWS // n_nodes)
        with open(path, "w", newline="") as handle:
            handle.write(",".join(self.column_names()) + "\r\n")
            for k in range(0, self.horizon, chunk):
                steps = min(chunk, self.horizon - k)
                block = self.table[k * n_nodes:(k + steps) * n_nodes]
                cells = block[np.tile(used, (steps, 1))].tolist()
                handle.write((step_format * steps) % tuple(cells))


def _resolve_thresholds(config: ScenarioConfig, designs: dict) -> tuple:
    """Thresholds plus the arming step, calibrating on an attack-free run if asked.

    The rehearsal stops at the calibration window's end: the run is causal,
    so later steps cannot change the residuals the window reads.
    """
    policy = config.thresholds
    if policy.mode == "explicit":
        arm = config.arm_step if config.arm_step is not None else 0
        return dict(policy.values), arm
    quiet = replace(
        config,
        attack=None,
        name=f"{config.name}-calibration",
        horizon=min(config.horizon, policy.window[1]),
    )
    trace = _simulate(quiet, designs, {}, 0)
    history = {i: trace.series(i, "resid_coop") for i in trace.nodes}
    values = calibrate_thresholds(
        history, factor=policy.factor, floor=policy.floor, window=policy.window
    )
    arm = config.arm_step if config.arm_step is not None else policy.window[1]
    return values, arm


def run(config: ScenarioConfig, detect: bool = True) -> ScenarioTrace:
    """Run a scenario end to end and return the trace.

    ``detect=False`` runs without thresholds (useful for twin comparisons):
    every threshold is infinite, so no alarm rises, no node decides and
    accommodation never starts.  The calibration rehearsal is skipped, so
    such a trace reports ``inf`` for every node's threshold and 0 for
    ``arm_step``.
    """
    designs = build_designs(config)
    if not detect:
        return _simulate(config, designs, {}, 0)
    thresholds, arm_step = _resolve_thresholds(config, designs)
    return _simulate(config, designs, thresholds, arm_step)


def _stacked(nodes: tuple, rows: Mapping, cols: Mapping, block: Callable) -> np.ndarray:
    """Dense matrix holding ``block(i)[j]`` at row segment ``rows[i]``, column segment ``cols[j]``."""
    out = np.zeros((rows[nodes[-1]].stop, cols[nodes[-1]].stop))
    for i in nodes:
        for j, mat in block(i).items():
            out[rows[i], cols[j]] = mat
    return out


def _check_finite(rows: np.ndarray, index: dict, nodes: tuple) -> None:
    """Raise ProtocolError naming the first non-finite value in leading trace-table rows."""
    finite = np.isfinite(rows)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        k, pos = divmod(int(row), len(nodes))
        raise ProtocolError(
            f"non-finite {_column_label(index[nodes[pos]], int(col))} on node {nodes[pos]} "
            f"at step {k}; the run diverged"
        )


@dataclass(frozen=True)
class _Maps:
    """Maps of the augmented state ``s = [x; z; xhat_coop; replica]`` (see ``_simulate``).

    ``Es``, ``Ys``, ``XLs`` and ``Us`` give the received error, the masked
    measurements, ``xhat_loc`` and the control before its accommodation
    correction.  ``G`` and ``C`` are the block-diagonal cooperative
    transition and output matrix.
    """

    Es: np.ndarray
    Ys: np.ndarray
    XLs: np.ndarray
    Us: np.ndarray
    G: np.ndarray
    C: np.ndarray


def _operator(config: ScenarioConfig, designs: dict, nodes: tuple, seg: dict) -> tuple:
    """The augmented loop from block matrices over all nodes: ``(M, correct, inject, maps)``.

    ``M`` advances ``s`` by one step.  The attack's two input column blocks
    (None without an attack) are ``correct``, through which the target's
    control correction ``K_t xa_pub - inj_hat`` enters, and ``inject``, the
    injection.  ``maps`` holds the output maps (``_Maps``).  A
    block-diagonal factor is applied node by node (``diagonal_times``)
    instead of as a dense matrix, which most of a large network's products
    would spend on zeros.
    """
    subsystems, topology, attack = config.subsystems, config.topology, config.attack

    def diagonal(rows, cols, block):
        return _stacked(nodes, seg[rows], seg[cols], lambda i: {i: block(i)})

    def diagonal_times(rows, cols, block, X):
        """``diagonal(rows, cols, block) @ X`` without the dense diagonal."""
        out = np.empty((seg[rows][nodes[-1]].stop, X.shape[1]))
        for i in nodes:
            out[seg[rows][i]] = block(i) @ X[seg[cols][i]]
        return out

    A = diagonal("n", "n", lambda i: subsystems[i].A)
    C = diagonal("p", "n", lambda i: subsystems[i].C)
    coupling = _stacked(
        nodes, seg["n"], seg["n"],
        lambda i: {j: topology.coupling[(i, j)] for j in topology.inbound(i)},
    )
    n_total, p_total = C.shape[1], C.shape[0]
    replica = subsystems[attack.target] if attack is not None else None
    dim = 3 * n_total + (replica.n if replica is not None else 0)
    xs, zs, cs = (slice(b * n_total, (b + 1) * n_total) for b in range(3))
    rs = slice(3 * n_total, dim)

    Ys = np.zeros((p_total, dim))  # y, the replica's output subtracted at the target
    Ys[:, xs] = C
    if replica is not None:
        Ys[seg["p"][attack.target], rs] = -replica.C
    XLs = diagonal_times("n", "p", lambda i: designs[i].uio.H, Ys)  # xhat_loc = z + H y
    XLs[:, zs] += np.eye(n_total)
    innovation = Ys.copy()  # y - C xhat_coop
    innovation[:, cs] -= C
    KN = diagonal("m", "n", lambda i: designs[i].feedback_gain)
    KN += _stacked(nodes, seg["m"], seg["n"], lambda i: designs[i].neighbor_gains)
    Us = KN @ XLs  # u = K xhat_loc + N xhat_loc, before the correction

    def T_times(X):
        return diagonal_times("n", "n", lambda i: designs[i].uio.T, X)

    BU = diagonal_times("n", "m", lambda i: subsystems[i].B, Us)
    M = np.zeros((dim, dim))
    M[xs] = BU  # x+ = A x + coupling x + B (u + injection)
    M[xs, xs] += A + coupling
    M[zs] = T_times(BU)  # z+ = F z + T B u + K_uio y
    M[zs] += diagonal_times("n", "p", lambda i: designs[i].uio.K1 + designs[i].uio.K2, Ys)
    M[zs, zs] += diagonal("n", "n", lambda i: designs[i].uio.F)
    M[cs] = BU  # xhat_coop+ = A xhat_coop + B u + L innovation + coupling xhat_loc
    M[cs] += diagonal_times("n", "p", lambda i: designs[i].coop_gain, innovation)
    M[cs] += coupling @ XLs
    M[cs, cs] += A
    correct = inject = None
    if replica is not None:
        M[rs, rs] = replica.A  # replica+ = A_t replica + B_t injection
        B_t = np.zeros((n_total, replica.m))
        B_t[seg["n"][attack.target]] = replica.B
        correct = np.vstack([B_t, T_times(B_t), B_t, np.zeros((replica.n, replica.m))])
        inject = np.zeros((dim, replica.m))
        inject[xs] = B_t
        inject[rs] = replica.B
    Es = diagonal_times("n", "p", lambda i: designs[i].C_pinv, innovation)
    G = diagonal("n", "n", lambda i: designs[i].coop_transition)
    maps = _Maps(Es=Es, Ys=Ys, XLs=XLs, Us=Us, G=G, C=C)
    return M, correct, inject, maps


def _simulate(
    config: ScenarioConfig, designs: dict, thresholds: dict, arm_step: int
) -> ScenarioTrace:
    """One closed-loop run; a node missing from ``thresholds`` never alarms.

    The loop state is one augmented vector ``s = [x; z; xhat_coop; replica]``:
    the plant, observer and cooperative-estimate vectors stacked over all
    nodes (each node's entries at its own dimensions, in node order), then
    the attacker's replica of the target.  One transition matrix ``M``,
    built once per call by ``_operator``, advances it; the target's
    accommodation correction and the injection enter through two column
    blocks of rank m.  Each step does only the work whose result feeds back
    into the dynamics: the received errors ``Es @ s`` and the alarms once
    armed, the decisions, and on the target after its decision the least
    squares, the window inversion and the forward model.  The states are
    stored per step, and after the loop every linear trace field is one
    product over all steps, written straight into the trace table.  The
    attack signal is evaluated once, before the first step.
    """
    subsystems = config.subsystems
    topology = config.topology
    nodes = tuple(sorted(subsystems))
    n_nodes = len(nodes)
    horizon = config.horizon

    # seg[dim][i]: node i's entries in a stacked vector of dimension "n", "m" or "p"
    seg = {}
    for dim in "nmp":
        sizes = [getattr(subsystems[i], dim) for i in nodes]
        stops = np.cumsum(sizes).tolist()
        seg[dim] = {i: slice(stop - size, stop) for i, size, stop in zip(nodes, sizes, stops)}
    n_sizes = [subsystems[i].n for i in nodes]
    n_starts = [seg["n"][i].start for i in nodes]
    p_starts = [seg["p"][i].start for i in nodes]
    n_total = seg["n"][nodes[-1]].stop
    # inbound[i, j]: node j's alarm is a witness for node i
    inbound = np.array([[j in topology.inbound(i) for j in nodes] for i in nodes])
    witnessed = inbound.any(axis=1)
    threshold = np.array([thresholds.get(i, math.inf) for i in nodes])
    # the node each entry of a stacked n-vector belongs to, by position
    entry_node = np.repeat(np.arange(n_nodes), n_sizes)

    attack = config.attack
    if attack is not None:
        target, onset = attack.target, attack.onset
        tpos = nodes.index(target)
        tn, tm = seg["n"][target], seg["m"][target]
        victim = subsystems[target]
        d = designs[target]
        if onset < 0:
            raise ConfigurationError(
                f"attacker on node {target}: onset must be non-negative, got {onset}"
            )
        injection = np.zeros((horizon, victim.m))
        for k in range(onset, horizon):
            injection[k] = _vector(attack.signal(k), victim.m, f"attacker signal at step {k}")
        # the target's sources and their payload entries, ascending like the estimator's
        src_pos = [nodes.index(j) for j in d.ls.sources]
        src_idx = np.flatnonzero(np.isin(entry_node, src_pos))
        # consecutive replica-state estimates, oldest first, for the window inversion
        samples = collections.deque(maxlen=d.recon.window + 1)
        forward = np.zeros(victim.n)

    M, correct, inject, maps = _operator(config, designs, nodes, seg)
    Es, G = maps.Es, maps.G
    dim = M.shape[0]
    xs, cs, rs = slice(0, n_total), slice(2 * n_total, 3 * n_total), slice(3 * n_total, dim)

    # per-step logs of what the states do not give
    states = np.empty((horizon, dim))
    alarms = np.zeros((horizon, n_total))
    alarm_on = np.zeros((horizon, n_nodes))
    decided_step = np.full(n_nodes, -1)
    n_decided = 0
    if attack is not None:
        inj_hat = np.zeros((horizon, victim.m))
        xa_ls, xa_pub, xa_fwd = np.zeros((3, horizon, victim.n))
        phase = np.zeros(horizon)

    index = _column_index(subsystems)
    width = max(index[i][_SCALAR_FIELDS[-1]] for i in nodes) + 1
    # dest[field]: where each entry of the field, stacked over nodes, lands in one step's rows
    dest = {
        fieldname: np.array([
            pos * width + col
            for pos, i in enumerate(nodes)
            for col in range(index[i][fieldname].start, index[i][fieldname].stop)
        ])
        for fieldname, _ in _VECTOR_FIELDS
    }
    dest.update({f: np.array([pos * width + index[i][f] for pos, i in enumerate(nodes)])
                 for f in _SCALAR_FIELDS})

    def log(steps: int) -> np.ndarray:
        """The trace table of steps 0..steps-1, one product per linear field."""
        table = np.zeros((steps * n_nodes, width))
        table[:, 0] = np.repeat(np.arange(steps), n_nodes)
        table[:, 1] = np.tile(nodes, steps)
        rows, past = table.reshape(steps, n_nodes * width), states[:steps]
        y, xhat_loc, u = past @ maps.Ys.T, past @ maps.XLs.T, past @ maps.Us.T
        rows[:, dest["x"]] = past[:, xs]
        rows[:, dest["xhat_loc"]] = xhat_loc
        rows[:, dest["xhat_coop"]] = past[:, cs]
        rows[:, dest["ymeas"]] = y
        rows[:, dest["alarm"]] = alarms[:steps]
        rows[:, dest["resid_loc"]] = np.sqrt(
            np.add.reduceat((y - xhat_loc @ maps.C.T) ** 2, p_starts, axis=1))
        rows[:, dest["resid_coop"]] = np.sqrt(
            np.add.reduceat((past @ Es.T) ** 2, n_starts, axis=1))
        rows[:, dest["alarm_on"]] = alarm_on[:steps]
        rows[:, dest["decided"]] = (decided_step >= 0) & (np.arange(steps)[:, None] >= decided_step)
        if attack is not None:
            u[:, tm] += xa_pub[:steps] @ d.feedback_gain.T - inj_hat[:steps]
            for fieldname, block, where in (
                ("xa", states[:, rs], tn), ("inj", injection, tm), ("inj_hat", inj_hat, tm),
                ("xa_ls", xa_ls, tn), ("xa_pub", xa_pub, tn), ("xa_fwd", xa_fwd, tn),
            ):
                rows[:, dest[fieldname][where]] = block[:steps]
            rows[:, dest["phase"][tpos]] = phase[:steps]
        rows[:, dest["u"]] = u
        if attack is not None:
            u[:, tm] += injection[:steps]
        rows[:, dest["u_applied"]] = u
        return table

    armed_from = max(arm_step, 1) if np.isfinite(threshold).any() else horizon
    s = np.concatenate([subsystems[i].x0 for i in nodes] + [np.zeros(dim - n_total)])
    err_prev = None
    for k in range(horizon):
        states[k] = s

        # 1-3. received errors and alarms.  A node is loud when its
        # received-error norm is strictly above its threshold, from the arm
        # step on and once two error samples exist.  A loud node's payload is
        # the lagged aggregate err(k) - G err(k-1): what the coupling pushed
        # into its received error at step k-1.  A quiet node sends zeros; an
        # alarm is on when its payload is nonzero.
        if k >= armed_from:
            err = Es @ s
            if err_prev is None:
                err_prev = Es @ states[k - 1]
            loud = np.sqrt(np.add.reduceat(err * err, n_starts)) > threshold
            if loud.any():
                alarm = np.where(loud[entry_node], err - G @ err_prev, 0.0)
                active = np.logical_or.reduceat(alarm != 0, n_starts)
                alarms[k] = alarm
                alarm_on[k] = active
                # 4. decisions, latching.  A node decides "attacked" when the
                # alarm of every inbound neighbor is on; a node without
                # inbound neighbors has no witnesses and never decides.
                new = (decided_step < 0) & witnessed & ~(inbound & ~active).any(axis=1)
                if new.any():
                    decided_step[new] = k
                    n_decided = int(np.count_nonzero(decided_step >= 0))
            err_prev = err

        # 5. accommodation on the target, from the step after its decision
        correction = None
        if attack is not None and 0 <= decided_step[tpos] < k:
            if n_decided > 1:
                _check_finite(log(k), index, nodes)
                decided_nodes = [nodes[pos] for pos in np.flatnonzero(decided_step >= 0)]
                raise ProtocolError(
                    f"nodes {decided_nodes} decided 'attacked'; the alarm payloads "
                    "superpose and accommodation supports a single attacked node"
                )
            if src_pos and alarm_on[k, src_pos].all():
                value = d.ls.stack_pinv @ alarms[k, src_idx]
                xa_ls[k] = value
                samples.append(value)
            else:
                samples.clear()
            estimate, ready = reconstruct_input(d.recon, samples)
            phase[k] = 2 if ready else 1
            if ready:
                forward = d.recon.A @ forward + d.recon.B @ estimate
                xa_pub[k] = merge_kernel_component(d.ls.projection, value, forward)
                inj_hat[k], xa_fwd[k] = estimate, forward
                correction = d.feedback_gain @ xa_pub[k] - estimate

        # 6-7. control, injection and advance
        s = M @ s
        if correction is not None:
            s += correct @ correction
        if attack is not None and k >= onset:
            s += inject @ injection[k]

    del M  # the largest array; logging does not need it
    table = log(horizon)
    _check_finite(table, index, nodes)
    table.flags.writeable = False
    return ScenarioTrace(
        name=config.name,
        horizon=horizon,
        nodes=nodes,
        table=table,
        index=index,
        thresholds={i: thresholds.get(i, math.inf) for i in nodes},
        arm_step=arm_step,
        decision_steps={i: (k if k >= 0 else None) for i, k in zip(nodes, decided_step.tolist())},
        designs=designs,
        config=config,
    )
