"""Scenario files, the closed-loop runner, and trace persistence.

A scenario is a JSON document: the network matrices, the topology, the
design targets, an optional attack, and a threshold policy.  The runner
wires plant, attacker, observers, detection and accommodation together
with one fixed tick order and logs everything to a step-by-node trace
that serializes to CSV with 17-significant-digit floats, so reruns of the
same file are byte-identical.

Between alarm and decision events the closed loop is one linear system
over all nodes, the target's accommodation included.  The runner keeps
one augmented state for the whole network (plant, observers, cooperative
estimates, the attacker's replica and the target's accommodation state)
and one transition matrix, built node by node from each node's design
and its inbound edges.  The dynamics have two modes: once the
accommodation window is full, each step adds one fixed low-rank update.
The runner advances the state in blocks of steps.  A small operator is
lifted: one product with the mode's stacked powers per block (16 steps on
the bundled scenarios).  One too large to lift (a 100-node grid) is
stepped through its nonzeros one step at a time, in blocks of 64.  Each
block writes its states, received errors and their norms for the whole
horizon, and three readers share them: the calibration rehearsal (the
same stepper, attack-free, up to the window end), the block's alarms,
which are arrays, and the log.  Only the decisions and the count of
samples in the window run step by step, and the block is cut at the
first step whose mode differs.  The tests hold the runner to a
node-by-node oracle (``tests/reference.py``).

Tick order (all quantities of step k before anything advances):

1. measurements, masked at the attacked node
2. decoupled estimates and received errors, residual norms
3. lagged aggregates and alarms
4. detection decisions (latching): unanimity of the inbound alarms, and
   the sources' payloads fit the node's outbound stack
5. accommodation: least squares, window inversion, forward model, all
   rows of the operator; the step only counts the window's fill, which
   sets the mode
6. control laws
7. injection applied, plant and replica advance, observers advance
"""

from __future__ import annotations

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
    neighbor_cancellation_gains,
)
from .detection import calibrate_thresholds
from .errors import ConfigurationError, ProtocolError, SynthesisError
from .model import Subsystem, Topology, _finite, _number, _vector
from .numerics import observer_gain, pseudo_inverse, stabilizing_gain
from .observers import UioDesign, design_uio

_SIGNAL_KINDS = ("constant", "sinusoid", "table")

# A node decides only if its sources' alarm payloads fit its outbound stack
# to this relative residual.  On grid seeds 0-149 the attacked node's fit is
# exact up to rounding (at most 3.2e-15), while a node that only shares the
# target's inbound alarms misses by at least 6.5e-3.
_FIT_RTOL = 1e-8

# (field, scenario key, type) of the number fields; the last two may be None
_NUMBER_FIELDS = (
    ("horizon", "horizon", int),
    ("control_radius", "control_spectral_radius", float),
    ("observer_radius", "observer_spectral_radius", float),
    ("reconstruction_window", "reconstruction_window", int),
    ("arm_step", "arm_step", int),
)


@dataclass(frozen=True)
class AttackSpec:
    """Attack description: who, when, and what gets injected."""

    target: int
    onset: int
    signal: Callable[[int], np.ndarray]


@dataclass(frozen=True)
class ThresholdPolicy:
    """Explicit ``values`` (one threshold per node), or calibrate when ``values`` is None.

    Calibration rehearses the run without the attack and sets each node's
    threshold to ``factor`` times its worst received-error norm over
    ``window``, plus ``floor`` (``detection.calibrate_thresholds``).  A
    ``window`` of None takes the scenario's default (``ScenarioConfig``).
    """

    factor: float = 2.0
    floor: float = 1e-6
    window: tuple = None
    values: dict = None


@dataclass(frozen=True)
class ScenarioConfig:
    """A whole scenario; ``__post_init__`` holds every check of its fields.

    ``load_scenario``, the constructor and ``dataclasses.replace`` all meet
    it.  Numbers are typed as the loader types them (``"30"`` and ``30.0``
    are a horizon of 30) and stored so.  A policy without a window gets
    ``(min(10, hi), hi)``, where ``hi`` is the onset, or
    ``min(20, horizon)`` without an attack.
    """

    name: str
    subsystems: Mapping[int, Subsystem]
    topology: Topology
    horizon: int = 100
    control_radius: float = 0.5
    observer_radius: float = 0.5
    attack: AttackSpec = None
    thresholds: ThresholdPolicy = ThresholdPolicy()
    reconstruction_window: int = None
    arm_step: int = None

    def __post_init__(self):
        for key, label, kind in _NUMBER_FIELDS:
            value = getattr(self, key)
            if value is not None or key not in ("reconstruction_window", "arm_step"):
                object.__setattr__(self, key, _number(value, kind, label))
        horizon, subsystems, attack = self.horizon, self.subsystems, self.attack
        if not horizon >= 1:
            raise ConfigurationError(f"horizon: must be at least 1, got {horizon}")
        for label, value in (("control_spectral_radius", self.control_radius),
                             ("observer_spectral_radius", self.observer_radius)):
            if not 0.0 < value < 1.0:
                raise ConfigurationError(f"{label}: must lie in (0, 1), got {value}")
        n_nodes = self.topology.n_nodes
        if set(subsystems) != set(range(1, n_nodes + 1)):
            raise ConfigurationError(
                f"subsystems: indices must be exactly 1..{n_nodes}, got {sorted(subsystems)}"
            )
        for (i, j), block in self.topology.coupling.items():
            want = (subsystems[i].n, subsystems[j].n)
            if block.shape != want:
                raise ConfigurationError(
                    f"topology.coupling[({i},{j})]: expected shape {want[0]}x{want[1]}, "
                    f"got {block.shape[0]}x{block.shape[1]}"
                )
        if attack is not None:
            target, onset = (_number(getattr(attack, key), int, f"attack.{key}")
                             for key in ("target", "onset"))
            if target not in subsystems:
                raise ConfigurationError(f"attack.target: node {target} out of range 1..{n_nodes}")
            if not onset >= 0:
                raise ConfigurationError(f"attack.onset: must be non-negative, got {onset}")
            if onset >= horizon:
                raise ConfigurationError(f"attack.onset: {onset} does not precede the horizon {horizon}")
            if not callable(attack.signal):
                raise ConfigurationError(f"attack.signal: expected a callable, got {attack.signal!r}")
            object.__setattr__(self, "attack", replace(attack, target=target, onset=onset))
        policy = self.thresholds
        factor, floor = (_number(getattr(policy, key), float, f"thresholds.{key}")
                         for key in ("factor", "floor"))
        if not factor > 0:
            raise ConfigurationError("thresholds.factor: must be positive")
        if not floor >= 0:
            raise ConfigurationError("thresholds.floor: must be non-negative")
        window = policy.window
        if window is None:
            hi = onset if attack is not None else min(20, horizon)
            window = (min(10, hi), hi)
        elif not isinstance(window, (list, tuple)) or len(window) != 2:
            raise ConfigurationError("thresholds.window: expected [start, end]")
        lo, hi = (_number(v, int, "thresholds.window") for v in window)
        if not 0 <= lo <= hi:
            raise ConfigurationError(f"thresholds.window: bad window [{lo},{hi})")
        values = policy.values
        if values is not None:
            values = {}
            for key, value in _mapping(policy.values, "thresholds.values").items():
                i = _number(key, int, "thresholds.values")
                if i not in subsystems:
                    raise ConfigurationError(f"thresholds.values: node {i} out of range")
                # inf is allowed: that node never alarms
                values[i] = value if value == math.inf else _number(value, float, f"thresholds.values[{i}]")
                if not values[i] > 0:
                    raise ConfigurationError(f"thresholds.values[{i}]: must be positive")
            missing = sorted(set(subsystems) - set(values))
            if missing:
                raise ConfigurationError(f"thresholds.values: missing nodes {missing}")
        object.__setattr__(
            self, "thresholds", replace(policy, factor=factor, floor=floor, window=(lo, hi), values=values))
        if self.reconstruction_window is not None and not self.reconstruction_window >= 1:
            raise ConfigurationError(
                f"reconstruction_window: must be positive, got {self.reconstruction_window}"
            )
        if self.arm_step is not None and not self.arm_step >= 0:
            raise ConfigurationError(f"arm_step: must be non-negative, got {self.arm_step}")


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
        return lambda k: amplitude * math.sin(math.tau * (k - onset) / period + phase)
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


def _mapping(value, label: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ConfigurationError(f"{label}: expected an object")
    return value


def load_scenario(source) -> ScenarioConfig:
    """Load a scenario from a JSON file or an equivalent mapping.

    The loader turns the document into typed fields and passes on only the
    keys it holds, so the defaults are ``ScenarioConfig``'s and so are the
    checks across fields.  Every failure names the offending field.  Directed
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

    fields = {"name": str(doc.get("name", default_name))}
    for key, label, _ in _NUMBER_FIELDS:
        if label in doc:
            fields[key] = doc[label]

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
    fields["subsystems"] = subsystems

    raw_topo = _mapping(_require(doc, "topology", "scenario"), "topology")
    raw_nbrs = _mapping(_require(raw_topo, "neighbors", "topology"), "topology.neighbors")
    for key, value in raw_nbrs.items():
        if not isinstance(value, list):
            raise ConfigurationError(f"topology.neighbors[{key}]: expected a list")
    raw_coupling = _mapping(raw_topo.get("coupling", {}), "topology.coupling")
    default_block = raw_coupling.get("default")
    # every edge gets the default block, under the document's node numbers;
    # Topology types them, lets an edge's own block (added after) win, and
    # rejects a block on a non-edge and an edge left without one
    coupling = {} if default_block is None else {
        (i, j): default_block for i, nbrs in raw_nbrs.items() for j in nbrs
    }
    edges = raw_coupling.get("edges", [])
    if not isinstance(edges, list):
        raise ConfigurationError("topology.coupling.edges: expected a list")
    for pos, entry in enumerate(edges):
        tag = f"topology.coupling.edges[{pos}]"
        _mapping(entry, tag)
        i = _number(_require(entry, "i", tag), int, f"{tag}.i")
        j = _number(_require(entry, "j", tag), int, f"{tag}.j")
        coupling[(i, j)] = _require(entry, "matrix", tag)
    fields["topology"] = Topology(n_nodes=len(subsystems), neighbors=raw_nbrs, coupling=coupling)

    raw_attack = doc.get("attack")
    if raw_attack is not None:
        _mapping(raw_attack, "attack")
        target = _number(_require(raw_attack, "target", "attack"), int, "attack.target")
        onset = _number(_require(raw_attack, "onset", "attack"), int, "attack.onset")
        raw_signal = _require(raw_attack, "signal", "attack")
        # a target that is no node has no input width; ScenarioConfig refuses it
        victim = subsystems.get(target)
        signal = None
        if victim is not None:
            signal = _signal_factory(raw_signal, victim.m, onset, "attack.signal")
        fields["attack"] = AttackSpec(target=target, onset=onset, signal=signal)

    raw_thresh = _mapping(doc.get("thresholds", {}), "thresholds")
    mode = raw_thresh.get("mode", "calibrate")
    if mode == "calibrate":
        fields["thresholds"] = ThresholdPolicy(
            **{key: raw_thresh[key] for key in ("factor", "floor", "window") if key in raw_thresh})
    elif mode == "explicit":
        fields["thresholds"] = ThresholdPolicy(values=_require(raw_thresh, "values", "thresholds"))
    else:
        raise ConfigurationError(f"thresholds.mode: expected 'calibrate' or 'explicit', got {mode!r}")

    config = ScenarioConfig(**fields)
    one_way = config.topology.one_way_pairs()
    if one_way:
        warnings.warn(
            f"scenario {config.name!r}: directed topology, edges without a reverse edge: {one_way}",
            RuntimeWarning,
            stacklevel=2,
        )
    return config


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
            try:
                recon = build_reconstructor(
                    sub.A, sub.B, ls.projection, window=config.reconstruction_window
                )
            except SynthesisError as exc:
                raise SynthesisError(f"attacked node {i}: {exc}") from exc
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


# each vector field and the node dimension that sizes it
_VECTOR_FIELDS = {
    "x": "n", "xa": "n", "xhat_loc": "n", "xhat_coop": "n", "ymeas": "p", "u": "m",
    "u_applied": "m", "inj": "m", "inj_hat": "m", "xa_ls": "n", "xa_pub": "n",
    "xa_fwd": "n", "alarm": "n",
}
_SCALAR_FIELDS = ("resid_loc", "resid_coop", "alarm_on", "decided", "phase")
_INT_FIELDS = ("alarm_on", "decided", "phase")

# Rows per write in ScenarioTrace.to_csv: enough to amortize the formatting
# call, few enough that the text never weighs on peak memory.
_CSV_CHUNK_ROWS = 4096


def _column_names(subsystems: Mapping[int, Subsystem]) -> tuple:
    """The CSV header, which is also the trace table's column layout.

    ``step`` and ``node``, then each vector field as wide as the largest
    node's vector (``x1``, ``x2``, ...), then the scalar fields.  A node
    with a smaller vector leaves the rest of that field's columns at 0.
    """
    names = ["step", "node"]
    for fieldname, dim in _VECTOR_FIELDS.items():
        width = max(getattr(sub, dim) for sub in subsystems.values())
        names += [f"{fieldname}{c + 1}" for c in range(width)]
    return tuple(names) + _SCALAR_FIELDS


def _field_start(columns: tuple, fieldname: str) -> int:
    """A field's first column in the trace table: ``x1`` for ``x``, the field itself for a scalar."""
    return columns.index(f"{fieldname}1" if fieldname in _VECTOR_FIELDS else fieldname)


def _field_cells(columns: tuple, subsystems: Mapping[int, Subsystem], nodes: tuple) -> dict:
    """Each field's cells in one step's table rows, flattened, in the order of
    the field's entries stacked over ``nodes`` (one entry per node for a scalar)."""
    width = len(columns)
    offsets = {None: np.arange(len(nodes)) * width}
    for dim in "nmp":
        sizes = [getattr(subsystems[i], dim) for i in nodes]
        owner = np.repeat(np.arange(len(nodes)), sizes)
        offsets[dim] = owner * width + np.arange(owner.size) - (np.cumsum(sizes) - sizes)[owner]
    return {fieldname: offsets[_VECTOR_FIELDS.get(fieldname)] + _field_start(columns, fieldname)
            for fieldname in (*_VECTOR_FIELDS, *_SCALAR_FIELDS)}


@dataclass
class ScenarioTrace:
    """Full per-step, per-node log of one run.

    ``table`` is a read-only float array laid out as the CSV body: one row
    per (step, node), step-major, under the header ``columns`` (see
    ``_column_names``), with 0 in the cells the CSV leaves empty.
    ``series(i, field)`` is a read-only view of shape (horizon, dim) for
    vector fields or (horizon,) for scalars; the int fields come back as
    floats holding integers.
    """

    name: str
    horizon: int
    nodes: tuple
    table: np.ndarray
    columns: tuple
    thresholds: dict
    arm_step: int
    decision_steps: dict
    config: ScenarioConfig

    def series(self, node: int, fieldname: str) -> np.ndarray:
        start, dim = _field_start(self.columns, fieldname), _VECTOR_FIELDS.get(fieldname)
        cols = slice(start, start + getattr(self.config.subsystems[node], dim)) if dim else start
        return self.table[self.nodes.index(node)::len(self.nodes), cols]

    def column_names(self) -> list:
        return list(self.columns)

    def to_csv(self, path) -> None:
        """Write the trace as ``csv.writer`` would write ``column_names()`` and the rows.

        Floats at 17 significant digits, step, node and the int fields as
        integers, an empty cell wherever a node's vector is shorter than the
        widest, ``\\r\\n`` line ends.  One ``%``-format string covers a
        step's table rows, in which a padding cell is ``%.0s``: it takes its
        0 and prints nothing.  The file is written a chunk of steps at a
        time.
        """
        n_nodes, width = len(self.nodes), len(self.columns)
        cells = np.full(n_nodes * width, "%.0s", dtype=object)
        for fieldname, where in _field_cells(self.columns, self.config.subsystems, self.nodes).items():
            cells[where] = "%d" if fieldname in _INT_FIELDS else "%.17g"
        cells[::width] = cells[1::width] = "%d"  # step and node
        step_format = "".join(",".join(row) + "\r\n" for row in cells.reshape(n_nodes, width))
        chunk = max(1, _CSV_CHUNK_ROWS // n_nodes)
        with open(path, "w", newline="") as handle:
            handle.write(",".join(self.columns) + "\r\n")
            for k in range(0, self.horizon, chunk):
                steps = min(chunk, self.horizon - k)
                cells = self.table[k * n_nodes:(k + steps) * n_nodes].ravel().tolist()
                handle.write((step_format * steps) % tuple(cells))


def _check_finite(rows: np.ndarray, columns: tuple, nodes: tuple) -> None:
    """Raise ProtocolError naming the first non-finite value in leading trace-table rows."""
    finite = np.isfinite(rows)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        k, pos = divmod(int(row), len(nodes))
        raise ProtocolError(f"non-finite {columns[col]} on node {nodes[pos]} at step {k}; the run diverged")


@dataclass(frozen=True)
class _Maps:
    """The layout and maps of the augmented state ``s`` (see ``_operator``).

    ``xs``, ``cs`` and ``rs`` slice ``x``, ``xhat_coop`` and the replica
    out of ``s``.  ``Es``, ``Ys``, ``XLs`` and ``Us`` give the received
    error, the masked measurements, ``xhat_loc`` and the control before its
    accommodation correction.  ``G`` and ``C`` are the block-diagonal
    cooperative transition and output matrix.  With an attack (None without
    one), ``inject`` holds the injection's input columns, and ``Ls``,
    ``Rs``, ``Fs`` and ``Ps`` give the target's least-squares sample,
    recovered input, advanced forward state and published estimate.  A
    step whose window is full adds ``U @ (V @ s)``: the forward advance and
    the control correction ``K_t xa_pub - inj_hat``, which is ``V[:m]``.
    """

    xs: slice
    cs: slice
    Es: np.ndarray
    Ys: np.ndarray
    XLs: np.ndarray
    Us: np.ndarray
    G: np.ndarray
    C: np.ndarray
    rs: slice = None
    inject: np.ndarray = None
    Ls: np.ndarray = None
    Rs: np.ndarray = None
    Fs: np.ndarray = None
    Ps: np.ndarray = None
    U: np.ndarray = None
    V: np.ndarray = None


def _operator(config: ScenarioConfig, designs: dict, nodes: tuple, seg: dict) -> tuple:
    """The augmented loop, built node by node: ``(M, maps)``.

    ``s`` is ``[x; z; xhat_coop]`` stacked over all nodes; with an attack
    it goes on with the attacker's replica of the target, the target's
    sources' previous received error ``Es[src] s(k-1)``, a shift register
    of the last ``window`` least-squares samples (oldest first) and the
    forward state.  ``M`` advances ``s`` by one step with the forward state
    held; ``maps`` holds the layout, the output maps and the attack's
    input and update blocks (``_Maps``).

    The build runs node by node.  A first pass writes each node's rows of
    ``Ys``, ``XLs`` and ``G`` from its own model (``C`` is the ``x`` block
    of ``Ys``); a second writes its rows of ``Us``, ``Es`` and ``M`` from
    its own design and its inbound edges, since ``u`` and ``xhat_coop``
    read the inbound neighbours' ``xhat_loc``.  A node's ``xhat_loc`` rows
    are nonzero only in its own columns of ``s`` (and the replica's, at the
    target), so each sum over neighbours adds disjoint columns and rounds
    nothing.
    """
    subsystems, topology, attack = config.subsystems, config.topology, config.attack
    sn, sm, sp = seg["n"], seg["m"], seg["p"]
    n_total, p_total = sn[nodes[-1]].stop, sp[nodes[-1]].stop
    xs, zs, cs = (slice(b * n_total, (b + 1) * n_total) for b in range(3))
    dim = 3 * n_total
    if attack is not None:
        d = designs[attack.target]
        replica, window = subsystems[attack.target], d.recon.window
        # the sources' entries in a stacked n-vector, ascending like the estimator's
        src = np.concatenate([np.arange(sn[j].start, sn[j].stop) for j in d.ls.sources])
        rs = slice(dim, dim + replica.n)
        es = slice(rs.stop, rs.stop + src.size)
        ws = slice(es.stop, es.stop + window * replica.n)
        fs = slice(ws.stop, ws.stop + replica.n)
        dim = fs.stop

    def part(block, i):
        """Node i's entries in the ``x``, ``z`` or ``xhat_coop`` block of ``s``."""
        return slice(block.start + sn[i].start, block.start + sn[i].stop)

    Ys = np.zeros((p_total, dim))  # y, the replica's output subtracted at the target
    XLs = np.empty((n_total, dim))  # xhat_loc = z + H y
    G = np.zeros((n_total, n_total))
    for i in nodes:
        sub = subsystems[i]
        Ys[sp[i], part(xs, i)] = sub.C
        if attack is not None and i == attack.target:
            Ys[sp[i], rs] = -replica.C
        XLs[sn[i]] = designs[i].uio.H @ Ys[sp[i]]
        XLs[sn[i], part(zs, i)] += np.eye(sub.n)
        G[sn[i], sn[i]] = designs[i].coop_transition

    Us, Es = np.empty((sm[nodes[-1]].stop, dim)), np.empty((n_total, dim))
    M = np.zeros((dim, dim))
    for i in nodes:
        sub, design, uio = subsystems[i], designs[i], designs[i].uio
        x, z, c = part(xs, i), part(zs, i), part(cs, i)
        # u = K xhat_loc + N xhat_loc over the node and its inbound neighbours
        gains = {i: design.feedback_gain, **design.neighbor_gains}
        Us[sm[i]] = sum(gain @ XLs[sn[j]] for j, gain in gains.items())
        BU = sub.B @ Us[sm[i]]
        innovation = Ys[sp[i]].copy()  # y - C xhat_coop
        innovation[:, c] -= sub.C
        Es[sn[i]] = design.C_pinv @ innovation
        M[x] = BU  # x+ = A x + coupling x + B (u + injection)
        M[x, x] += sub.A
        for j in topology.inbound(i):
            M[x, part(xs, j)] += topology.coupling[(i, j)]
        M[z] = uio.T @ BU  # z+ = F z + T B u + K_uio y
        M[z] += (uio.K1 + uio.K2) @ Ys[sp[i]]
        M[z, z] += uio.F
        M[c] = BU  # xhat_coop+ = A xhat_coop + B u + L innovation + coupling xhat_loc
        M[c] += design.coop_gain @ innovation
        M[c] += sum(topology.coupling[(i, j)] @ XLs[sn[j]] for j in topology.inbound(i))
        M[c, c] += sub.A
    maps = _Maps(xs=xs, cs=cs, Es=Es, Ys=Ys, XLs=XLs, Us=Us, G=G, C=Ys[:, xs].copy())
    if attack is None:
        return M, maps

    n, m, t = replica.n, replica.m, attack.target
    M[rs, rs] = replica.A  # replica+ = A_t replica + B_t injection
    B_t = np.zeros((dim, m))  # the target's input columns of x, z and xhat_coop
    B_t[part(xs, t)] = B_t[part(cs, t)] = replica.B
    B_t[part(zs, t)] = d.uio.T @ replica.B
    inject = np.zeros((dim, m))  # the injection reaches the plant and the replica only
    inject[part(xs, t)] = inject[rs] = replica.B
    # the sources' payload err(k) - G err(k-1), and its least-squares sample
    payload = Es[src]
    payload[:, es] -= G[np.ix_(src, src)]
    Ls = d.ls.stack_pinv @ payload
    forward = np.eye(n, dim, fs.start)  # picks the forward state out of s
    M[es] = Es[src]
    M[ws.start:ws.stop - n] = np.eye((window - 1) * n, dim, ws.start + n)  # shift
    M[ws.stop - n:ws.stop] = Ls
    M[fs] = forward  # held; a full window advances it through U @ V
    # window inversion over the register and the current sample
    Rs = d.recon.readout[:, window * n:] @ Ls
    Rs[:, ws] += d.recon.readout[:, :window * n]
    Fs = d.recon.B @ Rs + d.recon.A @ forward
    proj = d.ls.projection
    Ps = proj.interacting_projector @ Ls + proj.kernel_projector @ Fs
    U = np.hstack([B_t, forward.T])
    V = np.vstack([d.feedback_gain @ Ps - Rs, Fs - forward])
    return M, replace(maps, rs=rs, inject=inject, Ls=Ls, Rs=Rs, Fs=Fs, Ps=Ps, U=U, V=V)


def _resolve_thresholds(config: ScenarioConfig, nodes: tuple, rehearse: Callable) -> tuple:
    """Thresholds in node order plus the arming step (0 by default if explicit).

    A calibrated policy reads the rehearsal: ``rehearse(steps)`` gives the
    per-node received-error norms of steps 0 to ``steps - 1`` of the run
    without the attack, and the rehearsal stops at the window end (the run
    is causal, so later steps cannot change what the window reads).
    ``arm_step`` defaults to the window end.
    """
    policy = config.thresholds
    if policy.values is not None:
        arm = config.arm_step if config.arm_step is not None else 0
        return {i: policy.values[i] for i in nodes}, arm
    resid = rehearse(min(config.horizon, policy.window[1]))
    _check_finite(resid.reshape(-1, 1), ("resid_coop",), nodes)
    values = calibrate_thresholds(
        dict(zip(nodes, resid.T)), factor=policy.factor, floor=policy.floor, window=policy.window
    )
    arm = config.arm_step if config.arm_step is not None else policy.window[1]
    return values, arm


class _Nonzeros:
    """A matrix's nonzeros row by row, for ``A @ s`` and ``X @ A.T``.

    Built once from the nonzero mask: the column indices and values in row
    order, the rows that have entries and where each row starts.  ``A @ s``
    is ``np.add.reduceat(vals * s[cols], starts)`` scattered into those
    rows; ``A.T`` is a handle good only for ``X @ A.T``, the same sums for
    each row of ``X``.  A row's terms are summed in column order by numpy
    alone, so ``A @ s`` and a row of ``s[None] @ A.T`` have the same bits,
    whatever the BLAS thread count.  Empty rows come out 0.
    """

    def __init__(self, A: np.ndarray):
        # a flat index over the mask: several times faster than np.nonzero(A)
        rows, self.cols = np.divmod(np.flatnonzero(A != 0), A.shape[1])
        self.vals = A[rows, self.cols]
        self.rows, self.starts = np.unique(rows, return_index=True)
        self.shape = A.shape

    def __matmul__(self, s: np.ndarray) -> np.ndarray:
        out = np.zeros(self.shape[0])
        out[self.rows] = np.add.reduceat(self.vals * s[self.cols], self.starts)
        return out

    @property
    def T(self) -> "_Transposed":
        return _Transposed(self)


@dataclass(frozen=True)
class _Transposed:
    """``A.T`` for a ``_Nonzeros`` ``A``: ``X @ A.T`` is ``A`` times each row of ``X``."""

    A: _Nonzeros
    __array_ufunc__ = None  # so that numpy hands ``X @ A.T`` to __rmatmul__

    def __rmatmul__(self, X: np.ndarray) -> np.ndarray:
        A = self.A
        out = np.zeros((len(X), A.shape[0]))
        out[:, A.rows] = np.add.reduceat(X[:, A.cols] * A.vals, A.starts, axis=1)
        return out


def _lifted(dim: int) -> bool:
    """Whether a ``dim`` x ``dim`` operator is lifted: whether its first
    two powers fit in 2**15 floats (dim <= 128).

    A larger operator is stepped one step at a time through its nonzeros
    (``_Nonzeros``): the network operator is block-sparse by construction
    (1.1 % of the 100-node grid's entries are nonzero), and a stack of its
    powers would be dense.
    """
    return 2 * dim * dim <= 2 ** 15


def _block_size(dim: int) -> int:
    """Steps per block: when lifted (``_lifted``), the largest power of two
    up to 64 whose ``b`` powers of a ``dim`` x ``dim`` operator hold at most
    2**15 floats, else 64.

    The two modes' stacks then take at most 512 KiB.  A stepped block only
    spaces the events: its received errors, loud flags and alarms are one
    array pass per block instead of one per step.
    """
    b = 64
    while _lifted(dim) and b * dim * dim > 2 ** 15:
        b //= 2
    return b


def _lift(M: np.ndarray, update, inject, b: int) -> tuple:
    """``(Phi, T)``: ``b`` steps of ``s+ = (M + U V) s + inject w`` in one product.

    ``update`` is ``(U, V)``, or None for ``M`` alone; ``inject``, and so
    ``T``, is None without an attack.  Row block i of ``Phi @ s + T @ w``
    is ``s(k+i+1)``, for ``s = s(k)`` and ``w`` stacking ``w(k)`` to
    ``w(k+b-1)``: ``Phi`` stacks the operator's powers 1 to b, and block
    (i, j) of ``T`` is its power i - j times ``inject``.  The leading r row
    blocks (and ``T``'s leading r column blocks) advance r steps.
    """
    A = M if update is None else M + update[0] @ update[1]
    powers = [A]
    for _ in range(b - 1):
        powers.append(A @ powers[-1])
    if inject is None:
        return np.vstack(powers), None
    dim, m = inject.shape
    drive = np.vstack([inject] + [power @ inject for power in powers[:-1]])
    T = np.zeros((b * dim, b * m))
    for j in range(b):
        T[j * dim:, j * m:(j + 1) * m] = drive[:(b - j) * dim]
    return np.vstack(powers), T


def run(config: ScenarioConfig) -> ScenarioTrace:
    """Run a scenario end to end and return the trace.

    The designs, the operator, the thresholds and the loop are built once
    each.  The loop state is one augmented vector ``s`` (see ``_operator``)
    that one transition matrix ``M`` advances; the injection enters through
    a column block of rank m.  A run without detection has explicit
    thresholds that are all ``math.inf``.

    ``advance`` moves ``s`` a block of b steps at a time (``_block_size``,
    from the size of ``s``) and writes each step's state, received errors
    and their per-node norms.  The mode is whether the target's window is
    full, which adds the fixed rank-(m + n) update ``U V``.  A small
    operator advances a block in one product with the mode's lifted maps
    (``_lift``).  One too large to lift (``_lifted``; the 100-node grid's)
    steps through its nonzeros (``_Nonzeros``), one step at a time in the
    order ``M s``, then ``U (V s)`` once the window is full, then the
    injection; its dense ``M`` is dropped, and the received errors and the
    log go through the nonzeros too.  A calibrated policy first rehearses:
    ``advance`` up to the window end while the injection is still zero
    (``_resolve_thresholds``); the loop then starts again from step 0.  A
    block's loud flags, alarms and unanimity are arrays over its received
    errors, once armed.  Step by step in the block run only the decisions
    of the rare unanimous steps (the fit of the sources' payloads to the
    node's outbound stack, through a projector built once per candidate)
    and, after the target's decision, the count of consecutive steps on
    which every source's alarm is on.  The first step whose count switches
    the mode cuts the block; the next starts from that step's state.  After
    the loop ``resid_coop`` is the norms, and every other linear trace
    field is one product over the stored states (gated by the count for the
    accommodation fields), written into the table under the CSV header's
    columns.  ``config`` checked itself when built; the attack signal is
    evaluated before the loop: a value of the wrong length, or a
    ``ValueError`` or ``ArithmeticError`` it raises, is a
    ConfigurationError naming the step.
    """
    designs = build_designs(config)
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
    # arrays, not lists: reduceat would convert a list on every call
    n_starts = np.array([seg["n"][i].start for i in nodes])
    p_starts = np.array([seg["p"][i].start for i in nodes])
    n_sizes = [subsystems[i].n for i in nodes]
    # inbound[i, j]: node j's alarm is a witness for node i
    position = {i: pos for pos, i in enumerate(nodes)}
    inbound = np.zeros((n_nodes, n_nodes), dtype=bool)
    for pos, i in enumerate(nodes):
        inbound[pos, [position[j] for j in topology.inbound(i)]] = True
    witnessed = inbound.any(axis=1)
    # the node each entry of a stacked n-vector belongs to, by position
    entry_node = np.repeat(np.arange(n_nodes), n_sizes)
    # fit[pos]: the entries of node pos's sources in a stacked n-vector, in
    # the row order of its outbound stack S, and I - S S^+; built once, when
    # the node first meets unanimity
    fit = {}

    M, maps = _operator(config, designs, nodes, seg)
    dim = M.shape[0]
    lifted = _lifted(dim)
    if not lifted:  # the nonzeros replace the dense M and the large maps
        M = _Nonzeros(M)
        maps = replace(maps, **{key: _Nonzeros(getattr(maps, key)) for key in ("Es", "Ys", "XLs", "Us")})
    Es, G = maps.Es, maps.G

    attack = config.attack
    window = math.inf  # no accommodation update without an attack
    if attack is not None:
        target, onset = attack.target, attack.onset
        tpos = position[target]
        tn, tm = seg["n"][target], seg["m"][target]
        victim = subsystems[target]
        # zero through the rehearsal; the signal fills it before the loop
        injection = np.zeros((horizon, victim.m))
        src_pos = np.array([position[j] for j in designs[target].ls.sources])
        window = designs[target].recon.window

    # per-step logs: the states, their received errors and norms, and the rest
    states = np.empty((horizon, dim))
    errors = np.empty((horizon, Es.shape[0]))
    norms = np.empty((horizon, n_nodes))
    alarms = np.zeros((horizon, Es.shape[0]))
    alarm_on = np.zeros((horizon, n_nodes))
    decided_step = np.full(n_nodes, -1)
    n_decided = 0
    # fills[k]: consecutive post-decision steps up to k with every source's alarm on
    fills = np.zeros(horizon, dtype=int)

    columns = _column_names(subsystems)
    width = len(columns)
    # dest[field]: where each entry of the field, stacked over nodes, lands in one step's rows
    dest = _field_cells(columns, subsystems, nodes)

    def log(steps: int) -> np.ndarray:
        """The trace table of steps 0..steps-1, one product per linear field."""
        table = np.zeros((steps * n_nodes, width))
        table[:, 0] = np.repeat(np.arange(steps), n_nodes)
        table[:, 1] = np.tile(nodes, steps)
        rows, past = table.reshape(steps, n_nodes * width), states[:steps]
        y, xhat_loc, u = past @ maps.Ys.T, past @ maps.XLs.T, past @ maps.Us.T
        rows[:, dest["x"]] = past[:, maps.xs]
        rows[:, dest["xhat_loc"]] = xhat_loc
        rows[:, dest["xhat_coop"]] = past[:, maps.cs]
        rows[:, dest["ymeas"]] = y
        rows[:, dest["alarm"]] = alarms[:steps]
        rows[:, dest["resid_loc"]] = np.sqrt(
            np.add.reduceat((y - xhat_loc @ maps.C.T) ** 2, p_starts, axis=1))
        rows[:, dest["resid_coop"]] = norms[:steps]
        rows[:, dest["alarm_on"]] = alarm_on[:steps]
        rows[:, dest["decided"]] = (decided_step >= 0) & (np.arange(steps)[:, None] >= decided_step)
        if attack is not None:
            sampled, ready = fills[:steps] > 0, fills[:steps] > window

            def gated(on, out_map):
                out = np.zeros((steps, out_map.shape[0]))
                out[on] = past[on] @ out_map.T
                return out

            u[:, tm] += gated(ready, maps.V[:victim.m])
            for fieldname, block, where in (
                ("xa", past[:, maps.rs], tn), ("inj", injection[:steps], tm),
                ("inj_hat", gated(ready, maps.Rs), tm), ("xa_ls", gated(sampled, maps.Ls), tn),
                ("xa_pub", gated(ready, maps.Ps), tn), ("xa_fwd", gated(ready, maps.Fs), tn),
            ):
                rows[:, dest[fieldname][where]] = block
            post = (decided_step[tpos] >= 0) & (np.arange(steps) > decided_step[tpos])
            rows[:, dest["phase"][tpos]] = post.astype(int) + ready
        rows[:, dest["u"]] = u
        if attack is not None:
            u[:, tm] += injection[:steps]
        rows[:, dest["u_applied"]] = u
        return table

    b = _block_size(dim)
    stacks = {}  # mode -> _lift's (Phi, T), built on first use

    def receive(rows: slice) -> None:
        """Fill ``errors`` and ``norms`` of the steps ``rows`` from their states, in one product."""
        errors[rows] = states[rows] @ Es.T
        norms[rows] = np.sqrt(np.add.reduceat(errors[rows] ** 2, n_starts, axis=1))

    def advance(k: int, steps: int, mode: bool) -> None:
        """Fill the states of steps k+1..k+steps from ``states[k]``, then
        their received errors (``receive``): one product with the mode's
        lifted maps (``_lift``), or one step at a time through the nonzeros."""
        if lifted:
            if mode not in stacks:
                stacks[mode] = _lift(M, (maps.U, maps.V) if mode else None, maps.inject, b)
            Phi, T = stacks[mode]
            flat = states[k + 1:k + 1 + steps].reshape(-1)
            np.matmul(Phi[:steps * dim], states[k], out=flat)
            if T is not None and k + steps > onset:
                flat += T[:steps * dim, :steps * victim.m] @ injection[k:k + steps].ravel()
        else:
            for j in range(k, k + steps):
                s = M @ states[j]
                if mode:
                    s += maps.U @ (maps.V @ states[j])
                if maps.inject is not None and j >= onset:
                    s += maps.inject @ injection[j]
                states[j + 1] = s
        receive(slice(k + 1, k + 1 + steps))

    def rehearse(steps: int) -> np.ndarray:
        """The received-error norms of steps 0..steps-1 without the accommodation update or the injection."""
        for k in range(0, steps - 1, b):
            advance(k, min(b, steps - 1 - k), False)
        return norms[:steps]

    states[0] = 0.0
    states[0, maps.xs] = np.concatenate([subsystems[i].x0 for i in nodes])
    receive(slice(0, 1))
    thresholds, arm_step = _resolve_thresholds(config, nodes, rehearse)
    threshold = np.array(list(thresholds.values()))
    if attack is not None:
        for k in range(onset, horizon):
            label = f"attacker signal at step {k}"
            try:
                value = attack.signal(k)
            except (ValueError, ArithmeticError) as exc:
                raise ConfigurationError(f"{label}: {exc}") from exc
            injection[k] = _vector(value, victim.m, label)

    armed_from = max(arm_step, 1) if np.isfinite(threshold).any() else horizon
    fill = 0
    counting_from = horizon  # the window counts from the step after the target's decision

    # Step 0 has no events: nothing is armed before step 1, and the window
    # counts only after a decision.  At the top of the loop, states[k] and
    # the events of step k are done, and mode is step k's: whether the
    # window is full, so that the advance adds U V.
    k, mode = 0, False
    while k < horizon - 1:
        # 6-7. control, injection and advance over the next steps, right
        # for as long as the mode holds; 2. their received errors
        steps = min(b, horizon - 1 - k)
        last = k + steps
        advance(k, steps, mode)

        # 3. alarms of steps k+1..last.  A node is loud when its
        # received-error norm is strictly above its threshold, from the arm
        # step on and once two error samples exist.  A loud node's payload
        # is the lagged aggregate err(k) - G err(k-1): what the coupling
        # pushed into its received error at step k-1.  A quiet node sends
        # zeros; an alarm is on when its payload is nonzero.
        deciding = []
        if last >= armed_from:
            loud = norms[k + 1:last + 1] > threshold
            if k + 1 < armed_from:
                loud[:armed_from - k - 1] = False
            if loud.any():
                err = errors[k:last + 1]
                alarm = np.where(loud[:, entry_node], err[1:] - err[:-1] @ G.T, 0.0)
                active = np.logical_or.reduceat(alarm != 0, n_starts, axis=1)
                alarms[k + 1:last + 1] = alarm
                alarm_on[k + 1:last + 1] = active
                # an undecided node is a candidate when the alarm of every
                # inbound neighbour is on; one without inbound neighbours never is
                candidate = witnessed & ~(~active @ inbound.T) & (decided_step < 0)
                if candidate.any():
                    deciding = np.flatnonzero(candidate.any(axis=1)).tolist()

        # the decisions and the window's fill, step by step, up to the first
        # step whose mode differs: the block's states are right up to there
        cut = last
        if deciding or last >= counting_from:
            if attack is not None:
                sources_on = alarm_on[k + 1:last + 1, src_pos].all(axis=1).tolist()
            for row, j in enumerate(range(k + 1, last + 1)):
                if row in deciding:
                    # 4. decisions, latching.  A candidate decides
                    # "attacked" when its sources' payloads, nonzero, fit
                    # its outbound stack: they could be its own state seen
                    # through that stack.  A node without sources has no
                    # payloads, so it does not decide.
                    new = candidate[row] & (decided_step < 0)
                    for pos in np.flatnonzero(new):
                        if pos not in fit:
                            stack = topology.outbound_stack(nodes[pos], n_sizes[pos])
                            fit[pos] = (np.flatnonzero(inbound[entry_node, pos]),
                                        np.eye(len(stack)) - stack @ pseudo_inverse(stack))
                        listen, misfit = fit[pos]
                        y = alarm[row, listen]
                        new[pos] = y.any() and (
                            np.linalg.norm(misfit @ y) <= _FIT_RTOL * np.linalg.norm(y))
                    decided_step[new] = j
                    n_decided = int(np.count_nonzero(decided_step >= 0))
                    if attack is not None and new[tpos]:
                        counting_from = j + 1
                # 5. accommodation on the target, from the step after its
                # decision.  Its least squares, window inversion and forward
                # model are rows of the operator; a quiet source empties the
                # window.
                if j >= counting_from:
                    if n_decided > 1:
                        _check_finite(log(j), columns, nodes)
                        decided_nodes = [nodes[pos] for pos in np.flatnonzero(decided_step >= 0)]
                        raise ProtocolError(
                            f"nodes {decided_nodes} decided 'attacked'; the alarm payloads "
                            "superpose and accommodation supports a single attacked node"
                        )
                    fill = fill + 1 if sources_on[row] else 0
                    fills[j] = fill
                    if (fill > window) != mode:
                        cut, mode = j, fill > window
                        break
        if cut < last:  # the next block starts from step cut; undo the alarms after it
            alarms[cut + 1:last + 1] = alarm_on[cut + 1:last + 1] = 0.0
        k = cut

    del M, stacks  # the largest arrays; logging does not need them
    table = log(horizon)
    _check_finite(table, columns, nodes)
    table.flags.writeable = False
    return ScenarioTrace(
        name=config.name,
        horizon=horizon,
        nodes=nodes,
        table=table,
        columns=columns,
        thresholds=thresholds,
        arm_step=arm_step,
        decision_steps={i: (k if k >= 0 else None) for i, k in zip(nodes, decided_step.tolist())},
        config=config,
    )
