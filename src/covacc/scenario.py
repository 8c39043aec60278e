"""Scenario files, the closed-loop runner, and trace persistence.

A scenario is a JSON document: the network matrices, the topology, the
design targets, an optional attack, and a threshold policy.  The runner
wires plant, attacker, observers, detection and accommodation together
with one fixed tick order and logs everything to a step-by-node trace
that serializes to CSV with 17-significant-digit floats, so reruns of the
same file are byte-identical.

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

import csv
import json
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .accommodation import (
    AccommodationState,
    InputReconstructor,
    LsEstimator,
    accommodated_control,
    build_ls_estimator,
    build_reconstructor,
    ls_estimate,
    merge_kernel_component,
    neighbor_cancellation_gains,
    reconstruct_input,
)
from .detection import (
    DetectionState,
    aggregate_error,
    calibrate_thresholds,
    decide_attack,
    emit_alarm,
)
from .errors import ConfigurationError, ProtocolError
from .model import (
    AttackerState,
    Subsystem,
    Topology,
    _finite,
    _vector,
    measured_output,
    step_attacker,
    step_plant,
)
from .numerics import observer_gain, pseudo_inverse, stabilizing_gain
from .observers import ObserverState, UioDesign, design_uio, step_distributed, step_uio, uio_estimate

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
    """``kind(value)`` for a scenario field, or a ConfigurationError naming the field."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or not math.isfinite(out):
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
    inbound_coupling: Mapping[int, np.ndarray]
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
            inbound_coupling=inbound_coupling,
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


@dataclass
class ScenarioTrace:
    """Full per-step, per-node log of one run.

    ``data[i][field]`` is an array of shape (horizon, dim) for vector
    fields or (horizon,) for scalars.  ``series(i, field)`` is the same
    thing with a friendlier name.
    """

    name: str
    horizon: int
    nodes: tuple
    data: dict
    thresholds: dict
    arm_step: int
    decision_steps: dict
    designs: dict
    config: ScenarioConfig

    def series(self, node: int, fieldname: str) -> np.ndarray:
        return self.data[node][fieldname]

    def _widths(self) -> dict:
        """Columns per vector field: the largest node's dimension."""
        return {
            fieldname: max(self.data[i][fieldname].shape[1] for i in self.nodes)
            for fieldname, _ in _VECTOR_FIELDS
        }

    def column_names(self) -> list:
        names = ["step", "node"]
        for fieldname, width in self._widths().items():
            names.extend(f"{fieldname}{c + 1}" for c in range(width))
        names.extend(_SCALAR_FIELDS)
        return names

    def rows(self):
        """Yield CSV rows as lists of strings, one per (step, node)."""
        dims = self._widths()
        for k in range(self.horizon):
            for i in self.nodes:
                row = [str(k), str(i)]
                for fieldname, _ in _VECTOR_FIELDS:
                    arr = self.data[i][fieldname]
                    vals = arr[k]
                    row.extend(f"{v:.17g}" for v in vals)
                    row.extend("" for _ in range(dims[fieldname] - arr.shape[1]))
                for fieldname in _SCALAR_FIELDS:
                    v = self.data[i][fieldname][k]
                    row.append(str(int(v)) if fieldname in _INT_FIELDS else f"{v:.17g}")
                yield row

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.column_names())
            writer.writerows(self.rows())


def _resolve_thresholds(config: ScenarioConfig, designs: dict) -> tuple:
    """Thresholds plus the arming step, calibrating on an attack-free run if asked."""
    policy = config.thresholds
    if policy.mode == "explicit":
        arm = config.arm_step if config.arm_step is not None else 0
        return dict(policy.values), arm
    quiet = replace(config, attack=None, name=f"{config.name}-calibration")
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


def _simulate(
    config: ScenarioConfig, designs: dict, thresholds: dict, arm_step: int
) -> ScenarioTrace:
    """One closed-loop run; a node missing from ``thresholds`` never alarms."""
    subsystems = config.subsystems
    topology = config.topology
    nodes = tuple(sorted(subsystems))
    horizon = config.horizon

    attacker = None
    acc = None
    target = None
    if config.attack is not None:
        target = config.attack.target
        attacker = AttackerState(
            model=subsystems[target], onset=config.attack.onset, signal=config.attack.signal
        )
        acc = AccommodationState()

    states = {i: subsystems[i].x0.copy() for i in nodes}
    obs = {
        i: ObserverState(z=np.zeros(subsystems[i].n), xhat_coop=np.zeros(subsystems[i].n))
        for i in nodes
    }
    det = {i: DetectionState(threshold=thresholds.get(i, math.inf)) for i in nodes}

    log = {
        i: {fieldname: [] for fieldname, _ in _VECTOR_FIELDS}
        | {fieldname: [] for fieldname in _SCALAR_FIELDS}
        for i in nodes
    }

    for k in range(horizon):
        # 1. measurements
        ymeas = {}
        for i in nodes:
            mask = attacker.output_mask() if (attacker is not None and i == target) else None
            ymeas[i] = measured_output(subsystems[i], states[i], mask)

        # 2. estimates and received errors
        xhat_loc = {}
        err_coop = {}
        resid_loc = {}
        resid_coop = {}
        for i in nodes:
            d = designs[i]
            xhat_loc[i] = uio_estimate(d.uio, obs[i].z, ymeas[i])
            err_coop[i] = d.C_pinv @ (ymeas[i] - subsystems[i].C @ obs[i].xhat_coop)
            resid_loc[i] = float(np.linalg.norm(ymeas[i] - subsystems[i].C @ xhat_loc[i]))
            resid_coop[i] = float(np.linalg.norm(err_coop[i]))

        # 3. aggregates and alarms
        alarms = {}
        for i in nodes:
            agg = aggregate_error(err_coop[i], det[i].prev_error, designs[i].coop_transition)
            alarms[i] = emit_alarm(
                origin=i,
                step=k,
                residual_norm=resid_coop[i],
                threshold=det[i].threshold,
                aggregate=agg,
                dim=subsystems[i].n,
                armed=k >= arm_step,
            )

        # 4. decisions
        for i in nodes:
            if not det[i].decided and decide_attack(alarms, topology.inbound(i)):
                det[i].decided = True
                det[i].decided_step = k

        # 5. accommodation
        zeros_n = {i: np.zeros(subsystems[i].n) for i in nodes}
        xa_ls = dict(zeros_n)
        xa_pub = dict(zeros_n)
        xa_fwd = dict(zeros_n)
        inj_hat = {i: np.zeros(subsystems[i].m) for i in nodes}
        if acc is not None and det[target].decided and k > det[target].decided_step:
            decided_nodes = [i for i in nodes if det[i].decided]
            if len(decided_nodes) > 1:
                raise ProtocolError(
                    f"nodes {decided_nodes} decided 'attacked'; the alarm payloads "
                    "superpose and accommodation supports a single attacked node"
                )
            d = designs[target]
            payloads = {j: alarms[j].payload for j in d.ls.sources}
            if d.ls.sources and all(np.any(p) for p in payloads.values()):
                value = ls_estimate(d.ls, payloads)
                xa_ls[target] = value
                acc.push_sample(k, value, d.recon.window + 1)
            else:
                acc.samples.clear()
            if acc.forward is None:
                acc.forward = np.zeros(subsystems[target].n)
            estimate, ready = reconstruct_input(d.recon, [v for _, v in acc.samples])
            if ready:
                acc.phase = 2
                inj_hat[target] = estimate
                acc.forward = d.recon.A @ acc.forward + d.recon.B @ estimate
                xa_pub[target] = merge_kernel_component(d.ls.projection, xa_ls[target], acc.forward)
                xa_fwd[target] = acc.forward.copy()
            else:
                acc.phase = 1

        # 6. control
        u = {}
        for i in nodes:
            d = designs[i]
            u[i] = accommodated_control(
                d.feedback_gain,
                d.neighbor_gains,
                xhat_loc[i],
                xa_pub[i],
                xhat_loc,
                inj_hat[i],
            )

        # 7. injection, logging, advance
        u_applied = dict(u)
        inj = {i: np.zeros(subsystems[i].m) for i in nodes}
        xa_now = dict(zeros_n)
        attacker_next = None
        if attacker is not None:
            inj[target] = attacker.injected(k)
            xa_now[target] = attacker.state.copy()
            u_applied[target], attacker_next = step_attacker(attacker, u[target], k)

        for i in nodes:
            row = log[i]
            row["x"].append(states[i].copy())
            row["xa"].append(xa_now[i])
            row["xhat_loc"].append(xhat_loc[i].copy())
            row["xhat_coop"].append(obs[i].xhat_coop.copy())
            row["ymeas"].append(ymeas[i].copy())
            row["u"].append(u[i].copy())
            row["u_applied"].append(u_applied[i].copy())
            row["inj"].append(inj[i])
            row["inj_hat"].append(inj_hat[i])
            row["xa_ls"].append(xa_ls[i])
            row["xa_pub"].append(xa_pub[i])
            row["xa_fwd"].append(xa_fwd[i])
            row["alarm"].append(alarms[i].payload.copy())
            row["resid_loc"].append(resid_loc[i])
            row["resid_coop"].append(resid_coop[i])
            row["alarm_on"].append(int(alarms[i].active))
            row["decided"].append(int(det[i].decided))
            row["phase"].append(acc.phase if (acc is not None and i == target) else 0)

        states = step_plant(subsystems, topology, states, u_applied)
        if attacker is not None:
            attacker.state = attacker_next
        for i in nodes:
            d = designs[i]
            obs[i].z = step_uio(d.uio, subsystems[i], obs[i].z, u[i], ymeas[i])
            obs[i].xhat_coop = step_distributed(
                subsystems[i],
                d.coop_gain,
                obs[i].xhat_coop,
                u[i],
                ymeas[i],
                d.inbound_coupling,
                xhat_loc,
            )
            det[i].prev_error = err_coop[i]

    data = {
        i: {
            fieldname: np.vstack(log[i][fieldname])
            for fieldname, _ in _VECTOR_FIELDS
        }
        | {fieldname: np.asarray(log[i][fieldname]) for fieldname in _SCALAR_FIELDS}
        for i in nodes
    }
    return ScenarioTrace(
        name=config.name,
        horizon=horizon,
        nodes=nodes,
        data=data,
        thresholds={i: det[i].threshold for i in nodes},
        arm_step=arm_step,
        decision_steps={i: det[i].decided_step for i in nodes},
        designs=designs,
        config=config,
    )
