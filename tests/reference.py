"""The closed loop node by node: the oracle the stacked runner is held to.

``covacc.scenario.run`` advances the whole network as one augmented
state under one transition matrix.  This module computes the same tick one
node at a time, from per-node step functions: the plant and the covert
injector, the two observers, the alarm rule, the decision rule (unanimity
and the payloads' fit), the target's per-step accommodation (least
squares, window inversion and kernel merge, which the runner folds into
its operator), and the accommodated control law.  ``reference_run``
rebuilds ``covacc.run`` on that loop, ``csv_writer_oracle`` writes a trace
value by value through ``csv.writer``, and ``blind`` turns a scenario's
detection off.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from covacc import (
    ConfigurationError,
    InputReconstructor,
    LsEstimator,
    ProjectionPair,
    ProtocolError,
    Subsystem,
    ThresholdPolicy,
    Topology,
    UioDesign,
    build_designs,
    calibrate_thresholds,
)
from covacc.model import _vector

VECTOR_FIELDS = ("x", "xa", "xhat_loc", "xhat_coop", "ymeas", "u", "u_applied",
                 "inj", "inj_hat", "xa_ls", "xa_pub", "xa_fwd", "alarm")
SCALAR_FIELDS = ("resid_loc", "resid_coop", "alarm_on", "decided", "phase")
INT_FIELDS = ("alarm_on", "decided", "phase")


@dataclass
class AttackerState:
    """Covert injector pinned to one node: a private replica of ``model``.

    ``signal(k)`` is the injected input, ignored before ``onset``; the
    replica ``state`` rests at zero until then.
    """

    model: Subsystem
    onset: int
    signal: Callable[[int], np.ndarray]
    state: np.ndarray = None

    def __post_init__(self):
        tag = f"attacker on node {self.model.index}"
        if self.onset < 0:
            raise ConfigurationError(f"{tag}: onset must be non-negative, got {self.onset}")
        n = self.model.n
        self.state = np.zeros(n) if self.state is None else _vector(self.state, n, f"{tag}: state")

    def injected(self, k: int) -> np.ndarray:
        """Injected input at step k, identically zero before onset."""
        if k < self.onset:
            return np.zeros(self.model.m)
        return _vector(self.signal(k), self.model.m, f"attacker signal at step {k}")

    def output_mask(self) -> np.ndarray:
        """The replica output currently being subtracted from the measurements."""
        return self.model.C @ self.state


def step_plant(subsystems: Mapping[int, Subsystem], topology: Topology,
               states: Mapping[int, np.ndarray], inputs: Mapping[int, np.ndarray]) -> dict:
    """Every node's next state from the common snapshot and the applied inputs."""
    nxt = {}
    for i in sorted(subsystems):
        sub = subsystems[i]
        u = _vector(inputs[i], sub.m, f"input of node {i}")
        x = sub.A @ states[i] + sub.B @ u
        for j in topology.inbound(i):
            x = x + topology.coupling[(i, j)] @ states[j]
        nxt[i] = x
    return nxt


def step_attacker(attacker: AttackerState, u: np.ndarray, k: int):
    """(applied input, next replica state) at step k; before onset u passes untouched."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if k < attacker.onset:
        return u.copy(), np.zeros(attacker.model.n)
    inj = attacker.injected(k)
    model = attacker.model
    return u + inj, model.A @ attacker.state + model.B @ inj


def measured_output(subsystem: Subsystem, x: np.ndarray, output_mask: np.ndarray = None) -> np.ndarray:
    """Measurement leaving the node: C x, minus the attacker's mask when present."""
    y = subsystem.C @ np.asarray(x, dtype=float)
    if output_mask is None:
        return y
    return y - np.asarray(output_mask, dtype=float)


def step_uio(design: UioDesign, subsystem: Subsystem, z: np.ndarray, u: np.ndarray,
             y_meas: np.ndarray) -> np.ndarray:
    """One update of the decoupled observer's internal state."""
    return design.F @ z + design.T @ (subsystem.B @ u) + (design.K1 + design.K2) @ y_meas


def uio_estimate(design: UioDesign, z: np.ndarray, y_meas: np.ndarray) -> np.ndarray:
    """State estimate paired with the measurement that just arrived."""
    return z + design.H @ y_meas


def step_distributed(subsystem: Subsystem, gain: np.ndarray, xhat: np.ndarray, u: np.ndarray,
                     y_meas: np.ndarray, coupling: Mapping[int, np.ndarray],
                     neighbor_estimates: Mapping[int, np.ndarray]) -> np.ndarray:
    """One update of the cooperative observer, fed the inbound neighbors' decoupled estimates."""
    nxt = subsystem.A @ xhat + subsystem.B @ u + gain @ (y_meas - subsystem.C @ xhat)
    for j in sorted(coupling):
        if j not in neighbor_estimates:
            raise ProtocolError(
                f"node {subsystem.index}: no estimate received from neighbor {j}"
            )
        nxt = nxt + coupling[j] @ neighbor_estimates[j]
    return nxt


@dataclass(frozen=True)
class AlarmSignal:
    """One node's broadcast alarm for one step: zero payload while quiet."""

    origin: int
    step: int
    payload: np.ndarray

    @property
    def active(self) -> bool:
        return bool(np.any(self.payload))


def aggregate_error(err_now: np.ndarray, err_prev: np.ndarray,
                    transition: np.ndarray) -> np.ndarray:
    """The coupling's push into the received error at step k-1; None before two samples."""
    if err_prev is None:
        return None
    return np.asarray(err_now, dtype=float) - transition @ np.asarray(err_prev, dtype=float)


def emit_alarm(origin: int, step: int, residual_norm: float, threshold: float,
               aggregate: np.ndarray, dim: int, armed: bool = True) -> AlarmSignal:
    """The aggregate as payload when armed and strictly above threshold, else zeros."""
    if armed and aggregate is not None and residual_norm > threshold:
        payload = np.asarray(aggregate, dtype=float).copy()
    else:
        payload = np.zeros(dim)
    return AlarmSignal(origin=origin, step=step, payload=payload)


def decide_attack(inbound: Mapping[int, AlarmSignal], neighbor_set: Sequence[int]) -> bool:
    """Unanimity: every inbound neighbor's alarm is active.  No neighbors, no decision."""
    neighbors = tuple(neighbor_set)
    if not neighbors:
        return False
    for j in neighbors:
        if j not in inbound:
            raise ProtocolError(f"no alarm received from neighbor {j}")
        if not inbound[j].active:
            return False
    return True


def payloads_fit(topology: Topology, node: int, state_dim: int,
                 alarms: Mapping[int, AlarmSignal]) -> bool:
    """Whether the sources' payloads are nonzero and fit the outbound stack to 1e-8 relative."""
    sources = topology.sources(node)
    if not sources:
        return False
    y = np.concatenate([alarms[j].payload for j in sources])
    if not y.any():
        return False
    stack = topology.outbound_stack(node, state_dim)
    fitted = stack @ np.linalg.lstsq(stack, y, rcond=None)[0]
    return bool(np.linalg.norm(y - fitted) <= 1e-8 * np.linalg.norm(y))


def accommodated_control(feedback_gain: np.ndarray, neighbor_gains: Mapping[int, np.ndarray],
                         xhat_loc: np.ndarray, replica_estimate: np.ndarray,
                         neighbor_estimates: Mapping[int, np.ndarray],
                         input_estimate: np.ndarray) -> np.ndarray:
    """Feedback on own plus replica estimate, neighbor cancellation, recovered input subtracted."""
    u = feedback_gain @ (np.asarray(xhat_loc, dtype=float) + np.asarray(replica_estimate, dtype=float))
    for j in sorted(neighbor_gains):
        if j not in neighbor_estimates:
            raise ProtocolError(f"no neighbor estimate from node {j} for the control law")
        u = u + neighbor_gains[j] @ neighbor_estimates[j]
    return u - np.atleast_1d(np.asarray(input_estimate, dtype=float))


@dataclass
class AccommodationState:
    """Target bookkeeping: phase (0 idle, 1 filling, 2 active), step-tagged samples, forward state.

    A gap in the samples' step tags empties them: the window must be consecutive.
    """

    phase: int = 0
    samples: list = field(default_factory=list)
    forward: np.ndarray = None

    def push_sample(self, step: int, value: np.ndarray, capacity: int) -> None:
        if self.samples and self.samples[-1][0] != step - 1:
            self.samples.clear()
        self.samples.append((step, np.asarray(value, dtype=float).copy()))
        while len(self.samples) > capacity:
            self.samples.pop(0)


def ls_estimate(estimator: LsEstimator, payloads: Mapping[int, np.ndarray]) -> np.ndarray:
    """Stack the payloads in source order and solve in the least-squares sense.

    The result estimates the replica state one step back (the payloads are
    lagged aggregates).  Callers gate on all payloads being nonzero; this
    function only insists that every source is present.
    """
    rows = []
    for j in estimator.sources:
        if j not in payloads:
            raise ProtocolError(f"no alarm payload from source node {j}")
        rows.append(np.atleast_1d(np.asarray(payloads[j], dtype=float)))
    if not rows:
        return np.zeros(estimator.projection.dim)
    return estimator.stack_pinv @ np.concatenate(rows)


def reconstruct_input(recon: InputReconstructor, samples: Sequence[np.ndarray]):
    """Recover the injected input from consecutive replica-state estimates.

    ``samples`` holds the estimates oldest first, full state dimension each
    (the raw least-squares output is fine; only its interacting part is
    used).  Needs ``window + 1`` of them.  Returns ``(estimate, True)``
    once the window is full and ``(zeros, False)`` while it is filling.
    The estimate is the input injected ``output_delay + 1`` steps before
    the newest sample's time tag.
    """
    if len(samples) < recon.window + 1:
        return np.zeros(recon.B.shape[1]), False
    recent = list(samples)[-(recon.window + 1):]
    return recon.readout @ np.concatenate(recent).astype(float, copy=False), True


def merge_kernel_component(
    projection: ProjectionPair,
    ls_value: np.ndarray,
    forward_state: np.ndarray,
) -> np.ndarray:
    """Interacting part from least squares, kernel part from the forward model.

    With a trivial kernel this is the least-squares value unchanged.
    """
    ls_value = np.asarray(ls_value, dtype=float)
    if projection.kernel_dim == 0:
        return ls_value.copy()
    return (projection.interacting_projector @ ls_value
            + projection.kernel_projector @ np.asarray(forward_state, dtype=float))


def reference_loop(config, designs, thresholds, arm_step):
    """The closed loop node by node, from the per-node functions above.

    Follows the runner's seven-phase tick order (see ``covacc.scenario``).
    Returns ``({node: {field: array}}, {node: decision step or None})``
    with the arrays shaped like ``ScenarioTrace.series``.
    """
    subs, topo = config.subsystems, config.topology
    nodes = sorted(subs)
    attacker = acc = target = None
    if config.attack is not None:
        target = config.attack.target
        attacker = AttackerState(
            model=subs[target], onset=config.attack.onset, signal=config.attack.signal
        )
        acc = AccommodationState()
    x = {i: subs[i].x0.copy() for i in nodes}
    z = {i: np.zeros(subs[i].n) for i in nodes}
    xc = dict(z)
    prev = dict.fromkeys(nodes)
    decided = dict.fromkeys(nodes)
    logs = {i: {f: [] for f in VECTOR_FIELDS + SCALAR_FIELDS} for i in nodes}
    for k in range(config.horizon):
        # 1. measurements, masked at the attacked node
        y = {
            i: measured_output(subs[i], x[i], attacker.output_mask() if i == target else None)
            for i in nodes
        }
        # 2. decoupled estimates and received errors
        xl = {i: uio_estimate(designs[i].uio, z[i], y[i]) for i in nodes}
        err = {i: designs[i].C_pinv @ (y[i] - subs[i].C @ xc[i]) for i in nodes}
        # 3. lagged aggregates and alarms
        alarms = {
            i: emit_alarm(
                i, k, float(np.linalg.norm(err[i])), thresholds.get(i, math.inf),
                aggregate_error(err[i], prev[i], designs[i].coop_transition), subs[i].n,
                armed=k >= arm_step,
            )
            for i in nodes
        }
        # 4. decisions (latching)
        for i in nodes:
            if (decided[i] is None and decide_attack(alarms, topo.inbound(i))
                    and payloads_fit(topo, i, subs[i].n, alarms)):
                decided[i] = k
        # 5. accommodation
        zero_n = {i: np.zeros(subs[i].n) for i in nodes}
        xa_ls, xa_pub, xa_fwd = dict(zero_n), dict(zero_n), dict(zero_n)
        inj_hat = {i: np.zeros(subs[i].m) for i in nodes}
        if acc is not None and decided[target] is not None and k > decided[target]:
            d = designs[target]
            if d.ls.sources and all(alarms[j].active for j in d.ls.sources):
                xa_ls[target] = ls_estimate(d.ls, {j: alarms[j].payload for j in d.ls.sources})
                acc.push_sample(k, xa_ls[target], d.recon.window + 1)
            else:
                acc.samples.clear()
            if acc.forward is None:
                acc.forward = np.zeros(subs[target].n)
            estimate, ready = reconstruct_input(d.recon, [v for _, v in acc.samples])
            acc.phase = 2 if ready else 1
            if ready:
                inj_hat[target] = estimate
                acc.forward = d.recon.A @ acc.forward + d.recon.B @ estimate
                xa_pub[target] = merge_kernel_component(d.ls.projection, xa_ls[target], acc.forward)
                xa_fwd[target] = acc.forward
        # 6. control laws
        u = {
            i: accommodated_control(designs[i].feedback_gain, designs[i].neighbor_gains,
                                    xl[i], xa_pub[i], xl, inj_hat[i])
            for i in nodes
        }
        # 7. injection applied, then logging, then everything advances
        applied, xa = dict(u), dict(zero_n)
        inj = {i: np.zeros(subs[i].m) for i in nodes}
        if attacker is not None:
            inj[target], xa[target] = attacker.injected(k), attacker.state
            applied[target], attacker.state = step_attacker(attacker, u[target], k)
        for i in nodes:
            values = (x[i], xa[i], xl[i], xc[i], y[i], u[i], applied[i], inj[i], inj_hat[i],
                      xa_ls[i], xa_pub[i], xa_fwd[i], alarms[i].payload,
                      np.linalg.norm(y[i] - subs[i].C @ xl[i]), np.linalg.norm(err[i]),
                      alarms[i].active, decided[i] is not None,
                      acc.phase if i == target else 0)
            for f, v in zip(VECTOR_FIELDS + SCALAR_FIELDS, values):
                logs[i][f].append(v)
        x = step_plant(subs, topo, x, applied)
        for i in nodes:
            inbound = {j: topo.coupling[(i, j)] for j in topo.inbound(i)}
            z[i] = step_uio(designs[i].uio, subs[i], z[i], u[i], y[i])
            xc[i] = step_distributed(subs[i], designs[i].coop_gain, xc[i], u[i], y[i], inbound, xl)
        prev = err
    return {i: {f: np.array(v, dtype=float) for f, v in logs[i].items()} for i in nodes}, decided


def blind(config):
    """``config`` with every threshold infinite: no alarm rises, no node decides."""
    policy = ThresholdPolicy(values=dict.fromkeys(config.subsystems, math.inf))
    return dataclasses.replace(config, thresholds=policy, arm_step=None)


def reference_run(config):
    """``run`` rebuilt on ``reference_loop``: (series, thresholds, arm_step, decision_steps)."""
    designs = build_designs(config)
    policy = config.thresholds
    if policy.values is not None:
        thresholds = dict(policy.values)
        arm_step = config.arm_step if config.arm_step is not None else 0
    else:
        # a scenario has at least one step; an empty window reads none of them
        horizon = max(1, min(config.horizon, policy.window[1]))
        quiet = dataclasses.replace(config, attack=None, horizon=horizon)
        logs, _ = reference_loop(quiet, designs, {}, 0)
        thresholds = calibrate_thresholds(
            {i: logs[i]["resid_coop"] for i in logs},
            factor=policy.factor, floor=policy.floor, window=policy.window,
        )
        arm_step = config.arm_step if config.arm_step is not None else policy.window[1]
    logs, decided = reference_loop(config, designs, thresholds, arm_step)
    return logs, thresholds, arm_step, decided


def csv_writer_oracle(trace, path):
    """The trace's rows formatted value by value and written by ``csv.writer``."""
    widths = {f: max(trace.series(i, f).shape[1] for i in trace.nodes) for f in VECTOR_FIELDS}
    header = ["step", "node"]
    for f in VECTOR_FIELDS:
        header += [f"{f}{c + 1}" for c in range(widths[f])]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header + list(SCALAR_FIELDS))
        for k in range(trace.horizon):
            for i in trace.nodes:
                row = [str(k), str(i)]
                for f in VECTOR_FIELDS:
                    vals = trace.series(i, f)[k]
                    row += [f"{v:.17g}" for v in vals] + [""] * (widths[f] - len(vals))
                for f in SCALAR_FIELDS:
                    v = trace.series(i, f)[k]
                    row.append(str(int(v)) if f in INT_FIELDS else f"{v:.17g}")
                writer.writerow(row)
