"""Covert injection attacks on networked linear systems: simulation,
detection, and accommodation.

The package simulates a directed network of discrete-time linear
subsystems in which one node's actuator and sensor channels are covertly
compromised, and implements the countermeasure stack: a per-node observer
pair whose disagreement exposes the attack at the neighbors, a unanimity
alarm protocol, least-squares recovery of the attacker's hidden state,
window inversion recovering the injected input, and a compensating
control law.
"""

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
    AlarmSignal,
    aggregate_error,
    calibrate_thresholds,
    decide_attack,
    emit_alarm,
)
from .errors import (
    ConfigurationError,
    CovaccError,
    ProtocolError,
    SynthesisError,
    UioExistenceError,
)
from .model import (
    AttackerState,
    Subsystem,
    Topology,
    measured_output,
    step_attacker,
    step_plant,
)
from .numerics import (
    ProjectionPair,
    kernel_and_projection,
    matrix_rank,
    observer_gain,
    pseudo_inverse,
    spectral_radius,
    stabilizing_gain,
)
from .observers import (
    UioDesign,
    design_uio,
    step_distributed,
    step_uio,
    uio_estimate,
)
from .scenario import (
    AttackSpec,
    NodeDesign,
    ScenarioConfig,
    ScenarioTrace,
    ThresholdPolicy,
    build_designs,
    load_scenario,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "AccommodationState",
    "AlarmSignal",
    "AttackSpec",
    "AttackerState",
    "ConfigurationError",
    "CovaccError",
    "InputReconstructor",
    "LsEstimator",
    "NodeDesign",
    "ProjectionPair",
    "ProtocolError",
    "ScenarioConfig",
    "ScenarioTrace",
    "Subsystem",
    "SynthesisError",
    "ThresholdPolicy",
    "Topology",
    "UioDesign",
    "UioExistenceError",
    "accommodated_control",
    "aggregate_error",
    "build_designs",
    "build_ls_estimator",
    "build_reconstructor",
    "calibrate_thresholds",
    "decide_attack",
    "design_uio",
    "emit_alarm",
    "kernel_and_projection",
    "load_scenario",
    "ls_estimate",
    "matrix_rank",
    "measured_output",
    "merge_kernel_component",
    "neighbor_cancellation_gains",
    "observer_gain",
    "pseudo_inverse",
    "reconstruct_input",
    "run",
    "spectral_radius",
    "stabilizing_gain",
    "step_attacker",
    "step_distributed",
    "step_plant",
    "step_uio",
    "uio_estimate",
    "__version__",
]
