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
    InputReconstructor,
    LsEstimator,
    build_ls_estimator,
    build_reconstructor,
    neighbor_cancellation_gains,
)
from .detection import calibrate_thresholds
from .errors import (
    ConfigurationError,
    CovaccError,
    ProtocolError,
    SynthesisError,
    UioExistenceError,
)
from .model import Subsystem, Topology
from .numerics import (
    ProjectionPair,
    kernel_and_projection,
    matrix_rank,
    observer_gain,
    pseudo_inverse,
    spectral_radius,
    stabilizing_gain,
)
from .observers import UioDesign, design_uio
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
    "AttackSpec",
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
    "build_designs",
    "build_ls_estimator",
    "build_reconstructor",
    "calibrate_thresholds",
    "design_uio",
    "kernel_and_projection",
    "load_scenario",
    "matrix_rank",
    "neighbor_cancellation_gains",
    "observer_gain",
    "pseudo_inverse",
    "run",
    "spectral_radius",
    "stabilizing_gain",
    "__version__",
]
