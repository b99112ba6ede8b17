"""Distributed adaptive attitude synchronization for rigid spacecraft fleets.

Library layout:

* `attsync.attmath`: MRP kinematics and the inertia-factoring operators.
* `attsync.rigid_body`: single-craft dynamics, the transformed
  Euler-Lagrange matrices H* and C*, and the adaptive regressor.
* `attsync.topology`: directed communication graphs and validity checks.
* `attsync.control`: neighborhood aggregates, the synchronization and
  tracking control laws, and the adaptation law.
* `attsync.simulator`: fixed-step closed-loop fleet simulation.
* `attsync.config`: YAML scenario descriptions and built-in presets.
* `attsync.cli`: the `attsync` command line tool.
"""

from .control import GainSet, NeighborhoodSignals, ReferenceTrajectory
from .errors import ConfigError, SimulationDiverged
from .config import ScenarioConfig, preset, preset_names
from .rigid_body import InertiaParams, SpacecraftState
from .simulator import (
    Scenario,
    Simulation,
    Spacecraft,
    TrajectoryLog,
    lyapunov_value,
    metrics,
    random_initial_states,
)
from .topology import CommTopology

__version__ = "0.1.0"

__all__ = [
    "CommTopology",
    "ConfigError",
    "GainSet",
    "InertiaParams",
    "NeighborhoodSignals",
    "ReferenceTrajectory",
    "Scenario",
    "ScenarioConfig",
    "Simulation",
    "SimulationDiverged",
    "Spacecraft",
    "SpacecraftState",
    "TrajectoryLog",
    "lyapunov_value",
    "metrics",
    "preset",
    "preset_names",
    "random_initial_states",
    "__version__",
]
