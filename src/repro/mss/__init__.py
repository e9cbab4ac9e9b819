"""Discrete-event simulator of the NCAR mass storage system."""

from repro.mss.devices import (
    DEFAULT_TRANSFER_RATE,
    PEAK_TRANSFER_RATE,
    StorageDevice,
    stable_hash,
)
from repro.mss.disk import DiskArray, DiskConfig
from repro.mss.jukebox import JukeboxConfig, OpticalJukebox
from repro.mss.kernel import EventHandle, Resource, SimulationError, Simulator
from repro.mss.metrics import LatencyBreakdown, MetricsCollector
from repro.mss.mscp import MSCP, MSCPConfig
from repro.mss.network import (
    CONTROL_MESSAGE_SECONDS,
    Link,
    Topology,
    ncar_topology,
)
from repro.mss.operators import OperatorConfig, OperatorPool
from repro.mss.request import MSSRequest, Phase
from repro.mss.system import MSSConfig, MSSSystem
from repro.mss.tape import ShelfStation, TapeConfig, TapeDrive, TapeLibrary, TapeSilo

__all__ = [
    "CONTROL_MESSAGE_SECONDS",
    "DEFAULT_TRANSFER_RATE",
    "DiskArray",
    "DiskConfig",
    "EventHandle",
    "JukeboxConfig",
    "LatencyBreakdown",
    "OpticalJukebox",
    "Link",
    "MSCP",
    "MSCPConfig",
    "MSSConfig",
    "MSSRequest",
    "MSSSystem",
    "MetricsCollector",
    "OperatorConfig",
    "OperatorPool",
    "PEAK_TRANSFER_RATE",
    "Phase",
    "Resource",
    "ShelfStation",
    "SimulationError",
    "Simulator",
    "StorageDevice",
    "TapeConfig",
    "TapeDrive",
    "TapeLibrary",
    "TapeSilo",
    "Topology",
    "ncar_topology",
    "stable_hash",
]
