"""The automotive simulation substrate.

The paper derives attack descriptions for later execution on real test
stands; this package provides the simulated equivalent so the derived
attacks can actually run: a deterministic discrete-event kernel
(:mod:`~repro.sim.clock`), channels and messages with honest
authentication (:mod:`~repro.sim.network`, :mod:`~repro.sim.crypto`),
a traffic topology of placed and tracked actors with range-gated radio
(:mod:`~repro.sim.topology`, :mod:`~repro.sim.world`), ECUs with
admission control and finite capacity (:mod:`~repro.sim.ecu`),
a CAN bus with arbitration and limited bandwidth (:mod:`~repro.sim.can`),
V2X (RSU<->OBU and V2V relaying) and BLE endpoints
(:mod:`~repro.sim.v2x`, :mod:`~repro.sim.ble`), deployable security
controls (:mod:`~repro.sim.controls`), attack injectors
(:mod:`~repro.sim.attacks`), a safety monitor with FTTI deadlines
(:mod:`~repro.sim.monitor`), and the use-case scenario assemblies --
single-vehicle and fleet (:mod:`~repro.sim.scenarios`).

The package re-exports the union of its submodules' ``__all__`` lists;
the export-contract tests hold this surface complete.
"""

from repro.sim.attacks import (
    AttackInjector,
    EavesdropAttack,
    FloodingAttack,
    JammingAttack,
    KeyForgeryAttack,
    ReplayAttack,
    SpoofingAttack,
    TamperingAttack,
)
from repro.sim.ble import (
    AccessEcu,
    CAN_ID_DIAG,
    CAN_ID_DOOR_COMMAND,
    DoorLock,
    DoorLockEcu,
    DoorState,
    KIND_CLOSE,
    KIND_DIAG,
    KIND_OPEN,
    Smartphone,
)
from repro.sim.can import CanBus, make_frame
from repro.sim.clock import EventHandle, Lane, Segment, SimClock
from repro.sim.controls import (
    ControlPipeline,
    Decision,
    DetectionRecord,
    FloodingDetector,
    IdWhitelist,
    LocationConsistencyCheck,
    MessageCounterCheck,
    PseudonymProvider,
    ReplayGuard,
    SecurityControl,
    SenderAuthentication,
    ValueRangeCheck,
    linkability,
)
from repro.sim.crypto import (
    ChallengeResponse,
    KeyStore,
    canonical_payload,
    compute_mac,
    derive_key,
    verify_mac,
)
from repro.sim.ecu import Ecu, Gateway
from repro.sim.events import EventBus, SimEvent, TopicProbe
from repro.sim.kernel import KernelScenario, ScenarioResult, SimKernel
from repro.sim.monitor import (
    InvariantCheck,
    MultiGoalCheck,
    SafetyMonitor,
    Violation,
)
from repro.sim.network import (
    Channel,
    InfiniteRange,
    Medium,
    Message,
    PropagationModel,
    Receiver,
)
from repro.sim.scenarios import (
    CONTROL_AUTH,
    CONTROL_COUNTER,
    CONTROL_FLOOD,
    CONTROL_LOCATION,
    CONTROL_RANGE,
    CONTROL_REPLAY,
    CONTROL_WHITELIST,
    ConstructionSiteScenario,
    FleetConstructionSiteScenario,
    KeylessEntryScenario,
    UC1_ALL_CONTROLS,
    UC2_ALL_CONTROLS,
)
from repro.sim.topology import (
    Actor,
    RangePropagation,
    Topology,
    numpy_enabled,
)
from repro.sim.v2x import (
    KIND_HAZARD_WARNING,
    KIND_ROAD_WORKS,
    KIND_SPEED_LIMIT,
    KIND_V2V_RELAY,
    OnBoardUnit,
    RoadsideUnit,
    V2VRelay,
)
from repro.sim.vehicle import AUTOMATED_MODES, Driver, DrivingMode, Vehicle
from repro.sim.world import World, Zone

__all__ = [
    "AUTOMATED_MODES",
    "AccessEcu",
    "Actor",
    "AttackInjector",
    "CAN_ID_DIAG",
    "CAN_ID_DOOR_COMMAND",
    "CONTROL_AUTH",
    "CONTROL_COUNTER",
    "CONTROL_FLOOD",
    "CONTROL_LOCATION",
    "CONTROL_RANGE",
    "CONTROL_REPLAY",
    "CONTROL_WHITELIST",
    "CanBus",
    "ChallengeResponse",
    "Channel",
    "ConstructionSiteScenario",
    "ControlPipeline",
    "Decision",
    "DetectionRecord",
    "DoorLock",
    "DoorLockEcu",
    "DoorState",
    "Driver",
    "DrivingMode",
    "EavesdropAttack",
    "Ecu",
    "EventBus",
    "EventHandle",
    "FleetConstructionSiteScenario",
    "FloodingAttack",
    "FloodingDetector",
    "Gateway",
    "IdWhitelist",
    "InfiniteRange",
    "InvariantCheck",
    "JammingAttack",
    "KIND_CLOSE",
    "KIND_DIAG",
    "KIND_HAZARD_WARNING",
    "KIND_OPEN",
    "KIND_ROAD_WORKS",
    "KIND_SPEED_LIMIT",
    "KIND_V2V_RELAY",
    "KernelScenario",
    "KeyForgeryAttack",
    "KeyStore",
    "KeylessEntryScenario",
    "Lane",
    "LocationConsistencyCheck",
    "Medium",
    "Message",
    "MessageCounterCheck",
    "MultiGoalCheck",
    "OnBoardUnit",
    "PropagationModel",
    "PseudonymProvider",
    "RangePropagation",
    "Receiver",
    "ReplayAttack",
    "ReplayGuard",
    "RoadsideUnit",
    "SafetyMonitor",
    "ScenarioResult",
    "SecurityControl",
    "Segment",
    "SenderAuthentication",
    "SimClock",
    "SimEvent",
    "SimKernel",
    "Smartphone",
    "SpoofingAttack",
    "TamperingAttack",
    "TopicProbe",
    "Topology",
    "UC1_ALL_CONTROLS",
    "UC2_ALL_CONTROLS",
    "V2VRelay",
    "ValueRangeCheck",
    "Vehicle",
    "Violation",
    "World",
    "Zone",
    "canonical_payload",
    "compute_mac",
    "derive_key",
    "linkability",
    "make_frame",
    "numpy_enabled",
    "verify_mac",
]
