"""Ready-made SUT configurations for the paper's two use cases.

* :class:`ConstructionSiteScenario` -- Use Case I / Fig. 2: an autonomous
  vehicle approaches a construction site; the RSU informs the vehicle via
  the OBU; the OBU warns the driver so control is transferred back before
  the site.  Safety goals SG01..SG06 of §IV-A are monitored.
* :class:`KeylessEntryScenario` -- Use Case II: opening and closing a
  vehicle via smartphone over Bluetooth low energy, with the BLE->CAN
  forwarding gateway ("ECU_GW").  Safety goals SG01..SG04 of §IV-B are
  monitored.

Both scenarios are :class:`~repro.sim.kernel.KernelScenario` assemblies
on the unified :class:`~repro.sim.kernel.SimKernel`: the kernel owns
the clock, event bus, keystore, world and every communication medium; the
classes here only declare the components, deployed controls and
safety-goal checks.  The declarative counterparts (what the campaign
runner executes) live in :mod:`repro.engine.registry` -- these classes
remain the single source of truth the registry's specs point at.

Both scenarios take a ``controls`` set naming the security controls to
deploy, so ablation runs can flip each expected measure on and off
and observe the attack verdict change exactly as the attack description
predicts.
"""

from __future__ import annotations

from typing import Any

from repro.errors import SimulationError
from repro.sim.kernel import KernelScenario, ScenarioResult, SimKernel
from repro.sim.ble import (
    AccessEcu,
    DoorLock,
    DoorLockEcu,
    DoorState,
    Smartphone,
)
from repro.sim.controls import (
    FloodingDetector,
    IdWhitelist,
    LocationConsistencyCheck,
    MessageCounterCheck,
    ReplayGuard,
    SenderAuthentication,
    ValueRangeCheck,
)
from repro.sim.controls.base import ControlPipeline
from repro.sim.topology import RangePropagation
from repro.sim.v2x import (
    KIND_ROAD_WORKS,
    KIND_V2V_RELAY,
    OnBoardUnit,
    RoadsideUnit,
    V2VRelay,
)
from repro.sim.vehicle import AUTOMATED_MODES, Driver, Vehicle

__all__ = [
    "CONTROL_AUTH",
    "CONTROL_COUNTER",
    "CONTROL_FLOOD",
    "CONTROL_LOCATION",
    "CONTROL_RANGE",
    "CONTROL_REPLAY",
    "CONTROL_WHITELIST",
    "ConstructionSiteScenario",
    "FleetConstructionSiteScenario",
    "KeylessEntryScenario",
    "ScenarioResult",
    "UC1_ALL_CONTROLS",
    "UC2_ALL_CONTROLS",
]

#: Control names accepted by both scenarios' ``controls`` parameter.
CONTROL_AUTH = "sender-auth"
CONTROL_COUNTER = "message-counter"
CONTROL_FLOOD = "flooding-detector"
CONTROL_RANGE = "value-range"
CONTROL_LOCATION = "location-consistency"
CONTROL_WHITELIST = "id-whitelist"
CONTROL_REPLAY = "replay-guard"

UC1_ALL_CONTROLS = frozenset(
    {CONTROL_AUTH, CONTROL_COUNTER, CONTROL_FLOOD, CONTROL_RANGE, CONTROL_LOCATION}
)
UC2_ALL_CONTROLS = frozenset(
    {
        CONTROL_AUTH,
        CONTROL_COUNTER,
        CONTROL_FLOOD,
        CONTROL_WHITELIST,
        CONTROL_REPLAY,
    }
)


def _deploy_obu_controls(
    scenario: ConstructionSiteScenario | FleetConstructionSiteScenario,
    obu: OnBoardUnit,
) -> None:
    """Stack a UC1 scenario's deployed controls in front of one OBU.

    The flooding detector runs first: rate analysis is cheap and must
    shield the costlier checks (and the processing queue) from load.
    Then authenticity, freshness and plausibility.
    """
    controls = scenario.controls
    pipeline = obu.pipeline
    if CONTROL_FLOOD in controls:
        pipeline.add(
            FloodingDetector(
                window_ms=1000.0, max_messages=20, cooldown_ms=5000.0
            )
        )
    if CONTROL_AUTH in controls:
        pipeline.add(SenderAuthentication(scenario.keystore))
    if CONTROL_COUNTER in controls:
        pipeline.add(MessageCounterCheck())
    if CONTROL_RANGE in controls:
        pipeline.add(
            ValueRangeCheck(
                "speed_limit_mps", 1.0, scenario.LEGAL_MAX_SPEED_MPS
            )
        )
    if CONTROL_LOCATION in controls:
        pipeline.add(
            LocationConsistencyCheck(
                {scenario.RSU_LOCATION}, require_location=False
            )
        )


class ConstructionSiteScenario(KernelScenario):
    """Use Case I: AV approaching a construction site (Fig. 2).

    Geometry and timing defaults: the vehicle starts at position 0 at
    25 m/s; the construction zone spans [1500, 1600) m (reached after
    ~60 s unattacked); the RSU broadcasts a road-works warning every
    500 ms from t=500 ms.  The driver needs 1.5 s to take over after the
    OBU's warning.

    Safety goals monitored (§IV-A):

    * **SG01** -- the vehicle must not be inside the construction zone
      without the driver in control (violated when the zone is entered in
      AUTOMATED/HANDOVER mode),
    * **SG03** -- speed limits must be communicated safely (violated when
      the automation ever targets an implausible speed),
    * **SG04** -- take-over warnings must not be missed (FTTI between an
      accepted warning and the take-over request),
    * **SG05** -- no flood of unintended hazard warnings (violated when
      more than ``max_warnings`` are shown).
    """

    ALL_CONTROLS = UC1_ALL_CONTROLS
    CONTROL_SCOPE = "UC1"
    DEFAULT_DURATION_MS = 80000.0
    #: SG04's FTTI deadline scans this topic's events.
    RETAINED_TOPICS = ("vehicle.handover_requested",)

    ZONE_NAME = "construction"
    RSU_LOCATION = "site-A"
    REMOTE_LOCATION = "site-B"
    LEGAL_MAX_SPEED_MPS = 40.0

    def __init__(
        self,
        controls: frozenset[str] | set[str] = UC1_ALL_CONTROLS,
        vehicle_speed_mps: float = 25.0,
        driver_reaction_ms: float = 1500.0,
        rsu_period_ms: float = 500.0,
        zone_start_m: float = 1500.0,
        zone_end_m: float = 1600.0,
        zone_speed_limit_mps: float = 8.0,
        handover_ftti_ms: float = 500.0,
        max_warnings: int = 5,
        obu_queue_capacity: int = 64,
        road_length_m: float = 3000.0,
    ) -> None:
        super().__init__(SimKernel(road_length_m=road_length_m), controls)
        self.zone_speed_limit_mps = zone_speed_limit_mps
        self.handover_ftti_ms = handover_ftti_ms
        self.max_warnings = max_warnings

        self.world.add_zone(self.ZONE_NAME, zone_start_m, zone_end_m)

        self.vehicle = Vehicle(
            "ego", self.clock, self.bus, self.world,
            position_m=0.0, speed_mps=vehicle_speed_mps,
        )
        self.driver = Driver(
            self.vehicle, self.clock, self.bus,
            reaction_time_ms=driver_reaction_ms,
            comfort_speed_mps=zone_speed_limit_mps,
        )

        self.v2x = self.kernel.channel(
            "v2x", latency_ms=2.0, bandwidth_per_ms=4.0
        )
        self.remote_channel = self.kernel.channel("v2x-remote", latency_ms=2.0)
        self.rsu = RoadsideUnit(
            "RSU-A", self.clock, self.v2x, self.keystore, self.RSU_LOCATION
        )
        self.remote_rsu = RoadsideUnit(
            "RSU-B",
            self.clock,
            self.remote_channel,
            self.keystore,
            self.REMOTE_LOCATION,
        )
        self.obu = OnBoardUnit(
            "OBU", self.clock, self.bus, self.vehicle,
            queue_capacity=obu_queue_capacity,
        )
        _deploy_obu_controls(self, self.obu)
        self.v2x.attach(self.obu)
        # A shut-down OBU ignores every delivery forever; take it off the
        # air so a sustained flood stops paying for calls into a corpse.
        self.bus.subscribe(
            f"ecu.{self.obu.name}.shutdown",
            lambda event: self.v2x.detach(self.obu),
        )

        self.rsu.broadcast_periodically(
            rsu_period_ms, zone_start_m, zone_speed_limit_mps, until=None
        )

        self.monitor = self.kernel.monitor()
        self._install_goal_checks()

    def _install_goal_checks(self) -> None:
        # Zone bounds resolved once; the periodic check runs thousands of
        # times.
        zone = self.world.zone(self.ZONE_NAME)
        start, end = zone.start, zone.end

        # The vehicle's cell in its cohort's position column: what the
        # ``position_m`` property returns, read without the property
        # call on every check.
        positions, index = self.vehicle.position_cell()

        def sg01_zone_without_driver() -> str | None:
            if (
                start <= positions[index] < end
                and self.vehicle.mode in AUTOMATED_MODES
            ):
                return (
                    "vehicle inside the construction zone in "
                    f"{self.vehicle.mode.value} mode at "
                    f"{self.vehicle.speed_mps:.1f} m/s"
                )
            return None

        def sg03_implausible_speed_target() -> str | None:
            # ``_target_speed_mps`` is what the ``target_speed_mps``
            # property returns, read without the property call on every
            # check.
            if self.vehicle._target_speed_mps > self.LEGAL_MAX_SPEED_MPS:
                return (
                    "automation targets implausible speed "
                    f"{self.vehicle.target_speed_mps:.1f} m/s"
                )
            return None

        def sg05_warning_flood() -> str | None:
            if self.obu.warnings_shown > self.max_warnings:
                return (
                    f"{self.obu.warnings_shown} hazard warnings shown "
                    f"(limit {self.max_warnings})"
                )
            return None

        self.monitor.add_invariant("SG01", sg01_zone_without_driver)
        self.monitor.add_invariant("SG03", sg03_implausible_speed_target)
        self.monitor.add_invariant("SG05", sg05_warning_flood)

        # SG04: once a warning is accepted, the take-over request must
        # follow within the FTTI.
        def arm_sg04(event) -> None:
            if not self._sg04_armed:
                self._sg04_armed = True
                self.monitor.expect_event_within(
                    "SG04",
                    "vehicle.handover_requested",
                    self.handover_ftti_ms,
                    description="take-over warning to the driver",
                )

        self._sg04_armed = False
        self.bus.subscribe("obu.warning_accepted", arm_sg04)

    # -- result collection ---------------------------------------------------

    def protected_pipelines(self) -> dict[str, ControlPipeline]:
        return {"OBU": self.obu.pipeline}

    def collect_stats(self) -> dict[str, Any]:
        return {
            "v2x": self.v2x.stats,
            "obu": self.obu.stats,
            "vehicle": {
                "position_m": self.vehicle.position_m,
                "speed_mps": self.vehicle.speed_mps,
                "mode": self.vehicle.mode.value,
                "handover_requested_at": self.vehicle.handover_requested_at,
                "manual_since": self.vehicle.manual_since,
            },
            "warnings_shown": self.obu.warnings_shown,
        }


class FleetConstructionSiteScenario(KernelScenario):
    """Use Case I over a *fleet*: an N-vehicle convoy under ranged radio.

    The spatial generalisation of :class:`ConstructionSiteScenario`:
    ``fleet_size`` vehicles drive in convoy toward the construction
    zone, the RSU is a **placed** actor whose road-works warnings only
    reach on-board units inside ``rsu_range_m`` (the
    :class:`~repro.sim.topology.RangePropagation` model over the
    kernel's :class:`~repro.sim.topology.Topology`), and -- when
    ``v2v_enabled`` -- each vehicle carries a
    :class:`~repro.sim.v2x.V2VRelay` forwarding warnings to convoy
    members the RSU cannot reach.  An attacker can be *placed* too
    (``attacker_position_m``/``attacker_range_m``): its traffic is
    range-gated exactly like everyone else's, which is what lets the
    ``attacker-position`` variant family flip verdicts on placement
    alone.

    Safety goals are monitored per vehicle: the aggregate ids
    (``SG01``, ``SG03``, ``SG05``) keep the published oracles working,
    and per-vehicle ids (``SG01:ego-2``) carry the verdict-per-vehicle
    story through the standard result path.  SG01 is one multi-goal
    check over the construction zone's occupants (kept by the world),
    and SG03/SG05 read offender sets kept by events, so a sweep costs
    the zone's occupancy and the offenders, not the fleet's size.
    """

    ALL_CONTROLS = UC1_ALL_CONTROLS
    CONTROL_SCOPE = "UC1"
    DEFAULT_DURATION_MS = 80000.0
    #: SG04's FTTI deadline scans this topic's events.
    RETAINED_TOPICS = ("vehicle.handover_requested",)

    ZONE_NAME = "construction"
    RSU_LOCATION = "site-A"
    LEGAL_MAX_SPEED_MPS = 40.0

    def __init__(
        self,
        controls: frozenset[str] | set[str] = UC1_ALL_CONTROLS,
        fleet_size: int = 4,
        headway_m: float = 40.0,
        vehicle_speed_mps: float = 25.0,
        driver_reaction_ms: float = 1500.0,
        rsu_period_ms: float = 500.0,
        zone_start_m: float = 1500.0,
        zone_end_m: float = 1600.0,
        zone_speed_limit_mps: float = 8.0,
        rsu_position_m: float = 1200.0,
        rsu_range_m: float | None = 600.0,
        v2v_enabled: bool = True,
        v2v_range_m: float = 150.0,
        v2v_max_hops: int = 2,
        max_warnings: int = 5,
        obu_queue_capacity: int = 64,
        road_length_m: float = 3000.0,
        attacker_position_m: float | None = None,
        attacker_range_m: float = 250.0,
    ) -> None:
        if fleet_size < 1:
            raise SimulationError("fleet size must be >= 1")
        if headway_m <= 0:
            raise SimulationError("headway must be positive")
        super().__init__(SimKernel(road_length_m=road_length_m), controls)
        self.fleet_size = fleet_size
        self.zone_speed_limit_mps = zone_speed_limit_mps
        self.max_warnings = max_warnings

        self.world.add_zone(self.ZONE_NAME, zone_start_m, zone_end_m)
        self.topology = self.kernel.create_topology()

        self.v2x = self.kernel.channel(
            "v2x",
            latency_ms=2.0,
            bandwidth_per_ms=4.0,
            propagation=RangePropagation(self.topology),
        )

        # The convoy: ego-1 leads (closest to the zone), followers trail
        # at headway_m intervals.  Each vehicle owns its kinematics; the
        # topology tracks it and carries its V2V transmit range.
        self.vehicles: list[Vehicle] = []
        self.drivers: list[Driver] = []
        self.obus: list[OnBoardUnit] = []
        self.relays: list[V2VRelay] = []
        for index in range(1, fleet_size + 1):
            vehicle = Vehicle(
                f"ego-{index}",
                self.clock,
                self.bus,
                self.world,
                position_m=(fleet_size - index) * headway_m,
                speed_mps=vehicle_speed_mps,
            )
            driver = Driver(
                vehicle,
                self.clock,
                self.bus,
                reaction_time_ms=driver_reaction_ms,
                comfort_speed_mps=zone_speed_limit_mps,
            )
            self.topology.track(vehicle, transmit_range_m=v2v_range_m)
            obu = OnBoardUnit(
                f"OBU-{index}",
                self.clock,
                self.bus,
                vehicle,
                queue_capacity=obu_queue_capacity,
            )
            _deploy_obu_controls(self, obu)
            self.topology.bind(obu.name, vehicle.name)
            self.v2x.attach(obu)
            # As in the single-vehicle scenario: dead OBUs leave the air.
            self.bus.subscribe(
                f"ecu.{obu.name}.shutdown",
                lambda event, obu=obu: self.v2x.detach(obu),
            )
            self.vehicles.append(vehicle)
            self.drivers.append(driver)
            self.obus.append(obu)
            if v2v_enabled:
                relay = V2VRelay(
                    f"V2V-{index}",
                    self.clock,
                    self.v2x,
                    self.keystore,
                    self.bus,
                    max_hops=v2v_max_hops,
                )
                self.topology.bind(relay.name, vehicle.name)
                # Relays only forward road-works warnings (original or
                # relayed); declaring the kinds keeps a CAM flood from
                # paying one no-op receive per relay per packet.
                self.v2x.attach(
                    relay, kinds=(KIND_ROAD_WORKS, KIND_V2V_RELAY)
                )
                self.relays.append(relay)

        self.topology.add_stationary(
            "RSU-A", rsu_position_m, transmit_range_m=rsu_range_m
        )
        self.rsu = RoadsideUnit(
            "RSU-A", self.clock, self.v2x, self.keystore, self.RSU_LOCATION
        )
        if attacker_position_m is not None:
            self.topology.add_stationary(
                "attacker",
                attacker_position_m,
                transmit_range_m=attacker_range_m,
            )

        self.rsu.broadcast_periodically(
            rsu_period_ms, zone_start_m, zone_speed_limit_mps, until=None
        )

        self.monitor = self.kernel.monitor()
        self._install_goal_checks()

    def _install_goal_checks(self) -> None:
        world = self.world
        vehicles = self.vehicles
        rank = {vehicle: index for index, vehicle in enumerate(vehicles)}
        goal_ids = tuple(f"SG01:{vehicle.name}" for vehicle in vehicles)

        def sg01_zone_without_driver() -> list[tuple[str, str]]:
            # SG01 can only fail inside the zone, so visit the zone's
            # occupants (a handful) instead of the convoy, in convoy
            # order.  Per violating vehicle: the aggregate id the
            # published oracles check, then the per-vehicle id for
            # per-vehicle verdicts.
            violations = []
            for index in sorted(
                rank[vehicle]
                for vehicle in world.occupants(self.ZONE_NAME)
                if vehicle in rank
            ):
                vehicle = vehicles[index]
                if vehicle.mode in AUTOMATED_MODES:
                    detail = (
                        f"{vehicle.name} inside the construction zone in "
                        f"{vehicle.mode.value} mode at "
                        f"{vehicle.speed_mps:.1f} m/s"
                    )
                    violations.append(("SG01", detail))
                    violations.append((goal_ids[index], detail))
            return violations

        # SG03 and SG05 keep their offenders' convoy ranks, updated on
        # the events that change what they read: a target speed is
        # written only by set_target_speed and safe_stop, a warning
        # count only grows when a warning is shown.  A sweep then reads
        # the lowest-ranked offender live -- the one a scan in convoy
        # order would report -- at no cost per convoy member.
        limit = self.LEGAL_MAX_SPEED_MPS
        obus = self.obus
        vehicle_rank = {
            vehicle.name: index for index, vehicle in enumerate(vehicles)
        }
        obu_rank = {obu.name: index for index, obu in enumerate(obus)}
        speeders = {
            index
            for index, vehicle in enumerate(vehicles)
            if vehicle.target_speed_mps > limit
        }
        flooded = {
            index
            for index, obu in enumerate(obus)
            if obu.warnings_shown > self.max_warnings
        }

        def on_target_change(event) -> None:
            index = vehicle_rank.get(event.source)
            if index is None:
                return
            if vehicles[index].target_speed_mps > limit:
                speeders.add(index)
            else:
                speeders.discard(index)

        def on_warning_shown(event) -> None:
            index = obu_rank.get(event.source)
            if (
                index is not None
                and obus[index].warnings_shown > self.max_warnings
            ):
                flooded.add(index)

        def sg03_implausible_speed_target() -> str | None:
            if not speeders:
                return None
            vehicle = vehicles[min(speeders)]
            return (
                f"{vehicle.name} automation targets implausible "
                f"speed {vehicle.target_speed_mps:.1f} m/s"
            )

        def sg05_warning_flood() -> str | None:
            if not flooded:
                return None
            obu = obus[min(flooded)]
            return (
                f"{obu.name}: {obu.warnings_shown} hazard warnings "
                f"shown (limit {self.max_warnings})"
            )

        self.bus.subscribe("vehicle.target_speed", on_target_change)
        self.bus.subscribe("vehicle.safe_stop", on_target_change)
        self.bus.subscribe("obu.hazard_warning_shown", on_warning_shown)
        self.monitor.add_invariant(
            ("SG01", *goal_ids), sg01_zone_without_driver
        )
        self.monitor.add_invariant("SG03", sg03_implausible_speed_target)
        self.monitor.add_invariant("SG05", sg05_warning_flood)

    # -- result collection ---------------------------------------------------

    def per_vehicle_verdicts(self) -> dict[str, str]:
        """``vehicle name -> "withstood" | "violated"`` per convoy member."""
        return {
            vehicle.name: (
                "violated"
                if self.monitor.is_violated(f"SG01:{vehicle.name}")
                else "withstood"
            )
            for vehicle in self.vehicles
        }

    def protected_pipelines(self) -> dict[str, ControlPipeline]:
        return {obu.name: obu.pipeline for obu in self.obus}

    def collect_stats(self) -> dict[str, Any]:
        handovers = sum(
            1 for v in self.vehicles if v.manual_since is not None
        )
        return {
            "v2x": self.v2x.stats,
            "fleet": {
                vehicle.name: {
                    "position_m": vehicle.position_m,
                    "speed_mps": vehicle.speed_mps,
                    "mode": vehicle.mode.value,
                    "handover_requested_at": vehicle.handover_requested_at,
                    "manual_since": vehicle.manual_since,
                    "saturated": vehicle.position_saturated,
                }
                for vehicle in self.vehicles
            },
            "per_vehicle_verdicts": self.per_vehicle_verdicts(),
            "fleet_size": self.fleet_size,
            "handovers": handovers,
            "handover_ratio": handovers / self.fleet_size,
            "warnings_shown": sum(obu.warnings_shown for obu in self.obus),
            "relayed": sum(relay.forwarded for relay in self.relays),
        }


class KeylessEntryScenario(KernelScenario):
    """Use Case II: keyless car opener over Bluetooth low energy.

    The owner's smartphone (electronic key ``KEY-1000``) opens and closes
    the vehicle; the BLE-facing gateway ("ECU_GW") admission-controls each
    command and forwards it over the body CAN to the door-lock ECU.

    Safety goals monitored (§IV-B):

    * **SG01** -- "Keep vehicle closed": the door must never open for an
      unauthorized actor,
    * **SG02** -- "Avoid intermittent open/close": no open/close
      oscillation (more than ``max_transitions`` state changes),
    * **SG03** -- "Prevent non-availability of opening": a legitimate open
      attempt must succeed within its deadline (armed per attempt),
    * **SG04** -- "Prevent unintended closing": the door must not close
      unless the owner asked.
    """

    ALL_CONTROLS = UC2_ALL_CONTROLS
    CONTROL_SCOPE = "UC2"
    DEFAULT_DURATION_MS = 20000.0
    #: SG01/SG03 read door.opened events (actor + timing), SG04 reads
    #: door.closed.
    RETAINED_TOPICS = ("door.opened", "door.closed")

    OWNER = "phone-owner"
    OWNER_KEY_ID = "KEY-1000"

    def __init__(
        self,
        controls: frozenset[str] | set[str] = UC2_ALL_CONTROLS,
        ble_latency_ms: float = 5.0,
        can_frame_time_ms: float = 1.0,
        open_deadline_ms: float = 500.0,
        max_transitions: int = 6,
    ) -> None:
        super().__init__(SimKernel(), controls)
        self.open_deadline_ms = open_deadline_ms
        self.max_transitions = max_transitions

        self.ble = self.kernel.channel(
            "ble", latency_ms=ble_latency_ms, bandwidth_per_ms=5.0
        )
        self.can = self.kernel.can_bus(
            "body-can", frame_time_ms=can_frame_time_ms, queue_capacity=64
        )
        self.lock = DoorLock(self.clock, self.bus)
        self.access_ecu = AccessEcu(
            "ECU_GW", self.clock, self.bus, self.can
        )
        self._deploy_access_controls()
        self.ble.attach(self.access_ecu)
        self.door_ecu = DoorLockEcu(
            "door-ecu", self.clock, self.bus, self.lock
        )
        self.can.attach(self.door_ecu)
        self.phone = Smartphone(
            self.OWNER, self.OWNER_KEY_ID, self.clock, self.ble, self.keystore
        )
        self.monitor = self.kernel.monitor()
        self._owner_open_times: list[float] = []
        self._install_goal_checks()

    def _deploy_access_controls(self) -> None:
        # Order: rate analysis first (shields everything downstream from
        # load), then authenticity, then freshness, then authorization.
        pipeline = self.access_ecu.pipeline
        if CONTROL_FLOOD in self.controls:
            pipeline.add(
                FloodingDetector(
                    window_ms=1000.0, max_messages=10, cooldown_ms=3000.0
                )
            )
        if CONTROL_AUTH in self.controls:
            pipeline.add(SenderAuthentication(self.keystore))
        if CONTROL_REPLAY in self.controls:
            pipeline.add(ReplayGuard(max_age_ms=200.0))
        if CONTROL_COUNTER in self.controls:
            pipeline.add(MessageCounterCheck())
        if CONTROL_WHITELIST in self.controls:
            pipeline.add(
                IdWhitelist(
                    {self.OWNER_KEY_ID},
                    kinds={"open_command", "close_command"},
                )
            )

    def _install_goal_checks(self) -> None:
        def sg01_unauthorized_open() -> str | None:
            for event in self.bus.events("door.opened"):
                actor = event.data.get("actor")
                if actor != self.OWNER:
                    return f"vehicle opened by unauthorized actor {actor!r}"
                recently_requested = any(
                    0.0 <= event.time - request_time <= self.open_deadline_ms * 4
                    for request_time in self._owner_open_times
                )
                if not recently_requested:
                    return (
                        "vehicle opened under the owner's identity without "
                        f"a recent owner request (at {event.time:.0f} ms; "
                        "replayed command)"
                    )
            return None

        def sg02_intermittent() -> str | None:
            transitions = self.lock.open_count + self.lock.close_count
            if transitions > self.max_transitions:
                return (
                    f"{transitions} open/close transitions "
                    f"(limit {self.max_transitions})"
                )
            return None

        def sg04_unintended_close() -> str | None:
            for event in self.bus.events("door.closed"):
                actor = event.data.get("actor")
                if actor != self.OWNER:
                    return f"vehicle closed by unauthorized actor {actor!r}"
            return None

        self.monitor.add_invariant("SG01", sg01_unauthorized_open)
        self.monitor.add_invariant("SG02", sg02_intermittent)
        self.monitor.add_invariant("SG04", sg04_unintended_close)

    # -- owner actions -----------------------------------------------------

    def owner_opens(self, at_ms: float, expect_within_ms: float | None = None) -> None:
        """Schedule a legitimate open attempt (arming SG03's deadline).

        ``expect_within_ms`` defaults to the scenario's open deadline.
        """
        deadline = expect_within_ms or self.open_deadline_ms

        def attempt() -> None:
            self._owner_open_times.append(self.clock.now)
            self.phone.send_open()
            self.monitor.expect_event_within(
                "SG03", "door.opened", deadline,
                description="opening of the vehicle",
            )

        self.clock.schedule_at(at_ms, attempt)

    def owner_closes(self, at_ms: float) -> None:
        """Schedule a legitimate close command."""
        self.clock.schedule_at(at_ms, self.phone.send_close)

    # -- result collection ---------------------------------------------------

    def protected_pipelines(self) -> dict[str, ControlPipeline]:
        return {"ECU_GW": self.access_ecu.pipeline}

    def collect_stats(self) -> dict[str, Any]:
        return {
            "ble": self.ble.stats,
            "can": self.can.stats,
            "access_ecu": self.access_ecu.stats,
            "door": {
                "state": self.lock.state.value,
                "open_count": self.lock.open_count,
                "close_count": self.lock.close_count,
            },
        }

    @property
    def door_state(self) -> DoorState:
        """Current lock state."""
        return self.lock.state
