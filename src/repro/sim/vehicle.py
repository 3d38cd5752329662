"""Vehicle kinematics, driving-mode state machine and driver model.

Use Case I revolves around the control handover: "The OBU should inform
the driver, so that control is transferred back (upfront) to the driver."
The vehicle therefore models:

* longitudinal kinematics (position, speed, bounded accel/decel),
* a driving-mode state machine: AUTOMATED -> HANDOVER_REQUESTED ->
  MANUAL, plus SAFE_STOP as the ISO 26262 safe state,
* a :class:`Driver` with a reaction time: after a take-over warning the
  driver needs ``reaction_time_ms`` before control is actually transferred
  (the controllability C=3 rating exists because "the driver is not
  supposed to monitor the road while automated driving mode is active").

All state transitions are published on the event bus so the safety
monitor can check goals like SG01 ("avoid ineffective location
notification without returning driving control to human") and their FTTIs.
"""

from __future__ import annotations

import enum
import threading
from typing import Callable

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import EventBus
from repro.sim.world import World


class DrivingMode(enum.Enum):
    """The vehicle's control mode."""

    AUTOMATED = "automated"
    HANDOVER_REQUESTED = "handover requested"
    MANUAL = "manual"
    SAFE_STOP = "safe stop"


#: The modes in which the automation still drives (SG01's "without
#: returning driving control to human").  A tuple, not a set: ``in`` on
#: a tuple tests identity first, while ``Enum.__hash__`` is Python code.
AUTOMATED_MODES = (DrivingMode.AUTOMATED, DrivingMode.HANDOVER_REQUESTED)


class _TickCohort:
    """Vehicles created at one clock time with one ``tick_ms``.

    They share one periodic schedule, first firing one period after
    their creation, that ticks them in creation order: a convoy of N
    vehicles costs one clock event per period instead of N.  Per-vehicle
    schedules would fire at the same times in the same order, back to
    back unless another event was scheduled for exactly a tick time
    between two vehicles' creation -- no scenario does that -- so what
    each tick observes is unchanged.

    The cohort owns the kinematics: each firing updates every vehicle's
    speed (bounded accel/decel towards its target) and position
    (clamped onto the road, flagging ``position_saturated``), keeps the
    world's zone occupancy (:meth:`World.relocate
    <repro.sim.world.World.relocate>`, inlined) and publishes
    ``vehicle.entered_zone`` per newly entered zone in name order.  The
    loop is inline, with no call per vehicle, because a convoy ticks
    every vehicle every period.

    Motion listeners are notified once per tick, not once per move:
    the distinct listeners of the vehicles that moved are called after
    the loop, and also before a ``vehicle.entered_zone`` publish when a
    vehicle moved since the last notification -- so a subscriber never
    reads a position-keyed cache computed before a motion.  A convoy
    tracked by one topology thus bumps its version once per tick, plus
    once per zone-entry publish that follows a motion.
    """

    __slots__ = ("clock", "created_at", "tick_ms", "vehicles")

    def __init__(self, clock: SimClock, tick_ms: float) -> None:
        self.clock = clock
        self.created_at = clock.now
        self.tick_ms = tick_ms
        self.vehicles: list[Vehicle] = []
        clock.schedule_periodic(tick_ms, self)

    def __call__(self) -> None:
        if getattr(_open_cohort, "cohort", None) is self:
            # First firing: nothing can join any more; drop the
            # reference so a finished simulation is not kept alive.
            _open_cohort.cohort = None
        dt = self.tick_ms / 1000.0
        now = self.clock.now
        decel_step = Vehicle.MAX_DECEL_MPS2 * dt
        accel_step = Vehicle.MAX_ACCEL_MPS2 * dt
        # The distinct motion listeners of the vehicles moved since the
        # last notification (a dict: ordered, deduplicated).
        pending: dict[Callable[[], None], None] = {}
        for vehicle in self.vehicles:
            speed = vehicle.speed_mps
            target = vehicle.target_speed_mps
            if target < speed:
                speed = vehicle.speed_mps = max(target, speed - decel_step)
            elif target > speed:
                speed = vehicle.speed_mps = min(target, speed + accel_step)
            world = vehicle._world
            previous = vehicle._position_m
            position = previous + speed * dt
            if position < 0.0:
                position = 0.0
                vehicle.position_saturated = True
            elif position > world.road_length_m:
                position = world.road_length_m
                vehicle.position_saturated = True
            if position == previous:
                continue
            # What the ``position_m`` setter does for a changed position,
            # with the listener calls deferred.
            vehicle._position_m = position
            pending |= vehicle._motion_listeners
            # Zone transitions without per-tick set materialisation:
            # compare containment at the previous and new position.
            # ``entered`` stays None unless a zone is entered, so a
            # moved vehicle costs no list.
            entered = None
            for zone in world._zones_view:
                start, end = zone.start, zone.end
                if start <= position < end:
                    if not start <= previous < end:
                        world._occupants[zone.name].add(vehicle)
                        if entered is None:
                            entered = [zone.name]
                        else:
                            entered.append(zone.name)
                elif start <= previous < end:
                    world._occupants[zone.name].discard(vehicle)
            if entered is None:
                continue
            if pending:
                _notify(pending)
                pending = {}
            for zone_name in sorted(entered):
                vehicle._bus.publish(
                    now,
                    "vehicle.entered_zone",
                    vehicle.name,
                    zone=zone_name,
                    mode=vehicle.mode.value,
                    speed_mps=vehicle.speed_mps,
                )
        if pending:
            _notify(pending)


def _notify(listeners: dict[Callable[[], None], None]) -> None:
    for listener in listeners:
        listener()


#: The cohort the next vehicle built on this thread may join.  Only a
#: vehicle on the same clock, at the same time and with the same period
#: joins, so this is a per-clock cache: simulations never share it, and
#: being per thread, cohorts never depend on thread interleaving.
_open_cohort = threading.local()


def _join_tick_cohort(vehicle: "Vehicle", clock: SimClock) -> None:
    """Tick ``vehicle`` one period from now, in its creation cohort."""
    cohort = getattr(_open_cohort, "cohort", None)
    if (
        cohort is None
        or cohort.clock is not clock
        or cohort.created_at != clock.now
        or cohort.tick_ms != vehicle.tick_ms
    ):
        cohort = _open_cohort.cohort = _TickCohort(clock, vehicle.tick_ms)
    cohort.vehicles.append(vehicle)


class Vehicle:
    """A longitudinally simulated vehicle.

    The vehicle holds the state and the control inputs; its kinematics
    run in the :class:`_TickCohort` it joins on creation, which advances
    it every ``tick_ms`` (``MAX_DECEL_MPS2``/``MAX_ACCEL_MPS2`` bound
    how fast it approaches ``target_speed_mps``).

    ``target_speed_mps`` is written only through :meth:`set_target_speed`
    and :meth:`safe_stop`, which publish ``vehicle.target_speed`` and
    ``vehicle.safe_stop``: goal checks keep their offenders on those
    events instead of reading every vehicle per sweep.

    Attributes:
        name: Vehicle identity ("ego").
        position_m: Current position along the road.
        speed_mps: Current speed (m/s).
        mode: Current :class:`DrivingMode`.
        tick_ms: Kinematics update period.
    """

    MAX_DECEL_MPS2 = 4.0
    MAX_ACCEL_MPS2 = 2.0

    def __init__(
        self,
        name: str,
        clock: SimClock,
        bus: EventBus,
        world: World,
        position_m: float = 0.0,
        speed_mps: float = 25.0,
        tick_ms: float = 100.0,
    ) -> None:
        if speed_mps < 0:
            raise SimulationError("initial speed must be >= 0")
        self.name = name
        # Motion listeners let a tracking Topology key position caches
        # on actual movement; the property setter and the tick cohort
        # notify them.  A dict: ordered, and mergeable into the cohort's
        # per-tick set with one ``|=``.
        self._motion_listeners: dict[Callable[[], None], None] = {}
        # Placement is validated, not silently clamped: a scenario that
        # puts a vehicle off-road is mis-specified, not "at the end".
        self._position_m = world.place(position_m)
        self.position_saturated = False
        self.speed_mps = speed_mps
        self.mode = DrivingMode.AUTOMATED
        self.tick_ms = tick_ms
        self.target_speed_mps = speed_mps
        self._clock = clock
        self._bus = bus
        self._world = world
        self._handover_requested_at: float | None = None
        self._manual_since: float | None = None
        world.add_resident(self)
        _join_tick_cohort(self, clock)

    # -- control ----------------------------------------------------------

    def request_handover(self, reason: str = "") -> None:
        """Issue a take-over warning to the driver.

        Idempotent while already requested; ignored once in MANUAL or
        SAFE_STOP (control is already with a safe authority).
        """
        if self.mode is not DrivingMode.AUTOMATED:
            return
        self.mode = DrivingMode.HANDOVER_REQUESTED
        self._handover_requested_at = self._clock.now
        self._bus.publish(
            self._clock.now,
            "vehicle.handover_requested",
            self.name,
            reason=reason,
            position_m=self.position_m,
        )

    def driver_takes_over(self) -> None:
        """The driver assumes manual control (called by :class:`Driver`)."""
        if self.mode in (DrivingMode.MANUAL, DrivingMode.SAFE_STOP):
            return
        self.mode = DrivingMode.MANUAL
        self._manual_since = self._clock.now
        self._bus.publish(
            self._clock.now,
            "vehicle.manual_control",
            self.name,
            position_m=self.position_m,
            latency_ms=(
                self._clock.now - self._handover_requested_at
                if self._handover_requested_at is not None
                else None
            ),
        )

    def safe_stop(self, reason: str = "") -> None:
        """Enter the safe state: decelerate to standstill."""
        if self.mode is DrivingMode.SAFE_STOP:
            return
        self.mode = DrivingMode.SAFE_STOP
        self.target_speed_mps = 0.0
        self._bus.publish(
            self._clock.now,
            "vehicle.safe_stop",
            self.name,
            reason=reason,
            position_m=self.position_m,
        )

    def set_target_speed(self, speed_mps: float) -> None:
        """Command a new target speed (speed limit, driver braking)."""
        if speed_mps < 0:
            raise SimulationError("target speed must be >= 0")
        self.target_speed_mps = speed_mps
        self._bus.publish(
            self._clock.now,
            "vehicle.target_speed",
            self.name,
            target_mps=speed_mps,
        )

    # -- state ------------------------------------------------------------

    @property
    def position_m(self) -> float:
        """Current position along the road."""
        return self._position_m

    @position_m.setter
    def position_m(self, value: float) -> None:
        # Validated like a placement: only motion saturates at the road
        # ends, and an off-road or NaN position would also break a
        # tracking topology's sorted position column.
        value = self._world.place(value)
        previous = self._position_m
        self._position_m = value
        if value != previous:
            self._world.relocate(self, previous, value)
            _notify(self._motion_listeners)

    def add_motion_listener(self, listener: Callable[[], None]) -> None:
        """Call ``listener`` after this vehicle moves.

        The contract: after the vehicle moves, ``listener`` is called at
        least once, before the next ``vehicle.entered_zone`` publish of
        that tick, if any, and otherwise at the end of the tick; the
        ``position_m`` setter calls it at once.  It is not called once
        per move: the tick cohort calls each distinct listener of the
        vehicles it moved once, and a listener registered twice is
        called once.

        The hook is how a :class:`~repro.sim.topology.Topology` tracking
        this vehicle keeps its position-keyed cache (batched
        propagation) coherent without polling: no clock event or bus
        subscriber runs between a motion and its notification, so no
        notification between two such reads guarantees the position is
        unchanged.
        """
        self._motion_listeners[listener] = None

    @property
    def handover_requested_at(self) -> float | None:
        """Time of the (first) take-over warning, if any."""
        return self._handover_requested_at

    @property
    def manual_since(self) -> float | None:
        """Time manual control was assumed, if it was."""
        return self._manual_since

    @property
    def is_stopped(self) -> bool:
        """True at (numerical) standstill."""
        return self.speed_mps < 0.01

    def in_zone(self, zone_name: str) -> bool:
        """True when currently inside the named world zone."""
        return self._world.in_zone(self.position_m, zone_name)


class Driver:
    """The human driver: reacts to take-over warnings after a delay.

    Attributes:
        reaction_time_ms: Time between warning and actually taking over.
        comfort_speed_mps: Speed the driver settles to after take-over
            (slowing for the hazard ahead).
    """

    def __init__(
        self,
        vehicle: Vehicle,
        clock: SimClock,
        bus: EventBus,
        reaction_time_ms: float = 2000.0,
        comfort_speed_mps: float = 8.0,
    ) -> None:
        if reaction_time_ms < 0:
            raise SimulationError("reaction time must be >= 0")
        self.reaction_time_ms = reaction_time_ms
        self.comfort_speed_mps = comfort_speed_mps
        self._vehicle = vehicle
        self._clock = clock
        self._reacting = False
        bus.subscribe("vehicle.handover_requested", self._on_warning)

    def _on_warning(self, event) -> None:
        if event.source != self._vehicle.name or self._reacting:
            return
        self._reacting = True
        self._clock.schedule(self.reaction_time_ms, self._take_over)

    def _take_over(self) -> None:
        self._vehicle.driver_takes_over()
        self._vehicle.set_target_speed(self.comfort_speed_mps)
        self._reacting = False


__all__ = [
    "AUTOMATED_MODES",
    "Driver",
    "DrivingMode",
    "Vehicle",
]
