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
from bisect import bisect_left, bisect_right
from functools import partial
from itertools import accumulate, islice, repeat
from operator import add
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


#: The furthest ahead, in ticks, a cruising vehicle is filed: its next
#: check when the run has no horizon (:meth:`SimClock.run`) or a far
#: one.  It bounds the crossing chain :meth:`_TickCohort._ticks_ahead`
#: builds and the rounding error its shortcut allows for.
_CHUNK_TICKS = 1024


def _still(position: float) -> float:
    """The increment that leaves ``position`` exactly as it is: ``0``
    keeps an int an int, ``-0.0`` every float (``-0.0 + 0.0`` is
    ``0.0``, ``-0.0 + -0.0`` is ``-0.0``)."""
    return 0 if position.__class__ is int else -0.0


class _TickCohort:
    """Vehicles created at one clock time with one ``tick_ms``.

    They share one periodic schedule, first firing one period after
    their creation, that ticks them in creation order: a convoy of N
    vehicles costs one clock event per period instead of N.  Per-vehicle
    schedules would fire at the same times in the same order, back to
    back unless another event was scheduled for exactly a tick time
    between two vehicles' creation -- no scenario does that -- so what
    each tick observes is unchanged.

    The cohort owns the kinematics and its vehicles' positions: one
    list, ``positions``, updated in place, which ``Vehicle.position_m``
    and a tracking :class:`~repro.sim.topology.Topology` read.  A
    vehicle *cruises* while its speed equals its target: it then moves
    by the same ``speed * dt`` every tick, so the tick at which it next
    reaches a zone boundary, passes the road end or stops moving (an
    increment too small to change its position) is known in advance,
    and the cohort files it under that tick (:meth:`_file`).  Each tick
    advances every position with one ``map(add, positions,
    increments)``: the same IEEE additions, in the same order, as one
    ``position + speed * dt`` per vehicle, where a vehicle that does not
    move has an increment that keeps it as it is (:func:`_still`).

    Only the vehicles filed under the tick and the *active* ones -- not
    cruising, just created, or written since their last step -- take the
    per-vehicle step (:meth:`_advance`): speed towards the target
    (bounded accel/decel), the road-end clamp (flagging
    ``position_saturated``), the world's zone occupancy
    (:meth:`World.relocate <repro.sim.world.World.relocate>`, inlined)
    and one ``vehicle.entered_zone`` publish per newly entered zone, in
    name order.  A stepped vehicle that cruises is filed again from
    where it is.  Writing ``speed_mps`` or ``position_m``, or a changed
    target through :meth:`Vehicle.set_target_speed` or
    :meth:`Vehicle.safe_stop`, makes a vehicle active (:meth:`release`),
    and so does a zone added to its world.

    Motion listeners are notified once per tick, not once per move:
    the distinct listeners of the vehicles that moved are called after
    the step, and also before a ``vehicle.entered_zone`` publish when a
    vehicle moved since the last notification -- so a subscriber never
    reads a position-keyed cache computed before a motion.  A publish
    sees the vehicles up to the entering one (in creation order) moved
    and the later ones not yet: they advance after it, from whatever
    its subscribers wrote.  A convoy tracked by one topology thus bumps
    its version once per tick, plus once per zone-entry publish that
    follows a motion.
    """

    __slots__ = (
        "clock",
        "created_at",
        "tick_ms",
        "dt",
        "tick",
        "vehicles",
        "positions",
        "increments",
        "filed",
        "agenda",
        "active",
        "bounds",
        "listeners",
    )

    def __init__(self, clock: SimClock, tick_ms: float) -> None:
        self.clock = clock
        self.created_at = clock.now
        self.tick_ms = tick_ms
        self.dt = tick_ms / 1000.0
        # Firings so far; vehicles are filed under a firing count.
        self.tick = 0
        self.vehicles: list[Vehicle] = []
        # Per vehicle: its position; its increment (``speed * dt`` while
        # filed, else _still of its position or, while active, anything:
        # the step overwrites what it adds); the tick it is filed under,
        # or 0 -- a filed vehicle moves on every tick before that one.
        self.positions: list[float] = []
        self.increments: list[float] = []
        self.filed: list[int] = []
        # Tick -> the vehicles filed under it; an entry whose vehicle
        # has since been released is stale (``filed`` no longer names
        # the tick) and skipped.
        self.agenda: dict[int, list[int]] = {}
        # The vehicles stepped on the next tick.
        self.active: set[int] = set()
        # Per world, its zones' bounds, sorted (kept by _rezone).
        self.bounds: dict[World, list[float]] = {}
        # The motion listeners every vehicle has, or False when they
        # differ; None until computed (see _notify_moved).
        self.listeners: tuple | bool | None = None
        clock.schedule_periodic(tick_ms, self)

    def join(self, vehicle: "Vehicle", position: float) -> None:
        """Add ``vehicle`` at ``position``; its first tick steps it."""
        index = len(self.vehicles)
        self.vehicles.append(vehicle)
        self.positions.append(position)
        self.increments.append(_still(position))
        self.filed.append(0)
        self.active.add(index)
        world = vehicle._world
        if world not in self.bounds:
            self._rezone(world)
            world.add_zone_listener(partial(self._rezone, world))
        self.listeners = None
        vehicle._cohort = self
        vehicle._positions = self.positions
        vehicle._index = index

    def release(self, index: int) -> None:
        """Step vehicle ``index`` on every tick until it is filed again:
        its speed, target or position was written."""
        self.filed[index] = 0
        self.active.add(index)

    def __call__(self) -> None:
        self.tick = tick = self.tick + 1
        if tick == 1 and getattr(_open_cohort, "cohort", None) is self:
            # First firing: nothing can join any more; drop the
            # reference so a finished simulation is not kept alive.
            _open_cohort.cohort = None
        due = self.agenda.pop(tick, None)
        if due is not None or self.active:
            self._advance(tick, due)
        else:
            # Every vehicle cruises or stands still, and none is due.
            positions = self.positions
            positions[:] = map(add, positions, self.increments)
            if self.listeners != ():
                self._notify_moved(0, len(positions), ())

    def _rezone(self, world: World) -> None:
        """``world`` has new zones: its vehicles' filed ticks no longer
        hold, so step them all on the next tick (or, mid-tick, on the
        rest of this one)."""
        zones = world.zones
        bounds = {zone.start for zone in zones} | {zone.end for zone in zones}
        self.bounds[world] = sorted(bounds)
        for index, vehicle in enumerate(self.vehicles):
            if vehicle._world is world:
                self.release(index)

    def _advance(self, tick: int, due: list[int] | None) -> None:
        """One tick with vehicles to step: the filed ones ``due`` now
        and the active ones, in creation order, around the advance of
        every other vehicle."""
        vehicles = self.vehicles
        positions = self.positions
        increments = self.increments
        active = self.active
        if due is not None:
            filed = self.filed
            for index in due:
                if filed[index] == tick:
                    filed[index] = 0
                    active.add(index)
        dt = self.dt
        decel_step = Vehicle.MAX_DECEL_MPS2 * dt
        accel_step = Vehicle.MAX_ACCEL_MPS2 * dt
        now = self.clock.now
        count = len(positions)
        # Stepped vehicles whose speed reached their target: to file.
        cruising: list[int] = []
        # Stepped vehicles that moved since the last notification, and
        # where that notification's range ended.
        moved: list[int] = []
        notified = 0
        # The tick runs in runs of vehicles: a run ends after a vehicle
        # that entered a zone, and the next one starts after its publish.
        first = 0
        advanced = list(map(add, positions, increments))
        order = sorted(active)
        while True:
            entered = None
            stop = count
            for index in order:
                vehicle = vehicles[index]
                speed = vehicle._speed_mps
                target = vehicle._target_speed_mps
                if target < speed:
                    speed = max(target, speed - decel_step)
                    vehicle._speed_mps = speed
                elif target > speed:
                    speed = min(target, speed + accel_step)
                    vehicle._speed_mps = speed
                if speed == target:
                    cruising.append(index)
                world = vehicle._world
                previous = positions[index]
                position = previous + speed * dt
                if position < 0.0:
                    position = 0.0
                    vehicle.position_saturated = True
                elif position > world.road_length_m:
                    position = world.road_length_m
                    vehicle.position_saturated = True
                if position == previous:
                    advanced[index - first] = previous
                    continue
                advanced[index - first] = position
                moved.append(index)
                # Zone transitions without per-tick set materialisation:
                # compare containment at the previous and new position.
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
                if entered is not None:
                    stop = index + 1
                    break
            if entered is None:
                positions[first:] = advanced
                break
            positions[first:stop] = advanced[: stop - first]
            self._notify_moved(notified, stop, moved)
            notified = stop
            moved = []
            for zone_name in sorted(entered):
                vehicle._bus.publish(
                    now,
                    "vehicle.entered_zone",
                    vehicle.name,
                    zone=zone_name,
                    mode=vehicle.mode.value,
                    speed_mps=vehicle._speed_mps,
                )
            first = stop
            advanced = list(map(
                add, islice(positions, first, None),
                islice(increments, first, None),
            ))
            order = sorted(i for i in active if i >= first)
        if self.listeners != ():
            self._notify_moved(notified, count, moved)
        for index in cruising:
            self._file(index, tick)

    def _file(self, index: int, tick: int) -> None:
        """File vehicle ``index``, stepped on ``tick``, under the tick of
        its next step if it still cruises; it stays active if not."""
        vehicle = self.vehicles[index]
        speed = vehicle._speed_mps
        if speed != vehicle._target_speed_mps:
            return
        increment = speed * self.dt
        if not increment >= 0.0:
            return  # Reversing: only a direct write of a negative speed.
        position = self.positions[index]
        road = vehicle._world.road_length_m
        after = position + increment
        if after == position or (
            after > road and position == road and vehicle.position_saturated
        ):
            # Standing still, or pinned at the road end: no later tick
            # changes anything.
            self.increments[index] = _still(position)
            self.active.discard(index)
            return
        ahead = 1 if after > road else self._ticks_ahead(
            position, increment, vehicle._world
        )
        self.increments[index] = increment
        self.filed[index] = tick + ahead
        self.agenda.setdefault(tick + ahead, []).append(index)
        self.active.discard(index)

    def _ticks_ahead(
        self, position: float, increment: float, world: World
    ) -> int:
        """The ticks until a vehicle cruising from ``position`` by
        ``increment`` (which moves it, and not past the road end) needs
        its next step: when it first reaches the next zone boundary above
        it (or the road end), or makes its last move, or else just after
        the run's horizon, and never much more than :data:`_CHUNK_TICKS`
        on.

        Each tick's addition rounds up by at most a factor of ``1 +
        2**-53``, so ``k`` ticks on the vehicle is below ``(position + k
        * increment) * (1 + 2**-53)**k``, well inside a ``2**-30``
        margin for ``k <= _CHUNK_TICKS``; and an increment above
        ``height * 2**-50`` moves every position below ``height``.  So a
        vehicle far from the boundary is filed by that bound alone.
        Near it, ``accumulate(repeat(increment), initial=position)``
        makes the very additions the ticks make, and ``bisect`` on that
        chain finds the tick exactly; the chain is dropped at once.
        """
        bounds = self.bounds[world]
        above = bisect_right(bounds, position)
        height = bounds[above] if above < len(bounds) else world.road_length_m
        clock = self.clock
        left = (clock._horizon - clock.now) / self.tick_ms
        span = _CHUNK_TICKS if left >= _CHUNK_TICKS else int(left) + 1
        reach = (height - position) / increment
        ahead = span if reach > span else int(reach) - 1
        if (
            ahead >= 1
            and (position + ahead * increment) * (1.0 + 2.0**-30) < height
            and increment > height * 2.0**-50
        ):
            # Below ``height`` and moving on every tick up to ``ahead``.
            return ahead + 1
        # If rounding puts the crossing past the chain's end, the
        # vehicle is stepped there and filed again.
        length = span if reach > span else min(span, int(reach) + 2)
        chain = list(accumulate(repeat(increment, length), initial=position))
        ahead = min(length, bisect_left(chain, height))
        if chain[-1] == chain[-2]:
            # The chain stops moving: the vehicle's last move lands on
            # its first occurrence of the final value.
            ahead = min(ahead, bisect_left(chain, chain[-1]))
        return ahead

    def _notify_moved(self, lo: int, hi: int, moved) -> None:
        """Call the motion listeners of the vehicles in ``[lo, hi)`` that
        moved on this tick: the filed ones and the stepped ``moved``."""
        listeners = self.listeners
        if listeners is None:
            listeners = self.listeners = self._shared_listeners()
        if listeners is not False:
            if listeners and (moved or any(islice(self.filed, lo, hi))):
                for listener in listeners:
                    listener()
            return
        filed = self.filed
        pending: dict[Callable[[], None], None] = {}
        moved = set(moved)
        vehicles = self.vehicles
        for index in range(lo, hi):
            if filed[index] or index in moved:
                pending |= vehicles[index]._motion_listeners
        _notify(pending)

    def _shared_listeners(self) -> tuple | bool:
        """The motion listeners every vehicle has (in order), or False."""
        shared = None
        for vehicle in self.vehicles:
            listeners = tuple(vehicle._motion_listeners)
            if shared is None:
                shared = listeners
            elif listeners != shared:
                return False
        return shared or ()


def _notify(listeners: dict[Callable[[], None], None]) -> None:
    for listener in listeners:
        listener()


#: The cohort the next vehicle built on this thread may join.  Only a
#: vehicle on the same clock, at the same time and with the same period
#: joins, so this is a per-clock cache: simulations never share it, and
#: being per thread, cohorts never depend on thread interleaving.
_open_cohort = threading.local()


def _join_tick_cohort(
    vehicle: "Vehicle", clock: SimClock, position: float
) -> None:
    """Tick ``vehicle``, placed at ``position``, one period from now, in
    its creation cohort."""
    cohort = getattr(_open_cohort, "cohort", None)
    if (
        cohort is None
        or cohort.clock is not clock
        or cohort.created_at != clock.now
        or cohort.tick_ms != vehicle.tick_ms
    ):
        cohort = _open_cohort.cohort = _TickCohort(clock, vehicle.tick_ms)
    cohort.join(vehicle, position)


class Vehicle:
    """A longitudinally simulated vehicle.

    The vehicle holds the control inputs and its mode; its kinematics
    run in the :class:`_TickCohort` it joins on creation, which keeps
    its position in the cohort's position column and advances it every
    ``tick_ms`` (``MAX_DECEL_MPS2``/``MAX_ACCEL_MPS2`` bound how fast it
    approaches ``target_speed_mps``).  Writing ``position_m`` or
    ``speed_mps``, or commanding a target, takes effect from the next
    tick on, like any control input; NaN is rejected, since the cohort
    orders positions and increments.

    ``target_speed_mps`` is read-only: :meth:`set_target_speed` and
    :meth:`safe_stop` are its only writers, and they publish
    ``vehicle.target_speed`` and ``vehicle.safe_stop``, so goal checks
    keep their offenders on those events instead of reading every
    vehicle per sweep.

    Attributes:
        name: Vehicle identity ("ego").
        position_m: Current position along the road.
        speed_mps: Current speed (m/s).
        target_speed_mps: The speed the kinematics approach (m/s).
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
        # ``not >=``/``not >``: NaN compares false both ways.
        if not speed_mps >= 0:
            raise SimulationError("initial speed must be >= 0")
        if not tick_ms > 0:
            raise SimulationError(
                f"tick period must be positive, got {tick_ms}"
            )
        self.name = name
        # Motion listeners let a tracking Topology key position caches
        # on actual movement; the property setter and the tick cohort
        # notify them.  A dict: ordered, and mergeable into the cohort's
        # per-tick set with one ``|=``.
        self._motion_listeners: dict[Callable[[], None], None] = {}
        self.position_saturated = False
        self._speed_mps = speed_mps
        self._target_speed_mps = speed_mps
        self.mode = DrivingMode.AUTOMATED
        self.tick_ms = tick_ms
        self._clock = clock
        self._bus = bus
        self._world = world
        self._handover_requested_at: float | None = None
        self._manual_since: float | None = None
        # Set by the cohort's join: the cohort, its position column and
        # this vehicle's index in it.  Placement is validated, not
        # silently clamped: a scenario that puts a vehicle off-road is
        # mis-specified, not "at the end".
        self._cohort: _TickCohort
        self._positions: list[float]
        self._index: int
        _join_tick_cohort(self, clock, world.place(position_m))
        world.add_resident(self)

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
        self._steer(0.0)
        self._bus.publish(
            self._clock.now,
            "vehicle.safe_stop",
            self.name,
            reason=reason,
            position_m=self.position_m,
        )

    def set_target_speed(self, speed_mps: float) -> None:
        """Command a new target speed (speed limit, driver braking).

        ``inf`` is a legal command (SG03 flags it); negative and NaN
        targets are rejected.
        """
        self._steer(speed_mps)
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
        return self._positions[self._index]

    @position_m.setter
    def position_m(self, value: float) -> None:
        # Validated like a placement: only motion saturates at the road
        # ends, and an off-road or NaN position would also break a
        # tracking topology's sorted position column.
        value = self._world.place(value)
        positions = self._positions
        previous = positions[self._index]
        positions[self._index] = value
        self._cohort.release(self._index)
        if value != previous:
            self._world.relocate(self, previous, value)
            _notify(self._motion_listeners)

    @property
    def speed_mps(self) -> float:
        """Current speed (m/s)."""
        return self._speed_mps

    @speed_mps.setter
    def speed_mps(self, value: float) -> None:
        if value != value:
            raise SimulationError("speed is NaN")
        self._speed_mps = value
        self._cohort.release(self._index)

    @property
    def target_speed_mps(self) -> float:
        """The speed the kinematics approach (m/s), read-only."""
        return self._target_speed_mps

    def _steer(self, value: float) -> None:
        """Set the target speed, the one write behind both commands."""
        # ``not >=``: NaN compares false.
        if not value >= 0:
            raise SimulationError("target speed must be >= 0")
        previous = self._target_speed_mps
        self._target_speed_mps = value
        if value != previous:
            # An equal target (an RSU warning repeats its speed limit)
            # leaves a cruising vehicle cruising: the step changes a
            # speed only while it differs from the target.
            self._cohort.release(self._index)

    def position_cell(self) -> tuple[list[float], int]:
        """The list holding this vehicle's position, and its index there.

        The list is the tick cohort's position column: the cohort
        updates it in place on every tick, so a reader that keeps the
        pair (a tracking :class:`~repro.sim.topology.Topology`) always
        reads the current position.
        """
        return self._positions, self._index

    def add_motion_listener(self, listener: Callable[[], None]) -> None:
        """Call ``listener`` after this vehicle moves.

        The contract: after the vehicle moves, ``listener`` is called at
        least once, before the next ``vehicle.entered_zone`` publish of
        that tick, if any, and otherwise at the end of the tick; the
        ``position_m`` setter calls it at once.  It is not called once
        per move: the tick cohort calls each distinct listener of the
        vehicles it moved once, in the order the vehicles were created,
        and a listener registered twice is called once.  The cohort
        advances a cruising vehicle without stepping it, so the
        notification, not a per-vehicle call, is the only sign of its
        motion.

        The hook is how a :class:`~repro.sim.topology.Topology` tracking
        this vehicle keeps its position-keyed cache (batched
        propagation) coherent without polling: no clock event or bus
        subscriber runs between a motion and its notification, so no
        notification between two reads of :meth:`position_cell`
        guarantees the position is unchanged.
        """
        self._motion_listeners[listener] = None
        self._cohort.listeners = None

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
