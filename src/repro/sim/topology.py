"""The spatial traffic world: actors, mobility and range-gated radio.

:mod:`repro.sim.world` gives scenarios a 1-D road with named zones; this
module promotes it into a full *topology* layer -- the substrate Use
Case I's radio-coverage story actually needs:

* :class:`Actor` -- anything occupying a road position: a tracked
  vehicle, a stationary RSU, a placed attacker.  Every actor optionally
  carries a ``transmit_range_m`` used by range-gated propagation.
* pluggable :class:`MobilityModel` implementations --
  :class:`StationaryMobility` (infrastructure),
  :class:`ConstantSpeedMobility` and :class:`FollowLeaderMobility`
  (convoy followers) -- stepped deterministically by the topology's
  periodic tick in actor-insertion order.
* :class:`SpatialIndex` -- an immutable sorted-position snapshot
  answering range queries in ``O(log n + k)``, with results ordered
  deterministically by ``(distance, name)``.
* :class:`RangePropagation` -- the range-aware
  :class:`~repro.sim.network.PropagationModel`: a message reaches
  exactly the receivers whose actors sit within the *sender's* transmit
  range at delivery time.  The boundary is inclusive (``distance <=
  range``) and delivery order is the channel's deterministic attach
  order, so range-edge outcomes never depend on iteration accidents --
  the clock's scheduling sequence is the only tie-breaker in play.

Version counters drive cache invalidation: ``position_version`` bumps
whenever any position may have changed (a tick, a setter write, a
tracked vehicle reporting motion), ``registration_version`` whenever
the actor set or alias table changes.  :class:`RangePropagation` keys
its per-sender delivery sets on them, so a flood of messages inside one
clock timestamp resolves its receiver set once and replays it from
cache -- falling back to per-delivery resolution the moment a position
changes mid-timestamp (or when a tracked component cannot report
motion at all).

Placement is validated: negative positions are rejected with
:class:`~repro.errors.SimulationError` (the silent ``clamp``-to-zero of
the seed hid mis-specified scenarios), and mobility saturation at the
road ends is surfaced through :class:`~repro.sim.world.ClampedPosition`'s
``saturated`` flag plus the topology's ``saturated_actors`` record.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from typing import Callable, Iterable, Protocol, runtime_checkable

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.network import Message, Receiver
from repro.sim.world import World


def numpy_enabled() -> bool:
    """Always False: the spatial engine is pure Python.

    Kept as a stable constant because the benchmark host stamp imports
    it to record which engine a run measured.
    """
    return False


__all__ = [
    "Actor",
    "ConstantSpeedMobility",
    "FollowLeaderMobility",
    "MobilityModel",
    "RangePropagation",
    "SpatialIndex",
    "StationaryMobility",
    "Topology",
    "numpy_enabled",
]


@runtime_checkable
class MobilityModel(Protocol):
    """How an actor's position evolves over one tick."""

    def next_position(
        self, actor: "Actor", topology: "Topology", dt_s: float
    ) -> float:
        """The actor's next (unclamped) position after ``dt_s`` seconds."""


class StationaryMobility:
    """Infrastructure mobility: the actor never moves (RSUs, attackers)."""

    def next_position(
        self, actor: "Actor", topology: "Topology", dt_s: float
    ) -> float:
        return actor.position_m


class ConstantSpeedMobility:
    """Longitudinal motion at a fixed speed (m/s; negative drives back)."""

    def __init__(self, speed_mps: float) -> None:
        self.speed_mps = speed_mps

    def next_position(
        self, actor: "Actor", topology: "Topology", dt_s: float
    ) -> float:
        return actor.position_m + self.speed_mps * dt_s


class FollowLeaderMobility:
    """Close on a leading actor, holding ``gap_m`` behind it.

    The follower drives toward ``leader.position - gap_m``, capped at
    ``max_speed_mps`` and never reversing (a convoy follower brakes, it
    does not back up).
    """

    def __init__(
        self, leader: str, gap_m: float = 50.0, max_speed_mps: float = 35.0
    ) -> None:
        if gap_m < 0:
            raise SimulationError("follow gap must be >= 0")
        if max_speed_mps <= 0:
            raise SimulationError("follower max speed must be positive")
        self.leader = leader
        self.gap_m = gap_m
        self.max_speed_mps = max_speed_mps

    def next_position(
        self, actor: "Actor", topology: "Topology", dt_s: float
    ) -> float:
        target = topology.position_of(self.leader) - self.gap_m
        headroom = target - actor.position_m
        if headroom <= 0:
            return actor.position_m
        return actor.position_m + min(headroom, self.max_speed_mps * dt_s)


class Actor:
    """One positioned participant of the traffic world.

    Attributes:
        name: Unique actor name within the topology.
        transmit_range_m: Radio range of this actor's transmissions;
            ``None`` means unlimited (legacy global broadcast).
        mobility: The model stepping this actor, or ``None`` when the
            position is driven externally through ``tracker`` (e.g. a
            :class:`~repro.sim.vehicle.Vehicle` owns its kinematics).
        tracker: Callable returning the externally owned position.
    """

    def __init__(
        self,
        name: str,
        position_m: float = 0.0,
        transmit_range_m: float | None = None,
        mobility: MobilityModel | None = None,
        tracker: Callable[[], float] | None = None,
    ) -> None:
        if not name:
            raise SimulationError("actor needs a name")
        if position_m < 0:
            raise SimulationError(
                f"actor {name!r}: negative placement ({position_m} m) "
                "rejected; actors start on the road"
            )
        if transmit_range_m is not None and transmit_range_m < 0:
            raise SimulationError(
                f"actor {name!r}: transmit range must be >= 0"
            )
        if mobility is not None and tracker is not None:
            raise SimulationError(
                f"actor {name!r}: pass either mobility or tracker, not both"
            )
        self.name = name
        self.transmit_range_m = transmit_range_m
        self.mobility = mobility
        self.tracker = tracker
        self._position_m = position_m
        # Back-reference + slot index, filled in by Topology.add(): the
        # topology's position mirror and version counters must observe
        # setter writes.
        self._owner: "Topology | None" = None
        self._slot = -1

    @property
    def position_m(self) -> float:
        """Current road position (reads the tracker when present)."""
        if self.tracker is not None:
            return self.tracker()
        return self._position_m

    @position_m.setter
    def position_m(self, value: float) -> None:
        if self.tracker is not None:
            raise SimulationError(
                f"actor {self.name!r} is tracked; move the tracked "
                "component instead"
            )
        self._position_m = value
        if self._owner is not None:
            self._owner._record_motion(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Actor({self.name!r}, position_m={self.position_m:.1f}, "
            f"transmit_range_m={self.transmit_range_m})"
        )


class SpatialIndex:
    """Immutable sorted snapshot of actor positions for range queries.

    The position-sorted entries left and right of the query centre are
    two already-distance-sorted runs, so both queries *merge* them
    lazily (``heapq.merge`` semantics) instead of re-sorting the hit
    slice; ``nearest()`` draws only ``count`` items from the merge.
    Names come back ``(distance, name)``-ordered, so range queries are
    deterministic even for coincident actors.
    """

    def __init__(self, positions: Iterable[tuple[float, str]]) -> None:
        self._entries = sorted(positions)
        self._positions = [position for position, _name in self._entries]

    def __len__(self) -> int:
        return len(self._entries)

    def _ranked(self, center_m: float, lo: int, hi: int):
        """Yield ``(distance, name)`` over entries[lo:hi] in sorted order.

        Entries left of the centre have strictly non-increasing distance
        as position grows, entries right of it non-decreasing -- two
        sorted runs merged lazily in ``O(k)`` with no slice re-sort.
        Coincident positions inside the left run are emitted per
        equal-position group in name order, keeping the merge input
        properly ``(distance, name)``-sorted.
        """
        entries = self._entries
        split = bisect.bisect_left(self._positions, center_m, lo, hi)

        def left_run():
            i = split - 1
            while i >= lo:
                j = i
                position = entries[j][0]
                while j > lo and entries[j - 1][0] == position:
                    j -= 1
                for index in range(j, i + 1):
                    pos, name = entries[index]
                    yield (center_m - pos, name)
                i = j - 1

        def right_run():
            for pos, name in itertools.islice(entries, split, hi):
                yield (pos - center_m, name)

        return heapq.merge(left_run(), right_run())

    def _bounds(self, center_m: float, radius_m: float) -> tuple[int, int]:
        lo = bisect.bisect_left(self._positions, center_m - radius_m)
        hi = bisect.bisect_right(self._positions, center_m + radius_m)
        return lo, hi

    def within(self, center_m: float, radius_m: float) -> tuple[str, ...]:
        """Actor names within ``radius_m`` of ``center_m`` (inclusive).

        Results are ordered by ``(distance, name)`` so range queries are
        deterministic even for coincident actors.
        """
        if radius_m < 0:
            raise SimulationError("query radius must be >= 0")
        lo, hi = self._bounds(center_m, radius_m)
        return tuple(name for _distance, name in self._ranked(center_m, lo, hi))

    def nearest(self, center_m: float, count: int = 1) -> tuple[str, ...]:
        """The ``count`` nearest actor names, by ``(distance, name)``."""
        size = len(self._entries)
        if count <= 0:
            return ()
        return tuple(
            name
            for _distance, name in itertools.islice(
                self._ranked(center_m, 0, size), count
            )
        )


class Topology:
    """The actor registry of one simulated traffic world.

    A topology owns placement validation, deterministic mobility
    stepping (insertion order, one shared tick) and name resolution for
    range-gated propagation: components attached to a channel (an OBU
    named ``"OBU-2"``) are bound to their carrying actor (``"ego-2"``)
    with :meth:`bind`, so the propagation model can locate both senders
    and receivers.

    Attributes:
        position_version: Bumped whenever any actor position may have
            changed (tick, setter write, tracked-component motion).
            Consumers key position-derived caches on it.
        registration_version: Bumped whenever the actor set or the
            alias table changes.
    """

    def __init__(
        self,
        world: World,
        clock: SimClock | None = None,
        tick_ms: float = 100.0,
    ) -> None:
        if tick_ms <= 0:
            raise SimulationError("topology tick must be positive")
        self.world = world
        self.tick_ms = tick_ms
        self.position_version = 0
        self.registration_version = 0
        self._clock = clock
        self._actors: dict[str, Actor] = {}
        self._slot_actors: list[Actor] = []
        self._aliases: dict[str, str] = {}
        self._saturated: set[str] = set()
        self._ticking = False
        # Per-slot position mirror for batched range checks, plus the
        # versions it was synced at.
        self._positions: list[float] | None = None
        self._positions_reg = -1
        self._positions_pos = -1
        self._tracked_entries: list[tuple[int, Actor]] = []
        # True when a tracked component cannot report motion: position
        # caches can never trust ``position_version`` then.
        self._volatile = False
        self._index_cache: tuple[int, SpatialIndex] | None = None

    # -- registration -------------------------------------------------------

    def add(self, actor: Actor) -> Actor:
        """Register an actor; duplicate names fail loudly."""
        if self._resolve(actor.name) is not None:
            raise SimulationError(f"actor {actor.name!r} already registered")
        try:
            self.world.place(actor.position_m)
        except SimulationError as exc:
            raise SimulationError(f"actor {actor.name!r}: {exc}") from None
        actor._owner = self
        actor._slot = len(self._slot_actors)
        self._actors[actor.name] = actor
        self._slot_actors.append(actor)
        if actor.tracker is not None:
            self._tracked_entries.append((actor._slot, actor))
        self.registration_version += 1
        self.position_version += 1
        if actor.mobility is not None:
            self._ensure_ticking()
        return actor

    def add_stationary(
        self,
        name: str,
        position_m: float,
        transmit_range_m: float | None = None,
    ) -> Actor:
        """Place fixed infrastructure (an RSU, a positioned attacker).

        Stationary actors carry no mobility model at all, so placing
        them never starts the topology tick -- a world of pure
        infrastructure leaves the event queue drainable.
        """
        return self.add(
            Actor(
                name,
                position_m=position_m,
                transmit_range_m=transmit_range_m,
            )
        )

    def add_mobile(
        self,
        name: str,
        position_m: float,
        mobility: MobilityModel,
        transmit_range_m: float | None = None,
    ) -> Actor:
        """Place a topology-stepped mobile actor."""
        return self.add(
            Actor(
                name,
                position_m=position_m,
                transmit_range_m=transmit_range_m,
                mobility=mobility,
            )
        )

    def track(
        self, component, transmit_range_m: float | None = None
    ) -> Actor:
        """Track a component owning its own kinematics (a Vehicle).

        The component provides ``name`` and ``position_m``; the actor's
        position always reads through to it.  Components exposing
        ``add_motion_listener`` (e.g. :class:`~repro.sim.vehicle.Vehicle`)
        notify the topology after they move, which keeps position-keyed
        caches (batched propagation, index snapshots) valid between
        motions.  Every tracked vehicle registers the same listener, so
        a convoy ticked by one cohort bumps ``position_version`` once
        per tick, not once per vehicle (see
        :meth:`~repro.sim.vehicle.Vehicle.add_motion_listener` for when
        the notification comes).  Components without the hook mark the
        topology *volatile* and every spatial query resolves per call,
        exactly as before.
        """
        actor = self.add(
            Actor(
                component.name,
                position_m=component.position_m,
                transmit_range_m=transmit_range_m,
                tracker=lambda: component.position_m,
            )
        )
        subscribe = getattr(component, "add_motion_listener", None)
        if subscribe is not None:
            subscribe(self._on_tracked_motion)
        else:
            self._volatile = True
        return actor

    def bind(self, alias: str, actor_name: str) -> None:
        """Bind a channel-endpoint name to its carrying actor.

        E.g. ``bind("OBU-2", "ego-2")``: messages to/from ``OBU-2``
        resolve to ``ego-2``'s position and transmit range.
        """
        if self._resolve(actor_name) is None:
            raise SimulationError(
                f"cannot bind {alias!r}: unknown actor {actor_name!r}"
            )
        if self._resolve(alias) is not None:
            raise SimulationError(f"name {alias!r} already registered")
        self._aliases[alias] = actor_name
        self.registration_version += 1

    # -- version bookkeeping ------------------------------------------------

    def _record_motion(self, actor: Actor) -> None:
        """An actor's position was written through its setter."""
        self.position_version += 1
        positions = self._positions
        if (
            positions is not None
            and self._positions_reg == self.registration_version
        ):
            positions[actor._slot] = actor._position_m

    def _on_tracked_motion(self) -> None:
        """A tracked component reported that it moved."""
        self.position_version += 1

    def _sync_positions(self) -> list[float]:
        """The per-slot position mirror, synced to the current versions.

        Rebuilds on registration change; otherwise refreshes only the
        tracked slots (mobility/stationary slots are written through on
        every motion).  Volatile topologies refresh tracked slots on
        every call -- their motion is invisible to the version counter.
        """
        if self._positions_reg != self.registration_version:
            self._positions = [actor.position_m for actor in self._slot_actors]
            self._positions_reg = self.registration_version
            self._positions_pos = self.position_version
        elif self._volatile or self._positions_pos != self.position_version:
            positions = self._positions
            for slot, actor in self._tracked_entries:
                positions[slot] = actor.tracker()
            self._positions_pos = self.position_version
        return self._positions

    # -- lookup -------------------------------------------------------------

    def _resolve(self, name: str) -> Actor | None:
        if name in self._actors:
            return self._actors[name]
        if name in self._aliases:
            return self._actors[self._aliases[name]]
        return None

    def actor(self, name: str) -> Actor:
        """Look up an actor by name or bound alias."""
        actor = self._resolve(name)
        if actor is None:
            raise SimulationError(f"unknown actor {name!r}")
        return actor

    def knows(self, name: str) -> bool:
        """True when ``name`` is a registered actor or bound alias."""
        return self._resolve(name) is not None

    @property
    def actors(self) -> tuple[Actor, ...]:
        """All actors, in registration order."""
        return tuple(self._slot_actors)

    @property
    def saturated_actors(self) -> tuple[str, ...]:
        """Names of actors whose mobility ever saturated at a road end."""
        return tuple(sorted(self._saturated))

    def position_of(self, name: str) -> float:
        """Current position of an actor (or bound alias)."""
        return self.actor(name).position_m

    def distance_m(self, a: str, b: str) -> float:
        """Absolute distance between two actors."""
        return abs(self.position_of(a) - self.position_of(b))

    def in_range(self, sender: str, receiver: str) -> bool:
        """True when ``receiver`` sits within ``sender``'s transmit range.

        The boundary is inclusive: at ``distance == range`` the receiver
        still hears the sender.  A ``None`` range means unlimited.
        """
        range_m = self.actor(sender).transmit_range_m
        if range_m is None:
            return True
        return self.distance_m(sender, receiver) <= range_m

    def neighbors(
        self, name: str, range_m: float | None = None
    ) -> tuple[str, ...]:
        """Other actors within ``range_m`` (default: the actor's own
        transmit range), ordered by ``(distance, name)``."""
        actor = self.actor(name)
        radius = range_m if range_m is not None else actor.transmit_range_m
        if radius is None:
            names = self.index().within(actor.position_m, float("inf"))
        else:
            names = self.index().within(actor.position_m, radius)
        return tuple(n for n in names if n != actor.name)

    def index(self) -> SpatialIndex:
        """A :class:`SpatialIndex` snapshot of the current positions.

        Snapshots are cached per ``position_version`` (positions cannot
        have changed while the version stands still), except on volatile
        topologies, which rebuild per call.
        """
        cached = self._index_cache
        if (
            cached is not None
            and not self._volatile
            and cached[0] == self.position_version
        ):
            return cached[1]
        index = SpatialIndex(
            (actor.position_m, actor.name) for actor in self._slot_actors
        )
        self._index_cache = (self.position_version, index)
        return index

    # -- mobility -----------------------------------------------------------

    def _ensure_ticking(self) -> None:
        if self._ticking:
            return
        if self._clock is None:
            raise SimulationError(
                "topology has mobile actors but no clock to step them"
            )
        # First step one period after the first mobile actor arrives.
        self._clock.schedule_periodic(self.tick_ms, self.step)
        self._ticking = True

    def _step_scalar(self, actor: Actor, dt: float) -> None:
        proposed = actor.mobility.next_position(actor, self, dt)
        position, saturated = self.world.clamp_value(proposed)
        if saturated:
            self._saturated.add(actor.name)
        actor.position_m = position

    def step(self, dt_s: float | None = None) -> None:
        """Advance every mobile actor one tick, in insertion order."""
        dt = self.tick_ms / 1000.0 if dt_s is None else dt_s
        for actor in self._slot_actors:
            if actor.mobility is None:
                continue
            self._step_scalar(actor, dt)
        self.position_version += 1


class _ChannelView:
    """One channel attach list, resolved against a topology once.

    Caches the per-receiver slot resolution (names never re-resolve
    per delivery) and the per-sender reached lists, keyed on the
    topology's version counters: while no position changes, a sender's
    delivery set -- e.g. every packet of a flood burst inside one clock
    timestamp -- is a dict hit.  Invalidated by re-resolution when the
    attach list grows or the actor/alias tables change; a detach hands
    the propagation model a new list object, which never matches.
    """

    __slots__ = (
        "topology",
        "receivers",
        "length",
        "reg_version",
        "slots",
        "_memo",
    )

    def __init__(self, topology: Topology, receivers: list[Receiver]) -> None:
        self.topology = topology
        self.receivers = receivers
        self.length = len(receivers)
        self.reg_version = topology.registration_version
        # Per receiver its actor slot, or None for an unplaced observer.
        self.slots: list[int | None] = []
        for receiver in receivers:
            actor = topology._resolve(receiver.name)
            self.slots.append(None if actor is None else actor._slot)
        self._memo: dict[str, tuple] = {}

    def current(self) -> bool:
        """True while this resolution still matches the live state."""
        return (
            self.length == len(self.receivers)
            and self.reg_version == self.topology.registration_version
        )

    def reached(self, sender: Actor, range_m: float) -> list[Receiver]:
        """The receivers ``sender`` reaches, memoised per position era."""
        topology = self.topology
        volatile = topology._volatile
        if not volatile:
            memo = self._memo.get(sender.name)
            if (
                memo is not None
                and memo[0] == topology.position_version
                and memo[1] == range_m
            ):
                return memo[2]
        sender_pos = sender.position_m
        positions = topology._sync_positions()
        # Unplaced observers (slot None) hear everything.
        selected = [
            receiver
            for receiver, slot in zip(self.receivers, self.slots)
            if slot is None or abs(positions[slot] - sender_pos) <= range_m
        ]
        if not volatile:
            self._memo[sender.name] = (
                topology.position_version,
                range_m,
                selected,
            )
        return selected


class RangePropagation:
    """Range-gated delivery: a message reaches in-range receivers only.

    Membership is evaluated at **delivery** time (after channel latency
    and congestion), against the *sender's* transmit range -- matching
    the physical story where the RSU's transmitter, not the OBU's
    antenna, bounds the coverage zone.  Consistent with
    :meth:`Topology.in_range`, an actor whose ``transmit_range_m`` is
    ``None`` transmits without limit; senders unknown to the topology
    have no position to gate from and broadcast globally, and receivers
    unknown to the topology (passive observers without a road position)
    hear everything unless explicitly placed.

    Delivery sets resolve in batch: the attach list is resolved to
    actor slots once (per registration era), and each sender's reached
    list is computed by one pass over the topology's position mirror,
    then memoised on
    ``Topology.position_version`` -- senders firing repeatedly within
    one clock timestamp replay the cached set.  The moment any position
    changes (or on topologies whose tracked components cannot report
    motion), resolution falls back to per-delivery recomputation, so
    membership always reflects positions at delivery time.

    Note the model's shared-band semantics: range gating filters who
    *decodes* a transmission, never who *transmits* -- every send still
    occupies the channel's bandwidth budget (airtime), so an
    out-of-decode-range transmitter can congest the band for everyone,
    as co-channel interference does.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._views: dict[int, _ChannelView] = {}

    def receivers(
        self, message: Message, receivers: list[Receiver]
    ) -> list[Receiver]:
        """The attached receivers the message actually reaches.

        May return a list shared with previous deliveries of the same
        era; callers own the channel contract of treating the result as
        read-only.
        """
        topology = self.topology
        sender = topology._resolve(message.sender)
        if sender is None:
            # No position to gate from: the sender transmits globally.
            return list(receivers)
        range_m = sender.transmit_range_m
        if range_m is None:
            return list(receivers)
        key = id(receivers)
        view = self._views.get(key)
        if view is None or view.receivers is not receivers or not view.current():
            view = _ChannelView(topology, receivers)
            self._views[key] = view
        return view.reached(sender, range_m)
