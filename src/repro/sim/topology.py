"""Range-gated radio: actors on the road and who hears whom.

:mod:`repro.sim.world` gives scenarios a 1-D road with named zones; this
module places radio participants on it, which is what Use Case I's
coverage story needs -- whether an RSU warning or a flood reaches an OBU
depends on distance:

* :class:`Actor` -- anything occupying a road position: a tracked
  vehicle, a stationary RSU, a placed attacker.  Every actor optionally
  carries a ``transmit_range_m`` used by range-gated propagation.
* :class:`Topology` -- the actor registry.  It moves nobody: a
  :class:`~repro.sim.vehicle.Vehicle` owns its kinematics (its tick
  cohort is the one mover) and the topology *tracks* it, reading its
  position straight from the cohort's position column, the list the
  cohort advances in place; stationary actors keep the position they
  were placed at unless a caller writes it.
* :class:`RangePropagation` -- the range-aware
  :class:`~repro.sim.network.PropagationModel`: a message reaches
  exactly the receivers whose actors sit within the *sender's* transmit
  range at delivery time.  The boundary is inclusive (``distance <=
  range``) and delivery order is the channel's deterministic attach
  order, so range-edge outcomes never depend on iteration accidents --
  the clock's scheduling sequence is the only tie-breaker in play.

Version counters drive cache invalidation: ``position_version`` bumps
whenever any position may have changed (a setter write, a tracked
vehicle reporting motion), ``registration_version`` whenever the actor
set or alias table changes.  Per position era the topology gathers its
positions once, at C speed, from the lists they live in (the cohorts'
position columns, each stationary actor's own one-item list) into a
column sorted by position that every sender and channel shares;
:class:`RangePropagation` answers a delivery with a range query over
that column and keys its per-sender delivery sets on the versions, so
a flood of messages inside one clock timestamp resolves its receiver
set once and replays it from cache -- and resolves afresh the moment a
position changes.

Placement is validated: negative, NaN and beyond-the-road-end positions
are rejected with :class:`~repro.errors.SimulationError` (the silent
clamp-to-zero of the seed hid mis-specified scenarios), at placement
and on every write to a stationary actor's position.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, islice
from operator import getitem, le

from repro.errors import SimulationError
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
    "RangePropagation",
    "Topology",
    "numpy_enabled",
]

#: Attach lists with at least this many receivers answer a delivery
#: with a range query over the sorted position column; shorter ones scan
#: their receivers.  Chosen by measurement: over the fleet baseline/jam
#: pair the scan is as fast up to about 56 receivers and slower from 64
#: on (time in ``_ChannelView.reached`` per pair, scan vs column: 2.2 vs
#: 3.1 ms at 16 receivers, 9.9 vs 6.5 ms at 128).
COLUMN_MIN_RECEIVERS = 64


class Actor:
    """One positioned participant of the traffic world.

    The position lives in a list, read at an index: the actor's own
    one-item list, or -- for an actor :meth:`Topology.track` made -- a
    tracked vehicle's cell in its tick cohort's position column.  The
    topology gathers every actor's position from these cells at C
    speed.

    Attributes:
        name: Unique actor name within the topology.
        transmit_range_m: Radio range of this actor's transmissions;
            ``None`` means unlimited (legacy global broadcast).
    """

    def __init__(
        self,
        name: str,
        position_m: float = 0.0,
        transmit_range_m: float | None = None,
    ) -> None:
        if not name:
            raise SimulationError("actor needs a name")
        if position_m < 0:
            raise SimulationError(
                f"actor {name!r}: negative placement ({position_m} m) "
                "rejected; actors start on the road"
            )
        if transmit_range_m is not None and not transmit_range_m >= 0:
            raise SimulationError(
                f"actor {name!r}: transmit range must be >= 0"
            )
        self.name = name
        self.transmit_range_m = transmit_range_m
        # Where the position is read: ``_source[_index]``.
        self._source: list[float] = [position_m]
        self._index = 0
        self._tracked = False
        # Back-reference + slot index, filled in by Topology.add(): the
        # topology's version counter must observe setter writes.
        self._owner: "Topology | None" = None
        self._slot = -1

    @property
    def position_m(self) -> float:
        """Current road position."""
        return self._source[self._index]

    @position_m.setter
    def position_m(self, value: float) -> None:
        if self._tracked:
            raise SimulationError(
                f"actor {self.name!r} is tracked; move the tracked "
                "component instead"
            )
        owner = self._owner
        if owner is None:
            self._source[0] = value  # validated by Topology.add
        else:
            # Validated like a placement: an off-road or NaN position
            # would also break the sorted position column.
            self._source[0] = owner._place(self.name, value)
            owner.position_version += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Actor({self.name!r}, position_m={self.position_m:.1f}, "
            f"transmit_range_m={self.transmit_range_m})"
        )


class Topology:
    """The actor registry of one simulated traffic world.

    A topology owns placement validation and name resolution for
    range-gated propagation: components attached to a channel (an OBU
    named ``"OBU-2"``) are bound to their carrying actor (``"ego-2"``)
    with :meth:`bind`, so the propagation model can locate both senders
    and receivers.  It steps no motion of its own; tracked vehicles move
    on their tick cohort and tell the topology when they did.

    Attributes:
        position_version: Bumped whenever any actor position may have
            changed (setter write, tracked-component motion).
            Consumers key position-derived caches on it.
        registration_version: Bumped whenever the actor set or the
            alias table changes.
    """

    def __init__(self, world: World) -> None:
        self.world = world
        self.position_version = 0
        self.registration_version = 0
        self._actors: dict[str, Actor] = {}
        self._slot_actors: list[Actor] = []
        self._aliases: dict[str, str] = {}
        # Per slot, the list its actor's position lives in and the index
        # there (Actor._source, Actor._index).
        self._slot_sources: list[list[float]] = []
        self._slot_indices: list[int] = []
        # Per-slot position mirror for batched range checks, plus the
        # position era it was gathered in (an add starts a new era too).
        self._positions: list[float] = []
        self._positions_pos = -1
        # The positions in ascending order, the slot of each and where
        # each is gathered from, built on the first range query of a
        # position era and shared by every sender and channel view;
        # plus the versions it was built at.
        self._column: list[float] = []
        self._column_slots: list[int] = []
        self._column_sources: list[list[float]] = []
        self._column_indices: list[int] = []
        self._column_reg = -1
        self._column_pos = -1

    # -- registration -------------------------------------------------------

    def add(self, actor: Actor) -> Actor:
        """Register an actor; duplicate names fail loudly."""
        if self._resolve(actor.name) is not None:
            raise SimulationError(f"actor {actor.name!r} already registered")
        self._place(actor.name, actor.position_m)
        actor._owner = self
        actor._slot = len(self._slot_actors)
        self._actors[actor.name] = actor
        self._slot_actors.append(actor)
        self._slot_sources.append(actor._source)
        self._slot_indices.append(actor._index)
        self.registration_version += 1
        self.position_version += 1
        return actor

    def add_stationary(
        self,
        name: str,
        position_m: float,
        transmit_range_m: float | None = None,
    ) -> Actor:
        """Place fixed infrastructure (an RSU, a positioned attacker)."""
        return self.add(
            Actor(
                name,
                position_m=position_m,
                transmit_range_m=transmit_range_m,
            )
        )

    def track(
        self, component, transmit_range_m: float | None = None
    ) -> Actor:
        """Track a component owning its own kinematics (a Vehicle).

        The component provides ``name``, ``position_m``,
        ``position_cell`` and ``add_motion_listener``.  The actor reads
        its position from the component's cell -- for a vehicle, its
        slot in the tick cohort's position column, which the cohort
        updates in place -- so every position era the topology gathers
        a whole convoy at C speed, with no call per vehicle.  The
        topology subscribes :meth:`step` so the component reports each
        motion (see
        :meth:`~repro.sim.vehicle.Vehicle.add_motion_listener` for when
        the notification comes).  That keeps position-keyed caches
        (batched propagation) valid between motions.  Every tracked
        vehicle registers the same listener, so a convoy ticked by one
        cohort bumps ``position_version`` once per tick, not once per
        vehicle.

        Raises:
            SimulationError: when the component has no
                ``add_motion_listener`` -- its motion would be invisible
                to the version counter and every cached delivery set
                could go stale -- or no ``position_cell`` to read its
                position from.
        """
        subscribe = getattr(component, "add_motion_listener", None)
        if subscribe is None:
            raise SimulationError(
                f"cannot track {component.name!r}: it has no "
                "add_motion_listener to report its motion"
            )
        cell = getattr(component, "position_cell", None)
        if cell is None:
            raise SimulationError(
                f"cannot track {component.name!r}: it has no "
                "position_cell to read its position from"
            )
        actor = Actor(
            component.name,
            position_m=component.position_m,
            transmit_range_m=transmit_range_m,
        )
        actor._source, actor._index = cell()
        actor._tracked = True
        self.add(actor)
        subscribe(self.step)
        return actor

    def bind(self, alias: str, actor_name: str) -> None:
        """Bind a channel-endpoint name to its carrying actor.

        E.g. ``bind("OBU-2", "ego-2")``: messages to/from ``OBU-2``
        resolve to ``ego-2``'s position and transmit range.
        ``actor_name`` may itself be an alias; the binding stores the
        actor it resolves to.
        """
        actor = self._resolve(actor_name)
        if actor is None:
            raise SimulationError(
                f"cannot bind {alias!r}: unknown actor {actor_name!r}"
            )
        if self._resolve(alias) is not None:
            raise SimulationError(f"name {alias!r} already registered")
        self._aliases[alias] = actor.name
        self.registration_version += 1

    def _place(self, name: str, position_m: float) -> float:
        """``position_m``, validated as a placement on this road."""
        try:
            return self.world.place(position_m)
        except SimulationError as exc:
            raise SimulationError(f"actor {name!r}: {exc}") from None

    # -- version bookkeeping ------------------------------------------------

    def step(self) -> None:
        """A tracked component reported that it moved: a new position era."""
        self.position_version += 1

    def _sync_positions(self) -> list[float]:
        """The per-slot position mirror, gathered afresh once per
        position era."""
        if self._positions_pos != self.position_version:
            self._positions = list(
                map(getitem, self._slot_sources, self._slot_indices)
            )
            self._positions_pos = self.position_version
        return self._positions

    def _sorted_column(self) -> tuple[list[float], list[int]]:
        """The positions in ascending order and their slots, built once
        per position era.

        The column is gathered straight from where the positions live,
        in the previous era's slot order.  Vehicles can overtake, so
        that order is only a guess: it is kept when it still sorts the
        new positions (a cruising convoy's case, checked at C speed)
        and re-sorted otherwise (a nearly sorted order sorts in about
        linear time).  Ties keep no particular order; queries never
        depend on it.
        """
        if (
            self._column_pos == self.position_version
            and self._column_reg == self.registration_version
        ):
            return self._column, self._column_slots
        slots = self._column_slots
        if self._column_reg != self.registration_version:
            slots = self._column_slots = list(range(len(self._slot_actors)))
            self._column_sources = self._slot_sources[:]
            self._column_indices = self._slot_indices[:]
        column = list(
            map(getitem, self._column_sources, self._column_indices)
        )
        if not all(map(le, column, islice(column, 1, None))):
            positions = self._sync_positions()
            slots.sort(key=positions.__getitem__)
            self._column_sources = list(
                map(self._slot_sources.__getitem__, slots)
            )
            self._column_indices = list(
                map(self._slot_indices.__getitem__, slots)
            )
            column = list(map(positions.__getitem__, slots))
        self._column = column
        self._column_reg = self.registration_version
        self._column_pos = self.position_version
        return column, slots

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


class _ChannelView:
    """One channel attach list, resolved against a topology once.

    Caches the per-receiver slot resolution (names never re-resolve
    per delivery) and the per-sender reached lists, keyed on the
    topology's version counters: while no position changes, a sender's
    delivery set -- e.g. every packet of a flood burst inside one clock
    timestamp -- is a dict hit.  Invalidated by re-resolution when the
    attach list grows or the actor/alias tables change; a detach hands
    the propagation model a new list object, which never matches.

    A list of at least :data:`COLUMN_MIN_RECEIVERS` receivers answers a
    miss with a range query over the topology's sorted position column:
    it maps each actor slot to the indices of the receivers riding that
    actor and keeps the indices of the unplaced observers.  A shorter
    list scans its receivers, which is cheaper than the query there.
    """

    __slots__ = (
        "topology",
        "receivers",
        "length",
        "reg_version",
        "slots",
        "by_slot",
        "unplaced",
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
        # For the column query: per actor slot the indices of its
        # receivers (several can ride one actor), and the unplaced
        # observers' indices.
        self.by_slot: list[tuple[int, ...]] | None = None
        self.unplaced: list[int] = []
        if self.length >= COLUMN_MIN_RECEIVERS:
            by_slot: list[tuple[int, ...]] = [()] * len(
                topology._slot_actors
            )
            for index, slot in enumerate(self.slots):
                if slot is None:
                    self.unplaced.append(index)
                else:
                    by_slot[slot] += (index,)
            self.by_slot = by_slot
        self._memo: dict[str, tuple] = {}

    def current(self) -> bool:
        """True while this resolution still matches the live state."""
        return (
            self.length == len(self.receivers)
            and self.reg_version == self.topology.registration_version
        )

    def reached(self, sender: Actor, range_m: float) -> list[Receiver]:
        """The receivers ``sender`` reaches, memoised per position era,
        in attach order."""
        topology = self.topology
        memo = self._memo.get(sender.name)
        if (
            memo is not None
            and memo[0] == topology.position_version
            and memo[1] == range_m
        ):
            return memo[2]
        sender_pos = sender.position_m
        if self.by_slot is None:
            positions = topology._sync_positions()
            # Unplaced observers (slot None) hear everything.
            selected = [
                receiver
                for receiver, slot in zip(self.receivers, self.slots)
                if slot is None
                or abs(positions[slot] - sender_pos) <= range_m
            ]
        else:
            column, order = topology._sorted_column()
            lo, hi = _in_range_run(column, sender_pos, range_m)
            indices = self.unplaced + list(
                chain.from_iterable(map(self.by_slot.__getitem__, order[lo:hi]))
            )
            indices.sort()
            selected = list(map(self.receivers.__getitem__, indices))
        self._memo[sender.name] = (
            topology.position_version,
            range_m,
            selected,
        )
        return selected


def _in_range_run(
    column: list[float], sender_pos: float, range_m: float
) -> tuple[int, int]:
    """The run ``[lo, hi)`` of the ascending ``column`` whose positions
    ``p`` satisfy ``abs(p - sender_pos) <= range_m``.

    ``fl(p - s)`` is monotone in ``p``, so ``-r <= fl(p - s)`` holds on a
    suffix of the column and ``fl(p - s) <= r`` on a prefix: the
    members are one run.  ``s - r`` and ``s + r`` round, so bisecting on
    them only guesses its ends; each end then walks to where its own
    exact predicate flips (rarely a step).  Membership is never decided
    by ``s - r <= p <= s + r``, which can disagree at the boundary.
    """
    end = len(column)
    lo = bisect_left(column, sender_pos - range_m)
    while lo > 0 and column[lo - 1] - sender_pos >= -range_m:
        lo -= 1
    while lo < end and column[lo] - sender_pos < -range_m:
        lo += 1
    hi = bisect_right(column, sender_pos + range_m, lo)
    while hi > lo and column[hi - 1] - sender_pos > range_m:
        hi -= 1
    while hi < end and column[hi] - sender_pos <= range_m:
        hi += 1
    return lo, hi


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
    list is one range query over the topology's sorted position column
    -- O(log n + k) for k receivers in reach, the column sorted once
    per position era for every sender and channel -- returned in attach
    order and memoised on ``Topology.position_version``: senders firing
    repeatedly within one clock timestamp replay the cached set.  The
    moment any position changes the set is resolved afresh, so
    membership always reflects positions at delivery time.  (Short
    attach lists scan their receivers instead; the answer is the same.)
    The channel hands every attach list it replaces to
    :meth:`release`, so the model holds views of lists in use only.

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

    def release(self, receivers: list[Receiver]) -> None:
        """Drop the view of an attach list the channel no longer uses."""
        view = self._views.get(id(receivers))
        if view is not None and view.receivers is receivers:
            del self._views[id(receivers)]
