"""Generic message and channel abstractions of the simulated vehicle.

Every communication path in the substrate -- V2X radio (RSU<->OBU), the
Bluetooth low-energy link of the keyless opener, and the CAN bus -- is a
:class:`Channel` carrying :class:`Message` objects.  Channels deliver with
latency through the shared :class:`~repro.sim.clock.SimClock`, support
taps (eavesdropping attackers see copies), jamming windows (messages are
dropped), and a finite bandwidth (excess traffic queues up, which is how
flooding degrades availability).

Messages carry the authentication surface the security controls inspect:
a claimed ``sender``, a monotonically increasing ``counter``, a send
``timestamp``, and an optional HMAC ``auth_tag`` over all of it.  Attacks
manipulate exactly these fields (spoof the sender, replay an old tag,
tamper the payload) and the controls' verdicts follow honestly from HMAC
verification and freshness checks.
"""

from __future__ import annotations

import dataclasses
import itertools
from array import array
from collections import deque
from itertools import accumulate, compress, count, repeat
from operator import add, gt, lt, sub
from typing import (
    Any,
    Callable,
    ClassVar,
    Iterable,
    Protocol,
    runtime_checkable,
)

from repro.errors import SimulationError
from repro.sim.clock import Segment, SimClock
from repro.sim.crypto import KeyStore, compute_mac, verify_mac
from repro.sim.events import EventBus


def _signing_payload(
    kind: str,
    sender: str,
    counter: int,
    timestamp: float,
    payload: dict[str, Any],
) -> bytes:
    """The canonical signing bytes of a message, built directly.

    Byte-identical to ``canonical_payload({...})`` over the field dict
    the tag has always covered: the fixed field names sort as ``counter
    < kind < payload.* < sender < timestamp``, and prefixing payload
    keys with ``payload.`` preserves their relative ``sorted`` order, so
    the parts can be emitted in one pass without building and re-sorting
    the intermediate dict (signing sits on the per-send hot path).
    """
    parts = [f"counter={counter!r}", f"kind={kind!r}"]
    for key in sorted(payload):
        parts.append(f"payload.{key}={payload[key]!r}")
    parts.append(f"sender={sender!r}")
    parts.append(f"timestamp={timestamp!r}")
    return "|".join(parts).encode("utf-8")


#: Source of :attr:`Message.unique_id`; :meth:`Message._sign` bypasses
#: ``__init__`` and draws from it directly.
_next_unique_id = itertools.count(1).__next__


class _LazyTag:
    """Non-data descriptor behind :attr:`Message.auth_tag`.

    ``__init__`` stores the tag in the instance ``__dict__``, which
    shadows this descriptor; only messages from :meth:`Message._sign`
    reach it, on their first read, which computes the tag once and
    stores it on the instance.
    """

    def __get__(self, message: "Message | None", owner: type) -> str:
        if message is None:
            return ""  # the dataclass field default
        tag = compute_mac(message._signer_key, message.signing_bytes())
        vars(message)["auth_tag"] = tag
        return tag


@dataclasses.dataclass(frozen=True)
class Message:
    """One message on a channel.

    Attributes:
        kind: Message type, e.g. ``"road_works_warning"``,
            ``"open_command"``, ``"can_frame"``.
        sender: Claimed sender identity (spoofable).
        payload: Message body (JSON-compatible values).
        counter: Per-sender message counter (monotonic for honest senders).
        timestamp: Send time in ms (stamped by the channel when unset).
        auth_tag: HMAC over (kind, sender, counter, timestamp, payload);
            empty for unauthenticated messages.  Signed messages compute
            it on first read (see :meth:`has_auth_tag` for a presence
            check that does not).
        location: Logical origin location (used by plausibility checks on
            replayed warnings "from other locations").
        unique_id: Globally unique message id, assigned at construction.
    """

    kind: str
    sender: str
    payload: dict[str, Any]
    counter: int = 0
    timestamp: float = -1.0
    auth_tag: str = _LazyTag()  # type: ignore[assignment]
    location: str = ""
    unique_id: int = dataclasses.field(default_factory=_next_unique_id)

    # Per-instance caches (class-attribute fallbacks; instances override
    # via their ``__dict__``).  Safe because a Message is frozen and its
    # payload is treated as immutable everywhere (attacks copy before
    # mutating): the signing bytes, the tag and any MAC verdict over
    # them can never change for a given instance.  A signed message
    # holds its signer's key -- which alone answers ``mac_verified`` for
    # that key -- and builds the bytes and tag on first read.
    # ``dataclasses.replace`` reads every field (forcing the tag) and
    # builds a *new* instance without a signer key, so tampered copies
    # -- which share ``unique_id`` and ``auth_tag`` with their original
    # -- start with cold caches and re-verify honestly.  (That is also
    # why the memo is per-instance rather than keyed on ``(key,
    # unique_id, tag)`` globally: a tampered replica would hit a stale
    # global entry.)
    _signing_cache: ClassVar[bytes | None] = None
    _mac_cache: ClassVar[dict | None] = None
    _signer_key: ClassVar[bytes | None] = None

    def signing_bytes(self) -> bytes:
        """The byte string the auth tag covers (computed once per
        instance -- broadcasts hand the same frozen message to every
        receiver's authentication check)."""
        cached = self._signing_cache
        if cached is None:
            cached = _signing_payload(
                self.kind, self.sender, self.counter, self.timestamp,
                self.payload,
            )
            object.__setattr__(self, "_signing_cache", cached)
        return cached

    def has_auth_tag(self) -> bool:
        """Whether the message carries an auth tag, without computing it.

        The presence check of the authentication controls: reading
        ``not message.auth_tag`` would force a signed message's lazy
        HMAC on every admit.
        """
        return self._signer_key is not None or bool(self.auth_tag)

    def mac_verified(self, key: bytes) -> bool:
        """Whether :attr:`auth_tag` verifies under ``key`` (memoised).

        One fleet broadcast reaches N on-board units, each running the
        same HMAC verification over the same bytes; the verdict is
        cached per ``key`` on the message instance so the work happens
        once per broadcast instead of once per receiver.  A signed
        message answers True for its signer's key (HMAC is
        deterministic) without ever computing its tag; the key is
        compared by value, like the memo's dict lookup.
        """
        signer_key = self._signer_key
        if signer_key is not None and key == signer_key:
            return True
        cache = self._mac_cache
        if cache is None:
            cache = {}
            object.__setattr__(self, "_mac_cache", cache)
        verdict = cache.get(key)
        if verdict is None:
            verdict = verify_mac(key, self.signing_bytes(), self.auth_tag)
            cache[key] = verdict
        return verdict

    @classmethod
    def _sign(
        cls, key: bytes, kind: str, sender: str, payload: dict[str, Any],
        counter: int, timestamp: float, location: str, unique_id: int,
    ) -> "Message":
        """The one signing constructor: a message tagged under ``key``.

        The tag is computed on first read of :attr:`auth_tag`.  The
        stored signer key answers :meth:`mac_verified` for ``key``, so
        receivers of an honestly signed message never redo the signer's
        work; any *other* key, and any tampered replica (a new instance),
        still verifies from scratch.

        Fills the instance dict directly: the frozen ``__init__`` costs
        one ``object.__setattr__`` per field on the per-packet flood
        path, and would store the ``auth_tag`` left to :class:`_LazyTag`.
        """
        message = object.__new__(cls)
        vars(message).update(
            kind=kind,
            sender=sender,
            payload=payload,
            counter=counter,
            timestamp=timestamp,
            location=location,
            unique_id=unique_id,
            _signer_key=key,
        )
        return message

    def signed(self, keystore: KeyStore) -> "Message":
        """Return a copy carrying a valid auth tag for ``sender``.

        The sender must be provisioned in ``keystore``; honest components
        sign everything they send, attackers can only sign with identities
        they actually control.  The copy carries ``unique_id`` over, as
        ``dataclasses.replace`` would, and computes its tag on first
        read (see :meth:`_sign`).
        """
        return self._sign(
            keystore.key_of(self.sender), self.kind, self.sender,
            self.payload, self.counter, self.timestamp, self.location,
            self.unique_id,
        )

    @classmethod
    def create_signed(
        cls,
        keystore: KeyStore,
        *,
        kind: str,
        sender: str,
        payload: dict[str, Any],
        counter: int = 0,
        timestamp: float = -1.0,
        location: str = "",
    ) -> "Message":
        """Construct a message carrying a valid auth tag for ``sender``.

        Equivalent to ``Message(...).signed(keystore)`` with a single
        construction; consumes exactly one ``unique_id``, the same as
        the two-step spelling, whose ``signed()`` copy carries the
        throwaway original's id.
        """
        return cls._sign(
            keystore.key_of(sender), kind, sender, payload, counter,
            timestamp, location, _next_unique_id(),
        )

    def with_timestamp(self, time: float) -> "Message":
        """Copy with ``timestamp`` set (tag untouched -- stamp first, then sign).

        What ``dataclasses.replace(self, timestamp=time)`` builds, without
        its per-field reflection: every field copied, ``unique_id``
        included, and ``auth_tag`` read, which forces a signed message's
        lazy tag; the copy holds no signer key and no cached signing
        bytes or MAC verdicts.
        """
        message = object.__new__(type(self))
        vars(message).update(
            kind=self.kind,
            sender=self.sender,
            payload=self.payload,
            counter=self.counter,
            timestamp=time,
            auth_tag=self.auth_tag,
            location=self.location,
            unique_id=self.unique_id,
        )
        return message


def _airtime_chain(times: array, next_free: float, slot: float) -> array:
    """The airtime start of each send at ``times``, as
    :meth:`Channel._airtime_slot` gives it send by send: the channel's
    ``next_free``, then one ``slot`` later per send while the channel
    is backlogged, and a send's own time where it finds the channel
    idle.  The same float additions in the same order, built in C: one
    ``accumulate`` block per backlogged run, checked against the send
    times by one ``map`` unless it starts after the last of them, and a
    precomputed flag per send for where an idle run ends."""
    total = len(times)
    chain = array("d")
    start = next_free
    index = 0
    size = total
    busy = None
    while index < total:
        block = array(
            "d",
            accumulate(
                repeat(slot, min(size, total - index) - 1), initial=start
            ),
        )
        end = index + len(block)
        # A backlog that outlasts the block's sends needs no check.
        idle = None if start >= times[end - 1] else next(
            compress(count(), map(lt, block, times[index:end])), None
        )
        if idle is None:
            chain += block
            index = end
            start = block[-1] + slot
            size *= 2
            continue
        chain += block[:idle]
        index += idle
        if busy is None:
            # busy[i]: send i + 1 queues behind send i made on an idle
            # channel; a True sentinel ends the last run.
            busy = list(map(gt, map(add, times, repeat(slot)), times[1:]))
            busy.append(True)
        last = busy.index(True, index)
        chain += times[index:last + 1]
        index = last + 1
        start = times[last] + slot
        size = 8
    return chain


class Receiver(Protocol):
    """Anything that can be attached to a channel."""

    name: str

    def receive(self, message: Message) -> None:
        """Handle a delivered message."""


@runtime_checkable
class Medium(Protocol):
    """One communication medium of the simulated vehicle.

    Every concrete transport -- the broadcast :class:`Channel` (V2X radio,
    BLE link) and the :class:`~repro.sim.can.CanBus` -- satisfies this
    protocol, which is what lets the simulation kernel
    (:class:`~repro.sim.kernel.SimKernel`) manage CAN, BLE and V2X
    uniformly and lets attack injectors and endpoints be written against
    the interface instead of a specific transport.

    Beyond the core surface below, media may offer optional capabilities
    (``tap()`` for eavesdroppers, ``jam()`` for RF denial); callers probe
    for them with ``hasattr``.
    """

    name: str

    def attach(self, receiver: Receiver) -> None:
        """Attach a receiver; it sees every delivered message."""

    def send(self, message: Message) -> Message | None:
        """Submit a message for delivery (after latency/arbitration)."""

    @property
    def stats(self) -> dict[str, float]:
        """Traffic statistics of the medium."""


@runtime_checkable
class PropagationModel(Protocol):
    """Which attached receivers a delivered message actually reaches.

    The model is consulted once per delivery, *after* latency and
    congestion, so range membership reflects positions at delivery time.
    :class:`InfiniteRange` (the default) reproduces the legacy global
    broadcast; :class:`~repro.sim.topology.RangePropagation` gates
    delivery on the sender's transmit range over a
    :class:`~repro.sim.topology.Topology`.

    Reach contract: the answer depends only on the message's sender and
    on state that only clock events change (positions move in vehicle
    ticks), so a flood train asks once per train.
    """

    def receivers(
        self, message: Message, receivers: list[Receiver]
    ) -> list[Receiver]:
        """The subset of ``receivers`` that hears ``message``.

        ``receivers`` is the channel's **live** attach list (no
        defensive copy on the delivery hot path): implementations must
        treat it as read-only and return either the list unchanged
        (global broadcast) or a **new** list with the selected subset --
        never filter it in place.
        """

    def release(self, receivers: list[Receiver]) -> None:
        """The channel replaced ``receivers`` and never passes it again:
        drop anything cached for it."""


class InfiniteRange:
    """The legacy propagation: every attached receiver hears every
    message, regardless of geometry.  This is the explicit spelling of
    the global-broadcast behaviour all pre-topology scenarios rely on --
    a channel without a propagation model behaves identically."""

    def receivers(
        self, message: Message, receivers: list[Receiver]
    ) -> list[Receiver]:
        # Returned as-is (no defensive copy): the channel's delivery loop
        # treats the result as read-only, and copying the attach list on
        # every delivery was measurable fleet-campaign overhead.
        return receivers

    def release(self, receivers: list[Receiver]) -> None:
        pass


class Channel:
    """A broadcast medium delivering messages with latency.

    Attributes:
        name: Channel name ("v2x", "ble", "can").
        latency_ms: Propagation + processing delay per message.
        bandwidth_per_ms: Max deliveries per millisecond; ``None`` means
            unlimited.  Excess messages queue behind earlier traffic, so a
            flood inflates delivery times for everyone (availability loss).
            The budget is *airtime on the shared band*: every send
            occupies it, including sends no attached receiver is in
            range to decode -- co-channel interference congests the
            channel regardless of who can hear the payload.
        propagation: The :class:`PropagationModel` gating which
            receivers *decode* each delivery; defaults to
            :class:`InfiniteRange` (global broadcast).  Propagation
            never gates *transmission*: see ``bandwidth_per_ms``.
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        bus: EventBus,
        latency_ms: float = 1.0,
        bandwidth_per_ms: float | None = None,
        propagation: PropagationModel | None = None,
    ) -> None:
        if latency_ms < 0:
            raise SimulationError("channel latency must be >= 0")
        if bandwidth_per_ms is not None and bandwidth_per_ms <= 0:
            raise SimulationError("channel bandwidth must be positive")
        self.name = name
        self.latency_ms = latency_ms
        self.bandwidth_per_ms = bandwidth_per_ms
        self.propagation: PropagationModel = (
            propagation if propagation is not None else InfiniteRange()
        )
        self._clock = clock
        self._bus = bus
        self._receivers: list[Receiver] = []
        # Receivers that only care about some kinds (e.g. relays that
        # never act on CAM floods) declare them at attach(); deliveries
        # of other kinds skip them entirely via per-kind fan-out lists.
        self._kind_limits: dict[Receiver, frozenset[str]] = {}
        self._kind_views: dict[str, list[Receiver]] = {}
        self._taps: list[Callable[[Message], None]] = []
        self._jam_until = -1.0
        self._next_free = 0.0
        self._sent = 0
        self._delivered = 0
        self._dropped = 0
        self._out_of_range = 0
        self._delays: deque[float] = deque(maxlen=1000)
        self._deliveries = clock.lane(self._deliver)
        # train_stop's (stop, receivers out of range, [(receiver,
        # denial)]) for the send_train that follows it.
        self._train: tuple[float, int, list[tuple[Receiver, Any]]] = (
            0.0, 0, []
        )
        # Topic strings built once; per-message f-strings rehash per publish.
        self._topic_delivered = f"channel.{name}.delivered"
        self._topic_dropped = f"channel.{name}.dropped"
        # One delivered event per message: the probe keeps the
        # unobserved case (unretained, no subscriber) at counter cost.
        self._delivered_probe = bus.probe(self._topic_delivered)

    # -- wiring -----------------------------------------------------------

    def attach(
        self, receiver: Receiver, kinds: Iterable[str] | None = None
    ) -> None:
        """Attach a receiver; it gets every delivered message.

        ``kinds`` optionally restricts the receiver to the named message
        kinds: deliveries of any other kind never call its ``receive``.
        Use it for endpoints whose ``receive`` is a no-op outside a fixed
        kind set (e.g. V2V relays only forward road-works warnings), so
        a high-rate flood of an uninteresting kind does not pay one call
        per attached-but-indifferent node.  Semantically identical to
        attaching without ``kinds`` as long as the declaration really
        covers every kind the receiver acts on.
        """
        self._receivers.append(receiver)
        if kinds is not None:
            self._kind_limits[receiver] = frozenset(kinds)
        self._drop_kind_views()

    def detach(self, receiver: Receiver) -> None:
        """Remove a receiver from delivery (idempotent).

        Scenarios use this to take dead nodes off the air: an ECU that
        shut down ignores everything it receives anyway, so dropping it
        from the fan-out preserves behaviour while a flood no longer
        pays per-delivery calls into receivers that are gone.
        """
        # Removal builds a new list: propagation models cache per attach
        # list object, and an in-place removal followed by an attach
        # would keep the length they check and revive a stale view.
        receivers = list(self._receivers)
        try:
            receivers.remove(receiver)
        except ValueError:
            return
        self.propagation.release(self._receivers)
        self._receivers = receivers
        self._kind_limits.pop(receiver, None)
        self._drop_kind_views()

    def _drop_kind_views(self) -> None:
        """Forget the per-kind lists; the propagation model forgets them
        too, so it holds no view of a list that is gone."""
        for view in self._kind_views.values():
            self.propagation.release(view)
        self._kind_views.clear()

    def tap(self, listener: Callable[[Message], None]) -> None:
        """Attach a passive tap (eavesdropper); sees sends immediately."""
        self._taps.append(listener)

    # -- jamming ----------------------------------------------------------

    def jam(self, duration_ms: float) -> None:
        """Jam the channel: sends during the window are dropped."""
        if duration_ms <= 0:
            raise SimulationError("jam duration must be positive")
        self._jam_until = max(self._jam_until, self._clock.now + duration_ms)

    @property
    def jammed(self) -> bool:
        """True while a jamming window is active."""
        return self._clock.now < self._jam_until

    # -- traffic ----------------------------------------------------------

    def send(self, message: Message) -> Message:
        """Send a message; returns the (timestamped) message actually sent.

        Taps see the message even when the channel is jammed (the RF burst
        happened); receivers only get it if the channel is clear, after
        latency plus any congestion backlog.
        """
        if message.timestamp < 0:
            message = message.with_timestamp(self._clock.now)
        self._sent += 1
        for listener in self._taps:
            listener(message)
        if self._clock.now < self._jam_until:  # inline `jammed` (hot path)
            self._dropped += 1
            self._bus.publish(
                self._clock.now,
                self._topic_dropped,
                self.name,
                kind=message.kind,
                sender=message.sender,
                reason="jammed",
            )
            return message
        now = self._clock.now
        earliest = self._airtime_slot(now)
        self._delays.append(self.latency_ms + (earliest - now))
        # FIFO by construction: ``earliest`` never decreases.  (``now +
        # delay`` can round one ulp below an earlier send's time.)
        self._deliveries.push(earliest + self.latency_ms, message)
        return message

    def _airtime_slot(self, now: float) -> float:
        """Start of this send's airtime: ``now`` unless the bandwidth
        limit queues it behind earlier traffic."""
        if self.bandwidth_per_ms is None:
            return now
        slot = 1.0 / self.bandwidth_per_ms
        earliest = max(now, self._next_free)
        self._next_free = earliest + slot
        return earliest

    def train_stop(self, message: Message) -> float:
        """Before when the flood that ``message`` belongs to may send and
        deliver as one clock event: ``now`` (no train) under a tap, a
        jam or an observed delivery topic, or when a receiver in reach
        may admit the flood; else the earliest of the next foreign
        event, the end of a receiver's standing denial and the first
        queued delivery of another sender or kind.  A queued
        :class:`~repro.sim.clock.Segment` is one flood's: its sender is
        its source attack's ``name`` and its kind the attack's
        ``kind``.  The one bound of both bulk paths: a burst's train
        (:meth:`send_train`) and the drain of a deferred packet's due
        followers (:meth:`_deliver`)."""
        clock = self._clock
        now = clock.now
        if self._taps or now < self._jam_until or self._delivered_probe.active:
            return now
        kind = message.kind
        sender = message.sender
        attached = self._receivers
        if self._kind_limits:
            view = self._kind_views.get(kind)
            attached = view if view is not None else self._kind_view(kind)
        reached = self.propagation.receivers(message, attached)
        denials = []
        stop = float("inf")
        for receiver in reached:
            standing = getattr(receiver, "standing_denial", None)
            denial = standing(sender) if standing is not None else None
            if denial is None:
                return now
            until, decision = denial
            if until < stop:
                stop = until
            denials.append((receiver, decision))
        if len({id(receiver) for receiver in reached}) < len(reached):
            return now  # one receiver twice: its log interleaves packets
        stop = min(stop, clock.next_foreign(self._deliveries))
        for due, _sequence, queued in self._deliveries:
            if due >= stop:
                break
            if queued.__class__ is Segment:
                attack = queued.source
                foreign = attack.name != sender or attack.kind != kind
            else:
                foreign = queued.sender != sender or queued.kind != kind
            if foreign:
                stop = due
                break
        missed = len(attached) - len(reached) if reached is not attached else 0
        self._train = (stop, missed, denials)
        return stop

    def send_train(self, times: array, attack: Any, first: int) -> None:
        """Send ``attack``'s packets at ``times`` (before the last
        :meth:`train_stop`) as :meth:`send` would, then deliver every
        packet due before that stop in bulk: counted and denied.

        The packets are deferred, of ``attack.kind`` from
        ``attack.name``: packet ``i`` is ``(attack, first + i,
        times[i])``, which :meth:`_deliver` builds with
        ``attack._build(counter, time)`` if it is delivered on its own.
        They enter the delivery lane as one
        :class:`~repro.sim.clock.Segment`, and their airtime, due times
        and delay samples are built at C speed
        (:func:`_airtime_chain`); the bulk denial reads only due times,
        so a packet it drains is never built."""
        self._sent += len(times)
        latency = self.latency_ms
        if self.bandwidth_per_ms is None:
            earliest = times  # every send starts its airtime now
        else:
            slot = 1.0 / self.bandwidth_per_ms
            earliest = _airtime_chain(times, self._next_free, slot)
            self._next_free = earliest[-1] + slot
        self._delays.extend(
            map(
                add,
                repeat(latency),
                map(sub, earliest[-1000:], times[-1000:]),
            )
        )
        self._deliveries.push_many(
            array("d", map(add, earliest, repeat(latency))),
            attack, first, times,
        )
        self._deny_due(attack.kind, attack.name)

    def _deny_due(self, kind: str, sender: str) -> None:
        """Deliver the queued packets due before the last
        :meth:`train_stop` in bulk: count them and deny them at every
        receiver in reach, as one :meth:`_deliver` each would."""
        stop, missed, denials = self._train
        delivered = self._deliveries.pop_before(stop)
        count = len(delivered)
        if not count:
            return
        self._delivered += count
        topic_counts = self._delivered_probe.counts
        topic = self._topic_delivered
        topic_counts[topic] = topic_counts.get(topic, 0) + count
        self._out_of_range += missed * count
        for receiver, decision in denials:
            receiver.reject_many(delivered, decision, kind, sender)

    def _kind_view(self, kind: str) -> list[Receiver]:
        """The receivers that declared ``kind`` (or nothing), cached
        until attach/detach: a stable list keeps propagation memos."""
        limits = self._kind_limits
        view = self._kind_views[kind] = [
            receiver
            for receiver in self._receivers
            if (limit := limits.get(receiver)) is None or kind in limit
        ]
        return view

    def _deliver(self, message: Message | tuple) -> None:
        """Deliver one lane item.  A deferred packet (a train's,
        ``(attack, counter, time)``) is built first, and after it the
        same flood's packets due before :meth:`train_stop` are drained
        in bulk: a flood's tail, whose bursts are over, needs no train
        to deny its backlog."""
        deferred = message.__class__ is tuple
        if deferred:
            message = message[0]._build(message[1], message[2])
        self._delivered += 1
        if self._delivered_probe.active:
            self._bus.publish(
                self._clock.now,
                self._topic_delivered,
                self.name,
                kind=message.kind,
                sender=message.sender,
            )
        else:
            # Unobserved publish: one counter increment per delivery.
            topic_counts = self._delivered_probe.counts
            topic = self._topic_delivered
            try:
                topic_counts[topic] += 1
            except KeyError:
                topic_counts[topic] = 1
        # Range membership is evaluated now, at delivery time; receiver
        # order is the deterministic attach order, so range-edge cases
        # resolve through the clock's scheduling sequence alone.  The
        # attach list is handed to the propagation model directly --
        # models must not mutate it (InfiniteRange returns it unchanged).
        attached = self._receivers
        if self._kind_limits:
            kind = message.kind
            view = self._kind_views.get(kind)
            if view is None:
                view = self._kind_view(kind)
            attached = view
        reached = self.propagation.receivers(message, attached)
        if reached is not attached:
            self._out_of_range += len(attached) - len(reached)
        for receiver in reached:
            receiver.receive(message)
        if deferred and self.train_stop(message) > self._clock.now:
            self._deny_due(message.kind, message.sender)

    # -- metrics ----------------------------------------------------------

    @property
    def stats(self) -> dict[str, float]:
        """Traffic counts, and ``mean_delay_ms``: the mean delay over
        the last 1,000 sends, not over all sends."""
        mean_delay = (
            sum(self._delays) / len(self._delays) if self._delays else 0.0
        )
        return {
            "sent": self._sent,
            "delivered": self._delivered,
            "dropped": self._dropped,
            "out_of_range": self._out_of_range,
            "mean_delay_ms": mean_delay,
        }


__all__ = [
    "Channel",
    "InfiniteRange",
    "Medium",
    "Message",
    "PropagationModel",
    "Receiver",
]
