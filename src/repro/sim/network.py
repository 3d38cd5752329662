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

import contextlib
import dataclasses
import functools
import itertools
import threading
from collections import deque
from typing import (
    Any,
    Callable,
    ClassVar,
    Iterable,
    Protocol,
    runtime_checkable,
)

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.crypto import KeyStore, compute_mac, verify_mac
from repro.sim.events import EventBus

# Batch-scoped signed-message memo (see shared_message_memo).  Thread-
# local for the same reason as crypto._MEMO_STATE: thread-backend
# workers must never share mutable state.
_MESSAGE_MEMO_STATE = threading.local()
_MESSAGE_MEMO_LIMIT = 65536


@contextlib.contextmanager
def shared_message_memo():
    """Activate cross-variant reuse of honestly signed messages.

    Variants of one scenario family replay identical deterministic
    traffic: the same senders sign the same (kind, counter, timestamp,
    payload) tuples with the same derived keys -- a flooding attacker's
    whole schedule is repeated verbatim by its exposed/protected twin.
    Inside this scope :meth:`Message.create_signed` returns the *same
    frozen instance* for a repeated signature request, skipping payload
    canonicalisation, the HMAC, and dataclass construction.

    Sharing an instance is safe for the same reason broadcasts are: a
    ``Message`` is frozen, its payload is immutable by contract, and its
    per-instance caches memoise pure functions of those fields.  Scoped
    to :func:`repro.engine.batch.execute_batch` so unbatched runs keep
    their exact cost profile.  Nesting reuses the outer memo.
    """
    previous = getattr(_MESSAGE_MEMO_STATE, "memo", None)
    memo = {} if previous is None else previous
    _MESSAGE_MEMO_STATE.memo = memo
    try:
        yield memo
    finally:
        _MESSAGE_MEMO_STATE.memo = previous


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
            empty for unauthenticated messages.
        location: Logical origin location (used by plausibility checks on
            replayed warnings "from other locations").
        unique_id: Globally unique message id, assigned at construction.
    """

    kind: str
    sender: str
    payload: dict[str, Any]
    counter: int = 0
    timestamp: float = -1.0
    auth_tag: str = ""
    location: str = ""
    unique_id: int = dataclasses.field(
        default_factory=itertools.count(1).__next__
    )

    # Per-instance caches (class-attribute fallbacks; instances override
    # via object.__setattr__).  Safe because a Message is frozen and its
    # payload is treated as immutable everywhere (attacks copy before
    # mutating): the signing bytes and any MAC verdict over them can
    # never change for a given instance.  ``dataclasses.replace`` builds
    # a *new* instance from fields only, so tampered/re-signed copies --
    # which share ``unique_id`` and possibly ``auth_tag`` with their
    # original -- start with cold caches and re-verify honestly.  (That
    # is also why the memo is per-instance rather than keyed on
    # ``(key, unique_id, tag)`` globally: a tampered replica would hit a
    # stale global entry.)
    _signing_cache: ClassVar[bytes | None] = None
    _mac_cache: ClassVar[dict | None] = None

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

    def mac_verified(self, key: bytes) -> bool:
        """Whether :attr:`auth_tag` verifies under ``key`` (memoised).

        One fleet broadcast reaches N on-board units, each running the
        same HMAC verification over the same bytes; the verdict is
        cached per ``key`` on the message instance so the work happens
        once per broadcast instead of once per receiver.
        """
        cache = self._mac_cache
        if cache is None:
            cache = {}
            object.__setattr__(self, "_mac_cache", cache)
        verdict = cache.get(key)
        if verdict is None:
            verdict = verify_mac(key, self.signing_bytes(), self.auth_tag)
            cache[key] = verdict
        return verdict

    def signed(self, keystore: KeyStore) -> "Message":
        """Return a copy carrying a valid auth tag for ``sender``.

        The sender must be provisioned in ``keystore``; honest components
        sign everything they send, attackers can only sign with identities
        they actually control.

        The copy's caches are pre-seeded: its signing bytes are the ones
        just signed (``auth_tag`` is not part of them), and the fresh tag
        verifies under ``key`` by construction (HMAC is deterministic),
        so receivers of an honestly signed message never redo the
        signer's work.  Any *other* key -- and any tampered replica,
        which is a new instance -- still verifies from scratch.
        """
        key = keystore.key_of(self.sender)
        signing = self.signing_bytes()
        # Direct construction (not dataclasses.replace): replace() walks
        # every field through getattr, and signing sits on the per-send
        # hot path.  unique_id is carried over, exactly as replace does.
        copy = Message(
            kind=self.kind,
            sender=self.sender,
            payload=self.payload,
            counter=self.counter,
            timestamp=self.timestamp,
            auth_tag=compute_mac(key, signing),
            location=self.location,
            unique_id=self.unique_id,
        )
        object.__setattr__(copy, "_signing_cache", signing)
        object.__setattr__(copy, "_mac_cache", {key: True})
        return copy

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
        """Construct a message already carrying a valid auth tag.

        Equivalent to ``Message(...).signed(keystore)`` but with a single
        construction: the signing bytes are built from the raw fields,
        the tag is computed, and the one instance is created with both
        caches pre-seeded.  Consumes exactly one ``unique_id`` -- the
        same as the two-step spelling, whose ``signed()`` copy carries
        the throwaway original's id.

        Inside a :func:`shared_message_memo` scope, a repeated request
        (same fields, same key) returns the previously built instance.
        """
        key = keystore.key_of(sender)
        memo = getattr(_MESSAGE_MEMO_STATE, "memo", None)
        token = None
        if memo is not None:
            try:
                token = (
                    kind,
                    sender,
                    counter,
                    timestamp,
                    location,
                    key,
                    tuple(sorted(payload.items())),
                )
                cached = memo.get(token)
            except TypeError:  # unhashable payload value: not memoisable
                memo = None
            else:
                if cached is not None:
                    return cached
        signing = _signing_payload(kind, sender, counter, timestamp, payload)
        message = cls(
            kind=kind,
            sender=sender,
            payload=payload,
            counter=counter,
            timestamp=timestamp,
            auth_tag=compute_mac(key, signing),
            location=location,
        )
        object.__setattr__(message, "_signing_cache", signing)
        object.__setattr__(message, "_mac_cache", {key: True})
        if memo is not None and token is not None:
            if len(memo) >= _MESSAGE_MEMO_LIMIT:
                memo.clear()
            memo[token] = message
        return message

    def with_timestamp(self, time: float) -> "Message":
        """Copy with ``timestamp`` set (tag untouched -- stamp first, then sign)."""
        return dataclasses.replace(self, timestamp=time)


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
        # Topic strings built once; per-message f-strings rehash per publish.
        self._topic_delivered = f"channel.{name}.delivered"
        self._topic_dropped = f"channel.{name}.dropped"
        # One delivered event per message: the probe keeps the
        # unobserved case (counts mode, no subscriber) at counter cost.
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
        self._kind_views.clear()

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
        self._receivers = receivers
        self._kind_limits.pop(receiver, None)
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
        delay = self.latency_ms + self._congestion_delay()
        self._delays.append(delay)
        self._clock.post(
            self._clock.now + delay, functools.partial(self._deliver, message)
        )
        return message

    def _congestion_delay(self) -> float:
        """Extra queueing delay from the bandwidth limit."""
        if self.bandwidth_per_ms is None:
            return 0.0
        slot = 1.0 / self.bandwidth_per_ms
        earliest = max(self._clock.now, self._next_free)
        self._next_free = earliest + slot
        return earliest - self._clock.now

    def _deliver(self, message: Message) -> None:
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
            # Inlined EventBus.tally: one increment per delivery.
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
                # Built once per kind (invalidated by attach/detach):
                # the fan-out for a kind only visits receivers that
                # declared it (or declared nothing).  Stable list
                # identity keeps downstream propagation memos valid.
                limits = self._kind_limits
                view = self._kind_views[kind] = [
                    receiver
                    for receiver in attached
                    if (limit := limits.get(receiver)) is None
                    or kind in limit
                ]
            attached = view
        reached = self.propagation.receivers(message, attached)
        if reached is not attached:
            self._out_of_range += len(attached) - len(reached)
        for receiver in reached:
            receiver.receive(message)

    # -- metrics ----------------------------------------------------------

    @property
    def stats(self) -> dict[str, float]:
        """Traffic statistics: sent/delivered/dropped and mean delay."""
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
    "shared_message_memo",
]
