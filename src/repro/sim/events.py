"""Topic-based event bus and simulation trace recording.

Components publish domain events ("handover.requested", "door.opened",
"control.detection") on a shared bus; the safety monitor, test oracles and
reports subscribe or read the recorded trace afterwards.  The full ordered
trace doubles as the simulation's test report substrate ("how the test
report is gathered", §III-C).

The bus is on the hot path of every campaign variant, so its internals
are index-based rather than scan-based:

* **Dispatch** walks a topic-segment index (prefix -> subscribers)
  instead of string-matching every subscriber on every publish.  When a
  topic matches several subscription prefixes, the matched subscribers
  are merged back into subscription order, so dispatch order is
  bit-identical to the historical "scan the subscription list" loop.
* **Invalidation** is prefix-scoped: every known topic is indexed under
  its segment prefixes, so a :meth:`EventBus.subscribe` or
  :meth:`EventBus.retain` on ``p`` drops only the cached plans of the
  topics under ``p`` and switches on only their probes.  Registrations
  can only add observers, so nothing else needs re-answering and
  scenario set-up stays linear in the number of registrations.
* **Counting** maintains a running counter per published *topic*
  (one increment per publish); :meth:`EventBus.count` answers from
  those counters -- O(distinct topics) per query instead of a scan of
  the whole trace (bench oracles call it in loops, and the trace can
  be arbitrarily longer than the topic set).
* **Trace reads** (:attr:`EventBus.trace`, :meth:`EventBus.events`)
  return cached immutable tuples, invalidated on publish/clear, instead
  of materialising a fresh copy of the whole trace on every access.

Trace modes
-----------

A bus records in one of two modes:

* ``"full"`` (the default) -- every event is retained, exactly the
  historical behaviour.
* ``"counts"`` -- the kernel-level lean mode for campaign workers that
  only read verdicts: per-prefix counters (and subscriber dispatch) work
  as usual, but events are only retained when they fall under a prefix
  registered via :meth:`EventBus.retain`.  Scenario assemblies register
  the prefixes their safety-goal checks read *at construction time*, so
  verdict-relevant reads see the identical event sequence in both modes.
  Reading :meth:`events`/:meth:`last`/:attr:`trace` outside the retained
  set raises :class:`~repro.errors.SimulationError` -- an oracle can
  never silently observe an empty trace where the full mode had events.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from repro.errors import SimulationError

Subscriber = Callable[["SimEvent"], None]

#: Recognised trace modes.
TRACE_FULL = "full"
TRACE_COUNTS = "counts"
TRACE_MODES = (TRACE_FULL, TRACE_COUNTS)


@dataclasses.dataclass(frozen=True)
class SimEvent:
    """One recorded domain event.

    Attributes:
        time: Simulation time (ms) at which the event was published.
        topic: Dotted topic, e.g. ``"v2x.warning_received"``.
        source: Publishing component name.
        data: Topic-specific payload (small, JSON-compatible values).
    """

    time: float
    topic: str
    source: str
    data: dict[str, Any] = dataclasses.field(default_factory=dict)


def _segment_prefixes(topic: str) -> tuple[str, ...]:
    """Every prefix of ``topic`` on a segment boundary, '' included.

    ``"a.b.c"`` -> ``("", "a", "a.b", "a.b.c")``.  These are exactly the
    subscription/count prefixes the topic matches under :func:`_matches`.
    """
    prefixes = [""]
    end = topic.find(".")
    while end != -1:
        prefixes.append(topic[:end])
        end = topic.find(".", end + 1)
    if topic:
        prefixes.append(topic)
    return tuple(prefixes)


class EventBus:
    """Publish/subscribe bus with a complete ordered trace.

    Subscriptions match exact topics or prefixes: subscribing to
    ``"v2x"`` receives ``"v2x.warning_received"`` and every other
    ``v2x.*`` topic; subscribing to ``""`` receives everything.

    Args:
        mode: Trace retention mode, ``"full"`` or ``"counts"`` (see the
            module docstring).  Dispatch and counting are identical in
            both modes; only event *retention* differs.
    """

    def __init__(self, mode: str = TRACE_FULL) -> None:
        if mode not in TRACE_MODES:
            raise SimulationError(
                f"unknown trace mode {mode!r} (choose one of {TRACE_MODES})"
            )
        self._mode = mode
        # prefix -> [(subscription order, subscriber), ...]
        self._subscribers: dict[str, list[tuple[int, Subscriber]]] = {}
        self._subscription_count = 0
        self._trace: list[SimEvent] = []
        self._topic_counts: dict[str, int] = {}
        self._retained: frozenset[str] = frozenset()
        # topic -> its segment prefixes (topics repeat; split once), and
        # the inverse index filled at the same time: prefix -> the known
        # topics under it.
        self._prefixes_of: dict[str, tuple[str, ...]] = {}
        self._topics_under: dict[str, list[str]] = {}
        # topic -> (ordered subscribers, retained?) -- the publish fast
        # path; a registration drops only the plans under its prefix.
        self._plans: dict[str, tuple[tuple[Subscriber, ...], bool]] = {}
        # topic -> every probe issued for it, switched on eagerly by the
        # registrations that concern it (rare) so ``active`` is a plain
        # attribute read on the per-message hot paths (frequent).
        self._probes: dict[str, list["TopicProbe"]] = {}
        # Cached immutable views, invalidated on publish/clear.
        self._events_cache: dict[str, tuple[SimEvent, ...]] = {}
        self._trace_cache: tuple[SimEvent, ...] | None = None

    @property
    def mode(self) -> str:
        """The bus's trace retention mode (``"full"`` or ``"counts"``)."""
        return self._mode

    def subscribe(self, topic_prefix: str, subscriber: Subscriber) -> None:
        """Register ``subscriber`` for all topics under ``topic_prefix``."""
        self._subscribers.setdefault(topic_prefix, []).append(
            (self._subscription_count, subscriber)
        )
        self._subscription_count += 1
        self._invalidate(topic_prefix)

    def retain(self, topic_prefix: str) -> None:
        """Keep events under ``topic_prefix`` in the trace in every mode.

        In ``"counts"`` mode only retained prefixes are recorded; in
        ``"full"`` mode this is a no-op (everything is retained anyway).
        Like subscriptions, retention registrations survive
        :meth:`clear`.  Register *before* the run starts: events
        published before the registration are not retroactively kept.
        """
        if topic_prefix not in self._retained:
            self._retained = self._retained | {topic_prefix}
            self._invalidate(topic_prefix)

    def publish(
        self,
        time: float,
        topic: str,
        source: str,
        **data: Any,
    ) -> SimEvent | None:
        """Record and dispatch an event.

        Returns the recorded :class:`SimEvent` -- or ``None`` in
        ``"counts"`` mode when the event was neither retained nor
        dispatched to any subscriber (nothing needed the object, so it is
        never allocated; the per-prefix counters still tick).
        """
        counts = self._topic_counts
        try:
            counts[topic] += 1
        except KeyError:
            counts[topic] = 1
        plan = self._plans.get(topic)
        if plan is None:
            plan = self._build_plan(topic)
        subscribers, retained = plan
        if not retained and not subscribers:
            return None

        event = SimEvent(time=time, topic=topic, source=source, data=data)
        if retained:
            self._trace.append(event)
            if self._events_cache:
                self._events_cache.clear()
            self._trace_cache = None
        for subscriber in subscribers:
            subscriber(event)
        return event

    def tally(self, time: float, topic: str, source: str) -> None:
        """Count a publication that nothing would observe.

        Equivalent to :meth:`publish` for a topic :meth:`wants` answered
        ``False`` for: the per-topic counter ticks, no event is
        allocated.  Hot publishers pair it with a :class:`TopicProbe`
        so the per-message cost is one dict increment instead of a
        kwargs build plus plan lookup.  (``time``/``source`` are
        accepted so call sites stay shaped like ``publish``.)
        """
        counts = self._topic_counts
        try:
            counts[topic] += 1
        except KeyError:
            counts[topic] = 1

    def wants(self, topic: str) -> bool:
        """True when publishing ``topic`` would retain or dispatch.

        A later :meth:`subscribe`/:meth:`retain` can turn the answer
        from False to True; :class:`TopicProbe` keeps a live copy for
        hot paths.
        """
        plan = self._plans.get(topic)
        if plan is None:
            plan = self._build_plan(topic)
        subscribers, retained = plan
        return retained or bool(subscribers)

    def probe(self, topic: str) -> "TopicProbe":
        """A cached :meth:`wants` probe for one hot-path topic."""
        issued = self._probes.get(topic)
        if issued:
            return issued[0]
        return TopicProbe(self, topic)

    def _invalidate(self, topic_prefix: str) -> None:
        """A new observer under ``topic_prefix``: drop the affected plans.

        Only known topics under the prefix can change, and only from
        "unobserved" to "observed", so their probes switch on without
        re-answering anything.
        """
        for topic in self._topics_under.get(topic_prefix, ()):
            self._plans.pop(topic, None)
            for probe in self._probes.get(topic, ()):
                probe.active = True

    def _prefixes(self, topic: str) -> tuple[str, ...]:
        """``topic``'s segment prefixes, indexing the topic under each
        the first time it is seen."""
        prefixes = self._prefixes_of.get(topic)
        if prefixes is None:
            prefixes = self._prefixes_of[topic] = _segment_prefixes(topic)
            for prefix in prefixes:
                self._topics_under.setdefault(prefix, []).append(topic)
        return prefixes

    def _build_plan(
        self, topic: str
    ) -> tuple[tuple[Subscriber, ...], bool]:
        """Resolve (and cache) a topic's dispatch list + retention bit.

        The subscriber index is walked once per distinct topic; matched
        subscribers are merged back into subscription order, so dispatch
        is bit-identical to the historical "scan the subscription list"
        loop.
        """
        prefixes = self._prefixes(topic)
        matched = [
            pair
            for prefix in prefixes
            if prefix in self._subscribers
            for pair in self._subscribers[prefix]
        ]
        matched.sort()
        retained = self._mode == TRACE_FULL or not self._retained.isdisjoint(
            prefixes
        )
        plan = (tuple(subscriber for _order, subscriber in matched), retained)
        self._plans[topic] = plan
        return plan

    # -- trace reads ----------------------------------------------------------

    def _require_retained(self, topic_prefix: str) -> None:
        """In counts mode, reject reads outside the retained set."""
        if self._mode == TRACE_FULL:
            return
        for retained in self._retained:
            if not retained or topic_prefix == retained or (
                topic_prefix.startswith(retained + ".")
            ):
                return
        raise SimulationError(
            f"trace mode 'counts' did not retain events under "
            f"{topic_prefix!r}; register bus.retain({topic_prefix!r}) "
            "before the run (or use trace mode 'full')"
        )

    @property
    def trace(self) -> tuple[SimEvent, ...]:
        """The complete event trace in publication order (cached view).

        Raises:
            SimulationError: in ``"counts"`` mode, where the complete
                trace is -- by design -- not retained.
        """
        if self._mode != TRACE_FULL:
            raise SimulationError(
                "trace mode 'counts' does not retain the complete trace; "
                "use trace mode 'full' (or read retained prefixes via "
                "events())"
            )
        if self._trace_cache is None:
            self._trace_cache = tuple(self._trace)
        return self._trace_cache

    def events(self, topic_prefix: str) -> tuple[SimEvent, ...]:
        """Recorded events under a topic prefix (cached immutable view).

        Raises:
            SimulationError: in ``"counts"`` mode for a prefix outside
                the retained set (the events were not recorded and an
                empty answer would be a lie).
        """
        cached = self._events_cache.get(topic_prefix)
        if cached is not None:
            return cached
        self._require_retained(topic_prefix)
        result = tuple(
            event
            for event in self._trace
            if _matches(topic_prefix, event.topic)
        )
        self._events_cache[topic_prefix] = result
        return result

    def count(self, topic_prefix: str) -> int:
        """Number of events published under a topic prefix.

        Served from the running per-topic counters in every mode -- no
        trace scan, and independent of trace retention.  Publishing
        pays one counter increment; a count query sums the handful of
        distinct topics matching the prefix.
        """
        counts = self._topic_counts
        exact = counts.get(topic_prefix, 0)
        if not topic_prefix:
            return sum(counts.values())
        prefixes_of = self._prefixes_of
        return exact + sum(
            tally
            for topic, tally in counts.items()
            if topic != topic_prefix
            and topic_prefix
            in (prefixes_of.get(topic) or _segment_prefixes(topic))
        )

    def last(self, topic_prefix: str) -> SimEvent | None:
        """Most recent event under a topic prefix, or None.

        Raises:
            SimulationError: in ``"counts"`` mode for a prefix outside
                the retained set.
        """
        self._require_retained(topic_prefix)
        for event in reversed(self._trace):
            if _matches(topic_prefix, event.topic):
                return event
        return None

    def clear(self) -> None:
        """Drop the recorded trace and counters (subscriptions and
        retention registrations stay)."""
        self._trace.clear()
        self._topic_counts.clear()
        self._events_cache.clear()
        self._trace_cache = None


def _matches(prefix: str, topic: str) -> bool:
    """Prefix match on dotted topics ('' matches everything)."""
    if not prefix:
        return True
    return topic == prefix or topic.startswith(prefix + ".")


class TopicProbe:
    """A per-topic "would anyone observe this publish?" cache.

    Hot publishers (per-denial detection logs, per-delivery channel
    events) emit hundreds of thousands of events per campaign variant
    that -- in ``"counts"`` mode with no subscriber -- only ever tick a
    counter.  A probe answers :meth:`EventBus.wants` once, at creation,
    so those call sites degrade to :meth:`EventBus.tally` (one dict
    increment) instead of building kwargs for an event nobody would
    see.  Dispatch semantics are untouched: the moment a subscriber or
    retention prefix covering the topic appears, the bus switches on
    every probe issued for it, so :attr:`active` is always current and
    hot paths can branch on a plain attribute read.
    """

    __slots__ = ("bus", "topic", "active", "counts")

    def __init__(self, bus: EventBus, topic: str) -> None:
        self.bus = bus
        self.topic = topic
        #: Live "would a publish be observed" answer, maintained by the
        #: bus on every subscribe()/retain() (read-only for callers).
        self.active = bus.wants(topic)
        #: The bus's live per-topic counter map: when :attr:`active` is
        #: False the call site increments ``counts[topic]`` directly --
        #: the whole of :meth:`EventBus.tally` without the call.
        self.counts = bus._topic_counts
        bus._probes.setdefault(topic, []).append(self)

    def wants(self) -> bool:
        """The probe's current answer (an alias for :attr:`active`)."""
        return self.active


__all__ = [
    "EventBus",
    "SimEvent",
    "TRACE_COUNTS",
    "TRACE_FULL",
    "TRACE_MODES",
    "TopicProbe",
]
