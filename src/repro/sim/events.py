"""Topic-based event bus and simulation trace recording.

Components publish domain events ("handover.requested", "door.opened",
"control.detection") on a shared bus; the safety monitor, test oracles and
reports subscribe or read the recorded trace afterwards.  The ordered
trace (complete after ``retain("")``) doubles as the simulation's test
report substrate ("how the test report is gathered", §III-C).

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
* **Trace reads** (:meth:`EventBus.events`) return cached immutable
  tuples, invalidated on publish/clear, instead of materialising a
  fresh copy of the trace on every access.

Trace retention
---------------

Dispatch and counting see every event, but the bus only *records*
events under the prefixes registered via :meth:`EventBus.retain`.
Scenario assemblies register the prefixes their safety-goal checks read
*at construction time*; ``retain("")`` records the complete trace.
Reading :meth:`~EventBus.events`/:meth:`~EventBus.last` outside the
retained set raises :class:`~repro.errors.SimulationError` -- an oracle
can never silently observe an empty trace where events were published.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from repro.errors import SimulationError

Subscriber = Callable[["SimEvent"], None]


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
    """Publish/subscribe bus with an ordered trace of retained topics.

    Subscriptions match exact topics or prefixes: subscribing to
    ``"v2x"`` receives ``"v2x.warning_received"`` and every other
    ``v2x.*`` topic; subscribing to ``""`` receives everything.
    Retention (:meth:`retain`) matches prefixes the same way.
    """

    def __init__(self) -> None:
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

    def subscribe(self, topic_prefix: str, subscriber: Subscriber) -> None:
        """Register ``subscriber`` for all topics under ``topic_prefix``."""
        self._subscribers.setdefault(topic_prefix, []).append(
            (self._subscription_count, subscriber)
        )
        self._subscription_count += 1
        self._invalidate(topic_prefix)

    def retain(self, topic_prefix: str) -> None:
        """Record events under ``topic_prefix`` in the trace.

        Only retained prefixes are recorded; ``retain("")`` records
        everything.  Like subscriptions, retention registrations survive
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

        Returns the recorded :class:`SimEvent` -- or ``None`` when the
        event was neither retained nor dispatched to any subscriber
        (nothing needed the object, so it is never allocated; the
        per-prefix counters still tick).
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
        for subscriber in subscribers:
            subscriber(event)
        return event

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
        retained = not self._retained.isdisjoint(prefixes)
        plan = (tuple(subscriber for _order, subscriber in matched), retained)
        self._plans[topic] = plan
        return plan

    # -- trace reads ----------------------------------------------------------

    def _require_retained(self, topic_prefix: str) -> None:
        """Reject reads outside the retained set."""
        for retained in self._retained:
            if not retained or topic_prefix == retained or (
                topic_prefix.startswith(retained + ".")
            ):
                return
        raise SimulationError(
            f"events under {topic_prefix!r} were not retained; register "
            f"bus.retain({topic_prefix!r}) before the run (or "
            "bus.retain('') for the complete trace)"
        )

    def events(self, topic_prefix: str) -> tuple[SimEvent, ...]:
        """Recorded events under a topic prefix (cached immutable view).

        Raises:
            SimulationError: for a prefix outside the retained set (the
                events were not recorded and an empty answer would be a
                lie).
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

        Served from the running per-topic counters -- no trace scan,
        and independent of trace retention.  Publishing pays one
        counter increment; a count query sums the handful of distinct
        topics matching the prefix.
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
            SimulationError: for a prefix outside the retained set.
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


def _matches(prefix: str, topic: str) -> bool:
    """Prefix match on dotted topics ('' matches everything)."""
    if not prefix:
        return True
    return topic == prefix or topic.startswith(prefix + ".")


class TopicProbe:
    """A per-topic "would anyone observe this publish?" cache.

    Hot publishers (per-denial detection logs, per-delivery channel
    events) emit hundreds of thousands of events per campaign variant
    that -- unretained and with no subscriber -- only ever tick a
    counter.  A probe answers :meth:`EventBus.wants` once, at creation,
    so those call sites degrade to one increment of the bus's
    per-topic counter (:attr:`counts`) instead of building kwargs for
    an event nobody would see.  Dispatch semantics are untouched: the moment a subscriber or
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
        #: all a publish would do.
        self.counts = bus._topic_counts
        bus._probes.setdefault(topic, []).append(self)

    def wants(self) -> bool:
        """The probe's current answer (an alias for :attr:`active`)."""
        return self.active


__all__ = [
    "EventBus",
    "SimEvent",
    "TopicProbe",
]
