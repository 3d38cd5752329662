"""Electronic control units: admission control, finite processing, routing.

An :class:`Ecu` is the protection point of the simulated SUT.  Incoming
messages pass the ECU's :class:`~repro.sim.controls.base.ControlPipeline`
(the deployed security controls), then queue for *finite* processing
capacity -- which is what makes flooding a real attack: an overloaded ECU
serves legitimate messages late or drops them once its queue is full
(AD20: "Attacker tries to overload the ECU by packet flooding", expected
effect "Shutdown of service").

The :class:`Gateway` subclass routes admitted messages between networks
(e.g. Bluetooth requests forwarded onto the CAN bus), reproducing the
UC II architecture where "flooding of the CAN bus, by forwarded Bluetooth
request" reduces availability.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.controls.base import ControlPipeline, Decision
from repro.sim.events import EventBus
from repro.sim.network import Message


class Ecu:
    """A control unit with admission control and finite processing rate.

    Attributes:
        name: ECU name ("OBU", "ECU_GW").
        pipeline: The security-control stack guarding this ECU.
        service_time_ms: Processing time per admitted message.
        queue_capacity: Max messages awaiting processing; ``None`` means
            unbounded.  Arrivals beyond capacity are dropped and published
            as ``ecu.<name>.overload`` events.
        shutdown_after_overloads: After this many dropped-on-overload
            arrivals, the ECU gives up and shuts down -- AD20's success
            criterion, "Shutdown of service".  ``None`` disables the
            failure mode (the ECU degrades but never dies).

    ``__slots__``-based: ``receive`` runs once per receiver per
    delivery, the hottest fan-out in the simulator.  Subclasses without
    their own ``__slots__`` still work (they carry a ``__dict__``).
    """

    __slots__ = (
        "name",
        "service_time_ms",
        "queue_capacity",
        "shutdown_after_overloads",
        "pipeline",
        "_clock",
        "_bus",
        "_busy_until",
        "_queued",
        "_processed",
        "_rejected",
        "_overloaded",
        "_shut_down",
        "_topic_processed",
        "_topic_overload",
        "_topic_shutdown",
        "_processed_probe",
        "_admit",
        "_service",
    )

    def __init__(
        self,
        name: str,
        clock: SimClock,
        bus: EventBus,
        service_time_ms: float = 0.5,
        queue_capacity: int | None = None,
        shutdown_after_overloads: int | None = None,
    ) -> None:
        if service_time_ms <= 0:
            raise SimulationError("service time must be positive")
        if queue_capacity is not None and queue_capacity < 1:
            raise SimulationError("queue capacity must be >= 1")
        if shutdown_after_overloads is not None and shutdown_after_overloads < 1:
            raise SimulationError("shutdown threshold must be >= 1")
        self.name = name
        self.service_time_ms = service_time_ms
        self.queue_capacity = queue_capacity
        self.shutdown_after_overloads = shutdown_after_overloads
        self.pipeline = ControlPipeline(name, clock, bus)
        self._clock = clock
        self._bus = bus
        self._busy_until = 0.0
        self._queued = 0
        self._processed = 0
        self._rejected = 0
        self._overloaded = 0
        self._shut_down = False
        # Topic strings built once; per-message f-strings rehash per publish.
        self._topic_processed = f"ecu.{name}.processed"
        self._topic_overload = f"ecu.{name}.overload"
        self._topic_shutdown = f"ecu.{name}.shutdown"
        # One processed event per admitted message: the probe keeps the
        # unobserved case (unretained, no subscriber) at counter cost.
        self._processed_probe = bus.probe(self._topic_processed)
        # Bound once: receive() runs once per receiver per delivery.
        self._admit = self.pipeline.admit
        # Service times are FIFO: max(now, busy_until) + service_time.
        self._service = clock.lane(self._process)

    # -- Receiver protocol -------------------------------------------------

    def receive(self, message: Message) -> None:
        """Admission control, then enqueue for processing."""
        if self._shut_down:
            return
        if not self._admit(message).allowed:
            self._rejected += 1
            return
        if (
            self.queue_capacity is not None
            and self._queued >= self.queue_capacity
        ):
            self._overloaded += 1
            self._bus.publish(
                self._clock.now,
                self._topic_overload,
                self.name,
                kind=message.kind,
                sender=message.sender,
                queued=self._queued,
            )
            if (
                self.shutdown_after_overloads is not None
                and self._overloaded >= self.shutdown_after_overloads
            ):
                self._shut_down = True
                self._bus.publish(
                    self._clock.now,
                    self._topic_shutdown,
                    self.name,
                    overloads=self._overloaded,
                )
            return
        start = max(self._clock.now, self._busy_until)
        finish = start + self.service_time_ms
        self._busy_until = finish
        self._queued += 1
        self._service.push(finish, message)

    def standing_denial(
        self, sender: str
    ) -> tuple[float, Decision | None] | None:
        """Until when (and how) :meth:`receive` surely denies ``sender``:
        forever once shut down, else as the pipeline says.  A subclass
        overriding :meth:`receive` must override this too."""
        if self._shut_down:
            return float("inf"), None
        return self.pipeline.standing_denial(sender)

    def reject_many(
        self, times: list[float], decision: Decision | None, kind: str,
        sender: str,
    ) -> None:
        """One :meth:`receive` per time under a :meth:`standing_denial`."""
        if self._shut_down:
            return
        self._rejected += len(times)
        self.pipeline.reject_many(times, decision, kind, sender)

    def _process(self, message: Message) -> None:
        self._queued -= 1
        self._processed += 1
        if self._processed_probe.active:
            self._bus.publish(
                self._clock.now,
                self._topic_processed,
                self.name,
                kind=message.kind,
                sender=message.sender,
            )
        else:
            # Unobserved publish: one counter increment per processed message.
            topic_counts = self._processed_probe.counts
            topic = self._topic_processed
            try:
                topic_counts[topic] += 1
            except KeyError:
                topic_counts[topic] = 1
        self.handle(message)

    # -- subclass API --------------------------------------------------------

    def handle(self, message: Message) -> None:
        """Application behaviour; subclasses override."""

    # -- metrics --------------------------------------------------------------

    @property
    def backlog_ms(self) -> float:
        """How far behind real time the ECU's processing currently is."""
        return max(0.0, self._busy_until - self._clock.now)

    @property
    def is_shut_down(self) -> bool:
        """True once sustained overload killed the service (AD20 success)."""
        return self._shut_down

    @property
    def stats(self) -> dict[str, float]:
        """Processing statistics."""
        return {
            "processed": self._processed,
            "rejected": self._rejected,
            "overloaded": self._overloaded,
            "queued": self._queued,
            "backlog_ms": self.backlog_ms,
            "shut_down": self._shut_down,
        }


#: A route transform: takes the admitted message, returns the message to
#: forward (e.g. wrap a BLE command into a CAN frame).
RouteTransform = Callable[[Message], Message]


class Gateway(Ecu):
    """An ECU that routes admitted messages onto other networks.

    Routes are registered per message kind; each admitted message of a
    routed kind is transformed and sent on the target network after
    processing.  Unrouted kinds are simply processed (and countable).
    """

    __slots__ = ("_routes", "_forwarded")

    def __init__(
        self,
        name: str,
        clock: SimClock,
        bus: EventBus,
        service_time_ms: float = 0.5,
        queue_capacity: int | None = None,
        shutdown_after_overloads: int | None = None,
    ) -> None:
        super().__init__(
            name,
            clock,
            bus,
            service_time_ms=service_time_ms,
            queue_capacity=queue_capacity,
            shutdown_after_overloads=shutdown_after_overloads,
        )
        self._routes: dict[str, tuple[object, RouteTransform]] = {}
        self._forwarded = 0

    def add_route(
        self,
        kind: str,
        target,
        transform: RouteTransform | None = None,
    ) -> None:
        """Route messages of ``kind`` to ``target`` (any object with send()).

        ``transform`` defaults to identity.
        """
        if kind in self._routes:
            raise SimulationError(
                f"gateway {self.name}: route for {kind!r} already exists"
            )
        self._routes[kind] = (target, transform or (lambda message: message))

    def handle(self, message: Message) -> None:
        route = self._routes.get(message.kind)
        if route is None:
            return
        target, transform = route
        forwarded = transform(message)
        self._forwarded += 1
        self._bus.publish(
            self._clock.now,
            f"ecu.{self.name}.forwarded",
            self.name,
            kind=message.kind,
            forwarded_kind=forwarded.kind,
        )
        target.send(forwarded)

    @property
    def forwarded(self) -> int:
        """Number of messages routed onward."""
        return self._forwarded


__all__ = [
    "Ecu",
    "Gateway",
]
