"""CAN bus simulation: priority arbitration and finite bandwidth.

The paper's conclusion stresses that automotive testing must respect "the
characteristics of busses as limited bandwidth".  The CAN model captures
the two properties the use-case attacks depend on:

* **finite bandwidth** -- frames serialise over the bus one at a time at
  a fixed frame rate; excess traffic queues,
* **priority arbitration** -- when several frames are pending, the lowest
  CAN identifier wins arbitration; a flood of high-priority (low-id)
  frames therefore starves lower-priority traffic entirely, which is how
  "flooding of the CAN bus ... reduc[es] availability of the function"
  (UC II, SG03).

Frames are ordinary :class:`~repro.sim.network.Message` objects with an
integer ``can_id`` in the payload, so controls and attack injectors work
unchanged on the bus.
"""

from __future__ import annotations

import heapq
import itertools

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import EventBus
from repro.sim.network import Message, Receiver


class CanBus:
    """A single CAN segment.

    Attributes:
        name: Bus name ("body-can").
        frame_time_ms: Serialisation time of one frame (1/bandwidth).
        queue_capacity: Pending-frame limit of the controllers' combined
            transmit buffers; arrivals beyond it are lost (bus-off-like
            degradation under flood).
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        bus: EventBus,
        frame_time_ms: float = 0.5,
        queue_capacity: int = 256,
    ) -> None:
        if frame_time_ms <= 0:
            raise SimulationError("frame time must be positive")
        if queue_capacity < 1:
            raise SimulationError("queue capacity must be >= 1")
        self.name = name
        self.frame_time_ms = frame_time_ms
        self.queue_capacity = queue_capacity
        self._clock = clock
        self._bus = bus
        self._receivers: list[Receiver] = []
        self._taps: list = []
        self._pending: list[tuple[int, int, Message]] = []
        self._tiebreak = itertools.count()
        self._transmitting = False
        self._sent = 0
        self._delivered = 0
        self._lost = 0

    def attach(self, receiver: Receiver) -> None:
        """Attach a receiver; CAN is a broadcast bus."""
        self._receivers.append(receiver)

    def tap(self, listener) -> None:
        """Attach a passive tap; sees every frame at send time.

        A physical attacker clipped onto the bus observes arbitration
        losers and overflow-lost frames too, so taps fire before the
        queue-capacity check -- the same semantics as
        :meth:`repro.sim.network.Channel.tap`.
        """
        self._taps.append(listener)

    def send(self, frame: Message) -> None:
        """Queue a frame for arbitration.

        Raises:
            SimulationError: when the frame carries no integer ``can_id``.
        """
        can_id = frame.payload.get("can_id")
        if not isinstance(can_id, int) or isinstance(can_id, bool):
            raise SimulationError(
                f"CAN frame needs an integer payload['can_id'], got {can_id!r}"
            )
        if frame.timestamp < 0:
            frame = frame.with_timestamp(self._clock.now)
        self._sent += 1
        for listener in self._taps:
            listener(frame)
        if len(self._pending) >= self.queue_capacity:
            self._lost += 1
            self._bus.publish(
                self._clock.now,
                f"can.{self.name}.lost",
                self.name,
                can_id=can_id,
                sender=frame.sender,
            )
            return
        heapq.heappush(self._pending, (can_id, next(self._tiebreak), frame))
        if not self._transmitting:
            self._transmitting = True
            self._clock.schedule(self.frame_time_ms, self._complete_frame)

    def _complete_frame(self) -> None:
        """Arbitration winner finishes serialising; deliver and continue."""
        if not self._pending:
            self._transmitting = False
            return
        __, __, frame = heapq.heappop(self._pending)
        self._delivered += 1
        self._bus.publish(
            self._clock.now,
            f"can.{self.name}.frame",
            self.name,
            can_id=frame.payload["can_id"],
            kind=frame.kind,
            sender=frame.sender,
            latency_ms=self._clock.now - frame.timestamp,
        )
        for receiver in list(self._receivers):
            receiver.receive(frame)
        if self._pending:
            self._clock.schedule(self.frame_time_ms, self._complete_frame)
        else:
            self._transmitting = False

    @property
    def pending(self) -> int:
        """Frames currently waiting for arbitration."""
        return len(self._pending)

    @property
    def stats(self) -> dict[str, float]:
        """Traffic statistics (sent/delivered/lost/pending)."""
        return {
            "sent": self._sent,
            "delivered": self._delivered,
            "lost": self._lost,
            "pending": len(self._pending),
        }

    def delivery_latencies(self) -> tuple[float, ...]:
        """Per-frame bus latencies from the event trace (ms).

        Reads the ``can.<name>.frame`` events, so the caller must
        ``bus.retain()`` that topic before the run; otherwise the read
        raises :class:`~repro.errors.SimulationError`.
        """
        return tuple(
            event.data["latency_ms"]
            for event in self._bus.events(f"can.{self.name}.frame")
        )


def make_frame(
    sender: str,
    can_id: int,
    kind: str = "can_frame",
    **payload,
) -> Message:
    """Convenience constructor for CAN frames.

    >>> frame = make_frame("door-ecu", 0x200, command="open")
    >>> frame.payload["can_id"]
    512
    """
    return Message(
        kind=kind,
        sender=sender,
        payload={"can_id": can_id, **payload},
    )


__all__ = [
    "CanBus",
    "make_frame",
]
