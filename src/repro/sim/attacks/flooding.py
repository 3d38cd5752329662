"""Packet-flooding attack (AD20).

"Attacker tries to overload the ECU by packet flooding. ...  Create an
authenticated sender as attacker beside the original sender, additionally
the attacker sender should send extra messages (with high frequency or in
chaotic way)."

The injector supports both halves of that implementation comment:

* ``authenticated=True`` provisions the attacker in the keystore, so
  sender authentication does *not* stop the flood -- only the flooding
  detector's frequency analysis can,
* ``chaotic=True`` varies the inter-message gap deterministically (a
  fixed pattern of long/short gaps) instead of a constant rate, to probe
  naive fixed-window detectors.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, cycle, islice
from typing import Any, Callable

from repro.sim.attacks.base import AttackInjector
from repro.sim.clock import SimClock
from repro.sim.crypto import KeyStore
from repro.sim.network import Channel, Message

#: Deterministic "chaotic" gap pattern (multipliers on the base interval).
_CHAOTIC_PATTERN = (0.2, 1.7, 0.4, 0.1, 2.3, 0.6, 0.3, 1.1)
#: The constant rate as a pattern (``x * 1.0 == x`` for every float).
_STEADY_PATTERN = (1.0,)


class FloodingAttack(AttackInjector):
    """Flood a channel with extra messages from one sender identity.

    Attributes:
        kind: Message kind to flood with (mimics legitimate traffic).
        interval_ms: Base gap between messages (1/rate).
        duration_ms: Attack window length.
        authenticated: Sign messages with the attacker's provisioned key.
        chaotic: Use the varying gap pattern instead of a constant rate.

    ``payload_factory`` maps a packet's counter to its payload.  A flood
    train defers its packets (see :meth:`_train`), and a deferred packet
    is built -- its payload made and its ``unique_id`` drawn -- only if
    the channel delivers it on its own, so the factory runs for built
    packets only and must be pure.  The process-global ``unique_id``
    only tells messages apart for the replay and tamper taps, and no
    train runs under a tap, so drawing it at delivery changes no
    outcome.
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        channel: Channel,
        kind: str,
        interval_ms: float = 5.0,
        duration_ms: float = 5000.0,
        keystore: KeyStore | None = None,
        authenticated: bool = True,
        chaotic: bool = False,
        payload_factory: Callable[[int], dict[str, Any]] | None = None,
        location: str = "",
    ) -> None:
        super().__init__(name, clock, channel)
        self.kind = kind
        self.interval_ms = interval_ms
        self.duration_ms = duration_ms
        self.authenticated = authenticated
        self.chaotic = chaotic
        self.location = location
        self._keystore = keystore
        self._payload_factory = payload_factory or (lambda n: {"flood": n})
        self._counter = 0
        self._burst_end = 0.0
        self._burst_step = 0
        if authenticated:
            if keystore is None:
                raise ValueError(
                    "authenticated flooding needs a keystore to provision "
                    "the attacker identity in"
                )
            keystore.provision(name)

    def launch(self, start_ms: float) -> None:
        """Schedule the flood over [start_ms, start_ms + duration_ms]."""
        self._validate_window(start_ms, self.duration_ms)
        self._burst_end = start_ms + self.duration_ms
        self._burst_step = 0
        self._clock.schedule_at(start_ms, self._burst)

    def _burst(self) -> None:
        # The whole flood repeats through this one bound method -- a
        # closure per packet would allocate ~12k lambdas per variant.
        clock = self._clock
        now = clock.now
        if now > self._burst_end:
            self._mark_end()
            return
        message = self._message(now)
        self._emit(message)
        next_time = now + self._gap()
        if next_time <= self._burst_end:
            stop = self.channel.train_stop(message)
            if next_time < stop:
                next_time = self._train(next_time, stop)
        # post, not schedule: the burst never cancels itself, so the
        # per-packet EventHandle allocation is pure overhead.
        clock.post(next_time, self._burst)

    def _train(self, next_time: float, stop: float) -> float:
        """Run the bursts due before ``stop`` (and the end) as one train,
        without advancing the clock; returns the next burst's time.

        The send times are the ``next_time += gap`` chain of
        :meth:`_gap`, built in C: ``accumulate`` over the gap cycle
        rotated to the current step, cut with ``bisect`` where a burst
        would be at or after ``stop``, or after the end.  The channel
        defers the packets ``(self, counter, time)`` and builds one
        (:meth:`_build`) only if it delivers it on its own.
        """
        end = self._burst_end
        step = self._burst_step
        pattern = _CHAOTIC_PATTERN if self.chaotic else _STEADY_PATTERN
        gaps = [max(self.interval_ms * factor, 0.01) for factor in pattern]
        phase = step % len(gaps)
        gaps = gaps[phase:] + gaps[:phase]
        # Enough bursts to pass the cut, doubled in the unlikely case the
        # estimate falls short.
        size = int((min(stop, end) - next_time) / sum(gaps) * len(gaps))
        size += len(gaps) + 2
        while True:
            times = array(
                "d",
                islice(accumulate(cycle(gaps), initial=next_time), size),
            )
            cut = min(bisect_left(times, stop), bisect_right(times, end))
            if cut < size:
                break
            size *= 2
        next_time = times[cut]
        del times[cut:]
        first = self._counter + 1
        self._counter += cut
        self._burst_step = step + cut
        self.channel.send_train(times, self, first)
        self.messages_sent += cut
        return next_time

    def _gap(self) -> float:
        """The gap to the next burst (one step of the pattern)."""
        gap = self.interval_ms
        if self.chaotic:
            gap *= _CHAOTIC_PATTERN[self._burst_step % len(_CHAOTIC_PATTERN)]
        self._burst_step += 1
        return max(gap, 0.01)

    def _message(self, now: float) -> Message:
        """The next flood packet, stamped ``now``."""
        self._counter += 1
        return self._build(self._counter, now)

    def _build(self, counter: int, timestamp: float) -> Message:
        """Flood packet number ``counter``, stamped ``timestamp``.

        ``create_signed`` records the key and defers the HMAC to the
        first read of auth_tag, which an admit on the signer's own key
        never makes.
        """
        if self.authenticated:
            assert self._keystore is not None
            return Message.create_signed(
                self._keystore,
                kind=self.kind,
                sender=self.name,
                payload=self._payload_factory(counter),
                counter=counter,
                timestamp=timestamp,
                location=self.location,
            )
        return Message(
            kind=self.kind,
            sender=self.name,
            payload=self._payload_factory(counter),
            counter=counter,
            timestamp=timestamp,
            location=self.location,
        )


__all__ = [
    "FloodingAttack",
]
