"""Flooding detection / rate limiting.

AD20's *Attack Fails* criterion reads: "security control identifies
unwanted sender enforce change of frequency".  :class:`FloodingDetector`
implements exactly that: a sliding-window rate check per sender; a sender
exceeding the limit is *flagged as unwanted* and blocked for a cool-down
period (the enforced frequency change).  The SUT is thereby "expected to
detect the flooding situation and to react appropriately".
"""

from __future__ import annotations

from collections import deque

from repro.errors import SimulationError
from repro.sim.controls.base import Decision, SecurityControl
from repro.sim.network import Message


class FloodingDetector(SecurityControl):
    """Sliding-window per-sender rate limiter with unwanted-sender flagging.

    Attributes:
        window_ms: Length of the observation window.
        max_messages: Messages allowed per sender within the window.
        cooldown_ms: Block duration once a sender is flagged.
    """

    __slots__ = (
        "window_ms",
        "max_messages",
        "cooldown_ms",
        "_history",
        "_blocked_until",
        "_flagged",
        "_block_decisions",
        "_last_block",
    )

    def __init__(
        self,
        window_ms: float = 1000.0,
        max_messages: int = 20,
        cooldown_ms: float = 5000.0,
        name: str = "flooding-detector",
    ) -> None:
        super().__init__(name)
        if window_ms <= 0 or cooldown_ms < 0:
            raise SimulationError("flooding detector windows must be positive")
        if max_messages < 1:
            raise SimulationError("max_messages must be >= 1")
        self.window_ms = window_ms
        self.max_messages = max_messages
        self.cooldown_ms = cooldown_ms
        self._history: dict[str, deque[float]] = {}
        self._blocked_until: dict[str, float] = {}
        self._flagged: set[str] = set()
        # (sender, blocked_until) -> the deny Decision for that block
        # window: a sustained flood denies thousands of messages with
        # the identical (immutable) verdict -- format it once.  The last
        # block is additionally kept unpacked: consecutive denials of
        # one flooding sender hit it without building a tuple key.
        self._block_decisions: dict[tuple[str, float], Decision] = {}
        self._last_block: tuple[str, float, Decision] | None = None

    def inspect(self, message: Message, now: float) -> Decision:
        sender = message.sender
        blocked_until = self._blocked_until.get(sender, -1.0)
        if now < blocked_until:
            last = self._last_block
            if (
                last is not None
                and last[1] == blocked_until
                and last[0] == sender
            ):
                return last[2]
            decision = self._block_decision(sender, blocked_until)
            self._last_block = (sender, blocked_until, decision)
            return decision
        window = self._history.get(sender)
        if window is None:  # setdefault would build a deque per message
            window = self._history[sender] = deque()
        window.append(now)
        while window and window[0] < now - self.window_ms:
            window.popleft()
        if len(window) > self.max_messages:
            self._flagged.add(sender)
            self._blocked_until[sender] = now + self.cooldown_ms
            window.clear()
            return Decision.denied(
                self.name,
                f"flooding detected: sender {sender!r} exceeded "
                f"{self.max_messages} msgs / {self.window_ms:.0f} ms; "
                "identified as unwanted sender",
            )
        return self.pass_decision

    def _block_decision(self, sender: str, blocked_until: float) -> Decision:
        block = (sender, blocked_until)
        decision = self._block_decisions.get(block)
        if decision is None:
            decision = self._block_decisions[block] = Decision.denied(
                self.name,
                f"sender {sender!r} blocked until {blocked_until:.0f} ms "
                "(enforced frequency change)",
            )
        return decision

    def standing_denial(self, sender: str) -> tuple[float, Decision] | None:
        """The sender's current block (``inspect``'s cached decision)."""
        blocked_until = self._blocked_until.get(sender)
        if blocked_until is None:
            return None
        return blocked_until, self._block_decision(sender, blocked_until)

    def is_flagged(self, sender: str) -> bool:
        """True when the sender was ever identified as unwanted."""
        return sender in self._flagged

    @property
    def flagged_senders(self) -> tuple[str, ...]:
        """All senders identified as unwanted, sorted."""
        return tuple(sorted(self._flagged))

    def reset(self) -> None:
        self._history.clear()
        self._blocked_until.clear()
        self._flagged.clear()
        self._block_decisions.clear()
        self._last_block = None


__all__ = [
    "FloodingDetector",
]
