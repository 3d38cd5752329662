"""Sender authentication and message-counter controls.

Two of the classical controls the paper's attacks must contend with:

* :class:`SenderAuthentication` -- verifies the HMAC tag; defeats naive
  spoofing and tampering (AD20's flooding attacker deliberately *owns* a
  provisioned identity to get past this).
* :class:`MessageCounterCheck` -- Table VI's expected measure, "Message
  counter for broken messages": every sender's counter must increase
  strictly; replays and duplicated floods trip it.
"""

from __future__ import annotations

from repro.sim.controls.base import Decision, SecurityControl
from repro.sim.crypto import KeyStore
from repro.sim.network import Message


class SenderAuthentication(SecurityControl):
    """Verify the message's HMAC tag against the claimed sender's key.

    Denies messages whose sender is unprovisioned, whose tag is missing,
    or whose tag does not verify (spoofed identity or tampered payload).
    """

    __slots__ = ("_keystore",)

    def __init__(self, keystore: KeyStore, name: str = "sender-auth") -> None:
        super().__init__(name)
        self._keystore = keystore

    def inspect(self, message: Message, now: float) -> Decision:
        if not self._keystore.is_provisioned(message.sender):
            return Decision.denied(
                self.name, f"unknown sender {message.sender!r}"
            )
        if not message.has_auth_tag():
            return Decision.denied(
                self.name, f"unauthenticated message from {message.sender!r}"
            )
        key = self._keystore.key_of(message.sender)
        # Memoised on the message instance: a broadcast delivers one
        # frozen message to N receivers, and each would otherwise redo
        # the identical HMAC.
        if not message.mac_verified(key):
            return Decision.denied(
                self.name,
                f"MAC verification failed for {message.sender!r} "
                "(spoofed sender or tampered payload)",
            )
        return self.pass_decision


class MessageCounterCheck(SecurityControl):
    """Require strictly increasing per-sender message counters.

    The Table VI expected measure.  A replayed message repeats an old
    counter; a badly implemented flood reuses counters; both are "broken
    messages" and denied.
    """

    __slots__ = ("_last",)

    def __init__(self, name: str = "message-counter") -> None:
        super().__init__(name)
        self._last: dict[str, int] = {}

    def inspect(self, message: Message, now: float) -> Decision:
        last = self._last.get(message.sender)
        if last is not None and message.counter <= last:
            return Decision.denied(
                self.name,
                f"broken message counter from {message.sender!r}: "
                f"{message.counter} after {last}",
            )
        self._last[message.sender] = message.counter
        return self.pass_decision

    def reset(self) -> None:
        self._last.clear()


__all__ = [
    "MessageCounterCheck",
    "SenderAuthentication",
]
