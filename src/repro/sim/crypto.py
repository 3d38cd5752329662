"""Lightweight-but-honest cryptographic primitives for the simulator.

The attack descriptions of §IV assume "a valid end-to-end encryption" and
authenticated senders; the interesting attacks are the ones that work
*despite* those controls (replay, flooding by an authenticated sender, key
forgery against the ID check).  The simulator therefore needs real message
authentication semantics -- forgery must actually fail -- without pulling
in a cryptography dependency.  HMAC-SHA256 from the standard library gives
exactly that: honest verification behaviour with toy key management.

Nothing here is security advice; it is a simulation substrate.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import hmac

from repro.errors import SimulationError


def compute_mac(key: bytes, payload: bytes) -> str:
    """HMAC-SHA256 tag (hex) over ``payload`` with ``key``."""
    return hmac.digest(key, payload, "sha256").hex()


def verify_mac(key: bytes, payload: bytes, tag: str) -> bool:
    """Constant-time verification of a :func:`compute_mac` tag.

    This is the uncached primitive.  Hot paths that re-verify the same
    broadcast message per receiver go through
    :meth:`repro.sim.network.Message.mac_verified`, which memoises the
    verdict per ``(message instance, key)`` -- safe because messages are
    frozen, and a tampered replica is a fresh instance with cold caches.
    A signed message's memo starts with its signer's key, so an honest
    receiver reaches this function (and the message computes its lazy
    tag) only for some other key.
    """
    expected = compute_mac(key, payload)
    return hmac.compare_digest(expected, tag)


@functools.lru_cache(maxsize=1024)
def derive_key(identity: str) -> bytes:
    """Deterministic shared-key derivation for ``identity``.

    Pure sha256 over the identity string, so the cache is safe to share
    process-wide: every :class:`KeyStore` derives the same bytes for the
    same identity.  A campaign re-provisions the same handful of
    identities ("rsu", "av", fleet vehicle names) per variant; caching
    the digest makes provisioning a dict lookup after the first variant.
    """
    return hashlib.sha256(f"key:{identity}".encode("utf-8")).digest()


def canonical_payload(fields: dict[str, object]) -> bytes:
    """Deterministic byte encoding of a message payload for MACing.

    Keys are sorted so logically equal payloads always authenticate
    identically regardless of construction order.
    """
    parts = [f"{key}={fields[key]!r}" for key in sorted(fields)]
    return "|".join(parts).encode("utf-8")


class KeyStore:
    """Shared-key registry for authenticated senders.

    The store models the credential provisioning of the SUT: every
    *authenticated* participant (RSU, smartphone key, on-board ECUs) holds
    a shared key; attackers may or may not possess one -- AD20's flooding
    attacker explicitly does ("Create an authenticated sender as attacker
    beside the original sender").
    """

    def __init__(self) -> None:
        self._keys: dict[str, bytes] = {}

    def provision(self, identity: str) -> bytes:
        """Create (or return) the shared key for ``identity``.

        Keys are derived deterministically from the identity so simulation
        runs are reproducible; this is a simulation, not key management.
        """
        if identity not in self._keys:
            self._keys[identity] = derive_key(identity)
        return self._keys[identity]

    def key_of(self, identity: str) -> bytes:
        """The provisioned key of ``identity``.

        Raises:
            SimulationError: when the identity was never provisioned.
        """
        if identity not in self._keys:
            raise SimulationError(f"no key provisioned for {identity!r}")
        return self._keys[identity]

    def is_provisioned(self, identity: str) -> bool:
        """True when ``identity`` holds a shared key."""
        return identity in self._keys

    def identities(self) -> tuple[str, ...]:
        """All provisioned identities, in provisioning order."""
        return tuple(self._keys)


@dataclasses.dataclass
class ChallengeResponse:
    """A deterministic challenge-response session helper.

    UC II notes replay "might be prevented by timestamps resp.
    challenge-responds-patterns within the communication"; this implements
    the pattern: the verifier issues a fresh challenge, the prover answers
    with ``HMAC(key, challenge)``, and each challenge is single-use.
    """

    keystore: KeyStore
    _counter: int = 0
    _outstanding: dict[str, str] = dataclasses.field(default_factory=dict)

    def issue_challenge(self, identity: str) -> str:
        """Issue a fresh single-use challenge for ``identity``."""
        self._counter += 1
        challenge = f"challenge-{identity}-{self._counter}"
        self._outstanding[challenge] = identity
        return challenge

    def respond(self, identity: str, challenge: str) -> str:
        """The prover's response (requires the identity's key)."""
        key = self.keystore.key_of(identity)
        return compute_mac(key, challenge.encode("utf-8"))

    def verify(self, identity: str, challenge: str, response: str) -> bool:
        """Verify a response; consumes the challenge either way.

        A challenge can be verified at most once -- replaying a captured
        (challenge, response) pair fails because the challenge is spent.
        """
        expected_identity = self._outstanding.pop(challenge, None)
        if expected_identity != identity:
            return False
        if not self.keystore.is_provisioned(identity):
            return False
        key = self.keystore.key_of(identity)
        return verify_mac(key, challenge.encode("utf-8"), response)


__all__ = [
    "ChallengeResponse",
    "KeyStore",
    "canonical_payload",
    "compute_mac",
    "derive_key",
    "verify_mac",
]
