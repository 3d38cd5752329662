"""``ServiceClient`` -- the blocking client of the campaign daemon.

One method call == one connection == one request: the client connects,
sends a single JSON line, and consumes the response line(s).  Simple
operations (:meth:`ServiceClient.ping`, :meth:`~ServiceClient.status`,
:meth:`~ServiceClient.cancel`, :meth:`~ServiceClient.shutdown`) return
one decoded response; :meth:`~ServiceClient.submit_stream` yields
incrementally -- each variant's :class:`~repro.engine.campaign.
VariantOutcome` the moment the daemon streams it -- and
:meth:`~ServiceClient.submit` collects the stream into submission order.

Anything that goes wrong on the wire (daemon not running, daemon-side
error response, truncated stream) surfaces as :class:`ServiceError`, a
normal :class:`~repro.errors.ReproError` subclass, so CLI and tests
handle service failures like any other library error.
"""

from __future__ import annotations

import socket
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from repro.engine.campaign import VariantOutcome
from repro.engine.spec import VariantSpec
from repro.errors import ReproError, ValidationError
from repro.faults import fault_point
from repro.runtime import RetryPolicy
from repro.service.protocol import (
    DEFAULT_HOST,
    SUBMISSION_EVENTS,
    read_message,
    write_message,
)

#: Seconds a client waits on one response line before giving up.  Long:
#: a single uncached heavyweight variant can take seconds to execute.
DEFAULT_TIMEOUT_S = 300.0


class ServiceError(ReproError):
    """A campaign-service request failed (connection, wire, or daemon).

    Attributes:
        submission_id: The daemon-assigned id of the submission the
            failure interrupted (empty before acceptance).
        outcomes_received: Outcomes consumed off the stream before it
            broke -- together with ``submission_id`` this tells a caller
            exactly how far the campaign got.
        resumable: True when resubmitting is safe and cheap: the daemon
            memoises completed variants, so a resumed submit re-serves
            the finished work from cache and only executes the rest.
    """

    def __init__(
        self,
        message: str,
        *,
        submission_id: str = "",
        outcomes_received: int = 0,
        resumable: bool = False,
    ) -> None:
        super().__init__(message)
        self.submission_id = submission_id
        self.outcomes_received = outcomes_received
        self.resumable = resumable


class ServiceClient:
    """Blocking JSON-lines client for one daemon address.

    Args:
        port: The daemon's TCP port (see ``--port-file`` for discovery).
        host: The daemon's host (loopback by default).
        timeout: Per-read socket timeout in seconds.
        retry: Optional :class:`~repro.runtime.RetryPolicy` enabling
            reconnect-with-backoff (transient connect failures are
            retried with the policy's deterministic delays) and resumable
            submits (:meth:`submit` resubmits after a mid-stream drop;
            the daemon's memo store serves the finished prefix from
            cache).  ``None`` keeps the fail-fast behaviour.
    """

    def __init__(
        self,
        port: int,
        host: str = DEFAULT_HOST,
        *,
        timeout: float = DEFAULT_TIMEOUT_S,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry

    @classmethod
    def from_port_file(
        cls,
        path: str | Path,
        host: str = DEFAULT_HOST,
        *,
        timeout: float = DEFAULT_TIMEOUT_S,
    ) -> "ServiceClient":
        """A client for the port a daemon published via ``--port-file``.

        Raises:
            ServiceError: when the file is missing or not a port number.
        """
        try:
            text = Path(path).read_text(encoding="utf-8").strip()
            port = int(text)
        except (OSError, ValueError) as exc:
            raise ServiceError(f"unreadable port file {path}: {exc}") from exc
        return cls(port, host, timeout=timeout)

    # -- wire --------------------------------------------------------------

    def _connect(self) -> socket.socket:
        """One connection, retried with backoff under a retry policy."""
        attempt = 1
        while True:
            try:
                return socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
            except OSError as exc:
                if self.retry is None or not self.retry.should_retry(
                    type(exc).__name__, attempt
                ):
                    raise ServiceError(
                        f"cannot reach campaign daemon at "
                        f"{self.host}:{self.port}: {exc}"
                    ) from exc
                self.retry.wait(attempt, "connect", self.host, self.port)
                attempt += 1

    def _responses(self, request: Mapping[str, Any]) -> Iterator[dict[str, Any]]:
        """Send one request; yield response messages until EOF."""
        conn = self._connect()
        try:
            with conn, conn.makefile("rwb") as stream:
                write_message(stream, request)
                conn.shutdown(socket.SHUT_WR)  # one request per connection
                while True:
                    try:
                        message = read_message(stream)
                    except ReproError as exc:
                        raise ServiceError(f"bad wire line: {exc}") from exc
                    if message is None:
                        return
                    yield message
        except OSError as exc:
            raise ServiceError(
                f"connection to {self.host}:{self.port} failed mid-request: {exc}"
            ) from exc

    def _roundtrip(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """One request, exactly one response; raise on daemon errors."""
        for message in self._responses(request):
            return self._checked(message)
        raise ServiceError(
            f"daemon at {self.host}:{self.port} closed the connection "
            "without responding"
        )

    @staticmethod
    def _checked(message: dict[str, Any]) -> dict[str, Any]:
        if message.get("ok"):
            return message
        error = message.get("error") or {}
        raise ServiceError(
            f"daemon error: {error.get('type', 'Error')}: "
            f"{error.get('message', 'unknown failure')}"
        )

    # -- simple operations -------------------------------------------------

    def ping(self) -> dict[str, Any]:
        """Liveness probe; returns the daemon's response (with its pid)."""
        return self._roundtrip({"op": "ping"})

    def status(self) -> dict[str, Any]:
        """Scheduler + memo store state (see the daemon's ``status`` op)."""
        return self._roundtrip({"op": "status"})

    def cancel(self, submission_id: str) -> dict[str, Any]:
        """Cancel one submission by id; returns its final summary."""
        return self._roundtrip({"op": "cancel", "id": submission_id})

    def shutdown(self) -> dict[str, Any]:
        """Ask the daemon to stop serving and exit."""
        return self._roundtrip({"op": "shutdown"})

    # -- submission --------------------------------------------------------

    def submit_stream(
        self,
        variants: Sequence[VariantSpec] | None = None,
        *,
        select: Mapping[str, Any] | None = None,
    ) -> Iterator[tuple[str, Any, Any]]:
        """Submit and stream: yields ``("accepted", id, total)`` first,
        then ``("outcome", index, outcome)`` per variant as the daemon
        delivers it, then ``("done", id, summary)``.

        Pass either explicit ``variants`` (shipped as payloads) or a
        ``select`` filter the daemon resolves against its registry.
        """
        if (variants is None) == (select is None):
            raise ValidationError("pass exactly one of variants= or select=")
        request: dict[str, Any] = {"op": "submit"}
        if variants is not None:
            request["variants"] = [v.to_payload() for v in variants]
        else:
            request["select"] = dict(select or {})
        done = False
        submission_id = ""
        outcomes_received = 0
        try:
            for message in self._responses(request):
                message = self._checked(message)
                if message.get("op") == "submit":
                    submission_id = str(message.get("id", ""))
                    yield "accepted", submission_id, message.get("total", 0)
                elif message.get("event") == "outcome":
                    fault_point("client-outcome")
                    outcomes_received += 1
                    yield (
                        "outcome",
                        int(message["index"]),
                        VariantOutcome.from_payload(message["outcome"]),
                    )
                elif message.get("event") == "done":
                    done = True
                    yield "done", submission_id, message.get("summary", {})
                else:
                    raise ServiceError(
                        f"unexpected stream message (not one of "
                        f"{SUBMISSION_EVENTS}): {message}",
                        submission_id=submission_id,
                        outcomes_received=outcomes_received,
                    )
        except (ConnectionResetError, BrokenPipeError) as exc:
            raise self._dropped(exc, submission_id, outcomes_received) from exc
        except ServiceError as exc:
            cause = exc.__cause__
            if isinstance(cause, (ConnectionResetError, BrokenPipeError)):
                raise self._dropped(
                    cause, submission_id, outcomes_received
                ) from cause
            raise
        if not done:
            raise ServiceError(
                f"submission {submission_id or '<unacknowledged>'} stream "
                "ended before its final summary (daemon died mid-campaign?)",
                submission_id=submission_id,
                outcomes_received=outcomes_received,
                resumable=bool(submission_id),
            )

    @staticmethod
    def _dropped(
        exc: OSError, submission_id: str, outcomes_received: int
    ) -> ServiceError:
        """The enriched error for a connection lost mid-stream."""
        return ServiceError(
            f"connection dropped mid-stream on submission "
            f"{submission_id or '<unacknowledged>'} after "
            f"{outcomes_received} outcome(s): {type(exc).__name__}: {exc}",
            submission_id=submission_id,
            outcomes_received=outcomes_received,
            resumable=True,
        )

    def submit(
        self,
        variants: Sequence[VariantSpec] | None = None,
        *,
        select: Mapping[str, Any] | None = None,
    ) -> tuple[tuple[VariantOutcome, ...], dict[str, Any]]:
        """Submit and collect: outcomes in submission order + summary.

        Under a retry policy, a resumable mid-stream failure (dropped
        connection) resubmits after the policy's backoff: the daemon's
        memo store serves already-completed variants from cache, so a
        resume costs only the unfinished remainder.
        """
        attempt = 1
        while True:
            indexed: list[tuple[int, VariantOutcome]] = []
            summary: dict[str, Any] = {}
            try:
                for kind, key, payload in self.submit_stream(
                    variants, select=select
                ):
                    if kind == "outcome":
                        indexed.append((int(key), payload))
                    elif kind == "done":
                        summary = payload
            except ServiceError as exc:
                if (
                    self.retry is None
                    or not exc.resumable
                    or attempt >= self.retry.max_attempts
                ):
                    raise
                self.retry.wait(
                    attempt, "resume", exc.submission_id or "submit"
                )
                attempt += 1
                continue
            indexed.sort(key=lambda pair: pair[0])
            return tuple(outcome for _index, outcome in indexed), summary


__all__ = [
    "DEFAULT_TIMEOUT_S",
    "ServiceClient",
    "ServiceError",
]
