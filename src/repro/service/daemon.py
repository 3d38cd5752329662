"""``CampaignDaemon`` -- the persistent socket server behind ``repro serve``.

One daemon process owns one :class:`~repro.service.scheduler.Scheduler`
and one :class:`~repro.service.memo.MemoStore` and serves any number of
clients over a loopback TCP socket speaking the JSON-lines protocol of
:mod:`repro.service.protocol`.  Each connection carries exactly one
request; ``submit`` responses stream (accepted, one outcome per variant,
final summary) so clients see verdicts as they land.

The daemon is crash-tolerant by construction: every executed variant is
journalled by the memo store before its outcome reaches the client, so a
killed daemon restarted against the same ``--memo-dir`` serves completed
variants from cache and re-executes only the remainder.  A client that
disconnects mid-stream cancels its own submission (and only its own).

This module -- with the rest of :mod:`repro.service` -- is the only
place in the repository allowed to import socket machinery (REP009).
"""

from __future__ import annotations

import contextlib
import logging
import os
import socketserver
import threading
import time
from pathlib import Path
from typing import Any, Mapping

from repro.engine.registry import ScenarioRegistry, default_registry
from repro.engine.spec import VariantSpec
from repro.errors import ReproError, ValidationError
from repro.service.memo import MemoStore
from repro.service.protocol import (
    DEFAULT_HOST,
    error_response,
    read_message,
    validate_request,
    write_message,
)
from repro.service.scheduler import Scheduler

_log = logging.getLogger("repro.service")


class _ServiceServer(socketserver.ThreadingTCPServer):
    """Loopback TCP server with a back-reference to its daemon."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], daemon: "CampaignDaemon") -> None:
        super().__init__(address, _RequestHandler)
        self.campaign_daemon = daemon

    def handle_error(self, request: Any, client_address: Any) -> None:
        # The stock implementation prints a traceback to stderr; a daemon
        # logs instead (and REP008 keeps stdout for the CLI alone).
        _log.exception("error handling connection from %s", client_address)


class _RequestHandler(socketserver.StreamRequestHandler):
    """One connection == one request; ``submit`` streams its response."""

    server: _ServiceServer

    def handle(self) -> None:
        daemon = self.server.campaign_daemon
        try:
            request = read_message(self.rfile)
        except ReproError as exc:
            write_message(self.wfile, error_response(exc))
            return
        if request is None:
            return
        try:
            op = validate_request(request)
            handler = getattr(daemon, f"_op_{op}")
            handler(request, self.wfile)
        except (BrokenPipeError, ConnectionError):
            _log.warning("client %s disconnected mid-response", self.client_address)
        except ReproError as exc:
            self._respond_error(exc)
        except Exception as exc:  # noqa: BLE001 - daemon must not die
            _log.exception("unhandled error serving %s", request.get("op"))
            self._respond_error(exc)

    def _respond_error(self, exc: BaseException) -> None:
        try:
            write_message(self.wfile, error_response(exc))
        except (BrokenPipeError, ConnectionError, OSError):
            _log.warning("client gone before error response could be sent")


class CampaignDaemon:
    """The long-lived campaign service process.

    Args:
        host: Bind address (loopback by default; the service plane is
            deliberately local).
        port: TCP port; ``0`` (default) picks an ephemeral port --
            publish it with ``port_file`` so clients can find it.
        memo_dir: Journal directory for the content-addressed
            :class:`~repro.service.memo.MemoStore`; ``None`` memoises
            in-memory only (no crash recovery).
        shards / workers: Scheduler geometry (see
            :class:`~repro.service.scheduler.Scheduler`).
        registry: Scenario registry submissions resolve against.
        port_file: Path the bound port is written to after binding.
        deadline_s: Service-wide wall-clock budget per variant
            (``None``: no deadline; a variant's own takes precedence).

    The socket is bound before the scheduler starts its workers, and a
    constructor that raises leaves neither a bound socket nor a running
    worker behind.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = 0,
        *,
        memo_dir: str | Path | None = None,
        shards: int = 2,
        workers: int | None = None,
        registry: ScenarioRegistry | None = None,
        port_file: str | Path | None = None,
        deadline_s: float | None = None,
    ) -> None:
        self.registry = registry or default_registry()
        self.memo = MemoStore(memo_dir, registry=self.registry)
        self._server = _ServiceServer((host, port), self)
        self.host, self.port = self._server.server_address[:2]
        with contextlib.ExitStack() as on_error:
            on_error.callback(self._server.server_close)
            self.scheduler = Scheduler(
                self.memo,
                shards=shards,
                workers=workers,
                registry=self.registry,
                deadline_s=deadline_s,
            )
            on_error.callback(self.scheduler.shutdown)
            if port_file is not None:
                Path(port_file).write_text(f"{self.port}\n", encoding="utf-8")
            on_error.pop_all()
        self.started_s = time.time()
        self._serve_thread: threading.Thread | None = None
        _log.info(
            "campaign daemon listening on %s:%d (memo: %s)",
            self.host,
            self.port,
            self.memo.journal_path or "in-memory",
        )

    # -- lifecycle ---------------------------------------------------------

    def serve_forever(self) -> None:
        """Serve until :meth:`stop` (blocking; the ``repro serve`` path)."""
        try:
            self._server.serve_forever(poll_interval=0.2)
        finally:
            self._close()

    def start(self) -> "CampaignDaemon":
        """Serve on a background thread (the in-process/test path)."""
        self._serve_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.2},
            name="repro-daemon",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release everything (idempotent)."""
        self._server.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10.0)
            self._serve_thread = None
        self._close()

    def _close(self) -> None:
        self._server.server_close()
        self.scheduler.shutdown(wait=False)
        self.memo.close()

    def __enter__(self) -> "CampaignDaemon":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- operations --------------------------------------------------------

    def _op_ping(self, request: Mapping[str, Any], stream: Any) -> None:
        write_message(
            stream, {"ok": True, "op": "ping", "pid": os.getpid()}
        )

    def _op_status(self, request: Mapping[str, Any], stream: Any) -> None:
        write_message(
            stream,
            {
                "ok": True,
                "op": "status",
                "pid": os.getpid(),
                "uptime_s": round(time.time() - self.started_s, 3),
                "scheduler": self.scheduler.status(),
                "memo": self.memo.status(),
            },
        )

    def _op_cancel(self, request: Mapping[str, Any], stream: Any) -> None:
        submission_id = request.get("id")
        if not isinstance(submission_id, str):
            raise ValidationError("cancel requires a submission 'id'")
        submission = self.scheduler.cancel_submission(submission_id)
        write_message(
            stream, {"ok": True, "op": "cancel", "summary": submission.summary()}
        )

    def _op_shutdown(self, request: Mapping[str, Any], stream: Any) -> None:
        write_message(stream, {"ok": True, "op": "shutdown"})
        _log.info("shutdown requested over the wire")
        # serve_forever cannot be stopped from a handler thread it owns;
        # hand the stop to a helper thread and let this handler return.
        threading.Thread(target=self.stop, name="repro-daemon-stop").start()

    def _resolve_variants(
        self, request: Mapping[str, Any]
    ) -> tuple[VariantSpec, ...]:
        """The variants a ``submit`` request names.

        Either explicit ``variants`` payloads (client-built specs) or a
        server-side ``select`` filter over the daemon's registry --
        exactly the filters ``ScenarioRegistry.variants`` takes.
        """
        payloads = request.get("variants")
        selector = request.get("select")
        if payloads is not None and selector is not None:
            raise ValidationError("pass either 'variants' or 'select', not both")
        if payloads is not None:
            if not isinstance(payloads, list):
                raise ValidationError("'variants' must be a list of payloads")
            return tuple(VariantSpec.from_payload(p) for p in payloads)
        if selector is None:
            raise ValidationError("submit requires 'variants' or 'select'")
        if not isinstance(selector, Mapping):
            raise ValidationError("'select' must be an object of filters")
        allowed = {"scenario", "family", "attack", "limit", "use_case"}
        unknown = set(selector) - allowed
        if unknown:
            raise ValidationError(
                f"unknown select filters: {', '.join(sorted(unknown))}"
            )
        return self.registry.variants(**dict(selector))

    def _op_submit(self, request: Mapping[str, Any], stream: Any) -> None:
        variants = self._resolve_variants(request)
        submission = self.scheduler.submit(variants)
        _log.info(
            "accepted %s: %d variant(s)", submission.id, submission.total
        )
        try:
            write_message(
                stream,
                {
                    "ok": True,
                    "op": "submit",
                    "id": submission.id,
                    "total": submission.total,
                },
            )
            for kind, index, payload in submission.events():
                if kind == "outcome":
                    write_message(
                        stream,
                        {
                            "ok": True,
                            "event": "outcome",
                            "id": submission.id,
                            "index": index,
                            "outcome": payload.to_payload(),
                        },
                    )
                else:
                    write_message(
                        stream,
                        {"ok": True, "event": "done", "summary": payload},
                    )
        except (BrokenPipeError, ConnectionError, OSError):
            # The client went away mid-stream: its submission must not
            # keep burning workers, but nobody else's may be touched.
            _log.warning(
                "client disconnected; cancelling %s", submission.id
            )
            submission.cancel.cancel()


__all__ = [
    "CampaignDaemon",
]
