"""``repro.service`` -- the campaign service plane.

Everything a *persistent* campaign daemon needs to serve many clients
from one long-lived process, instead of rebuilding the world per
invocation (the ``iter_campaign`` lifecycle):

* :mod:`repro.service.memo` -- the content-addressed
  :class:`MemoStore`: ``sha256(resolved variant config + derived seed +
  code fingerprint)`` maps to the cached
  :class:`~repro.engine.campaign.VariantOutcome`, so any previously-run
  variant -- submitted by any client, before or after a daemon restart
  -- is served from cache instead of re-executed;
* :mod:`repro.service.scheduler` -- the :class:`Scheduler`: cuts
  submissions into fixed-size work units, in input order, and shards
  them across a worker pool with work-stealing between shards, streams
  outcomes back per submission as they land, and forgets each
  submission once it finishes;
* :mod:`repro.service.protocol` -- the JSON-lines wire protocol
  (schema ``repro.service/v1``) daemon and clients speak;
* :mod:`repro.service.daemon` -- :class:`CampaignDaemon`, the socket
  server behind ``repro serve``;
* :mod:`repro.service.client` -- :class:`ServiceClient`, the blocking
  client behind ``repro submit`` / ``repro status``.

This package is, by architectural contract (REP009), the **only** place
in the repository allowed to import socket/server machinery
(``socket``, ``socketserver``, ``asyncio``, ``selectors``, ``http``) --
every other module talks to a daemon through :class:`ServiceClient`.
"""

from repro.service.client import DEFAULT_TIMEOUT_S, ServiceClient, ServiceError
from repro.service.daemon import CampaignDaemon
from repro.service.memo import (
    JOURNAL_NAME,
    MEMO_SCHEMA,
    MemoStore,
    code_fingerprint,
    variant_key,
)
from repro.service.protocol import (
    DEFAULT_HOST,
    MAX_LINE_BYTES,
    OPS,
    SERVICE_SCHEMA,
    SUBMISSION_EVENTS,
    decode_line,
    encode_line,
    error_response,
    read_message,
    validate_request,
    write_message,
)
from repro.service.scheduler import UNIT_SIZE, Scheduler, Submission

__all__ = [
    "CampaignDaemon",
    "DEFAULT_HOST",
    "DEFAULT_TIMEOUT_S",
    "JOURNAL_NAME",
    "MAX_LINE_BYTES",
    "MEMO_SCHEMA",
    "MemoStore",
    "OPS",
    "SERVICE_SCHEMA",
    "SUBMISSION_EVENTS",
    "Scheduler",
    "ServiceClient",
    "ServiceError",
    "Submission",
    "UNIT_SIZE",
    "code_fingerprint",
    "decode_line",
    "encode_line",
    "error_response",
    "read_message",
    "validate_request",
    "variant_key",
    "write_message",
]
