"""``repro.runtime`` -- the pluggable execution layer.

Every fan-out in the reproduction (scenario campaigns and the CLI's
``--backend``/``--jobs`` options) runs through this package:

* :mod:`repro.runtime.backends` -- the :class:`ExecutionBackend`
  protocol, the ``serial`` and ``process`` implementations (the only
  module in the repository importing :mod:`multiprocessing`) and
  :func:`backend_from_spec`, the one place a ``backend``/``jobs`` pair
  is resolved;
* :mod:`repro.runtime.runtime` -- the :class:`Runtime` facade adding
  progress events, structured error capture and cooperative
  cancellation on top of any backend, one job per backend task, plus
  :func:`derive_seed`, the stable seed derivation;
* :mod:`repro.runtime.retry` -- :class:`RetryPolicy`, the deterministic
  transient-failure retry/backoff contract every retry loop in the tree
  must go through (rule ``REP011`` bans ad-hoc sleep loops elsewhere).

Quick use::

    from repro.runtime import ProcessBackend, Runtime

    with Runtime(ProcessBackend(jobs=4)) as runtime:
        for result in runtime.map(execute, items):   # streams
            if not result.ok:
                print("failed:", result.error.message)

``MULTIPROCESSING_START_METHOD`` selects the process start method
(the CI spawn matrix leg).
"""

from repro.runtime.backends import (
    BACKEND_NAMES,
    RESPAWN_LIMIT,
    START_METHOD_ENV,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    available_start_methods,
    backend_from_spec,
    default_start_method,
    in_worker_process,
    mp_context,
    usable_cpus,
)
from repro.runtime.retry import (
    DEFAULT_TRANSIENT_TYPES,
    RetryPolicy,
)
from repro.runtime.runtime import (
    MAX_SEED,
    CancelToken,
    JobError,
    JobResult,
    ProgressEvent,
    Runtime,
    derive_seed,
)

__all__ = [
    "BACKEND_NAMES",
    "CancelToken",
    "DEFAULT_TRANSIENT_TYPES",
    "ExecutionBackend",
    "JobError",
    "JobResult",
    "MAX_SEED",
    "ProcessBackend",
    "ProgressEvent",
    "RESPAWN_LIMIT",
    "RetryPolicy",
    "Runtime",
    "START_METHOD_ENV",
    "SerialBackend",
    "available_start_methods",
    "backend_from_spec",
    "default_start_method",
    "derive_seed",
    "in_worker_process",
    "mp_context",
    "usable_cpus",
]
