"""Execution backends: where runtime jobs physically run.

This is the **only** module in the repository that imports
:mod:`multiprocessing`.  Everything that fans work out -- the campaign
runner and the CLI -- goes through the :class:`ExecutionBackend`
protocol, so swapping how jobs execute (in-process, processes, and in
the future async or distributed runners) never touches the call sites
again.

Two implementations ship today:

* :class:`SerialBackend` -- runs jobs inline, lazily, in submission
  order.  Zero overhead, fully deterministic, the default everywhere,
  and the one backend that sees in-process state such as a custom
  scenario registry.
* :class:`ProcessBackend` -- a process pool for CPU-bound fan-out.  Jobs
  and results must pickle.

The process start method resolves, in order: the explicit
``start_method=`` argument, the ``MULTIPROCESSING_START_METHOD``
environment variable (the CI matrix leg), then ``fork`` where available
with ``spawn`` as the portable fallback.

:func:`backend_from_spec` is the one place a ``backend=``/``jobs=``
pair becomes a backend.  A thread pool is deliberately absent: every
campaign job is CPU-bound Python, so under the GIL threads ran slower
than serial.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import threading
from concurrent import futures as _futures
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Protocol,
    runtime_checkable,
)

from repro.errors import ValidationError

_log = logging.getLogger("repro.runtime")

#: Environment variable selecting the process start method (CI matrix).
START_METHOD_ENV = "MULTIPROCESSING_START_METHOD"

#: The backend names :func:`backend_from_spec` (and every ``--backend``
#: CLI option) accepts, in increasing isolation order.
BACKEND_NAMES = ("serial", "process")

#: How many times one :class:`ProcessBackend` replaces a dead pool before
#: it drains the remaining jobs inline.
RESPAWN_LIMIT = 2


def usable_cpus() -> int:
    """CPUs this process may actually use (affinity-aware on Linux)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def available_start_methods() -> tuple[str, ...]:
    """The start methods this platform supports (``fork``, ``spawn``, ...)."""
    return tuple(multiprocessing.get_all_start_methods())


def default_start_method() -> str:
    """Resolve the start method: env override, else fork, else spawn."""
    configured = os.environ.get(START_METHOD_ENV, "").strip()
    methods = available_start_methods()
    if configured:
        if configured not in methods:
            raise ValidationError(
                f"{START_METHOD_ENV}={configured!r} is not supported here "
                f"(available: {', '.join(methods)})"
            )
        return configured
    return "fork" if "fork" in methods else "spawn"


def mp_context(
    start_method: str | None = None,
) -> multiprocessing.context.BaseContext:
    """A :mod:`multiprocessing` context for ``start_method``.

    Exposed so tests and tools that need a raw context (e.g. probing
    fork/spawn semantics) do not import :mod:`multiprocessing` directly
    -- this module is the single chokepoint for process machinery.
    """
    return multiprocessing.get_context(start_method or default_start_method())


# -- worker flag --------------------------------------------------------------

#: Set by :func:`_process_worker_init` inside pool worker processes.
_IN_WORKER_PROCESS = False


def in_worker_process() -> bool:
    """True only inside a :class:`ProcessBackend` worker process.

    The flag lets code tell a short-lived pool worker, which may be
    killed, from the caller's own process, which must not be: the
    ``kill-worker`` fault fires only where it is set.
    """
    return _IN_WORKER_PROCESS


def _process_worker_init() -> None:
    """Pool-process startup: mark this process as a worker."""
    global _IN_WORKER_PROCESS
    _IN_WORKER_PROCESS = True


# -- the protocol -------------------------------------------------------------


@runtime_checkable
class ExecutionBackend(Protocol):
    """Where jobs run.  All backends speak this two-method protocol.

    Attributes:
        name: Stable backend tag (``"serial"``, ``"process"``) recorded
            in campaign results.
        jobs: Maximum concurrently executing jobs.
        shares_memory: True when jobs see the caller's objects directly
            (serial); False when jobs cross a pickle boundary (process,
            and any future distributed backend).
    """

    name: str
    jobs: int
    shares_memory: bool

    def map_unordered(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> Iterator[tuple[int, Any]]:
        """Yield ``(index, fn(item))`` pairs in completion order.

        The iterator is lazy where the backend allows it; closing it
        early cancels whatever has not started.
        """
        ...

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Release the backend's workers (idempotent)."""
        ...


# -- implementations ----------------------------------------------------------


class _BackendBase:
    """Shared context-manager plumbing for all built-in backends."""

    name = "base"
    jobs = 1
    shares_memory = True

    def __enter__(self) -> "ExecutionBackend":
        return self  # type: ignore[return-value]

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(jobs={self.jobs})"


class SerialBackend(_BackendBase):
    """Run every job inline, lazily, in submission order.

    ``map_unordered`` executes one job per ``next()`` call, so streaming
    consumers (and cooperative cancellation) work exactly as they do on
    the process pool -- just one at a time.
    """

    name = "serial"
    jobs = 1
    shares_memory = True

    def map_unordered(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> Iterator[tuple[int, Any]]:
        for index, item in enumerate(items):
            yield index, fn(item)

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Nothing to release: serial jobs run in the caller."""


class ProcessBackend(_BackendBase):
    """A process pool for CPU-bound fan-out (jobs must pickle).

    Every worker process runs :func:`_process_worker_init` first, which
    sets the :func:`in_worker_process` flag.  Works under both ``fork``
    and ``spawn``.

    The backend is *supervised*: a worker dying mid-job (OOM kill,
    segfault, hard ``os._exit``) breaks a :class:`ProcessPoolExecutor`
    permanently, which by default would fail every in-flight job.
    :meth:`map_unordered` instead discards the broken pool, respawns a
    fresh one (up to :data:`RESPAWN_LIMIT` times per backend), and
    re-enqueues exactly the jobs that never produced a result.  Past the
    budget it degrades to an inline serial drain in the calling process
    -- slower, but a campaign always terminates rather than hanging or
    crashing.  ``respawns`` counts pool replacements for observability.
    """

    name = "process"
    shares_memory = False

    def __init__(
        self,
        jobs: int | None = None,
        start_method: str | None = None,
    ) -> None:
        if jobs is None:
            jobs = usable_cpus()
        if jobs < 1:
            raise ValidationError(f"backend jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._start_method = start_method
        self.respawns = 0
        self._executor: _futures.ProcessPoolExecutor | None = None
        self._lock = threading.Lock()

    @property
    def start_method(self) -> str:
        """The start method this backend will use (resolved lazily)."""
        return self._start_method or default_start_method()

    @property
    def started(self) -> bool:
        """True once the worker pool exists (the first map starts it)."""
        return self._executor is not None

    def _ensure(self) -> _futures.ProcessPoolExecutor:
        """The worker pool, started on first use."""
        with self._lock:
            if self._executor is None:
                self._executor = _futures.ProcessPoolExecutor(
                    max_workers=self.jobs,
                    mp_context=mp_context(self.start_method),
                    initializer=_process_worker_init,
                )
            return self._executor

    def map_unordered(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> Iterator[tuple[int, Any]]:
        remaining = dict(enumerate(items))
        while remaining:
            if self.respawns > RESPAWN_LIMIT:
                # Degraded mode: the pool kept dying, so finish the
                # leftovers inline rather than hang or crash the stream.
                _log.warning(
                    "process pool exceeded its respawn budget (%d); "
                    "draining %d job(s) inline",
                    RESPAWN_LIMIT,
                    len(remaining),
                )
                for index in sorted(remaining):
                    yield index, fn(remaining.pop(index))
                return
            pending: dict[_futures.Future, int] = {}
            try:
                executor = self._ensure()
                for index in sorted(remaining):
                    pending[executor.submit(fn, remaining[index])] = index
                for future in _futures.as_completed(list(pending)):
                    index = pending.pop(future)
                    value = future.result()
                    del remaining[index]
                    yield index, value
            except _futures.BrokenExecutor:
                # A worker died (exitcode watch is the executor's own
                # management thread); every pending future is poisoned.
                # Replace the pool and re-enqueue the unfinished jobs.
                self.respawns += 1
                _log.warning(
                    "process worker died; pool replacement %d (budget %d), "
                    "%d job(s) to re-enqueue",
                    self.respawns,
                    RESPAWN_LIMIT,
                    len(remaining),
                )
                self.shutdown(wait=False, cancel_pending=True)
            finally:
                for future in pending:
                    future.cancel()

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=cancel_pending)


# -- the resolver -------------------------------------------------------------


def backend_from_spec(
    spec: "str | ExecutionBackend | None",
    jobs: int | None = None,
) -> ExecutionBackend:
    """Resolve the ``backend=``/``jobs=`` calling convention.

    ``jobs`` below 1 is rejected whatever the spec.  ``None`` means
    ``serial`` unless ``jobs`` asks for parallelism, in which case
    ``process`` (the CPU-bound default).  A name from
    :data:`BACKEND_NAMES` builds that backend: ``serial`` runs exactly
    one job, so asking it for more is rejected rather than silently
    ignored; ``process`` without ``jobs`` uses every usable CPU (build
    :class:`ProcessBackend` directly for a start method).  A ready
    backend is returned unchanged, and ``jobs`` must then be unset or
    match it -- the backend already knows its size.
    """
    if jobs is not None and jobs < 1:
        raise ValidationError(f"backend jobs must be >= 1, got {jobs}")
    if spec is None:
        spec = "process" if jobs is not None and jobs > 1 else "serial"
    if not isinstance(spec, str):
        if jobs is not None and jobs != spec.jobs:
            raise ValidationError(
                f"jobs={jobs} conflicts with the provided backend "
                f"({spec.name}, jobs={spec.jobs}); size the backend "
                "directly"
            )
        return spec
    if spec == "serial":
        if jobs is not None and jobs != 1:
            raise ValidationError(
                f"the serial backend runs exactly one job (got jobs={jobs}); "
                "choose process for parallelism"
            )
        return SerialBackend()
    if spec == "process":
        return ProcessBackend(jobs=jobs)
    raise ValidationError(
        f"unknown backend {spec!r} (choose one of {', '.join(BACKEND_NAMES)})"
    )


__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "ProcessBackend",
    "RESPAWN_LIMIT",
    "START_METHOD_ENV",
    "SerialBackend",
    "available_start_methods",
    "backend_from_spec",
    "default_start_method",
    "in_worker_process",
    "mp_context",
    "usable_cpus",
]
