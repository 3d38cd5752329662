"""The :class:`Runtime` facade: seeded, observable job execution.

Backends (:mod:`repro.runtime.backends`) answer *where* a call runs; this
module answers *how a workload runs well*, one job per backend task:

* **deterministic seeds** -- every job receives a seed derived from the
  runtime's root seed and the job's index via :func:`derive_seed`, so a
  campaign re-run with the same root seed is bit-identical on any
  backend, under any start method, at any parallelism;
* **structured error capture** -- a job that raises yields a
  :class:`JobResult` carrying a :class:`JobError` (type, message,
  worker-side traceback) instead of crashing the whole fan-out;
* **progress events** -- each completion emits a :class:`ProgressEvent`
  to the ``on_event`` callback, so CLIs and campaign drivers can report
  long runs without polling;
* **cooperative cancellation** -- a shared :class:`CancelToken` stops
  dispatch between jobs and cancels whatever has not started, yielding
  the results already produced.
"""

from __future__ import annotations

import concurrent.futures as _futures
import dataclasses
import functools
import hashlib
import threading
import time
import traceback
from typing import Any, Callable, Iterable, Iterator

from repro.errors import DeadlineExceededError, ExecutionError, ValidationError
from repro.runtime.backends import ExecutionBackend, SerialBackend

#: Largest derived seed (63 bits: always a positive Python/NumPy-safe int).
MAX_SEED = (1 << 63) - 1


def derive_seed(root: int, *parts: Any) -> int:
    """Derive a stable per-job seed from a root seed and identifying parts.

    The derivation hashes ``root`` and the parts' string forms, so it is
    identical across processes, start methods and platforms -- unlike
    ``hash()``, which is salted per interpreter.

    >>> derive_seed(1, 0) == derive_seed(1, 0)
    True
    >>> derive_seed(1, 0) != derive_seed(1, 1)
    True
    """
    text = ":".join([str(root), *(str(part) for part in parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & MAX_SEED


class CancelToken:
    """A shared, thread-safe cooperative cancellation flag.

    Hand one token to a runtime (or several) and call :meth:`cancel`
    from any thread -- an event callback, a signal handler, a watchdog.
    Jobs already running finish; nothing new starts.

    Tokens compose into trees: :meth:`child` derives a token that trips
    when its parent trips but can also be cancelled alone -- the shape a
    long-lived service needs, where cancelling one submission must not
    take the daemon (or its other submissions) down, while daemon
    shutdown must cancel everything at once.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._callbacks: list[Callable[[], None]] = []

    def cancel(self) -> None:
        """Request cancellation (idempotent; fires linked callbacks once)."""
        with self._lock:
            if self._event.is_set():
                return
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback()

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until cancelled (or ``timeout``); True when cancelled."""
        return self._event.wait(timeout)

    def on_cancel(self, callback: Callable[[], None]) -> None:
        """Register ``callback`` to fire (once) on cancellation.

        An already-cancelled token fires the callback immediately, so
        registration order and cancellation order cannot race.
        """
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback()

    def child(self) -> "CancelToken":
        """A linked token: parent cancellation trips it, not vice versa."""
        token = CancelToken()
        self.on_cancel(token.cancel)
        return token


@dataclasses.dataclass(frozen=True)
class JobError:
    """A worker-side exception, captured as plain data.

    The live exception object may not survive a process boundary, so
    jobs carry their failures home as (type name, message, formatted
    traceback) -- enough to report, triage, and re-raise.
    """

    type: str
    message: str
    traceback: str = ""

    def to_exception(self) -> ExecutionError:
        """This error as a raisable :class:`~repro.errors.ExecutionError`."""
        return ExecutionError(
            f"{self.type}: {self.message}",
            error_type=self.type,
            error_traceback=self.traceback,
        )

    @classmethod
    def from_exception(cls, exc: BaseException) -> "JobError":
        """Capture a live exception into its plain-data form.

        Capture must never raise: a poisoned exception (one whose
        ``__str__`` blows up, or whose payload cannot pickle across a
        spawn boundary) would otherwise crash the worker's error path
        and take the whole backend down with it.  The message degrades
        to ``repr()`` and then to a placeholder; the traceback degrades
        to empty.
        """
        try:
            message = str(exc)
        except Exception:  # noqa: BLE001 - poisoned __str__
            try:
                message = repr(exc)
            except Exception:  # noqa: BLE001 - poisoned __repr__ too
                message = f"<unprintable {type(exc).__name__}>"
        try:
            formatted = "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            )
        except Exception:  # noqa: BLE001 - rendering touches the payload
            formatted = ""
        return cls(
            type=type(exc).__name__, message=message, traceback=formatted
        )


@dataclasses.dataclass(frozen=True)
class JobResult:
    """One job's outcome: a value or a captured error, never an exception.

    Attributes:
        index: The job's position in the submitted item sequence.
        value: The job function's return value (``None`` on error).
        error: The captured worker-side failure (``None`` on success).
        seed: The deterministic seed the job was derived (always set).
        wall_time_s: Worker-side execution time of this job alone.
    """

    index: int
    value: Any = None
    error: JobError | None = None
    seed: int = 0
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the job returned normally."""
        return self.error is None

    def unwrap(self) -> Any:
        """The value, or raise the captured error as an ExecutionError."""
        if self.error is not None:
            raise self.error.to_exception()
        return self.value


@dataclasses.dataclass(frozen=True)
class ProgressEvent:
    """One observable step of a runtime map.

    ``kind`` is ``"completed"`` (job finished, see ``result.ok`` for
    success), ``"cancelled"`` (the token tripped; no further jobs will
    run) or ``"finished"`` (the map is exhausted).
    """

    kind: str
    done: int
    total: int
    result: JobResult | None = None


# -- worker-side job execution ------------------------------------------------
#
# Top-level (hence picklable) so ProcessBackend can ship jobs to workers
# under both fork and spawn.


def _run_job(
    fn: Callable[..., Any],
    seeded: bool,
    job: tuple[int, int, Any],
    deadline_s: float | None = None,
) -> JobResult:
    """Execute one ``(index, seed, item)`` job; capture its error.

    ``deadline_s`` is a cooperative per-job wall-clock budget: the job
    runs to completion and a breach is reported afterwards as a
    :class:`~repro.errors.DeadlineExceededError`-typed error result, so
    the check is deterministic rather than a race with a timer thread.
    """
    index, seed, item = job
    started = time.perf_counter()
    try:
        value = fn(item, seed) if seeded else fn(item)
    except Exception as exc:  # noqa: BLE001 - captured, reported upstream
        return JobResult(
            index=index,
            error=JobError.from_exception(exc),
            seed=seed,
            wall_time_s=time.perf_counter() - started,
        )
    elapsed = time.perf_counter() - started
    if deadline_s is not None and elapsed > deadline_s:
        breach = DeadlineExceededError(
            f"job {index} exceeded its {deadline_s:g}s deadline "
            f"({elapsed:.3f}s)"
        )
        return JobResult(
            index=index,
            error=JobError.from_exception(breach),
            seed=seed,
            wall_time_s=elapsed,
        )
    return JobResult(index=index, value=value, seed=seed, wall_time_s=elapsed)


class JobFuture:
    """A single in-flight job, resolvable to one :class:`JobResult`.

    The async-friendly sibling of :meth:`Runtime.map`: where ``map``
    drains a whole workload, a future lets a scheduler keep many
    independent jobs in flight on one shared backend and harvest each
    as it lands -- errors still arrive as error-carrying results, never
    as raised exceptions (only infrastructure faults raise).
    """

    def __init__(self, future: "_futures.Future[JobResult]", index: int, seed: int) -> None:
        self._future = future
        self.index = index
        self.seed = seed

    def done(self) -> bool:
        """True once the job has finished (or was cancelled)."""
        return self._future.done()

    def cancel(self) -> bool:
        """Try to cancel; False if the job already started running."""
        return self._future.cancel()

    def result(self, timeout: float | None = None) -> JobResult:
        """Block for the job's :class:`JobResult` (cancelled jobs yield
        an error-carrying result rather than raising)."""
        try:
            return self._future.result(timeout=timeout)
        except _futures.CancelledError:
            error = JobError(type="CancelledError", message="job cancelled before start")
            return JobResult(index=self.index, value=None, error=error, seed=self.seed)

    def add_done_callback(self, callback: "Callable[[JobFuture], None]") -> None:
        """Run ``callback(self)`` when the job completes (or immediately
        if it already has)."""
        self._future.add_done_callback(lambda _f: callback(self))


class Runtime:
    """Seeded, observable execution over one backend.

    A runtime is cheap: it owns no workers itself (the backend does) and
    can be used as a context manager to shut the backend down::

        with Runtime(ProcessBackend(jobs=4), seed=7) as runtime:
            for result in runtime.map(execute, items):
                ...  # streams in completion order

    Args:
        backend: Where jobs run (default: a fresh :class:`SerialBackend`).
        seed: Root seed all per-job seeds derive from.
        on_event: Progress callback receiving :class:`ProgressEvent`.
        cancel: Shared cancellation token (one is created if omitted).
        deadline_s: Cooperative per-job wall-clock budget applied by
            :meth:`map` and :meth:`submit_job`; a job that runs longer
            yields a ``DeadlineExceededError``-typed error result.
    """

    def __init__(
        self,
        backend: ExecutionBackend | None = None,
        *,
        seed: int = 1,
        on_event: Callable[[ProgressEvent], None] | None = None,
        cancel: CancelToken | None = None,
        deadline_s: float | None = None,
    ) -> None:
        if deadline_s is not None and deadline_s <= 0:
            raise ValidationError(
                f"deadline_s must be positive, got {deadline_s}"
            )
        self.backend = backend if backend is not None else SerialBackend()
        self.seed = seed
        self.cancel = cancel if cancel is not None else CancelToken()
        self.deadline_s = deadline_s
        self._on_event = on_event

    # -- events ------------------------------------------------------------

    def _emit(self, kind: str, done: int, total: int, result: JobResult | None = None) -> None:
        if self._on_event is not None:
            self._on_event(
                ProgressEvent(kind=kind, done=done, total=total, result=result)
            )

    # -- execution ---------------------------------------------------------

    def map(
        self,
        fn: Callable[..., Any],
        items: Iterable[Any],
        *,
        seeded: bool = False,
    ) -> Iterator[JobResult]:
        """Run ``fn`` over ``items``; yield :class:`JobResult` as completed.

        ``fn`` is called as ``fn(item)`` -- or ``fn(item, seed)`` with
        the job's derived seed when ``seeded=True``.  Each item is one
        backend task.  On a process backend both ``fn`` and the items
        must pickle.  Failures arrive as error-carrying results; this
        iterator itself only raises for infrastructure faults (e.g. a
        broken worker pool).
        """
        jobs = [
            (index, derive_seed(self.seed, index), item)
            for index, item in enumerate(items)
        ]
        total = len(jobs)
        done = 0
        if self.cancel.cancelled:
            self._emit("cancelled", done, total)
            return
        # partial over the module-level _run_job pickles, so one shape
        # serves the in-process and the process backends alike.
        stream = self.backend.map_unordered(
            functools.partial(_run_job, fn, seeded, deadline_s=self.deadline_s),
            jobs,
        )
        try:
            for _position, result in stream:
                done += 1
                self._emit("completed", done, total, result)
                yield result
                if self.cancel.cancelled:
                    self._emit("cancelled", done, total)
                    return
        finally:
            stream.close()
        self._emit("finished", done, total)

    def submit_job(
        self,
        fn: Callable[..., Any],
        item: Any,
        *,
        index: int = 0,
        seeded: bool = False,
    ) -> JobFuture:
        """Submit one job; return a :class:`JobFuture` immediately.

        The job runs through the same worker-side shape as :meth:`map`
        (``_run_job``), so seeding and error capture are identical --
        ``index`` stands in for the position :meth:`map` would have
        assigned, and the seed derives from it.
        """
        seed = derive_seed(self.seed, index)
        future = self.backend.submit(
            _run_job, fn, seeded, (index, seed, item), self.deadline_s
        )
        return JobFuture(future, index, seed)

    def run(
        self,
        fn: Callable[..., Any],
        items: Iterable[Any],
        *,
        seeded: bool = False,
    ) -> list[JobResult]:
        """Like :meth:`map` but collected and ordered by job index."""
        return sorted(
            self.map(fn, items, seeded=seeded),
            key=lambda result: result.index,
        )

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Shut the backend down (idempotent)."""
        self.backend.shutdown(wait=wait, cancel_pending=not wait)

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


__all__ = [
    "CancelToken",
    "JobError",
    "JobFuture",
    "JobResult",
    "MAX_SEED",
    "ProgressEvent",
    "Runtime",
    "derive_seed",
]
