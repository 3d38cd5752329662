"""The :class:`Runtime` facade: observable job execution.

Backends (:mod:`repro.runtime.backends`) answer *where* a call runs; this
module answers *how a workload runs well*, one job per backend task:

* **structured error capture** -- a job that raises yields a
  :class:`JobResult` carrying a :class:`JobError` (type, message,
  worker-side traceback) instead of crashing the whole fan-out;
* **progress events** -- each completion emits a :class:`ProgressEvent`
  to the ``on_event`` callback, so CLIs and campaign drivers can report
  long runs without polling;
* **cooperative cancellation** -- a shared :class:`CancelToken` stops
  dispatch between jobs and cancels whatever has not started, yielding
  the results already produced.

:func:`derive_seed` is the stable seed derivation the retry jitter, fault
plans and memo keys share.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import threading
import time
import traceback
from typing import Any, Callable, Iterable, Iterator

from repro.errors import ExecutionError
from repro.runtime.backends import ExecutionBackend, SerialBackend

#: Largest derived seed (63 bits: always a positive Python/NumPy-safe int).
MAX_SEED = (1 << 63) - 1


def derive_seed(root: int, *parts: Any) -> int:
    """Derive a stable seed from a root seed and identifying parts.

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
        wall_time_s: Worker-side execution time of this job alone.
    """

    index: int
    value: Any = None
    error: JobError | None = None
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


def _run_job(fn: Callable[[Any], Any], job: tuple[int, Any]) -> JobResult:
    """Execute one ``(index, item)`` job; capture its error."""
    index, item = job
    started = time.perf_counter()
    try:
        value = fn(item)
    except Exception as exc:  # noqa: BLE001 - captured, reported upstream
        return JobResult(
            index=index,
            error=JobError.from_exception(exc),
            wall_time_s=time.perf_counter() - started,
        )
    return JobResult(
        index=index, value=value, wall_time_s=time.perf_counter() - started
    )


class Runtime:
    """Observable execution over one backend.

    A runtime is cheap: it owns no workers itself (the backend does) and
    can be used as a context manager to shut the backend down::

        with Runtime(ProcessBackend(jobs=4)) as runtime:
            for result in runtime.map(execute, items):
                ...  # streams in completion order

    Args:
        backend: Where jobs run (default: a fresh :class:`SerialBackend`).
        on_event: Progress callback receiving :class:`ProgressEvent`.
        cancel: Shared cancellation token (one is created if omitted).
    """

    def __init__(
        self,
        backend: ExecutionBackend | None = None,
        *,
        on_event: Callable[[ProgressEvent], None] | None = None,
        cancel: CancelToken | None = None,
    ) -> None:
        self.backend = backend if backend is not None else SerialBackend()
        self.cancel = cancel if cancel is not None else CancelToken()
        self._on_event = on_event

    # -- events ------------------------------------------------------------

    def _emit(self, kind: str, done: int, total: int, result: JobResult | None = None) -> None:
        if self._on_event is not None:
            self._on_event(
                ProgressEvent(kind=kind, done=done, total=total, result=result)
            )

    # -- execution ---------------------------------------------------------

    def map(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> Iterator[JobResult]:
        """Run ``fn`` over ``items``; yield :class:`JobResult` as completed.

        ``fn`` is called as ``fn(item)``; each item is one backend task
        and each result carries the item's input position as ``index``.
        On a process backend both ``fn`` and the items must pickle.
        Failures arrive as error-carrying results; this iterator itself
        only raises for infrastructure faults (e.g. a broken worker pool).
        """
        jobs = list(enumerate(items))
        total = len(jobs)
        done = 0
        if self.cancel.cancelled:
            self._emit("cancelled", done, total)
            return
        # partial over the module-level _run_job pickles, so one shape
        # serves the in-process and the process backends alike.
        stream = self.backend.map_unordered(
            functools.partial(_run_job, fn), jobs
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
    "JobResult",
    "MAX_SEED",
    "ProgressEvent",
    "Runtime",
    "derive_seed",
]
