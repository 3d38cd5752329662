"""The sharded, work-stealing scheduler behind the campaign daemon.

A :class:`Scheduler` owns a small pool of worker threads and a fixed
number of **shards** (independent work deques).  Each accepted
:class:`Submission` is split, in input order, into work units of
:data:`UNIT_SIZE` variants, which are dealt round-robin across the
shards; every worker drains its home shard first and **steals** from the
richest other shard when home runs dry, which balances load across the
workers.  Stealing is not fairness: units run in queue order, so a small
submission that lands behind a big one waits for most of it.

Results stream: each executed (or memo-served) variant is pushed onto
its submission's event queue the moment it lands, so the daemon can
forward outcomes to a waiting client incrementally.  Each variant runs
through :func:`~repro.engine.campaign.execute_memoised`, the engine's
one memo lookup -> checked execution -> memo record sequence, so a
variant whose execution raises becomes a tagged ``ERROR`` outcome,
never a dead worker.

The scheduler keeps only live work: a submission is forgotten the
moment its last variant is accounted for, so a long-lived daemon holds
no finished submission (or its variants).  Each submission has its own
:class:`~repro.runtime.CancelToken`: cancelling one (client disconnect,
explicit ``cancel`` op) skips its remaining variants while the daemon
and its other submissions keep running, and cancelling the scheduler's
token cancels every live submission at once.
"""

from __future__ import annotations

import collections
import itertools
import logging
import queue
import threading
import time
from typing import Any, Callable, Iterable, Sequence

from repro.engine.campaign import (
    CampaignConfig,
    CampaignMemo,
    VariantOutcome,
    execute_memoised,
)
from repro.engine.registry import ScenarioRegistry
from repro.engine.spec import VariantSpec
from repro.errors import ValidationError
from repro.runtime import CancelToken

_log = logging.getLogger("repro.service")

#: Variants per work unit (the stealing granularity).
UNIT_SIZE = 4


class Submission:
    """One accepted batch of variants, with streaming result delivery.

    Consumers read :meth:`events`: ``("outcome", index, outcome)`` per
    variant as it lands (input index, so clients can restore submission
    order), then one final ``("done", summary)``.  All counters are
    monotonic and lock-guarded; :meth:`wait` blocks until the final
    event has been emitted.  ``on_done`` is called once, just before
    the submission is marked done.
    """

    def __init__(
        self,
        submission_id: str,
        variants: Sequence[VariantSpec],
        on_done: Callable[["Submission"], None],
    ) -> None:
        self.id = submission_id
        self.variants = tuple(variants)
        self.cancel = CancelToken()
        self._on_done = on_done
        self.created_s = time.time()
        self.queue: "queue.Queue[tuple[str, Any, Any]]" = queue.Queue()
        self._lock = threading.Lock()
        self._done = threading.Event()
        self.completed = 0
        self.cached = 0
        self.errors = 0
        self.skipped = 0

    @property
    def total(self) -> int:
        """Number of variants in this submission."""
        return len(self.variants)

    @property
    def done(self) -> bool:
        """True once every variant is accounted for."""
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the submission finishes; True when it did."""
        return self._done.wait(timeout)

    def events(self) -> Iterable[tuple[str, Any, Any]]:
        """Yield streamed events until (and including) the ``done`` one."""
        while True:
            event = self.queue.get()
            yield event
            if event[0] == "done":
                return

    def summary(self) -> dict[str, Any]:
        """Plain-data progress/result summary for status and ``done``."""
        with self._lock:
            return {
                "id": self.id,
                "total": self.total,
                "completed": self.completed,
                "cached": self.cached,
                "errors": self.errors,
                "skipped": self.skipped,
                "cancelled": self.cancel.cancelled,
                "done": self._done.is_set(),
            }

    # -- scheduler-side delivery -------------------------------------------

    def _deliver(self, index: int, outcome: VariantOutcome) -> None:
        with self._lock:
            self.completed += 1
            if outcome.from_cache:
                self.cached += 1
            if outcome.is_error:
                self.errors += 1
            finished = self.completed + self.skipped >= self.total
        self.queue.put(("outcome", index, outcome))
        if finished:
            self._finish()

    def _skip(self, count: int) -> None:
        if count <= 0:
            return
        with self._lock:
            self.skipped += count
            finished = self.completed + self.skipped >= self.total
        if finished:
            self._finish()

    def _finish(self) -> None:
        if self._done.is_set():
            return
        self._on_done(self)
        self._done.set()
        self.queue.put(("done", None, self.summary()))


class Scheduler:
    """Shard-and-steal executor for daemon submissions.

    Args:
        memo: Optional :class:`~repro.engine.campaign.CampaignMemo`
            consulted before and fed after every execution.
        shards: Number of independent work deques (>= 1).
        workers: Worker threads (default: one per shard).
        registry: Scenario registry variants resolve against.
        cancel: Scheduler-wide cancellation token; cancelling it
            cancels every live submission and stops the workers.
        deadline_s: Scheduler-level wall-clock budget per variant; a
            variant's own ``deadline_s`` takes precedence.
    """

    def __init__(
        self,
        memo: CampaignMemo | None = None,
        *,
        shards: int = 2,
        workers: int | None = None,
        registry: ScenarioRegistry | None = None,
        cancel: CancelToken | None = None,
        deadline_s: float | None = None,
    ) -> None:
        if shards < 1:
            raise ValidationError(f"shards must be >= 1, got {shards}")
        #: The engine options every variant runs under, validated once.
        self.config = CampaignConfig(
            registry=registry,
            memo=memo,
            deadline_s=deadline_s,
            on_error="record",
        )
        self.shards = shards
        self.workers = workers if workers is not None else shards
        if self.workers < 1:
            raise ValidationError(f"workers must be >= 1, got {self.workers}")
        self.cancel = cancel if cancel is not None else CancelToken()
        self._deques: list[collections.deque] = [
            collections.deque() for _ in range(shards)
        ]
        self._cond = threading.Condition()
        self._shard_rr = itertools.count()
        #: Live submissions by id; a submission leaves when it finishes.
        self._submissions: dict[str, Submission] = {}
        self._submitted = 0
        self._stolen = 0
        self._executed = 0
        self._stopping = False
        self._threads = [
            threading.Thread(
                target=self._worker, args=(i,), name=f"repro-sched-{i}", daemon=True
            )
            for i in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()
        self.cancel.on_cancel(self._cancel_all)

    # -- submission --------------------------------------------------------

    def submit(self, variants: Iterable[VariantSpec]) -> Submission:
        """Accept a batch of variants; return its live :class:`Submission`.

        Work units are enqueued immediately (round-robin over shards);
        outcomes stream onto the submission's queue as workers get to
        them.  An empty batch finishes instantly.
        """
        variant_list = list(variants)
        jobs = tuple(enumerate(variant_list))
        with self._cond:
            if self._stopping:
                raise ValidationError("scheduler is shut down")
            self._submitted += 1
            submission = Submission(
                f"sub-{self._submitted:04d}", variant_list, self._forget
            )
            self._submissions[submission.id] = submission
            if self.cancel.cancelled:
                submission.cancel.cancel()
            for start in range(0, len(jobs), UNIT_SIZE):
                self._deques[next(self._shard_rr) % self.shards].append(
                    (submission, jobs[start : start + UNIT_SIZE])
                )
            self._cond.notify_all()
        if not jobs:
            submission._finish()
        return submission

    def get(self, submission_id: str) -> Submission:
        """Look up a live submission by id.

        Raises:
            ValidationError: for an unknown or finished id.
        """
        with self._cond:
            submission = self._submissions.get(submission_id)
        if submission is None:
            raise ValidationError(f"unknown submission {submission_id!r}")
        return submission

    def cancel_submission(self, submission_id: str) -> Submission:
        """Cancel one live submission; its unexecuted variants are skipped."""
        submission = self.get(submission_id)
        submission.cancel.cancel()
        return submission

    def _forget(self, submission: Submission) -> None:
        with self._cond:
            del self._submissions[submission.id]

    def _cancel_all(self) -> None:
        with self._cond:
            for submission in self._submissions.values():
                submission.cancel.cancel()
            self._cond.notify_all()

    # -- workers -----------------------------------------------------------

    def _take_unit(self, home: int):
        """One unit from the home shard, else stolen from the richest.

        Returns ``None`` when the scheduler is cancelled, or when it is
        stopping and every shard is empty (a graceful shutdown drains
        queued units first).  Must be called with the condition held.
        """
        while True:
            if self.cancel.cancelled:
                return None
            if self._deques[home]:
                return self._deques[home].popleft()
            richest = max(
                (i for i in range(self.shards) if i != home),
                key=lambda i: len(self._deques[i]),
                default=None,
            )
            if richest is not None and self._deques[richest]:
                self._stolen += 1
                # Steal from the tail: the head is what the victim's own
                # worker touches next, so tail-stealing minimises contention
                # on the hot end of the deque.
                return self._deques[richest].pop()
            if self._stopping:
                return None
            self._cond.wait(timeout=0.5)

    def _worker(self, home: int) -> None:
        home %= self.shards
        while True:
            with self._cond:
                unit = self._take_unit(home)
            if unit is None:
                return
            submission, jobs = unit
            if submission.cancel.cancelled:
                submission._skip(len(jobs))
                continue
            for index, variant in jobs:
                if submission.cancel.cancelled:
                    submission._skip(1)
                    continue
                submission._deliver(index, self._run_one(variant))

    def _run_one(self, variant: VariantSpec) -> VariantOutcome:
        """One variant through the engine; fresh successes are counted."""
        outcome = execute_memoised(variant, self.config)
        if outcome.from_cache:
            return outcome
        if outcome.is_error:
            _log.warning("variant %s raised %s", variant.variant_id, outcome.notes)
        else:
            with self._cond:
                self._executed += 1
        return outcome

    # -- reporting / lifecycle ---------------------------------------------

    def status(self) -> dict[str, Any]:
        """Plain-data scheduler state for the ``status`` op and benches.

        ``submissions`` lists the live ones only; ``total_submissions``
        counts every submission accepted since start.
        """
        with self._cond:
            queued = sum(len(d) for d in self._deques)
            submissions = [s.summary() for s in self._submissions.values()]
            submitted = self._submitted
            stolen = self._stolen
            executed = self._executed
        return {
            "shards": self.shards,
            "workers": self.workers,
            "queued_units": queued,
            "active_submissions": len(submissions),
            "total_submissions": submitted,
            "executed": executed,
            "stolen_units": stolen,
            "submissions": submissions,
        }

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers (idempotent).  ``wait=False`` abandons queued
        units; in-flight variants still finish (threads are daemonic)."""
        with self._cond:
            self._stopping = True
            if not wait:
                for shard in self._deques:
                    shard.clear()
            self._cond.notify_all()
        if wait:
            for thread in self._threads:
                thread.join(timeout=30.0)

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


__all__ = [
    "Scheduler",
    "Submission",
    "UNIT_SIZE",
]
