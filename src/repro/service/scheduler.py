"""The sharded, work-stealing scheduler behind the campaign daemon.

A :class:`Scheduler` owns a small pool of worker threads and a fixed
number of **shards** (independent work deques).  Each accepted
:class:`Submission` is split, in input order, into work units of
``unit_size`` variants, which are dealt round-robin across the shards;
every worker drains its home shard first and **steals** from the
richest other shard when home runs dry, so one huge submission cannot
starve a small one that landed on another shard.

Results stream: each executed (or memo-served) variant is pushed onto
its submission's event queue the moment it lands, so the daemon can
forward outcomes to a waiting client incrementally.  Each variant runs
through :func:`~repro.engine.campaign.execute_memoised`, the engine's
one memo lookup -> checked execution -> memo record sequence, so a
variant whose execution raises becomes a tagged ``ERROR`` outcome,
never a dead worker.

Shards carry **health**: every fresh execution feeds its shard's
consecutive-failure counter, and a shard that fails ``failure_threshold``
times in a row is marked unhealthy -- its queued units are redistributed
to the healthy shards and new submissions stop dealing to it until a
success on that shard heals it.  The last healthy shard is never marked,
so the scheduler always keeps accepting work.

Cancellation composes through :meth:`~repro.runtime.CancelToken.child`:
each submission gets a child of the scheduler's token, so cancelling one
submission (client disconnect, explicit ``cancel`` op) skips its
remaining variants while the daemon and its other submissions keep
running, and scheduler shutdown cancels everything at once.
"""

from __future__ import annotations

import collections
import itertools
import logging
import queue
import threading
import time
from typing import Any, Iterable, Sequence

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

#: Default variants per work unit (the stealing granularity).
DEFAULT_UNIT_SIZE = 4

#: Consecutive fresh failures before a shard is marked unhealthy.
DEFAULT_FAILURE_THRESHOLD = 3


class Submission:
    """One accepted batch of variants, with streaming result delivery.

    Consumers read :meth:`events`: ``("outcome", index, outcome)`` per
    variant as it lands (input index, so clients can restore submission
    order), then one final ``("done", summary)``.  All counters are
    monotonic and lock-guarded; :meth:`wait` blocks until the final
    event has been emitted.
    """

    def __init__(
        self,
        submission_id: str,
        variants: Sequence[VariantSpec],
        cancel: CancelToken,
    ) -> None:
        self.id = submission_id
        self.variants = tuple(variants)
        self.cancel = cancel
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
        self._done.set()
        self.queue.put(("done", None, self.summary()))


class Scheduler:
    """Shard-and-steal executor for daemon submissions.

    Args:
        memo: Optional :class:`~repro.engine.campaign.CampaignMemo`
            consulted before and fed after every execution.
        shards: Number of independent work deques (>= 1).
        workers: Worker threads (default: one per shard).
        unit_size: Variants per stealable work unit; a submission is
            cut into consecutive units of this size, in input order.
        registry: Scenario registry variants resolve against.
        cancel: Scheduler-wide cancellation token; each submission gets
            a :meth:`~repro.runtime.CancelToken.child` of it.
        failure_threshold: Consecutive fresh (non-memo) failures after
            which a shard is marked unhealthy and its queued units are
            redistributed to healthy shards.  The last healthy shard is
            never marked; a later success heals the shard.
        deadline_s: Scheduler-level wall-clock budget per variant; a
            variant's own ``deadline_s`` takes precedence.
    """

    def __init__(
        self,
        memo: CampaignMemo | None = None,
        *,
        shards: int = 2,
        workers: int | None = None,
        unit_size: int = DEFAULT_UNIT_SIZE,
        registry: ScenarioRegistry | None = None,
        cancel: CancelToken | None = None,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        deadline_s: float | None = None,
    ) -> None:
        if shards < 1:
            raise ValidationError(f"shards must be >= 1, got {shards}")
        if unit_size < 1:
            raise ValidationError(f"unit_size must be >= 1, got {unit_size}")
        if failure_threshold < 1:
            raise ValidationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
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
        self.unit_size = unit_size
        self.cancel = cancel if cancel is not None else CancelToken()
        self.failure_threshold = failure_threshold
        self._deques: list[collections.deque] = [
            collections.deque() for _ in range(shards)
        ]
        self._cond = threading.Condition()
        self._ids = itertools.count(1)
        self._shard_rr = itertools.count()
        self._submissions: "collections.OrderedDict[str, Submission]" = (
            collections.OrderedDict()
        )
        self._stolen = 0
        self._executed = 0
        self._consecutive_failures = [0] * shards
        self._unhealthy: set[int] = set()
        self._redistributed = 0
        self._stopping = False
        self._threads = [
            threading.Thread(
                target=self._worker, args=(i,), name=f"repro-sched-{i}", daemon=True
            )
            for i in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()
        self.cancel.on_cancel(self._wake_all)

    # -- submission --------------------------------------------------------

    def submit(self, variants: Iterable[VariantSpec]) -> Submission:
        """Accept a batch of variants; return its live :class:`Submission`.

        Work units are enqueued immediately (round-robin over shards);
        outcomes stream onto the submission's queue as workers get to
        them.  An empty batch finishes instantly.
        """
        variant_list = list(variants)
        submission = Submission(
            f"sub-{next(self._ids):04d}", variant_list, self.cancel.child()
        )
        with self._cond:
            if self._stopping:
                raise ValidationError("scheduler is shut down")
            self._submissions[submission.id] = submission
        if not variant_list:
            submission._finish()
            return submission
        jobs = tuple(enumerate(variant_list))
        units = [
            (submission, jobs[start : start + self.unit_size])
            for start in range(0, len(jobs), self.unit_size)
        ]
        with self._cond:
            healthy = [
                i for i in range(self.shards) if i not in self._unhealthy
            ] or list(range(self.shards))
            for unit in units:
                self._deques[
                    healthy[next(self._shard_rr) % len(healthy)]
                ].append(unit)
            self._cond.notify_all()
        return submission

    def get(self, submission_id: str) -> Submission:
        """Look up a live (or finished) submission by id.

        Raises:
            ValidationError: for an unknown id.
        """
        with self._cond:
            submission = self._submissions.get(submission_id)
        if submission is None:
            raise ValidationError(f"unknown submission {submission_id!r}")
        return submission

    def cancel_submission(self, submission_id: str) -> Submission:
        """Cancel one submission; its unexecuted variants are skipped."""
        submission = self.get(submission_id)
        submission.cancel.cancel()
        with self._cond:
            self._cond.notify_all()
        return submission

    # -- workers -----------------------------------------------------------

    def _wake_all(self) -> None:
        with self._cond:
            self._cond.notify_all()

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
                submission._deliver(index, self._run_one(variant, home))

    def _run_one(self, variant: VariantSpec, shard: int) -> VariantOutcome:
        """One variant through the engine, plus shard-health bookkeeping.

        Every fresh execution feeds the owning shard's health counter:
        memo hits are neutral, successes heal, failures accumulate
        towards :attr:`failure_threshold` (see :meth:`_note_result`).
        """
        outcome = execute_memoised(variant, self.config)
        if outcome.from_cache:
            return outcome
        if outcome.is_error:
            _log.warning("variant %s raised %s", variant.variant_id, outcome.notes)
        else:
            with self._cond:
                self._executed += 1
        self._note_result(shard, failed=outcome.is_error)
        return outcome

    def _note_result(self, shard: int, *, failed: bool) -> None:
        """Track one fresh execution against ``shard``'s health.

        ``failure_threshold`` consecutive failures mark the shard
        unhealthy: its queued units move to healthy shards (so work never
        strands behind a poisoned queue) and :meth:`submit` stops dealing
        to it.  The *last* healthy shard is never marked -- somebody has
        to keep accepting work -- and any later success heals the shard.
        """
        with self._cond:
            if not failed:
                self._consecutive_failures[shard] = 0
                if shard in self._unhealthy:
                    self._unhealthy.discard(shard)
                    _log.info("shard %d healed; dealing resumes", shard)
                return
            self._consecutive_failures[shard] += 1
            if (
                shard in self._unhealthy
                or self._consecutive_failures[shard] < self.failure_threshold
            ):
                return
            healthy = [
                i
                for i in range(self.shards)
                if i != shard and i not in self._unhealthy
            ]
            if not healthy:
                return
            self._unhealthy.add(shard)
            moved = 0
            while self._deques[shard]:
                unit = self._deques[shard].popleft()
                self._deques[healthy[moved % len(healthy)]].append(unit)
                moved += 1
            self._redistributed += moved
            _log.warning(
                "shard %d unhealthy after %d consecutive failures; "
                "redistributed %d queued unit(s)",
                shard,
                self._consecutive_failures[shard],
                moved,
            )
            self._cond.notify_all()

    # -- reporting / lifecycle ---------------------------------------------

    def status(self) -> dict[str, Any]:
        """Plain-data scheduler health for the ``status`` op and benches."""
        with self._cond:
            queued = sum(len(d) for d in self._deques)
            submissions = [s.summary() for s in self._submissions.values()]
            stolen = self._stolen
            executed = self._executed
            unhealthy = sorted(self._unhealthy)
            redistributed = self._redistributed
        active = sum(1 for s in submissions if not s["done"])
        return {
            "shards": self.shards,
            "workers": self.workers,
            "queued_units": queued,
            "active_submissions": active,
            "total_submissions": len(submissions),
            "executed": executed,
            "stolen_units": stolen,
            "unhealthy_shards": unhealthy,
            "redistributed_units": redistributed,
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
    "DEFAULT_FAILURE_THRESHOLD",
    "DEFAULT_UNIT_SIZE",
    "Scheduler",
    "Submission",
]
