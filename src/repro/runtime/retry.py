"""Deterministic retry policies for transient job failures.

A :class:`RetryPolicy` decides *whether* a failed job deserves another
attempt (only error classes marked transient qualify) and *how long* to
back off before it (exponential growth with seeded jitter, so two runs
of the same campaign wait the same amounts in the same order).

This module is the one place in the tree allowed to spin a
``time.sleep``-based retry loop: rule ``REP011`` flags sleep-in-a-loop
anywhere outside ``repro.runtime``, funnelling every backoff decision
through a policy object that tests can inspect and replay.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import ValidationError
from repro.runtime.runtime import CancelToken, JobError, MAX_SEED, derive_seed

#: Error type names retried by default.  ``TransientError`` is the
#: explicit opt-in marker (subclass it, or raise it, to declare a
#: failure temporary); the rest are the OS-level failures that routinely
#: heal on a second attempt.  Matching is by *class name* because worker
#: errors cross process boundaries as :class:`JobError` text, not live
#: exception objects.
DEFAULT_TRANSIENT_TYPES: tuple[str, ...] = (
    "BrokenPipeError",
    "ConnectionError",
    "ConnectionResetError",
    "InterruptedError",
    "TimeoutError",
    "TransientError",
)


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to re-run a transiently failing job, and how fast.

    Attributes:
        max_attempts: Total attempts allowed, counting the first run.
        base_delay_s: Backoff before the first retry; doubles per retry.
        max_delay_s: Hard cap on any single backoff.
        jitter: Fraction of the capped delay added as seeded noise in
            ``[0, jitter)`` -- deterministic for a given ``seed`` and
            job key, unlike the random jitter most retry loops use.
        transient_types: Exception *class names* eligible for retry.
            Matching is exact on the unqualified name recorded in
            :class:`~repro.runtime.runtime.JobError.type`.
        seed: Root of the jitter derivation.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.1
    transient_types: tuple[str, ...] = field(
        default=DEFAULT_TRANSIENT_TYPES
    )
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValidationError("retry delays must be >= 0")
        if self.base_delay_s > self.max_delay_s:
            # The cap would silently shorten even the first backoff.
            raise ValidationError(
                f"base_delay_s ({self.base_delay_s}) must not exceed "
                f"max_delay_s ({self.max_delay_s})"
            )
        if not 0 <= self.jitter <= 1:
            raise ValidationError(
                f"jitter must be within [0, 1], got {self.jitter}"
            )

    def is_transient(self, error: JobError | str) -> bool:
        """Whether ``error`` (a JobError or a type name) may be retried."""
        name = error.type if isinstance(error, JobError) else error
        return name in self.transient_types

    def should_retry(self, error: JobError | str, attempt: int) -> bool:
        """Whether attempt ``attempt`` (1-based) failing with ``error``
        leaves budget for another try."""
        return attempt < self.max_attempts and self.is_transient(error)

    def delay_s(self, attempt: int, *parts: int | str) -> float:
        """Backoff before the attempt *after* ``attempt`` (1-based).

        Exponential in the attempt number, capped at ``max_delay_s``,
        plus jitter derived from ``(seed, attempt, *parts)`` -- pass the
        job's identity as ``parts`` so concurrent retries de-correlate
        without losing determinism.
        """
        if attempt < 1:
            raise ValidationError(f"attempt is 1-based, got {attempt}")
        delay = min(self.base_delay_s * (2 ** (attempt - 1)), self.max_delay_s)
        if self.jitter and delay:
            noise = derive_seed(self.seed, "retry-jitter", attempt, *parts)
            delay += delay * self.jitter * (noise / MAX_SEED)
        return delay

    def wait(
        self,
        attempt: int,
        *parts: int | str,
        cancel: CancelToken | None = None,
    ) -> float:
        """Sleep out the backoff for ``attempt``; returns the delay used.

        With a ``cancel`` token the wait doubles as a cancellation
        point: it returns as soon as the token fires.
        """
        delay = self.delay_s(attempt, *parts)
        if delay <= 0:
            return delay
        if cancel is not None:
            cancel.wait(delay)
        else:
            time.sleep(delay)
        return delay


__all__ = [
    "DEFAULT_TRANSIENT_TYPES",
    "RetryPolicy",
]
