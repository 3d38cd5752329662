"""The safety monitor: goal invariants and FTTI deadlines.

SaSeVAL's test verdicts hinge on whether an attack violated a safety goal.
The monitor watches the running simulation and records
:class:`Violation` objects when

* a registered **invariant** (a predicate over the live SUT state, checked
  periodically) reports a violation -- e.g. "the vehicle is inside the
  construction zone while still in automated mode" (SG01), or
* an expected **reaction deadline** passes without the expected event --
  the FTTI notion of ISO 26262: "the counter measures of the SUT have a
  maximum time span to react and mitigate the imminent hazardous event".
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import EventBus

#: An invariant check: returns None when satisfied, a detail string when
#: violated.
InvariantCheck = Callable[[], str | None]

#: A multi-goal check: returns the ``(goal_id, detail)`` pairs violated
#: now, in recording order (empty when every goal it guards holds).
MultiGoalCheck = Callable[[], Iterable[tuple[str, str]]]

#: One registered invariant: the goal ids it guards, its check, and
#: whether that is a multi-goal check.
_Entry = tuple[tuple[str, ...], InvariantCheck | MultiGoalCheck, bool]


@dataclasses.dataclass(frozen=True)
class Violation:
    """One recorded safety-goal violation."""

    time: float
    goal_id: str
    detail: str


class SafetyMonitor:
    """Watches safety goals over a running simulation."""

    def __init__(
        self, clock: SimClock, bus: EventBus, check_period_ms: float = 50.0
    ) -> None:
        if check_period_ms <= 0:
            raise SimulationError("check period must be positive")
        self._clock = clock
        self._bus = bus
        self.check_period_ms = check_period_ms
        self._violations: list[Violation] = []
        self._violated_goals: set[str] = set()
        # Invariants registered at the same clock time share one periodic
        # sweep: registration time -> [(goal_ids, check, multi), ...].
        self._sweeps: dict[float, list[_Entry]] = {}

    # -- invariants ---------------------------------------------------------

    def add_invariant(
        self,
        goal_id: str | tuple[str, ...],
        check: InvariantCheck | MultiGoalCheck,
        until: float | None = None,
    ) -> None:
        """Register a periodic invariant for a safety goal.

        The first violation per goal is recorded (with its detail); later
        periods do not re-record it -- a violated goal stays violated for
        the rest of the run, matching the test-verdict semantics.  A
        check is not run again once every goal it guards is violated.

        ``goal_id`` may be a tuple of the goal ids one *multi-goal*
        check guards (:data:`MultiGoalCheck`): the check returns the
        ``(goal_id, detail)`` pairs violated now, naming goals of the
        tuple, and the monitor records each goal not yet violated, in
        the returned order.  The fleet scenario guards SG01 for a whole
        convoy this way, with ``("SG01", "SG01:ego-1", ...)``: one check
        visits only the vehicles inside the construction zone and
        returns ``("SG01", detail)`` then ``("SG01:<vehicle>", detail)``
        per vehicle violating it -- what one aggregate and one
        per-vehicle check per convoy member would record, at the cost of
        the zone's occupancy instead of the fleet's size.  Return a
        list, not a generator: the check's work belongs to its call.

        Unbounded invariants registered at the same clock time (the
        common case: a scenario installs all its goal checks during
        construction) share **one** periodic sweep that runs them in
        registration order -- a scenario's goal checks cost one
        scheduled event per period instead of one each.  Checks are
        read-only predicates over live SUT state, so batching them into
        a single event at the identical firing times cannot change what
        any check observes.  Bounded invariants (``until``) keep their
        own schedule, which stops exactly at ``until``.
        """
        multi = not isinstance(goal_id, str)
        goal_ids = goal_id if multi else (goal_id,)
        if until is not None:
            entry = [(goal_ids, check, multi)]

            def run_check() -> None:
                self._sweep(entry)

            self._clock.schedule_periodic(
                self.check_period_ms, run_check, until=until
            )
            return
        entries = self._sweeps.get(self._clock.now)
        if entries is None:
            entries = []
            self._sweeps[self._clock.now] = entries
            self._clock.schedule_periodic(
                self.check_period_ms,
                lambda entries=entries: self._sweep(entries),
            )
        entries.append((goal_ids, check, multi))

    def _sweep(self, entries: list[_Entry]) -> None:
        violated = self._violated_goals
        for goal_ids, check, multi in entries:
            # The first-id test settles the common case without a call.
            if goal_ids[0] in violated and violated.issuperset(goal_ids):
                continue
            if multi:
                for goal_id, detail in check():
                    if goal_id not in violated:
                        self._record(goal_id, detail)
            else:
                detail = check()
                if detail is not None:
                    self._record(goal_ids[0], detail)

    # -- FTTI deadlines -------------------------------------------------------

    def expect_event_within(
        self,
        goal_id: str,
        topic: str,
        deadline_ms: float,
        description: str = "",
    ) -> None:
        """Require an event under ``topic`` within ``deadline_ms`` from now.

        If no matching event is published before the deadline, the goal is
        violated ("reaction not within the FTTI").

        The deadline check reads the event trace, so ``topic`` is
        registered for retention -- the scenario should additionally
        list it in its ``RETAINED_TOPICS`` (retention starts at
        registration; events published earlier in the same millisecond
        are only covered by a construction-time registration).
        """
        if deadline_ms <= 0:
            raise SimulationError("deadline must be positive")
        self._bus.retain(topic)
        registered_at = self._clock.now

        def check_deadline() -> None:
            if goal_id in self._violated_goals:
                return
            for event in self._bus.events(topic):
                if event.time >= registered_at:
                    return  # reaction happened in time
            what = description or f"event {topic!r}"
            self._record(
                goal_id,
                f"{what} did not occur within {deadline_ms:.0f} ms "
                f"(FTTI expired at {registered_at + deadline_ms:.0f} ms)",
            )

        self._clock.schedule(deadline_ms, check_deadline)

    # -- results ---------------------------------------------------------------

    def _record(self, goal_id: str, detail: str) -> None:
        violation = Violation(
            time=self._clock.now, goal_id=goal_id, detail=detail
        )
        self._violations.append(violation)
        self._violated_goals.add(goal_id)
        self._bus.publish(
            self._clock.now,
            f"safety.violation.{goal_id}",
            "safety-monitor",
            detail=detail,
        )

    @property
    def violations(self) -> tuple[Violation, ...]:
        """All recorded violations, in time order."""
        return tuple(self._violations)

    def is_violated(self, goal_id: str) -> bool:
        """True when the goal was violated at any point of the run."""
        return goal_id in self._violated_goals

    def violated_goals(self) -> tuple[str, ...]:
        """Identifiers of all violated goals, sorted."""
        return tuple(sorted(self._violated_goals))

    @property
    def all_goals_held(self) -> bool:
        """True when no violation was recorded."""
        return not self._violations


__all__ = [
    "InvariantCheck",
    "MultiGoalCheck",
    "SafetyMonitor",
    "Violation",
]
