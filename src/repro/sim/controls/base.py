"""Security-control framework of the simulated SUT.

Attack descriptions name their *Expected Measures* ("Message counter for
broken messages", "Check received vehicles electronic ID with list of
allowed IDs"); in the simulator each measure is a
:class:`SecurityControl` that inspects incoming messages and returns a
:class:`Decision`.  Controls are stacked in a :class:`ControlPipeline` in
front of an ECU: the first denial wins, every denial is published as a
``control.detection`` event (the "dedicated log files" of §III-C) and
recorded in the pipeline's detection log, which test oracles read to
decide the *Attack Fails* criteria.
"""

from __future__ import annotations

import abc
from array import array
from itertools import chain, repeat
from typing import NamedTuple

from repro.sim.clock import SimClock
from repro.sim.events import EventBus
from repro.sim.network import Message


class Decision(NamedTuple):
    """The verdict of one control over one message.

    A ``NamedTuple`` rather than a frozen dataclass: decisions are
    allocated on the per-message admit path (one per denial under a
    flood), and tuple construction skips the dataclass ``__init__``
    overhead while keeping immutability and field names.

    Attributes:
        allowed: True to pass the message on.
        control: Name of the deciding control (empty for the implicit
            "no control objected" pass).
        reason: Denial reason / pass note, human-readable.
    """

    allowed: bool
    control: str = ""
    reason: str = ""

    @classmethod
    def passed(cls, control: str = "", reason: str = "") -> "Decision":
        """An allow decision.

        Controls on the message hot path should prefer their pre-built
        :attr:`SecurityControl.pass_decision` -- a ``Decision`` is
        immutable, so one allow verdict per control serves every message
        instead of allocating one per inspection.
        """
        return cls(allowed=True, control=control, reason=reason)

    @classmethod
    def denied(cls, control: str, reason: str) -> "Decision":
        """A deny decision; the reason lands in the detection log."""
        return cls(allowed=False, control=control, reason=reason)


class DetectionRecord(NamedTuple):
    """One detection-log entry (a denied message).

    A ``NamedTuple`` for the same reason as :class:`Decision`: a
    protected ECU under a flood appends one record per denied packet.
    """

    time: float
    control: str
    reason: str
    message_kind: str
    sender: str


class SecurityControl(abc.ABC):
    """Base class for all security controls.

    Subclasses implement :meth:`inspect`; they may keep per-sender state
    (counters, rate windows, replay caches) -- one control instance guards
    one ECU, so state is per protection point, as in a real SUT.

    ``__slots__``-based (as are the built-in subclasses): ``inspect``
    runs once per delivered message per ECU, where slot attribute access
    is measurably cheaper than a ``__dict__`` walk.  Subclasses that
    declare no ``__slots__`` of their own still work (they just carry a
    ``__dict__`` for their extra attributes).
    """

    __slots__ = ("name", "pass_decision")

    def __init__(self, name: str) -> None:
        self.name = name
        #: Reusable allow verdict (immutable; one instance per control).
        self.pass_decision = Decision.passed(name)

    @abc.abstractmethod
    def inspect(self, message: Message, now: float) -> Decision:
        """Inspect a message at time ``now`` and allow or deny it."""

    def standing_denial(self, sender: str) -> tuple[float, Decision] | None:
        """``(until, decision)`` promises that until ``until``,
        :meth:`inspect` of any message from ``sender`` returns
        ``decision`` and changes no state (so a flood train may deny in
        bulk); ``None``, the default, promises nothing."""
        return None

    def reset(self) -> None:
        """Clear any per-sender state (between test executions)."""


#: The implicit "no control objected" verdict (immutable, shared).
_PIPELINE_PASS = Decision.passed()

#: Stand-in for the last run of an empty log: matches no denial.
_NO_RUN = (None,) * 5


def expand_runs(runs: tuple[tuple, ...]):
    """The plain rows of run-length ``runs``, one per denial, in order."""
    return chain.from_iterable(
        zip(times, repeat(name), repeat(reason), repeat(kind), repeat(sender))
        for times, name, reason, kind, sender in runs
    )


class ControlPipeline:
    """An ordered stack of controls guarding one ECU.

    The pipeline is also the ECU's intrusion log: every denial is recorded
    and published on the event bus under
    ``control.detection.<ecu>`` so oracles and the safety monitor can react.
    """

    __slots__ = (
        "ecu_name",
        "_clock",
        "_bus",
        "_controls",
        "_runs",
        "_counts",
        "_detection_topic",
        "_detection_probe",
    )

    def __init__(
        self,
        ecu_name: str,
        clock: SimClock,
        bus: EventBus,
        controls: list[SecurityControl] | None = None,
    ) -> None:
        self.ecu_name = ecu_name
        self._clock = clock
        self._bus = bus
        self._controls: list[SecurityControl] = list(controls or [])
        # Run-length log: ``(times, control, reason, kind, sender)``
        # runs, where ``times`` is an ``array('d')`` of the denial times
        # of consecutive denials sharing the other four fields.  A flood
        # denies the same sender's packets for the same reason back to
        # back, so it appends one float per packet instead of a row; the
        # rows are expanded on read (``detections``, ``expand_runs``)
        # while per-control totals are kept incrementally
        # (``control_counts``), so verdict derivation never walks tens
        # of thousands of rows.
        self._runs: list[tuple] = []
        self._counts: dict[str, int] = {}
        # Built once: a per-denial f-string means a fresh hash per publish.
        self._detection_topic = f"control.detection.{ecu_name}"
        # A flood denies tens of thousands of messages per variant; the
        # probe keeps each unobserved denial event at counter cost.
        self._detection_probe = bus.probe(self._detection_topic)

    def add(self, control: SecurityControl) -> "ControlPipeline":
        """Append a control; returns self for chaining."""
        self._controls.append(control)
        return self

    @property
    def controls(self) -> tuple[SecurityControl, ...]:
        """The stacked controls, in inspection order."""
        return tuple(self._controls)

    def admit(self, message: Message) -> Decision:
        """Run all controls; first denial wins and is logged."""
        controls = self._controls
        if not controls:
            return _PIPELINE_PASS
        now = self._clock.now
        for control in controls:
            decision = control.inspect(message, now)
            if not decision.allowed:
                name = decision.control or control.name
                reason = decision.reason
                kind = message.kind
                sender = message.sender
                self._run_times(name, reason, kind, sender).append(now)
                counts = self._counts
                counts[name] = counts.get(name, 0) + 1
                if self._detection_probe.active:
                    self._bus.publish(
                        now,
                        self._detection_topic,
                        self.ecu_name,
                        control=name,
                        reason=reason,
                        kind=kind,
                        sender=sender,
                    )
                else:
                    # Unobserved publish: one counter increment per denial.
                    topic_counts = self._detection_probe.counts
                    topic = self._detection_topic
                    try:
                        topic_counts[topic] += 1
                    except KeyError:
                        topic_counts[topic] = 1
                return decision
        return _PIPELINE_PASS

    def _run_times(
        self, name: str, reason: str, kind: str, sender: str
    ) -> array:
        """The times of the log's last run if it has these fields, else
        of a new run appended for them."""
        runs = self._runs
        run = runs[-1] if runs else _NO_RUN
        if (
            run[1] == name
            and run[2] == reason
            and run[3] == kind
            and run[4] == sender
        ):
            return run[0]
        times = array("d")
        runs.append((times, name, reason, kind, sender))
        return times

    def standing_denial(self, sender: str) -> tuple[float, Decision] | None:
        """The first control's :meth:`SecurityControl.standing_denial`
        (it decides alone while it denies); ``None`` when there is no
        control or denials are observed (each one is published)."""
        controls = self._controls
        if not controls or self._detection_probe.active:
            return None
        return controls[0].standing_denial(sender)

    def reject_many(
        self, times: list[float], decision: Decision, kind: str, sender: str
    ) -> None:
        """Log and count one denial per time, as :meth:`admit` would
        under a :meth:`standing_denial` (whose topic is unobserved)."""
        count = len(times)
        if not count:
            return
        name = decision.control or self._controls[0].name
        self._run_times(name, decision.reason, kind, sender).extend(times)
        counts = self._counts
        counts[name] = counts.get(name, 0) + count
        topic_counts = self._detection_probe.counts
        topic = self._detection_topic
        topic_counts[topic] = topic_counts.get(topic, 0) + count

    def runs(self) -> tuple[tuple, ...]:
        """A snapshot of the intrusion log, run-length: ``(times,
        control, reason, kind, sender)`` per run, each ``times`` a copy
        (one ``memcpy``), so later denials do not change it."""
        return tuple((run[0][:], *run[1:]) for run in self._runs)

    @property
    def detections(self) -> tuple[DetectionRecord, ...]:
        """The intrusion log of this ECU (named records, built on read)."""
        return tuple(map(DetectionRecord._make, expand_runs(self._runs)))

    @property
    def control_counts(self) -> dict[str, int]:
        """Denials per control name (maintained incrementally)."""
        return dict(self._counts)

    def detections_by(self, control_name: str) -> tuple[DetectionRecord, ...]:
        """Detections raised by one named control."""
        runs = [run for run in self._runs if run[1] == control_name]
        return tuple(map(DetectionRecord._make, expand_runs(runs)))

    def reset(self) -> None:
        """Clear control state and the detection log."""
        for control in self._controls:
            control.reset()
        self._runs.clear()
        self._counts.clear()


__all__ = [
    "ControlPipeline",
    "Decision",
    "DetectionRecord",
    "SecurityControl",
]
