"""The unified discrete-event kernel every scenario builds on.

The seed scenarios (`ConstructionSiteScenario`, `KeylessEntryScenario`)
each wired up their own :class:`~repro.sim.clock.SimClock`,
:class:`~repro.sim.events.EventBus`, :class:`~repro.sim.crypto.KeyStore`
and channels by hand.  :class:`SimKernel` bundles that substrate once:
one clock, one bus, one keystore, an optional road world, and a named
registry of communication media (V2X radio, BLE link, CAN bus -- anything
satisfying :class:`~repro.sim.network.Medium`).

:class:`KernelScenario` is the base class for SUT assemblies: it owns the
kernel, validates the deployed-control set, and provides the single
``run()`` implementation that advances the kernel and collects a
:class:`ScenarioResult`.  Subclasses only declare *what* to assemble
(components, controls, safety-goal checks) -- the event-loop mechanics
live here, which is what lets the campaign runner treat every scenario
uniformly.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator, Mapping
from typing import Any

from repro.errors import SimulationError
from repro.sim.can import CanBus
from repro.sim.clock import SimClock
from repro.sim.controls.base import ControlPipeline, expand_runs
from repro.sim.crypto import KeyStore
from repro.sim.events import EventBus
from repro.sim.monitor import SafetyMonitor, Violation
from repro.sim.network import Channel, Medium, PropagationModel
from repro.sim.topology import Topology
from repro.sim.world import World


class _DetectionRecords(Mapping):
    """Read-only ``{ecu: rows}`` over run-length logs: one ECU's rows
    are expanded when they are read."""

    __slots__ = ("_runs",)

    def __init__(self, runs: dict[str, tuple[tuple, ...]]) -> None:
        self._runs = runs

    def __getitem__(self, ecu: str) -> tuple[tuple, ...]:
        return tuple(expand_runs(self._runs[ecu]))

    def __iter__(self) -> Iterator[str]:
        return iter(self._runs)

    def __len__(self) -> int:
        return len(self._runs)


@dataclasses.dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one scenario run.

    Attributes:
        violations: Safety-goal violations recorded by the monitor.
        detection_runs: Per-ECU intrusion logs, run-length, as
            :meth:`~repro.sim.controls.base.ControlPipeline.runs`
            snapshots them at the end of the run: a scenario that runs
            on does not change the result.
        stats: Component statistics (channels, ECUs, locks).
        detection_control_counts: Per-ECU ``{control: denial count}``
            maps, kept incrementally by the pipelines; every count the
            result reports reads these, never the rows.
    """

    violations: tuple[Violation, ...]
    detection_runs: dict[str, tuple[tuple, ...]]
    stats: dict[str, Any]
    detection_control_counts: dict[str, dict[str, int]]

    @property
    def detection_records(self) -> Mapping[str, tuple[tuple, ...]]:
        """The full intrusion logs per ECU, read-only.  Rows are tuples
        in :class:`~repro.sim.controls.base.DetectionRecord` field
        order, expanded from the runs when one ECU's log is read."""
        return _DetectionRecords(self.detection_runs)

    def violated(self, goal_id: str) -> bool:
        """True when the named safety goal was violated."""
        return any(violation.goal_id == goal_id for violation in self.violations)

    @property
    def any_violation(self) -> bool:
        """True when any safety goal was violated."""
        return bool(self.violations)

    def violated_goals(self) -> tuple[str, ...]:
        """Identifiers of all violated goals, sorted and de-duplicated."""
        return tuple(sorted({v.goal_id for v in self.violations}))

    def detections_of(self, ecu: str, control: str | None = None) -> int:
        """Detection count of one ECU (optionally one control)."""
        counts = self.detection_control_counts.get(ecu, {})
        if control is None:
            return sum(counts.values())
        return counts.get(control, 0)

    def detection_counts(self) -> dict[str, int]:
        """Total detection-log size per ECU (plain data, picklable)."""
        return {
            ecu: sum(counts.values())
            for ecu, counts in self.detection_control_counts.items()
        }


class SimKernel:
    """One discrete-event substrate: clock, bus, keystore, world, media.

    Attributes:
        clock: The shared discrete-event scheduler.
        bus: The shared topic/trace event bus.
        keystore: The shared key material for message authentication.
        world: The 1-D road world, or ``None`` for scenarios without
            geometry (e.g. the keyless opener).
        media: All registered communication media by name.
    """

    def __init__(self, road_length_m: float | None = None) -> None:
        self.clock = SimClock()
        self.bus = EventBus()
        self.keystore = KeyStore()
        self.world: World | None = (
            World(road_length_m) if road_length_m is not None else None
        )
        self.topology: Topology | None = None
        self.media: dict[str, Medium] = {}

    # -- topology ------------------------------------------------------------

    def create_topology(self) -> Topology:
        """Create (once) the spatial actor topology over this world.

        Raises:
            SimulationError: without a world (no geometry to place
                actors on) or when a topology already exists.
        """
        if self.world is None:
            raise SimulationError(
                "kernel has no world; pass road_length_m to place actors"
            )
        if self.topology is not None:
            raise SimulationError("kernel topology already created")
        self.topology = Topology(self.world)
        return self.topology

    # -- media --------------------------------------------------------------

    def add_medium(self, medium: Medium) -> Medium:
        """Register an externally constructed medium under its name."""
        if medium.name in self.media:
            raise SimulationError(f"medium {medium.name!r} already registered")
        self.media[medium.name] = medium
        return medium

    def channel(
        self,
        name: str,
        latency_ms: float = 1.0,
        bandwidth_per_ms: float | None = None,
        propagation: PropagationModel | None = None,
    ) -> Channel:
        """Create and register a broadcast :class:`Channel` (V2X, BLE).

        ``propagation`` gates delivery (default: global broadcast); pass
        a :class:`~repro.sim.topology.RangePropagation` over
        :attr:`topology` for range-limited radio.
        """
        return self.add_medium(
            Channel(
                name,
                self.clock,
                self.bus,
                latency_ms=latency_ms,
                bandwidth_per_ms=bandwidth_per_ms,
                propagation=propagation,
            )
        )

    def can_bus(
        self,
        name: str,
        frame_time_ms: float = 0.5,
        queue_capacity: int = 256,
    ) -> CanBus:
        """Create and register a :class:`CanBus` segment."""
        return self.add_medium(
            CanBus(
                name,
                self.clock,
                self.bus,
                frame_time_ms=frame_time_ms,
                queue_capacity=queue_capacity,
            )
        )

    def medium(self, name: str) -> Medium:
        """Look up a registered medium by name."""
        if name not in self.media:
            raise SimulationError(f"unknown medium {name!r}")
        return self.media[name]

    def medium_stats(self) -> dict[str, dict[str, float]]:
        """Traffic statistics of every registered medium."""
        return {name: medium.stats for name, medium in self.media.items()}

    # -- monitoring ----------------------------------------------------------

    def monitor(self, check_period_ms: float = 50.0) -> SafetyMonitor:
        """Create a safety monitor on this kernel's clock and bus."""
        return SafetyMonitor(self.clock, self.bus, check_period_ms=check_period_ms)

    # -- execution -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in milliseconds."""
        return self.clock.now

    def run_until(self, time_ms: float) -> int:
        """Advance the kernel to ``time_ms``; returns executed event count."""
        return self.clock.run_until(time_ms)

    def run(self) -> int:
        """Drain the event queue completely."""
        return self.clock.run()


class KernelScenario:
    """Base class for SUT assemblies driven by the :class:`SimKernel`.

    Subclasses set :attr:`ALL_CONTROLS` (the control names their
    ``controls`` parameter accepts), :attr:`CONTROL_SCOPE` (used in the
    rejection message), :attr:`DEFAULT_DURATION_MS` and
    :attr:`RETAINED_TOPICS` (the event-topic prefixes their safety-goal
    checks read back from the trace -- the bus records nothing else),
    assemble their components in ``__init__``, and implement the
    collection hooks (:meth:`protected_pipelines`,
    :meth:`collect_stats`).

    Attributes:
        kernel: The owning :class:`SimKernel`.
        controls: The deployed security-control names.
        clock / bus / keystore / world: Aliases into the kernel (the
            attribute names every existing test and binding relies on).
    """

    #: Control names the scenario's ``controls`` parameter accepts.
    ALL_CONTROLS: frozenset[str] = frozenset()
    #: Scope label used in the unknown-control error ("UC1", "UC2").
    CONTROL_SCOPE: str = "scenario"
    #: Default ``run()`` horizon.
    DEFAULT_DURATION_MS: float = 10000.0
    #: Topic prefixes the scenario's verdict path reads from the trace;
    #: registered with ``bus.retain()`` at construction time (before any
    #: publish) so the trace holds every event those checks read.
    RETAINED_TOPICS: tuple[str, ...] = ()

    def __init__(
        self, kernel: SimKernel, controls: frozenset[str] | set[str]
    ) -> None:
        unknown = set(controls) - self.ALL_CONTROLS
        if unknown:
            raise SimulationError(
                f"unknown {self.CONTROL_SCOPE} controls: {sorted(unknown)}"
            )
        self.kernel = kernel
        self.controls = frozenset(controls)
        self.clock = kernel.clock
        self.bus = kernel.bus
        self.keystore = kernel.keystore
        self.world = kernel.world
        self.monitor: SafetyMonitor | None = None
        for topic in self.RETAINED_TOPICS:
            self.bus.retain(topic)

    # -- collection hooks ----------------------------------------------------

    def protected_pipelines(self) -> dict[str, ControlPipeline]:
        """The control pipeline of each protected ECU, by ECU name
        (subclass hook; none by default): :meth:`run` reads their
        per-control counts and snapshots their run-length logs."""
        return {}

    def collect_stats(self) -> dict[str, Any]:
        """Component statistics for the result (subclass hook)."""
        return self.kernel.medium_stats()

    # -- execution -----------------------------------------------------------

    def run(self, duration_ms: float | None = None) -> ScenarioResult:
        """Run the scenario and collect the result."""
        if self.monitor is None:
            raise SimulationError(
                f"{type(self).__name__} never created its safety monitor"
            )
        self.kernel.run_until(
            self.DEFAULT_DURATION_MS if duration_ms is None else duration_ms
        )
        pipelines = self.protected_pipelines()
        return ScenarioResult(
            violations=self.monitor.violations,
            detection_runs={
                ecu: pipeline.runs() for ecu, pipeline in pipelines.items()
            },
            stats=self.collect_stats(),
            detection_control_counts={
                ecu: pipeline.control_counts
                for ecu, pipeline in pipelines.items()
            },
        )


__all__ = [
    "KernelScenario",
    "ScenarioResult",
    "SimKernel",
]
