"""Tests for the unified simulation kernel and the Medium interface."""

import pytest

from repro.sim.kernel import KernelScenario, SimKernel
from repro.errors import SimulationError
from repro.sim.can import make_frame
from repro.sim.network import Medium
from repro.sim.scenarios import ConstructionSiteScenario, KeylessEntryScenario


class TestSimKernel:
    def test_bundles_clock_bus_keystore(self):
        kernel = SimKernel()
        assert kernel.now == 0.0
        assert kernel.world is None
        kernel.clock.schedule_at(5.0, lambda: None)
        assert kernel.run_until(10.0) == 1

    def test_world_is_optional(self):
        kernel = SimKernel(road_length_m=1000.0)
        assert kernel.world is not None
        assert kernel.world.road_length_m == 1000.0

    def test_create_topology_once_over_the_world(self):
        kernel = SimKernel(road_length_m=1000.0)
        topology = kernel.create_topology()
        assert kernel.topology is topology
        assert topology.world is kernel.world
        with pytest.raises(SimulationError, match="already created"):
            kernel.create_topology()

    def test_create_topology_needs_a_world(self):
        with pytest.raises(SimulationError, match="no world"):
            SimKernel().create_topology()

    def test_topology_schedules_nothing(self):
        # The topology moves nobody, so placing actors leaves the
        # event queue empty.
        kernel = SimKernel(road_length_m=1000.0)
        topology = kernel.create_topology()
        topology.add_stationary("RSU-A", 400.0, transmit_range_m=300.0)
        assert kernel.clock.pending == 0

    def test_channel_and_can_bus_register_as_media(self):
        kernel = SimKernel()
        v2x = kernel.channel("v2x", latency_ms=2.0)
        can = kernel.can_bus("body-can", frame_time_ms=1.0)
        assert kernel.medium("v2x") is v2x
        assert kernel.medium("body-can") is can
        assert set(kernel.media) == {"v2x", "body-can"}
        assert set(kernel.medium_stats()) == {"v2x", "body-can"}

    def test_duplicate_medium_name_rejected(self):
        kernel = SimKernel()
        kernel.channel("v2x")
        with pytest.raises(SimulationError, match="already registered"):
            kernel.channel("v2x")

    def test_unknown_medium_rejected(self):
        with pytest.raises(SimulationError, match="unknown medium"):
            SimKernel().medium("nope")

    def test_monitor_uses_kernel_clock_and_bus(self):
        kernel = SimKernel()
        monitor = kernel.monitor()
        monitor.add_invariant("SG01", lambda: "broken")
        kernel.run_until(100.0)
        assert monitor.is_violated("SG01")


class TestMediumProtocol:
    def test_channel_and_can_bus_satisfy_medium(self):
        kernel = SimKernel()
        assert isinstance(kernel.channel("c"), Medium)
        assert isinstance(kernel.can_bus("b"), Medium)

    def test_both_use_case_scenarios_expose_media(self):
        uc1 = ConstructionSiteScenario()
        uc2 = KeylessEntryScenario()
        assert isinstance(uc1.v2x, Medium)
        assert isinstance(uc2.ble, Medium)
        assert isinstance(uc2.can, Medium)
        assert set(uc1.kernel.media) == {"v2x", "v2x-remote"}
        assert set(uc2.kernel.media) == {"ble", "body-can"}

    def test_can_bus_tap_sees_frames_including_lost_ones(self):
        kernel = SimKernel()
        can = kernel.can_bus("c", frame_time_ms=1.0, queue_capacity=1)
        tapped = []
        can.tap(tapped.append)
        for index in range(3):
            can.send(make_frame("ecu", 0x100 + index))
        kernel.run()
        assert len(tapped) == 3  # taps see queue-overflow losses too
        assert can.stats["lost"] == 2
        assert can.stats["delivered"] == 1


class TestKernelScenario:
    def test_unknown_controls_rejected_with_scope(self):
        with pytest.raises(SimulationError, match="unknown UC1 controls"):
            ConstructionSiteScenario(controls={"no-such-control"})
        with pytest.raises(SimulationError, match="unknown UC2 controls"):
            KeylessEntryScenario(controls={"value-range"})

    def test_scenarios_share_one_kernel_substrate(self):
        scenario = ConstructionSiteScenario()
        assert scenario.clock is scenario.kernel.clock
        assert scenario.bus is scenario.kernel.bus
        assert scenario.keystore is scenario.kernel.keystore
        assert scenario.world is scenario.kernel.world

    def test_run_without_monitor_rejected(self):
        class Bare(KernelScenario):
            pass

        with pytest.raises(SimulationError, match="safety monitor"):
            Bare(SimKernel(), frozenset()).run(10.0)

    def test_default_durations(self):
        assert ConstructionSiteScenario.DEFAULT_DURATION_MS == 80000.0
        assert KeylessEntryScenario.DEFAULT_DURATION_MS == 20000.0

    def test_result_violated_goals_sorted_unique(self):
        kernel = SimKernel()

        class Tiny(KernelScenario):
            def __init__(self):
                super().__init__(kernel, frozenset())
                self.monitor = kernel.monitor()
                self.monitor.add_invariant("SG02", lambda: "b")
                self.monitor.add_invariant("SG01", lambda: "a")

        result = Tiny().run(100.0)
        assert result.violated_goals() == ("SG01", "SG02")
        assert result.any_violation

    def test_a_result_is_unchanged_when_its_scenario_runs_on(self):
        """The result snapshots the run-length logs: denials after
        ``run(t1)`` (extending the last run or starting new ones) do
        not show in the result taken at ``t1``."""
        from repro.sim.attacks import FloodingAttack

        scenario = ConstructionSiteScenario()
        FloodingAttack(
            "attacker", scenario.clock, scenario.v2x, kind="cam_message",
            interval_ms=0.5, duration_ms=3000.0, keystore=scenario.keystore,
        ).launch(100.0)
        first = scenario.run(1000.0)
        rows = first.detection_records["OBU"]
        counts = first.detection_counts()
        by_control = first.detections_of("OBU", "flooding-detector")
        assert rows and len(rows) == counts["OBU"] == by_control
        later = scenario.run(5000.0)
        assert later.detections_of("OBU") > counts["OBU"]
        assert first.detection_records["OBU"] == rows
        assert first.detection_counts() == counts
        assert first.detections_of("OBU", "flooding-detector") == by_control
        assert dict(first.detection_records) == {"OBU": rows}
