"""Tests for the safety monitor and the two scenario assemblies."""

import functools

import pytest

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import EventBus
from repro.sim.monitor import SafetyMonitor
from repro.sim.scenarios import (
    CONTROL_FLOOD,
    UC1_ALL_CONTROLS,
    UC2_ALL_CONTROLS,
    ConstructionSiteScenario,
    KeylessEntryScenario,
)


class TestSafetyMonitor:
    def test_invariant_violation_recorded_once(self):
        clock, bus = SimClock(), EventBus()
        monitor = SafetyMonitor(clock, bus, check_period_ms=10.0)
        state = {"bad": False}
        monitor.add_invariant(
            "SG01", lambda: "broken" if state["bad"] else None
        )
        clock.run_until(50.0)
        assert not monitor.violations
        state["bad"] = True
        clock.run_until(200.0)
        assert monitor.is_violated("SG01")
        assert len(monitor.violations) == 1  # not re-recorded per period
        assert bus.count("safety.violation.SG01") == 1

    def test_deadline_violated_when_event_missing(self):
        clock, bus = SimClock(), EventBus()
        monitor = SafetyMonitor(clock, bus)
        monitor.expect_event_within("SG04", "vehicle.handover", 100.0)
        clock.run_until(200.0)
        assert monitor.is_violated("SG04")

    def test_deadline_met(self):
        clock, bus = SimClock(), EventBus()
        monitor = SafetyMonitor(clock, bus)
        monitor.expect_event_within("SG04", "vehicle.handover", 100.0)
        clock.schedule_at(50.0, lambda: bus.publish(
            clock.now, "vehicle.handover", "vehicle"
        ))
        clock.run_until(200.0)
        assert not monitor.is_violated("SG04")

    def test_events_before_registration_do_not_count(self):
        clock, bus = SimClock(), EventBus()
        monitor = SafetyMonitor(clock, bus)
        bus.publish(0.0, "vehicle.handover", "vehicle")
        clock.run_until(10.0)
        monitor.expect_event_within("SG04", "vehicle.handover", 50.0)
        clock.run_until(100.0)
        assert monitor.is_violated("SG04")

    def test_violated_goals_sorted(self):
        clock, bus = SimClock(), EventBus()
        monitor = SafetyMonitor(clock, bus, check_period_ms=10.0)
        monitor.add_invariant("SG02", lambda: "x")
        monitor.add_invariant("SG01", lambda: "y")
        clock.run_until(20.0)
        assert monitor.violated_goals() == ("SG01", "SG02")

    @pytest.mark.parametrize("until", [None, 500.0])
    def test_multi_goal_check_records_like_single_goal_checks(self, until):
        bad_from = {"v1": 40.0, "v2": 40.0, "v3": 70.0}

        def violations(multi_goal):
            clock, bus = SimClock(), EventBus()
            monitor = SafetyMonitor(clock, bus, check_period_ms=10.0)
            calls = []

            def detail(name):
                calls.append(clock.now)
                if clock.now >= bad_from[name]:
                    return f"{name} bad at {clock.now:.0f}"
                return None

            if multi_goal:
                def check():
                    pairs = []
                    for name in bad_from:
                        found = detail(name)
                        if found is not None:
                            pairs.append(("SG01", found))
                            pairs.append((f"SG01:{name}", found))
                    return pairs

                monitor.add_invariant(
                    ("SG01", *(f"SG01:{name}" for name in bad_from)),
                    check,
                    until,
                )
            else:
                for name in bad_from:
                    check = functools.partial(detail, name)
                    monitor.add_invariant("SG01", check, until)
                    monitor.add_invariant(f"SG01:{name}", check, until)
            clock.run_until(200.0)
            return monitor.violations, calls

        multi, multi_calls = violations(multi_goal=True)
        single, __ = violations(multi_goal=False)
        assert multi == single
        # Not run again once every goal it guards fell (at 70 ms).
        assert max(multi_calls) == 70.0
        assert [(v.time, v.goal_id) for v in multi] == [
            (40.0, "SG01"), (40.0, "SG01:v1"), (40.0, "SG01:v2"),
            (70.0, "SG01:v3"),
        ]
        assert multi[0].detail == "v1 bad at 40"

    def test_parameter_validation(self):
        clock, bus = SimClock(), EventBus()
        with pytest.raises(SimulationError):
            SafetyMonitor(clock, bus, check_period_ms=0)
        monitor = SafetyMonitor(clock, bus)
        with pytest.raises(SimulationError):
            monitor.expect_event_within("SG01", "t", 0)


class TestConstructionSiteScenario:
    def test_unattacked_run_holds_all_goals(self):
        scenario = ConstructionSiteScenario()
        result = scenario.run(80000.0)
        assert not result.any_violation
        assert result.stats["vehicle"]["mode"] == "manual"
        # Driver slowed for the zone.
        assert result.stats["vehicle"]["speed_mps"] <= 10.0

    def test_handover_latency_matches_driver_reaction(self):
        scenario = ConstructionSiteScenario(driver_reaction_ms=1000.0)
        result = scenario.run(80000.0)
        vehicle = result.stats["vehicle"]
        latency = vehicle["manual_since"] - vehicle["handover_requested_at"]
        assert latency == pytest.approx(1000.0)

    def test_no_rsu_warning_means_sg01_violation(self):
        # Jam from the very start: the vehicle never learns about the zone.
        scenario = ConstructionSiteScenario()
        scenario.v2x.jam(80000.0)
        result = scenario.run(80000.0)
        assert result.violated("SG01")

    def test_unknown_control_name_rejected(self):
        with pytest.raises(SimulationError):
            ConstructionSiteScenario(controls={"firewall"})

    def test_detections_of_missing_ecu_is_zero(self):
        scenario = ConstructionSiteScenario()
        result = scenario.run(1000.0)
        assert result.detections_of("nonexistent") == 0

    def test_all_controls_constant_includes_flood(self):
        assert CONTROL_FLOOD in UC1_ALL_CONTROLS


class TestKeylessEntryScenario:
    def test_owner_cycle_holds_all_goals(self):
        scenario = KeylessEntryScenario()
        scenario.owner_opens(1000.0)
        scenario.owner_closes(4000.0)
        result = scenario.run(10000.0)
        assert not result.any_violation
        assert result.stats["door"]["state"] == "closed"
        assert result.stats["door"]["open_count"] == 1

    def test_sg03_armed_per_attempt(self):
        scenario = KeylessEntryScenario()
        scenario.ble.jam(5000.0)  # jam covers the attempt
        scenario.owner_opens(1000.0)
        result = scenario.run(10000.0)
        assert result.violated("SG03")

    def test_sg02_flags_oscillation(self):
        scenario = KeylessEntryScenario(max_transitions=3)
        for start in (1000.0, 2000.0, 3000.0):
            scenario.owner_opens(start, expect_within_ms=500.0)
            scenario.owner_closes(start + 500.0)
        result = scenario.run(10000.0)
        assert result.violated("SG02")

    def test_unknown_control_rejected(self):
        with pytest.raises(SimulationError):
            KeylessEntryScenario(controls={"value-range"})

    def test_all_controls_constant(self):
        assert CONTROL_FLOOD in UC2_ALL_CONTROLS
        assert "id-whitelist" in UC2_ALL_CONTROLS
