"""Tests for the fleet scenario, its variant families and the knobs.

Covers the spatial tentpole end to end: convoy assembly and per-vehicle
verdicts, V2V relaying beyond RSU coverage, the coverage (range /
reception) and attacker-position families' verdict dynamics, the
``fleet``/``rsu-range`` override machinery, and the CLI surface
(``--usecase``, ``--fleet``, ``--list-families``).
"""

import pytest

from repro.api import Workspace
from repro.cli import main
from repro.engine.campaign import execute_variant, run_campaign
from repro.engine.registry import (
    UC1_FLEET_SCENARIO,
    apply_topology_overrides,
    default_registry,
)
from repro.errors import SimulationError, ValidationError
from repro.sim.clock import SimClock
from repro.sim.events import EventBus
from repro.sim.scenarios import FleetConstructionSiteScenario
from repro.sim.vehicle import DrivingMode


class TestFleetScenario:
    def test_convoy_assembly(self):
        scenario = FleetConstructionSiteScenario(fleet_size=3, headway_m=50.0)
        assert [v.name for v in scenario.vehicles] == [
            "ego-1", "ego-2", "ego-3",
        ]
        # The lead vehicle starts closest to the zone.
        assert [v.position_m for v in scenario.vehicles] == [100.0, 50.0, 0.0]
        assert scenario.topology.knows("OBU-2")
        assert scenario.topology.knows("RSU-A")
        assert len(scenario.relays) == 3

    def test_fleet_size_validated(self):
        with pytest.raises(SimulationError, match="fleet size"):
            FleetConstructionSiteScenario(fleet_size=0)

    @pytest.mark.slow
    def test_baseline_convoy_all_handover(self):
        scenario = FleetConstructionSiteScenario(fleet_size=4)
        result = scenario.run()
        assert result.violated_goals() == ()
        verdicts = result.stats["per_vehicle_verdicts"]
        assert len(verdicts) == 4
        assert set(verdicts.values()) == {"withstood"}
        assert result.stats["handover_ratio"] == 1.0

    @pytest.mark.slow
    def test_v2v_relay_saves_followers(self):
        """RSU coverage starts 30 m before the zone: direct reception is
        too late for everyone, V2V relaying saves every follower."""

        def violated(v2v_enabled):
            scenario = FleetConstructionSiteScenario(
                fleet_size=3,
                headway_m=120.0,
                zone_start_m=900.0,
                zone_end_m=1000.0,
                rsu_position_m=1000.0,
                rsu_range_m=130.0,
                v2v_range_m=130.0,
                v2v_enabled=v2v_enabled,
                v2v_max_hops=4,
            )
            verdicts = scenario.run(60000.0).stats["per_vehicle_verdicts"]
            return [name for name, v in verdicts.items() if v == "violated"]

        assert violated(False) == ["ego-1", "ego-2", "ego-3"]
        assert violated(True) == ["ego-1"]

    def test_relay_refuses_to_launder_spoofed_warnings(self):
        """A V2V relay must not forward a road-works warning it cannot
        authenticate -- re-signing a spoof would defeat sender auth."""
        from repro.sim.network import Message
        from repro.sim.v2x import KIND_ROAD_WORKS

        scenario = FleetConstructionSiteScenario(fleet_size=2)
        relay = scenario.relays[0]
        spoof = Message(
            kind=KIND_ROAD_WORKS,
            sender="ghost-rsu",  # unprovisioned; tag cannot verify
            payload={"zone_start_m": 100.0, "speed_limit_mps": 5.0},
            counter=1,
            auth_tag="forged",
        )
        relay.receive(spoof)
        scenario.clock.run_until(1000.0)
        assert relay.forwarded == 0

        genuine = scenario.rsu.send_road_works_warning(1500.0, 8.0)
        relay.receive(genuine)
        scenario.clock.run_until(2000.0)
        assert relay.forwarded == 1
        # Origin de-duplication: hearing the same warning again (e.g.
        # via the channel delivery on top of the direct call) does not
        # forward it twice.
        relay.receive(genuine)
        scenario.clock.run_until(3000.0)
        assert relay.forwarded == 1

    @pytest.mark.slow
    def test_zero_range_rsu_warns_nobody(self):
        scenario = FleetConstructionSiteScenario(
            fleet_size=2,
            zone_start_m=600.0,
            zone_end_m=700.0,
            rsu_position_m=399.0,
            rsu_range_m=0.0,
            v2v_enabled=False,
        )
        result = scenario.run(30000.0)
        assert result.violated("SG01")
        assert result.stats["handovers"] == 0
        assert result.stats["v2x"]["out_of_range"] > 0


def _long_convoy(fleet_size):
    """The n=8 fleet geometry with the convoy tail grown backwards."""
    lead_m = (fleet_size - 1) * 40.0
    return FleetConstructionSiteScenario(
        fleet_size=fleet_size,
        headway_m=40.0,
        zone_start_m=lead_m + 600.0,
        zone_end_m=lead_m + 700.0,
        rsu_position_m=lead_m + 399.0,
        rsu_range_m=500.0,
        road_length_m=lead_m + 3000.0,
    )


def _sg01(scenario):
    return [
        (violation.time, violation.goal_id)
        for violation in scenario.monitor.violations
    ]


class TestFleetZoneGate:
    """The fleet's one SG01 check visits the construction zone's
    occupants, so every position write must keep them."""

    def test_vehicle_placed_in_the_zone_trips_sg01_at_the_first_sweep(self):
        # ego-1 starts at 40 m, inside [30, 130); ego-2 at 0 m.
        scenario = FleetConstructionSiteScenario(
            fleet_size=2, headway_m=40.0, zone_start_m=30.0,
            zone_end_m=130.0,
        )
        scenario.clock.run_until(50.0)
        assert _sg01(scenario) == [(50.0, "SG01"), (50.0, "SG01:ego-1")]
        assert scenario.monitor.violations[0].detail == (
            "ego-1 inside the construction zone in automated mode at "
            "25.0 m/s"
        )

    def test_setter_move_into_the_zone_trips_sg01_at_the_next_sweep(self):
        scenario = FleetConstructionSiteScenario(fleet_size=3)
        scenario.clock.run_until(120.0)
        assert _sg01(scenario) == []
        scenario.vehicles[2].position_m = 1550.0
        scenario.clock.run_until(150.0)
        assert _sg01(scenario) == [(150.0, "SG01"), (150.0, "SG01:ego-3")]

    def test_vehicle_that_left_the_zone_is_no_longer_checked(self):
        # ego-1 starts inside [30, 60) and drives out by tick; ego-2 is
        # moved in and out by the setter.  Both are back in automated
        # mode afterwards: a stale occupant would now trip SG01.
        scenario = FleetConstructionSiteScenario(
            fleet_size=2, headway_m=40.0, zone_start_m=30.0,
            zone_end_m=60.0,
        )
        by_tick, by_setter = scenario.vehicles
        for vehicle in scenario.vehicles:
            vehicle.driver_takes_over()
        by_setter.position_m = 45.0
        occupants = scenario.world.occupants
        assert occupants("construction") == {by_tick, by_setter}
        by_setter.position_m = 70.0
        scenario.clock.run_until(1000.0)  # by_tick: 40 m -> 65 m
        assert occupants("construction") == frozenset()
        for vehicle in scenario.vehicles:
            vehicle.mode = DrivingMode.AUTOMATED
        scenario.clock.run_until(2000.0)
        assert _sg01(scenario) == []


class TestFleetWorkCounters:
    """Deterministic work gates: set-up is linear in the fleet size and
    a convoy costs one tick event per period."""

    FLEET = 256

    def test_dispatch_plan_builds_are_linear(self, monkeypatch):
        built = []
        build_plan = EventBus._build_plan

        def counting(bus, topic):
            built.append(topic)
            return build_plan(bus, topic)

        monkeypatch.setattr(EventBus, "_build_plan", counting)
        _long_convoy(self.FLEET)
        assert len(built) <= 4 * self.FLEET

    def test_one_tick_event_per_period_for_the_convoy(self, monkeypatch):
        # Every convoy vehicle moves on every tick, so its motion
        # listener records each of its ticks.
        ticked = []
        fired_ticks = []
        schedule_periodic = SimClock.schedule_periodic

        def recording(clock, period, callback, start=None, until=None):
            def fire():
                before = len(ticked)
                callback()
                if len(ticked) > before:
                    fired_ticks.append(clock.now)

            schedule_periodic(clock, period, fire, start, until)

        monkeypatch.setattr(SimClock, "schedule_periodic", recording)
        scenario = _long_convoy(self.FLEET)
        for vehicle in scenario.vehicles:
            vehicle.add_motion_listener(
                lambda name=vehicle.name: ticked.append(name)
            )
        scenario.clock.run_until(1000.0)
        assert fired_ticks == [100.0 * k for k in range(1, 11)]
        assert len(ticked) == 10 * self.FLEET
        assert ticked[: self.FLEET] == [v.name for v in scenario.vehicles]


class TestFleetFamilies:
    def test_fleet_family_size(self):
        variants = default_registry().variants(family="fleet")
        assert len(variants) >= 20
        assert all(v.scenario == UC1_FLEET_SCENARIO for v in variants)
        sizes = {v.params_dict()["fleet_size"] for v in variants}
        assert sizes == set(range(2, 9))

    def test_use_case_filter_includes_fleet_scenario(self):
        uc1 = default_registry().variants(use_case="uc1")
        scenarios = {v.scenario for v in uc1}
        assert UC1_FLEET_SCENARIO in scenarios
        assert all(s.startswith("uc1") for s in scenarios)
        with pytest.raises(ValidationError, match="unknown use case"):
            default_registry().variants(use_case="uc9")

    @pytest.mark.slow
    def test_fleet_flood_verdicts_per_vehicle(self):
        registry = default_registry()
        outcome = execute_variant(
            registry.variant("uc1/fleet/convoy-n3-ad20-flood-exposed")
        )
        assert outcome.verdict == "ATTACK_SUCCEEDED"
        assert "SG01" in outcome.violated_goals
        assert "SG01:ego-2" in outcome.violated_goals
        verdicts = outcome.stats["per_vehicle_verdicts"]
        assert set(verdicts.values()) == {"violated"}
        protected = execute_variant(
            registry.variant("uc1/fleet/convoy-n3-ad20-flood-protected")
        )
        assert protected.verdict == "ATTACK_FAILED"
        assert protected.detections_of("OBU-1", "flooding-detector") > 0

    @pytest.mark.slow
    def test_coverage_family_reception_curve(self):
        """Reception grows (out-of-range shrinks) with transmit range;
        zero range loses the convoy."""
        registry = default_registry()
        picks = [
            "uc1/coverage/range0-n1",
            "uc1/coverage/range100-n1",
            "uc1/coverage/range800-n1",
        ]
        result = run_campaign(
            [registry.variant(v) for v in picks], backend="serial"
        )
        zero, mid, wide = result.outcomes
        assert zero.verdict == "ATTACK_SUCCEEDED"  # never warned
        assert mid.verdict == "ATTACK_FAILED"
        assert wide.verdict == "ATTACK_FAILED"
        out_of_range = [
            o.stats["v2x"]["out_of_range"] for o in (zero, mid, wide)
        ]
        assert out_of_range == sorted(out_of_range, reverse=True)

    def test_coverage_family_four_vehicle_sweep(self):
        """Across every n=4 range, out-of-range deliveries fall and
        handovers rise as the RSU transmit range grows."""
        variants = sorted(
            (
                variant
                for variant in default_registry().variants(family="coverage")
                if variant.variant_id.endswith("-n4")
            ),
            key=lambda variant: variant.params_dict()["rsu_range_m"],
        )
        assert len(variants) >= 5
        outcomes = run_campaign(variants, backend="serial").outcomes
        out_of_range = [o.stats["v2x"]["out_of_range"] for o in outcomes]
        assert out_of_range == sorted(out_of_range, reverse=True)
        handovers = [o.stats["handovers"] for o in outcomes]
        assert handovers == sorted(handovers)

    @pytest.mark.slow
    def test_attacker_position_flips_verdict(self):
        """The same flood at the same launch time succeeds inside radio
        range and dies outside it."""
        registry = default_registry()
        near = execute_variant(
            registry.variant("uc1/attacker-position/flood-near-r600-s100")
        )
        far = execute_variant(
            registry.variant("uc1/attacker-position/flood-far-r600-s100")
        )
        assert near.verdict == "ATTACK_SUCCEEDED"
        assert far.verdict == "ATTACK_FAILED"
        assert far.stats["v2x"]["out_of_range"] > 0

    @pytest.mark.slow
    def test_late_flood_cannot_beat_early_warning(self):
        outcome = execute_variant(
            default_registry().variant(
                "uc1/attacker-position/flood-near-r600-s6000"
            )
        )
        assert outcome.verdict == "ATTACK_FAILED"


class TestTopologyOverrides:
    def test_fleet_override_applies_to_fleet_variants(self):
        registry = default_registry()
        variants = registry.variants(family="fleet", limit=4)
        resized = apply_topology_overrides(variants, registry, fleet_size=6)
        assert all(v.params_dict()["fleet_size"] == 6 for v in resized)
        assert [v.variant_id for v in resized] == [
            v.variant_id for v in variants
        ]

    def test_override_passes_non_topology_variants_through(self):
        registry = default_registry()
        mixed = registry.variants(family="fleet", limit=2) + registry.variants(
            scenario="uc2-keyless-entry", family="baseline"
        )
        resized = apply_topology_overrides(mixed, registry, fleet_size=5)
        assert resized[0].params_dict()["fleet_size"] == 5
        assert "fleet_size" not in resized[-1].params_dict()

    def test_override_with_no_capable_variant_fails_loudly(self):
        registry = default_registry()
        uc2_only = registry.variants(scenario="uc2-keyless-entry", limit=3)
        with pytest.raises(ValidationError, match="topology-capable"):
            apply_topology_overrides(uc2_only, registry, fleet_size=4)

    def test_invalid_overrides_rejected(self):
        registry = default_registry()
        variants = registry.variants(family="fleet", limit=1)
        with pytest.raises(ValidationError, match="fleet size"):
            apply_topology_overrides(variants, registry, fleet_size=0)
        for bad_range in (-1.0, float("nan")):
            with pytest.raises(ValidationError, match="RSU range"):
                apply_topology_overrides(
                    variants, registry, rsu_range_m=bad_range
                )

    def test_no_overrides_is_identity(self):
        registry = default_registry()
        variants = registry.variants(family="fleet", limit=3)
        assert apply_topology_overrides(variants, registry) == variants

    @pytest.mark.slow
    def test_workspace_campaign_fleet_knob(self):
        workspace = Workspace()
        result = workspace.campaign(
            family="fleet", attack=None, limit=1, fleet_size=2
        )
        assert result.total == 1
        outcome = result.outcomes[0]
        assert outcome.stats["fleet_size"] == 2
        assert len(outcome.stats["per_vehicle_verdicts"]) == 2
        assert len(workspace.results()) == 1


class TestFleetCli:
    def test_list_families(self, capsys):
        assert main(["campaign", "--list-families"]) == 0
        out = capsys.readouterr().out
        assert "fleet" in out
        assert "coverage" in out
        assert "attacker-position" in out
        assert "uc1-fleet-convoy" in out

    def test_list_families_honours_filters(self, capsys):
        assert main(["campaign", "--usecase", "uc2", "--list-families"]) == 0
        out = capsys.readouterr().out
        assert "uc2-keyless-entry" in out
        assert "uc1" not in out
        assert main([
            "campaign", "--usecase", "uc2", "--family", "fleet",
            "--list-families",
        ]) == 1  # no uc2 fleet family

    def test_list_families_json(self, capsys):
        import json

        assert main(["campaign", "--list-families", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        families = {(row["scenario"], row["family"]) for row in rows}
        assert (UC1_FLEET_SCENARIO, "fleet") in families
        assert all(row["variants"] >= 1 for row in rows)

    def test_usecase_filter_lists_fleet_variants(self, capsys):
        assert main([
            "campaign", "--usecase", "uc1", "--family", "fleet",
            "--fleet", "4", "--list",
        ]) == 0
        out = capsys.readouterr().out
        assert "uc1/fleet/convoy-n8-ad14-jam" in out
        assert "28 variant(s)" in out

    def test_fleet_knob_on_uc2_fails_loudly(self, capsys):
        code = main([
            "campaign", "--usecase", "uc2", "--fleet", "4", "--list",
        ])
        assert code == 1
        assert "topology-capable" in capsys.readouterr().err

    @pytest.mark.slow
    def test_fleet_campaign_runs(self, capsys):
        code = main([
            "campaign", "--scenario", UC1_FLEET_SCENARIO,
            "--family", "fleet", "--attack", "jam", "--limit", "2",
            "--fleet", "2", "--verbose",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet: 2 variants" in out
