"""Tests for the two encoded use cases against the paper's published numbers."""

import pytest

from repro.model.ratings import Asil
from repro.sim.scenarios import ConstructionSiteScenario
from repro.testing import TestHarness, Verdict
from repro.threatlib.catalog import build_catalog
from repro.usecases import uc1, uc2


class TestUc1PaperNumbers:
    """§IV-A: 3 functions, 29 ratings, the exact ASIL distribution,
    6 safety goals, 23 attack descriptions."""

    def test_three_functions(self):
        assert len(uc1.build_hara().functions) == 3

    def test_29_ratings(self):
        assert len(uc1.build_hara().ratings) == 29

    def test_asil_distribution_matches_paper(self):
        distribution = uc1.build_hara().asil_distribution()
        assert distribution[Asil.NOT_APPLICABLE] == 5
        assert distribution[Asil.QM] == 5
        assert distribution[Asil.A] == 7
        assert distribution[Asil.B] == 3
        assert distribution[Asil.C] == 7
        assert distribution[Asil.D] == 2

    def test_six_safety_goals_with_published_asils(self):
        goals = {g.identifier: g.asil for g in uc1.build_hara().safety_goals}
        assert goals == {
            "SG01": Asil.C, "SG02": Asil.C, "SG03": Asil.D,
            "SG04": Asil.C, "SG05": Asil.B, "SG06": Asil.A,
        }

    def test_goal_asils_consistent_with_ratings(self):
        hara = uc1.build_hara()
        for goal in hara.safety_goals:
            rated = [
                r.asil
                for ref in goal.hazard_refs
                for r in hara.ratings_for(ref)
                if r.asil.is_safety_relevant
            ]
            assert rated, f"{goal.identifier} references unrated functions"
            assert goal.asil <= max(rated)

    def test_guideword_complete(self):
        assert uc1.build_hara().is_guideword_complete()

    def test_23_attack_descriptions(self):
        assert len(uc1.build_attacks()) == 23

    def test_ad20_matches_table_vi(self):
        attack = uc1.build_attacks().get("AD20")
        assert attack.description == (
            "Attacker tries to overload the ECU by packet flooding."
        )
        assert attack.safety_goal_ids == ("SG01", "SG02", "SG03")
        assert attack.interface == "OBU RSU"
        assert attack.threat_link.threat_scenario_id == "2.1.4"
        assert attack.stride.value == "Denial of service"
        assert attack.attack_type.name == "Disable"
        assert attack.precondition == (
            "Vehicle is approaching the construction side"
        )
        assert attack.expected_measures == (
            "Message counter for broken messages"
        )
        assert attack.attack_success == "Shutdown of service"
        assert attack.threat_link.text == (
            "An attacker alters the functioning of the Vehicle Gateway (so "
            "that it crashes, halts, stops or runs slowly), in order to "
            "disrupt the service"
        )
        assert attack.attack_fails == (
            "Security control identifies unwanted sender enforce change of "
            "frequency"
        )
        assert attack.implementation_comments.startswith(
            "Create an authenticated sender as attacker"
        )

    def test_every_goal_covered_by_attacks(self):
        attacks = uc1.build_attacks()
        for goal in uc1.build_hara().safety_goals:
            assert attacks.by_goal(goal.identifier), goal.identifier

    def test_pipeline_audit_complete(self):
        pipeline = uc1.pipeline_builder().build()
        assert pipeline.report.complete
        assert len(pipeline.completed_steps()) == 4  # bindings staged
        summary = pipeline.report.summary()
        assert summary["goals"] == summary["goals_covered"] == 6
        assert summary["threats_uncovered"] == 0


class TestUc2PaperNumbers:
    """§IV-B: 2 functions, 20 ratings, the exact distribution, 4 safety
    goals, 27 safety + 2 privacy attacks."""

    def test_two_functions(self):
        assert len(uc2.build_hara().functions) == 2

    def test_20_ratings(self):
        assert len(uc2.build_hara().ratings) == 20

    def test_asil_distribution_matches_paper(self):
        distribution = uc2.build_hara().asil_distribution()
        assert distribution[Asil.NOT_APPLICABLE] == 7
        assert distribution[Asil.QM] == 5
        assert distribution[Asil.A] == 2
        assert distribution[Asil.B] == 4
        assert distribution[Asil.C] == 1
        assert distribution[Asil.D] == 1

    def test_four_safety_goals_with_published_asils(self):
        goals = {g.identifier: g.asil for g in uc2.build_hara().safety_goals}
        assert goals == {
            "SG01": Asil.D, "SG02": Asil.B, "SG03": Asil.A, "SG04": Asil.A,
        }

    def test_27_plus_2_attacks(self):
        attacks = uc2.build_attacks()
        assert len(attacks.safety_attacks()) == 27
        assert len(attacks.privacy_attacks()) == 2

    def test_ad08_matches_table_vii(self):
        attack = uc2.build_attacks().get("AD08")
        assert attack.description == (
            "The attacker uses modified keys to gain access to the vehicle."
        )
        assert attack.safety_goal_ids == ("SG01",)
        assert attack.interface == "ECU_GW"
        assert attack.threat_link.threat_scenario_id == "3.1.4"
        assert attack.stride.value == "Spoofing"
        assert attack.attack_type.name == "Spoofing"
        assert attack.expected_measures == (
            "Check received vehicles electronic ID with list of allowed IDs"
        )
        assert attack.attack_success == "Open the vehicle"
        assert attack.attack_fails == "Opening is rejected"
        assert attack.threat_link.text == (
            "Spoofing of messages (e.g. 802.11p V2X) by impersonation"
        )
        assert attack.precondition == (
            "Vehicle is closed. Attacker has an authenticated communication "
            "link"
        )
        assert attack.implementation_comments == (
            "a) Randomly replace IDs of keys and b) test against increasing "
            "IDs (if a valid ID is known)"
        )

    def test_table_vii_goal_is_keep_vehicle_closed(self):
        goals = {g.identifier: g for g in uc2.build_hara().safety_goals}
        assert goals["SG01"].name == "Keep vehicle closed"
        assert goals["SG01"].asil is Asil.D

    def test_explicit_can_flooding_attack_present(self):
        attacks = uc2.build_attacks()
        ad03 = attacks.get("AD03")
        assert "CAN bus" in ad03.description
        assert "Bluetooth" in ad03.description
        assert ad03.targets_goal("SG03")

    def test_explicit_replay_attack_present(self):
        assert "replays it" in uc2.build_attacks().get("AD02").description

    def test_pipeline_audit_complete(self):
        pipeline = uc2.pipeline_builder().build()
        assert pipeline.report.complete
        assert len(pipeline.completed_steps()) == 4  # bindings staged
        summary = pipeline.report.summary()
        assert summary["goals"] == 4
        assert summary["threats_uncovered"] == 0

    def test_every_goal_covered_by_attacks(self):
        attacks = uc2.build_attacks()
        for goal in uc2.build_hara().safety_goals:
            assert attacks.by_goal(goal.identifier), goal.identifier


class TestExecutableBindings:
    """Step 4: the bound attacks run and produce the predicted verdicts."""

    @pytest.mark.slow
    def test_uc1_ad20_withstood_with_controls(self):
        registry = uc1.build_bindings()
        attack = uc1.build_attacks().get("AD20")
        execution = TestHarness().execute(registry.compile(attack))
        assert execution.verdict is Verdict.ATTACK_FAILED

    @pytest.mark.slow
    def test_uc2_ad08_withstood_with_whitelist(self):
        registry = uc2.build_bindings()
        attack = uc2.build_attacks().get("AD08")
        execution = TestHarness().execute(registry.compile(attack))
        assert execution.verdict is Verdict.ATTACK_FAILED

    @pytest.mark.slow
    def test_uc2_ad02_replay_withstood(self):
        registry = uc2.build_bindings()
        attack = uc2.build_attacks().get("AD02")
        execution = TestHarness().execute(registry.compile(attack))
        assert execution.verdict is Verdict.ATTACK_FAILED

    @pytest.mark.slow
    def test_uc2_ad03_can_flood_withstood(self):
        registry = uc2.build_bindings()
        attack = uc2.build_attacks().get("AD03")
        execution = TestHarness().execute(registry.compile(attack))
        assert execution.verdict is Verdict.ATTACK_FAILED

    def test_uc2_ad08_execution_is_reproducible(self):
        """RQ3: the same compiled test case, run twice, yields the same
        verdict, door state and detection records."""
        registry = uc2.build_bindings()
        attack = uc2.build_attacks().get("AD08")
        first, second = (
            TestHarness().execute(registry.compile(attack)) for _ in range(2)
        )
        assert first.verdict is second.verdict
        assert first.success_observed == second.success_observed
        assert (
            first.scenario_result.stats["door"]
            == second.scenario_result.stats["door"]
        )
        assert (
            first.scenario_result.detection_records["ECU_GW"]
            == second.scenario_result.detection_records["ECU_GW"]
        )

    def test_unbound_attacks_report_cleanly(self):
        registry = uc1.build_bindings()
        attacks = uc1.build_attacks()
        bound = [a for a in attacks if registry.can_compile(a)]
        assert {a.identifier for a in bound} == {
            "AD05", "AD07", "AD12", "AD14", "AD20",
        }

    def test_justified_threats_exist_in_catalog(self):
        library = build_catalog()
        for threat_id in list(uc1.JUSTIFICATIONS) + list(uc2.JUSTIFICATIONS):
            library.threat(threat_id)  # raises if dangling


class TestFig2Storyline:
    """Fig. 2: RSU warns the OBU, the OBU asks the driver to take over,
    and the driver has control before the construction site."""

    def test_nominal_causal_chain(self):
        scenario = ConstructionSiteScenario()
        for topic in (
            "obu.warning_accepted",
            "vehicle.manual_control",
            "vehicle.entered_zone",
        ):
            scenario.bus.retain(topic)
        result = scenario.run(180000.0)
        warning = scenario.bus.events("obu.warning_accepted")[0]
        handover = scenario.bus.events("vehicle.handover_requested")[0]
        manual = scenario.bus.events("vehicle.manual_control")[0]
        entry = scenario.bus.events("vehicle.entered_zone")[0]
        assert warning.time <= handover.time
        assert manual.time < entry.time
        assert entry.data["mode"] == "manual"
        assert entry.data["speed_mps"] <= scenario.zone_speed_limit_mps + 0.5
        assert not result.any_violation
