"""End-to-end integration tests across the whole tool chain.

These tests walk the complete SaSeVAL path the paper describes plus the
Step 4 the paper leaves open: threat library -> HARA -> attack
descriptions -> RQ1 audits -> DSL round trip -> compiled test cases ->
simulator execution -> verdicts.
"""

import pytest

from repro.core.prioritization import Prioritizer
from repro.dsl import analyze, format_attacks, parse
from repro.model.ratings import Asil
from repro.sim.scenarios import ConstructionSiteScenario, KeylessEntryScenario
from repro.testing import TestHarness
from repro.threatlib.catalog import build_catalog
from repro.usecases import uc1, uc2


class TestFullChainUc1:
    def test_pipeline_to_verdicts(self):
        pipeline = uc1.pipeline_builder().build()
        # RQ1: the audits passed inside build(); re-check the matrix.
        matrix = pipeline.trace_matrix()
        trace = matrix.trace_goal("SG01")
        assert "AD20" in trace.attack_ids
        assert "2.1.4" in trace.threat_ids

        # RQ2: reduce to ASIL C+ and plan a budget.
        prioritizer = Prioritizer(list(pipeline.goals))
        plan = prioritizer.plan(pipeline.attacks, budget=100, minimum=Asil.C)
        assert plan.total_allocated == 100
        assert all(entry.asil >= Asil.C for entry in plan.entries)

        # RQ3/Step 4: compile what has bindings and execute.
        registry = uc1.build_bindings()
        tests = [
            registry.compile(attack)
            for attack in pipeline.attacks
            if registry.can_compile(attack)
        ]
        report = TestHarness().execute_all(tests)
        assert report.total == 5
        assert not report.inconclusive

    def test_dsl_is_a_faithful_interchange_format(self):
        library = build_catalog()
        attacks = uc1.build_attacks(library)
        document = format_attacks(list(attacks))
        reparsed = analyze(
            parse(document), library, list(uc1.build_hara().safety_goals)
        )
        assert len(reparsed) == 23
        assert reparsed.get("AD20") == attacks.get("AD20")


class TestAblationUc1Flooding:
    """The AD20 expected-measure ablation: the verdict flips exactly when
    the flooding detector is removed."""

    def run_flooding(self, controls):
        from repro.sim.attacks import FloodingAttack

        scenario = ConstructionSiteScenario(controls=controls)
        attack = FloodingAttack(
            "attacker", scenario.clock, scenario.v2x, kind="cam_message",
            interval_ms=0.2, duration_ms=70000.0,
            keystore=scenario.keystore, authenticated=True,
            location=scenario.RSU_LOCATION,
        )
        attack.launch(100.0)
        return scenario, scenario.run(80000.0)

    @pytest.mark.slow
    def test_with_detector_sut_withstands(self):
        scenario, result = self.run_flooding(
            {"flooding-detector", "sender-auth"}
        )
        assert not result.violated("SG01")
        assert not scenario.obu.is_shut_down
        assert result.detections_of("OBU", "flooding-detector") > 0

    @pytest.mark.slow
    def test_without_detector_service_shuts_down(self):
        scenario, result = self.run_flooding({"sender-auth"})
        assert scenario.obu.is_shut_down  # "Shutdown of service"
        assert result.violated("SG01")


class TestAblationUc2:
    @pytest.mark.slow
    def test_whitelist_ablation_flips_ad08(self):
        from repro.sim.attacks import KeyForgeryAttack

        def run(controls):
            scenario = KeylessEntryScenario(controls=controls)
            attack = KeyForgeryAttack(
                "attacker-phone", scenario.clock, scenario.ble,
                scenario.keystore, strategy="incrementing", attempts=5,
                known_valid_id="KEY-5000",
            )
            attack.launch(500.0)
            return scenario, scenario.run(8000.0)

        protected, result_protected = run(
            {"sender-auth", "id-whitelist"}
        )
        assert not result_protected.violated("SG01")
        assert result_protected.stats["door"]["state"] == "closed"

        exposed, result_exposed = run({"sender-auth"})
        # Without the whitelist any forged id is accepted.
        assert result_exposed.violated("SG01")
        assert result_exposed.stats["door"]["state"] == "open"

    @pytest.mark.slow
    def test_sequential_ids_near_a_valid_key_defeat_the_whitelist(self):
        """AD08's incrementing strategy *works* when key IDs are
        sequential and the attacker knows a neighbouring valid ID -- the
        whitelist alone cannot save a predictable ID space."""
        from repro.sim.attacks import KeyForgeryAttack

        scenario = KeylessEntryScenario()  # all controls deployed
        attack = KeyForgeryAttack(
            "attacker-phone", scenario.clock, scenario.ble,
            scenario.keystore, strategy="incrementing", attempts=5,
            known_valid_id="KEY-999",  # one below the owner's KEY-1000
        )
        attack.launch(500.0)
        result = scenario.run(8000.0)
        assert result.violated("SG01")
        assert result.stats["door"]["state"] == "open"

    @pytest.mark.slow
    def test_replay_guard_ablation_flips_ad02(self):
        from repro.sim.attacks import ReplayAttack
        from repro.sim.ble import KIND_OPEN

        def run(controls):
            scenario = KeylessEntryScenario(controls=controls)
            attack = ReplayAttack(
                "eve", scenario.clock, scenario.ble,
                capture_kinds={KIND_OPEN},
            )
            scenario.owner_opens(1000.0)
            scenario.owner_closes(2500.0)
            attack.replay(at_ms=8000.0)
            return scenario.run(12000.0)

        protected = run({"sender-auth", "replay-guard", "id-whitelist"})
        assert not protected.violated("SG01")

        exposed = run({"sender-auth", "id-whitelist"})
        assert exposed.violated("SG01")


class TestCrossUseCaseConsistency:
    def test_both_usecases_share_the_catalog(self):
        library = build_catalog()
        uc1_threats = {
            a.threat_link.threat_scenario_id for a in uc1.build_attacks(library)
        }
        uc2_threats = {
            a.threat_link.threat_scenario_id for a in uc2.build_attacks(library)
        }
        for threat_id in uc1_threats | uc2_threats:
            library.threat(threat_id)

    def test_catalog_fully_covered_by_attacks_or_justifications(self):
        library = build_catalog()
        for module in (uc1, uc2):
            attacked = {
                a.threat_link.threat_scenario_id
                for a in module.build_attacks(library)
            }
            justified = set(module.JUSTIFICATIONS)
            all_threats = {t.identifier for t in library.threats}
            assert attacked | justified >= all_threats

    @pytest.mark.slow
    def test_campaign_report_end_to_end(self):
        registry = uc2.build_bindings()
        attacks = uc2.build_attacks()
        tests = [
            registry.compile(attack)
            for attack in attacks
            if registry.can_compile(attack)
        ]
        report = TestHarness().execute_all(tests)
        text = report.to_text()
        assert "AD08" in text
        summary = report.summary()
        assert summary["total"] == 5
        assert not report.inconclusive
        # The only expected successes are the residual-risk attacks the
        # SUT has no counter-measure for (jamming, passive profiling).
        vulnerable = {e.test.attack_id for e in report.sut_failed}
        assert vulnerable == {"AD04", "AD28"}
