"""Tests for the campaign runner: verdicts, parity with the seed classes,
and the parallel fan-out."""

import pytest

from repro.engine.campaign import (
    VariantOutcome,
    execute_variant,
    run_campaign,
)
from repro.engine.registry import default_registry
from repro.engine.spec import VariantSpec, freeze_params
from repro.errors import ValidationError
from repro.runtime import ProcessBackend
from repro.sim.attacks import JammingAttack
from repro.sim.scenarios import ConstructionSiteScenario, KeylessEntryScenario
from repro.testing import TestHarness, Verdict
from repro.usecases import uc2


class TestExecuteVariant:
    def test_unattacked_baseline_withstands(self):
        outcome = execute_variant(default_registry().variant("uc1/baseline/stock"))
        assert outcome.verdict == Verdict.ATTACK_FAILED.name
        assert outcome.sut_passed
        assert outcome.violated_goals == ()
        assert outcome.duration_ms == 80000.0

    def test_catalog_attack_drives_verdict(self):
        # A jam covering the whole approach suppresses the handover: SG01.
        outcome = execute_variant(
            default_registry().variant("uc1/attacker-timing/jam-s100-d60000")
        )
        assert outcome.verdict == Verdict.ATTACK_SUCCEEDED.name
        assert "SG01" in outcome.violated_goals

    def test_bound_attack_with_param_override(self):
        outcome = execute_variant(
            default_registry().variant(
                "uc2/control-ablation/ad08-no-id-whitelist"
            )
        )
        assert outcome.attack == "AD08"
        assert not outcome.sut_passed
        assert "SG01" in outcome.violated_goals

    def test_unknown_catalog_attack_rejected(self):
        variant = VariantSpec(
            variant_id="x",
            scenario="uc2-keyless-entry",
            family="f",
            attack="not-a-real-attack-key",
        )
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="unknown catalog attack"):
            execute_variant(variant)

    def test_outcome_payload_round_trip(self):
        import dataclasses

        outcome = execute_variant(default_registry().variant("uc2/baseline/stock"))
        assert (
            VariantOutcome.from_payload(dataclasses.asdict(outcome)) == outcome
        )


class TestSeedParity:
    """The registry path must reproduce the seed scenario classes exactly."""

    def test_uc1_violation_set_matches_seed_class(self):
        # Direct (seed-style) construction...
        seed = ConstructionSiteScenario()
        attack = JammingAttack("jammer", seed.clock, seed.v2x, duration_ms=60000.0)
        attack.launch(100.0)
        seed_result = seed.run(80000.0)
        # ...versus the registry-generated variant with identical attack.
        outcome = execute_variant(
            default_registry().variant("uc1/attacker-timing/jam-s100-d60000")
        )
        assert outcome.violated_goals == seed_result.violated_goals()
        assert outcome.violations == tuple(
            (v.time, v.goal_id, v.detail) for v in seed_result.violations
        )

    def test_uc2_violation_set_matches_seed_class(self):
        seed = KeylessEntryScenario()
        seed.owner_opens(1000.0)
        seed.owner_closes(2500.0)
        seed_result = seed.run(20000.0)
        outcome = execute_variant(default_registry().variant("uc2/baseline/stock"))
        assert outcome.violated_goals == seed_result.violated_goals()
        assert outcome.violations == tuple(
            (v.time, v.goal_id, v.detail) for v in seed_result.violations
        )

    def test_ad08_verdict_matches_seed_binding(self):
        attacks = uc2.build_attacks()
        execution = TestHarness().execute(
            uc2.build_bindings().compile(attacks.get("AD08"))
        )
        outcome = execute_variant(default_registry().variant("uc2/parity/ad08"))
        assert outcome.verdict == execution.verdict.name
        assert execution.verdict is Verdict.ATTACK_FAILED
        assert (
            outcome.violated_goals
            == execution.scenario_result.violated_goals()
        )
        assert outcome.detections == tuple(
            sorted(execution.scenario_result.detection_counts().items())
        )

    @pytest.mark.slow
    def test_ad20_verdict_matches_seed_expectation(self):
        # The direct-path AD20 verdict (ATTACK_FAILED, nothing violated,
        # flood detected) is pinned by tests/test_usecases.py; the
        # registry path must land on exactly the same outcome.
        outcome = execute_variant(default_registry().variant("uc1/parity/ad20"))
        assert outcome.verdict == Verdict.ATTACK_FAILED.name
        assert outcome.violated_goals == ()
        assert dict(outcome.detections)["OBU"] > 0


class TestRunCampaign:
    def test_serial_campaign_aggregates(self):
        registry = default_registry()
        variants = registry.variants(family="zone-geometry")
        result = run_campaign(variants)
        assert result.total == len(variants)
        assert result.workers == 1
        assert set(result.by_family()) == {"zone-geometry"}
        assert result.counts()[Verdict.ATTACK_FAILED.name] == result.total
        assert "zone-geometry" in result.to_text(verbose=True)

    def test_parallel_campaign_matches_serial(self):
        variants = default_registry().variants(family="traffic-density")
        serial = run_campaign(variants)
        with ProcessBackend(jobs=2) as backend:
            parallel = run_campaign(variants, backend=backend)
        assert parallel.workers == 2
        assert [o.variant_id for o in serial.outcomes] == [
            o.variant_id for o in parallel.outcomes
        ]
        for mine, theirs in zip(serial.outcomes, parallel.outcomes):
            assert mine.verdict == theirs.verdict, mine.variant_id
            assert mine.violated_goals == theirs.violated_goals
            assert mine.violations == theirs.violations
            assert mine.detections == theirs.detections

    def test_workers_must_be_positive(self):
        from repro.api import Workspace

        with pytest.raises(ValidationError, match="jobs must be >= 1"):
            Workspace().campaign(variants=[], backend="process", jobs=0)

    def test_custom_registry_is_serial_only(self):
        from repro.engine.registry import ScenarioRegistry
        from repro.engine.spec import ScenarioSpec

        custom = ScenarioRegistry()
        custom.register(
            ScenarioSpec(
                name="uc2-keyless-entry",
                use_case="uc2",
                factory="repro.sim.scenarios:KeylessEntryScenario",
            )
        )
        variants = [
            VariantSpec(
                variant_id="x", scenario="uc2-keyless-entry", family="f"
            )
        ] * 2
        # The in-process serial backend honours it; process fan-out is
        # refused loudly instead of silently resolving against the
        # default registry inside the workers.
        assert run_campaign(variants[:1], registry=custom).total == 1
        assert run_campaign(variants, registry=custom).total == 2
        with pytest.raises(ValidationError, match="serial"):
            run_campaign(
                variants, registry=custom, backend=ProcessBackend(jobs=2)
            )

    def test_outcome_lookup(self):
        result = run_campaign(
            [default_registry().variant("uc2/baseline/stock")]
        )
        assert result.outcome("uc2/baseline/stock").sut_passed
        with pytest.raises(KeyError, match="known variant ids"):
            result.outcome("missing")

    def test_runner_facade_filters_and_runs(self):
        from repro.api import Workspace

        result = Workspace().campaign(family="baseline")
        assert result.total == 2
        summary = result.summary()
        assert summary["total"] == 2
        assert summary["families"] == {"baseline": 2}


class TestControlAblationFamily:
    """Removing each attack's expected measure flips its outcome, and the
    named control is the one that did the detecting."""

    @pytest.fixture(scope="class")
    def outcomes(self):
        result = run_campaign(
            default_registry().variants(family="control-ablation")
        )
        return {outcome.variant_id: outcome for outcome in result.outcomes}

    @pytest.mark.parametrize(
        "protected, exposed, ecu, control, goal",
        [
            (
                "uc1/control-ablation/flood-all",
                "uc1/control-ablation/flood-no-flooding-detector",
                "OBU", "flooding-detector", "SG01",
            ),
            (
                "uc2/control-ablation/ad08-all",
                "uc2/control-ablation/ad08-no-id-whitelist",
                "ECU_GW", "id-whitelist", "SG01",
            ),
            (
                "uc2/control-ablation/ad03-with-flooding-detector",
                "uc2/control-ablation/ad03-no-flooding-detector",
                "ECU_GW", "flooding-detector", "SG03",
            ),
        ],
        ids=["ad20", "ad08", "ad03"],
    )
    def test_removing_the_measure_flips_the_verdict(
        self, outcomes, protected, exposed, ecu, control, goal
    ):
        protected, exposed = outcomes[protected], outcomes[exposed]
        assert protected.sut_passed
        assert goal not in protected.violated_goals
        assert protected.detections_of(ecu, control) > 0
        assert not exposed.sut_passed
        assert goal in exposed.violated_goals

    def test_forged_key_opens_only_without_whitelist(self, outcomes):
        protected = outcomes["uc2/control-ablation/ad08-all"]
        exposed = outcomes["uc2/control-ablation/ad08-no-id-whitelist"]
        assert protected.stats["door"]["state"] == "closed"
        assert exposed.stats["door"]["state"] == "open"

    def test_replay_needs_both_freshness_controls_removed(self, outcomes):
        assert outcomes["uc2/control-ablation/ad02-all"].sut_passed
        # The message counter still covers the replay when only the
        # guard falls: defence in depth.
        assert outcomes["uc2/control-ablation/ad02-no-replay-guard"].sut_passed
        exposed = outcomes["uc2/control-ablation/ad02-no-freshness"]
        assert not exposed.sut_passed
        assert "SG01" in exposed.violated_goals

    def test_unchecked_can_flood_loses_frames(self, outcomes):
        exposed = outcomes["uc2/control-ablation/ad03-no-flooding-detector"]
        assert exposed.stats["can"]["lost"] > 0


def _flood_variant(interval_ms):
    """An unprotected (sender-auth only) flood at one message rate."""
    return VariantSpec(
        variant_id=f"test/flood-rate/i{interval_ms}",
        scenario="uc1-construction-site",
        family="flood-rate",
        params=freeze_params(
            {
                "controls": ("sender-auth",),
                "zone_start_m": 400.0,
                "zone_end_m": 500.0,
            }
        ),
        attack="flood",
        attack_params=freeze_params(
            {
                "interval_ms": interval_ms,
                "duration_ms": 3000.0,
                "launch_ms": 100.0,
            }
        ),
        duration_ms=22000.0,
    )


class TestLoadSweeps:
    def test_flood_violation_is_monotone_in_the_rate(self):
        """AD20's outcome is a property of load: 4 msg/ms overwhelms the
        OBU's 2 msg/ms service rate, 0.5 msg/ms does not."""
        intervals = (0.25, 0.5, 2.0)
        result = run_campaign([_flood_variant(i) for i in intervals])
        violated = ["SG01" in o.violated_goals for o in result.outcomes]
        assert violated[0] is True
        assert violated[-1] is False
        assert violated == sorted(violated, reverse=True)

    def test_beacon_period_sweep_never_flags_the_rsu(self):
        variants = [
            variant
            for variant in default_registry().variants(
                scenario="uc1-construction-site", family="traffic-density"
            )
            if "rsu-p" in variant.variant_id
        ]
        assert len(variants) >= 10
        result = run_campaign(variants)
        for outcome in result.outcomes:
            assert outcome.sut_passed, outcome.variant_id
            assert dict(outcome.detections).get("OBU", 0) == 0


class TestHarnessIntegration:
    def test_harness_executes_registry_variants(self):
        outcome = execute_variant(
            default_registry().variant("uc2/baseline/stock")
        )
        assert outcome.sut_passed
