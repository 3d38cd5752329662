"""Tests for the repro.api facade: builder, pipeline, workspace, parity."""

import dataclasses

import pytest

from repro.api import Pipeline, UseCaseDefinition, Workspace
from repro.core.pipeline import Step
from repro.errors import CoverageError, ValidationError
from repro.hara.analysis import Hara
from repro.results import SOURCE_CAMPAIGN, SOURCE_PIPELINE
from repro.threatlib.library import ThreatLibrary
from repro.usecases import uc1, uc2


class TestBuilderImmutability:
    def test_every_stage_returns_a_new_builder(self):
        base = Pipeline.builder("demo")
        staged = base.with_threat_library(uc1.build_catalog())
        assert staged is not base
        assert base.library is None
        assert staged.library is not None

        justified = staged.justify("1.1.1", "out of scope")
        assert staged.justifications == ()
        assert justified.justifications == (("1.1.1", "out of scope", ""),)

        relaxed = justified.require_complete(False)
        assert justified.strict is True
        assert relaxed.strict is False

    def test_builders_are_frozen(self):
        builder = Pipeline.builder("demo")
        with pytest.raises(dataclasses.FrozenInstanceError):
            builder.library = uc1.build_catalog()

    def test_forked_builders_do_not_interfere(self):
        base = uc1.pipeline_builder()
        strict = base.require_complete(True)
        relaxed = base.require_complete(False)
        assert strict.strict and not relaxed.strict
        # both forks build independently from the same staged state
        assert strict.build().report.complete
        assert relaxed.build().report.complete

    def test_derive_attacks_accepts_iterables(self):
        library = uc1.build_catalog()
        attacks = uc1.build_attacks(library)
        pipeline = (
            Pipeline.builder(uc1.USE_CASE_NAME)
            .with_threat_library(library)
            .with_hara(uc1.build_hara())
            .derive_attacks(attacks)
            .with_justifications(uc1.JUSTIFICATIONS)
            .build()
        )
        assert pipeline.attacks.identifiers == attacks.identifiers


class TestBuilderValidation:
    def test_build_without_library_fails(self):
        with pytest.raises(ValidationError, match="no threat library"):
            Pipeline.builder("demo").build()

    def test_build_without_hara_fails(self):
        builder = Pipeline.builder("demo").with_threat_library(
            uc1.build_catalog()
        )
        with pytest.raises(ValidationError, match="no safety analysis"):
            builder.build()

    def test_incomplete_derivation_raises_when_strict(self):
        builder = (
            Pipeline.builder("partial")
            .with_threat_library(uc1.build_catalog())
            .with_hara(uc1.build_hara())
        )
        with pytest.raises(CoverageError):
            builder.build()
        relaxed = builder.require_complete(False).build()
        assert not relaxed.report.complete
        assert Step.ATTACK_DESCRIPTION not in relaxed.completed_steps()

    def test_build_with_empty_library_fails(self):
        builder = Pipeline.builder("demo").with_threat_library(
            ThreatLibrary(name="empty")
        )
        with pytest.raises(ValidationError, match="threat library is empty"):
            builder.build()

    def test_build_with_goalless_hara_fails(self):
        builder = (
            Pipeline.builder("demo")
            .with_threat_library(uc1.build_catalog())
            .with_hara(Hara(name="empty"))
        )
        with pytest.raises(ValidationError, match="no safety goals"):
            builder.build()

    def test_bindings_without_complete_audit_leave_step4_open(self):
        relaxed = (
            Pipeline.builder("partial")
            .with_threat_library(uc1.build_catalog())
            .with_hara(uc1.build_hara())
            .with_bindings(uc1.build_bindings())
            .require_complete(False)
            .build()
        )
        assert relaxed.bindings is not None
        assert Step.IMPLEMENT_ATTACK not in relaxed.completed_steps()


class TestPipelineExecution:
    def test_bound_attack_ids_and_run(self):
        pipeline = uc2.pipeline_builder().build()
        assert pipeline.bound_attack_ids() == (
            "AD02", "AD03", "AD04", "AD08", "AD28",
        )
        execution = pipeline.run("AD08")
        assert execution.verdict.name == "ATTACK_FAILED"

    def test_run_unbound_attack_fails_loudly(self):
        pipeline = uc2.pipeline_builder().build()
        with pytest.raises(ValidationError, match="no executable binding"):
            pipeline.run("AD01")

    def test_verdicts_emit_pipeline_records(self):
        pipeline = uc2.pipeline_builder().build()
        records = pipeline.verdicts(["AD08", "AD02"])
        assert len(records) == 2
        assert {r.source for r in records} == {SOURCE_PIPELINE}
        assert {r.use_case for r in records} == {"uc2"}
        assert records.subjects() == ("AD08", "AD02")


class TestWorkspace:
    def test_use_cases_registered(self):
        workspace = Workspace()
        assert workspace.use_cases() == ("uc1", "uc2")
        with pytest.raises(ValidationError, match="unknown use case"):
            workspace.pipeline("uc9")

    def test_duplicate_registration_rejected(self):
        workspace = Workspace()
        with pytest.raises(ValidationError, match="already registered"):
            workspace.register(uc1.DEFINITION)

    def test_pipelines_are_cached(self):
        workspace = Workspace()
        assert workspace.pipeline("uc1") is workspace.pipeline("uc1")

    def test_run_accumulates_records(self):
        workspace = Workspace()
        execution = workspace.run("AD08", "uc2")
        assert execution.sut_passed
        results = workspace.results()
        assert len(results) == 1
        assert results.records[0].subject == "AD08"
        workspace.clear_results()
        assert len(workspace.results()) == 0

    def test_ad08_parity_across_all_three_paths(self):
        """Old direct path, Workspace.run and the campaign parity family
        land on the same AD08 outcome."""
        from repro.engine.campaign import execute_variant
        from repro.engine.registry import default_registry
        from repro.testing import TestHarness

        old = TestHarness().execute(
            uc2.build_bindings().compile(uc2.build_attacks().get("AD08"))
        )
        workspace = Workspace()
        new = workspace.run("AD08", "uc2")
        assert new.verdict is old.verdict
        assert (
            new.scenario_result.violated_goals()
            == old.scenario_result.violated_goals()
        )
        assert (
            new.scenario_result.detection_counts()
            == old.scenario_result.detection_counts()
        )

        campaign = workspace.campaign(family="parity", attack="AD08")
        direct = execute_variant(
            default_registry().variant("uc2/parity/ad08")
        )
        assert campaign.total == 1
        outcome = campaign.outcomes[0]
        assert outcome.verdict == old.verdict.name == direct.verdict
        assert outcome.violated_goals == direct.violated_goals
        assert outcome.detections == direct.detections

    @pytest.mark.slow
    def test_ad20_parity_through_workspace_campaign(self):
        """The AD20 campaign parity anchor lands on the seed verdict
        through the Workspace path (pinned by tests/test_usecases.py and
        tests/test_engine_campaign.py for the pre-redesign paths)."""
        workspace = Workspace()
        result = workspace.campaign(family="parity", attack="AD20")
        assert result.total == 1
        outcome = result.outcomes[0]
        assert outcome.verdict == "ATTACK_FAILED"
        assert outcome.violated_goals == ()
        assert dict(outcome.detections)["OBU"] > 0
        record = workspace.results().records[0]
        assert record.source == SOURCE_CAMPAIGN
        assert record.passed is True

    def test_campaign_records_join_the_result_set(self):
        workspace = Workspace()
        result = workspace.campaign(
            scenario="uc2-keyless-entry", family="zone-geometry"
        )
        records = workspace.results()
        assert len(records) == result.total == 3
        assert {r.family for r in records} == {"zone-geometry"}
        assert {r.use_case for r in records} == {"uc2"}

    def test_crosscheck_joins_the_result_set(self):
        from repro.model.ratings import ImpactRating
        from repro.tara.damage import DamageScenario, ImpactCategory

        workspace = Workspace()
        damage = DamageScenario(
            identifier="DS-02",
            description="Vehicle opened by an attacker without the owner "
                        "noticing",
            asset="Gateway",
            impacts=((ImpactCategory.SAFETY, ImpactRating.MAJOR),),
        )
        report = workspace.crosscheck("uc2", [damage])
        assert len(report.entries) == 1
        assert len(workspace.results()) == 1

    def test_collect_adapts_known_shapes_and_rejects_others(self):
        workspace = Workspace()
        execution = uc2.pipeline_builder().build().run("AD02")
        added = workspace.collect(execution.to_record(use_case="uc2"))
        assert len(added) == 1
        with pytest.raises(ValidationError, match="cannot adapt"):
            workspace.collect(object())


class TestUseCaseDefinition:
    def test_definitions_expose_declarative_stages(self):
        assert uc1.DEFINITION.key == "uc1"
        assert uc1.DEFINITION.title == uc1.USE_CASE_NAME
        assert dict(uc1.DEFINITION.justifications) == uc1.JUSTIFICATIONS
        assert uc2.DEFINITION.bindings is uc2.build_bindings

    def test_mapping_justifications_normalised(self):
        definition = UseCaseDefinition(
            key="demo",
            title="Demo",
            threat_library=uc1.build_catalog,
            hara=uc1.build_hara,
            attacks=uc1.build_attacks,
            justifications=dict(uc1.JUSTIFICATIONS),
        )
        assert isinstance(definition.justifications, tuple)
        assert definition.pipeline().report.complete

    def test_empty_key_rejected(self):
        with pytest.raises(ValidationError, match="needs a key"):
            UseCaseDefinition(
                key="",
                title="Demo",
                threat_library=uc1.build_catalog,
                hara=uc1.build_hara,
                attacks=uc1.build_attacks,
            )
