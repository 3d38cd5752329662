"""Tests for the Fig. 1 step graph and order, traceability and reporting."""

import dataclasses

import pytest

from repro.api import Pipeline
from repro.core.pipeline import (
    INPUT_SAFETY_ANALYSIS,
    INPUT_SCENARIO_DESCRIPTION,
    INPUT_SECURITY_ANALYSIS,
    INPUT_SUT_IMPLEMENTATION,
    Step,
    stage_graph,
)
from repro.core.reporting import (
    render_asil_distribution,
    render_attack_description,
    render_completeness,
    render_hara_rating,
    render_hara_summary,
)
from repro.errors import CoverageError, ValidationError
from repro.hara.analysis import Hara
from repro.model.ratings import (
    Asil,
    Controllability as C,
    Exposure as E,
    FailureMode as FM,
    Severity as S,
)
from repro.threatlib.catalog import build_catalog


def make_hara():
    hara = Hara(name="t")
    hara.add_function("Rat01", "Road works warning")
    hara.rate(
        "Rat01", FM.NO, hazard="Driver not warned",
        hazardous_event="Crash into road works",
        severity=S.S3, exposure=E.E3, controllability=C.C3,
    )
    hara.derive_goal("Avoid missing warning", from_functions=["Rat01"])
    return hara


def flooding_attack(deriver):
    deriver.derive(
        description="flooding", safety_goal_ids=("SG01",),
        threat_id="2.1.4", attack_type_name="Disable", interface="OBU",
        precondition="p", expected_measures="m", attack_success="s",
        attack_fails="f",
    )


def build_pipeline():
    library = build_catalog()
    return (
        Pipeline.builder("t")
        .with_threat_library(library)
        .with_hara(make_hara())
        .derive_attacks(flooding_attack)
        .with_justifications(
            {
                threat.identifier: "not applicable"
                for threat in library.threats
                if threat.identifier != "2.1.4"
            }
        )
        .build()
    )


class TestStageGraph:
    def test_fig1_shape(self):
        graph = stage_graph()
        assert graph.number_of_nodes() == 8  # 4 inputs + 4 steps
        assert graph.number_of_edges() == 7

    def test_step3_depends_on_steps_1_and_2(self):
        graph = stage_graph()
        predecessors = set(graph.predecessors(Step.ATTACK_DESCRIPTION.value))
        assert Step.THREAT_LIBRARY_CREATION.value in predecessors
        assert Step.SAFETY_CONCERN_IDENTIFICATION.value in predecessors

    def test_step4_needs_sut(self):
        graph = stage_graph()
        predecessors = set(graph.predecessors(Step.IMPLEMENT_ATTACK.value))
        assert INPUT_SUT_IMPLEMENTATION in predecessors

    def test_graph_is_acyclic(self):
        import networkx

        assert networkx.is_directed_acyclic_graph(stage_graph())

    @pytest.mark.parametrize(
        "source, step",
        [
            (INPUT_SECURITY_ANALYSIS, Step.THREAT_LIBRARY_CREATION),
            (INPUT_SCENARIO_DESCRIPTION, Step.THREAT_LIBRARY_CREATION),
            (INPUT_SAFETY_ANALYSIS, Step.SAFETY_CONCERN_IDENTIFICATION),
        ],
    )
    def test_fig1_inputs_feed_their_step(self, source, step):
        assert stage_graph().has_edge(source, step.value)

    def test_fig1_topological_order(self):
        import networkx

        order = list(networkx.topological_sort(stage_graph()))
        steps = [
            order.index(step.value)
            for step in (
                Step.THREAT_LIBRARY_CREATION,
                Step.ATTACK_DESCRIPTION,
                Step.IMPLEMENT_ATTACK,
            )
        ]
        assert steps == sorted(steps)


def recording_stage(calls):
    def stage(deriver):
        calls.append(deriver)
        flooding_attack(deriver)
    return stage


class TestPipelineOrdering:
    """Fig. 1 step order, enforced by ``Pipeline.builder(...).build()``."""

    def test_step3_requires_steps_1_and_2(self):
        calls = []
        builder = Pipeline.builder("t").derive_attacks(recording_stage(calls))
        with pytest.raises(ValidationError, match="no threat library"):
            builder.build()
        builder = builder.with_threat_library(build_catalog())
        with pytest.raises(ValidationError, match="no safety analysis"):
            builder.build()
        assert calls == []  # Step 3 never began

    def test_step2_requires_goals(self):
        calls = []
        builder = (
            Pipeline.builder("t")
            .with_threat_library(build_catalog())
            .with_hara(Hara(name="empty"))
            .derive_attacks(recording_stage(calls))
        )
        with pytest.raises(ValidationError, match="no safety goals"):
            builder.build()
        assert calls == []

    def test_full_run(self):
        pipeline = build_pipeline()
        assert pipeline.report.complete
        assert pipeline.completed_steps() == (
            Step.THREAT_LIBRARY_CREATION,
            Step.SAFETY_CONCERN_IDENTIFICATION,
            Step.ATTACK_DESCRIPTION,
        )
        implemented = dataclasses.replace(pipeline, bindings=object())
        assert implemented.completed_steps() == tuple(Step)

    def test_incomplete_derivation_blocks_by_default(self):
        builder = (
            Pipeline.builder("t")
            .with_threat_library(build_catalog())
            .with_hara(make_hara())
            .derive_attacks(flooding_attack)
        )
        with pytest.raises(CoverageError):
            builder.build()

    def test_incomplete_derivation_reportable(self):
        pipeline = (
            Pipeline.builder("t")
            .with_threat_library(build_catalog())
            .with_hara(make_hara())
            .derive_attacks(flooding_attack)
            .require_complete(False)
            .build()
        )
        assert not pipeline.report.complete
        assert pipeline.report.deductively_complete
        uncovered = {
            entry.threat_id for entry in pipeline.report.uncovered_threats
        }
        assert uncovered and "2.1.4" not in uncovered
        assert Step.ATTACK_DESCRIPTION not in pipeline.completed_steps()

    def test_step4_requires_step3(self):
        pipeline = (
            Pipeline.builder("t")
            .with_threat_library(build_catalog())
            .with_hara(make_hara())
            .derive_attacks(flooding_attack)
            .with_bindings(object())
            .require_complete(False)
            .build()
        )
        assert pipeline.bindings is not None
        assert Step.ATTACK_DESCRIPTION not in pipeline.completed_steps()
        assert Step.IMPLEMENT_ATTACK not in pipeline.completed_steps()


class TestTraceMatrix:
    def test_bidirectional_traces(self):
        matrix = build_pipeline().trace_matrix()
        goal_trace = matrix.trace_goal("SG01")
        assert goal_trace.attack_ids == ("AD01",)
        assert goal_trace.threat_ids == ("2.1.4",)
        threat_trace = matrix.trace_threat("2.1.4")
        assert threat_trace.goal_ids == ("SG01",)

    def test_markdown_rendering(self):
        markdown = build_pipeline().trace_matrix().to_markdown()
        assert "SG01" in markdown
        assert "AD01" in markdown
        assert "2.1.4" in markdown

    def test_unknown_goal(self):
        with pytest.raises(ValidationError):
            build_pipeline().trace_matrix().trace_goal("SG99")

    def test_unknown_threat(self):
        matrix = build_pipeline().trace_matrix()
        with pytest.raises(ValidationError, match="unknown threat scenario"):
            matrix.trace_threat("9.9.9")


class TestReporting:
    def test_attack_rendering_matches_table_vi_rows(self):
        text = render_attack_description(build_pipeline().attacks.get("AD01"))
        for label in (
            "Attack Description", "SG IDs", "Interface / ECU",
            "Link to Threat Library", "Types", "Precondition",
            "Expected Measures", "Attack Success", "Attack Fails",
        ):
            assert label in text

    def test_ad20_rendering_has_every_table_vi_row(self):
        from repro.usecases import uc1

        text = render_attack_description(uc1.build_attacks().get("AD20"))
        for label in (
            "Attack Description", "SG IDs", "Interface / ECU",
            "Link to Threat Library", "Types", "Precondition",
            "Expected Measures", "Attack Success", "Attack Fails",
            "Attack impl. comments",
        ):
            assert label in text

    def test_hara_rating_rendering(self):
        hara = make_hara()
        text = render_hara_rating(hara.ratings[0])
        assert "E=3" in text
        assert "S=3" in text
        assert "C=3" in text
        assert "ASIL C" in text

    def test_distribution_rendering_matches_paper_phrasing(self):
        text = render_asil_distribution(
            {
                Asil.NOT_APPLICABLE: 5, Asil.QM: 5, Asil.A: 7,
                Asil.B: 3, Asil.C: 7, Asil.D: 2,
            }
        )
        assert text == (
            '5 for "N/A", 5 for "No ASIL", 7 for "ASIL A", 3 for "ASIL B", '
            '7 for "ASIL C", 2 for "ASIL D"'
        )

    def test_hara_summary(self):
        text = render_hara_summary(make_hara())
        assert "Functions analysed: 1" in text
        assert "SG01" in text

    def test_completeness_rendering(self):
        report = build_pipeline().report
        text = render_completeness(report)
        assert "COMPLETE" in text
