"""Tests for the four-step pipeline, traceability and reporting."""

import pytest

from repro.core.pipeline import (
    INPUT_SAFETY_ANALYSIS,
    INPUT_SCENARIO_DESCRIPTION,
    INPUT_SECURITY_ANALYSIS,
    INPUT_SUT_IMPLEMENTATION,
    SaSeValPipeline,
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


def fill_pipeline(pipeline, justify_rest=True):
    pipeline.provide_threat_library(build_catalog())
    pipeline.provide_safety_analysis(make_hara())
    deriver = pipeline.begin_attack_description()
    deriver.derive(
        description="flooding", safety_goal_ids=("SG01",),
        threat_id="2.1.4", attack_type_name="Disable", interface="OBU",
        precondition="p", expected_measures="m", attack_success="s",
        attack_fails="f",
    )
    if justify_rest:
        for threat in pipeline.library.threats:
            if threat.identifier != "2.1.4":
                pipeline.justify(threat.identifier, "not applicable")
    return deriver


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


class TestPipelineOrdering:
    def test_step3_requires_steps_1_and_2(self):
        pipeline = SaSeValPipeline(name="t")
        with pytest.raises(ValidationError, match="must complete"):
            pipeline.begin_attack_description()
        pipeline.provide_threat_library(build_catalog())
        with pytest.raises(ValidationError, match="must complete"):
            pipeline.begin_attack_description()

    def test_step2_requires_goals(self):
        pipeline = SaSeValPipeline(name="t")
        with pytest.raises(ValidationError, match="no safety goals"):
            pipeline.provide_safety_analysis(Hara(name="empty"))

    def test_full_run(self):
        pipeline = SaSeValPipeline(name="t")
        fill_pipeline(pipeline)
        report = pipeline.finish_attack_description()
        assert report.complete
        pipeline.mark_attacks_implemented()
        assert pipeline.is_complete()

    def test_incomplete_derivation_blocks_by_default(self):
        pipeline = SaSeValPipeline(name="t")
        fill_pipeline(pipeline, justify_rest=False)
        with pytest.raises(CoverageError):
            pipeline.finish_attack_description()

    def test_incomplete_derivation_reportable(self):
        pipeline = SaSeValPipeline(name="t")
        fill_pipeline(pipeline, justify_rest=False)
        report = pipeline.finish_attack_description(require_complete=False)
        assert not report.complete
        assert Step.ATTACK_DESCRIPTION not in pipeline.completed_steps()

    def test_step4_requires_step3(self):
        pipeline = SaSeValPipeline(name="t")
        fill_pipeline(pipeline, justify_rest=False)
        with pytest.raises(ValidationError):
            pipeline.mark_attacks_implemented()


class TestTraceMatrix:
    def test_bidirectional_traces(self):
        pipeline = SaSeValPipeline(name="t")
        fill_pipeline(pipeline)
        matrix = pipeline.trace_matrix()
        goal_trace = matrix.trace_goal("SG01")
        assert goal_trace.attack_ids == ("AD01",)
        assert goal_trace.threat_ids == ("2.1.4",)
        threat_trace = matrix.trace_threat("2.1.4")
        assert threat_trace.goal_ids == ("SG01",)

    def test_markdown_rendering(self):
        pipeline = SaSeValPipeline(name="t")
        fill_pipeline(pipeline)
        markdown = pipeline.trace_matrix().to_markdown()
        assert "SG01" in markdown
        assert "AD01" in markdown
        assert "2.1.4" in markdown

    def test_unknown_goal(self):
        pipeline = SaSeValPipeline(name="t")
        fill_pipeline(pipeline)
        with pytest.raises(ValidationError):
            pipeline.trace_matrix().trace_goal("SG99")


class TestReporting:
    def test_attack_rendering_matches_table_vi_rows(self):
        pipeline = SaSeValPipeline(name="t")
        deriver = fill_pipeline(pipeline)
        text = render_attack_description(deriver.results.get("AD01"))
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
        pipeline = SaSeValPipeline(name="t")
        fill_pipeline(pipeline)
        report = pipeline.finish_attack_description()
        text = render_completeness(report)
        assert "COMPLETE" in text
