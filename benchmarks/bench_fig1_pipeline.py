"""Fig. 1 -- overview of the SaSeVAL approach (process data flow).

Regenerates the Fig. 1 stage graph (inputs + four process steps) and
verifies its structure: which inputs feed which steps and the step
ordering.  Also times a complete pipeline run (Steps 1-3 with audits) for
Use Case I, i.e. the whole boxed part of the figure.
"""

import _harness  # noqa: F401  (sys.path bootstrap + BENCH json writer)

import networkx

from repro.core.pipeline import (
    INPUT_SAFETY_ANALYSIS,
    INPUT_SCENARIO_DESCRIPTION,
    INPUT_SECURITY_ANALYSIS,
    INPUT_SUT_IMPLEMENTATION,
    Step,
    stage_graph,
)
from repro.usecases import uc1


def test_fig1_structure(benchmark):
    graph = benchmark(stage_graph)
    assert graph.number_of_nodes() == 8
    assert graph.number_of_edges() == 7
    assert networkx.is_directed_acyclic_graph(graph)

    def feeds(source, step):
        return graph.has_edge(source, step.value)

    assert feeds(INPUT_SECURITY_ANALYSIS, Step.THREAT_LIBRARY_CREATION)
    assert feeds(INPUT_SCENARIO_DESCRIPTION, Step.THREAT_LIBRARY_CREATION)
    assert feeds(INPUT_SAFETY_ANALYSIS, Step.SAFETY_CONCERN_IDENTIFICATION)
    assert feeds(INPUT_SUT_IMPLEMENTATION, Step.IMPLEMENT_ATTACK)
    order = list(networkx.topological_sort(graph))
    assert order.index(Step.THREAT_LIBRARY_CREATION.value) < order.index(
        Step.ATTACK_DESCRIPTION.value
    )
    assert order.index(Step.ATTACK_DESCRIPTION.value) < order.index(
        Step.IMPLEMENT_ATTACK.value
    )
    benchmark.extra_info["edges"] = [
        f"{source} -> {target}" for source, target in graph.edges
    ]


def test_fig1_full_pipeline_run(benchmark):
    """Time the complete Steps 1-3 walk of the figure for UC I."""
    pipeline = benchmark(lambda: uc1.pipeline_builder().build())
    assert pipeline.report.complete
if __name__ == "__main__":
    raise SystemExit(_harness.main(__file__))
