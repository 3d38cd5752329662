"""The four SaSeVAL process steps and their data flow (paper Fig. 1).

* inputs: *Security analysis results* (e.g. TARA), *Scenario Description*,
  *Safety analysis results* (e.g. HARA), *SUT implementation* (for Step 4),
* **(1) Threat Library Creation** -> threat library,
* **(2) Safety Concern Identification** -> safety goals / concerns,
* **(3) Attack Description** -> attack descriptions (consuming 1 + 2),
* **(4) Implement Attack** -> executable test cases (consuming 3 + SUT).

:class:`Step` names the steps and :func:`stage_graph` exposes Fig. 1 as a
:mod:`networkx` digraph.  The steps themselves run in
:meth:`repro.api.PipelineBuilder.build`, which enforces their order
(3 needs 1 and 2; 4 needs 3).
"""

from __future__ import annotations

import enum

import networkx


class Step(enum.Enum):
    """The four process steps of Fig. 1."""

    THREAT_LIBRARY_CREATION = "(1) Threat Library Creation"
    SAFETY_CONCERN_IDENTIFICATION = "(2) Safety Concern Identification"
    ATTACK_DESCRIPTION = "(3) Attack Description"
    IMPLEMENT_ATTACK = "(4) Implement Attack"


#: Fig. 1 inputs (legend: "Input") feeding the process steps.
INPUT_SECURITY_ANALYSIS = "Security analysis results (e.g. TARA)"
INPUT_SCENARIO_DESCRIPTION = "Scenario Description"
INPUT_SAFETY_ANALYSIS = "Safety analysis results (e.g. HARA)"
INPUT_SUT_IMPLEMENTATION = "SUT Implementation"


def stage_graph() -> "networkx.DiGraph":
    """The Fig. 1 data-flow graph: inputs and steps as nodes.

    Node attribute ``kind`` is ``"input"`` or ``"step"``; edges follow the
    arrows of the figure.
    """
    graph = networkx.DiGraph()
    for name in (
        INPUT_SECURITY_ANALYSIS,
        INPUT_SCENARIO_DESCRIPTION,
        INPUT_SAFETY_ANALYSIS,
        INPUT_SUT_IMPLEMENTATION,
    ):
        graph.add_node(name, kind="input")
    for step in Step:
        graph.add_node(step.value, kind="step")
    graph.add_edge(INPUT_SECURITY_ANALYSIS, Step.THREAT_LIBRARY_CREATION.value)
    graph.add_edge(
        INPUT_SCENARIO_DESCRIPTION, Step.THREAT_LIBRARY_CREATION.value
    )
    graph.add_edge(
        INPUT_SAFETY_ANALYSIS, Step.SAFETY_CONCERN_IDENTIFICATION.value
    )
    graph.add_edge(
        Step.THREAT_LIBRARY_CREATION.value, Step.ATTACK_DESCRIPTION.value
    )
    graph.add_edge(
        Step.SAFETY_CONCERN_IDENTIFICATION.value,
        Step.ATTACK_DESCRIPTION.value,
    )
    graph.add_edge(Step.ATTACK_DESCRIPTION.value, Step.IMPLEMENT_ATTACK.value)
    graph.add_edge(INPUT_SUT_IMPLEMENTATION, Step.IMPLEMENT_ATTACK.value)
    return graph


__all__ = [
    "INPUT_SAFETY_ANALYSIS",
    "INPUT_SCENARIO_DESCRIPTION",
    "INPUT_SECURITY_ANALYSIS",
    "INPUT_SUT_IMPLEMENTATION",
    "Step",
    "stage_graph",
]
