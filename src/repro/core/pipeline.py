"""The four-step SaSeVAL pipeline (paper Fig. 1).

The pipeline object sequences the process steps and enforces their data
dependencies:

* inputs: *Security analysis results* (e.g. TARA), *Scenario Description*,
  *Safety analysis results* (e.g. HARA), *SUT implementation* (for Step 4),
* **(1) Threat Library Creation** -> threat library,
* **(2) Safety Concern Identification** -> safety goals / concerns,
* **(3) Attack Description** -> attack descriptions (consuming 1 + 2),
* **(4) Implement Attack** -> executable test cases (consuming 3 + SUT).

Steps must complete in order (3 needs 1 and 2; 4 needs 3); the pipeline
tracks completion and hands each step the artifacts it needs.  The stage
graph of Fig. 1 is exposed as a :mod:`networkx` digraph
(:func:`stage_graph`).
"""

from __future__ import annotations

import dataclasses
import enum

import networkx

from repro.core.completeness import CompletenessAuditor, CompletenessReport
from repro.core.derivation import AttackDeriver, AttackDescriptionSet
from repro.core.traceability import TraceMatrix
from repro.errors import ValidationError
from repro.hara.analysis import Hara
from repro.model.safety import SafetyGoal
from repro.threatlib.library import ThreatLibrary


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


@dataclasses.dataclass
class SaSeValPipeline:
    """Stateful orchestration of the four SaSeVAL steps.

    Typical use::

        pipeline = SaSeValPipeline(name="Use Case I")
        pipeline.provide_threat_library(library)       # Step 1
        pipeline.provide_safety_analysis(hara)         # Step 2
        deriver = pipeline.begin_attack_description()  # Step 3
        deriver.derive(...)
        report = pipeline.finish_attack_description()
    """

    name: str
    _library: ThreatLibrary | None = None
    _hara: Hara | None = None
    _goals: tuple[SafetyGoal, ...] = ()
    _deriver: AttackDeriver | None = None
    _auditor: CompletenessAuditor | None = None
    _completed: set[Step] = dataclasses.field(default_factory=set)

    # -- Step 1 ----------------------------------------------------------

    def provide_threat_library(self, library: ThreatLibrary) -> None:
        """Complete Step 1 by supplying the (built) threat library."""
        if not library.threats:
            raise ValidationError(
                f"pipeline {self.name!r}: threat library is empty"
            )
        self._library = library
        self._completed.add(Step.THREAT_LIBRARY_CREATION)

    # -- Step 2 ----------------------------------------------------------

    def provide_safety_analysis(self, hara: Hara) -> None:
        """Complete Step 2 by supplying the HARA with derived goals."""
        if not hara.safety_goals:
            raise ValidationError(
                f"pipeline {self.name!r}: HARA has no safety goals; derive "
                "them before Step 2 completes"
            )
        self._hara = hara
        self._goals = hara.safety_goals
        self._completed.add(Step.SAFETY_CONCERN_IDENTIFICATION)

    # -- Step 3 ----------------------------------------------------------

    def begin_attack_description(self) -> AttackDeriver:
        """Open Step 3; returns the deriver bound to Steps 1 + 2 output.

        Raises:
            ValidationError: when Step 1 or Step 2 is not complete.
        """
        self._require(Step.THREAT_LIBRARY_CREATION)
        self._require(Step.SAFETY_CONCERN_IDENTIFICATION)
        assert self._library is not None
        self._deriver = AttackDeriver.create(
            self._library, list(self._goals), name=f"{self.name} attacks"
        )
        self._auditor = CompletenessAuditor(
            library=self._library,
            goals=self._goals,
            attacks=self._deriver.results,
        )
        return self._deriver

    def justify(self, threat_id: str, reason: str, author: str = "") -> None:
        """Record an inductive-audit justification during Step 3."""
        if self._auditor is None:
            raise ValidationError(
                f"pipeline {self.name!r}: begin Step 3 before justifying"
            )
        self._auditor.justify(threat_id, reason, author=author)

    def finish_attack_description(
        self, require_complete: bool = True
    ) -> CompletenessReport:
        """Close Step 3, running the RQ1 audits.

        With ``require_complete`` (the default) an incomplete derivation
        raises :class:`~repro.errors.CoverageError`; otherwise the report
        is returned for inspection and the step still completes only if
        the audit passed.
        """
        if self._deriver is None or self._auditor is None:
            raise ValidationError(
                f"pipeline {self.name!r}: Step 3 was never begun"
            )
        if require_complete:
            report = self._auditor.assert_complete()
        else:
            report = self._auditor.audit()
        if report.complete:
            self._completed.add(Step.ATTACK_DESCRIPTION)
        return report

    # -- Step 4 ----------------------------------------------------------

    def mark_attacks_implemented(self) -> None:
        """Complete Step 4 (test cases exist; see :mod:`repro.dsl`).

        The pipeline itself does not compile tests -- that is the DSL
        compiler's job -- but it tracks that the step happened so process
        state can be reported.
        """
        self._require(Step.ATTACK_DESCRIPTION)
        self._completed.add(Step.IMPLEMENT_ATTACK)

    # -- accessors ---------------------------------------------------------

    @property
    def library(self) -> ThreatLibrary:
        """The Step 1 threat library."""
        if self._library is None:
            raise ValidationError(f"pipeline {self.name!r}: no threat library")
        return self._library

    @property
    def hara(self) -> Hara:
        """The Step 2 safety analysis."""
        if self._hara is None:
            raise ValidationError(f"pipeline {self.name!r}: no HARA")
        return self._hara

    @property
    def goals(self) -> tuple[SafetyGoal, ...]:
        """The Step 2 safety goals."""
        return self._goals

    @property
    def attacks(self) -> AttackDescriptionSet:
        """The Step 3 attack descriptions derived so far."""
        if self._deriver is None:
            raise ValidationError(
                f"pipeline {self.name!r}: Step 3 was never begun"
            )
        return self._deriver.results

    def trace_matrix(self) -> TraceMatrix:
        """The goal/attack/threat traceability matrix."""
        return TraceMatrix(
            goals=list(self._goals),
            attacks=self.attacks,
            library=self._library,
        )

    def completed_steps(self) -> tuple[Step, ...]:
        """Steps completed so far, in process order."""
        return tuple(step for step in Step if step in self._completed)

    def is_complete(self) -> bool:
        """True when all four steps are done."""
        return len(self._completed) == len(tuple(Step))

    def _require(self, step: Step) -> None:
        if step not in self._completed:
            raise ValidationError(
                f"pipeline {self.name!r}: step {step.value!r} must complete "
                "first"
            )


__all__ = [
    "INPUT_SAFETY_ANALYSIS",
    "INPUT_SCENARIO_DESCRIPTION",
    "INPUT_SECURITY_ANALYSIS",
    "INPUT_SUT_IMPLEMENTATION",
    "SaSeValPipeline",
    "Step",
    "stage_graph",
]
