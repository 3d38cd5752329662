"""SaSeVAL core: the paper's primary contribution (§III).

* :mod:`repro.core.pipeline` -- the four steps of Fig. 1 and their graph,
* :mod:`repro.core.derivation` -- Step 3 attack-description derivation,
* :mod:`repro.core.completeness` -- the RQ1 deductive/inductive audits,
* :mod:`repro.core.prioritization` -- the RQ2 test-space reduction,
* :mod:`repro.core.traceability` -- goal/attack/threat trace matrix,
* :mod:`repro.core.reporting` -- review-ready rendering.
"""

from repro.core.completeness import (
    CompletenessAuditor,
    CompletenessReport,
    GoalCoverage,
    Justification,
    ThreatCoverage,
)
from repro.core.derivation import AttackDeriver, AttackDescriptionSet
from repro.core.pipeline import (
    INPUT_SAFETY_ANALYSIS,
    INPUT_SCENARIO_DESCRIPTION,
    INPUT_SECURITY_ANALYSIS,
    INPUT_SUT_IMPLEMENTATION,
    Step,
    stage_graph,
)
from repro.core.prioritization import (
    ASIL_WEIGHTS,
    PrioritizedAttack,
    Prioritizer,
    TestPlan,
    attack_asil,
)
from repro.core.reporting import (
    render_asil_distribution,
    render_attack_description,
    render_completeness,
    render_hara_rating,
    render_hara_summary,
)
from repro.core.traceability import GoalTrace, ThreatTrace, TraceMatrix

__all__ = [
    "ASIL_WEIGHTS",
    "AttackDeriver",
    "AttackDescriptionSet",
    "CompletenessAuditor",
    "CompletenessReport",
    "GoalCoverage",
    "GoalTrace",
    "INPUT_SAFETY_ANALYSIS",
    "INPUT_SCENARIO_DESCRIPTION",
    "INPUT_SECURITY_ANALYSIS",
    "INPUT_SUT_IMPLEMENTATION",
    "Justification",
    "PrioritizedAttack",
    "Prioritizer",
    "Step",
    "TestPlan",
    "ThreatCoverage",
    "ThreatTrace",
    "TraceMatrix",
    "attack_asil",
    "render_asil_distribution",
    "render_attack_description",
    "render_completeness",
    "render_hara_rating",
    "render_hara_summary",
    "stage_graph",
]
