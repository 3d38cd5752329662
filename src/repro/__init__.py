"""SaSeVAL: safety/security-aware validation of safety-critical systems.

A production-quality reproduction of *SaSeVAL* (Wolschke et al., DSN 2021):
a systematic process that derives security attacks traceable to safety
goals, plus everything needed to actually run them -- a threat library with
the STRIDE mappings, an ISO 26262 HARA engine, ISO/SAE 21434 TARA support,
an attack-description DSL compiling to executable test cases, and a
discrete-event automotive simulator (vehicle, CAN, V2X, Bluetooth keyless
entry, security controls, attack injectors) serving as the system under
test.

Quickstart (the :mod:`repro.api` facade)::

    from repro import Workspace

    ws = Workspace()                       # the paper's two use cases
    pipeline = ws.pipeline("uc1")          # Steps 1-3 + RQ1 audits
    print(len(pipeline.attacks), pipeline.report.complete)

    ws.run("AD08", "uc2")                  # execute a bound attack
    ws.campaign(family="parity")           # fan a variant family out
    print(ws.results().summary())          # one queryable ResultSet
    print(ws.results().to_markdown())      # ... with uniform exporters

Custom analyses use the immutable builder directly::

    from repro import Pipeline

    pipeline = (
        Pipeline.builder("demo")
        .with_threat_library(library)
        .with_hara(hara)
        .derive_attacks(lambda deriver: deriver.derive(...))
        .build()
    )

See ``examples/`` for complete end-to-end runs of the paper's two use
cases.
"""

from repro.api import (
    Pipeline,
    PipelineBuilder,
    UseCaseDefinition,
    Workspace,
    default_workspace,
)
from repro.core.completeness import CompletenessAuditor, CompletenessReport
from repro.core.derivation import AttackDeriver, AttackDescriptionSet
from repro.core.pipeline import Step, stage_graph
from repro.core.prioritization import Prioritizer, TestPlan
from repro.core.traceability import TraceMatrix
from repro.hara.analysis import Hara
from repro.hara.asil import determine_asil
from repro.model.attack import AttackCategory, AttackDescription
from repro.model.ratings import Asil
from repro.model.safety import SafetyConcern, SafetyGoal
from repro.model.threat import AttackType, StrideType, ThreatScenario
from repro.results import ResultSet, ResultSink, RunRecord
from repro.runtime import (
    CancelToken,
    ProcessBackend,
    Runtime,
    SerialBackend,
)
from repro.threatlib.builder import ThreatLibraryBuilder
from repro.threatlib.catalog import build_catalog
from repro.threatlib.library import ThreatLibrary

__version__ = "1.3.0"

__all__ = [
    "Asil",
    "AttackCategory",
    "AttackDeriver",
    "AttackDescription",
    "AttackDescriptionSet",
    "AttackType",
    "CancelToken",
    "CompletenessAuditor",
    "CompletenessReport",
    "Hara",
    "Pipeline",
    "PipelineBuilder",
    "Prioritizer",
    "ProcessBackend",
    "ResultSet",
    "ResultSink",
    "RunRecord",
    "Runtime",
    "SafetyConcern",
    "SafetyGoal",
    "SerialBackend",
    "Step",
    "StrideType",
    "TestPlan",
    "ThreatLibrary",
    "ThreatLibraryBuilder",
    "ThreatScenario",
    "TraceMatrix",
    "UseCaseDefinition",
    "Workspace",
    "__version__",
    "build_catalog",
    "default_workspace",
    "determine_asil",
    "stage_graph",
]
