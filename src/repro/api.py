"""The unified facade: immutable pipeline builder + :class:`Workspace`.

The paper's four-step process (Fig. 1) has one front door, in three
pieces:

* :class:`PipelineBuilder` -- an immutable, fluent builder.  Every
  ``with_*`` call returns a **new** builder; nothing mutates, so partial
  configurations can be shared, forked and replayed safely::

      pipeline = (
          Pipeline.builder("Use Case I")
          .with_threat_library(build_catalog())
          .with_hara(build_hara())
          .derive_attacks(lambda deriver: build_attacks(deriver.library))
          .with_justifications(JUSTIFICATIONS, author="UC1 analysis")
          .with_bindings(build_bindings())
          .build()
      )

* :class:`Pipeline` -- the frozen, fully-audited artifact ``build()``
  returns: library, HARA, derived attacks, the RQ1 completeness report
  and (optionally) the Step-4 bindings.  ``run()``/``verdicts()`` execute
  bound attacks and emit uniform :mod:`repro.results` records.

* :class:`Workspace` -- the one entry point consumers (CLI, examples,
  notebooks) talk to: declaratively registered use cases
  (:class:`UseCaseDefinition`), cached pipelines, campaign execution over
  the scenario registry, TARA-HARA cross-checks -- with every operation's
  outcome accumulated into a single queryable
  :class:`~repro.results.ResultSet`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterable, Mapping

from repro.core.completeness import CompletenessAuditor, CompletenessReport
from repro.core.derivation import AttackDeriver, AttackDescriptionSet
from repro.core.pipeline import Step
from repro.core.traceability import TraceMatrix
from repro.errors import ValidationError
from repro.hara.analysis import Hara
from repro.model.attack import AttackDescription
from repro.model.safety import SafetyGoal
from repro.results import ResultSet, RunRecord
from repro.testing.harness import TestHarness
from repro.testing.testcase import TestExecution
from repro.threatlib.library import ThreatLibrary

#: A Step-3 derivation stage: receives the bound deriver and either calls
#: ``deriver.derive(...)`` itself or returns descriptions to be added.
DeriveStage = Callable[[AttackDeriver], "Iterable[AttackDescription] | None"]


@dataclasses.dataclass(frozen=True)
class PipelineBuilder:
    """Immutable, fluent configuration of the four SaSeVAL steps.

    Builders are value objects: every ``with_*`` method returns a new
    builder with one field replaced, so a half-configured builder can be
    stored, branched per experiment, and rebuilt any number of times.
    ``build()`` executes Steps 1-3 (plus the RQ1 audits) and returns the
    frozen :class:`Pipeline`.
    """

    name: str
    use_case: str = ""
    library: ThreatLibrary | None = None
    hara: Hara | None = None
    stages: tuple[DeriveStage, ...] = ()
    justifications: tuple[tuple[str, str, str], ...] = ()
    bindings: Any | None = None
    strict: bool = True

    # -- fluent configuration ----------------------------------------------

    def with_threat_library(self, library: ThreatLibrary) -> "PipelineBuilder":
        """Step 1: the (built) threat library."""
        return dataclasses.replace(self, library=library)

    def with_hara(self, hara: Hara) -> "PipelineBuilder":
        """Step 2: the safety analysis with derived goals."""
        return dataclasses.replace(self, hara=hara)

    def derive_attacks(
        self,
        stage: "DeriveStage | Iterable[AttackDescription]",
    ) -> "PipelineBuilder":
        """Step 3: register a derivation stage.

        ``stage`` is either a callable receiving the bound
        :class:`~repro.core.derivation.AttackDeriver` (call
        ``deriver.derive(...)`` or return descriptions to add), or a
        ready iterable of attack descriptions.  Stages run in
        registration order at :meth:`build` time.
        """
        if not callable(stage):
            descriptions = tuple(stage)
            stage = lambda deriver: descriptions  # noqa: E731
        return dataclasses.replace(self, stages=self.stages + (stage,))

    def justify(
        self, threat_id: str, reason: str, author: str = ""
    ) -> "PipelineBuilder":
        """Record one inductive-audit justification (RQ1)."""
        return dataclasses.replace(
            self,
            justifications=self.justifications + ((threat_id, reason, author),),
        )

    def with_justifications(
        self, justifications: Mapping[str, str], author: str = ""
    ) -> "PipelineBuilder":
        """Record a batch of threat-id -> reason justifications."""
        added = tuple(
            (threat_id, reason, author)
            for threat_id, reason in justifications.items()
        )
        return dataclasses.replace(
            self, justifications=self.justifications + added
        )

    def with_bindings(self, bindings: Any) -> "PipelineBuilder":
        """Step 4: the executable-binding registry for the attacks."""
        return dataclasses.replace(self, bindings=bindings)

    def require_complete(self, flag: bool = True) -> "PipelineBuilder":
        """Whether ``build()`` raises on an incomplete RQ1 audit."""
        return dataclasses.replace(self, strict=flag)

    # -- terminal ----------------------------------------------------------

    def build(self) -> "Pipeline":
        """Run Steps 1-3 plus the audits; return the frozen pipeline.

        Raises:
            ValidationError: when a required stage is missing or empty.
            CoverageError: when strict (the default) and the derivation
                does not pass the completeness audit.
        """
        if self.library is None:
            raise ValidationError(
                f"pipeline {self.name!r}: no threat library staged "
                "(use with_threat_library)"
            )
        if not self.library.threats:
            raise ValidationError(
                f"pipeline {self.name!r}: threat library is empty"
            )
        if self.hara is None:
            raise ValidationError(
                f"pipeline {self.name!r}: no safety analysis staged "
                "(use with_hara)"
            )
        if not self.hara.safety_goals:
            raise ValidationError(
                f"pipeline {self.name!r}: HARA has no safety goals; derive "
                "them before Step 2 completes"
            )
        deriver = AttackDeriver.create(
            self.library,
            list(self.hara.safety_goals),
            name=f"{self.name} attacks",
        )
        for stage in self.stages:
            produced = stage(deriver)
            if produced is None:
                continue
            for attack in produced:
                if (
                    attack.identifier in deriver.results
                    and deriver.results.get(attack.identifier) is attack
                ):
                    continue  # the stage derived straight into the set
                deriver.results.add(attack)
        auditor = CompletenessAuditor(
            library=self.library,
            goals=tuple(self.hara.safety_goals),
            attacks=deriver.results,
        )
        for threat_id, reason, author in self.justifications:
            auditor.justify(threat_id, reason, author=author)
        report = auditor.assert_complete() if self.strict else auditor.audit()
        return Pipeline(
            name=self.name,
            use_case=self.use_case,
            library=self.library,
            hara=self.hara,
            attacks=deriver.results,
            report=report,
            bindings=self.bindings,
            justifications=self.justifications,
            strict=self.strict,
        )


@dataclasses.dataclass(frozen=True)
class Pipeline:
    """A fully-built, audited SaSeVAL pipeline (the builder's product).

    There is no step protocol to sequence and no partially-initialised
    state to query around: a :class:`Pipeline` either exists (Steps 1-3
    ran, the audits were evaluated) or it does not.
    """

    name: str
    library: ThreatLibrary
    hara: Hara
    attacks: AttackDescriptionSet
    report: CompletenessReport
    use_case: str = ""
    bindings: Any | None = None
    justifications: tuple[tuple[str, str, str], ...] = ()
    strict: bool = True

    @staticmethod
    def builder(name: str, use_case: str = "") -> PipelineBuilder:
        """Start a fresh immutable builder."""
        return PipelineBuilder(name=name, use_case=use_case)

    # -- accessors ---------------------------------------------------------

    @property
    def goals(self) -> tuple[SafetyGoal, ...]:
        """The Step 2 safety goals."""
        return self.hara.safety_goals

    def trace_matrix(self) -> TraceMatrix:
        """The goal/attack/threat traceability matrix."""
        return TraceMatrix(
            goals=list(self.goals),
            attacks=self.attacks,
            library=self.library,
        )

    def completed_steps(self) -> tuple[Step, ...]:
        """Process steps this pipeline covers (Step 4 iff bindings exist)."""
        steps = [
            Step.THREAT_LIBRARY_CREATION,
            Step.SAFETY_CONCERN_IDENTIFICATION,
        ]
        if self.report.complete:
            steps.append(Step.ATTACK_DESCRIPTION)
        if self.bindings is not None and self.report.complete:
            steps.append(Step.IMPLEMENT_ATTACK)
        return tuple(steps)

    def bound_attack_ids(self) -> tuple[str, ...]:
        """Attack ids with an executable Step-4 binding."""
        if self.bindings is None:
            return ()
        return tuple(
            attack.identifier
            for attack in self.attacks
            if self.bindings.can_compile(attack)
        )

    # -- execution ---------------------------------------------------------

    def run(self, attack_id: str) -> TestExecution:
        """Execute one bound attack against the simulator."""
        if self.bindings is None:
            raise ValidationError(
                f"pipeline {self.name!r}: no bindings staged "
                "(use with_bindings)"
            )
        attack = self.attacks.get(attack_id)
        if not self.bindings.can_compile(attack):
            raise ValidationError(
                f"{attack_id} has no executable binding in pipeline "
                f"{self.name!r}"
            )
        return TestHarness().execute(self.bindings.compile(attack))

    def verdicts(
        self, attack_ids: Iterable[str] | None = None
    ) -> ResultSet:
        """Run bound attacks; the verdicts as pipeline-verdict records."""
        selected = (
            tuple(attack_ids)
            if attack_ids is not None
            else self.bound_attack_ids()
        )
        return ResultSet.of(
            self.run(attack_id).to_record(use_case=self.use_case)
            for attack_id in selected
        )


@dataclasses.dataclass(frozen=True)
class UseCaseDefinition:
    """A use case as declarative stage registrations (pure data + factories).

    A definition names the factories for each process step; the
    :class:`Workspace`/:class:`PipelineBuilder` machinery does the
    sequencing.

    Attributes:
        key: Short registry key (``"uc1"``).
        title: Human title (the paper's use-case name).
        threat_library: Step 1 factory.
        hara: Step 2 factory.
        attacks: Step 3 factory; receives the built threat library.
        justifications: Threat-id -> reason map for the inductive audit.
        bindings: Step 4 factory (binding registry), or ``None``.
        author: Recorded on each justification.
    """

    key: str
    title: str
    threat_library: Callable[[], ThreatLibrary]
    hara: Callable[[], Hara]
    attacks: Callable[[ThreatLibrary], Iterable[AttackDescription]]
    justifications: tuple[tuple[str, str], ...] = ()
    bindings: Callable[[], Any] | None = None
    author: str = ""

    def __post_init__(self) -> None:
        if not self.key:
            raise ValidationError("use-case definition needs a key")
        if isinstance(self.justifications, Mapping):
            object.__setattr__(
                self, "justifications", tuple(self.justifications.items())
            )

    def builder(self) -> PipelineBuilder:
        """A fresh immutable builder staged with this definition."""
        attacks = self.attacks
        builder = (
            Pipeline.builder(self.title, use_case=self.key)
            .with_threat_library(self.threat_library())
            .with_hara(self.hara())
            .derive_attacks(lambda deriver: attacks(deriver.library))
            .with_justifications(dict(self.justifications), author=self.author)
        )
        if self.bindings is not None:
            builder = builder.with_bindings(self.bindings())
        return builder

    def pipeline(self) -> Pipeline:
        """Build the use case's pipeline (Steps 1-3 + audits)."""
        return self.builder().build()


class Workspace:
    """The facade every consumer talks to.

    A workspace holds the registered use cases, builds (and caches) their
    pipelines, fans campaigns out over the scenario registry, and
    accumulates every operation's outcome into one uniform
    :class:`~repro.results.ResultSet` -- so the CLI, the examples and
    interactive analysis all query the same shape instead of four
    bespoke ones.
    """

    def __init__(
        self,
        definitions: Iterable[UseCaseDefinition] | None = None,
        registry: Any | None = None,
    ) -> None:
        if definitions is None:
            definitions = _default_definitions()
        self._definitions: dict[str, UseCaseDefinition] = {}
        for definition in definitions:
            self.register(definition)
        self._registry = registry
        self._pipelines: dict[str, Pipeline] = {}
        self._records: list[RunRecord] = []

    # -- use cases ---------------------------------------------------------

    def register(self, definition: UseCaseDefinition) -> UseCaseDefinition:
        """Register a use case; duplicate keys fail loudly."""
        if definition.key in self._definitions:
            raise ValidationError(
                f"use case {definition.key!r} already registered"
            )
        self._definitions[definition.key] = definition
        return definition

    def use_cases(self) -> tuple[str, ...]:
        """Registered use-case keys, in registration order."""
        return tuple(self._definitions)

    def definition(self, use_case: str) -> UseCaseDefinition:
        """One registered definition by key."""
        if use_case not in self._definitions:
            raise ValidationError(
                f"unknown use case {use_case!r} "
                f"(known: {sorted(self._definitions)})"
            )
        return self._definitions[use_case]

    def pipeline(self, use_case: str) -> Pipeline:
        """The use case's built pipeline (cached per workspace)."""
        if use_case not in self._pipelines:
            self._pipelines[use_case] = self.definition(use_case).pipeline()
        return self._pipelines[use_case]

    # -- execution ---------------------------------------------------------

    def run(self, attack_id: str, use_case: str) -> TestExecution:
        """Execute one bound attack; its verdict joins the result set."""
        pipeline = self.pipeline(use_case)
        execution = pipeline.run(attack_id)
        self._records.append(execution.to_record(use_case=use_case))
        return execution

    def verdicts(
        self, use_case: str, attack_ids: Iterable[str] | None = None
    ) -> ResultSet:
        """Run (all) bound attacks of a use case; collect the verdicts."""
        produced = self.pipeline(use_case).verdicts(attack_ids)
        self._records.extend(produced)
        return produced

    def campaign(
        self,
        scenario: str | None = None,
        family: str | None = None,
        attack: str | None = None,
        limit: int | None = None,
        variants: Iterable[Any] | None = None,
        *,
        use_case: str | None = None,
        fleet_size: int | None = None,
        rsu_range_m: float | None = None,
        backend: Any | None = None,
        jobs: int | None = None,
        on_error: str = "raise",
        on_event: Any | None = None,
        cancel: Any | None = None,
        retry: Any | None = None,
        deadline_s: float | None = None,
    ):
        """Run a scenario campaign; outcomes **stream** into the result set.

        Filters mirror :meth:`repro.engine.registry.ScenarioRegistry
        .variants` (``use_case`` narrows to one use case's scenarios);
        pass ``variants`` to run an explicit list instead.
        ``fleet_size``/``rsu_range_m`` reshape the selection's
        topology-capable variants (convoy size, RSU transmit range)
        through :func:`~repro.engine.registry.apply_topology_overrides`.
        ``backend``/``jobs`` pick where variants run, resolved by
        :func:`~repro.runtime.backend_from_spec`; a backend built here
        from a name is shut down after the run.  Verdicts are
        backend-independent by construction.  The other options are
        :class:`~repro.engine.campaign.CampaignConfig` fields, passed
        through to :func:`~repro.engine.campaign.run_campaign`.  Each
        outcome's record joins the workspace result set the moment its
        job completes, so :meth:`results` reflects a still-running
        campaign when called from an ``on_event`` callback.  Returns the
        :class:`~repro.engine.campaign.CampaignResult`.
        """
        # Imported lazily: the engine pulls in the whole simulator stack,
        # which pipeline-only workspace uses should not pay for.
        from repro.engine.campaign import run_campaign
        from repro.engine.registry import (
            apply_topology_overrides,
            default_registry,
        )
        from repro.results import ResultSink
        from repro.runtime import backend_from_spec

        registry = self._registry or default_registry()
        if variants is None:
            variants = registry.variants(
                scenario=scenario,
                family=family,
                attack=attack,
                limit=limit,
                use_case=use_case,
            )
        if fleet_size is not None or rsu_range_m is not None:
            variants = apply_topology_overrides(
                variants,
                registry,
                fleet_size=fleet_size,
                rsu_range_m=rsu_range_m,
            )
        resolved = backend_from_spec(backend, jobs)
        try:
            return run_campaign(
                variants,
                backend=resolved,
                registry=registry,
                on_error=on_error,
                on_event=on_event,
                cancel=cancel,
                sink=ResultSink(on_record=self._records.append),
                retry=retry,
                deadline_s=deadline_s,
            )
        finally:
            if backend is None or isinstance(backend, str):
                resolved.shutdown()

    def crosscheck(
        self,
        use_case: str,
        damage_scenarios: list,
        min_overlap: float = 0.2,
    ):
        """TARA-HARA cross-check against a use case's HARA ratings.

        Returns the :class:`~repro.tara.crosscheck.CrossCheckReport`;
        its entries join the result set.
        """
        from repro.tara.crosscheck import cross_check

        report = cross_check(
            damage_scenarios,
            list(self.pipeline(use_case).hara.ratings),
            min_overlap=min_overlap,
        )
        self._records.extend(report.to_result_set())
        return report

    def collect(self, produced: Any) -> ResultSet:
        """Adapt any adaptable result object into the workspace set.

        Accepts anything with ``to_result_set()`` (campaign results, fuzz
        reports, cross-check reports, test-campaign reports) or
        ``to_record()`` (single outcomes), plus raw records and sets.
        """
        if isinstance(produced, ResultSet):
            records: Iterable[RunRecord] = produced
        elif isinstance(produced, RunRecord):
            records = (produced,)
        elif hasattr(produced, "to_result_set"):
            records = produced.to_result_set()
        elif hasattr(produced, "to_record"):
            records = (produced.to_record(),)
        else:
            raise ValidationError(
                f"cannot adapt {type(produced).__name__} into run records"
            )
        added = ResultSet.of(records)
        self._records.extend(added)
        return added

    # -- the accumulated result set ---------------------------------------

    def results(self) -> ResultSet:
        """Everything this workspace has executed, as one queryable set."""
        return ResultSet(records=tuple(self._records))

    def clear_results(self) -> None:
        """Drop the accumulated records (pipelines stay cached)."""
        self._records.clear()


def _default_definitions() -> tuple[UseCaseDefinition, ...]:
    """The paper's two use cases (imported lazily to avoid cycles)."""
    from repro.usecases import uc1, uc2

    return (uc1.DEFINITION, uc2.DEFINITION)


def default_workspace() -> Workspace:
    """A workspace over the stock use cases and scenario registry."""
    return Workspace()


__all__ = [
    "DeriveStage",
    "Pipeline",
    "PipelineBuilder",
    "UseCaseDefinition",
    "Workspace",
    "default_workspace",
]
