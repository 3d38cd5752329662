"""The campaign runner: fan scenario x attack x control combos across workers.

``execute_variant`` runs one :class:`~repro.engine.spec.VariantSpec` end
to end: bound attack descriptions (``AD20``, ``AD08``, ...) go through the
use case's Step-4 binding and the published oracles -- with the scenario
rebuilt from the registry spec instead of the hard-coded class -- while
catalog attacks and unattacked sweeps derive their verdict directly from
the safety monitor (any violated goal counts as a successful attack).

``run_campaign`` (input-ordered aggregate) and ``iter_campaign``
(streaming) are the only campaign entry points.  Both take their options
as keywords -- the fields of :class:`CampaignConfig`, validated once --
and feed one private ``(index, outcome)`` stream.  That stream maps one
job function over the variants with :meth:`repro.runtime.Runtime.map`
on any :mod:`repro.runtime` backend, one variant per task.  Variants
and outcomes are plain dataclasses that pickle, so process fan-out works
under both ``fork`` and ``spawn`` start methods.  Outcomes stream: each
one's record is pushed into an optional
:class:`~repro.results.ResultSink` the moment it exists, so long
campaigns can export partial results, report progress and honour
cooperative cancellation.  A failed job never crashes the campaign
machinery: with ``on_error="record"`` it becomes a tagged ``ERROR``
outcome, and with the default ``on_error="raise"`` it surfaces as a
:class:`~repro.errors.VariantExecutionError` naming the variant.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Protocol,
    runtime_checkable,
)

from repro.engine.attacks import arm_catalog_attack
from repro.engine.registry import ScenarioRegistry, default_registry
from repro.engine.spec import VariantSpec
from repro.errors import (
    DeadlineExceededError,
    ValidationError,
    VariantExecutionError,
)
from repro.faults import fault_point
from repro.results import (
    SOURCE_CAMPAIGN,
    ResultSet,
    ResultSink,
    RunRecord,
    freeze_items,
)
from repro.runtime import (
    CancelToken,
    ExecutionBackend,
    JobError,
    ProgressEvent,
    RetryPolicy,
    Runtime,
    backend_from_spec,
)
from repro.testing.harness import TestHarness
from repro.testing.testcase import TestCase, Verdict

#: Verdict label of an outcome whose worker-side execution raised.
ERROR_VERDICT = "ERROR"


@dataclasses.dataclass(frozen=True)
class VariantOutcome:
    """The plain-data record of one executed variant.

    Every field is a primitive (or tuple/dict of primitives) so outcomes
    cross process boundaries and serialise without ceremony.
    """

    variant_id: str
    scenario: str
    family: str
    attack: str | None
    verdict: str
    violated_goals: tuple[str, ...]
    violations: tuple[tuple[float, str, str], ...]
    detections: tuple[tuple[str, int], ...]
    detections_by_control: tuple[tuple[str, tuple[tuple[str, int], ...]], ...]
    stats: dict[str, Any]
    duration_ms: float
    wall_time_s: float
    notes: str = ""
    #: True when this outcome was served from a content-addressed memo
    #: store (:mod:`repro.service.memo`) instead of being re-executed.
    from_cache: bool = False

    @property
    def sut_passed(self) -> bool:
        """True when the SUT withstood (or nothing was violated)."""
        return self.verdict == Verdict.ATTACK_FAILED.name

    @property
    def is_error(self) -> bool:
        """True when this outcome records a worker-side failure."""
        return self.verdict == ERROR_VERDICT

    def detections_of(self, ecu: str, control: str | None = None) -> int:
        """Detection count of one ECU (optionally one control)."""
        if control is None:
            return dict(self.detections).get(ecu, 0)
        per_ecu = dict(self.detections_by_control).get(ecu, ())
        return dict(per_ecu).get(control, 0)

    def to_payload(self) -> dict[str, Any]:
        """Plain-dict form for the wire and the memo journal.

        A shallow ``{field: value}`` map over every dataclass field.
        Values are passed through, not copied: they are tuples of
        primitives plus a ``stats`` dict that nothing mutates after
        construction (payloads and memo hits share it), and
        ``json.dumps`` writes tuples as it writes lists, so the JSON
        equals that of ``dataclasses.asdict``.
        """
        return {name: getattr(self, name) for name in _OUTCOME_FIELDS}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "VariantOutcome":
        """Rebuild an outcome from :meth:`to_payload` output or its JSON
        round trip.

        Raises:
            KeyError, TypeError, ValueError: when ``payload`` is not a
                complete outcome.
        """
        data = dict(payload)
        data["violated_goals"] = tuple(data["violated_goals"])
        data["violations"] = tuple(tuple(v) for v in data["violations"])
        data["detections"] = tuple(tuple(d) for d in data["detections"])
        data["detections_by_control"] = tuple(
            (ecu, tuple(tuple(item) for item in counts))
            for ecu, counts in data["detections_by_control"]
        )
        return cls(**data)

    def to_record(self) -> RunRecord:
        """This outcome as a uniform :class:`~repro.results.RunRecord`."""
        use_case = self.scenario.split("-", 1)[0]
        if use_case not in ("uc1", "uc2"):
            use_case = ""
        attrs = {"scenario": self.scenario}
        if self.attack:
            attrs["attack"] = self.attack
        if self.is_error and "error_type" in self.stats:
            attrs["error_type"] = str(self.stats["error_type"])
        if self.from_cache:
            attrs["cached"] = "true"
        return RunRecord(
            source=SOURCE_CAMPAIGN,
            subject=self.variant_id,
            verdict=self.verdict,
            passed=False if self.is_error else self.sut_passed,
            use_case=use_case,
            family=self.family,
            goals=self.violated_goals,
            metrics=freeze_items(
                {
                    "duration_ms": self.duration_ms,
                    "wall_time_s": self.wall_time_s,
                    "violations": len(self.violations),
                    "detections": sum(
                        count for _, count in self.detections
                    ),
                }
            ),
            attrs=freeze_items(attrs),
            notes=self.notes,
        )


_OUTCOME_FIELDS = tuple(field.name for field in dataclasses.fields(VariantOutcome))


@functools.lru_cache(maxsize=None)
def _bound_test(use_case: str, attack_id: str) -> TestCase:
    """The Step-4 test case for a bound attack (cached per process)."""
    from repro.usecases import uc1, uc2

    module = {"uc1": uc1, "uc2": uc2}[use_case]
    attacks = module.build_attacks()
    if attack_id not in attacks:
        raise ValidationError(f"no attack {attack_id} in {use_case}")
    registry = module.build_bindings()
    attack = attacks.get(attack_id)
    if not registry.can_compile(attack):
        raise ValidationError(
            f"{attack_id} has no executable binding in {use_case}"
        )
    return registry.compile(attack)


def _result_violations(result) -> tuple[tuple[float, str, str], ...]:
    return tuple(
        (violation.time, violation.goal_id, violation.detail)
        for violation in result.violations
    )


def _result_detections(
    result,
) -> tuple[tuple[tuple[str, int], ...], tuple]:
    """(total per ECU, per-ECU per-control counts), both as sorted
    tuples, from the pipelines' incremental counts."""
    counts = result.detection_control_counts
    totals = tuple(sorted(result.detection_counts().items()))
    by_control = tuple(
        (ecu, tuple(sorted(counts[ecu].items()))) for ecu in sorted(counts)
    )
    return totals, by_control


def execute_variant(
    variant: VariantSpec,
    registry: ScenarioRegistry | None = None,
) -> VariantOutcome:
    """Execute one variant end to end and derive its verdict."""
    registry = registry or default_registry()
    spec = registry.get(variant.scenario)
    started = time.perf_counter()

    if variant.uses_bound_attack:
        template = _bound_test(spec.use_case, variant.attack)
        test = dataclasses.replace(
            template,
            build_scenario=lambda: spec.build(variant.params),
            duration_ms=variant.duration_ms or template.duration_ms,
        )
        execution = TestHarness().execute(test)
        result = execution.scenario_result
        detections, by_control = _result_detections(result)
        return VariantOutcome(
            variant_id=variant.variant_id,
            scenario=variant.scenario,
            family=variant.family,
            attack=variant.attack,
            verdict=execution.verdict.name,
            violated_goals=result.violated_goals(),
            violations=_result_violations(result),
            detections=detections,
            detections_by_control=by_control,
            stats=result.stats,
            duration_ms=test.duration_ms,
            wall_time_s=time.perf_counter() - started,
            notes=execution.notes,
        )

    scenario = spec.build(variant.params)
    if variant.attack is not None:
        arm_catalog_attack(scenario, variant.attack, variant.attack_params_dict())
    duration_ms = (
        variant.duration_ms
        if variant.duration_ms is not None
        else type(scenario).DEFAULT_DURATION_MS
    )
    result = scenario.run(duration_ms)
    violated = result.violated_goals()
    verdict = Verdict.ATTACK_SUCCEEDED if violated else Verdict.ATTACK_FAILED
    notes = (
        f"violated {', '.join(violated)}"
        if violated
        else "no safety goal violated"
    )
    if variant.attack is None or variant.attack == "owner-cycle":
        notes += " (no attacker; verdict reflects violation presence)"
    detections, by_control = _result_detections(result)
    return VariantOutcome(
        variant_id=variant.variant_id,
        scenario=variant.scenario,
        family=variant.family,
        attack=variant.attack,
        verdict=verdict.name,
        violated_goals=violated,
        violations=_result_violations(result),
        detections=detections,
        detections_by_control=by_control,
        stats=result.stats,
        duration_ms=duration_ms,
        wall_time_s=time.perf_counter() - started,
        notes=notes,
    )


# -- worker-side execution ----------------------------------------------------

def _execute_checked(
    variant: VariantSpec,
    registry: ScenarioRegistry | None = None,
    default_deadline_s: float | None = None,
) -> VariantOutcome:
    """:func:`execute_variant` under the fault-tolerance contract.

    The single chokepoint every campaign execution path (every backend,
    retries, the service scheduler) funnels through: it hosts the
    ``job-start`` fault-injection hook and enforces the variant's
    wall-clock deadline.  Module-level, so the campaign's
    ``functools.partial`` over it pickles for process backends under
    ``fork`` and ``spawn``.  Deadlines are cooperative -- the run completes
    and the breach is reported afterwards as a
    :class:`~repro.errors.DeadlineExceededError`, keeping the check
    deterministic (no timer races, no partially-executed simulations).
    """
    fault_point("job-start")
    outcome = execute_variant(variant, registry)
    deadline = (
        variant.deadline_s
        if variant.deadline_s is not None
        else default_deadline_s
    )
    if deadline is not None and outcome.wall_time_s > deadline:
        raise DeadlineExceededError(
            f"variant {variant.variant_id!r} exceeded its {deadline:g}s "
            f"deadline ({outcome.wall_time_s:.3f}s)"
        )
    return outcome


# -- results ------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CampaignResult:
    """Aggregated outcomes of one campaign run."""

    outcomes: tuple[VariantOutcome, ...]
    workers: int
    wall_time_s: float
    backend: str = "serial"
    cancelled: bool = False

    @property
    def total(self) -> int:
        """Number of executed variants."""
        return len(self.outcomes)

    @property
    def memo_hits(self) -> int:
        """Outcomes served from a memo store instead of re-executed."""
        return sum(1 for outcome in self.outcomes if outcome.from_cache)

    def counts(self) -> dict[str, int]:
        """Outcome counts by verdict name."""
        counts: dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.verdict] = counts.get(outcome.verdict, 0) + 1
        return counts

    def by_family(self) -> dict[str, tuple[VariantOutcome, ...]]:
        """Outcomes grouped by variant family (insertion-ordered)."""
        grouped: dict[str, list[VariantOutcome]] = {}
        for outcome in self.outcomes:
            grouped.setdefault(outcome.family, []).append(outcome)
        return {family: tuple(items) for family, items in grouped.items()}

    def errors(self) -> tuple[VariantOutcome, ...]:
        """Outcomes recording a worker-side failure (``ERROR`` verdict)."""
        return tuple(o for o in self.outcomes if o.is_error)

    def outcome(self, variant_id: str) -> VariantOutcome:
        """Look up one outcome by variant id.

        Raises:
            KeyError: for an unknown id, listing the known variant ids so
                a typo is immediately diagnosable.
        """
        for outcome in self.outcomes:
            if outcome.variant_id == variant_id:
                return outcome
        known = ", ".join(o.variant_id for o in self.outcomes) or "<none>"
        raise KeyError(
            f"no outcome for variant {variant_id!r}; known variant ids: "
            f"{known}"
        )

    def summary(self) -> dict[str, Any]:
        """Plain-data campaign summary for reporting and CI gates."""
        return {
            "total": self.total,
            "workers": self.workers,
            "backend": self.backend,
            "cancelled": self.cancelled,
            "errors": len(self.errors()),
            "memo_hits": self.memo_hits,
            "wall_time_s": round(self.wall_time_s, 3),
            "verdicts": self.counts(),
            "families": {
                family: len(items) for family, items in self.by_family().items()
            },
        }

    def to_result_set(self) -> ResultSet:
        """Every outcome as a :class:`~repro.results.RunRecord` set."""
        return ResultSet.of(outcome.to_record() for outcome in self.outcomes)

    def to_text(self, verbose: bool = False) -> str:
        """Render the campaign as a plain-text report."""
        counts = self.counts()
        lines = [
            (
                f"Campaign: {self.total} variants, {self.workers} worker(s), "
                f"{self.backend} backend, {self.wall_time_s:.1f} s"
                + (" [cancelled]" if self.cancelled else "")
            ),
            (
                "  verdicts: "
                f"{counts.get(Verdict.ATTACK_FAILED.name, 0)} withstood, "
                f"{counts.get(Verdict.ATTACK_SUCCEEDED.name, 0)} violated, "
                f"{counts.get(Verdict.INCONCLUSIVE.name, 0)} inconclusive"
                + (
                    f", {counts[ERROR_VERDICT]} errored"
                    if counts.get(ERROR_VERDICT)
                    else ""
                )
            ),
        ]
        for family, items in self.by_family().items():
            withstood = sum(1 for o in items if o.sut_passed)
            lines.append(
                f"  {family}: {len(items)} variants, {withstood} withstood"
            )
            if verbose:
                for outcome in items:
                    marker = (
                        "ERR!" if outcome.is_error
                        else "PASS" if outcome.sut_passed
                        else "FAIL"
                    )
                    goals = (
                        f" [{', '.join(outcome.violated_goals)}]"
                        if outcome.violated_goals
                        else ""
                    )
                    lines.append(
                        f"    [{marker}] {outcome.variant_id}{goals}"
                    )
        return "\n".join(lines)


def error_outcome(
    variant: VariantSpec,
    error: JobError,
    wall_time_s: float = 0.0,
    *,
    attempts: int = 1,
    quarantined: bool = False,
) -> VariantOutcome:
    """A tagged ``ERROR`` outcome for a variant whose execution raised.

    ``attempts`` records how many executions were tried and
    ``quarantined=True`` tags a variant that exhausted its
    :class:`~repro.runtime.RetryPolicy` budget -- the campaign carries
    on without it, so one pathological variant never poisons the run.
    """
    stats: dict[str, Any] = {
        "error_type": error.type,
        "error_traceback": error.traceback,
        "attempts": attempts,
    }
    notes = f"{error.type}: {error.message}"
    if quarantined:
        stats["quarantined"] = True
        notes = f"quarantined after {attempts} attempt(s) -- {notes}"
    return VariantOutcome(
        variant_id=variant.variant_id,
        scenario=variant.scenario,
        family=variant.family,
        attack=variant.attack,
        verdict=ERROR_VERDICT,
        violated_goals=(),
        violations=(),
        detections=(),
        detections_by_control=(),
        stats=stats,
        duration_ms=0.0,
        wall_time_s=wall_time_s,
        notes=notes,
    )


# -- configuration ------------------------------------------------------------

@runtime_checkable
class CampaignMemo(Protocol):
    """The duck type :attr:`CampaignConfig.memo` accepts.

    :class:`repro.service.MemoStore` is the production implementation;
    the engine deliberately depends only on this two-method shape so it
    never imports the service plane (layering: service -> engine, not
    back).  ``lookup`` returns a cached outcome (marked ``from_cache``)
    or ``None``; ``record`` observes each freshly-executed outcome.
    """

    def lookup(self, variant: VariantSpec) -> VariantOutcome | None: ...

    def record(
        self, variant: VariantSpec, outcome: VariantOutcome
    ) -> None: ...


@dataclasses.dataclass(frozen=True)
class CampaignConfig:
    """Every option of a campaign run, validated once.

    :func:`run_campaign` and :func:`iter_campaign` build one from their
    keyword options; the service scheduler builds one for its daemon.
    A new campaign option is a new field here, checked in
    :meth:`__post_init__` -- never a new keyword argument at call sites.

    Attributes:
        backend: Any :mod:`repro.runtime` backend, its name, or ``None``
            (serial).  A name or ``None`` is resolved here into a
            backend the campaign owns and shuts down when the run ends;
            a backend instance stays the caller's to shut down.
        registry: Custom scenario registry (``None``: the default one).
            Memory-sharing backends (serial) honour it; process
            backends refuse it loudly -- their workers resolve variants
            against the default registry and would silently run the
            wrong specs.
        memo: Optional :class:`CampaignMemo` (e.g.
            :class:`repro.service.MemoStore`): variants it already knows
            are served as ``from_cache`` outcomes and never re-executed;
            fresh outcomes are recorded back into it.
        retry: Optional :class:`~repro.runtime.RetryPolicy`: a variant
            failing with a transient error class is re-executed (with
            the policy's deterministic backoff); one that exhausts the
            budget yields a ``quarantined`` error outcome under
            ``on_error="record"`` (or raises, under ``"raise"``).
        deadline_s: Campaign-level wall-clock budget per variant; a
            variant's own ``deadline_s`` takes precedence.
        on_error: ``"raise"`` (default) surfaces a failed variant as
            :class:`~repro.errors.VariantExecutionError` naming it;
            ``"record"`` turns it into a tagged ``ERROR`` outcome and
            keeps going.
    """

    backend: ExecutionBackend | str | None = None
    registry: ScenarioRegistry | None = None
    memo: CampaignMemo | None = None
    retry: RetryPolicy | None = None
    deadline_s: float | None = None
    on_error: str = "raise"
    #: True when ``backend`` was built here (from a name or ``None``).
    owns_backend: bool = dataclasses.field(
        default=False, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.on_error not in ("raise", "record"):
            raise ValidationError(
                f"on_error must be 'raise' or 'record', got {self.on_error!r}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValidationError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )
        if self.backend is None or isinstance(self.backend, str):
            object.__setattr__(self, "backend", backend_from_spec(self.backend))
            object.__setattr__(self, "owns_backend", True)
        if self.registry is default_registry():
            object.__setattr__(self, "registry", None)
        if self.registry is not None and not self.backend.shares_memory:
            raise ValidationError(
                "custom registries only run on the in-process serial "
                "backend: process workers resolve variants against the "
                "default registry"
            )


# -- the one execution path ---------------------------------------------------

def _lookup(config: CampaignConfig, variant: VariantSpec) -> VariantOutcome | None:
    """The memo's cached outcome of ``variant``, or ``None``."""
    if config.memo is None:
        return None
    return config.memo.lookup(variant)


def _remember(
    config: CampaignConfig, variant: VariantSpec, outcome: VariantOutcome
) -> VariantOutcome:
    """Record a freshly executed ``outcome`` in the memo; return it."""
    if config.memo is not None:
        config.memo.record(variant, outcome)
    return outcome


def _failure(
    variant: VariantSpec, error: JobError, what: str
) -> VariantExecutionError:
    """The typed ``on_error="raise"`` error naming ``variant``."""
    return VariantExecutionError(
        f"variant {variant.variant_id!r} {what}: {error.type}: "
        f"{error.message}",
        variant_id=variant.variant_id,
        error_type=error.type,
        error_traceback=error.traceback,
    )


def execute_memoised(
    variant: VariantSpec, config: CampaignConfig
) -> VariantOutcome:
    """Run one variant in this process: memo lookup, checked execution,
    memo record.

    The per-variant path of in-process executors such as the service
    scheduler (campaign backends split the same steps between the
    calling process and the workers).  Failures of the execution or of
    the memo follow the ``on_error="record"`` contract: they come back
    as an :func:`error_outcome`, never as an exception, so callers
    branch on ``outcome.from_cache`` and ``outcome.is_error``.
    """
    started = time.perf_counter()
    try:
        hit = _lookup(config, variant)
        if hit is not None:
            return hit
        outcome = _execute_checked(
            variant, config.registry, default_deadline_s=config.deadline_s
        )
        return _remember(config, variant, outcome)
    except Exception as exc:  # noqa: BLE001 - reported as an ERROR outcome
        return error_outcome(
            variant, JobError.from_exception(exc), time.perf_counter() - started
        )


def _campaign_stream(
    variants: Iterable[VariantSpec],
    config: CampaignConfig,
    *,
    on_event: Callable[[ProgressEvent], None] | None,
    cancel: CancelToken,
    sink: ResultSink | None,
) -> Iterator[tuple[int, VariantOutcome]]:
    """The one campaign execution path: ``(input index, outcome)`` pairs
    in completion order, each pushed into ``sink`` before it is yielded.

    The input index lets :func:`run_campaign` restore exact submission
    order even when variant ids repeat in an explicit list.
    """
    try:
        for index, outcome in _execute(list(variants), config, on_event, cancel):
            if sink is not None:
                sink.add(outcome.to_record())
            yield index, outcome
    finally:
        if config.owns_backend:
            config.backend.shutdown()


def _execute(
    variants: list[VariantSpec],
    config: CampaignConfig,
    on_event: Callable[[ProgressEvent], None] | None,
    cancel: CancelToken,
) -> Iterator[tuple[int, VariantOutcome]]:
    """Memo hits, then the backend's results, then parked retries."""
    # Memo filtering: serve cache hits immediately, submit only misses.
    # Jobs carry no seed, so re-indexing the submitted subset changes
    # nothing observable.
    pending: list[tuple[int, VariantSpec]] = []
    for index, variant in enumerate(variants):
        hit = _lookup(config, variant)
        if hit is None:
            pending.append((index, variant))
        else:
            yield index, hit
    backend = config.backend
    job = functools.partial(
        _execute_checked,
        registry=config.registry,
        default_deadline_s=config.deadline_s,
    )
    stream = Runtime(backend, on_event=on_event, cancel=cancel).map(
        job, [variant for _index, variant in pending]
    )
    # Transient failures are parked here and re-executed after the main
    # stream drains; run_campaign's position sort restores input order,
    # so late retries never move another verdict.
    retries: list[tuple[int, VariantSpec, JobError]] = []
    for result in stream:
        index, variant = pending[result.index]
        if result.ok:
            yield index, _remember(config, variant, result.value)
        elif config.retry is not None and config.retry.should_retry(
            result.error, 1
        ):
            retries.append((index, variant, result.error))
        elif config.on_error == "record":
            yield index, error_outcome(variant, result.error, result.wall_time_s)
        else:
            raise _failure(
                variant, result.error, f"failed in a {backend.name} worker"
            )
    for index, variant, error in retries:
        outcome = _retry_variant(variant, error, config, cancel)
        if outcome is None:
            return
        yield index, outcome


def _retry_variant(
    variant: VariantSpec,
    error: JobError,
    config: CampaignConfig,
    cancel: CancelToken,
) -> VariantOutcome | None:
    """Re-run one transiently-failed variant under ``config.retry``.

    Retries run inline in the driver process: they are rare and the
    simulator is deterministic, so the verdict matches what any
    backend's worker would have produced.  Each attempt waits out the
    policy's seeded backoff first.  The wait is a
    cancellation point: a cancelled retry starts nothing new and returns
    ``None`` -- the variant is dropped like any other unfinished one,
    never quarantined.  Otherwise returns a success annotated with its
    attempt count, or a ``quarantined`` error outcome under
    ``on_error="record"``; under ``"raise"`` exhaustion raises
    :class:`~repro.errors.VariantExecutionError`.
    """
    retry = config.retry
    attempt = 1
    while retry.should_retry(error, attempt):
        retry.wait(attempt, variant.variant_id, cancel=cancel)
        if cancel.cancelled:
            return None
        attempt += 1
        try:
            outcome = _execute_checked(
                variant, config.registry, default_deadline_s=config.deadline_s
            )
        except Exception as exc:  # noqa: BLE001 - captured, policy decides
            error = JobError.from_exception(exc)
            continue
        outcome = dataclasses.replace(
            outcome, stats={**outcome.stats, "attempts": attempt}
        )
        return _remember(config, variant, outcome)
    if config.on_error == "record":
        return error_outcome(variant, error, attempts=attempt, quarantined=True)
    raise _failure(
        variant,
        error,
        f"quarantined after {attempt} attempt(s) on the "
        f"{config.backend.name} backend",
    )


# -- entry points -------------------------------------------------------------

def iter_campaign(
    variants: Iterable[VariantSpec],
    *,
    on_event: Callable[[ProgressEvent], None] | None = None,
    cancel: CancelToken | None = None,
    sink: ResultSink | None = None,
    **options: Any,
) -> Iterator[VariantOutcome]:
    """Execute ``variants``; yield outcomes as they finish.

    ``options`` are the :class:`CampaignConfig` fields (``backend``,
    ``registry``, ``memo``, ``retry``, ``deadline_s``, ``on_error``),
    validated before anything runs.  Outcomes arrive in
    **completion** order (use :func:`run_campaign` for input-ordered
    aggregation); each one's record is pushed into ``sink`` the moment
    it exists, so partial results are exportable mid-run.  ``on_event``
    receives :class:`~repro.runtime.ProgressEvent` progress; ``cancel``
    stops the run cooperatively -- jobs already running finish, nothing
    new starts.
    """
    stream = _campaign_stream(
        variants,
        CampaignConfig(**options),
        on_event=on_event,
        cancel=cancel if cancel is not None else CancelToken(),
        sink=sink,
    )
    return (outcome for _index, outcome in stream)


def run_campaign(
    variants: Iterable[VariantSpec],
    *,
    on_event: Callable[[ProgressEvent], None] | None = None,
    cancel: CancelToken | None = None,
    sink: ResultSink | None = None,
    **options: Any,
) -> CampaignResult:
    """Execute ``variants``; aggregate their outcomes in input order.

    Takes the same arguments as :func:`iter_campaign`::

        run_campaign(variants, backend=ProcessBackend(jobs=4))
        run_campaign(variants, backend="process", on_error="record")

    Outcomes come back in input order regardless of completion order;
    verdicts are backend-independent by construction (pure-data
    variants, deterministic simulator).
    """
    config = CampaignConfig(**options)
    token = cancel if cancel is not None else CancelToken()
    started = time.perf_counter()
    indexed = sorted(
        _campaign_stream(
            variants, config, on_event=on_event, cancel=token, sink=sink
        ),
        key=lambda pair: pair[0],
    )
    return CampaignResult(
        outcomes=tuple(outcome for _index, outcome in indexed),
        workers=config.backend.jobs,
        wall_time_s=time.perf_counter() - started,
        backend=config.backend.name,
        cancelled=token.cancelled,
    )


__all__ = [
    "CampaignConfig",
    "CampaignMemo",
    "CampaignResult",
    "ERROR_VERDICT",
    "VariantOutcome",
    "error_outcome",
    "execute_memoised",
    "execute_variant",
    "iter_campaign",
    "run_campaign",
]
