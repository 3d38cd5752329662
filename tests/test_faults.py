"""The fault-tolerant execution plane: plans, injection, retries.

Fault plans are pure data compiled from a seed; arming one through
``REPRO_FAULT_PLAN`` makes production ``fault_point`` call sites fire the
scheduled faults exactly once across the whole process tree.  The tests
here drive the engine-side sites (``job-start``): deterministic plan
compilation, the injection hook's claim semantics, retry/quarantine
behaviour, deadlines, process-pool supervision, and the headline
robustness property -- same seed + same policy gives an identical outcome
sequence on every backend.  Service-plane sites are covered by
``tests/test_service_faults.py``.
"""

import contextlib
import dataclasses
import os

import pytest

from repro.engine.campaign import run_campaign
from repro.engine.registry import default_registry
from repro.engine.spec import VariantSpec
from repro.errors import (
    TransientError,
    ValidationError,
    VariantExecutionError,
)
from repro.faults import (
    FAULT_KINDS,
    FAULT_PLAN_ENV,
    FAULT_SITES,
    FaultPlan,
    FaultSpec,
    compile_plan,
    fault_point,
    load_plan_from_env,
    reset_fault_state,
)
from repro.runtime import (
    DEFAULT_TRANSIENT_TYPES,
    CancelToken,
    JobError,
    ProcessBackend,
    RetryPolicy,
    Runtime,
    available_start_methods,
)


# -- module-level helpers (picklable under spawn) --------------------------

def _faulted_square(value):
    fault_point("job-start")
    return value * value


class _PoisonedStr(Exception):
    def __str__(self):
        raise RuntimeError("__str__ is poisoned")


class _FullyPoisoned(Exception):
    def __str__(self):
        raise RuntimeError("__str__ is poisoned")

    def __repr__(self):
        raise RuntimeError("__repr__ is poisoned")


def _raise_poisoned(value):
    raise _PoisonedStr(value)


@pytest.fixture(autouse=True)
def _clean_fault_state():
    reset_fault_state()
    yield
    os.environ.pop(FAULT_PLAN_ENV, None)
    reset_fault_state()


@contextlib.contextmanager
def armed(plan):
    """Arm ``plan`` for this process tree; disarm and reset on exit."""
    os.environ[FAULT_PLAN_ENV] = plan.to_json()
    reset_fault_state()
    try:
        yield
    finally:
        os.environ.pop(FAULT_PLAN_ENV, None)
        reset_fault_state()


def _variants(count=6):
    return default_registry().variants(family="coverage")[:count]


class TestFaultPlan:
    def test_payload_and_json_round_trip(self):
        plan = compile_plan(7, ("kill-worker", "raise-transient"),
                            total_jobs=12, state_dir="/tmp/x")
        assert FaultPlan.from_payload(plan.to_payload()) == plan
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_schema_mismatch_raises(self):
        payload = compile_plan(1).to_payload()
        payload["schema"] = "repro.faults/v99"
        with pytest.raises(ValidationError, match="schema mismatch"):
            FaultPlan.from_payload(payload)
        with pytest.raises(ValidationError, match="not valid JSON"):
            FaultPlan.from_json("{truncated")

    def test_spec_validation(self):
        with pytest.raises(ValidationError, match="unknown fault kind"):
            FaultSpec(kind="melt-cpu", at=1)
        with pytest.raises(ValidationError, match="1-based"):
            FaultSpec(kind="delay-job", at=0)
        with pytest.raises(ValidationError, match=">= 0"):
            FaultSpec(kind="delay-job", at=1, param=-1.0)

    def test_compile_is_deterministic(self):
        first = compile_plan(42, FAULT_KINDS, total_jobs=12)
        again = compile_plan(42, FAULT_KINDS, total_jobs=12)
        assert first == again
        assert all(1 <= spec.at <= 12 for spec in first.faults)

    def test_compile_dedups_repeated_kinds_per_site(self):
        plan = compile_plan(3, ("raise-transient",) * 4, total_jobs=4)
        positions = [spec.at for spec in plan.for_site("job-start")]
        assert sorted(positions) == [1, 2, 3, 4]

    def test_compile_overflow_raises(self):
        with pytest.raises(ValidationError, match="raise total_jobs"):
            compile_plan(0, ("raise-transient",) * 5, total_jobs=4)
        with pytest.raises(ValidationError, match="unknown fault kind"):
            compile_plan(0, ("not-a-kind",))

    def test_load_plan_from_env(self, tmp_path):
        assert load_plan_from_env({}) is None
        assert load_plan_from_env({FAULT_PLAN_ENV: "  "}) is None
        plan = compile_plan(5, ("delay-job",))
        assert load_plan_from_env({FAULT_PLAN_ENV: plan.to_json()}) == plan
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json(), encoding="utf-8")
        assert load_plan_from_env({FAULT_PLAN_ENV: f"@{path}"}) == plan
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_plan_from_env({FAULT_PLAN_ENV: "not json"})
        with pytest.raises(ValidationError, match="cannot read"):
            load_plan_from_env({FAULT_PLAN_ENV: "@/no/such/plan.json"})


class TestFaultPoint:
    def test_unknown_site_raises(self):
        with pytest.raises(ValidationError, match="unknown fault site"):
            fault_point("coffee-break")
        assert "job-start" in FAULT_SITES

    def test_no_plan_is_a_noop(self):
        assert fault_point("job-start") is None

    def test_raise_transient_fires_exactly_once(self):
        plan = FaultPlan(seed=0, faults=(FaultSpec("raise-transient", 2),))
        with armed(plan):
            assert fault_point("job-start") is None  # call 1
            with pytest.raises(TransientError, match="injected"):
                fault_point("job-start")  # call 2 fires
            for _ in range(4):  # consumed; later calls pass through
                assert fault_point("job-start") is None

    def test_delay_and_torn_specs_are_enacted_or_returned(self):
        plan = FaultPlan(seed=0, faults=(
            FaultSpec("delay-job", 1, param=0.01),
            FaultSpec("torn-journal", 1),
        ))
        with armed(plan):
            spec = fault_point("job-start")
            assert spec is not None and spec.kind == "delay-job"
            spec = fault_point("journal-append")
            assert spec is not None and spec.kind == "torn-journal"

    def test_kill_worker_never_fires_in_the_driver(self):
        # Reaching the assertion at all *is* the test: an unguarded
        # kill-worker would os._exit this process.
        plan = FaultPlan(seed=0, faults=(FaultSpec("kill-worker", 1),))
        with armed(plan):
            assert fault_point("job-start") is None
            assert fault_point("job-start") is None

    def test_state_dir_markers_claim_across_reloads(self, tmp_path):
        plan = FaultPlan(
            seed=0,
            faults=(FaultSpec("raise-transient", 1),),
            state_dir=str(tmp_path / "state"),
        )
        with armed(plan):
            with pytest.raises(TransientError):
                fault_point("job-start")
        marker = tmp_path / "state" / "raise-transient-1.fired"
        assert marker.exists()
        # A fresh arm of the same plan sees the marker: already consumed.
        with armed(plan):
            assert fault_point("job-start") is None


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValidationError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValidationError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValidationError, match=">= 0"):
            RetryPolicy(base_delay_s=-0.1)
        with pytest.raises(
            ValidationError, match=r"base_delay_s \(5\.0\).*max_delay_s \(2\.0\)"
        ):
            RetryPolicy(base_delay_s=5.0, jitter=0.0)
        assert RetryPolicy(base_delay_s=2.0, max_delay_s=2.0).base_delay_s == 2.0

    def test_transient_classification(self):
        policy = RetryPolicy()
        assert "TransientError" in DEFAULT_TRANSIENT_TYPES
        for name in DEFAULT_TRANSIENT_TYPES:
            assert policy.is_transient(name)
        assert not policy.is_transient("ValueError")
        error = JobError.from_exception(TransientError("flaky"))
        assert policy.is_transient(error)
        assert not policy.is_transient(
            JobError.from_exception(KeyError("gone"))
        )

    def test_should_retry_respects_budget_and_class(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry("TransientError", 1)
        assert policy.should_retry("TransientError", 2)
        assert not policy.should_retry("TransientError", 3)
        assert not policy.should_retry("ValueError", 1)

    def test_delay_is_deterministic_and_capped(self):
        policy = RetryPolicy(base_delay_s=0.5, max_delay_s=2.0,
                             jitter=0.1, seed=9)
        assert policy.delay_s(2, "job-a") == policy.delay_s(2, "job-a")
        assert policy.delay_s(2, "job-a") != policy.delay_s(2, "job-b")
        assert policy.delay_s(10, "job-a") <= 2.0 * 1.1
        with pytest.raises(ValidationError, match="1-based"):
            policy.delay_s(0)

    def test_same_seed_same_backoff_sequence(self):
        first = [RetryPolicy(seed=4).delay_s(a, "v1") for a in (1, 2, 3)]
        again = [RetryPolicy(seed=4).delay_s(a, "v1") for a in (1, 2, 3)]
        assert first == again

    def test_wait_is_a_cancellation_point(self, monkeypatch):
        monkeypatch.setattr(
            "repro.runtime.retry.time.sleep",
            lambda seconds: pytest.fail("wait slept instead of on its token"),
        )
        policy = RetryPolicy(base_delay_s=5.0, max_delay_s=5.0, jitter=0.0)
        cancel = CancelToken()
        cancel.cancel()
        waits = []
        token_wait = cancel.wait

        def recording_wait(timeout=None):
            waits.append((timeout, token_wait(timeout)))
            return waits[-1][1]

        monkeypatch.setattr(cancel, "wait", recording_wait)
        assert policy.wait(1, "job", cancel=cancel) == 5.0
        assert waits == [(5.0, True)]  # the fired token ends the wait
        assert RetryPolicy(base_delay_s=0.0, jitter=0.0).wait(1) == 0.0


class TestDeadlines:
    def test_campaign_default_deadline_records_error(self):
        variants = _variants(1)
        result = run_campaign(variants, on_error="record", deadline_s=1e-9)
        outcome = result.outcomes[0]
        assert outcome.is_error
        assert outcome.stats["error_type"] == "DeadlineExceededError"
        # Deadline breaches are not transient: no retry is attempted.
        retried = run_campaign(
            variants, on_error="record", deadline_s=1e-9,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.0),
        )
        assert retried.outcomes[0].stats["attempts"] == 1
        assert "quarantined" not in retried.outcomes[0].stats

    def test_variant_deadline_beats_campaign_default(self):
        tight = dataclasses.replace(_variants(1)[0], deadline_s=1e-9)
        result = run_campaign([tight], on_error="record", deadline_s=600.0)
        assert result.outcomes[0].is_error
        assert result.outcomes[0].stats["error_type"] == (
            "DeadlineExceededError"
        )


class TestRetryAndQuarantine:
    def test_transient_failure_is_retried_to_success(self):
        variants = _variants(1)
        clean = run_campaign(variants).outcomes[0]
        plan = FaultPlan(seed=0, faults=(FaultSpec("raise-transient", 1),))
        with armed(plan):
            result = run_campaign(
                variants,
                on_error="record",
                retry=RetryPolicy(max_attempts=3, base_delay_s=0.0),
            )
        outcome = result.outcomes[0]
        assert not outcome.is_error
        assert outcome.stats["attempts"] == 2
        assert (outcome.verdict, outcome.violated_goals) == (
            clean.verdict, clean.violated_goals
        )

    def test_exhausted_budget_quarantines_without_poisoning(self):
        variants = _variants(2)
        # The first variant's two attempts both hit a transient (faults
        # at positions 1-3 cover them under any retry interleaving);
        # the second variant recovers within its budget.
        plan = FaultPlan(seed=0, faults=(
            FaultSpec("raise-transient", 1),
            FaultSpec("raise-transient", 2),
            FaultSpec("raise-transient", 3),
        ))
        with armed(plan):
            result = run_campaign(
                variants,
                on_error="record",
                retry=RetryPolicy(max_attempts=2, base_delay_s=0.0),
            )
        first, second = result.outcomes
        assert first.is_error
        assert first.stats["quarantined"] is True
        assert first.stats["attempts"] == 2
        assert "quarantined" in first.notes
        # The sibling variant is untouched by the quarantine.
        assert not second.is_error

    def test_quarantine_raises_under_on_error_raise(self):
        plan = FaultPlan(seed=0, faults=(
            FaultSpec("raise-transient", 1),
            FaultSpec("raise-transient", 2),
        ))
        with armed(plan):
            with pytest.raises(VariantExecutionError, match="quarantined"):
                run_campaign(
                    _variants(1),
                    retry=RetryPolicy(max_attempts=2, base_delay_s=0.0),
                )

    def test_compiled_transients_retry_two_variants_with_parity(self, tmp_path):
        variants = default_registry().variants(family="coverage")
        clean = _signature(run_campaign(variants).outcomes)
        plan = compile_plan(
            1,
            ("raise-transient", "raise-transient"),
            total_jobs=len(variants),
            state_dir=str(tmp_path / "state"),
        )
        with armed(plan):
            result = run_campaign(
                variants,
                on_error="record",
                retry=RetryPolicy(base_delay_s=0.0),
            )
        retried = [o for o in result.outcomes if o.stats.get("attempts", 1) > 1]
        assert len(retried) == 2
        assert _signature(result.outcomes) == clean

    def test_non_transient_error_is_not_retried(self):
        poisoned = VariantSpec(
            variant_id="test/poison/bad-attack",
            scenario="uc2-keyless-entry",
            family="poison",
            attack="no-such-catalog-attack",
        )
        result = run_campaign(
            [poisoned],
            on_error="record",
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.0),
        )
        outcome = result.outcomes[0]
        assert outcome.is_error
        assert outcome.stats["attempts"] == 1
        assert "quarantined" not in outcome.stats

    def test_cancel_during_backoff_starts_no_new_attempt(self, monkeypatch):
        """A token cancelled inside a retry backoff stops that retry: the
        variant runs once and nothing is quarantined."""
        import repro.engine.campaign as campaign_module

        executions = []

        def always_transient(variant, registry=None):
            executions.append(variant.variant_id)
            raise TransientError("still flaky")

        monkeypatch.setattr(campaign_module, "execute_variant", always_transient)
        waits = []
        wait = CancelToken.wait

        def cancelled_while_waiting(token, timeout=None):
            # The cancellation lands inside the backoff wait, so the
            # wait returns at once instead of sleeping its 2 s.
            waits.append(timeout)
            token.cancel()
            return wait(token, timeout)

        monkeypatch.setattr(CancelToken, "wait", cancelled_while_waiting)
        token = CancelToken()
        result = run_campaign(
            _variants(1),
            on_error="record",
            cancel=token,
            retry=RetryPolicy(max_attempts=3, base_delay_s=2.0, jitter=0.0),
        )
        assert waits == [2.0]
        assert len(executions) == 1
        assert not any(o.stats.get("quarantined") for o in result.outcomes)
        assert result.cancelled


def _signature(outcomes):
    return [
        (o.variant_id, o.verdict, tuple(o.violated_goals))
        for o in outcomes
    ]


def _faulted_run(backend, state_dir):
    """One campaign under two injected transients with a shared claim dir."""
    plan = FaultPlan(
        seed=0,
        faults=(
            FaultSpec("raise-transient", 1),
            FaultSpec("raise-transient", 2),
        ),
        state_dir=str(state_dir),
    )
    retry = RetryPolicy(max_attempts=3, base_delay_s=0.01, seed=0)
    with armed(plan):
        result = run_campaign(
            _variants(6), backend=backend, on_error="record", retry=retry
        )
    return _signature(result.outcomes)


class TestRetryDeterminismAcrossBackends:
    """Same seed + same RetryPolicy => identical outcome sequence on
    the serial and process backends, under every start method."""

    def test_serial_under_faults_matches_fault_free_run(self, tmp_path):
        reference = _signature(run_campaign(_variants(6)).outcomes)
        assert _faulted_run("serial", tmp_path / "serial") == reference

    @pytest.mark.parametrize("method", available_start_methods())
    def test_process_matches_serial_under_faults(self, tmp_path, method):
        if method == "forkserver":
            pytest.skip("forkserver workers do not inherit the armed env")
        reference = _faulted_run("serial", tmp_path / "serial")
        backend = ProcessBackend(jobs=2, start_method=method)
        try:
            faulted = _faulted_run(backend, tmp_path / method)
        finally:
            backend.shutdown()
        assert faulted == reference


class TestProcessSupervision:
    def test_killed_worker_is_respawned_and_jobs_complete(self, tmp_path):
        plan = FaultPlan(
            seed=0,
            faults=(FaultSpec("kill-worker", 1),),
            state_dir=str(tmp_path / "state"),
        )
        backend = ProcessBackend(jobs=2)
        with armed(plan), Runtime(backend) as runtime:
            results = sorted(
                runtime.map(_faulted_square, range(6)),
                key=lambda r: r.index,
            )
        assert backend.respawns == 1
        assert all(r.ok for r in results)
        assert [r.value for r in results] == [v * v for v in range(6)]

    def test_killed_campaign_worker_respawns_once_with_parity(self, tmp_path):
        variants = default_registry().variants(family="coverage")
        clean = _signature(run_campaign(variants).outcomes)
        plan = compile_plan(
            2,
            ("kill-worker",),
            total_jobs=len(variants),
            state_dir=str(tmp_path / "state"),
        )
        backend = ProcessBackend(jobs=2)
        try:
            with armed(plan):
                result = run_campaign(
                    variants,
                    backend=backend,
                    on_error="record",
                    retry=RetryPolicy(base_delay_s=0.0),
                )
        finally:
            backend.shutdown()
        assert backend.respawns == 1
        assert _signature(result.outcomes) == clean

    def test_past_budget_degrades_to_inline_drain(self, tmp_path):
        plan = FaultPlan(
            seed=0,
            faults=(FaultSpec("kill-worker", 1), FaultSpec("kill-worker", 2)),
            state_dir=str(tmp_path / "state"),
        )
        backend = ProcessBackend(jobs=2, respawn_limit=0)
        with armed(plan), Runtime(backend) as runtime:
            results = sorted(
                runtime.map(_faulted_square, range(6)),
                key=lambda r: r.index,
            )
        # One pool loss exhausts the zero budget; the drain happens in
        # the driver, where kill-worker refuses to fire.
        assert backend.respawns == 1
        assert all(r.ok for r in results)
        assert [r.value for r in results] == [v * v for v in range(6)]

    def test_respawn_limit_validation(self):
        with pytest.raises(ValidationError, match="respawn_limit"):
            ProcessBackend(jobs=1, respawn_limit=-1)


class TestPoisonedExceptionCapture:
    def test_poisoned_str_falls_back_to_repr(self):
        error = JobError.from_exception(_PoisonedStr("payload"))
        assert error.type == "_PoisonedStr"
        assert "payload" in error.message  # repr() still renders args

    def test_fully_poisoned_gets_placeholder(self):
        error = JobError.from_exception(_FullyPoisoned())
        assert error.message == "<unprintable _FullyPoisoned>"
        assert error.type == "_FullyPoisoned"

    def test_poisoned_worker_exception_does_not_kill_the_map(self):
        with Runtime() as runtime:
            results = list(runtime.map(_raise_poisoned, [1, 2]))
        assert [r.ok for r in results] == [False, False]
        assert all(r.error.type == "_PoisonedStr" for r in results)
