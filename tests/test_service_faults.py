"""Service-plane fault tolerance: deadlines, torn journals, resume.

The scheduler half runs in-process (plain library objects, per REP009);
the client half talks to an in-process :class:`CampaignDaemon` on an
ephemeral loopback port with a fault plan armed at the client-side
``client-outcome`` and ``journal-append`` sites.
"""

import contextlib
import os

import pytest

from repro.engine.campaign import execute_variant
from repro.engine.registry import default_registry
from repro.errors import ValidationError
from repro.faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
    reset_fault_state,
)
from repro.runtime import RetryPolicy
from repro.service import (
    CampaignDaemon,
    MemoStore,
    Scheduler,
    ServiceClient,
    ServiceError,
    SUBMISSION_EVENTS,
)


@pytest.fixture(autouse=True)
def _clean_fault_state():
    reset_fault_state()
    yield
    os.environ.pop(FAULT_PLAN_ENV, None)
    reset_fault_state()


@contextlib.contextmanager
def armed(plan):
    os.environ[FAULT_PLAN_ENV] = plan.to_json()
    reset_fault_state()
    try:
        yield
    finally:
        os.environ.pop(FAULT_PLAN_ENV, None)
        reset_fault_state()


def _variants(count=6):
    return default_registry().variants(family="zone-geometry")[:count]


class TestShardHealth:
    """A scheduler-wide deadline guards every shard's worker: it turns a
    runaway variant into a typed error outcome on whichever shard runs
    it, and the worker moves on."""

    def test_geometry_validation(self):
        with pytest.raises(ValidationError, match="deadline_s"):
            Scheduler(shards=1, workers=1, deadline_s=0.0)

    def test_scheduler_deadline_records_typed_errors(self):
        with Scheduler(shards=1, workers=1, deadline_s=1e-9) as scheduler:
            submission = scheduler.submit(_variants(2))
            assert submission.wait(timeout=60.0)
            outcomes = [payload for kind, _i, payload in submission.events()
                        if kind == "outcome"]
        assert all(o.is_error for o in outcomes)
        assert all(
            o.stats["error_type"] == "DeadlineExceededError" for o in outcomes
        )


class TestTornJournal:
    def test_torn_append_corrupts_exactly_one_entry(self, tmp_path):
        variants = _variants(4)
        outcomes = [execute_variant(v) for v in variants]
        plan = FaultPlan(seed=0, faults=(FaultSpec("torn-journal", 2),))
        store = MemoStore(tmp_path / "memo")
        with armed(plan):
            for variant, outcome in zip(variants, outcomes):
                store.record(variant, outcome)
        store.close()
        reloaded = MemoStore(tmp_path / "memo")
        status = reloaded.status()
        # The torn write loses its own entry and nothing else: the
        # recovery newline confines the damage to one journal line.
        assert status["corrupt"] == 1
        assert status["entries"] == 3
        hits = [
            reloaded.lookup(variant) is not None
            for variant in variants
        ]
        assert hits.count(True) == 3
        reloaded.close()

    def test_journal_untouched_without_a_plan(self, tmp_path):
        variants = _variants(2)
        store = MemoStore(tmp_path / "memo")
        for variant in variants:
            store.record(variant, execute_variant(variant))
        store.close()
        reloaded = MemoStore(tmp_path / "memo")
        assert reloaded.status()["corrupt"] == 0
        assert reloaded.status()["entries"] == 2
        reloaded.close()


class TestClientDropAndResume:
    def test_submission_events_protocol_constant(self):
        assert SUBMISSION_EVENTS == ("outcome", "done")

    def test_drop_mid_stream_raises_enriched_error(self, tmp_path):
        variants = _variants(6)
        plan = FaultPlan(seed=0, faults=(FaultSpec("drop-connection", 3),))
        with CampaignDaemon(
            port=0, memo_dir=tmp_path / "memo", shards=2, workers=2
        ).start() as daemon:
            client = ServiceClient(daemon.port, timeout=60.0)
            with armed(plan):
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(variants)
        error = excinfo.value
        assert error.resumable is True
        assert error.submission_id  # non-empty: the daemon accepted it
        assert error.outcomes_received == 2  # drop hit the 3rd outcome

    def test_resume_with_retry_completes_with_parity(self, tmp_path):
        variants = _variants(6)
        direct = [execute_variant(v) for v in variants]
        plan = FaultPlan(
            seed=0,
            faults=(FaultSpec("drop-connection", 3),),
            state_dir=str(tmp_path / "state"),
        )
        retry = RetryPolicy(max_attempts=3, base_delay_s=0.01, seed=0)
        with CampaignDaemon(
            port=0, memo_dir=tmp_path / "memo", shards=2, workers=2
        ).start() as daemon:
            client = ServiceClient(daemon.port, timeout=60.0, retry=retry)
            with armed(plan):
                outcomes, summary = client.submit(variants)
        assert len(outcomes) == 6
        assert summary["completed"] == 6
        # Resume leaned on the memo: completed variants came from cache.
        assert summary["cached"] >= 1
        for expected, actual in zip(direct, outcomes):
            assert (actual.verdict, actual.violated_goals) == (
                expected.verdict, expected.violated_goals
            )
        # The resumed submission leaned on the memo: nothing quarantined,
        # nothing recomputed into a different verdict.
        assert all(not o.is_error for o in outcomes)

    def test_error_without_retry_policy_is_not_swallowed(self, tmp_path):
        # A non-resumable error raises even with a retry policy set.
        retry = RetryPolicy(max_attempts=3, base_delay_s=0.01)
        error = ServiceError("boom", resumable=False)
        assert error.submission_id == ""
        assert error.outcomes_received == 0
        assert retry.is_transient("ConnectionResetError")
