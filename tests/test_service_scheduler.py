"""The shard-and-steal scheduler: delivery, stealing, cancellation.

Everything here runs in-process (no sockets): the scheduler is a plain
library object, which is exactly the layering REP009 enforces.  Wire
behaviour is covered by ``tests/test_service_daemon.py``.
"""

import json
import pathlib
import threading

import pytest

from repro.engine.campaign import execute_variant
from repro.engine.registry import default_registry
from repro.engine.spec import VariantSpec
from repro.errors import ValidationError
from repro.service import (
    JOURNAL_NAME,
    MEMO_SCHEMA,
    MemoStore,
    UNIT_SIZE,
    Scheduler,
    code_fingerprint,
)
from repro.runtime import CancelToken

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_verdicts.json"


def _variants(count=6):
    return default_registry().variants(family="zone-geometry")[:count]


def _poisoned_variant():
    return VariantSpec(
        variant_id="test/poison/bad-attack",
        scenario="uc2-keyless-entry",
        family="poison",
        attack="no-such-catalog-attack",
    )


class _GateMemo:
    """A memo stub that parks the first worker inside ``lookup`` so the
    test can cancel a submission at a deterministic point."""

    def __init__(self):
        self.entered = threading.Event()
        self.gate = threading.Event()

    def lookup(self, variant):
        self.entered.set()
        assert self.gate.wait(timeout=10.0)
        return None

    def record(self, variant, outcome):
        return None


class _FullDiskOnceMemo(MemoStore):
    """A journal-backed store whose first append fails like a full disk."""

    full = True

    def _append(self, entry):
        if self.full:
            self.full = False
            raise OSError(28, "No space left on device")
        super()._append(entry)


def _assert_finished_and_forgotten(scheduler, submission):
    """Every variant ran or was skipped, the stream ended with ``done``
    and the scheduler no longer lists the submission."""
    summary = submission.summary()
    assert summary["skipped"] == submission.total - summary["completed"]
    assert list(submission.events())[-1][0] == "done"
    assert scheduler.status()["submissions"] == []


class TestSubmission:
    def test_outcomes_stream_with_input_indices(self):
        variants = _variants(5)
        with Scheduler(shards=2, workers=2) as scheduler:
            submission = scheduler.submit(variants)
            events = list(submission.events())
        outcomes = {index: payload for kind, index, payload in events
                    if kind == "outcome"}
        assert sorted(outcomes) == list(range(5))
        for index, outcome in outcomes.items():
            assert outcome.variant_id == variants[index].variant_id
        kind, _index, summary = events[-1]
        assert kind == "done"
        assert summary["completed"] == 5
        assert summary["errors"] == 0
        assert summary["done"] is True

    def test_verdict_parity_with_direct_execution(self):
        variants = _variants(4)
        direct = [execute_variant(v) for v in variants]
        with Scheduler(shards=2, workers=2) as scheduler:
            submission = scheduler.submit(variants)
            assert submission.wait(timeout=60.0)
            delivered = dict(
                (index, payload)
                for kind, index, payload in submission.events()
                if kind == "outcome"
            )
        for index, expected in enumerate(direct):
            actual = delivered[index]
            assert (actual.verdict, actual.violated_goals) == (
                expected.verdict, expected.violated_goals
            )

    def test_empty_submission_finishes_instantly(self):
        with Scheduler(shards=1, workers=1) as scheduler:
            submission = scheduler.submit([])
            assert submission.wait(timeout=5.0)
            assert submission.summary()["total"] == 0

    def test_poisoned_variant_becomes_error_outcome(self):
        with Scheduler(shards=1, workers=1) as scheduler:
            submission = scheduler.submit([_poisoned_variant()])
            events = list(submission.events())
        (_kind, _index, outcome), (_done, _none, summary) = events
        assert outcome.is_error
        assert summary["errors"] == 1
        assert summary["done"] is True


class TestScheduling:
    def test_single_worker_steals_other_shards_units(self):
        # One worker homed on shard 0, units dealt round-robin across 4
        # shards: most of the work can only arrive by stealing.
        with Scheduler(shards=4, workers=1) as scheduler:
            submission = scheduler.submit(_variants(4 * UNIT_SIZE))
            assert submission.wait(timeout=60.0)
            status = scheduler.status()
        assert status["stolen_units"] > 0
        assert status["executed"] == 4 * UNIT_SIZE

    def test_units_are_cut_in_input_order(self):
        """8 variants from three interleaved families make 2 units of 4
        (grouping by family would make 3); every index is delivered
        exactly once."""
        registry = default_registry()
        uc1 = registry.variants(
            scenario="uc1-construction-site", family="zone-geometry"
        )[:4]
        uc2 = registry.variants(
            scenario="uc2-keyless-entry", family="zone-geometry"
        )[:3]
        (baseline,) = registry.variants(
            scenario="uc2-keyless-entry", family="baseline"
        )
        variants = [uc1[0], uc2[0], uc1[1], uc2[1], uc1[2], uc2[2], uc1[3]]
        variants.append(baseline)
        memo = _GateMemo()
        scheduler = Scheduler(memo, shards=1, workers=1)
        try:
            submission = scheduler.submit(variants)
            # The worker holds the first unit; the other one stays queued.
            assert memo.entered.wait(timeout=10.0)
            assert scheduler.status()["queued_units"] == 1
            memo.gate.set()
            assert submission.wait(timeout=60.0)
            indices = [
                index
                for kind, index, _payload in submission.events()
                if kind == "outcome"
            ]
            assert sorted(indices) == list(range(8))
            assert scheduler.status()["executed"] == 8
        finally:
            memo.gate.set()
            scheduler.shutdown()

    @pytest.mark.parametrize(
        "count, units", [(1, 1), (4, 1), (5, 2), (8, 2), (9, 3)]
    )
    def test_every_cut_delivers_each_index_once(self, count, units):
        """``count`` variants make ceil(count / UNIT_SIZE) units; the
        worker holds the first one, the rest stay queued until it is
        released."""
        assert UNIT_SIZE == 4
        variants = _variants(count)
        memo = _GateMemo()
        scheduler = Scheduler(memo, shards=1, workers=1)
        try:
            submission = scheduler.submit(variants)
            assert memo.entered.wait(timeout=10.0)
            assert scheduler.status()["queued_units"] == units - 1
            memo.gate.set()
            assert submission.wait(timeout=60.0)
            delivered = [
                (index, payload.variant_id)
                for kind, index, payload in submission.events()
                if kind == "outcome"
            ]
            assert sorted(delivered) == [
                (index, variant.variant_id)
                for index, variant in enumerate(variants)
            ]
            assert scheduler.status()["executed"] == count
        finally:
            memo.gate.set()
            scheduler.shutdown()

    def test_status_reports_geometry_and_progress(self):
        memo = _GateMemo()
        scheduler = Scheduler(memo, shards=3, workers=2)
        try:
            submission = scheduler.submit(_variants(3))
            assert memo.entered.wait(timeout=10.0)
            live = scheduler.status()
            assert (live["shards"], live["workers"]) == (3, 2)
            assert live["active_submissions"] == 1
            assert live["total_submissions"] == 1
            (summary,) = live["submissions"]
            assert summary["id"] == submission.id
            assert summary["done"] is False
            memo.gate.set()
            assert submission.wait(timeout=60.0)
            done = scheduler.status()
            assert done["active_submissions"] == 0
            assert done["total_submissions"] == 1
            assert done["submissions"] == []
        finally:
            memo.gate.set()
            scheduler.shutdown()

    def test_finished_submissions_are_forgotten(self):
        """A long-lived scheduler keeps no finished submission: not in
        its listing, not in its token's callbacks."""
        variant = _variants(1)[0]
        with Scheduler(MemoStore(), shards=1, workers=1) as scheduler:
            callbacks = len(scheduler.cancel._callbacks)
            for batch in ([variant], []) * 25:
                assert scheduler.submit(batch).wait(timeout=60.0)
            status = scheduler.status()
            assert status["submissions"] == []
            assert status["active_submissions"] == 0
            assert status["total_submissions"] == 50
            assert len(scheduler.cancel._callbacks) == callbacks

    def test_cancel_skips_remaining_variants(self):
        memo = _GateMemo()
        scheduler = Scheduler(memo, shards=1, workers=1)
        try:
            submission = scheduler.submit(_variants(6))
            assert memo.entered.wait(timeout=10.0)
            scheduler.cancel_submission(submission.id)
            memo.gate.set()
            assert submission.wait(timeout=30.0)
            summary = submission.summary()
            # The in-flight variant finishes; everything queued is skipped.
            assert summary["completed"] == 1
            assert summary["skipped"] == 5
            assert summary["cancelled"] is True
        finally:
            memo.gate.set()
            scheduler.shutdown()

    def test_scheduler_cancel_token_fans_out_to_submissions(self):
        memo = _GateMemo()
        cancel = CancelToken()
        scheduler = Scheduler(memo, shards=1, workers=1, cancel=cancel)
        try:
            first = scheduler.submit(_variants(4))
            second = scheduler.submit(_variants(2))
            assert memo.entered.wait(timeout=10.0)
            # Cancelling the scheduler-wide token cancels every live
            # submission's token at once (the shutdown path) ...
            cancel.cancel()
            assert first.cancel.cancelled
            assert second.cancel.cancelled
            # ... and one accepted afterwards starts cancelled.
            assert scheduler.submit(_variants(1)).cancel.cancelled
        finally:
            memo.gate.set()
            scheduler.shutdown(wait=False)

    def test_submission_after_scheduler_cancel_finishes_skipped(self):
        """A submission accepted after the scheduler is cancelled has no
        worker left to run it, so it is skipped whole and finishes."""
        scheduler = Scheduler(shards=2, workers=2)
        try:
            scheduler.cancel.cancel()
            submission = scheduler.submit(_variants(2))
            assert submission.wait(timeout=10.0)
            _assert_finished_and_forgotten(scheduler, submission)
            assert submission.summary()["skipped"] == 2
        finally:
            scheduler.shutdown(wait=False)

    def test_scheduler_cancel_finishes_queued_submissions(self):
        """Cancelling the scheduler mid-run: the in-flight variant lands,
        every queued one is skipped, and the submission finishes."""
        memo = _GateMemo()
        scheduler = Scheduler(memo, shards=2, workers=1)
        try:
            submission = scheduler.submit(_variants(8))
            assert memo.entered.wait(timeout=10.0)
            scheduler.cancel.cancel()
            memo.gate.set()
            assert submission.wait(timeout=30.0)
            _assert_finished_and_forgotten(scheduler, submission)
            assert submission.summary()["completed"] == 1
        finally:
            memo.gate.set()
            scheduler.shutdown(wait=False)

    def test_shutdown_without_wait_finishes_queued_submissions(self):
        """``shutdown(wait=False)`` skips the queued units; the in-flight
        unit still runs, and the submission finishes."""
        memo = _GateMemo()
        scheduler = Scheduler(memo, shards=2, workers=1)
        try:
            submission = scheduler.submit(_variants(8))
            assert memo.entered.wait(timeout=10.0)
            scheduler.shutdown(wait=False)
            memo.gate.set()
            assert submission.wait(timeout=30.0)
            _assert_finished_and_forgotten(scheduler, submission)
            assert submission.summary()["completed"] == UNIT_SIZE
        finally:
            memo.gate.set()

    def test_unknown_submission_id_raises(self):
        with Scheduler(shards=1, workers=1) as scheduler:
            with pytest.raises(ValidationError, match="unknown submission"):
                scheduler.get("sub-9999")
            # A finished submission is forgotten, so its id is unknown.
            finished = scheduler.submit([])
            with pytest.raises(ValidationError, match="unknown submission"):
                scheduler.cancel_submission(finished.id)

    def test_submit_after_shutdown_raises(self):
        scheduler = Scheduler(shards=1, workers=1)
        scheduler.shutdown()
        with pytest.raises(ValidationError, match="shut down"):
            scheduler.submit(_variants(1))

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValidationError, match="shards"):
            Scheduler(shards=0)
        with pytest.raises(ValidationError, match="workers"):
            Scheduler(workers=0)


class TestSchedulerMemo:
    def test_second_submission_is_fully_cached(self, tmp_path):
        variants = _variants(4)
        store = MemoStore(tmp_path)
        with Scheduler(store, shards=2, workers=2) as scheduler:
            cold = scheduler.submit(variants)
            assert cold.wait(timeout=60.0)
            assert cold.summary()["cached"] == 0
            warm = scheduler.submit(variants)
            assert warm.wait(timeout=60.0)
            assert warm.summary()["cached"] == len(variants)
        assert store.hits == len(variants)

    def test_failing_journal_append_is_an_error_outcome(self, tmp_path):
        # The append raises inside the worker: the variant comes back as
        # an error outcome, nothing is cached, and the one worker lives
        # on to serve the next submission.
        variant = _variants(1)[0]
        store = _FullDiskOnceMemo(tmp_path)
        with Scheduler(store, shards=2, workers=1) as scheduler:
            first = scheduler.submit([variant])
            assert first.wait(timeout=60.0)
            (_kind, _index, outcome), _done = list(first.events())
            assert outcome.is_error
            assert outcome.stats["error_type"] == "OSError"
            assert len(store) == 0

            second = scheduler.submit([variant])
            assert second.wait(timeout=60.0)
            summary = second.summary()
            assert (summary["completed"], summary["errors"]) == (1, 0)
        assert len(store) == 1

    def test_malformed_journal_entry_executes_fresh(self, tmp_path):
        variant = _variants(1)[0]
        entry = {
            "schema": MEMO_SCHEMA,
            "key": MemoStore().key_for(variant),
            "variant_id": variant.variant_id,
            "fingerprint": code_fingerprint(),
            "outcome": {"verdict": "X"},
        }
        (tmp_path / JOURNAL_NAME).write_text(
            json.dumps(entry) + "\n", encoding="utf-8"
        )
        store = MemoStore(tmp_path)
        assert store.corrupt == 1
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        with Scheduler(store, shards=1, workers=1) as scheduler:
            submission = scheduler.submit([variant])
            assert submission.wait(timeout=60.0)
            (_kind, _index, outcome), _done = list(submission.events())
        assert not outcome.from_cache and not outcome.is_error
        assert [outcome.verdict, list(outcome.violated_goals)] == golden[
            variant.variant_id
        ]
