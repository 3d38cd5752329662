"""One job shape: every campaign backend runs one variant per task.

A campaign hands the runtime one task per pending variant, built from
a ``functools.partial`` over the module-level ``_execute_checked``.
These tests pin what that shape promises: one progress event per
variant, verdict parity with serial execution at every campaign size,
memo hits that re-index the submitted subset without moving any
verdict, a job function that pickles and enforces deadlines,
input-ordered results for mixed-family lists, and a poisoned variant
that fails alone wherever it sits in the list.
"""

import dataclasses
import functools
import pickle

import pytest

from repro.engine.campaign import (
    ERROR_VERDICT,
    _execute_checked,
    execute_variant,
    run_campaign,
)
from repro.engine.registry import default_registry
from repro.engine.spec import VariantSpec
from repro.errors import DeadlineExceededError, VariantExecutionError
from repro.runtime import ProcessBackend, SerialBackend


def _quick_variants():
    return default_registry().variants(family="zone-geometry")


def _small_fleets():
    return [
        variant
        for variant in default_registry().variants(family="fleet")
        if variant.params_dict()["fleet_size"] == 2
    ]


def _fingerprint(result):
    return [
        (o.variant_id, o.verdict, o.violated_goals, o.detections)
        for o in result.outcomes
    ]


def _outcome_fingerprint(outcome):
    return (
        outcome.variant_id,
        outcome.verdict,
        outcome.violated_goals,
        outcome.violations,
        outcome.detections,
        outcome.detections_by_control,
    )


def _make_backend(name):
    if name == "serial":
        return SerialBackend()
    return ProcessBackend(jobs=2)


def _poisoned_variant():
    """A variant whose worker-side execution raises (unknown attack)."""
    return VariantSpec(
        variant_id="test/poison/bad-attack",
        scenario="uc2-keyless-entry",
        family="poison",
        attack="no-such-catalog-attack",
    )


class _DictMemo:
    """A campaign memo serving pre-seeded outcomes by variant id."""

    def __init__(self, outcomes):
        self.outcomes = {
            outcome.variant_id: dataclasses.replace(outcome, from_cache=True)
            for outcome in outcomes
        }
        self.recorded = []

    def lookup(self, variant):
        return self.outcomes.get(variant.variant_id)

    def record(self, variant, outcome):
        self.recorded.append(variant.variant_id)


class TestOneVariantPerTask:
    @pytest.mark.parametrize("name", ["serial", "process"])
    def test_every_variant_is_its_own_task(self, name):
        """The runtime reports one completed task per variant, each
        counted against the full campaign."""
        variants = _quick_variants()[:5]
        events = []
        with _make_backend(name) as backend:
            result = run_campaign(
                variants, backend=backend, on_event=events.append
            )
        completed = [event for event in events if event.kind == "completed"]
        assert len(completed) == len(variants)
        assert [event.done for event in completed] == [1, 2, 3, 4, 5]
        assert all(event.total == len(variants) for event in completed)
        assert events[-1].kind == "finished"
        assert sorted(event.result.index for event in completed) == list(
            range(len(variants))
        )
        assert result.total == len(variants)

    @pytest.mark.parametrize("size", [1, 2, 3, 7])
    def test_pool_matches_serial_at_every_campaign_size(self, size):
        """Fewer, equal and more variants than pool workers all land on
        the serial verdicts, in input order."""
        variants = _quick_variants()[:size]
        assert len(variants) == size
        serial = run_campaign(variants, backend=SerialBackend())
        with ProcessBackend(jobs=2) as backend:
            parallel = run_campaign(variants, backend=backend)
        assert _fingerprint(parallel) == _fingerprint(serial)
        assert parallel.backend == "process"


class TestMemoReindexing:
    @pytest.mark.parametrize(
        "cached",
        [(0,), (3,), (6,), (0, 2, 4, 6)],
        ids=["first", "middle", "last", "alternate"],
    )
    def test_memo_hits_move_no_verdict(self, cached):
        """Memo hits are served before the pool runs, so the pending
        variants are re-indexed; verdicts and input order must not
        move, and only fresh executions are recorded back."""
        variants = _quick_variants()[:7]
        reference = run_campaign(variants, backend=SerialBackend())
        memo = _DictMemo(reference.outcomes[i] for i in cached)
        with ProcessBackend(jobs=2) as backend:
            result = run_campaign(variants, backend=backend, memo=memo)
        assert _fingerprint(result) == _fingerprint(reference)
        assert [o.from_cache for o in result.outcomes] == [
            i in cached for i in range(len(variants))
        ]
        assert result.memo_hits == len(cached)
        assert sorted(memo.recorded) == sorted(
            v.variant_id for i, v in enumerate(variants) if i not in cached
        )


class TestJobFunction:
    def test_job_pickles_and_matches_in_process_execution(self):
        variant = _quick_variants()[0]
        job = functools.partial(
            _execute_checked,
            registry=None,
            default_deadline_s=None,
        )
        shipped = pickle.loads(pickle.dumps(job))
        assert _outcome_fingerprint(shipped(variant)) == _outcome_fingerprint(
            execute_variant(variant)
        )

    def test_campaign_default_deadline_applies(self):
        variant = _quick_variants()[0]
        with pytest.raises(DeadlineExceededError, match="deadline"):
            _execute_checked(variant, None, 1e-9)

    def test_variant_deadline_wins_over_campaign_default(self):
        variant = dataclasses.replace(_quick_variants()[0], deadline_s=60.0)
        outcome = _execute_checked(variant, None, 1e-9)
        assert outcome.variant_id == variant.variant_id
        assert not outcome.is_error


class TestMixedFamilyOrdering:
    @pytest.mark.parametrize("name", ["serial", "process"])
    def test_mixed_family_lists_still_ordered(self, name):
        """Interleaved families and scenarios come back in exactly the
        submitted order with the serial verdicts."""
        geometry = _quick_variants()[:4]
        fleets = _small_fleets()[:3]
        variants = [geometry[0], fleets[0], geometry[1], fleets[1]]
        variants += [geometry[2], geometry[3], fleets[2]]
        serial = run_campaign(variants, backend=SerialBackend())
        with _make_backend(name) as backend:
            result = run_campaign(variants, backend=backend)
        assert [o.variant_id for o in result.outcomes] == [
            v.variant_id for v in variants
        ]
        assert _fingerprint(result) == _fingerprint(serial)


class TestPoisonIsolation:
    @pytest.mark.parametrize("position", [0, 1, 2, 3])
    def test_poisoned_variant_fails_alone_at_every_position(self, position):
        healthy = list(_quick_variants()[:3])
        submitted = list(healthy)
        submitted.insert(position, _poisoned_variant())
        with ProcessBackend(jobs=2) as backend:
            result = run_campaign(
                submitted, backend=backend, on_error="record"
            )
        assert [o.variant_id for o in result.outcomes] == [
            v.variant_id for v in submitted
        ]
        assert [o.verdict == ERROR_VERDICT for o in result.outcomes] == [
            i == position for i in range(len(submitted))
        ]
        serial = run_campaign(healthy, backend=SerialBackend())
        survivors = [o for o in result.outcomes if not o.is_error]
        assert [_outcome_fingerprint(o) for o in survivors] == [
            _outcome_fingerprint(o) for o in serial.outcomes
        ]

    @pytest.mark.parametrize("name", ["serial", "process"])
    def test_poisoned_variant_between_healthy_ones_raises(self, name):
        first, second = _quick_variants()[:2]
        with _make_backend(name) as backend:
            with pytest.raises(VariantExecutionError) as excinfo:
                run_campaign(
                    [first, _poisoned_variant(), second], backend=backend
                )
        assert excinfo.value.variant_id == "test/poison/bad-attack"
        assert excinfo.value.error_type == "SimulationError"
