"""Family batching: plan semantics, backend contract, verdict parity.

The batching tier (PR 6) must be invisible in every observable output:
:class:`~repro.engine.batch.BatchPlan` covers each variant exactly once
without mixing families, per-variant seeds still derive from the
*original* campaign index (so batching can never move a seed), and
campaign results -- verdicts, goals, error records, ordering -- are
identical to serial execution at every batch size, on every inner
backend, under both fork and spawn start methods.
"""

import dataclasses

import pytest

from repro.engine.batch import BatchPlan, VariantBatch, execute_batch
from repro.engine.campaign import ERROR_VERDICT, run_campaign
from repro.engine.registry import default_registry
from repro.engine.spec import VariantSpec, freeze_params
from repro.errors import ValidationError, VariantExecutionError
from repro.runtime import (
    BatchedBackend,
    ProcessBackend,
    Runtime,
    SerialBackend,
    ThreadBackend,
    available_start_methods,
    backend_from_spec,
    derive_seed,
)


def _quick_variants():
    return default_registry().variants(family="zone-geometry")


def _fingerprint(result):
    return [
        (o.variant_id, o.verdict, o.violated_goals, o.detections)
        for o in result.outcomes
    ]


class TestBatchPlan:
    def test_plan_covers_every_variant_exactly_once(self):
        variants = default_registry().variants()
        plan = BatchPlan.plan(variants, batch_size=5)
        indices = [i for batch in plan for i in batch.indices]
        assert sorted(indices) == list(range(len(variants)))
        assert plan.total == len(variants)

    def test_batches_never_mix_families(self):
        variants = default_registry().variants()
        for batch in BatchPlan.plan(variants, batch_size=7):
            assert len(batch) <= 7
            keys = {(v.scenario, v.family) for v in batch.variants}
            assert keys == {(batch.scenario, batch.family)}

    def test_in_group_order_is_original_order(self):
        variants = default_registry().variants()
        for batch in BatchPlan.plan(variants, batch_size=4):
            assert list(batch.indices) == sorted(batch.indices)
            for index, variant in zip(batch.indices, batch.variants):
                assert variants[index] is variant

    def test_oversize_batch_is_one_batch_per_family(self):
        variants = _quick_variants()
        plan = BatchPlan.plan(variants, batch_size=10_000)
        families = {(v.scenario, v.family) for v in variants}
        assert len(plan) == len(families)

    def test_batch_size_one_degenerates_to_singletons(self):
        variants = _quick_variants()
        plan = BatchPlan.plan(variants, batch_size=1)
        assert len(plan) == len(variants)
        assert all(len(batch) == 1 for batch in plan)

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValidationError):
            BatchPlan.plan(_quick_variants(), batch_size=0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError):
            VariantBatch(
                scenario="s", family="f", indices=(), variants=()
            )

    def test_mismatched_indices_rejected(self):
        variant = _quick_variants()[0]
        with pytest.raises(ValidationError):
            VariantBatch(
                scenario=variant.scenario,
                family=variant.family,
                indices=(0, 1),
                variants=(variant,),
            )

    def test_summary_shape(self):
        plan = BatchPlan.plan(_quick_variants(), batch_size=6)
        summary = plan.summary()
        assert summary["variants"] == plan.total
        assert summary["batches"] == len(plan)
        assert summary["max_batch"] <= 6
        assert all("/" in family for family in summary["families"])

    def test_registry_batches_helper(self):
        registry = default_registry()
        plan = registry.batches(5, family="zone-geometry")
        assert plan.total == len(registry.variants(family="zone-geometry"))


class TestBatchedBackendContract:
    def test_nesting_rejected(self):
        with pytest.raises(ValidationError):
            BatchedBackend(BatchedBackend(SerialBackend()))

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValidationError):
            BatchedBackend(SerialBackend(), batch_size=0)

    def test_proxies_inner_capabilities(self):
        inner = ThreadBackend(jobs=3)
        try:
            batched = BatchedBackend(inner, batch_size=4)
            assert batched.name == "batched-thread"
            assert batched.jobs == 3
            assert batched.shares_memory is inner.shares_memory
            assert batched.batch_size == 4
        finally:
            inner.shutdown()

    def test_plain_jobs_still_run_through_the_wrapper(self):
        backend = BatchedBackend(SerialBackend(), batch_size=2)
        results = dict(backend.map_unordered(lambda x: x * x, [1, 2, 3]))
        assert results == {0: 1, 1: 4, 2: 9}

    def test_backend_from_spec_wraps(self):
        backend = backend_from_spec("serial", batch_size=3)
        assert isinstance(backend, BatchedBackend)
        assert backend.batch_size == 3
        assert backend.inner.name == "serial"

    def test_backend_from_spec_conflicting_batch_size_rejected(self):
        ready = BatchedBackend(SerialBackend(), batch_size=3)
        with pytest.raises(ValidationError):
            backend_from_spec(ready, batch_size=5)
        # Matching (or unset) sizes pass the ready backend through.
        assert backend_from_spec(ready, batch_size=3).batch_size == 3
        assert backend_from_spec(ready).batch_size == 3


class TestSeedStability:
    def test_map_batches_seeds_match_unbatched_map(self):
        """The seed a variant sees is a function of its original index
        only -- regrouping into batches must never move one."""
        items = [f"item-{n}" for n in range(9)]
        with Runtime(SerialBackend(), seed=1234) as runtime:
            unbatched = {
                r.index: r.seed for r in runtime.map(lambda x: x, items)
            }
        # Deliberately scrambled grouping: order and size both differ.
        batches = [
            ({"g": "a"}, [(4, items[4]), (1, items[1])]),
            ({"g": "b"}, [(7, items[7])]),
            ({"g": "c"}, [(0, items[0]), (8, items[8]), (2, items[2])]),
            ({"g": "d"}, [(3, items[3]), (6, items[6]), (5, items[5])]),
        ]

        def run_batch(context, jobs):
            return [
                {"index": i, "seed": s, "value": item, "wall_time_s": 0.0}
                for i, s, item in jobs
            ]

        with Runtime(SerialBackend(), seed=1234) as runtime:
            batched = {
                r.index: r.seed
                for r in runtime.map_batches(run_batch, batches)
            }
        assert batched == unbatched
        assert batched[3] == derive_seed(1234, 3)


class TestBatchedCampaignParity:
    @pytest.mark.parametrize("batch_size", [1, 2, 3, 7, 100])
    def test_batched_serial_matches_serial_at_every_size(self, batch_size):
        variants = _quick_variants()
        serial = run_campaign(variants, backend=SerialBackend())
        batched = run_campaign(
            variants,
            backend=BatchedBackend(SerialBackend(), batch_size=batch_size),
        )
        assert _fingerprint(batched) == _fingerprint(serial)
        assert batched.backend == "batched-serial"

    def test_batched_thread_and_process_match_serial(self):
        variants = _quick_variants()
        serial = run_campaign(variants, backend=SerialBackend())
        for inner in (ThreadBackend(jobs=2), ProcessBackend(jobs=2)):
            batched = run_campaign(
                variants, backend=BatchedBackend(inner, batch_size=4)
            )
            assert _fingerprint(batched) == _fingerprint(serial), inner.name

    @pytest.mark.parametrize("method", available_start_methods())
    def test_batched_process_parity_under_every_start_method(self, method):
        """Seed determinism survives the pickle boundary in both fork
        and spawn worlds: batches arrive as payload dicts, seeds derive
        from original indices, verdicts match serial exactly."""
        variants = _quick_variants()[:6]
        serial = run_campaign(variants, backend=SerialBackend())
        batched = run_campaign(
            variants,
            backend=BatchedBackend(
                ProcessBackend(jobs=2, start_method=method), batch_size=2
            ),
        )
        assert _fingerprint(batched) == _fingerprint(serial)

    @pytest.mark.parametrize("size", [64, 256])
    def test_large_convoys_batched_match_serial(self, size):
        """The n=8 baseline and jam convoys, tail grown to ``size``."""
        lead_m = (size - 1) * 40.0
        geometry = {
            "fleet_size": size,
            "zone_start_m": lead_m + 600.0,
            "zone_end_m": lead_m + 700.0,
            "rsu_position_m": lead_m + 399.0,
            "road_length_m": lead_m + 3000.0,
        }
        variants = [
            dataclasses.replace(
                variant,
                variant_id=f"{variant.variant_id}@n{size}",
                params=freeze_params({**variant.params_dict(), **geometry}),
            )
            for variant in default_registry().variants(family="fleet")
            if variant.params_dict()["fleet_size"] == 8
            and variant.attack in (None, "jam")
        ]
        assert len(variants) == 2
        serial = run_campaign(variants, backend=SerialBackend())
        batched = run_campaign(
            variants, backend=BatchedBackend(SerialBackend(), batch_size=4)
        )
        assert _fingerprint(batched) == _fingerprint(serial)

    def test_mixed_family_lists_still_ordered(self):
        registry = default_registry()
        variants = registry.variants(family="zone-geometry")
        variants += registry.variants(family="fleet")
        result = run_campaign(
            variants, backend=BatchedBackend(SerialBackend(), batch_size=3)
        )
        assert [o.variant_id for o in result.outcomes] == [
            v.variant_id for v in variants
        ]


class TestBatchedErrorHandling:
    def _poisoned_sibling(self, template):
        """A variant sharing the template's batch group whose execution
        raises worker-side (unknown catalog attack)."""
        return VariantSpec(
            variant_id=f"{template.variant_id}-poisoned",
            scenario=template.scenario,
            family=template.family,
            attack="no-such-catalog-attack",
        )

    def test_poisoned_variant_fails_alone_inside_its_batch(self):
        variants = _quick_variants()[:3]
        poisoned = self._poisoned_sibling(variants[0])
        submitted = [variants[0], poisoned, variants[1], variants[2]]
        result = run_campaign(
            submitted,
            backend=BatchedBackend(SerialBackend(), batch_size=10),
            on_error="record",
        )
        assert result.total == 4
        by_id = {o.variant_id: o for o in result.outcomes}
        assert by_id[poisoned.variant_id].verdict == ERROR_VERDICT
        for healthy in variants[:3]:
            assert by_id[healthy.variant_id].verdict != ERROR_VERDICT

    def test_poisoned_variant_raises_under_default_policy(self):
        variants = _quick_variants()[:2]
        poisoned = self._poisoned_sibling(variants[0])
        with pytest.raises(VariantExecutionError) as excinfo:
            run_campaign(
                [variants[0], poisoned, variants[1]],
                backend=BatchedBackend(SerialBackend(), batch_size=10),
            )
        assert excinfo.value.variant_id == poisoned.variant_id

    def test_execute_batch_reports_errors_in_runtime_shape(self):
        variants = _quick_variants()[:1]
        poisoned = self._poisoned_sibling(variants[0])
        jobs = [(0, 111, variants[0]), (1, 222, poisoned)]
        payloads = execute_batch(
            {"scenario": poisoned.scenario, "family": poisoned.family}, jobs
        )
        assert [p["index"] for p in payloads] == [0, 1]
        assert [p["seed"] for p in payloads] == [111, 222]
        assert "value" in payloads[0]
        assert "error" in payloads[1]
        assert payloads[1]["error"]["type"]

    def test_custom_registry_refused_on_batched_process(self):
        """shares_memory proxies through the wrapper, so the custom
        registry guard still fires on batched process backends."""
        from repro.engine.registry import ScenarioRegistry

        registry = ScenarioRegistry()
        backend = BatchedBackend(ProcessBackend(jobs=2), batch_size=2)
        try:
            with pytest.raises(ValidationError):
                run_campaign(
                    _quick_variants()[:2], registry=registry, backend=backend
                )
        finally:
            backend.shutdown()
