"""Campaign semantics on the pluggable runtime.

Covers the contracts the execution-backend redesign introduced: verdict
parity across backends (including the AD08/AD20 bound-attack family),
backend ownership, streaming result sinks, poisoned jobs surfacing as
tagged error records (or as
:class:`~repro.errors.VariantExecutionError`), and cooperative
mid-campaign cancellation.
"""

import dataclasses

import pytest

from repro.engine.campaign import (
    ERROR_VERDICT,
    iter_campaign,
    run_campaign,
)
from repro.engine.registry import default_registry
from repro.engine.spec import VariantSpec, freeze_params
from repro.errors import ValidationError, VariantExecutionError
from repro.results import ResultSink
from repro.runtime import (
    CancelToken,
    ProcessBackend,
    SerialBackend,
    available_start_methods,
)


def _quick_variants():
    # Both use cases' zone-geometry sweeps: 20+ cheap, deterministic runs.
    return default_registry().variants(family="zone-geometry")


def _poisoned_variant():
    """A variant whose worker-side execution raises (unknown attack)."""
    return VariantSpec(
        variant_id="test/poison/bad-attack",
        scenario="uc2-keyless-entry",
        family="poison",
        attack="no-such-catalog-attack",
    )


def _fingerprint(result):
    return [
        (o.variant_id, o.verdict, o.violated_goals, o.detections)
        for o in result.outcomes
    ]


def _fleet_fingerprint(result):
    """:func:`_fingerprint` plus each outcome's per-vehicle verdicts."""
    return [
        fingerprint + (outcome.stats["per_vehicle_verdicts"],)
        for fingerprint, outcome in zip(_fingerprint(result), result.outcomes)
    ]


def _large_convoys(size):
    """The n=8 fleet baseline and jam variants, tail grown to ``size``
    vehicles with the zone, RSU and road shifted ahead of the lead."""
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
    return variants


class TestBackendParity:
    def test_process_matches_serial(self):
        variants = _quick_variants()
        serial = run_campaign(variants, backend=SerialBackend())
        with ProcessBackend(jobs=2) as backend:
            parallel = run_campaign(variants, backend=backend)
        assert _fingerprint(parallel) == _fingerprint(serial)
        assert parallel.backend == "process"

    @pytest.mark.slow
    def test_ad08_ad20_family_parity_serial_vs_process(self):
        """The bound-attack parity family (AD08, AD20) lands on identical
        verdicts when fanned out over a process pool."""
        registry = default_registry()
        variants = registry.variants(family="parity", attack="AD08")
        variants += registry.variants(family="parity", attack="AD20")
        assert len(variants) == 2
        serial = run_campaign(variants, backend=SerialBackend())
        parallel = run_campaign(variants, backend=ProcessBackend(jobs=2))
        assert _fingerprint(parallel) == _fingerprint(serial)
        assert serial.outcome("uc2/parity/ad08").sut_passed
        assert serial.outcome("uc1/parity/ad20").sut_passed

    def test_fleet_family_matches_serial_on_process(self):
        """Per-vehicle verdicts cross the pickle boundary unchanged."""
        variants = [
            variant
            for variant in default_registry().variants(family="fleet")
            if variant.params_dict()["fleet_size"] in (2, 4, 8)
        ]
        serial = _fleet_fingerprint(run_campaign(variants, backend="serial"))
        with ProcessBackend(jobs=2) as backend:
            result = run_campaign(variants, backend=backend)
        assert _fleet_fingerprint(result) == serial

    @pytest.mark.parametrize("size", [64, 256])
    def test_large_convoys_match_serial_on_process(self, size):
        """Large convoys keep every per-vehicle verdict across the
        pickle boundary."""
        variants = _large_convoys(size)
        serial = run_campaign(variants, backend=SerialBackend())
        with ProcessBackend(jobs=2) as backend:
            parallel = run_campaign(variants, backend=backend)
        assert _fleet_fingerprint(parallel) == _fleet_fingerprint(serial)

    @pytest.mark.parametrize("method", available_start_methods())
    def test_process_parity_under_every_start_method(self, method):
        variants = _quick_variants()[:3]
        serial = run_campaign(variants, backend=SerialBackend())
        parallel = run_campaign(
            variants, backend=ProcessBackend(jobs=2, start_method=method)
        )
        assert _fingerprint(parallel) == _fingerprint(serial)


class TestOrderingAndOwnership:
    def test_iter_campaign_accepts_backend_names(self):
        from repro.engine.campaign import iter_campaign

        variants = _quick_variants()[:3]
        outcomes = list(iter_campaign(variants, backend="process"))
        assert {o.variant_id for o in outcomes} == {
            v.variant_id for v in variants
        }

    def test_duplicate_variant_ids_keep_positional_order(self):
        """Explicit lists may repeat a spec; outcomes must come back in
        exact submission order, not collapsed by variant id."""
        first, second = _quick_variants()[:2]
        submitted = [first, second, first]
        with ProcessBackend(jobs=2) as backend:
            result = run_campaign(submitted, backend=backend)
        assert [o.variant_id for o in result.outcomes] == [
            v.variant_id for v in submitted
        ]

    def test_runner_shuts_down_owned_backend_after_run(self, monkeypatch):
        """A backend the campaign built from a name is released after
        the run: its pool is not leaked."""
        released = []
        shutdown = ProcessBackend.shutdown

        def recording_shutdown(backend, *args, **kwargs):
            started = backend.started
            shutdown(backend, *args, **kwargs)
            released.append((started, backend.started))

        monkeypatch.setattr(ProcessBackend, "shutdown", recording_shutdown)
        run_campaign(_quick_variants()[:3], backend="process")
        assert released == [(True, False)]

    def test_runner_leaves_caller_backend_running(self):
        backend = ProcessBackend(jobs=2)
        try:
            run_campaign(_quick_variants()[:3], backend=backend)
            assert backend.started is True  # caller owns the lifecycle
        finally:
            backend.shutdown()


class TestStreaming:
    def test_sink_receives_records_as_outcomes_complete(self):
        variants = _quick_variants()[:4]
        sink = ResultSink()
        sizes = []
        for outcome in iter_campaign(variants, sink=sink):
            sizes.append(len(sink))  # record present the moment we see it
        assert sizes == [1, 2, 3, 4]
        snapshot = sink.snapshot()
        assert snapshot.subjects() == tuple(v.variant_id for v in variants)

    def test_partial_snapshot_mid_campaign(self):
        variants = _quick_variants()[:4]
        sink = ResultSink()
        stream = iter_campaign(variants, sink=sink)
        next(stream)
        next(stream)
        partial = sink.snapshot()
        assert len(partial) == 2
        assert partial.to_json()  # exportable before the campaign ends
        stream.close()

    def test_run_campaign_fills_sink_completely(self):
        variants = _quick_variants()[:3]
        sink = ResultSink()
        result = run_campaign(
            variants, backend=ProcessBackend(jobs=2), sink=sink
        )
        assert len(sink) == result.total
        assert set(sink.snapshot().subjects()) == {
            o.variant_id for o in result.outcomes
        }


class TestErrorHandling:
    def test_poisoned_job_surfaces_as_error_record(self):
        variants = list(_quick_variants()[:2]) + [_poisoned_variant()]
        result = run_campaign(variants, on_error="record")
        assert result.total == 3
        errors = result.errors()
        assert len(errors) == 1
        error = errors[0]
        assert error.verdict == ERROR_VERDICT
        assert error.is_error and not error.sut_passed
        assert error.variant_id == "test/poison/bad-attack"
        assert "SimulationError" in error.notes
        record = error.to_record()
        assert record.passed is False
        assert record.get("error_type") == "SimulationError"
        assert result.summary()["errors"] == 1

    def test_poisoned_job_raises_typed_error_with_variant_id(self):
        variants = list(_quick_variants()[:1]) + [_poisoned_variant()]
        with pytest.raises(VariantExecutionError) as excinfo:
            run_campaign(variants)
        assert excinfo.value.variant_id == "test/poison/bad-attack"
        assert excinfo.value.error_type == "SimulationError"

    def test_poisoned_job_raises_across_process_boundary(self):
        variants = list(_quick_variants()[:1]) + [_poisoned_variant()]
        with pytest.raises(VariantExecutionError) as excinfo:
            run_campaign(variants, backend=ProcessBackend(jobs=2))
        assert excinfo.value.variant_id == "test/poison/bad-attack"
        assert "SimulationError" in excinfo.value.error_traceback

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValidationError, match="on_error"):
            run_campaign([], on_error="ignore")


class TestCancellation:
    def test_cancel_mid_campaign_keeps_partial_outcomes(self):
        variants = _quick_variants()
        assert len(variants) >= 4
        token = CancelToken()

        def on_event(event):
            if event.kind == "completed" and event.done == 2:
                token.cancel()

        result = run_campaign(variants, cancel=token, on_event=on_event)
        assert result.cancelled
        assert result.total == 2
        assert result.summary()["cancelled"] is True
        assert "[cancelled]" in result.to_text()

    def test_cancel_streams_into_sink_consistently(self):
        variants = _quick_variants()
        token = CancelToken()
        sink = ResultSink()

        def on_event(event):
            if event.kind == "completed":
                token.cancel()

        result = run_campaign(
            variants, cancel=token, on_event=on_event, sink=sink
        )
        assert len(sink) == result.total


class TestWorkspaceIntegration:
    def test_workspace_campaign_streams_and_respects_backend(self):
        from repro.api import Workspace

        workspace = Workspace()
        result = workspace.campaign(
            scenario="uc2-keyless-entry",
            family="zone-geometry",
            backend="process",
            jobs=2,
        )
        assert result.backend == "process"
        assert result.workers == 2
        records = workspace.results()
        assert len(records) == result.total
        serial = run_campaign(
            default_registry().variants(
                scenario="uc2-keyless-entry", family="zone-geometry"
            ),
            backend="serial",
        )
        assert _fingerprint(result) == _fingerprint(serial)

    def test_workspace_rejects_conflicting_specs(self):
        from repro.api import Workspace

        with pytest.raises(ValidationError, match="conflicts"):
            Workspace().campaign(
                family="zone-geometry", backend=ProcessBackend(jobs=2), jobs=3
            )
