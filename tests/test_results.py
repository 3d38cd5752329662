"""Tests for the uniform result model (repro.results)."""

import pytest

from repro.errors import ValidationError
from repro.results import (
    SCHEMA,
    SOURCE_CAMPAIGN,
    SOURCE_CROSSCHECK,
    SOURCE_FUZZ,
    SOURCE_PIPELINE,
    ResultSet,
    ResultSink,
    RunRecord,
    freeze_items,
)


def record(**overrides) -> RunRecord:
    base = dict(
        source=SOURCE_CAMPAIGN,
        subject="uc1/baseline/stock",
        verdict="ATTACK_FAILED",
        passed=True,
    )
    base.update(overrides)
    return RunRecord(**base)


class TestRunRecord:
    def test_rejects_unknown_source(self):
        with pytest.raises(ValidationError, match="unknown record source"):
            record(source="telemetry")

    def test_rejects_empty_subject_and_verdict(self):
        with pytest.raises(ValidationError, match="subject"):
            record(subject="")
        with pytest.raises(ValidationError, match="verdict"):
            record(verdict="")

    def test_get_resolves_fields_metrics_and_attrs(self):
        row = record(
            metrics=freeze_items({"wall_time_s": 1.5}),
            attrs=freeze_items({"scenario": "uc1-construction-site"}),
        )
        assert row.get("subject") == "uc1/baseline/stock"
        assert row.get("wall_time_s") == 1.5
        assert row.get("scenario") == "uc1-construction-site"
        assert row.get("missing", "fallback") == "fallback"

    def test_payload_round_trip(self):
        row = record(
            goals=("SG01", "SG03"),
            metrics=freeze_items({"violations": 2, "wall_time_s": 0.25}),
            attrs=freeze_items({"attack": "AD20"}),
            notes="violated SG01, SG03",
        )
        payload = row.to_payload()
        assert payload["schema"] == SCHEMA
        assert RunRecord.from_payload(payload) == row

    def test_payload_schema_mismatch_rejected(self):
        payload = record().to_payload()
        payload["schema"] = "repro.results/v0"
        with pytest.raises(ValidationError, match="schema mismatch"):
            RunRecord.from_payload(payload)


def mixed_set() -> ResultSet:
    """A small heterogeneous set covering all four sources."""
    return ResultSet.of(
        record(
            subject="uc1/parity/ad20",
            family="parity",
            use_case="uc1",
            metrics=freeze_items({"wall_time_s": 2.0, "violations": 0}),
            attrs=freeze_items({"attack": "AD20"}),
        ),
        record(
            subject="uc1/ablation/no-auth",
            family="control-ablation",
            use_case="uc1",
            verdict="ATTACK_SUCCEEDED",
            passed=False,
            goals=("SG01",),
            metrics=freeze_items({"wall_time_s": 4.0, "violations": 1}),
        ),
        record(
            source=SOURCE_PIPELINE,
            subject="AD08",
            verdict="ATTACK_FAILED",
            passed=True,
            use_case="uc2",
            family="bound-attack",
            goals=("SG01", "SG04"),
        ),
        record(
            source=SOURCE_FUZZ,
            subject="open_command/strip_mac",
            verdict="rejected",
            passed=True,
            family="strip_mac",
            attrs=freeze_items({"control": "sender-auth"}),
        ),
        record(
            source=SOURCE_CROSSCHECK,
            subject="DS-01",
            verdict="ALIGNED",
            passed=None,
            family="aligned",
            metrics=freeze_items({"matched_ratings": 3}),
        ),
    )


class TestResultSetQueries:
    def test_filter_by_field_and_predicate(self):
        results = mixed_set()
        assert len(results.filter(source=SOURCE_CAMPAIGN)) == 2
        assert len(results.filter(use_case="uc1", family="parity")) == 1
        assert len(results.filter(lambda r: r.passed is False)) == 1
        # attr keys resolve through the same path as fields
        assert results.filter(control="sender-auth").subjects() == (
            "open_command/strip_mac",
        )

    def test_group_by(self):
        by_source = mixed_set().group_by("source")
        assert set(by_source) == {
            SOURCE_CAMPAIGN,
            SOURCE_PIPELINE,
            SOURCE_FUZZ,
            SOURCE_CROSSCHECK,
        }
        assert len(by_source[SOURCE_CAMPAIGN]) == 2

    def test_pivot_counts_and_metric_means(self):
        results = mixed_set()
        counts = results.pivot("source", "verdict")
        assert counts[SOURCE_CAMPAIGN] == {
            "ATTACK_FAILED": 1,
            "ATTACK_SUCCEEDED": 1,
        }
        means = results.pivot("use_case", "source", value="wall_time_s")
        assert means["uc1"][SOURCE_CAMPAIGN] == pytest.approx(3.0)

    def test_summary(self):
        summary = mixed_set().summary()
        assert summary["total"] == 5
        assert summary["passed"] == 3
        assert summary["failed"] == 1
        assert summary["not_applicable"] == 1
        assert summary["sources"][SOURCE_CROSSCHECK] == 1

    def test_concatenation_and_bool(self):
        results = mixed_set()
        doubled = results + results
        assert len(doubled) == 10
        assert bool(ResultSet()) is False


class TestExportRoundTrips:
    def test_json_round_trip_mixed_sources(self):
        results = mixed_set()
        assert ResultSet.from_json(results.to_json()) == results

    def test_csv_round_trip_mixed_sources(self):
        results = mixed_set()
        restored = ResultSet.from_csv(results.to_csv())
        assert restored == results
        # numeric metrics keep their types through repr/literal_eval
        row = restored.filter(subject="DS-01").records[0]
        assert row.metrics_dict()["matched_ratings"] == 3
        assert isinstance(row.metrics_dict()["matched_ratings"], int)

    def test_csv_missing_core_column_rejected(self):
        with pytest.raises(ValidationError, match="core columns"):
            ResultSet.from_csv("subject,verdict\nx,y\n")

    def test_json_schema_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="schema mismatch"):
            ResultSet.from_json('{"schema": "other", "records": []}')

    def test_markdown_table_shape(self):
        text = mixed_set().to_markdown()
        lines = text.splitlines()
        assert lines[0].startswith("| source | subject |")
        assert len(lines) == 2 + 5
        assert "| crosscheck-entry | DS-01 | ALIGNED | - |" in text


class TestAdapters:
    """The producing subsystems adapt into the same record shape."""

    def test_fuzz_report_adapts(self):
        from repro.sim.clock import SimClock
        from repro.sim.controls import ControlPipeline, SenderAuthentication
        from repro.sim.crypto import KeyStore
        from repro.sim.events import EventBus
        from repro.sim.network import Message
        from repro.tara.attack_tree import AttackStep, AttackTree, or_node
        from repro.tara.fuzzing import FuzzCampaign, FuzzPlan

        keystore = KeyStore()
        keystore.provision("phone")
        seed = Message(
            kind="open_command",
            sender="phone",
            payload={"key_id": "KEY-1000"},
            counter=1,
        ).with_timestamp(100.0).signed(keystore)
        clock, bus = SimClock(), EventBus()
        clock.run_until(150.0)
        pipeline = ControlPipeline("ECU_GW", clock, bus)
        pipeline.add(SenderAuthentication(keystore))
        tree = AttackTree(
            goal="open vehicle",
            root=or_node("gain access", AttackStep("forge", interface="BLE")),
        )
        campaign = FuzzCampaign(pipeline, FuzzPlan.from_tree(tree))
        campaign.fuzz_interface("BLE", seed)
        records = campaign.report().to_result_set()
        assert len(records) > 0
        assert {r.source for r in records} == {SOURCE_FUZZ}
        rejected = records.filter(verdict="rejected")
        assert all(r.passed for r in rejected)
        assert ResultSet.from_csv(records.to_csv()) == records

    def test_crosscheck_report_adapts(self):
        from repro.model.ratings import ImpactRating
        from repro.tara.crosscheck import cross_check
        from repro.tara.damage import DamageScenario, ImpactCategory
        from repro.usecases import uc2

        damage = DamageScenario(
            identifier="DS-01",
            description="Vehicle opened by an attacker; theft and "
                        "unsupervised access",
            asset="Gateway",
            impacts=((ImpactCategory.SAFETY, ImpactRating.MAJOR),),
        )
        report = cross_check([damage], list(uc2.build_hara().ratings))
        records = report.to_result_set()
        assert len(records) == 1
        row = records.records[0]
        assert row.source == SOURCE_CROSSCHECK
        assert row.subject == "DS-01"
        assert row.passed is None
        assert row.verdict in ("ALIGNED", "SECURITY_ONLY")

    def test_campaign_and_pipeline_records_mix(self):
        from repro.engine.campaign import execute_variant
        from repro.engine.registry import default_registry
        from repro.testing import TestHarness
        from repro.usecases import uc2

        outcome = execute_variant(
            default_registry().variant("uc2/parity/ad08")
        )
        execution = TestHarness().execute(
            uc2.build_bindings().compile(uc2.build_attacks().get("AD08"))
        )
        mixed = ResultSet.of(
            outcome.to_record(), execution.to_record(use_case="uc2")
        )
        assert {r.source for r in mixed} == {
            SOURCE_CAMPAIGN,
            SOURCE_PIPELINE,
        }
        # both paths agree on the verdict, and the set round-trips
        verdicts = {r.verdict for r in mixed}
        assert verdicts == {"ATTACK_FAILED"}
        assert ResultSet.from_json(mixed.to_json()) == mixed
        assert ResultSet.from_csv(mixed.to_csv()) == mixed


class TestResultSinkSpill:
    """Spill mode: records go to a JSONL file, not resident memory."""

    def _sink_path(self, tmp_path):
        return tmp_path / "out" / "results.jsonl"

    def test_spill_appends_jsonl_and_holds_nothing(self, tmp_path):
        from repro.results import read_jsonl

        path = self._sink_path(tmp_path)
        with ResultSink(path=path) as sink:
            sink.add(record())
            sink.add(record(subject="uc1/baseline/jam", passed=False,
                            verdict="ATTACK_SUCCEEDED"))
            assert len(sink) == 2
            assert sink._records == []  # nothing resident
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert read_jsonl(path).records[0] == record()

    def test_snapshot_rereads_the_file(self, tmp_path):
        path = self._sink_path(tmp_path)
        with ResultSink(path=path) as sink:
            sink.add(record())
            snap = sink.snapshot()
        assert isinstance(snap, ResultSet)
        assert len(snap) == 1

    def test_snapshot_includes_earlier_sinks_on_same_path(self, tmp_path):
        path = self._sink_path(tmp_path)
        with ResultSink(path=path) as first:
            first.add(record())
        with ResultSink(path=path) as second:
            second.add(record(subject="uc2/baseline/stock"))
            assert len(second) == 1  # own count...
            assert len(second.snapshot()) == 2  # ...full file contents

    def test_on_record_callback_still_fires_in_spill_mode(self, tmp_path):
        seen = []
        with ResultSink(seen.append, path=self._sink_path(tmp_path)) as sink:
            sink.add(record())
        assert seen == [record()]

    def test_in_memory_mode_unchanged(self):
        sink = ResultSink()
        sink.add(record())
        assert sink.path is None
        assert len(sink.snapshot()) == 1


class TestReadJsonl:
    def test_missing_file_is_an_empty_set(self, tmp_path):
        from repro.results import read_jsonl

        assert read_jsonl(tmp_path / "nope.jsonl").records == ()

    def test_blank_lines_skipped_torn_tail_tolerated(self, tmp_path):
        import json as _json

        from repro.results import read_jsonl

        path = tmp_path / "results.jsonl"
        path.write_text(
            _json.dumps(record().to_payload()) + "\n\n"
            + '{"source": "campaign", "subject": "tru',
            encoding="utf-8",
        )
        loaded = read_jsonl(path)
        assert len(loaded) == 1

    def test_mid_file_corruption_is_fatal(self, tmp_path):
        import json as _json

        from repro.results import read_jsonl

        path = tmp_path / "results.jsonl"
        path.write_text(
            "definitely not json\n"
            + _json.dumps(record().to_payload()) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="results.jsonl:1"):
            read_jsonl(path)
