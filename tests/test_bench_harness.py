"""Tests for the machine-readable bench harness (repro.bench + CLI)."""

import json

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    BENCH_SUITES,
    BenchRecord,
    bench_file_payload,
    compare_records,
    is_throughput_metric,
    load_bench_file,
    profile_suite,
    records_from_pytest_benchmark,
    validate_bench_payload,
    validate_record,
    write_bench_file,
)
from repro.cli import main
from repro.errors import ValidationError
from repro.results import freeze_items


def make_record(**overrides) -> BenchRecord:
    base = dict(
        suite="rq1",
        name="uc1_pipeline_complete",
        status="ok",
        metrics=freeze_items({"build_s": 0.01, "attacks": 23}),
        meta=freeze_items({"title": "Use Case I"}),
    )
    base.update(overrides)
    return BenchRecord(**base)


class TestBenchRecord:
    def test_payload_round_trip(self):
        record = make_record()
        payload = record.to_payload()
        assert payload["schema"] == BENCH_SCHEMA
        assert BenchRecord.from_payload(payload) == record

    def test_non_numeric_metric_rejected(self):
        with pytest.raises(ValidationError, match="must be numeric"):
            make_record(metrics=freeze_items({"label": "fast"}))
        with pytest.raises(ValidationError, match="must be numeric"):
            make_record(metrics=freeze_items({"flag": True}))

    def test_bad_status_rejected(self):
        with pytest.raises(ValidationError, match="status"):
            make_record(status="crashed")

    def test_validate_record_schema_contract(self):
        good = make_record().to_payload()
        validate_record(good)

        for mutate, match in (
            (lambda p: p.update(schema="repro.bench/v0"), "schema mismatch"),
            (lambda p: p.update(suite=""), "non-empty string"),
            (lambda p: p.update(status="maybe"), "status"),
            (lambda p: p["metrics"].update(x="nan-ish"), "numeric"),
            (lambda p: p["meta"].update(extra=42), "string"),
        ):
            payload = json.loads(json.dumps(good))
            mutate(payload)
            with pytest.raises(ValidationError, match=match):
                validate_record(payload)


class TestBenchFiles:
    def test_write_and_validate_bench_file(self, tmp_path):
        records = [make_record(), make_record(name="uc2_pipeline_complete")]
        path = write_bench_file("rq1", records, tmp_path)
        assert path.name == "BENCH_rq1.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        validate_bench_payload(payload)
        assert [r["name"] for r in payload["records"]] == [
            "uc1_pipeline_complete",
            "uc2_pipeline_complete",
        ]

    def test_foreign_suite_record_rejected(self):
        payload = bench_file_payload("rq1", [make_record(suite="rq2")])
        with pytest.raises(ValidationError, match="suite"):
            validate_bench_payload(payload)

    def test_pytest_benchmark_conversion(self):
        report = {
            "benchmarks": [
                {
                    "name": "test_table1_scenarios",
                    "stats": {
                        "mean": 0.5,
                        "min": 0.4,
                        "max": 0.7,
                        "stddev": 0.01,
                        "rounds": 5,
                    },
                    "extra_info": {"rows": 5, "label": "Table I"},
                }
            ]
        }
        records = records_from_pytest_benchmark("table1_scenarios", report)
        assert len(records) == 1
        record = records[0]
        assert record.suite == "table1_scenarios"
        assert record.metrics_dict()["mean_s"] == 0.5
        assert record.metrics_dict()["rounds"] == 5
        assert record.meta == freeze_items({"rows": "5", "label": "Table I"})
        validate_record(record.to_payload())


class TestBenchCli:
    def test_bench_list_enumerates_suites(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == list(BENCH_SUITES)
        assert {"rq1", "rq2", "scalability"} <= set(out)

    def test_unknown_suite_errors(self, tmp_path, capsys):
        assert main(
            ["bench", "--suite", "rq9", "--out", str(tmp_path)]
        ) == 1
        assert "unknown bench suite" in capsys.readouterr().err

    def test_bench_backends_positional_json(self, tmp_path, capsys):
        """`repro bench backends --json` (acceptance): one record per
        backend plus the speedup record, with verdict parity across
        serial/thread/process, written as BENCH_backends.json."""
        assert main(
            ["bench", "backends", "--json", "--out", str(tmp_path)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["suites"]) == {"backends"}
        records = {
            record["name"]: record
            for record in payload["suites"]["backends"]
        }
        assert {
            "campaign_serial",
            "campaign_thread",
            "campaign_process",
            "speedup",
        } <= set(records)
        speedup = records["speedup"]["metrics"]
        assert speedup["verdict_parity"] == 1
        assert speedup["serial_s"] > 0
        assert speedup["process_speedup"] > 0
        written = tmp_path / "BENCH_backends.json"
        assert written.exists()
        validate_bench_payload(
            json.loads(written.read_text(encoding="utf-8"))
        )

    def test_bench_json_smoke_runs_all_suites(self, tmp_path, capsys):
        """`repro bench --json` runs every suite and writes schema-valid
        BENCH_*.json records with verdict parity wherever it is measured.

        Statuses graded on wall-clock speed are not asserted here (a
        failed one makes the exit code 2): they gate in the perf CI job.
        """
        assert main(["bench", "--json", "--out", str(tmp_path)]) in (0, 2)
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == BENCH_SCHEMA
        assert set(payload["suites"]) == set(BENCH_SUITES)
        for suite, records in payload["suites"].items():
            assert records, f"suite {suite} produced no records"
            for record in records:
                validate_record(record)
                parity = record["metrics"].get("verdict_parity")
                assert parity in (None, 1), (suite, record["name"])
        for suite in BENCH_SUITES:
            written = tmp_path / f"BENCH_{suite}.json"
            assert written.exists()
            validate_bench_payload(
                json.loads(written.read_text(encoding="utf-8"))
            )

    def test_bench_profile_dumps_rows_and_writes_nothing(
        self, tmp_path, capsys
    ):
        """`repro bench rq1 --profile` prints the top cumulative rows
        and refuses to write bench files (profiled numbers are
        inflated, not trajectory material)."""
        assert main(
            ["bench", "rq1", "--profile", "--out", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "== profile: suite 'rq1'" in out
        assert "cumulative" in out
        assert list(tmp_path.iterdir()) == []

    def test_bench_profile_refuses_history(self, tmp_path, capsys):
        history = tmp_path / "BENCH_HISTORY.jsonl"
        assert main(
            [
                "bench", "rq1", "--profile",
                "--history", str(history), "--out", str(tmp_path),
            ]
        ) == 1
        assert "inflated" in capsys.readouterr().err
        assert not history.exists()


class TestProfileSuite:
    def test_profile_suite_returns_records_and_sinks_rows(self):
        lines = []
        records = profile_suite("rq1", sink=lines.append)
        assert records
        for record in records:
            validate_record(record.to_payload())
        assert lines[0].startswith("== profile: suite 'rq1'")
        assert any("cumulative" in line for line in lines)

    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError):
            profile_suite("rq9", sink=lambda line: None)


def make_rate_record(name="campaign", **metrics) -> BenchRecord:
    base = {"variants_per_s": 10.0, "wall_s": 1.5, "process_speedup": 2.0}
    base.update(metrics)
    return BenchRecord(
        suite="backends",
        name=name,
        status="ok",
        metrics=freeze_items(base),
        meta=freeze_items({}),
    )


class TestCompareMachinery:
    def test_throughput_metric_classifier(self):
        assert is_throughput_metric("variants_per_s")
        assert is_throughput_metric("publishes_per_s_full")
        assert is_throughput_metric("process_speedup")
        assert not is_throughput_metric("wall_s")
        assert not is_throughput_metric("fleet_size")

    def test_identical_runs_never_regress(self):
        baseline = [make_rate_record()]
        deltas = compare_records(baseline, baseline)
        # wall_s is absolute time, not throughput: excluded from gating.
        assert {d.metric for d in deltas} == {
            "variants_per_s",
            "process_speedup",
        }
        assert not any(d.regressed for d in deltas)
        assert all(d.ratio == 1.0 for d in deltas)

    def test_regression_detected_beyond_threshold(self):
        baseline = [make_rate_record(variants_per_s=100.0)]
        fresh = [make_rate_record(variants_per_s=75.0)]
        deltas = compare_records(baseline, fresh, threshold_pct=20.0)
        slowed = {d.metric: d for d in deltas}["variants_per_s"]
        assert slowed.regressed
        assert "REGRESSION" in slowed.render()
        # The same drop passes a looser gate.
        loose = compare_records(baseline, fresh, threshold_pct=30.0)
        assert not {d.metric: d for d in loose}["variants_per_s"].regressed

    def test_boundary_is_strict(self):
        """Exactly threshold%% below baseline is NOT a regression --
        the gate trips only strictly beyond it."""
        baseline = [make_rate_record(variants_per_s=100.0)]
        at_floor = [make_rate_record(variants_per_s=80.0)]
        deltas = compare_records(baseline, at_floor, threshold_pct=20.0)
        assert not any(d.regressed for d in deltas)

    def test_missing_record_fails_loudly(self):
        baseline = [make_rate_record(name="gone")]
        with pytest.raises(ValidationError, match="missing from"):
            compare_records(baseline, [make_rate_record(name="other")])

    def test_missing_metric_fails_loudly(self):
        baseline = [make_rate_record()]
        fresh = [
            BenchRecord(
                suite="backends",
                name="campaign",
                status="ok",
                metrics=freeze_items({"wall_s": 1.0}),
                meta=freeze_items({}),
            )
        ]
        with pytest.raises(ValidationError, match="missing from"):
            compare_records(baseline, fresh)

    def test_invalid_threshold_rejected(self):
        records = [make_rate_record()]
        for threshold in (0.0, -5.0):
            with pytest.raises(ValidationError, match="threshold"):
                compare_records(records, records, threshold_pct=threshold)

    def test_load_bench_file_round_trip(self, tmp_path):
        records = [make_rate_record()]
        path = write_bench_file("backends", records, tmp_path)
        suite, loaded = load_bench_file(path)
        assert suite == "backends"
        assert loaded == records


class TestCompareCli:
    def _baseline(self, tmp_path, suite, name, **metrics):
        """A stored baseline the CLI re-runs the suite against."""
        record = BenchRecord(
            suite=suite,
            name=name,
            status="ok",
            metrics=freeze_items(metrics),
            meta=freeze_items({}),
        )
        return write_bench_file(suite, [record], tmp_path)

    def test_compare_passes_for_non_throughput_suite(self, tmp_path, capsys):
        """rq1 carries no rate metrics, so a stored baseline always
        passes -- the acceptance smoke for non-batched suites."""
        path = self._baseline(
            tmp_path, "rq1", "uc1_pipeline_complete", build_s=0.5, attacks=23
        )
        assert main(["bench", "--compare", str(path)]) == 0
        assert "within 20%" in capsys.readouterr().out

    def test_compare_flags_doctored_regression(self, tmp_path, capsys):
        """A baseline doctored to claim an impossible speedup makes the
        fresh run look regressed: exit code 2 and a REGRESSION line."""
        path = self._baseline(
            tmp_path, "scalability", "campaign_fanout", speedup=1e12
        )
        assert main(["bench", "--compare", str(path)]) == 2
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "regressed" in captured.err

    def test_compare_honours_custom_threshold(self, tmp_path, capsys):
        """The --threshold flag reaches the comparison end to end."""
        path = self._baseline(
            tmp_path, "rq1", "uc1_pipeline_complete", build_s=0.5
        )
        assert main(
            ["bench", "--compare", str(path), "--threshold", "99.9"]
        ) == 0
        assert "99.9%" in capsys.readouterr().out

    def test_compare_missing_baseline_errors(self, tmp_path, capsys):
        missing = tmp_path / "BENCH_nope.json"
        assert main(["bench", "--compare", str(missing)]) == 1
        assert "ERROR" in capsys.readouterr().err

    def test_compare_corrupt_baseline_errors(self, tmp_path, capsys):
        corrupt = tmp_path / "BENCH_rq1.json"
        corrupt.write_text("{not json", encoding="utf-8")
        assert main(["bench", "--compare", str(corrupt)]) == 1
        assert "ERROR" in capsys.readouterr().err


class TestBenchHistory:
    """The append-only BENCH_HISTORY.jsonl trajectory file."""

    def _results(self, **metrics):
        return {"rq1": [make_record(metrics=freeze_items(
            metrics or {"build_s": 0.01}
        ))]}

    def test_entry_payload_is_validated(self):
        from repro.bench import HISTORY_SCHEMA, history_entry_payload

        payload = history_entry_payload(self._results(), {"commit": "abc"})
        assert payload["schema"] == HISTORY_SCHEMA
        assert payload["meta"] == {"commit": "abc"}
        assert list(payload["suites"]) == ["rq1"]

    def test_append_and_load_round_trip(self, tmp_path):
        from repro.bench import append_history, load_history

        path = tmp_path / "BENCH_HISTORY.jsonl"
        append_history(path, self._results(build_s=0.5))
        append_history(path, self._results(build_s=0.4))
        entries = load_history(path)
        assert len(entries) == 2
        first, second = (
            e["suites"]["rq1"][0]["metrics"]["build_s"] for e in entries
        )
        assert (first, second) == (0.5, 0.4)  # oldest first

    def test_latest_entry_wins(self, tmp_path):
        from repro.bench import append_history, latest_history_records

        path = tmp_path / "BENCH_HISTORY.jsonl"
        append_history(path, self._results(build_s=0.5))
        append_history(path, self._results(build_s=0.25))
        latest = latest_history_records(path)
        assert dict(latest["rq1"][0].metrics)["build_s"] == 0.25

    def test_missing_history_loads_empty_but_latest_raises(self, tmp_path):
        from repro.bench import latest_history_records, load_history

        path = tmp_path / "BENCH_HISTORY.jsonl"
        assert load_history(path) == []
        with pytest.raises(ValidationError, match="no entries"):
            latest_history_records(path)

    def test_torn_final_line_tolerated(self, tmp_path):
        from repro.bench import append_history, load_history

        path = tmp_path / "BENCH_HISTORY.jsonl"
        append_history(path, self._results())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "repro.bench-history/v1", "sui')
        assert len(load_history(path)) == 1

    def test_mid_file_corruption_raises(self, tmp_path):
        from repro.bench import append_history, load_history

        path = tmp_path / "BENCH_HISTORY.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("garbage\n")
        append_history(path, self._results())
        with pytest.raises(ValidationError):
            load_history(path)

    def test_load_baseline_reads_both_formats(self, tmp_path):
        from repro.bench import (
            append_history,
            load_baseline,
            write_bench_file,
        )

        jsonl = tmp_path / "BENCH_HISTORY.jsonl"
        append_history(jsonl, self._results(build_s=0.125))
        from_history = load_baseline(jsonl)
        assert dict(from_history["rq1"][0].metrics)["build_s"] == 0.125

        single = write_bench_file("rq1", [make_record()], tmp_path)
        from_file = load_baseline(single)
        assert list(from_file) == ["rq1"]

    def test_cli_history_flag_appends(self, tmp_path, capsys):
        from repro.bench import load_history

        path = tmp_path / "BENCH_HISTORY.jsonl"
        assert main([
            "bench", "rq1", "--out", str(tmp_path), "--history", str(path),
        ]) == 0
        assert "appended history entry" in capsys.readouterr().out
        entries = load_history(path)
        assert len(entries) == 1
        assert "rq1" in entries[0]["suites"]

    def test_cli_compare_against_history_baseline(self, tmp_path, capsys):
        # Two runs into the history, then gate against its latest entry.
        path = tmp_path / "BENCH_HISTORY.jsonl"
        assert main([
            "bench", "rq1", "--out", str(tmp_path), "--history", str(path),
        ]) == 0
        assert main([
            "bench", "--compare", str(path), "--out", str(tmp_path),
        ]) == 0
        assert "within" in capsys.readouterr().out
