"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestReport:
    def test_uc1_report(self, capsys):
        assert main(["report", "uc1"]) == 0
        out = capsys.readouterr().out
        assert "Use Case I" in out
        assert "ratings   : 29" in out
        assert "23 safety + 0 privacy" in out

    def test_uc2_report(self, capsys):
        assert main(["report", "uc2"]) == 0
        out = capsys.readouterr().out
        assert "27 safety + 2 privacy" in out

    def test_unknown_usecase_rejected(self):
        with pytest.raises(SystemExit):
            main(["report", "uc9"])


class TestAttack:
    def test_render_ad20(self, capsys):
        assert main(["attack", "AD20", "--usecase", "uc1"]) == 0
        out = capsys.readouterr().out
        assert "packet flooding" in out
        assert "Shutdown of service" in out

    def test_unknown_attack(self, capsys):
        assert main(["attack", "AD99", "--usecase", "uc1"]) == 1
        assert "no attack" in capsys.readouterr().err


class TestExportValidate:
    def test_export_then_validate_round_trip(self, tmp_path, capsys):
        target = tmp_path / "uc2.dsl"
        assert main(["export", "uc2", str(target)]) == 0
        assert target.exists()
        assert main(["validate", str(target), "--usecase", "uc2"]) == 0
        out = capsys.readouterr().out
        assert "29 attack description(s) validated" in out

    def test_validate_rejects_broken_document(self, tmp_path, capsys):
        target = tmp_path / "broken.dsl"
        target.write_text("attack AD01 { }", encoding="utf-8")
        assert main(["validate", str(target), "--usecase", "uc1"]) == 2
        assert "INVALID" in capsys.readouterr().err


class TestTrace:
    def test_trace_matrix_printed(self, capsys):
        assert main(["trace", "uc2"]) == 0
        out = capsys.readouterr().out
        assert "SG01" in out
        assert "AD08" in out


class TestRun:
    @pytest.mark.slow
    def test_run_bound_attack(self, capsys):
        # AD02 (replay) is quick to simulate and the SUT withstands it.
        assert main(["run", "AD02", "--usecase", "uc2"]) == 0
        out = capsys.readouterr().out
        assert "attack failed" in out

    def test_run_flood_takes_the_train_path(self, capsys, monkeypatch):
        # An interactive run keeps only the verdict's topics, so the
        # AD20 flood runs as trains (a full trace would force one clock
        # event per packet).
        from repro.sim.network import Channel

        trains = []
        send_train = Channel.send_train
        monkeypatch.setattr(
            Channel, "send_train",
            lambda self, *args: trains.append(1) or send_train(self, *args),
        )
        assert main(["run", "AD20", "--usecase", "uc1"]) == 0
        assert "attack failed (SUT withstood)" in capsys.readouterr().out
        assert trains

    def test_run_unbound_attack(self, capsys):
        assert main(["run", "AD01", "--usecase", "uc1"]) == 1
        assert "no executable binding" in capsys.readouterr().err


class TestCampaign:
    def test_list_enumerates_variants(self, capsys):
        assert main(["campaign", "--list"]) == 0
        out = capsys.readouterr().out
        assert "uc1/baseline/stock" in out
        assert "uc2/parity/ad08" in out
        # The registry must offer a three-digit design space.
        total = int(out.strip().splitlines()[-1].split()[0])
        assert total >= 100

    def test_family_filter_runs_serially(self, capsys):
        assert main(["campaign", "--family", "baseline", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "Campaign: 2 variants" in out
        assert "[PASS] uc1/baseline/stock" in out

    def test_parallel_workers_and_json(self, capsys):

        assert main([
            "campaign", "--family", "zone-geometry",
            "--scenario", "uc2-keyless-entry",
            "--jobs", "2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["workers"] == 2
        assert payload["summary"]["total"] == 3
        assert all(
            outcome["verdict"] == "ATTACK_FAILED"
            for outcome in payload["outcomes"]
        )

    def test_no_matching_variants_errors(self, capsys):
        assert main(["campaign", "--family", "no-such-family"]) == 1
        assert "no variants" in capsys.readouterr().err

    def test_backend_and_jobs_options(self, capsys):
        assert main([
            "campaign", "--family", "baseline",
            "--backend", "process", "--jobs", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "process backend" in out

    def test_thread_backend_is_a_usage_error(self, capsys):
        """``--backend`` offers exactly the runtime's backend names."""
        from repro.runtime import BACKEND_NAMES

        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--family", "baseline", "--backend", "thread"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'thread'" in err
        assert f"--backend {{{','.join(BACKEND_NAMES)}}}" in err

    def test_process_backend_without_jobs_uses_every_cpu(self, capsys):
        from repro.runtime import usable_cpus

        assert main([
            "campaign", "--family", "baseline", "--backend", "process",
            "--json",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["backend"] == "process"
        assert summary["workers"] == usable_cpus()

    def test_serial_backend_rejects_parallel_jobs(self, capsys):
        assert main([
            "campaign", "--family", "baseline",
            "--backend", "serial", "--jobs", "2",
        ]) == 1
        assert "exactly one job" in capsys.readouterr().err

    def test_zero_workers_rejected(self, capsys):
        assert main(["campaign", "--family", "baseline", "--jobs", "0"]) == 1
        assert ">= 1" in capsys.readouterr().err

    def test_negative_jobs_rejected(self, capsys):
        assert main(["campaign", "--family", "baseline", "--jobs", "-4"]) == 1
        assert ">= 1" in capsys.readouterr().err

    def test_unknown_scenario_errors(self, capsys):
        assert main(["campaign", "--scenario", "uc9-imaginary"]) == 1
        assert "ERROR" in capsys.readouterr().err

    def test_errored_variants_exit_two(self, capsys):
        assert main([
            "campaign", "--family", "baseline", "--deadline-s", "1e-9",
        ]) == 2
        assert "errored" in capsys.readouterr().out

    @pytest.mark.parametrize("suffix", [".json", ".csv", ".md"])
    def test_export_writes_file(self, tmp_path, capsys, suffix):
        target = tmp_path / f"records{suffix}"
        assert main([
            "campaign", "--family", "baseline", "--export", str(target),
        ]) == 0
        assert target.read_text(encoding="utf-8").strip()
        out = capsys.readouterr().out
        assert f"exported 2 record(s) to {target}" in out

    def test_export_unknown_suffix_errors(self, tmp_path, capsys):
        target = tmp_path / "records.xlsx"
        assert main([
            "campaign", "--family", "baseline", "--export", str(target),
        ]) == 1
        assert "cannot infer export format" in capsys.readouterr().err
        assert not target.exists()

    def test_retries_on_clean_family_match_golden(self, capsys):
        import json
        import pathlib

        golden = json.loads(
            (pathlib.Path(__file__).parent / "data" / "golden_verdicts.json")
            .read_text(encoding="utf-8")
        )
        assert main([
            "campaign", "--family", "baseline", "--retries", "2", "--json",
        ]) == 0
        records = json.loads(capsys.readouterr().out)["outcomes"]
        assert len(records) == 2
        for record in records:
            assert [record["verdict"], record["goals"]] == golden[
                record["subject"]
            ]


class TestSubmit:
    def test_json_outcomes_round_trip(self, tmp_path, capsys):
        import json

        from repro.engine.campaign import VariantOutcome
        from repro.service import CampaignDaemon

        with CampaignDaemon(port=0, memo_dir=tmp_path / "memo").start() as daemon:
            argv = [
                "submit", "--port", str(daemon.port),
                "--family", "zone-geometry", "--scenario", "uc2-keyless-entry",
                "--json",
            ]
            assert main(argv) == 0
            cold = capsys.readouterr().out
            assert main(argv) == 0
            warm = capsys.readouterr().out
        for out, cached in ((cold, False), (warm, True)):
            payload = json.loads(out[out.index("\n{") + 1:])
            assert payload["summary"]["total"] == 3
            for item in payload["outcomes"]:
                outcome = VariantOutcome.from_payload(item)
                assert outcome.from_cache is cached
                assert json.loads(json.dumps(outcome.to_payload())) == item
                assert outcome.verdict == "ATTACK_FAILED"


class TestServe:
    def test_failure_threshold_is_a_usage_error(self, capsys):
        """The scheduler has no shard-health knob to set."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--failure-threshold", "3"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --failure-threshold" in (
            capsys.readouterr().err
        )


class TestStatus:
    @pytest.fixture
    def daemon(self, tmp_path, capsys):
        from repro.service import CampaignDaemon

        with CampaignDaemon(port=0, memo_dir=tmp_path / "memo").start() as daemon:
            assert main([
                "submit", "--port", str(daemon.port),
                "--family", "zone-geometry", "--scenario", "uc2-keyless-entry",
            ]) == 0
            capsys.readouterr()
            yield daemon

    def test_text_report(self, daemon, capsys):
        assert main(["status", "--port", str(daemon.port)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("daemon pid ")
        assert "3 executed" in out
        assert "0 active / 1 total" in out
        assert "memo: 3 entries" in out

    def test_json_report(self, daemon, capsys):
        import json

        assert main(["status", "--port", str(daemon.port), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["scheduler"]["executed"] == 3
        assert status["scheduler"]["total_submissions"] == 1
        assert status["memo"]["entries"] == 3


class TestLint:
    BAD = "def collect(value, bucket=[]):\n    return bucket\n"
    GOOD = "def collect(value, bucket=None):\n    return bucket\n"

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(self.GOOD, encoding="utf-8")
        code = main(["lint", str(target), "--no-spec", "--rules", "REP004"])
        assert code == 0
        assert "clean: 0 findings" in capsys.readouterr().out

    def test_findings_exit_two(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(self.BAD, encoding="utf-8")
        code = main(["lint", str(target), "--no-spec", "--rules", "REP004"])
        assert code == 2
        out = capsys.readouterr().out
        assert "REP004" in out
        assert "1 finding(s)" in out

    def test_list_rules_prints_catalog(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("REP001", "REP004", "REP008"):
            assert code in out

    def test_json_document_is_schema_stable(self, tmp_path, capsys):
        import json

        from repro.analysis import validate_lint_payload

        target = tmp_path / "mod.py"
        target.write_text(self.BAD, encoding="utf-8")
        code = main([
            "lint", str(target), "--no-spec", "--rules", "REP004", "--json",
        ])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        validate_lint_payload(payload)
        assert payload["schema"] == "repro.lint/v1"
        assert payload["counts"] == {"REP004": 1}

    def test_diff_gates_on_new_findings_only(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(self.BAD, encoding="utf-8")
        base = ["lint", str(target), "--no-spec", "--rules", "REP004"]
        assert main(base + ["--out", str(tmp_path / "out")]) == 2
        baseline = tmp_path / "out" / "LINT.json"
        assert baseline.exists()
        capsys.readouterr()
        # Known debt passes the delta gate ...
        assert main(base + ["--diff", str(baseline)]) == 0
        assert "no new findings" in capsys.readouterr().out
        # ... a fresh violation fails it.
        target.write_text(
            self.BAD + "\n\ndef fresh(extra={}):\n    return extra\n",
            encoding="utf-8",
        )
        assert main(base + ["--diff", str(baseline)]) == 2

    def test_unknown_rule_code_errors(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(self.GOOD, encoding="utf-8")
        code = main(["lint", str(target), "--no-spec", "--rules", "REP999"])
        assert code == 1
        assert "REP999" in capsys.readouterr().err

    def test_default_surface_is_clean(self, capsys):
        # The release gate itself: the installed repro package plus the
        # live registry/DSL spec checks, exactly as CI runs them.
        assert main(["lint"]) == 0
        assert "clean: 0 findings" in capsys.readouterr().out


class TestChaos:
    """Bad input is a user error (``ERROR:``, exit 1) caught before the
    clean run starts, like ``campaign``/``submit``/``status``."""

    def test_zero_limit_rejected(self, capsys):
        assert main(["chaos", "--family", "coverage", "--limit", "0"]) == 1
        assert capsys.readouterr().err.startswith("ERROR:")

    @pytest.mark.parametrize(
        "content",
        [None, "{not json", "[1, 2]"],
        ids=["missing", "malformed", "not-an-object"],
    )
    def test_bad_golden_file_rejected(self, tmp_path, capsys, content):
        golden = tmp_path / "golden.json"
        if content is not None:
            golden.write_text(content, encoding="utf-8")
        code = main([
            "chaos", "--family", "coverage", "--limit", "1",
            "--golden", str(golden),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("ERROR:")
        assert "chaos:" not in captured.out  # the clean run never started
