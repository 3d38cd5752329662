"""The campaign daemon over the wire: protocol, parity, crash recovery.

Fast tests run an in-process daemon (``CampaignDaemon.start()``) on an
ephemeral loopback port and talk to it through :class:`ServiceClient`.
The slow crash-recovery drill runs the real ``repro serve`` subprocess,
SIGKILLs it mid-campaign, restarts against the same memo directory and
proves the resumed run serves completed variants from cache with
verdicts identical to the golden capture.
"""

import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.engine.campaign import run_campaign
from repro.engine.registry import default_registry
from repro.errors import ValidationError
from repro.service import (
    CampaignDaemon,
    SERVICE_SCHEMA,
    ServiceClient,
    ServiceError,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_verdicts.json"


def _variants(count=4):
    return default_registry().variants(family="zone-geometry")[:count]


@pytest.fixture()
def daemon(tmp_path):
    with CampaignDaemon(
        port=0, memo_dir=tmp_path / "memo", shards=2, workers=2
    ).start() as running:
        yield running


@pytest.fixture()
def client(daemon):
    return ServiceClient(daemon.port, timeout=60.0)


class TestRoundTrip:
    def test_ping_reports_daemon_pid(self, client):
        response = client.ping()
        assert response["ok"] is True
        assert response["pid"] == os.getpid()  # in-process daemon

    def test_status_reports_scheduler_and_memo(self, client):
        status = client.status()
        assert status["scheduler"]["shards"] == 2
        assert status["memo"]["entries"] == 0
        assert status["uptime_s"] >= 0

    def test_submit_explicit_variants_matches_in_process_run(self, client):
        variants = _variants(4)
        reference = run_campaign(variants, backend="serial")
        outcomes, summary = client.submit(variants)
        assert summary["completed"] == 4
        assert summary["errors"] == 0
        assert [o.variant_id for o in outcomes] == [
            v.variant_id for v in variants
        ]
        for ours, theirs in zip(outcomes, reference.outcomes):
            assert (ours.verdict, ours.violated_goals) == (
                theirs.verdict, theirs.violated_goals
            )

    def test_submit_select_resolves_server_side(self, client):
        expected = default_registry().variants(family="coverage")
        outcomes, summary = client.submit(select={"family": "coverage"})
        assert summary["total"] == len(expected)
        assert {o.variant_id for o in outcomes} == {
            v.variant_id for v in expected
        }

    def test_resubmission_is_served_from_cache(self, client):
        variants = _variants(4)
        cold, cold_summary = client.submit(variants)
        assert cold_summary["cached"] == 0
        warm, warm_summary = client.submit(variants)
        assert warm_summary["cached"] == len(variants)
        assert all(outcome.from_cache for outcome in warm)
        assert [(o.verdict, o.violated_goals) for o in warm] == [
            (o.verdict, o.violated_goals) for o in cold
        ]
        assert client.status()["memo"]["hits"] == len(variants)

    def test_submit_stream_yields_incrementally(self, client):
        variants = _variants(3)
        kinds = [kind for kind, _, _ in client.submit_stream(variants)]
        assert kinds[0] == "accepted"
        assert kinds[-1] == "done"
        assert kinds.count("outcome") == 3

    def test_from_port_file_discovery(self, daemon, tmp_path):
        port_file = tmp_path / "daemon.port"
        port_file.write_text(f"{daemon.port}\n", encoding="utf-8")
        found = ServiceClient.from_port_file(port_file)
        assert found.ping()["ok"] is True

    def test_cancel_finished_submission_is_unknown(self, client):
        for kind, key, _payload in client.submit_stream(_variants(2)):
            if kind == "accepted":
                submission_id = key
        # The daemon forgets a submission once it finishes.
        with pytest.raises(ServiceError, match="unknown submission"):
            client.cancel(submission_id)
        scheduler = client.status()["scheduler"]
        assert scheduler["active_submissions"] == 0
        assert scheduler["submissions"] == []
        assert scheduler["total_submissions"] == 1


class TestProtocolErrors:
    def test_unknown_op_is_a_service_error(self, client):
        with pytest.raises(ServiceError, match="daemon error"):
            client._roundtrip({"op": "frobnicate"})

    def test_unknown_select_filter_is_rejected(self, client):
        with pytest.raises(ServiceError, match="unknown select filter"):
            client.submit(select={"colour": "red"})

    def test_unknown_submission_cancel_is_rejected(self, client):
        with pytest.raises(ServiceError, match="unknown submission"):
            client.cancel("sub-9999")

    def test_client_requires_exactly_one_selector(self, client):
        with pytest.raises(ValidationError, match="exactly one"):
            client.submit()
        with pytest.raises(ValidationError, match="exactly one"):
            list(client.submit_stream(_variants(1), select={"family": "x"}))

    def test_unreachable_daemon_is_a_service_error(self):
        # Bind-then-close guarantees a dead port.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ServiceError, match="cannot reach"):
            ServiceClient(dead_port, timeout=5.0).ping()

    def test_garbage_line_gets_error_response(self, daemon):
        with socket.create_connection(
            ("127.0.0.1", daemon.port), timeout=10.0
        ) as conn:
            conn.sendall(b"this is not json\n")
            conn.shutdown(socket.SHUT_WR)
            reply = json.loads(conn.makefile("rb").readline())
        assert reply["ok"] is False
        assert reply["schema"] == SERVICE_SCHEMA

    def test_missing_port_file_is_a_service_error(self, tmp_path):
        with pytest.raises(ServiceError, match="unreadable port file"):
            ServiceClient.from_port_file(tmp_path / "nope.port")


class TestShutdownOp:
    def test_shutdown_over_the_wire(self, tmp_path):
        daemon = CampaignDaemon(port=0, memo_dir=tmp_path / "memo").start()
        client = ServiceClient(daemon.port, timeout=30.0)
        assert client.shutdown()["ok"] is True
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                client.ping()
            except ServiceError:
                break
            time.sleep(0.05)
        else:
            pytest.fail("daemon still serving after shutdown op")


def _new_scheduler_threads(before):
    return [
        thread.name
        for thread in threading.enumerate()
        if thread not in before and thread.name.startswith("repro-sched-")
    ]


class TestConstruction:
    """A daemon constructor that raises leaves nothing running or bound."""

    def test_occupied_port_starts_no_scheduler(self):
        before = set(threading.enumerate())
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            with pytest.raises(OSError):
                CampaignDaemon(port=held.getsockname()[1])
        assert _new_scheduler_threads(before) == []

    @pytest.mark.parametrize(
        "shards, port_dir, error",
        [(0, ".", ValidationError), (2, "missing", OSError)],
    )
    def test_failure_after_binding_releases_everything(
        self, tmp_path, shards, port_dir, error
    ):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        port_file = tmp_path / port_dir / "daemon.port"
        before = set(threading.enumerate())
        # ``failed`` keeps the half-built daemon reachable, so a socket
        # left open would still hold the port below.
        with pytest.raises(error) as failed:
            CampaignDaemon(port=port, shards=shards, port_file=port_file)
        assert _new_scheduler_threads(before) == []
        assert not port_file.exists()
        with CampaignDaemon(port=port).start():
            pass
        assert failed.value is not None


def _spawn_serve(tmp_path, name):
    """Start a real ``repro serve`` subprocess; return (proc, port_file)."""
    port_file = tmp_path / f"{name}.port"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        pathlib.Path(__file__).resolve().parents[1] / "src"
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--port-file", str(port_file),
            "--memo-dir", str(tmp_path / "memo"),
            "--shards", "2", "--workers", "2",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 30.0
    while not port_file.exists() and time.monotonic() < deadline:
        if proc.poll() is not None:
            pytest.fail(f"repro serve exited early with {proc.returncode}")
        time.sleep(0.05)
    assert port_file.exists(), "daemon never published its port"
    return proc, port_file


class TestCrashRecovery:
    @pytest.mark.slow
    def test_killed_daemon_resumes_from_journal_with_golden_verdicts(
        self, tmp_path
    ):
        """The service plane's hard gate: SIGKILL a daemon mid-campaign,
        restart it on the same memo directory, and the resumed full-
        registry run (a) serves already-completed variants from cache
        and (b) reproduces every golden verdict bit-for-bit."""
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        variants = default_registry().variants()
        assert len(variants) == len(golden)

        proc, port_file = _spawn_serve(tmp_path, "victim")
        streamed = []
        try:
            client = ServiceClient.from_port_file(port_file, timeout=120.0)
            with pytest.raises(ServiceError):
                for kind, _key, payload in client.submit_stream(variants):
                    if kind == "outcome":
                        streamed.append(payload)
                        if len(streamed) >= 30:
                            proc.send_signal(signal.SIGKILL)
        finally:
            proc.kill()
            proc.wait(timeout=30.0)
        assert len(streamed) >= 30

        # Restart on the same journal: completed variants come from
        # cache, the remainder executes fresh, verdicts never move.
        with CampaignDaemon(
            port=0, memo_dir=tmp_path / "memo", shards=2, workers=2
        ).start() as reborn:
            resumed = ServiceClient(reborn.port, timeout=600.0)
            outcomes, summary = resumed.submit(variants)

        assert summary["completed"] == len(variants)
        assert summary["errors"] == 0
        assert summary["cached"] > 0, "journal recovery produced no hits"
        mismatches = {
            o.variant_id: (o.verdict, list(o.violated_goals))
            for o in outcomes
            if (o.verdict, list(o.violated_goals)) != tuple(
                golden[o.variant_id]
            )
        }
        assert not mismatches, (
            f"{len(mismatches)} variant(s) changed verdict after crash "
            f"recovery: {mismatches}"
        )


class TestClientDisconnect:
    def test_disconnect_mid_stream_cancels_the_submission(
        self, daemon, monkeypatch
    ):
        """A client that walks away must not keep burning workers."""
        submitted = []
        submit = daemon.scheduler.submit

        def capture(variants):
            submitted.append(submit(variants))
            return submitted[-1]

        monkeypatch.setattr(daemon.scheduler, "submit", capture)
        variants = default_registry().variants(family="coverage")
        request = {
            "op": "submit",
            "variants": [v.to_payload() for v in variants],
        }
        with socket.create_connection(
            ("127.0.0.1", daemon.port), timeout=10.0
        ) as conn:
            stream = conn.makefile("rwb")
            payload = json.dumps({"schema": SERVICE_SCHEMA, **request})
            stream.write(payload.encode("utf-8") + b"\n")
            stream.flush()
            conn.shutdown(socket.SHUT_WR)
            accepted = json.loads(stream.readline())
            # Hang up without consuming the stream.
        (submission,) = submitted
        assert submission.id == accepted["id"]
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if submission.cancel.cancelled or submission.done:
                break
            time.sleep(0.05)
        assert submission.cancel.cancelled or submission.done
        # Whatever raced ahead, the daemon itself stays healthy.
        probe = ServiceClient(daemon.port, timeout=30.0)
        assert probe.ping()["ok"] is True
