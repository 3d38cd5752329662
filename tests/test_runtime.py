"""Tests for the pluggable execution layer (repro.runtime)."""

import pytest

from repro.errors import ExecutionError, ValidationError
from repro.runtime import (
    BACKEND_NAMES,
    CancelToken,
    ProcessBackend,
    Runtime,
    SerialBackend,
    START_METHOD_ENV,
    available_start_methods,
    backend_from_spec,
    derive_seed,
    usable_cpus,
)


# Module-level so they pickle into process workers under fork AND spawn.
def _square(value):
    return value * value


def _derive(value):
    return (value, derive_seed(5, value))


def _fail_on_two(value):
    if value == 2:
        raise ValueError("two is poisoned")
    return value


def _report_worker(value):
    from repro.runtime import in_worker_process

    return in_worker_process()


ALL_BACKENDS = ("serial", "process")


def _backend(name):
    return backend_from_spec(name, jobs=None if name == "serial" else 2)


def _run(runtime, fn, items):
    """Every result of ``runtime.map``, in input order."""
    return sorted(runtime.map(fn, items), key=lambda result: result.index)


class TestSeedDerivation:
    def test_deterministic_and_spread(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)
        seeds = {derive_seed(7, index) for index in range(100)}
        assert len(seeds) == 100  # no collisions over a realistic fan-out
        assert all(seed >= 0 for seed in seeds)

    def test_root_seed_matters(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_string_parts_supported(self):
        assert derive_seed(1, "BLE") != derive_seed(1, "CAN")


class TestBackendResolver:
    def test_backend_names(self):
        assert BACKEND_NAMES == ("serial", "process")
        assert backend_from_spec("serial").name == "serial"
        assert backend_from_spec("serial", jobs=1).name == "serial"
        assert backend_from_spec("process", jobs=3).jobs == 3
        assert backend_from_spec("process").jobs == usable_cpus()
        with pytest.raises(ValidationError, match="unknown backend"):
            backend_from_spec("quantum")

    def test_thread_is_an_unknown_name(self):
        with pytest.raises(ValidationError, match="unknown backend"):
            backend_from_spec("thread")
        with pytest.raises(ValidationError, match="unknown backend"):
            backend_from_spec("thread", jobs=2)

    def test_serial_backend_rejects_parallel_jobs(self):
        # Silently ignoring --jobs on the serial backend would hide a
        # misconfiguration; it errors like the instance path does.
        with pytest.raises(ValidationError, match="exactly one job"):
            backend_from_spec("serial", jobs=4)

    def test_backend_from_spec_defaults(self):
        assert backend_from_spec(None).name == "serial"
        assert backend_from_spec(None, jobs=1).name == "serial"
        parallel = backend_from_spec(None, jobs=3)
        assert parallel.name == "process"
        assert parallel.jobs == 3

    @pytest.mark.parametrize("owned", [False, True])
    def test_backend_from_spec_conflicting_jobs_rejected(self, owned):
        backend = ProcessBackend(jobs=2) if owned else SerialBackend()
        with pytest.raises(ValidationError, match="conflicts"):
            backend_from_spec(backend, jobs=4)
        assert backend_from_spec(backend, jobs=backend.jobs) is backend
        assert backend_from_spec(backend) is backend

    @pytest.mark.parametrize("jobs", [0, -1, -4])
    @pytest.mark.parametrize(
        "spec",
        [None, "serial", "process", SerialBackend(), ProcessBackend(jobs=2)],
        ids=["none", "serial", "process", "serial-instance",
             "process-instance"],
    )
    def test_backend_from_spec_rejects_jobs_below_one(self, spec, jobs):
        with pytest.raises(ValidationError, match=">= 1"):
            backend_from_spec(spec, jobs=jobs)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValidationError, match=">= 1"):
            ProcessBackend(jobs=0)
        with pytest.raises(ValidationError, match=">= 1"):
            ProcessBackend(jobs=-1)

    def test_usable_cpus_positive(self):
        assert usable_cpus() >= 1


class TestBackendExecution:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_map_unordered_covers_all_items(self, name):
        backend = _backend(name)
        try:
            got = dict(backend.map_unordered(_square, range(8)))
        finally:
            backend.shutdown()
        assert got == {index: index * index for index in range(8)}

    def test_serial_is_lazy(self):
        executed = []

        def probe(value):
            executed.append(value)
            return value

        stream = SerialBackend().map_unordered(probe, range(5))
        assert executed == []  # nothing ran yet
        next(stream)
        assert executed == [0]  # exactly one job per pull
        stream.close()
        assert executed == [0]

    def test_shutdown_is_idempotent(self):
        backend = ProcessBackend(jobs=1)
        backend.shutdown()  # never started: nothing to release
        assert dict(backend.map_unordered(_square, [2])) == {0: 4}
        assert backend.started
        backend.shutdown()
        assert not backend.started
        backend.shutdown()
        # A shut-down backend starts a fresh pool on its next map.
        assert dict(backend.map_unordered(_square, [3])) == {0: 9}
        backend.shutdown()


class TestRuntimeSemantics:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_results_carry_their_input_index(self, name):
        with Runtime(_backend(name)) as runtime:
            results = _run(runtime, _square, [3, 1, 2])
        assert [r.index for r in results] == [0, 1, 2]
        assert [r.value for r in results] == [9, 1, 4]
        assert all(r.ok and r.wall_time_s >= 0 for r in results)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_errors_are_captured_not_raised(self, name):
        with Runtime(_backend(name)) as runtime:
            results = _run(runtime, _fail_on_two, range(4))
        assert [r.ok for r in results] == [True, True, False, True]
        failed = results[2]
        assert failed.error.type == "ValueError"
        assert "poisoned" in failed.error.message
        assert "ValueError" in failed.error.traceback
        with pytest.raises(ExecutionError, match="poisoned"):
            failed.unwrap()

    @pytest.mark.parametrize("jobs", (1, 2, 3))
    def test_pool_size_does_not_change_results(self, jobs):
        """Each item is one task, so the pool size moves no index or
        value."""
        with Runtime(ProcessBackend(jobs=jobs)) as runtime:
            results = _run(runtime, _derive, range(9))
        assert [r.index for r in results] == list(range(9))
        assert [r.value for r in results] == [
            (value, derive_seed(5, value)) for value in range(9)
        ]

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_empty_input_runs_no_job(self, name):
        events = []
        with Runtime(_backend(name), on_event=events.append) as runtime:
            assert _run(runtime, _square, []) == []
        assert [(e.kind, e.done, e.total) for e in events] == [
            ("finished", 0, 0)
        ]

    def test_progress_events_sequence(self):
        events = []
        runtime = Runtime(on_event=events.append)
        list(runtime.map(_square, range(3)))
        kinds = [event.kind for event in events]
        assert kinds == ["completed", "completed", "completed", "finished"]
        assert [event.done for event in events] == [1, 2, 3, 3]
        assert all(event.total == 3 for event in events)
        assert events[0].result.value == 0

    def test_cancellation_stops_dispatch(self):
        token = CancelToken()
        events = []

        def on_event(event):
            events.append(event.kind)
            if event.kind == "completed" and event.done == 2:
                token.cancel()

        runtime = Runtime(on_event=on_event, cancel=token)
        results = list(runtime.map(_square, range(50)))
        assert len(results) == 2
        assert events[-1] == "cancelled"
        assert token.cancelled

    def test_pre_cancelled_runs_nothing(self):
        token = CancelToken()
        token.cancel()
        assert list(Runtime(cancel=token).map(_square, range(5))) == []


class TestProcessBackendSemantics:
    @pytest.mark.parametrize("method", available_start_methods())
    def test_seeds_identical_under_every_start_method(self, method):
        """Seed derivation is content-addressed, so a seed derived in a
        worker is identical under fork and spawn."""
        with Runtime(ProcessBackend(jobs=2, start_method=method)) as runtime:
            results = _run(runtime, _derive, ["x", "y", "z"])
        assert [r.index for r in results] == [0, 1, 2]
        assert [r.value for r in results] == [
            ("x", derive_seed(5, "x")),
            ("y", derive_seed(5, "y")),
            ("z", derive_seed(5, "z")),
        ]

    def test_workers_know_their_identity(self):
        with Runtime(ProcessBackend(jobs=2)) as runtime:
            results = _run(runtime, _report_worker, range(6))
        assert all(r.value is True for r in results)

    def test_main_process_is_not_a_worker(self):
        from repro.runtime import in_worker_process

        assert in_worker_process() is False

    def test_env_start_method_honoured(self, monkeypatch):
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        assert ProcessBackend().start_method == "spawn"
        monkeypatch.setenv(START_METHOD_ENV, "not-a-method")
        with pytest.raises(ValidationError, match="not supported"):
            ProcessBackend().start_method

    def test_explicit_start_method_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        if "fork" not in available_start_methods():
            pytest.skip("fork start method unavailable")
        assert ProcessBackend(start_method="fork").start_method == "fork"
