"""Tests of the benchmark itself.

Run explicitly (the name keeps it out of the repository's test run)::

    python3 -m pytest -q saseval_bench/selfcheck.py

The counter test runs ``run.py --trace 1`` for every workload at two
seeds (about four minutes on 2 CPUs).
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time

import pytest

import calibration
import common

common.bootstrap()

import layers  # noqa: E402 - needs the bootstrapped sys.path


def test_metric_tables_match_benchmark_json():
    config = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] == [
        (name, unit, better) for name, unit, better, _moves in layers.PER_LAYER
    ]
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == (
        common.END_TO_END_UNITS
    )


def test_self_time_excludes_nested_spans(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(layers.time, "perf_counter", lambda: now[0])
    tracer = layers.Tracer()

    def advance(seconds):
        now[0] += seconds

    inner = tracer.span("inner", advance)

    def outer():
        advance(1.0)
        inner(2.0)
        inner(0.5)
        advance(3.0)

    tracer.span("outer", outer)()
    (state,) = tracer._states
    assert state.spans["outer"] == [1, 4.0]
    assert state.spans["inner"] == [2, 2.5]
    assert state.stack == []


def test_calibration_scales_by_the_samples_inside_an_interval():
    reference = calibration.REFERENCE_S
    cal = calibration.Calibrator()
    cal.starts = [0.0, 1.0, 2.0, 3.0, 4.0]
    cal.ends = [
        start + reference * factor
        for start, factor in zip(cal.starts, [1, 2, 4, 1, 3])
    ]
    # Samples 1-3 lie inside: their kernel time is taken out, their
    # mean (7/3 of the reference) sets the scale.
    assert cal.kernel_s(0.5, 3.5) == pytest.approx(7 * reference)
    assert cal.scale(0.5, 3.5) == pytest.approx((3.0 - 7 * reference) * 3 / 7)
    # A short interval with no sample inside takes the nearest three:
    # those at 3.0, 2.0 and 4.0 (mean 8/3 of the reference).
    assert cal.kernel_s(2.5, 2.6) == 0.0
    assert cal.scale(2.5, 2.6) == pytest.approx(0.1 * 3 / 8)


def test_calibrator_stops_its_sampler():
    cal = calibration.Calibrator()
    with cal.running():
        time.sleep(5 * calibration.PERIOD_S)
    assert cal.starts and len(cal.starts) == len(cal.ends)
    assert not any(t.name == "bench-calibration" for t in threading.enumerate())


def test_uninstall_restores_every_original():
    from repro.engine import campaign
    from repro.sim import crypto, network

    watched = [
        (network.Message, "create_signed"),
        (crypto, "compute_mac"),
        (network, "verify_mac"),
        (network.Channel, "__init__"),
        (campaign, "execute_variant"),
    ]
    before = [vars(owner)[attr] for owner, attr in watched]
    tracer = layers.Tracer()
    tracer.install()
    try:
        during = [vars(owner)[attr] for owner, attr in watched]
    finally:
        tracer.uninstall()
    after = [vars(owner)[attr] for owner, attr in watched]
    assert all(a is not b for a, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
    assert isinstance(vars(network.Message)["create_signed"], classmethod)


def _traced_counters(workload: str, seed: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(common.BENCH_DIR / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", "1",
        ],
        cwd=common.ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: result["metrics"][name]["value"] for name in layers.DETERMINISTIC}


@pytest.mark.parametrize("workload", ["registry", "fleet-n256", "service-mixed"])
def test_deterministic_counters_repeat_across_runs_and_seeds(workload):
    first = _traced_counters(workload, seed=1)
    second = _traced_counters(workload, seed=2)
    assert first == second
    assert first["sim.clock.events"] > 0
