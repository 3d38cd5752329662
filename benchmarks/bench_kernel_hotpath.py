"""Hot-path microbenchmarks of the simulation substrate.

The clock, event bus and message-authentication layer are the floor
every campaign variant stands on; these benchmarks pin their throughput
(and the invariants the PR-5 rewrite must not lose) so regressions show
up in the ``BENCH_kernel_hotpath`` trajectory next to the built-in
``repro bench kernel`` suite:

* **clock churn**: periodic-heavy scheduling through the tuple-based
  heap -- execution order stays (time, scheduling-order) exact;
* **bus publish**: topic-indexed dispatch and O(1)-maintained counters
  in both trace modes, with the lean ``counts`` mode at least as fast
  as ``full``;
* **MAC broadcast**: per-receiver verification of signed broadcasts
  through the instance memo -- verify-once semantics with honest
  verdicts (a tampered replica still fails);
* **fleet end to end**: the ``fleet`` family at convoy size 8 on the
  serial backend -- the acceptance metric of the hot-path overhaul;
* **fleet batched**: the same family through :class:`BatchedBackend`
  family batching (PR 6) -- shared-setup amortisation must never cost
  correctness, so verdicts are asserted identical to the serial run;
* **spatial queries**: ``SpatialIndex.within``/``nearest`` sweeps over
  a 512-actor road.
"""

import dataclasses

import _harness  # noqa: F401  (sys.path bootstrap + BENCH json writer)

from repro.bench import fleet_variants_of_size
from repro.engine.campaign import run_campaign
from repro.runtime import BatchedBackend, SerialBackend
from repro.sim.clock import SimClock
from repro.sim.crypto import KeyStore
from repro.sim.events import EventBus
from repro.sim.network import Message
from repro.sim.topology import SpatialIndex


def test_clock_periodic_churn(benchmark):
    """Periodic-heavy clock execution; tie order stays deterministic."""

    def churn() -> tuple[int, list[float]]:
        clock = SimClock()
        fired: list[int] = []
        for index in range(16):
            clock.schedule_periodic(
                1.0, lambda i=index: fired.append(i), until=1000.0
            )
        executed = clock.run()
        return executed, fired

    executed, fired = benchmark(churn)
    assert executed == 16000
    # Every tick fires the chains in scheduling order (tie-breaking).
    assert fired[:16] == list(range(16))
    assert fired[16:32] == list(range(16))
    benchmark.extra_info["events"] = executed


def test_bus_publish_throughput(benchmark):
    """Indexed dispatch + counters; lean mode skips trace retention."""
    publishes = 20000

    def storm(mode: str) -> EventBus:
        bus = EventBus(mode=mode)
        hot: list = []
        bus.subscribe("hot.topic", hot.append)
        bus.retain("hot.topic")
        topics = ("hot.topic", "cold.one", "cold.two", "cold.three")
        for index in range(publishes):
            bus.publish(float(index), topics[index & 3], "bench", n=index)
        return bus

    buses = benchmark(
        lambda: {mode: storm(mode) for mode in ("full", "counts")}
    )
    for mode, bus in buses.items():
        assert bus.count("hot.topic") == publishes // 4
        assert bus.count("cold") == 3 * publishes // 4
        assert len(bus.events("hot.topic")) == publishes // 4
    assert len(buses["full"].trace) == publishes
    benchmark.extra_info["publishes_per_mode"] = publishes


def test_mac_broadcast_verification(benchmark):
    """Verify-once broadcasts; forgeries still fail per instance."""
    keystore = KeyStore()
    key = keystore.provision("RSU-bench")
    messages = [
        Message(
            kind="road_works_warning",
            sender="RSU-bench",
            payload={"zone_start_m": 1500.0, "n": n},
            counter=n,
            timestamp=float(n),
        ).signed(keystore)
        for n in range(200)
    ]

    def broadcast_verify() -> int:
        verified = 0
        for message in messages:
            for _ in range(8):  # every convoy member re-checks
                verified += message.mac_verified(key)
        return verified

    verified = benchmark(broadcast_verify)
    assert verified == len(messages) * 8
    # Honest semantics survive the memo: a tampered replica (same tag,
    # same unique_id, different payload) is a fresh instance and fails.
    tampered = dataclasses.replace(
        messages[0], payload={"zone_start_m": 0.0, "n": 0}
    )
    assert not tampered.mac_verified(key)
    benchmark.extra_info["receivers"] = 8


def test_fleet_campaign_serial_throughput(benchmark):
    """The acceptance metric: fleet n=8 variants/sec, serial backend."""
    variants = fleet_variants_of_size(8)
    result = benchmark.pedantic(
        lambda: run_campaign(variants, backend="serial"),
        rounds=1,
        iterations=1,
    )
    assert result.total == 4
    assert not result.errors()
    by_id = {o.variant_id.rsplit("-", 1)[-1]: o for o in result.outcomes}
    assert "SG01" in by_id["exposed"].violated_goals
    assert not by_id["protected"].violated_goals
    benchmark.extra_info["variants_per_s"] = round(
        result.total / max(result.wall_time_s, 1e-9), 3
    )


def test_fleet_campaign_batched_throughput(benchmark):
    """Family batching on the fleet family: same verdicts, shared setup."""
    variants = fleet_variants_of_size(8)
    serial = run_campaign(variants, backend="serial")

    result = benchmark.pedantic(
        lambda: run_campaign(
            variants, backend=BatchedBackend(SerialBackend(), batch_size=4)
        ),
        rounds=1,
        iterations=1,
    )
    assert result.total == 4
    assert not result.errors()
    batched_verdicts = {
        o.variant_id: (o.verdict, tuple(o.violated_goals))
        for o in result.outcomes
    }
    serial_verdicts = {
        o.variant_id: (o.verdict, tuple(o.violated_goals))
        for o in serial.outcomes
    }
    assert batched_verdicts == serial_verdicts
    benchmark.extra_info["batch_size"] = 4
    benchmark.extra_info["variants_per_s"] = round(
        result.total / max(result.wall_time_s, 1e-9), 3
    )


def test_spatial_query_throughput(benchmark):
    """within/nearest sweeps; every nearest query fills its count."""
    positions = [
        (float((n * 37) % 3000), f"V{n:03d}") for n in range(512)
    ]
    centers = [float(c) for c in range(0, 3000, 60)]

    def sweep() -> list:
        index = SpatialIndex(positions)
        hits = []
        for center in centers:
            hits.append(index.within(center, 250.0))
            hits.append(index.nearest(center, 8))
        return hits

    hits = benchmark(sweep)
    assert all(len(nearest) == 8 for nearest in hits[1::2])
    benchmark.extra_info["actors"] = len(positions)
    benchmark.extra_info["queries"] = 2 * len(centers)


if __name__ == "__main__":
    raise SystemExit(_harness.main(__file__))
