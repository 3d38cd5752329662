"""Invariants of the PR-5 hot-path overhaul: clock, bus, MAC memo.

The rewrite's contract is "faster, bit-identical": these tests pin the
behaviours the optimisations could plausibly have broken -- tie-broken
execution order, the live ``pending`` counter, cached trace views,
trace-mode verdict neutrality, and the safety of the per-instance MAC
memo against tampered replicas.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.crypto import KeyStore
from repro.sim.events import TRACE_COUNTS, TRACE_FULL, EventBus, TopicProbe
from repro.sim.network import Message


class TestClockHotPath:
    def test_pending_counter_tracks_cancel_and_execution(self):
        clock = SimClock()
        handles = [clock.schedule_at(10.0 * n, lambda: None) for n in range(5)]
        assert clock.pending == 5
        handles[0].cancel()
        handles[0].cancel()  # idempotent: no double decrement
        assert clock.pending == 4
        clock.run_until(20.0)  # executes the (live) events at 10 and 20
        assert clock.pending == 2
        handles[4].cancel()
        assert clock.pending == 1
        clock.run()
        assert clock.pending == 0

    def test_cancel_after_execution_is_a_noop(self):
        clock = SimClock()
        handle = clock.schedule_at(5.0, lambda: None)
        clock.run()
        handle.cancel()
        assert not handle.cancelled  # it ran; it was never cancelled
        assert clock.pending == 0

    def test_post_is_ordered_like_schedule_at(self):
        clock = SimClock()
        order = []
        clock.schedule_at(10.0, lambda: order.append("handle"))
        clock.post(10.0, lambda: order.append("post"))
        clock.post(5.0, lambda: order.append("early"))
        clock.run()
        assert order == ["early", "handle", "post"]

    def test_post_rejects_the_past(self):
        clock = SimClock()
        clock.run_until(100.0)
        with pytest.raises(SimulationError):
            clock.post(50.0, lambda: None)

    def test_periodic_chain_consumes_one_sequence_per_firing(self):
        # Two interleaved periodics keep strict registration order at
        # every shared timestamp -- the tie-break contract the campaign
        # verdicts stand on.
        clock = SimClock()
        order = []
        clock.schedule_periodic(10.0, lambda: order.append("a"), until=40.0)
        clock.schedule_periodic(10.0, lambda: order.append("b"), until=40.0)
        clock.run()
        assert order == ["a", "b"] * 4

    def test_run_returns_the_number_of_events_executed(self):
        clock = SimClock()
        fired = []
        for index in range(16):
            clock.schedule_periodic(
                1.0, lambda i=index: fired.append(i), until=1000.0
            )
        assert clock.run() == len(fired) == 16000
        assert fired[:32] == list(range(16)) * 2

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=0.0,
                max_value=1000.0,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_tie_broken_order_is_time_then_scheduling_order(self, times):
        """Execution order == stable sort of submissions by time."""
        clock = SimClock()
        executed = []
        for index, time in enumerate(times):
            clock.schedule_at(
                time, lambda pair=(time, index): executed.append(pair)
            )
        clock.run()
        assert executed == sorted(
            ((time, index) for index, time in enumerate(times)),
            key=lambda pair: pair[0],
        )


class TestEventBusHotPath:
    def test_events_view_is_cached_until_publish(self):
        bus = EventBus()
        bus.publish(1.0, "a.b", "s")
        first = bus.events("a")
        assert bus.events("a") is first  # cached, not a fresh copy
        assert bus.trace is bus.trace
        bus.publish(2.0, "a.c", "s")
        second = bus.events("a")
        assert second is not first
        assert len(second) == 2

    def test_count_is_counter_backed_and_clear_resets(self):
        bus = EventBus()
        for n in range(5):
            bus.publish(float(n), "x.y", "s")
        bus.publish(9.0, "x", "s")
        assert bus.count("x") == 6
        assert bus.count("x.y") == 5
        assert bus.count("") == 6
        assert bus.count("x.y.z") == 0
        bus.clear()
        assert bus.count("x") == 0
        assert bus.events("x") == ()

    @pytest.mark.parametrize("mode", [TRACE_FULL, TRACE_COUNTS])
    def test_retained_counts_survive_a_publish_storm(self, mode):
        bus = EventBus(mode=mode)
        hot = []
        bus.subscribe("hot.topic", hot.append)
        bus.retain("hot.topic")
        topics = ("hot.topic", "cold.one", "cold.two", "cold.three")
        for index in range(400):
            bus.publish(float(index), topics[index & 3], "s", n=index)
        assert bus.count("hot.topic") == len(hot) == 100
        assert bus.count("cold") == 300
        assert len(bus.events("hot.topic")) == 100
        if mode == TRACE_FULL:
            assert len(bus.trace) == 400

    def test_dispatch_order_across_prefixes_is_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe("a.b", lambda e: order.append("specific"))
        bus.subscribe("", lambda e: order.append("catch-all"))
        bus.subscribe("a", lambda e: order.append("parent"))
        bus.publish(1.0, "a.b", "s")
        assert order == ["specific", "catch-all", "parent"]

    def test_subscribing_after_publishes_still_receives(self):
        bus = EventBus()
        bus.publish(1.0, "t.x", "s")  # warms the dispatch plan
        seen = []
        bus.subscribe("t", seen.append)
        bus.publish(2.0, "t.x", "s")
        assert [event.time for event in seen] == [2.0]

    def test_counts_mode_counts_and_dispatches_without_retaining(self):
        bus = EventBus(mode=TRACE_COUNTS)
        seen = []
        bus.subscribe("hot", seen.append)
        consumed = bus.publish(1.0, "hot.x", "s")
        dropped = bus.publish(2.0, "cold.x", "s")
        assert consumed is not None  # a subscriber needed the event
        assert dropped is None  # nobody consumed it; never allocated
        assert bus.count("hot.x") == 1
        assert bus.count("cold") == 1
        assert len(seen) == 1

    def test_counts_mode_retains_registered_prefixes(self):
        bus = EventBus(mode=TRACE_COUNTS)
        bus.retain("door")
        bus.publish(1.0, "door.opened", "s", actor="owner")
        bus.publish(2.0, "other.topic", "s")
        events = bus.events("door.opened")
        assert [event.data["actor"] for event in events] == ["owner"]
        assert bus.last("door").time == 1.0

    def test_counts_mode_rejects_unretained_reads_loudly(self):
        bus = EventBus(mode=TRACE_COUNTS)
        bus.publish(1.0, "door.opened", "s")
        with pytest.raises(SimulationError):
            bus.events("door.opened")
        with pytest.raises(SimulationError):
            bus.last("door.opened")
        with pytest.raises(SimulationError):
            bus.trace

    def test_mid_run_retain_keeps_later_events(self):
        bus = EventBus(mode=TRACE_COUNTS)
        bus.publish(1.0, "t.x", "s")
        bus.retain("t.x")
        bus.publish(2.0, "t.x", "s")
        assert [event.time for event in bus.events("t.x")] == [2.0]

    def test_unknown_mode_rejected(self):
        with pytest.raises(SimulationError):
            EventBus(mode="lossy")

    def test_every_issued_probe_stays_current(self):
        bus = EventBus(mode=TRACE_COUNTS)
        shared = bus.probe("a.b")
        direct = TopicProbe(bus, "a.b")
        assert bus.probe("a.b") is shared
        assert not shared.active and not direct.active
        bus.subscribe("a", lambda event: None)
        assert shared.active and direct.active


class TestMacMemoSafety:
    def test_broadcast_verifies_once_with_honest_verdict(self):
        keystore = KeyStore()
        key = keystore.provision("RSU")
        message = Message(
            kind="road_works_warning",
            sender="RSU",
            payload={"zone_start_m": 1500.0},
            counter=1,
            timestamp=10.0,
        ).signed(keystore)
        assert all(message.mac_verified(key) for _ in range(8))
        assert not message.mac_verified(keystore.provision("other"))

    def test_tampered_replica_fails_despite_shared_tag_and_id(self):
        """The memo must be per instance: a tampered copy shares
        unique_id AND auth_tag with its verified original."""
        keystore = KeyStore()
        key = keystore.provision("RSU")
        original = Message(
            kind="road_works_warning",
            sender="RSU",
            payload={"zone_start_m": 1500.0},
            counter=1,
            timestamp=10.0,
        ).signed(keystore)
        assert original.mac_verified(key)
        tampered = dataclasses.replace(
            original, payload={"zone_start_m": 0.0}
        )
        assert tampered.unique_id == original.unique_id
        assert tampered.auth_tag == original.auth_tag
        assert not tampered.mac_verified(key)
        assert original.mac_verified(key)  # original verdict untouched

    def test_signed_preserves_every_field(self):
        """signed() copies by explicit field enumeration (a perf win
        over dataclasses.replace) -- this test turns a silently dropped
        future field into a loud failure."""
        keystore = KeyStore()
        keystore.provision("RSU")
        message = Message(
            kind="k",
            sender="RSU",
            payload={"a": 1},
            counter=7,
            timestamp=3.5,
            location="site-A",
        )
        signed = message.signed(keystore)
        for field in dataclasses.fields(Message):
            if field.name == "auth_tag":
                continue
            assert getattr(signed, field.name) == getattr(
                message, field.name
            ), f"signed() dropped field {field.name!r}"
        assert signed.auth_tag and signed.auth_tag != message.auth_tag

    def test_signing_bytes_stable_and_tag_independent(self):
        keystore = KeyStore()
        keystore.provision("RSU")
        message = Message(
            kind="k", sender="RSU", payload={"a": 1}, counter=1, timestamp=1.0
        )
        unsigned_bytes = message.signing_bytes()
        signed = message.signed(keystore)
        assert signed.signing_bytes() == unsigned_bytes
        assert signed.signing_bytes() is signed.signing_bytes()


class TestTraceModeVerdictNeutrality:
    """Trace mode ``counts`` must be observationally equivalent to
    ``full`` wherever verdicts are derived."""

    @pytest.mark.slow
    @settings(max_examples=8, deadline=None)
    @given(st.data())
    def test_counts_and_full_verdicts_match(self, data):
        from repro.engine.campaign import execute_variant
        from repro.engine.registry import default_registry

        registry = default_registry()
        quick = registry.variants(
            scenario="uc2-keyless-entry", family="zone-geometry"
        ) + registry.variants(
            scenario="uc2-keyless-entry", family="attacker-timing", limit=4
        ) + tuple(
            variant
            for variant in registry.variants(family="fleet")
            if variant.params_dict().get("fleet_size") == 2
        )
        variant = data.draw(st.sampled_from(quick))
        full = execute_variant(variant, trace_mode=TRACE_FULL)
        lean = execute_variant(variant, trace_mode=TRACE_COUNTS)
        assert lean.verdict == full.verdict
        assert lean.violated_goals == full.violated_goals
        assert lean.violations == full.violations
        assert lean.detections == full.detections
        assert lean.detections_by_control == full.detections_by_control
