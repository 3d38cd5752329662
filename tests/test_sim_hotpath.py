"""Invariants of the simulator hot path: clock, lanes, bus, MAC memo, log.

The optimisations' contract is "faster, bit-identical": these tests pin
the behaviours they could plausibly have broken -- tie-broken execution
order, FIFO lanes against one ``post`` per item, the live ``pending``
counter, cached trace views, trace-retention verdict neutrality, the
safety of the per-instance MAC memo against tampered replicas, and the
run-length intrusion log against a row-per-denial reference.
"""

import collections
import copy
import dataclasses
import functools
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.controls.authentication import (
    MessageCounterCheck,
    SenderAuthentication,
)
from repro.sim.controls.base import (
    ControlPipeline,
    Decision,
    DetectionRecord,
    SecurityControl,
    expand_runs,
)
from repro.sim.crypto import KeyStore, compute_mac
from repro.sim.events import EventBus, TopicProbe
from repro.sim.network import Message
from repro.tara.fuzzing import MessageFuzzer


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


#: One step of a clock script: (operation, lane or handle index, delta).
_CLOCK_STEPS = st.tuples(
    st.sampled_from(
        ["post", "at", "cancel", "periodic", "push", "push-echo", "run"]
    ),
    st.integers(min_value=0, max_value=7),
    st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5]),
)


def _drive_clock(steps, use_lanes):
    """Run a clock script; lane pushes go through two lanes, or -- the
    reference -- through one ``post`` of a ``functools.partial`` each.

    Returns the execution order, ``pending`` after every step and every
    ``run_until`` return value.  An ``echo`` item pushes a follow-up onto
    its lane from inside the lane callback, at the lane's tail (or now,
    if later).
    """
    clock = SimClock()
    order = []
    handles = []
    tails = [0.0, 0.0]

    def push(lane, item):
        time = max(tails[lane], clock.now)
        tails[lane] = time
        if use_lanes:
            lanes[lane].push(time, item)
        else:
            clock.post(time, functools.partial(fire, item))

    def fire(item):
        order.append(item)
        lane, label, echo = item
        if echo:
            push(lane, (lane, label + "'", False))

    lanes = [clock.lane(fire), clock.lane(fire)]
    pendings = []
    returns = []
    for index, (operation, which, delta) in enumerate(steps):
        label = f"{operation}{index}"
        if operation == "post":
            clock.post(clock.now + delta, functools.partial(order.append, label))
        elif operation == "at":
            handles.append(
                clock.schedule_at(
                    clock.now + delta, functools.partial(order.append, label)
                )
            )
        elif operation == "cancel":
            if handles:
                handles[which % len(handles)].cancel()
        elif operation == "periodic":
            clock.schedule_periodic(
                0.5 + delta,
                functools.partial(order.append, label),
                until=clock.now + 3.0,
            )
        elif operation in ("push", "push-echo"):
            lane = which % 2
            tails[lane] = max(tails[lane], clock.now) + delta
            push(lane, (lane, label, operation == "push-echo"))
        else:
            returns.append(clock.run_until(clock.now + delta))
        pendings.append(clock.pending)
    returns.append(clock.run_until(clock.now + 100.0))
    pendings.append(clock.pending)
    return order, pendings, returns


class TestClockLanes:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_CLOCK_STEPS, max_size=60))
    def test_lane_equals_one_post_per_item(self, steps):
        """Order, ``pending`` and ``run_until`` counts match the
        reference run in which every lane push is a plain ``post``."""
        assert _drive_clock(steps, use_lanes=True) == _drive_clock(
            steps, use_lanes=False
        )

    def test_push_before_the_tail_raises(self):
        clock = SimClock()
        lane = clock.lane(lambda item: None)
        lane.push(10.0, "a")
        lane.push(10.0, "b")  # ties are FIFO, not an error
        with pytest.raises(SimulationError, match="tail is at 10.0") as bad:
            lane.push(9.5, "c")
        assert "clock" not in str(bad.value)  # names the bound that failed
        assert clock.pending == 2
        assert clock.run() == 2

    def test_push_into_the_past_raises(self):
        clock = SimClock()
        lane = clock.lane(lambda item: None)
        clock.run_until(100.0)
        with pytest.raises(SimulationError, match="clock is at 100.0") as bad:
            lane.push(50.0, "late")
        assert "tail" not in str(bad.value)
        assert clock.pending == 0

    def test_idle_lane_allocates_no_queue(self):
        lane = SimClock().lane(lambda item: None)
        assert lane._items is None

    def test_flood_keeps_the_heap_small(self):
        """Deterministic gate: an AD20-rate flood (one packet per
        0.2 ms onto a 4-per-ms channel) backs up thousands of
        deliveries, yet the clock heap holds only lane heads and the
        scenario's own timers."""
        from repro.sim.attacks.flooding import FloodingAttack
        from repro.sim.scenarios import ConstructionSiteScenario

        scenario = ConstructionSiteScenario()
        clock = scenario.clock
        FloodingAttack(
            "attacker", clock, scenario.v2x, kind="cam_message",
            interval_ms=0.2, duration_ms=5000.0,
            keystore=scenario.keystore, authenticated=True,
            location=scenario.RSU_LOCATION,
        ).launch(100.0)
        samples = []
        clock.schedule_periodic(
            250.0, lambda: samples.append((len(clock._queue), clock.pending))
        )
        scenario.run(5000.0)
        assert max(heap for heap, _pending in samples) <= 8
        assert max(pending for _heap, pending in samples) >= 1000


class TestEventBusHotPath:
    def test_events_view_is_cached_until_publish(self):
        bus = EventBus()
        bus.retain("")
        bus.publish(1.0, "a.b", "s")
        first = bus.events("a")
        assert bus.events("a") is first  # cached, not a fresh copy
        assert bus.events("") is bus.events("")
        bus.publish(2.0, "a.c", "s")
        second = bus.events("a")
        assert second is not first
        assert len(second) == 2

    def test_count_is_counter_backed_and_clear_resets(self):
        bus = EventBus()
        bus.retain("x")
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

    @pytest.mark.parametrize(
        "retain_all", [True, False], ids=["retain-all", "retain-hot"]
    )
    def test_retained_counts_survive_a_publish_storm(self, retain_all):
        bus = EventBus()
        if retain_all:
            bus.retain("")
        hot = []
        bus.subscribe("hot.topic", hot.append)
        bus.retain("hot.topic")
        topics = ("hot.topic", "cold.one", "cold.two", "cold.three")
        for index in range(400):
            bus.publish(float(index), topics[index & 3], "s", n=index)
        assert bus.count("hot.topic") == len(hot) == 100
        assert bus.count("cold") == 300
        assert len(bus.events("hot.topic")) == 100
        if retain_all:
            assert len(bus.events("")) == 400

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

    def test_unretained_topics_count_and_dispatch_without_retaining(self):
        bus = EventBus()
        seen = []
        bus.subscribe("hot", seen.append)
        consumed = bus.publish(1.0, "hot.x", "s")
        dropped = bus.publish(2.0, "cold.x", "s")
        assert consumed is not None  # a subscriber needed the event
        assert dropped is None  # nobody consumed it; never allocated
        assert bus.count("hot.x") == 1
        assert bus.count("cold") == 1
        assert len(seen) == 1

    def test_retains_registered_prefixes_only(self):
        bus = EventBus()
        bus.retain("door")
        bus.publish(1.0, "door.opened", "s", actor="owner")
        bus.publish(2.0, "other.topic", "s")
        events = bus.events("door.opened")
        assert [event.data["actor"] for event in events] == ["owner"]
        assert bus.last("door").time == 1.0

    def test_rejects_unretained_reads_loudly(self):
        bus = EventBus()
        bus.publish(1.0, "door.opened", "s")
        fix = r"bus\.retain\('door\.opened'\)"
        with pytest.raises(SimulationError, match=fix):
            bus.events("door.opened")
        with pytest.raises(SimulationError):
            bus.last("door.opened")
        with pytest.raises(SimulationError):
            bus.events("")

    def test_read_guard_respects_segment_boundaries(self):
        bus = EventBus()
        bus.retain("door.opened")
        bus.publish(1.0, "door.opened.front", "s")
        bus.publish(2.0, "door.openedx", "s")
        assert len(bus.events("door.opened")) == 1
        assert len(bus.events("door.opened.front")) == 1
        with pytest.raises(SimulationError):
            bus.events("door.openedx")
        with pytest.raises(SimulationError):
            bus.events("door")

    def test_mid_run_retain_keeps_later_events(self):
        bus = EventBus()
        bus.publish(1.0, "t.x", "s")
        bus.retain("t.x")
        bus.publish(2.0, "t.x", "s")
        assert [event.time for event in bus.events("t.x")] == [2.0]

    def test_every_issued_probe_stays_current(self):
        bus = EventBus()
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

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.text(max_size=12),
        sender=st.text(min_size=1, max_size=12),
        counter=st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
        timestamp=st.floats(allow_nan=False),
        payload=st.dictionaries(
            st.text(max_size=8),
            st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False) | st.text(max_size=8),
            max_size=4,
        ),
    )
    def test_lazy_tag_equals_eager_tag(
        self, kind, sender, counter, timestamp, payload
    ):
        keystore = KeyStore()
        key = keystore.provision(sender)
        fields = dict(
            kind=kind, sender=sender, payload=payload, counter=counter,
            timestamp=timestamp,
        )
        lazy = Message.create_signed(keystore, **fields)
        eager = compute_mac(key, Message(**fields).signing_bytes())
        # Built without __init__: every field but the tag is set, and
        # nothing has read the tag yet.
        assert set(vars(lazy)) >= {
            field.name for field in dataclasses.fields(Message)
        } - {"auth_tag"}
        assert "auth_tag" not in vars(lazy)
        assert lazy.auth_tag == compute_mac(key, lazy.signing_bytes())
        assert lazy.auth_tag == eager
        assert Message(**fields).signed(keystore).auth_tag == eager

    def test_every_read_path_carries_the_real_tag(self):
        keystore = KeyStore()
        key = keystore.provision("RSU")

        def fresh():
            return Message.create_signed(
                keystore, kind="k", sender="RSU", payload={"a": 1},
                counter=2, timestamp=4.0, location="site-A",
            )

        message = fresh()
        tag = compute_mac(key, message.signing_bytes())
        assert f"auth_tag={tag!r}" in repr(fresh())
        assert dataclasses.replace(fresh(), location="x").auth_tag == tag
        assert fresh().with_timestamp(9.0).auth_tag == tag
        assert copy.copy(fresh()).auth_tag == tag
        assert pickle.loads(pickle.dumps(fresh())).auth_tag == tag
        eager = Message(
            kind="k", sender="RSU", payload={"a": 1}, counter=2,
            timestamp=4.0, auth_tag=tag, location="site-A",
            unique_id=message.unique_id,
        )
        assert message == eager and eager == message
        assert message.auth_tag == tag
        mutants = {
            case.operator: case.message
            for case in MessageFuzzer().mutate(fresh())
        }
        assert mutants["counter_jump"].auth_tag == tag
        corrupted = mutants["corrupt_mac"].auth_tag
        assert corrupted != tag and corrupted[1:] == tag[1:]

    def test_tampered_replica_of_unread_message_fails(self):
        """replace() of a never-read signed message forces the tag on
        the original; the replica shares it and still fails."""
        keystore = KeyStore()
        key = keystore.provision("RSU")
        original = Message.create_signed(
            keystore, kind="road_works_warning", sender="RSU",
            payload={"zone_start_m": 1500.0}, counter=1, timestamp=10.0,
        )
        assert original.has_auth_tag() and "auth_tag" not in vars(original)
        tampered = dataclasses.replace(
            original, payload={"zone_start_m": 0.0}
        )
        assert tampered.unique_id == original.unique_id
        assert tampered.auth_tag == original.auth_tag
        assert tampered.has_auth_tag()
        assert not tampered.mac_verified(key)
        assert original.mac_verified(key)

    def test_tag_presence_check_does_not_compute_the_tag(self):
        keystore = KeyStore()
        key = keystore.provision("RSU")
        message = Message(
            kind="k", sender="RSU", payload={}, counter=1, timestamp=1.0
        )
        assert not message.has_auth_tag()
        signed = message.signed(keystore)
        assert signed.has_auth_tag() and signed.mac_verified(key)
        assert "auth_tag" not in vars(signed)
        assert "_mac_cache" not in vars(signed)  # no memo dict either
        assert signed.unique_id == message.unique_id

    @pytest.mark.parametrize("signed", [False, True])
    def test_with_timestamp_copies_like_replace(self, signed):
        keystore = KeyStore()
        key = keystore.provision("RSU")
        other = keystore.provision("OTHER")
        original = Message(
            kind="k", sender="RSU", payload={"a": 1}, counter=3,
            timestamp=1.0, location="site-A",
        )
        if signed:
            original = original.signed(keystore)
        # Warm caches: the copy must inherit none of them.
        original.signing_bytes()
        original.mac_verified(other)
        stamped = original.with_timestamp(7.0)
        if signed:
            assert "auth_tag" in vars(original)  # the lazy tag was forced
        reference = dataclasses.replace(original, timestamp=7.0)
        assert type(stamped) is type(reference)
        for field in dataclasses.fields(Message):
            assert getattr(stamped, field.name) == getattr(
                reference, field.name
            ), field.name
        assert stamped.unique_id == original.unique_id
        assert stamped.auth_tag == original.auth_tag
        for private in ("_signer_key", "_signing_cache", "_mac_cache"):
            assert private not in vars(stamped)
            assert private not in vars(reference)
        assert vars(stamped) == vars(reference)
        # No signer key: the copy re-verifies, and the tag covers the
        # old timestamp (or is empty).
        assert not stamped.mac_verified(key)
        assert not reference.mac_verified(key)


class TestFloodTagWork:
    """Deterministic work counter: an authenticated flood admitted on
    its signer's key computes no auth tag per packet."""

    def test_tags_computed_do_not_grow_with_flood_length(self, monkeypatch):
        from repro.engine.campaign import execute_variant
        from repro.engine.registry import default_registry
        from repro.sim import network

        registry = default_registry()
        (ad20,) = (
            variant for variant in registry.variants()
            if variant.variant_id == "uc1/parity/ad20"
        )
        macs = []
        signs = []
        compute = network.compute_mac
        create_signed = network.Message.create_signed
        monkeypatch.setattr(
            network, "compute_mac",
            lambda key, payload: macs.append(1) or compute(key, payload),
        )
        monkeypatch.setattr(
            network.Message, "create_signed",
            classmethod(
                lambda cls, *args, **kwargs: signs.append(1)
                or create_signed(*args, **kwargs)
            ),
        )
        counts = []
        for duration_ms in (1000.0, 3000.0):
            macs.clear()
            signs.clear()
            execute_variant(
                dataclasses.replace(ad20, duration_ms=duration_ms), registry
            )
            counts.append((len(macs), len(signs)))
        (short_macs, short_signs), (long_macs, long_signs) = counts
        assert long_signs > 2 * short_signs > 0  # the flood did run longer
        assert long_macs == short_macs


#: One admitted message: (sender, kind, counter, signed, clock advance).
_ADMITS = st.tuples(
    st.sampled_from(["a", "b", "ghost"]),
    st.sampled_from(["cam", "warning"]),
    st.integers(min_value=0, max_value=2),
    st.sampled_from([True, True, True, False]),
    st.sampled_from([0.0, 0.0, 0.5]),
)


class _BlockWarnings(SecurityControl):
    """Denies warnings whose counter has the given parity, with one
    reason shared by every sender and by both parities."""

    def __init__(self, parity: int) -> None:
        super().__init__(f"block-parity-{parity}")
        self.parity = parity

    def inspect(self, message, now):
        if message.kind == "warning" and message.counter % 2 == self.parity:
            return Decision.denied(self.name, "warnings blocked")
        return self.pass_decision


class TestRunLengthLog:
    """The run-length intrusion log reads back exactly the rows a
    row-per-denial log would hold: the published denial events."""

    @settings(max_examples=200, deadline=None)
    @given(
        admits=st.lists(_ADMITS, max_size=60),
        reset_at=st.integers(min_value=0, max_value=60),
    )
    @example(  # back-to-back counter denials differing only in reason
        admits=[("a", "cam", counter, True, 0.0) for counter in (2, 1, 0)],
        reset_at=60,
    )
    def test_views_equal_a_row_per_denial_reference(self, admits, reset_at):
        clock, bus = SimClock(), EventBus()
        bus.retain("control.detection")
        keystore = KeyStore()
        keystore.provision("a")
        keystore.provision("b")
        # Every control builds a fresh Decision per denial.  The counter
        # check's reason names the counter, so its runs stay short; the
        # two warning blocks share a reason that names no sender, so
        # only the control and sender fields split their runs.
        pipeline = ControlPipeline("ECU", clock, bus)
        pipeline.add(SenderAuthentication(keystore))
        pipeline.add(_BlockWarnings(0))
        pipeline.add(_BlockWarnings(1))
        pipeline.add(MessageCounterCheck())
        skipped = 0
        for index, (sender, kind, counter, signed, advance) in enumerate(
            admits
        ):
            if index == reset_at:
                pipeline.reset()
                skipped = len(bus.events("control.detection"))
            clock.run_until(clock.now + advance)
            fields = dict(kind=kind, sender=sender, payload={}, counter=counter)
            if signed and sender != "ghost":
                message = Message.create_signed(keystore, **fields)
            else:
                message = Message(**fields)
            pipeline.admit(message)
        reference = tuple(
            DetectionRecord(
                event.time,
                event.data["control"],
                event.data["reason"],
                event.data["kind"],
                event.data["sender"],
            )
            for event in bus.events("control.detection")[skipped:]
        )
        rows = tuple(expand_runs(pipeline.runs()))
        assert rows == reference
        assert all(type(row) is tuple for row in rows)
        assert pipeline.detections == reference
        assert all(
            type(record) is DetectionRecord for record in pipeline.detections
        )
        for control in (
            "sender-auth", "block-parity-0", "block-parity-1",
            "message-counter", "absent",
        ):
            assert pipeline.detections_by(control) == tuple(
                record for record in reference if record.control == control
            )
        assert pipeline.control_counts == dict(
            collections.Counter(record.control for record in reference)
        )
        pipeline.reset()
        assert pipeline.runs() == ()
        assert pipeline.control_counts == {}

    @pytest.mark.slow
    def test_flood_log_stores_few_runs(self, monkeypatch):
        """Storage gate: the OBU's log of the full AD20 flood is a
        handful of runs, not one row per denied packet."""
        from repro.engine.campaign import execute_variant
        from repro.engine.registry import default_registry
        from repro.sim.scenarios import ConstructionSiteScenario

        registry = default_registry()
        (ad20,) = (
            variant for variant in registry.variants()
            if variant.variant_id == "uc1/parity/ad20"
        )
        pipelines = []
        protected = ConstructionSiteScenario.protected_pipelines
        monkeypatch.setattr(
            ConstructionSiteScenario, "protected_pipelines",
            lambda self: pipelines.extend(protected(self).values())
            or protected(self),
        )
        outcome = execute_variant(ad20, registry)
        (obu,) = (p for p in pipelines if p.ecu_name == "OBU")
        denials = outcome.detections_of("OBU")
        assert denials == sum(len(run[0]) for run in obu._runs) == 319_146
        assert len(obu._runs) <= 100


class TestTraceRetentionVerdictNeutrality:
    """A lean run (only the scenario's ``RETAINED_TOPICS``) must be
    observationally equivalent to one that retains the complete trace
    (``retain("")``) wherever verdicts are derived."""

    @pytest.mark.slow
    @settings(max_examples=8, deadline=None)
    @given(st.data())
    def test_lean_and_complete_trace_verdicts_match(self, data):
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
        lean_init = EventBus.__init__

        def retain_everything(bus):
            lean_init(bus)
            bus.retain("")

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(EventBus, "__init__", retain_everything)
            full = execute_variant(variant)
        assert EventBus.__init__ is lean_init
        lean = execute_variant(variant)
        assert lean.verdict == full.verdict
        assert lean.violated_goals == full.violated_goals
        assert lean.violations == full.violations
        assert lean.detections == full.detections
        assert lean.detections_by_control == full.detections_by_control
