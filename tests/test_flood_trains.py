"""Flood trains: a flood between foreign clock events runs as one event.

A train sends a flood's later packets and denies its due deliveries in
bulk while every receiver in reach has a standing denial of the
flooder.  Its packets are deferred: a :class:`Message` is built only
for a packet the channel delivers on its own.  The contract is "fewer
events, identical results": these tests pin the clock and lane
primitives a train is built from, the ``standing_denial`` promise it
relies on, its equivalence with the per-packet path (selected by
patching :meth:`Channel.train_stop` to return ``now``) down to the
content of every delivered message, and a deterministic work gate on
the full AD20 flood.
"""

from array import array

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.sim.attacks import FloodingAttack, JammingAttack
from repro.sim.clock import Segment, SimClock
from repro.sim.controls import FloodingDetector, SenderAuthentication
from repro.sim.controls.base import ControlPipeline
from repro.sim.crypto import KeyStore
from repro.sim.events import EventBus
from repro.sim.network import Channel, Message
from repro.sim.scenarios import (
    UC1_ALL_CONTROLS,
    ConstructionSiteScenario,
    FleetConstructionSiteScenario,
)


def _noop() -> None:
    pass


def _lane_clock():
    clock = SimClock()
    fired = []
    return clock, clock.lane(fired.append), fired


class TestNextForeign:
    def test_lane_head_at_the_top_looks_past_it(self):
        clock, lane, _fired = _lane_clock()
        lane.push(1.0, "a")
        lane.push(2.0, "b")  # behind the head: not a heap entry
        clock.post(5.0, _noop)
        clock.post(3.0, _noop)
        assert clock._queue[0][3] is lane
        assert clock.next_foreign(lane) == 3.0

    def test_lane_head_below_the_top(self):
        clock, lane, _fired = _lane_clock()
        lane.push(1.0, "a")
        clock.post(0.5, _noop)
        assert clock.next_foreign(lane) == 0.5

    def test_cancelled_entry_at_the_top_still_stops(self):
        clock, lane, _fired = _lane_clock()
        lane.push(1.0, "a")
        clock.schedule_at(0.5, _noop).cancel()
        assert clock.next_foreign(lane) == 0.5

    def test_lane_alone_is_unbounded(self):
        clock, lane, _fired = _lane_clock()
        assert clock.next_foreign(lane) == float("inf")
        lane.push(1.0, "a")
        assert clock.next_foreign(lane) == float("inf")

    def test_run_until_caps_at_its_horizon_and_run_does_not(self):
        clock, lane, _fired = _lane_clock()
        seen = []
        clock.post(1.0, lambda: seen.append(clock.next_foreign(lane)))
        clock.post(10.0, _noop)
        clock.run_until(4.0)
        clock.post(5.0, lambda: seen.append(clock.next_foreign(lane)))
        clock.run()
        assert seen == [4.0, 10.0]


class TestBulkLane:
    def test_pop_before_keeps_pending_and_rekeys_the_head(self):
        clock, lane, fired = _lane_clock()
        for time in (1.0, 2.0, 2.0, 3.0, 4.0):
            lane.push(time, time)
        clock.post(10.0, _noop)
        assert clock.pending == 6
        assert list(lane.pop_before(3.0)) == [1.0, 2.0, 2.0]
        assert clock.pending == 3
        assert clock._queue[0][:2] == (3.0, 3)  # the 4th push's key
        assert clock.run() == 3
        assert fired == [3.0, 4.0]
        assert clock.pending == 0

    def test_pop_before_nothing_due_changes_nothing(self):
        clock, lane, _fired = _lane_clock()
        lane.push(2.0, "a")
        head = clock._queue[0]
        assert not lane.pop_before(2.0)
        assert clock._queue[0] is head and clock.pending == 1

    def test_popping_every_item_drops_the_heap_entry(self):
        clock, lane, fired = _lane_clock()
        lane.push(1.0, "a")
        lane.push(2.0, "b")
        clock.post(5.0, _noop)
        assert list(lane.pop_before(5.0)) == [1.0, 2.0]
        assert len(clock._queue) == 1 and clock.pending == 1
        clock.run()
        assert fired == []
        lane.push(6.0, "c")  # a drained lane re-enters the heap
        clock.run()
        assert fired == ["c"]

    def test_pop_before_asserts_the_lane_head_is_earliest(self):
        clock, lane, _fired = _lane_clock()
        lane.push(1.0, "a")
        clock.post(0.5, _noop)
        with pytest.raises(AssertionError, match="earliest"):
            lane.pop_before(2.0)

    @settings(max_examples=50, deadline=None)
    @given(
        before=st.lists(st.floats(0.0, 5.0), max_size=4),
        bulk=st.lists(st.floats(0.0, 5.0), max_size=6),
        stop=st.one_of(st.none(), st.floats(0.0, 6.0)),
    )
    def test_push_many_equals_a_skipped_post_then_a_push(
        self, before, bulk, stop
    ):
        """A segment keys, fires and drains its packets as one skipped
        post and one push per packet would."""
        before = sorted(before)
        bulk = sorted(bulk)
        if before and bulk:
            bulk = [max(time, before[-1]) for time in bulk]
        sent = [time / 2 for time in bulk]
        runs = []
        for one_by_one in (False, True):
            clock = SimClock()
            fired = []
            lane = clock.lane(lambda item: fired.append((clock.now, item)))
            for time in before:
                lane.push(time, ("before", time))
            if one_by_one:
                for index, time in enumerate(bulk):
                    clock._sequence += 1  # the burst post a train replaces
                    lane.push(time, ("flood", 7 + index, sent[index]))
            else:
                lane.push_many(
                    array("d", bulk), "flood", 7, array("d", sent)
                )
            keys = [entry[:2] for entry in clock._queue]
            state = (keys, clock._sequence, clock.pending)
            drained = []
            if stop is not None:
                clock.post(stop, _noop)  # the foreign event ending a drain
                drained = list(lane.pop_before(stop))
            after = [entry[:2] for entry in clock._queue]
            clock.run()
            runs.append((state, drained, after, fired, clock.pending))
        assert runs[0] == runs[1]


_CHAOTIC = (0.2, 1.7, 0.4, 0.1, 2.3, 0.6, 0.3, 1.1)


def _train_times_loop(next_time, stop, end, step, interval, chaotic):
    """The per-burst send-time loop a train replaces: ``(times, next
    burst time, step)``."""
    pattern = _CHAOTIC if chaotic else (1.0,)
    times = []
    while next_time < stop and next_time <= end:
        times.append(next_time)
        gap = interval * pattern[step % len(pattern)]
        step += 1
        if gap < 0.01:
            gap = 0.01
        next_time += gap
    return times, next_time, step


def _airtime_loop(times, next_free, bandwidth, latency):
    """The per-send airtime loop of ``Channel.send``: ``(due times,
    next_free, the last 1,000 delay samples, sends that found the
    channel idle)``."""
    if bandwidth is None:
        due = [now + latency for now in times]
        return due, next_free, [latency] * min(len(times), 1000), len(times)
    slot = 1.0 / bandwidth
    due = []
    delays = []
    idle = 0
    for now in times:
        idle += next_free <= now
        earliest = next_free if next_free > now else now
        next_free = earliest + slot
        delays.append(latency + (earliest - now))
        due.append(earliest + latency)
    return due, next_free, delays[-1000:], idle


def _bits(values) -> bytes:
    return array("d", values).tobytes()


class TestChainOracle:
    """The C-built send and airtime chains of a train
    (``FloodingAttack._train``, ``Channel.send_train``) against the
    per-burst and per-send loops they replace, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        interval=st.one_of(
            st.sampled_from([0.01, 0.1, 0.05, 0.25]),
            st.floats(0.002, 0.2),
            st.floats(0.2, 3.0),
        ),
        chaotic=st.booleans(),
        step=st.integers(0, 10_000),
        bandwidth=st.one_of(
            st.none(), st.integers(1, 8), st.floats(1.0, 8.0)
        ),
        latency=st.sampled_from([0.0, 2.0, 0.3]),
        start=st.floats(0.0, 5000.0),
        # next_free relative to the first send: idle, mixed, backlogged
        backlog=st.one_of(
            st.floats(-100.0, 0.0), st.floats(0.0, 5.0),
            st.floats(5.0, 20_000.0),
        ),
        trains=st.lists(
            st.tuples(
                st.floats(0.0, 120.0),  # stop, after the train's start
                st.one_of(st.none(), st.integers(0, 400)),  # stop tie
                st.floats(0.0, 150.0),  # end, after the train's start
                st.one_of(st.none(), st.integers(0, 400)),  # end tie
            ),
            min_size=1, max_size=3,
        ),
        delays=st.integers(0, 1500),
    )
    def test_chains_match_the_loops(
        self, interval, chaotic, step, bandwidth, latency, start, backlog,
        trains, delays,
    ):
        clock = SimClock()
        channel = Channel(
            "v2x", clock, EventBus(), latency_ms=latency,
            bandwidth_per_ms=bandwidth,
        )
        flood = FloodingAttack(
            "attacker", clock, channel, kind="cam", interval_ms=interval,
            authenticated=False, chaotic=chaotic,
        )
        flood._burst_step = step
        channel._next_free = next_free = start + backlog
        channel._delays.extend(float(n) for n in range(delays))
        reference_delays = list(channel._delays)
        next_time = start
        for stop, stop_tie, end, end_tie in trains:
            ahead, *_ = _train_times_loop(
                next_time, float("inf"), next_time + 200.0, step, interval,
                chaotic,
            )
            stop = (
                ahead[stop_tie] if stop_tie is not None
                and stop_tie < len(ahead) else next_time + stop
            )
            end = (
                ahead[end_tie] if end_tie is not None
                and end_tie < len(ahead) else next_time + end
            )
            if not (next_time < stop and next_time <= end):
                break
            times, reference_next, reference_step = _train_times_loop(
                next_time, stop, end, step, interval, chaotic
            )
            due, next_free, samples, idle = _airtime_loop(
                times, next_free, bandwidth, latency
            )
            event(
                "airtime: "
                + ("idle" if idle == len(times) else "backlogged" if not idle
                   else "mixed")
            )
            reference_delays = (reference_delays + samples)[-1000:]
            flood._burst_end = end
            channel._train = (float("-inf"), 0, [])  # deliver nothing
            sent_before = channel._sent
            next_time = flood._train(next_time, stop)
            (*_rest, segment) = list(channel._deliveries)[-1]
            assert _bits(segment.sent) == _bits(times)
            assert _bits([next_time]) == _bits([reference_next])
            assert flood._burst_step == reference_step
            assert _bits(segment.due) == _bits(due)
            assert _bits([channel._next_free]) == _bits([next_free])
            assert _bits(channel._delays) == _bits(reference_delays)
            assert channel._sent - sent_before == len(times)
            step = reference_step


def _detector_state(detector: FloodingDetector):
    return (
        {sender: list(window) for sender, window in detector._history.items()},
        dict(detector._blocked_until),
        set(detector._flagged),
    )


class TestStandingDenial:
    @settings(max_examples=100, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(["a", "b"]),
                st.sampled_from([0.0, 0.5, 3.0, 40.0]),
                st.floats(0.0, 1.0, exclude_max=True),
            ),
            max_size=60,
        )
    )
    def test_inspect_returns_the_promised_decision_without_change(
        self, steps
    ):
        detector = FloodingDetector(
            window_ms=10.0, max_messages=3, cooldown_ms=50.0
        )
        now = 0.0
        for sender, advance, fraction in steps:
            now += advance
            message = Message(kind="cam", sender=sender, payload={})
            standing = detector.standing_denial(sender)
            if standing is not None:
                until, decision = standing
                assert not decision.allowed
                probe_at = now + fraction * max(until - now, 0.0)
                if probe_at < until:
                    state = _detector_state(detector)
                    assert detector.inspect(message, probe_at) == decision
                    assert _detector_state(detector) == state
            detector.inspect(message, now)

    def test_only_the_detector_promises_and_only_first_in_line(self):
        clock = SimClock()
        bus = EventBus()
        detector = FloodingDetector(window_ms=10.0, max_messages=1)
        pipeline = ControlPipeline("ECU", clock, bus, [detector])
        message = Message(kind="cam", sender="x", payload={})
        assert pipeline.standing_denial("x") is None
        pipeline.admit(message)
        pipeline.admit(message)  # the second message flags the sender
        until, decision = pipeline.standing_denial("x")
        assert until == detector.cooldown_ms
        assert pipeline.admit(message) == decision
        guarded = ControlPipeline(
            "ECU", clock, bus, [SenderAuthentication(KeyStore()), detector]
        )
        assert guarded.standing_denial("x") is None


#: Parameters of one flood-equivalence run (see ``_run``).
_CONFIGS = st.fixed_dictionaries(
    {
        "fleet": st.booleans(),
        "fleet_size": st.integers(1, 3),
        "attacker_position_m": st.one_of(st.none(), st.floats(0.0, 2500.0)),
        "detector": st.sampled_from([True, True, True, False]),
        "others": st.sets(
            st.sampled_from(sorted(UC1_ALL_CONTROLS - {"flooding-detector"}))
        ),
        "interval_ms": st.floats(0.05, 2.0),
        "chaotic": st.booleans(),
        "authenticated": st.booleans(),
        "launch_ms": st.floats(0.0, 600.0),
        "duration_ms": st.floats(20.0, 1500.0),
        "bandwidth_per_ms": st.one_of(st.none(), st.integers(1, 8)),
        "jam": st.one_of(
            st.none(),
            st.tuples(st.floats(0.0, 1.0), st.floats(1.0, 400.0)),
        ),
        "second": st.one_of(
            st.none(),
            st.tuples(
                st.floats(0.1, 3.0),
                st.floats(0.0, 800.0),
                st.floats(20.0, 800.0),
                st.booleans(),
            ),
        ),
        "cooldown_ms": st.one_of(st.none(), st.floats(1.0, 600.0)),
        "attach_twice": st.booleans(),
        "tail_ms": st.floats(-1000.0, 1500.0),
        "split": st.one_of(st.none(), st.floats(0.05, 0.95)),
        "request_payload": st.booleans(),
    }
)


def _request_payload(counter: int) -> dict:
    """UC2's flood payload shape."""
    return {"request": counter}


def _record_deliveries(channel: Channel, patch: pytest.MonkeyPatch) -> dict:
    """Record every message that ``channel``'s receivers are handed,
    keyed ``(sender, counter)``: the fields a receiver can read, and the
    signed bytes and tag.  Patches the receivers' classes (they have
    slots), capturing every original before patching any."""
    records = {}
    originals = {
        cls: cls.receive for cls in {type(r) for r in channel._receivers}
    }
    for cls, receive in originals.items():

        def recording(self, message, receive=receive):
            record = (
                message.kind, message.sender, message.counter,
                message.timestamp, message.payload, message.location,
                message.signing_bytes(), message.auth_tag,
            )
            key = (message.sender, message.counter)
            assert records.setdefault(key, record) == record
            receive(self, message)

        patch.setattr(cls, "receive", recording)
    return records


def _run(config: dict, trains: bool):
    """Run one flood scenario (lean trace); everything a train must
    leave as the per-packet path would, the delivered messages' records
    and the number of packets sent in trains."""
    controls = set(config["others"])
    if config["detector"]:
        controls.add("flooding-detector")
    if config["fleet"]:
        scenario = FleetConstructionSiteScenario(
            controls=controls,
            fleet_size=config["fleet_size"],
            attacker_position_m=config["attacker_position_m"],
        )
    else:
        scenario = ConstructionSiteScenario(controls=controls)
    clock, channel = scenario.clock, scenario.v2x
    channel.bandwidth_per_ms = config["bandwidth_per_ms"]
    obus = scenario.obus if config["fleet"] else [scenario.obu]
    if config["attach_twice"]:
        channel.attach(obus[0])
    if config["cooldown_ms"] is not None:  # blocks that end mid-flood
        for obu in obus:
            for control in obu.pipeline.controls:
                if isinstance(control, FloodingDetector):
                    control.cooldown_ms = config["cooldown_ms"]
    launch, duration = config["launch_ms"], config["duration_ms"]
    floods = [
        FloodingAttack(
            "attacker", clock, channel, kind="cam_message",
            interval_ms=config["interval_ms"], duration_ms=duration,
            keystore=scenario.keystore,
            authenticated=config["authenticated"],
            chaotic=config["chaotic"], location=scenario.RSU_LOCATION,
            payload_factory=(
                _request_payload if config["request_payload"] else None
            ),
        )
    ]
    floods[0].launch(launch)
    end = launch + max(duration + config["tail_ms"], 10.0)
    if config["second"] is not None:
        interval, offset, length, authenticated = config["second"]
        floods.append(
            FloodingAttack(
                "attacker-2", clock, channel, kind="cam_message",
                interval_ms=interval, duration_ms=length,
                keystore=scenario.keystore, authenticated=authenticated,
            )
        )
        floods[1].launch(offset)
    if config["jam"] is not None:
        at, length = config["jam"]
        JammingAttack("jammer", clock, channel, duration_ms=length).launch(
            launch + at * duration
        )
    trained = []
    with pytest.MonkeyPatch.context() as patch:
        records = _record_deliveries(channel, patch)
        if trains:
            send_train = Channel.send_train
            patch.setattr(
                Channel, "send_train",
                lambda self, times, *args: trained.append(len(times))
                or send_train(self, times, *args),
            )
        else:
            patch.setattr(Channel, "train_stop", lambda self, message: clock.now)
        if config["split"] is not None:
            clock.run_until(config["split"] * end)
        result = scenario.run(end)
    observed = (
        result,
        (clock._sequence, clock.pending, clock.now, scenario.bus.count("")),
        [
            (flood.messages_sent, flood.started_at, flood.ended_at)
            for flood in floods
        ],
    )
    return observed, records, sum(trained)


def _assert_trains_match(config: dict):
    """Run ``config`` with trains and per packet; require the same
    observations, and the per-packet record of every message the trains
    run delivers.  Returns the trains run's observations, both runs'
    record counts and the number of packets sent in trains."""
    trained, records, inline_packets = _run(config, trains=True)
    reference, reference_records, _none = _run(config, trains=False)
    assert trained[0] == reference[0]  # the whole ScenarioResult
    assert trained[1:] == reference[1:]
    for key, record in records.items():
        assert reference_records[key] == record
    return trained, len(records), len(reference_records), inline_packets


class TestTrainEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(config=_CONFIGS)
    def test_trains_match_the_per_packet_path(self, config):
        *_observed, inline_packets = _assert_trains_match(config)
        event(f"trains ran: {inline_packets > 0}")

    def test_a_blocked_flood_runs_as_trains(self):
        config = dict(
            fleet=False, fleet_size=1, attacker_position_m=None,
            detector=True, others={"sender-auth"}, interval_ms=0.2,
            chaotic=True, authenticated=True, launch_ms=100.0,
            duration_ms=1500.0, bandwidth_per_ms=4, jam=None, second=None,
            cooldown_ms=None, attach_twice=False, tail_ms=500.0, split=0.5,
            request_payload=True,
        )
        trained, built, reference_built, inline_packets = (
            _assert_trains_match(config)
        )
        assert inline_packets > 5000  # most of the ~7,500 packets
        # Few deferred packets are built and delivered one by one: the
        # first one due after each foreign event drains its followers.
        assert 10 < built < 500 < reference_built
        rows = trained[0].detection_records["OBU"]
        assert len(rows) > 5000
        assert [row[0] for row in rows] == sorted(row[0] for row in rows)

    def test_a_train_stops_at_another_floods_deferred_packets(self):
        """The first flood ends with a bandwidth backlog of deferred
        packets; the second, still running, trains behind them and
        must not deny them as its own."""
        config = dict(
            fleet=False, fleet_size=1, attacker_position_m=None,
            detector=True, others=set(), interval_ms=0.1, chaotic=False,
            authenticated=True, launch_ms=100.0, duration_ms=300.0,
            bandwidth_per_ms=2, jam=None, second=(0.5, 150.0, 1200.0, True),
            cooldown_ms=None, attach_twice=False, tail_ms=1500.0,
            split=None, request_payload=False,
        )
        *_observed, inline_packets = _assert_trains_match(config)
        assert inline_packets > 1000

    def test_a_drain_stops_at_another_floods_queued_packets(
        self, monkeypatch
    ):
        """Both floods end with a bandwidth backlog, their packets
        interleaved in the delivery lane; a deferred packet of the
        first, delivered on its own in the tail, drains its followers
        and must stop at the second flood's queued packets."""
        config = dict(
            fleet=False, fleet_size=1, attacker_position_m=None,
            detector=True, others=set(), interval_ms=0.1, chaotic=False,
            authenticated=True, launch_ms=100.0, duration_ms=300.0,
            bandwidth_per_ms=2, jam=None, second=(0.3, 150.0, 250.0, True),
            cooldown_ms=None, attach_twice=False, tail_ms=1500.0,
            split=None, request_payload=False,
        )
        stopped = []
        deny_due = Channel._deny_due

        def recording(self, kind, sender):
            if self._clock.now > 400.0:  # after both floods' last burst
                stop = self._train[0]
                stopped.append(
                    [
                        item.source.name if isinstance(item, Segment)
                        else item.sender
                        for due, _sequence, item in self._deliveries
                        if due == stop
                    ][:1] == ["attacker-2"]
                )
            deny_due(self, kind, sender)

        monkeypatch.setattr(Channel, "_deny_due", recording)
        *_observed, inline_packets = _assert_trains_match(config)
        assert inline_packets > 1000
        assert sum(stopped) > 10  # tail drains that end at the other flood


class TestFloodWorkGate:
    """Deterministic work gate, no timing: the full AD20 flood of
    ``uc1/parity/ad20`` (lean trace) runs mostly as trains, whose
    packets are mostly never built."""

    def test_ad20_event_and_admit_counts(self, monkeypatch):
        from repro.engine.campaign import execute_variant
        from repro.engine.registry import default_registry

        registry = default_registry()
        (ad20,) = (
            variant for variant in registry.variants()
            if variant.variant_id == "uc1/parity/ad20"
        )
        events = []
        admits = []
        builds = []
        run_until = SimClock.run_until
        admit = ControlPipeline.admit
        create_signed = Message.create_signed.__func__
        monkeypatch.setattr(
            SimClock, "run_until",
            lambda self, time: events.append(run_until(self, time))
            or events[-1],
        )
        monkeypatch.setattr(
            ControlPipeline, "admit",
            lambda self, message: admits.append(1) or admit(self, message),
        )
        monkeypatch.setattr(
            Message, "create_signed",
            classmethod(
                lambda cls, *args, **fields: builds.append(1)
                or create_signed(cls, *args, **fields)
            ),
        )
        outcome = execute_variant(ad20, registry)
        # The per-packet path executes 672,604 events and 319,593
        # admits; trains that build every packet make 350,161 builds.
        # Draining the flood's tail at delivery leaves 7,743 events,
        # 2,598 admits and 4,710 builds.
        assert sum(events) <= 10_000
        assert len(admits) <= 10_000
        assert len(builds) <= 10_000
        assert outcome.verdict == "ATTACK_FAILED"
        assert outcome.detections_of("OBU") == 319_146
        assert dict(outcome.detections_by_control) == {
            "OBU": (("flooding-detector", 319_146),)
        }
        assert outcome.stats["v2x"] == {
            "sent": 350_161, "delivered": 319_593, "dropped": 0,
            "out_of_range": 0, "mean_delay_ms": 17409.971200448057,
        }
        assert outcome.stats["obu"] == {
            "processed": 447, "rejected": 319_146, "overloaded": 0,
            "queued": 0, "backlog_ms": 0.0, "shut_down": False,
        }


def test_a_retained_detection_topic_keeps_the_per_packet_path(monkeypatch):
    """Every denial is a recorded event once its topic is retained."""
    scenario = ConstructionSiteScenario()
    scenario.bus.retain("control.detection")
    FloodingAttack(
        "attacker", scenario.clock, scenario.v2x, kind="cam_message",
        interval_ms=0.5, duration_ms=500.0, keystore=scenario.keystore,
    ).launch(100.0)
    monkeypatch.setattr(
        Channel, "send_train",
        lambda *args: pytest.fail("a train ran with denials retained"),
    )
    result = scenario.run(1000.0)
    assert result.detections_of("OBU") > 0
    assert len(scenario.bus.events("control.detection")) == (
        result.detections_of("OBU")
    )

