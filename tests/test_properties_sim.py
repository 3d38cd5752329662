"""Property-based tests on the simulator substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.can import CanBus, make_frame
from repro.sim.clock import SimClock
from repro.sim.events import TRACE_MODES, EventBus, TopicProbe
from repro.sim.network import Channel, Message
from repro.threatlib.builder import ThreatLibraryBuilder
from repro.model.asset import Asset, AssetGroup
from repro.model.scenario import Scenario
from repro.model.threat import StrideType


class TestCanArbitrationProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=0x7FF),
            min_size=2,
            max_size=20,
        )
    )
    def test_pending_frames_deliver_in_priority_order(self, can_ids):
        """Frames enqueued while the bus is busy always deliver lowest
        CAN id first (ties by arrival)."""
        clock, bus = SimClock(), EventBus()
        can = CanBus("c", clock, bus, frame_time_ms=1.0, queue_capacity=64)
        delivered = []

        class Sniffer:
            name = "sniffer"

            def receive(self, frame):
                delivered.append(frame.payload["can_id"])

        can.attach(Sniffer())
        for can_id in can_ids:
            can.send(make_frame("s", can_id))
        clock.run()
        assert len(delivered) == len(can_ids)
        # Everything after the first frame was arbitrated: sorted order.
        assert delivered[1:] == sorted(delivered[1:])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=50))
    def test_no_frames_lost_below_capacity(self, count):
        clock, bus = SimClock(), EventBus()
        can = CanBus("c", clock, bus, frame_time_ms=0.5, queue_capacity=64)
        received = []

        class Sniffer:
            name = "sniffer"

            def receive(self, frame):
                received.append(frame)

        can.attach(Sniffer())
        for index in range(count):
            can.send(make_frame("s", index))
        clock.run()
        assert len(received) == count
        assert can.stats["lost"] == 0


#: A small topic tree.  "a.bc" shares a string prefix with "a.b" but no
#: segment, so a registration under "a.b" must leave it alone.
_TOPICS = ("a", "a.b", "a.b.c", "a.bc", "d", "d.e")
_PREFIXES = ("",) + _TOPICS
_BUS_STEPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("subscribe", "retain")),
                  st.sampled_from(_PREFIXES)),
        st.tuples(st.sampled_from(("probe", "direct-probe", "publish")),
                  st.sampled_from(_TOPICS)),
    ),
    max_size=30,
)


def _retained(bus, topic, event):
    """True when ``event`` was kept in ``bus``'s trace."""
    if event is None:
        return False
    try:
        events = bus.events(topic)
    except SimulationError:  # counts mode, topic outside the retained set
        return False
    return bool(events) and events[-1] is event


class TestIncrementalInvalidationProperty:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(TRACE_MODES), _BUS_STEPS)
    def test_bus_answers_like_a_fresh_bus(self, mode, steps):
        """After any interleaving of registrations, probes and publishes,
        every probe, dispatch order and retention bit matches a bus given
        only the same registrations."""
        bus = EventBus(mode)
        registrations = []  # (kind, prefix), in registration order
        probes = []
        calls = []

        def fresh_bus(log):
            fresh = EventBus(mode)
            for index, (kind, prefix) in enumerate(registrations):
                if kind == "subscribe":
                    fresh.subscribe(prefix, lambda e, i=index: log.append(i))
                else:
                    fresh.retain(prefix)
            return fresh

        for kind, topic in steps:
            if kind == "subscribe":
                index = len(registrations)
                bus.subscribe(topic, lambda e, i=index: calls.append(i))
                registrations.append((kind, topic))
            elif kind == "retain":
                bus.retain(topic)
                registrations.append((kind, topic))
            elif kind == "probe":
                probes.append(bus.probe(topic))
            elif kind == "direct-probe":
                probes.append(TopicProbe(bus, topic))
            else:
                fresh_calls = []
                fresh = fresh_bus(fresh_calls)
                calls.clear()
                event = bus.publish(1.0, topic, "s")
                fresh_event = fresh.publish(1.0, topic, "s")
                assert calls == fresh_calls
                assert _retained(bus, topic, event) == _retained(
                    fresh, topic, fresh_event
                )
            fresh = fresh_bus([])
            for probe in probes:
                assert probe.active == fresh.wants(probe.topic), probe.topic


class TestChannelCongestionProperty:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=40))
    def test_all_messages_eventually_delivered(self, count):
        """Congestion delays but never drops (absent jamming)."""
        clock, bus = SimClock(), EventBus()
        channel = Channel(
            "c", clock, bus, latency_ms=1.0, bandwidth_per_ms=0.5
        )
        received = []

        class Sink:
            name = "sink"

            def receive(self, message):
                received.append((clock.now, message))

        channel.attach(Sink())
        for index in range(count):
            channel.send(
                Message(kind="k", sender="s", payload={"i": index})
            )
        clock.run()
        assert len(received) == count
        times = [time for time, __ in received]
        assert times == sorted(times)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=2, max_value=30),
        st.floats(min_value=0.1, max_value=4.0),
    )
    def test_mean_delay_grows_with_load(self, count, bandwidth):
        """Sending the same burst through a slower channel never lowers
        the mean delivery delay."""

        def mean_delay(width):
            clock, bus = SimClock(), EventBus()
            channel = Channel(
                "c", clock, bus, latency_ms=1.0, bandwidth_per_ms=width
            )
            for __ in range(count):
                channel.send(Message(kind="k", sender="s", payload={}))
            clock.run()
            return channel.stats["mean_delay_ms"]

        assert mean_delay(bandwidth) >= mean_delay(bandwidth * 2) - 1e-9


class TestBuilderIdProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),   # scenario index
                st.integers(min_value=0, max_value=2),   # asset index
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_dotted_ids_are_unique_and_well_formed(self, placements):
        builder = ThreatLibraryBuilder("prop")
        scenarios = [Scenario(name=f"S{i}") for i in range(3)]
        for scenario in scenarios:
            builder.identify_scenario(scenario)
        assets = [
            Asset.of(f"A{i}", AssetGroup.HARDWARE) for i in range(3)
        ]
        identified: set[tuple[int, int]] = set()
        produced = []
        for scenario_index, asset_index in placements:
            key = (scenario_index, asset_index)
            if key not in identified:
                builder.identify_asset(
                    scenarios[scenario_index].name, assets[asset_index]
                )
                identified.add(key)
            threat = builder.identify_threat(
                scenarios[scenario_index].name,
                assets[asset_index].name,
                "flooding attack on the asset",
                stride=(StrideType.DENIAL_OF_SERVICE,),
            )
            produced.append(threat.identifier)
        assert len(set(produced)) == len(produced)
        for identifier in produced:
            parts = identifier.split(".")
            assert len(parts) == 3
            assert all(part.isdigit() and int(part) >= 1 for part in parts)
