"""Unit tests for the topology layer (actors, tracking, range gating)."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import EventBus
from repro.sim.network import Channel, InfiniteRange, Message
from repro.sim.topology import Actor, RangePropagation, Topology
from repro.sim.vehicle import Vehicle
from repro.sim.world import World


@pytest.fixture
def world():
    return World(1000.0)


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def topology(world):
    return Topology(world)


class Sink:
    def __init__(self, name):
        self.name = name
        self.messages = []

    def receive(self, message):
        self.messages.append(message)


class TestActorPlacement:
    def test_negative_placement_rejected(self):
        with pytest.raises(SimulationError, match="negative placement"):
            Actor("a", position_m=-1.0)

    def test_beyond_road_placement_rejected(self, topology):
        with pytest.raises(SimulationError, match="beyond the road end"):
            topology.add_stationary("rsu", 1500.0)

    def test_duplicate_names_rejected(self, topology):
        topology.add_stationary("rsu", 100.0)
        with pytest.raises(SimulationError, match="already registered"):
            topology.add_stationary("rsu", 200.0)

    def test_vehicle_negative_placement_rejected(self, world):
        clock, bus = SimClock(), EventBus()
        with pytest.raises(SimulationError, match="negative placement"):
            Vehicle("ego", clock, bus, world, position_m=-5.0)

    def test_vehicle_beyond_road_placement_rejected(self, world):
        clock, bus = SimClock(), EventBus()
        with pytest.raises(SimulationError, match="beyond the road end"):
            Vehicle("ego", clock, bus, world, position_m=2000.0)

    def test_tracked_actor_follows_component(self, world, topology):
        clock, bus = SimClock(), EventBus()
        vehicle = Vehicle("ego", clock, bus, world, position_m=10.0)
        actor = topology.track(vehicle, transmit_range_m=50.0)
        vehicle.position_m = 222.5
        assert actor.position_m == 222.5
        with pytest.raises(SimulationError, match="tracked"):
            actor.position_m = 0.0

    def test_bind_resolves_alias(self, topology):
        topology.add_stationary("rsu", 100.0)
        topology.bind("antenna", "rsu")
        assert topology.position_of("antenna") == 100.0
        with pytest.raises(SimulationError, match="unknown actor"):
            topology.bind("x", "nope")
        with pytest.raises(SimulationError, match="already registered"):
            topology.bind("rsu", "rsu")

    def test_bind_to_an_alias_resolves_to_its_actor(self, topology):
        topology.add_stationary("ego", 100.0, transmit_range_m=50.0)
        topology.bind("OBU", "ego")
        topology.bind("OBU-alias", "OBU")
        assert topology.knows("OBU-alias")
        assert topology.actor("OBU-alias") is topology.actor("ego")
        assert topology.position_of("OBU-alias") == 100.0
        assert topology.in_range("OBU-alias", "ego")

    def test_track_requires_motion_listener_hook(self, topology):
        class Parked:
            name = "parked"
            position_m = 10.0

        with pytest.raises(SimulationError, match="add_motion_listener"):
            topology.track(Parked())
        assert not topology.knows("parked")

    def test_track_requires_a_position_cell(self, topology):
        class Listening:
            name = "listening"
            position_m = 10.0

            def add_motion_listener(self, listener):
                raise AssertionError("subscribed before the check")

        with pytest.raises(SimulationError, match="position_cell"):
            topology.track(Listening())
        assert not topology.knows("listening")

    def test_failed_track_subscribes_nothing(self, world, topology):
        clock, bus = SimClock(), EventBus()
        topology.add_stationary("ego", 0.0)
        vehicle = Vehicle("ego", clock, bus, world, position_m=10.0)
        with pytest.raises(SimulationError, match="already registered"):
            topology.track(vehicle)
        assert vehicle._motion_listeners == {}

    @pytest.mark.parametrize(
        "value, match",
        [
            (-50.0, "negative placement"),
            (5000.0, "beyond the road end"),
            (float("nan"), "NaN"),
        ],
    )
    def test_stationary_write_is_validated_like_a_placement(
        self, topology, value, match
    ):
        """A setter write off the road (or NaN) raises and changes
        neither the position nor the position era."""
        actor = topology.add_stationary("rsu", 100.0)
        version = topology.position_version
        with pytest.raises(SimulationError, match=match):
            actor.position_m = value
        assert actor.position_m == 100.0
        assert topology.position_of("rsu") == 100.0
        assert topology.position_version == version

    def test_empty_name_rejected(self):
        with pytest.raises(SimulationError, match="needs a name"):
            Actor("")

    def test_negative_transmit_range_rejected(self):
        with pytest.raises(SimulationError, match="transmit range"):
            Actor("rsu", position_m=10.0, transmit_range_m=-1.0)

    @pytest.mark.parametrize("value", [-50.0, 5000.0, float("nan")])
    def test_tracked_vehicle_write_is_validated_like_a_placement(
        self, world, topology, value
    ):
        """The tracked vehicle's own setter rejects what the actor
        setter rejects; an unchecked NaN made the column query and the
        scan disagree on who is in range."""
        vehicle = Vehicle("ego", SimClock(), EventBus(), world,
                          position_m=100.0)
        topology.track(vehicle)
        version = topology.position_version
        with pytest.raises(SimulationError):
            vehicle.position_m = value
        assert vehicle.position_m == 100.0
        assert topology.position_version == version

    def test_nan_transmit_range_rejected(self):
        with pytest.raises(SimulationError, match="transmit range"):
            Actor("rsu", position_m=10.0, transmit_range_m=float("nan"))

    def test_unknown_name_lookup_raises(self, topology):
        assert not topology.knows("ghost")
        with pytest.raises(SimulationError, match="unknown actor"):
            topology.actor("ghost")
        with pytest.raises(SimulationError, match="unknown actor"):
            topology.position_of("ghost")


class TestClampSaturation:
    def test_place_validates(self, world):
        assert world.place(0.0) == 0.0
        assert world.place(1000.0) == 1000.0
        with pytest.raises(SimulationError):
            world.place(-0.1)
        with pytest.raises(SimulationError):
            world.place(1000.1)
        with pytest.raises(SimulationError, match="NaN"):
            world.place(float("nan"))

    def test_vehicle_saturation_flag(self, world):
        clock, bus = SimClock(), EventBus()
        vehicle = Vehicle("ego", clock, bus, world, position_m=990.0,
                          speed_mps=50.0)
        assert vehicle.position_saturated is False
        clock.run_until(2000.0)
        assert vehicle.position_m == world.road_length_m
        assert vehicle.position_saturated is True


class TestVersionCounters:
    def _convoy(self, world, topology, speed_mps):
        clock, bus = SimClock(), EventBus()
        for index in range(3):
            topology.track(
                Vehicle(f"ego-{index}", clock, bus, world,
                        position_m=100.0 * index, speed_mps=speed_mps)
            )
        return clock

    def test_convoy_tick_is_one_position_era(self, world, topology):
        clock = self._convoy(world, topology, speed_mps=10.0)
        before = topology.position_version
        clock.run_until(100.0)
        assert topology.position_version == before + 1
        clock.run_until(300.0)
        assert topology.position_version == before + 3
        assert topology.position_of("ego-2") == pytest.approx(203.0)

    def test_standing_convoy_opens_no_era(self, world, topology):
        clock = self._convoy(world, topology, speed_mps=0.0)
        before = topology.position_version
        clock.run_until(500.0)
        assert topology.position_version == before

    def test_setter_write_opens_an_era(self, topology):
        actor = topology.add_stationary("rsu", 100.0)
        before = topology.position_version
        actor.position_m = 150.0
        assert topology.position_version == before + 1
        assert topology.position_of("rsu") == 150.0

    def test_registration_version_counts_adds_and_binds(self, topology):
        before = topology.registration_version
        topology.add_stationary("rsu", 100.0)
        topology.bind("antenna", "rsu")
        assert topology.registration_version == before + 2
        with pytest.raises(SimulationError):
            topology.bind("antenna", "rsu")
        assert topology.registration_version == before + 2

    def test_distance_reads_aliases_and_tracked_positions(self, world,
                                                          topology):
        clock = self._convoy(world, topology, speed_mps=10.0)
        topology.bind("OBU-0", "ego-0")
        topology.add_stationary("rsu", 500.0, transmit_range_m=400.0)
        assert topology.distance_m("OBU-0", "rsu") == 500.0
        assert not topology.in_range("rsu", "OBU-0")
        clock.run_until(10000.0)  # 10 s at 10 m/s: 100 m further on
        assert topology.distance_m("OBU-0", "rsu") == pytest.approx(400.0)
        assert topology.in_range("rsu", "OBU-0")


class TestRangePropagation:
    def _channel(self, clock, topology):
        return Channel(
            "radio", clock, EventBus(), propagation=RangePropagation(topology)
        )

    def test_delivery_gated_by_sender_range(self, clock, topology):
        topology.add_stationary("tx", 0.0, transmit_range_m=100.0)
        near, far = Sink("near"), Sink("far")
        topology.add_stationary("near", 100.0)  # boundary: inclusive
        topology.add_stationary("far", 100.5)
        channel = self._channel(clock, topology)
        channel.attach(near)
        channel.attach(far)
        channel.send(Message(kind="k", sender="tx", payload={}))
        clock.run()
        assert len(near.messages) == 1
        assert len(far.messages) == 0
        assert channel.stats["out_of_range"] == 1

    def test_unknown_sender_broadcasts_globally(self, clock, topology):
        topology.add_stationary("rx", 900.0)
        sink = Sink("rx")
        channel = self._channel(clock, topology)
        channel.attach(sink)
        channel.send(Message(kind="k", sender="ghost", payload={}))
        clock.run()
        assert len(sink.messages) == 1

    def test_unplaced_receiver_hears_everything(self, clock, topology):
        topology.add_stationary("tx", 0.0, transmit_range_m=10.0)
        observer = Sink("observer")  # never placed in the topology
        channel = self._channel(clock, topology)
        channel.attach(observer)
        channel.send(Message(kind="k", sender="tx", payload={}))
        clock.run()
        assert len(observer.messages) == 1

    def test_membership_evaluated_at_delivery_time(self, world):
        clock, bus = SimClock(), EventBus()
        topology = Topology(world)
        topology.add_stationary("tx", 0.0, transmit_range_m=50.0)
        # The receiver moves on its own cohort tick.
        topology.track(
            Vehicle("rx", clock, bus, world, position_m=40.0,
                    speed_mps=100.0)
        )
        sink = Sink("rx")
        channel = Channel(
            "radio", clock, EventBus(), latency_ms=500.0,
            propagation=RangePropagation(topology),
        )
        channel.attach(sink)
        # In range at send time (40 m), out of range at delivery time
        # (40 + 0.1 s ticks * 100 m/s => 90 m by t=500 ms > 50 m range).
        assert topology.in_range("tx", "rx")
        channel.send(Message(kind="k", sender="tx", payload={}))
        clock.run_until(1000.0)
        assert sink.messages == []

    def test_mid_tick_query_leaves_no_stale_memo(self, world):
        """A zone-entry subscriber resolves a delivery set during a
        convoy tick; a vehicle ticked after it then crosses the range
        boundary, and the next query sees the new position."""
        clock, bus = SimClock(), EventBus()
        world.add_zone("site", 41.0, 50.0)
        topology = Topology(world)
        topology.add_stationary("rsu", 0.0, transmit_range_m=100.0)
        lead = Vehicle("lead", clock, bus, world, position_m=40.0,
                       speed_mps=20.0)
        tail = Vehicle("tail", clock, bus, world, position_m=99.0,
                       speed_mps=20.0)
        topology.track(lead)
        topology.track(tail)
        propagation = RangePropagation(topology)
        receivers = [Sink("lead"), Sink("tail")]
        message = Message(kind="k", sender="rsu", payload={})

        def reached():
            return [
                r.name for r in propagation.receivers(message, receivers)
            ]

        during = []
        bus.subscribe(
            "vehicle.entered_zone", lambda event: during.append(reached())
        )
        clock.run_until(100.0)  # lead 40 -> 42 (enters), tail 99 -> 101
        assert during == [["lead", "tail"]]
        assert reached() == ["lead"]

    def test_same_era_replays_the_cached_set(self, topology):
        topology.add_stationary("tx", 0.0, transmit_range_m=100.0)
        topology.add_stationary("rx", 50.0)
        propagation = RangePropagation(topology)
        receivers = [Sink("rx")]
        message = Message(kind="k", sender="tx", payload={})
        first = propagation.receivers(message, receivers)
        assert [r.name for r in first] == ["rx"]
        assert propagation.receivers(message, receivers) is first

    def test_range_change_resolves_afresh(self, topology):
        tx = topology.add_stationary("tx", 0.0, transmit_range_m=100.0)
        topology.add_stationary("rx", 50.0)
        propagation = RangePropagation(topology)
        receivers = [Sink("rx")]
        message = Message(kind="k", sender="tx", payload={})
        assert len(propagation.receivers(message, receivers)) == 1
        tx.transmit_range_m = 10.0
        assert propagation.receivers(message, receivers) == []

    def test_late_registration_places_an_observer(self, topology):
        """An attached receiver unknown to the topology hears everything
        until it is placed; placing it re-resolves the channel view."""
        topology.add_stationary("tx", 0.0, transmit_range_m=100.0)
        propagation = RangePropagation(topology)
        receivers = [Sink("late")]
        message = Message(kind="k", sender="tx", payload={})
        assert len(propagation.receivers(message, receivers)) == 1
        topology.add_stationary("late", 900.0)
        assert propagation.receivers(message, receivers) == []

    def test_alias_sender_gates_with_its_carrier_range(self, world, topology):
        clock, bus = SimClock(), EventBus()
        topology.track(
            Vehicle("ego-1", clock, bus, world, position_m=0.0),
            transmit_range_m=100.0,
        )
        topology.bind("relay-1", "ego-1")
        topology.add_stationary("near", 100.0)
        topology.add_stationary("far", 101.0)
        propagation = RangePropagation(topology)
        receivers = [Sink("near"), Sink("far")]
        message = Message(kind="k", sender="relay-1", payload={})
        assert [r.name for r in propagation.receivers(message, receivers)] == [
            "near"
        ]

    def test_setter_move_of_a_tracked_vehicle_drops_the_memo(self, world,
                                                             topology):
        clock, bus = SimClock(), EventBus()
        topology.add_stationary("rsu", 0.0, transmit_range_m=100.0)
        vehicle = Vehicle("ego", clock, bus, world, position_m=50.0)
        topology.track(vehicle)
        propagation = RangePropagation(topology)
        receivers = [Sink("ego")]
        message = Message(kind="k", sender="rsu", payload={})
        assert len(propagation.receivers(message, receivers)) == 1
        vehicle.position_m = 500.0
        assert propagation.receivers(message, receivers) == []

    def test_replaced_attach_lists_leave_no_view(self, clock, topology):
        """Detach and attach replace the channel's attach lists; the
        model keeps a view only of the lists the channel still holds."""
        topology.add_stationary("tx", 0.0, transmit_range_m=500.0)
        propagation = RangePropagation(topology)
        channel = Channel(
            "radio", clock, EventBus(), propagation=propagation
        )
        sinks = [Sink(f"rx-{index}") for index in range(3)]
        for index, sink in enumerate(sinks):
            topology.add_stationary(sink.name, 100.0 * index)
            # A kind-limited receiver: deliveries go through kind views.
            channel.attach(sink, kinds=("k",) if index == 0 else None)

        def deliver():
            for kind in ("k", "other"):
                channel.send(Message(kind=kind, sender="tx", payload={}))
            clock.run()

        deliver()
        for _cycle in range(5):
            channel.detach(sinks[1])
            deliver()
            channel.attach(sinks[1])
            deliver()
        held = [channel._receivers, *channel._kind_views.values()]
        assert len(propagation._views) <= len(held)
        assert {id(view.receivers) for view in propagation._views.values()} <= {
            id(receivers) for receivers in held
        }
        assert len(sinks[1].messages) == 12  # every delivery with it on air

    def test_known_actor_without_range_transmits_unlimited(self, clock, topology):
        # Consistent with Topology.in_range: None means unlimited, even
        # for actors the topology knows.
        topology.add_stationary("tx", 0.0, transmit_range_m=None)
        sink = Sink("rx")
        topology.add_stationary("rx", 999.0)
        channel = self._channel(clock, topology)
        channel.attach(sink)
        channel.send(Message(kind="k", sender="tx", payload={}))
        clock.run()
        assert len(sink.messages) == 1
        assert topology.in_range("tx", "rx")

    def test_infinite_range_model_delivers_to_all(self, clock):
        channel = Channel(
            "radio", clock, EventBus(), propagation=InfiniteRange()
        )
        sinks = [Sink(f"s{i}") for i in range(3)]
        for sink in sinks:
            channel.attach(sink)
        channel.send(Message(kind="k", sender="anyone", payload={}))
        clock.run()
        assert all(len(sink.messages) == 1 for sink in sinks)
        assert channel.stats["out_of_range"] == 0
