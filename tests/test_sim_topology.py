"""Unit tests for the spatial topology layer (actors, mobility, range)."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import EventBus
from repro.sim.network import Channel, InfiniteRange, Message
from repro.sim.topology import (
    Actor,
    ConstantSpeedMobility,
    FollowLeaderMobility,
    RangePropagation,
    SpatialIndex,
    StationaryMobility,
    Topology,
)
from repro.sim.vehicle import Vehicle
from repro.sim.world import World


@pytest.fixture
def world():
    return World(1000.0)


@pytest.fixture
def topology(world):
    return Topology(world, clock=SimClock())


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


class TestClampSaturation:
    def test_clamp_flags_offroad_positions(self, world):
        low = world.clamp(-5.0)
        high = world.clamp(1234.0)
        inside = world.clamp(500.0)
        assert (float(low), low.saturated) == (0.0, True)
        assert (float(high), high.saturated) == (1000.0, True)
        assert (float(inside), inside.saturated) == (500.0, False)

    def test_clamped_position_behaves_like_float(self, world):
        clamped = world.clamp(1234.0)
        assert clamped == 1000.0
        assert clamped + 1 == 1001.0

    def test_clamped_position_survives_pickle_and_deepcopy(self, world):
        import copy
        import pickle

        clamped = world.clamp(1234.0)
        for clone in (pickle.loads(pickle.dumps(clamped)),
                      copy.deepcopy(clamped)):
            assert float(clone) == 1000.0
            assert clone.saturated is True

    def test_place_validates(self, world):
        assert world.place(0.0) == 0.0
        assert world.place(1000.0) == 1000.0
        with pytest.raises(SimulationError):
            world.place(-0.1)
        with pytest.raises(SimulationError):
            world.place(1000.1)

    def test_topology_records_saturated_actors(self, world):
        clock = SimClock()
        topology = Topology(world, clock=clock, tick_ms=100.0)
        topology.add_mobile("fast", 990.0, ConstantSpeedMobility(200.0))
        clock.run_until(1000.0)
        assert topology.position_of("fast") == 1000.0
        assert topology.saturated_actors == ("fast",)

    def test_vehicle_saturation_flag(self, world):
        clock, bus = SimClock(), EventBus()
        vehicle = Vehicle("ego", clock, bus, world, position_m=990.0,
                          speed_mps=50.0)
        assert vehicle.position_saturated is False
        clock.run_until(2000.0)
        assert vehicle.position_m == world.road_length_m
        assert vehicle.position_saturated is True


class TestMobilityModels:
    def test_stationary_never_moves(self, world):
        clock = SimClock()
        topology = Topology(world, clock=clock)
        topology.add_mobile("rsu", 300.0, StationaryMobility())
        clock.run_until(5000.0)
        assert topology.position_of("rsu") == 300.0

    def test_constant_speed_advances_linearly(self, world):
        clock = SimClock()
        topology = Topology(world, clock=clock, tick_ms=100.0)
        topology.add_mobile("car", 0.0, ConstantSpeedMobility(10.0))
        clock.run_until(1000.0)
        assert topology.position_of("car") == pytest.approx(10.0)

    def test_follow_leader_holds_gap(self, world):
        clock = SimClock()
        topology = Topology(world, clock=clock, tick_ms=100.0)
        topology.add_mobile("lead", 200.0, ConstantSpeedMobility(10.0))
        topology.add_mobile(
            "tail", 0.0, FollowLeaderMobility("lead", gap_m=50.0,
                                              max_speed_mps=30.0)
        )
        clock.run_until(20000.0)
        gap = topology.position_of("lead") - topology.position_of("tail")
        assert gap == pytest.approx(50.0, abs=3.5)

    def test_follower_never_reverses(self, world):
        clock = SimClock()
        topology = Topology(world, clock=clock, tick_ms=100.0)
        topology.add_mobile("lead", 10.0, StationaryMobility())
        topology.add_mobile(
            "tail", 40.0, FollowLeaderMobility("lead", gap_m=50.0)
        )
        clock.run_until(3000.0)
        assert topology.position_of("tail") == 40.0

    def test_mobile_actor_added_mid_run_steps_one_period_later(self, world):
        clock = SimClock()
        topology = Topology(world, clock=clock, tick_ms=100.0)
        clock.run_until(250.0)
        topology.add_mobile("car", 0.0, ConstantSpeedMobility(10.0))
        clock.run_until(349.0)
        assert topology.position_of("car") == 0.0
        clock.run_until(350.0)
        assert topology.position_of("car") == pytest.approx(1.0)

    def test_mobile_actor_without_clock_rejected(self, world):
        topology = Topology(world)  # no clock
        with pytest.raises(SimulationError, match="no clock"):
            topology.add_mobile("car", 0.0, ConstantSpeedMobility(5.0))


class TestSpatialIndex:
    def test_within_is_inclusive_and_distance_ordered(self):
        index = SpatialIndex([(0.0, "a"), (10.0, "b"), (20.0, "c"),
                              (30.0, "d")])
        assert index.within(10.0, 10.0) == ("b", "a", "c")
        assert index.within(10.0, 9.99) == ("b",)
        assert index.within(100.0, 5.0) == ()

    def test_coincident_actors_order_by_name(self):
        index = SpatialIndex([(5.0, "z"), (5.0, "a")])
        assert index.within(5.0, 0.0) == ("a", "z")

    def test_nearest(self):
        index = SpatialIndex([(0.0, "a"), (10.0, "b"), (20.0, "c")])
        assert index.nearest(12.0, count=2) == ("b", "c")

    def test_negative_radius_rejected(self):
        with pytest.raises(SimulationError):
            SpatialIndex([]).within(0.0, -1.0)

    def test_topology_neighbors(self, topology):
        topology.add_stationary("a", 0.0, transmit_range_m=15.0)
        topology.add_stationary("b", 10.0)
        topology.add_stationary("c", 100.0)
        assert topology.neighbors("a") == ("b",)
        assert topology.neighbors("a", range_m=200.0) == ("b", "c")


class TestRangePropagation:
    def _channel(self, topology, latency_ms=0.0):
        clock = topology._clock
        return (
            clock,
            Channel(
                "radio",
                clock,
                EventBus(),
                latency_ms=latency_ms,
                propagation=RangePropagation(topology),
            ),
        )

    def test_delivery_gated_by_sender_range(self, topology):
        topology.add_stationary("tx", 0.0, transmit_range_m=100.0)
        near, far = Sink("near"), Sink("far")
        topology.add_stationary("near", 100.0)  # boundary: inclusive
        topology.add_stationary("far", 100.5)
        clock, channel = self._channel(topology)
        channel.attach(near)
        channel.attach(far)
        channel.send(Message(kind="k", sender="tx", payload={}))
        clock.run()
        assert len(near.messages) == 1
        assert len(far.messages) == 0
        assert channel.stats["out_of_range"] == 1

    def test_unknown_sender_broadcasts_globally(self, topology):
        topology.add_stationary("rx", 900.0)
        sink = Sink("rx")
        clock, channel = self._channel(topology)
        channel.attach(sink)
        channel.send(Message(kind="k", sender="ghost", payload={}))
        clock.run()
        assert len(sink.messages) == 1

    def test_unplaced_receiver_hears_everything(self, topology):
        topology.add_stationary("tx", 0.0, transmit_range_m=10.0)
        observer = Sink("observer")  # never placed in the topology
        clock, channel = self._channel(topology)
        channel.attach(observer)
        channel.send(Message(kind="k", sender="tx", payload={}))
        clock.run()
        assert len(observer.messages) == 1

    def test_membership_evaluated_at_delivery_time(self, world):
        clock = SimClock()
        topology = Topology(world, clock=clock, tick_ms=100.0)
        topology.add_stationary("tx", 0.0, transmit_range_m=50.0)
        topology.add_mobile("rx", 40.0, ConstantSpeedMobility(100.0))
        sink = Sink("rx")
        channel = Channel(
            "radio", clock, EventBus(), latency_ms=500.0,
            propagation=RangePropagation(topology),
        )
        channel.attach(sink)
        # In range at send time (40 m), out of range at delivery time
        # (40 + 0.1 s ticks * 100 m/s => 90 m by t=500 ms > 50 m range).
        channel.send(Message(kind="k", sender="tx", payload={}))
        clock.run_until(1000.0)
        assert sink.messages == []

    def test_mid_tick_query_leaves_no_stale_memo(self, world):
        """A zone-entry subscriber resolves a delivery set during a
        convoy tick; a vehicle ticked after it then crosses the range
        boundary, and the next query sees the new position."""
        clock, bus = SimClock(), EventBus()
        world.add_zone("site", 41.0, 50.0)
        topology = Topology(world, clock=clock)
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

    def test_known_actor_without_range_transmits_unlimited(self, topology):
        # Consistent with Topology.in_range: None means unlimited, even
        # for actors the topology knows.
        topology.add_stationary("tx", 0.0, transmit_range_m=None)
        sink = Sink("rx")
        topology.add_stationary("rx", 999.0)
        clock, channel = self._channel(topology)
        channel.attach(sink)
        channel.send(Message(kind="k", sender="tx", payload={}))
        clock.run()
        assert len(sink.messages) == 1
        assert topology.in_range("tx", "rx")

    def test_infinite_range_model_delivers_to_all(self, topology):
        clock = topology._clock
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
