"""Property-based tests on the spatial topology layer.

Three contracts the fleet scenario families lean on:

* **mobility determinism** -- identically configured topologies stepped
  under identical clocks produce bit-identical trajectories (seeded
  campaign reproducibility needs nothing less);
* **range symmetry** -- with equal transmit ranges, A hears B exactly
  when B hears A (the inclusive boundary cannot break symmetry);
* **InfiniteRange == legacy broadcast** -- a channel carrying the
  explicit :class:`~repro.sim.network.InfiniteRange` model delivers the
  same messages, at the same times, to the same receivers as a channel
  constructed the pre-topology way; and on the AD08/AD20 parity
  variants the two spellings produce identical verdicts.
* **spatial queries** -- ``SpatialIndex.within``/``nearest`` are
  pinned against a brute-force ``(distance, name)`` oracle, so the tie
  order for coincident actors is part of the contract, and batched
  range propagation matches a per-delivery membership check.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.campaign import execute_variant
from repro.engine.registry import default_registry
from repro.sim.clock import SimClock
from repro.sim.events import EventBus
from repro.sim.network import Channel, InfiniteRange, Message
from repro.sim.topology import (
    ConstantSpeedMobility,
    FollowLeaderMobility,
    RangePropagation,
    SpatialIndex,
    Topology,
)
from repro.sim.world import World

positions = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
ranges = st.floats(min_value=0.0, max_value=1500.0, allow_nan=False)
speeds = st.floats(min_value=-40.0, max_value=40.0, allow_nan=False)


class TestMobilityDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(positions, speeds), min_size=1, max_size=6
        ),
        st.integers(min_value=1, max_value=40),
    )
    def test_identical_configs_produce_identical_trajectories(
        self, placements, ticks
    ):
        def run() -> list[float]:
            clock = SimClock()
            world = World(2000.0)
            topology = Topology(world, clock=clock, tick_ms=100.0)
            for index, (position, speed) in enumerate(placements):
                topology.add_mobile(
                    f"car-{index}", position, ConstantSpeedMobility(speed)
                )
            clock.run_until(ticks * 100.0)
            return [actor.position_m for actor in topology.actors]

        assert run() == run()

    @settings(max_examples=25, deadline=None)
    @given(positions, positions, st.integers(min_value=1, max_value=30))
    def test_follow_leader_is_deterministic(self, lead, tail, ticks):
        def run() -> tuple[float, float]:
            clock = SimClock()
            topology = Topology(World(2000.0), clock=clock, tick_ms=100.0)
            topology.add_mobile("lead", lead, ConstantSpeedMobility(15.0))
            topology.add_mobile(
                "tail", tail, FollowLeaderMobility("lead", gap_m=30.0)
            )
            clock.run_until(ticks * 100.0)
            return (topology.position_of("lead"), topology.position_of("tail"))

        assert run() == run()


class TestRangeSymmetry:
    @settings(max_examples=60, deadline=None)
    @given(positions, positions, ranges)
    def test_equal_ranges_hear_symmetrically(self, pos_a, pos_b, range_m):
        topology = Topology(World(1000.0))
        topology.add_stationary("a", pos_a, transmit_range_m=range_m)
        topology.add_stationary("b", pos_b, transmit_range_m=range_m)
        assert topology.in_range("a", "b") == topology.in_range("b", "a")

    @settings(max_examples=40, deadline=None)
    @given(positions, positions, ranges)
    def test_propagation_delivery_is_symmetric(self, pos_a, pos_b, range_m):
        clock = SimClock()
        topology = Topology(World(1000.0), clock=clock)
        topology.add_stationary("a", pos_a, transmit_range_m=range_m)
        topology.add_stationary("b", pos_b, transmit_range_m=range_m)
        channel = Channel(
            "radio", clock, EventBus(), propagation=RangePropagation(topology)
        )
        heard: dict[str, list] = {"a": [], "b": []}

        class Ear:
            def __init__(self, name):
                self.name = name

            def receive(self, message):
                if message.sender != self.name:
                    heard[self.name].append(message)

        channel.attach(Ear("a"))
        channel.attach(Ear("b"))
        channel.send(Message(kind="k", sender="a", payload={}))
        channel.send(Message(kind="k", sender="b", payload={}))
        clock.run()
        assert len(heard["a"]) == len(heard["b"])


# Quantised positions make coincident actors (and therefore name
# tie-breaks) common instead of measure-zero.
_quantised = st.integers(min_value=0, max_value=120).map(lambda n: n * 7.5)
_fleets = st.lists(_quantised, min_size=1, max_size=40).map(
    lambda ps: [(p, f"v{i:02d}") for i, p in enumerate(ps)]
)


class TestSpatialEngineParity:
    @settings(max_examples=60, deadline=None)
    @given(
        _fleets,
        st.floats(min_value=-50.0, max_value=950.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
    )
    def test_within_matches_brute_force_on_both_engines(
        self, entries, center, radius
    ):
        ranked = sorted((abs(p - center), n) for p, n in entries)
        expected = tuple(
            name for distance, name in ranked if distance <= radius
        )
        assert SpatialIndex(entries).within(center, radius) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        _fleets,
        st.floats(min_value=-50.0, max_value=950.0, allow_nan=False),
        st.integers(min_value=0, max_value=45),
    )
    def test_nearest_matches_brute_force_on_both_engines(
        self, entries, center, count
    ):
        ranked = sorted((abs(p - center), n) for p, n in entries)
        expected = tuple(name for _d, name in ranked[:count])
        assert SpatialIndex(entries).nearest(center, count) == expected

    def test_coincident_tie_order_pinned_on_both_engines(self):
        """(distance, name) order for coincident actors is contract,
        not accident."""
        index = SpatialIndex([(5.0, "z"), (5.0, "a"), (5.0, "m"), (7.0, "b")])
        assert index.within(5.0, 0.0) == ("a", "m", "z")
        assert index.within(5.0, 2.0) == ("a", "m", "z", "b")
        assert index.nearest(5.0, 3) == ("a", "m", "z")


class _Ear:
    """A named receiver that records nothing (propagation probes only)."""

    def __init__(self, name: str) -> None:
        self.name = name

    def receive(self, message: Message) -> None:  # pragma: no cover
        pass


class TestBatchedPropagationParity:
    """The batched delivery-set resolution equals the per-delivery
    membership check, receiver for receiver, in order."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(positions, min_size=8, max_size=24, unique=True),
        st.integers(min_value=0, max_value=3),
        positions,
        ranges,
    )
    def test_batched_receiver_set_matches_per_delivery_oracle(
        self, placed, unplaced_count, sender_pos, range_m
    ):
        topology = Topology(World(1000.0))
        topology.add_stationary("tx", sender_pos, transmit_range_m=range_m)
        attached: list = []
        for index, position in enumerate(placed):
            name = f"rx-{index:02d}"
            topology.add_stationary(name, position)
            attached.append(_Ear(name))
        for index in range(unplaced_count):
            attached.append(_Ear(f"observer-{index}"))

        # Per-delivery oracle: one membership check per receiver, in
        # attach order (unplaced observers always hear).
        expected = [
            ear
            for ear in attached
            if topology._resolve(ear.name) is None
            or abs(topology.position_of(ear.name) - sender_pos) <= range_m
        ]

        message = Message(kind="k", sender="tx", payload={})
        batched = RangePropagation(topology)
        # Twice through the same view: the second call exercises the
        # memoised (position_version, range) fast path.
        assert list(batched.receivers(message, attached)) == expected
        assert list(batched.receivers(message, attached)) == expected

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(positions, min_size=8, max_size=16, unique=True),
        positions,
        ranges,
        st.floats(min_value=0.5, max_value=50.0, allow_nan=False),
    )
    def test_batched_set_tracks_motion(
        self, placed, sender_pos, range_m, step_m
    ):
        """Moving a receiver between deliveries invalidates the memo:
        the batched set always reflects positions at delivery time."""
        topology = Topology(World(1000.0))
        topology.add_stationary("tx", sender_pos, transmit_range_m=range_m)
        attached = []
        for index, position in enumerate(placed):
            name = f"rx-{index:02d}"
            topology.add_stationary(name, position)
            attached.append(_Ear(name))
        propagation = RangePropagation(topology)
        message = Message(kind="k", sender="tx", payload={})

        def oracle():
            return [
                ear
                for ear in attached
                if abs(topology.position_of(ear.name) - sender_pos) <= range_m
            ]

        assert list(propagation.receivers(message, attached)) == oracle()
        moved = topology.actor(attached[0].name)
        moved.position_m = min(placed[0] + step_m, 1000.0)
        assert list(propagation.receivers(message, attached)) == oracle()

    def test_detach_then_attach_drops_the_stale_view(self):
        """Detach + attach keeps the attach list's length; the cached
        view must still be rebuilt, or the detached receiver keeps
        hearing (memo hit) and the new one inherits its position."""
        clock = SimClock()
        topology = Topology(World(1000.0))
        topology.add_stationary("tx", 0.0, transmit_range_m=100.0)
        topology.add_stationary("near", 50.0)
        topology.add_stationary("far", 900.0)
        channel = Channel(
            "radio", clock, EventBus(), propagation=RangePropagation(topology)
        )
        heard: dict[str, int] = {"near": 0, "far": 0}

        class Counter:
            def __init__(self, name: str) -> None:
                self.name = name

            def receive(self, message: Message) -> None:
                heard[self.name] += 1

        near, far = Counter("near"), Counter("far")

        def send() -> None:
            channel.send(Message(kind="k", sender="tx", payload={}))
            clock.run()

        channel.attach(near)
        send()
        assert heard == {"near": 1, "far": 0}
        channel.detach(near)
        channel.attach(far)
        send()
        assert heard == {"near": 1, "far": 0}
        topology.actor("tx").position_m = 1.0
        send()
        assert heard == {"near": 1, "far": 0}


class TestInfiniteRangeEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["s1", "s2", "s3"]),
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_explicit_infinite_range_matches_default_channel(self, sends):
        """Same burst through a default channel and an explicit
        InfiniteRange channel: identical delivery sequences."""

        def run(propagation) -> list[tuple[float, str, int]]:
            clock, bus = SimClock(), EventBus()
            kwargs = {"latency_ms": 1.0, "bandwidth_per_ms": 2.0}
            if propagation is not None:
                kwargs["propagation"] = propagation
            channel = Channel("c", clock, bus, **kwargs)
            log = []

            class Sink:
                name = "sink"

                def receive(self, message):
                    log.append((clock.now, message.sender, message.counter))

            channel.attach(Sink())
            for counter, (sender, delay) in enumerate(sends):
                clock.schedule(
                    delay,
                    lambda s=sender, c=counter: channel.send(
                        Message(kind="k", sender=s, payload={}, counter=c)
                    ),
                )
            clock.run()
            return log

        assert run(None) == run(InfiniteRange())

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "variant_id", ["uc1/parity/ad20", "uc2/parity/ad08"]
    )
    def test_parity_anchors_reproduce_seed_verdicts(self, variant_id):
        """AD20/AD08 through the (now explicitly InfiniteRange) legacy
        channels still produce the published seed verdicts."""
        outcome = execute_variant(default_registry().variant(variant_id))
        assert outcome.verdict == "ATTACK_FAILED"
        assert outcome.violated_goals == ()
