"""Property-based tests on the spatial topology layer.

Three contracts the fleet scenario families lean on:

* **range symmetry** -- with equal transmit ranges, A hears B exactly
  when B hears A (the inclusive boundary cannot break symmetry);
* **InfiniteRange == legacy broadcast** -- a channel carrying the
  explicit :class:`~repro.sim.network.InfiniteRange` model delivers the
  same messages, at the same times, to the same receivers as a channel
  constructed the pre-topology way; and on the AD08/AD20 parity
  variants the two spellings produce identical verdicts;
* **batched propagation** -- the memoised per-sender delivery set
  matches a per-delivery membership check, receiver for receiver, in
  attach order, and follows motion between deliveries;
* **range query == per-receiver scan** -- the query over the sorted
  position column and the short-list scan both answer what
  ``abs(p - s) <= r`` per receiver answers, at the floating-point edge
  of the range too.
"""

import math
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.campaign import execute_variant
from repro.engine.registry import default_registry
from repro.sim.clock import SimClock
from repro.sim.events import EventBus
from repro.sim.network import Channel, InfiniteRange, Message
from repro.sim import topology as topology_module
from repro.sim.topology import RangePropagation, Topology
from repro.sim.vehicle import Vehicle
from repro.sim.world import World

positions = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
ranges = st.floats(min_value=0.0, max_value=1500.0, allow_nan=False)


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
        topology = Topology(World(1000.0))
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

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(positions, st.floats(min_value=0.0, max_value=40.0)),
            min_size=2,
            max_size=12,
        ),
        st.booleans(),
        positions,
        ranges,
        st.integers(min_value=1, max_value=30),
    )
    def test_batched_set_follows_cohort_ticks(
        self, convoy, sender_is_vehicle, rsu_pos, range_m, ticks
    ):
        """Tracked vehicles move on their cohort tick; after every tick
        the batched set equals the membership check on the vehicles'
        own positions, whether the sender is an RSU or a vehicle."""
        clock, bus = SimClock(), EventBus()
        world = World(1000.0)
        topology = Topology(world)
        vehicles = [
            Vehicle(f"ego-{index}", clock, bus, world,
                    position_m=position, speed_mps=speed)
            for index, (position, speed) in enumerate(convoy)
        ]
        for vehicle in vehicles:
            topology.track(vehicle, transmit_range_m=range_m)
        topology.add_stationary("rsu", rsu_pos, transmit_range_m=range_m)
        sender = vehicles[0].name if sender_is_vehicle else "rsu"
        attached = [_Ear(vehicle.name) for vehicle in vehicles]
        propagation = RangePropagation(topology)
        message = Message(kind="k", sender=sender, payload={})

        def oracle():
            origin = topology.position_of(sender)
            return [
                ear
                for ear, vehicle in zip(attached, vehicles)
                if abs(vehicle.position_m - origin) <= range_m
            ]

        for tick in range(ticks + 1):
            clock.run_until(tick * 100.0)
            assert list(propagation.receivers(message, attached)) == oracle()
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


def _on_both_paths(check) -> None:
    """Run ``check`` with the column query gating every attach list,
    then with the scan gating every attach list."""
    for threshold in (0, sys.maxsize):
        with mock.patch.object(
            topology_module, "COLUMN_MIN_RECEIVERS", threshold
        ):
            check()


def _edges(sender_pos: float, range_m: float) -> list[float]:
    """``s - r`` and ``s + r`` as rounded, and one ULP either side."""
    edges = []
    for edge in (sender_pos - range_m, sender_pos + range_m):
        edges += [
            math.nextafter(edge, -math.inf),
            edge,
            math.nextafter(edge, math.inf),
        ]
    return [edge for edge in edges if 0.0 <= edge <= 1000.0]


@st.composite
def _range_cases(draw):
    sender_pos = draw(positions)
    range_m = draw(ranges)
    # Positions come from a small pool, so they repeat, and the pool
    # holds the range's edges and their neighbouring floats.
    pool = draw(st.lists(positions, min_size=1, max_size=5))
    pool += _edges(sender_pos, range_m) + [sender_pos]
    actors = draw(st.integers(min_value=1, max_value=12))
    eras = draw(st.lists(
        st.lists(st.sampled_from(pool), min_size=actors, max_size=actors),
        min_size=2,
        max_size=3,
    ))
    # Per receiver: the actor it rides (several may share one; "tx" is
    # the sender's own) or None for an unplaced observer.
    riders = draw(st.lists(
        st.one_of(
            st.none(),
            st.just("tx"),
            st.integers(min_value=0, max_value=actors - 1),
        ),
        min_size=1,
        max_size=40,
    ))
    attach_order = draw(st.permutations(range(len(riders))))
    return sender_pos, range_m, eras, riders, attach_order


class TestRangeQueryOracle:
    """The delivery set equals ``abs(p - s) <= r`` per receiver, in
    attach order, on the column query and on the scan alike."""

    @settings(max_examples=150, deadline=None)
    @given(_range_cases())
    # Pinned: a position where bisecting on the rounded s - r or s + r
    # lands one past the run's edge, on each of the four sides (the
    # exact predicate disagrees with the rounded bound at p).
    @example((760.962445, 651.59, [[109.37244499999996, 5.0]] * 2,
              [0, 1, None], [2, 1, 0]))
    @example((837.6, 185.906, [[651.694, 837.6], [837.6, 651.694]],
              [0, 1, None], [2, 1, 0]))
    @example((452.999, 249.6, [[702.599, 452.999], [452.999, 702.599]],
              [0, 1, None], [2, 1, 0]))
    @example((160.07, 793.7, [[953.7700000000001, 160.07]] * 2,
              [0, 1, None], [2, 1, 0]))
    def test_query_matches_per_receiver_scan(self, case):
        sender_pos, range_m, eras, riders, attach_order = case

        def check():
            topology = Topology(World(1000.0))
            topology.add_stationary(
                "tx", sender_pos, transmit_range_m=range_m
            )
            actors = [
                topology.add_stationary(f"car-{index:02d}", position)
                for index, position in enumerate(eras[0])
            ]
            ears = []
            for index, rider in enumerate(riders):
                name = f"rx-{index:02d}"
                if rider is not None:
                    topology.bind(
                        name, "tx" if rider == "tx" else actors[rider].name
                    )
                ears.append(_Ear(name))
            attached = [ears[index] for index in attach_order]
            propagation = RangePropagation(topology)
            message = Message(kind="k", sender="tx", payload={})

            for era in eras:
                # Setter writes: every era can reorder the column.
                for actor, position in zip(actors, era):
                    actor.position_m = position
                expected = [
                    ear
                    for ear in attached
                    if not topology.knows(ear.name)
                    or abs(topology.position_of(ear.name) - sender_pos)
                    <= range_m
                ]
                assert propagation.receivers(message, attached) == expected
                assert propagation.receivers(message, attached) == expected

        _on_both_paths(check)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(positions, st.floats(min_value=0.0, max_value=60.0)),
            min_size=2,
            max_size=12,
        ),
        positions,
        ranges,
        st.integers(min_value=1, max_value=30),
    )
    def test_query_follows_an_overtaking_convoy(
        self, convoy, rsu_pos, range_m, ticks
    ):
        """Vehicles at different speeds overtake each other on their
        cohort tick; after every tick both paths answer the per-vehicle
        check, for an RSU and for a vehicle sender."""

        def check():
            clock, bus = SimClock(), EventBus()
            world = World(1000.0)
            topology = Topology(world)
            vehicles = [
                Vehicle(f"ego-{index}", clock, bus, world,
                        position_m=position, speed_mps=speed)
                for index, (position, speed) in enumerate(convoy)
            ]
            for vehicle in vehicles:
                topology.track(vehicle, transmit_range_m=range_m)
            topology.add_stationary("rsu", rsu_pos, transmit_range_m=range_m)
            attached = [_Ear(vehicle.name) for vehicle in vehicles]
            propagation = RangePropagation(topology)
            for tick in range(ticks + 1):
                clock.run_until(tick * 100.0)
                for sender in ("rsu", vehicles[-1].name):
                    origin = topology.position_of(sender)
                    expected = [
                        ear
                        for ear, vehicle in zip(attached, vehicles)
                        if abs(vehicle.position_m - origin) <= range_m
                    ]
                    message = Message(kind="k", sender=sender, payload={})
                    assert (
                        propagation.receivers(message, attached) == expected
                    )

        _on_both_paths(check)


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
