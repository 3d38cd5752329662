"""Property-based tests on the simulator substrate."""

import math
from itertools import accumulate, repeat
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.can import CanBus, make_frame
from repro.sim.clock import SimClock
from repro.sim.events import EventBus, TopicProbe
from repro.sim.network import Channel, Message
from repro.sim.scenarios import FleetConstructionSiteScenario
from repro.sim.v2x import KIND_HAZARD_WARNING
from repro.sim.vehicle import AUTOMATED_MODES, DrivingMode, Vehicle
from repro.sim.world import World
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
    except SimulationError:  # topic outside the retained set
        return False
    return bool(events) and events[-1] is event


class TestIncrementalInvalidationProperty:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(("no-registration", "retain-all")), _BUS_STEPS)
    def test_bus_answers_like_a_fresh_bus(self, start, steps):
        """After any interleaving of registrations, probes and publishes,
        every probe, dispatch order and retention bit matches a bus given
        only the same registrations."""

        def new_bus():
            bus = EventBus()
            if start == "retain-all":
                bus.retain("")
            return bus

        bus = new_bus()
        registrations = []  # (kind, prefix), in registration order
        probes = []
        calls = []

        def fresh_bus(log):
            fresh = new_bus()
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


def _reference_tick(state, world, now, moved, entries):
    """The per-vehicle kinematics step the tick cohort replaced, kept as
    the oracle: ``state`` is a plain copy of one vehicle's fields."""
    dt = state.tick_ms / 1000.0
    previous_position = state.position_m
    delta = state.target_speed_mps - state.speed_mps
    if delta < 0:
        state.speed_mps = max(
            state.target_speed_mps,
            state.speed_mps - Vehicle.MAX_DECEL_MPS2 * dt,
        )
    elif delta > 0:
        state.speed_mps = min(
            state.target_speed_mps,
            state.speed_mps + Vehicle.MAX_ACCEL_MPS2 * dt,
        )
    position, saturated = world.clamp_value(
        previous_position + state.speed_mps * dt
    )
    if saturated:
        state.position_saturated = True
    if position == previous_position:
        return
    state.position_m = position
    moved.append(state.name)
    entered = [
        zone.name
        for zone in world.zones
        if zone.contains(position) and not zone.contains(previous_position)
    ]
    for zone_name in sorted(entered):
        entries.append((now, state.name, {
            "zone": zone_name,
            "mode": state.mode.value,
            "speed_mps": state.speed_mps,
        }))


#: Placements as fractions of the road: on a zone start, inside a zone
#: or between zones.
_FRACTIONS = (0.0, 0.2, 0.25, 0.4, 0.5, 0.6, 0.8)
#: Zone starts: a coarse grid, so zones often share a start and one
#: tick enters several of them.
_ZONE_STARTS = (0.0, 0.25, 0.5)
#: Writes between ticks: ``set_target_speed``, a direct speed write
#: (which may be negative), a ``position_m`` setter write.
_WRITES = ("target", "direct-speed", "position")


@st.composite
def _cohort_cases(draw):
    road = draw(st.one_of(
        st.integers(min_value=20, max_value=400),
        st.floats(min_value=20.0, max_value=400.0),
    ))
    names = draw(st.permutations(["zeta", "alpha", "mid"]))
    zones = []
    for name in names[: draw(st.integers(min_value=0, max_value=3))]:
        start = draw(st.sampled_from(_ZONE_STARTS)) * road
        end = start + draw(st.sampled_from((0.1, 0.25, 0.5))) * road
        zones.append((name, start, min(end, road)))
    vehicles = []
    for __ in range(draw(st.integers(min_value=1, max_value=6))):
        offset = draw(st.one_of(
            st.sampled_from((0.0, -0.0, 0.5)),
            st.floats(min_value=0.0, max_value=5.0),
        ))
        position = draw(st.one_of(
            st.just(offset),  # near the road start
            st.just(road - offset),  # near the road end
            st.sampled_from(_FRACTIONS).map(lambda f: f * road),
        ))
        speed = draw(st.floats(min_value=0.0, max_value=40.0))
        # Decel clamp, accel clamp or none.  A negative speed write
        # (below) drives the road-start clamp.
        target = draw(st.one_of(
            st.just(speed),
            st.floats(min_value=0.0, max_value=45.0),
        ))
        mode = draw(st.sampled_from(list(DrivingMode)))
        vehicles.append((position, speed, target, mode))
    tick_ms = draw(st.sampled_from((100.0, 250.0, 1000.0)))
    ticks = draw(st.integers(min_value=1, max_value=25))
    # A zone start, zone end or road end exactly where the first
    # vehicle, cruising, lands after some ticks, or one ULP either side.
    edge = draw(st.one_of(st.none(), st.tuples(
        st.sampled_from(("start", "end", "road")),
        st.integers(min_value=1, max_value=ticks),
        st.sampled_from((-1, 0, 1)),
    )))
    # Writes between ticks (after tick ``at``; 0 is before the first).
    writes = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=ticks - 1),  # at
            st.integers(min_value=0, max_value=len(vehicles) - 1),
            st.sampled_from(_WRITES),
            st.floats(min_value=-5.0, max_value=45.0),
        ),
        max_size=4,
    ))
    # One run to the end (the cohort files cruising vehicles ticks
    # ahead) or one run per tick (the horizon caps every filing).
    one_run = draw(st.booleans())
    return road, zones, vehicles, tick_ms, ticks, edge, writes, one_run


def _cruise_edge(position, speed, tick_ms, ticks, ulps):
    """Where a vehicle cruising from ``position`` at ``speed`` is after
    ``ticks`` ticks -- the same additions a tick makes -- moved by
    ``ulps`` ULPs."""
    edge = list(accumulate(
        repeat(speed * (tick_ms / 1000.0), ticks), initial=position
    ))[-1]
    for __ in range(abs(ulps)):
        edge = math.nextafter(edge, math.copysign(math.inf, ulps))
    return edge


def _with_edge(road, zones, specs, tick_ms, edge):
    """The case's road, zones and vehicles with its edge in place."""
    if edge is None:
        return road, zones, specs
    kind, ticks, ulps = edge
    value = _cruise_edge(specs[0][0], specs[0][1], tick_ms, ticks, ulps)
    if kind == "road":
        if not value > 0:
            return road, zones, specs
        # Clip what lies beyond the new road end back onto it.
        specs = [(min(spec[0], value),) + spec[1:] for spec in specs]
        zones = [
            (name, start, min(end, value))
            for name, start, end in zones
            if start < min(end, value)
        ]
        return value, zones, specs
    if kind == "start" and 0 <= value < road:
        return road, zones + [("edge", value, road)], specs
    if kind == "end" and 0 < value <= road:
        return road, zones + [("edge", 0.0, value)], specs
    return road, zones, specs


def _write(vehicle, state, kind, value, road, moved):
    """Apply one write to the vehicle and to its reference copy."""
    if kind == "target":
        vehicle.set_target_speed(abs(value))
        state.target_speed_mps = abs(value)
    elif kind == "direct-speed":
        vehicle.speed_mps = value
        state.speed_mps = value
    else:
        position = abs(value) / 45.0 * road
        if position != state.position_m:
            moved.append(state.name)  # the setter notifies at once
        vehicle.position_m = position
        state.position_m = position


class TestCohortKinematicsProperty:
    @settings(max_examples=300, deadline=None)
    @given(_cohort_cases())
    # Pinned: one tick enters two zones defined in reverse name order,
    # and a vehicle parked on the road end saturates without moving.
    @example((
        100.0,
        [("zeta", 50.0, 60.0), ("alpha", 50.0, 75.0)],
        [
            (40.0, 15.0, 15.0, DrivingMode.AUTOMATED),
            (100.0, 10.0, 10.0, DrivingMode.MANUAL),
        ],
        1000.0,
        2,
        None,
        [],
        False,
    ))
    # Pinned: a zone starts exactly where v0 cruises after 10 ticks of
    # 0.1 m (0.9999999999999999, not 1.0); v1's target write after
    # tick 2 brakes it, and the setter moves v0 back out of the zone
    # after tick 11, all within one run.
    @example((
        10.0,
        [],
        [
            (0.0, 1.0, 1.0, DrivingMode.AUTOMATED),
            (5.0, 3.0, 3.0, DrivingMode.AUTOMATED),
        ],
        100.0,
        12,
        ("start", 10, 0),
        [(2, 1, "target", 1.0), (11, 0, "position", 0.0)],
        True,
    ))
    # Pinned: v0's increment (1.5e-16 m) moves it twice, onto 2.0,
    # where it is below half an ULP: v0 cruises on but no longer moves
    # (nor notifies).  v1 stands still at -0.0, which it must keep.
    @example((
        10.0,
        [],
        [
            (1.9999999999999996, 1.5e-15, 1.5e-15, DrivingMode.AUTOMATED),
            (-0.0, 0.0, 0.0, DrivingMode.AUTOMATED),
        ],
        100.0,
        5,
        None,
        [],
        True,
    ))
    # Pinned: v0's increment is 4.6 ULPs of 1.0, and every tick rounds
    # it up to 5: v0 reaches the zone (460 ULPs on) after 92 ticks, not
    # the 100 that position + k * increment estimates.
    @example((
        10.0,
        [("edge", 1.0000000000001021, 10.0)],
        [(1.0, 1.0214051826551439e-14, 1.0214051826551439e-14,
          DrivingMode.AUTOMATED)],
        100.0,
        100,
        None,
        [],
        True,
    ))
    # Pinned: the road ends one ULP below where v0 cruises after 3
    # ticks, so it saturates on tick 3 while still cruising.
    @example((
        100.0,
        [("zeta", 10.0, 50.0)],
        [(90.0, 3.3, 3.3, DrivingMode.AUTOMATED)],
        1000.0,
        5,
        ("road", 3, -1),
        [],
        True,
    ))
    def test_cohort_ticks_like_the_per_vehicle_step(self, case):
        """After every tick, a cohort's speeds, positions, saturation
        flags, zone occupancy, motion-listener calls and zone-entry
        events (order and payload) match the per-vehicle reference
        step's, across writes between ticks."""
        road, zones, specs, tick_ms, ticks, edge, writes, one_run = case
        road, zones, specs = _with_edge(road, zones, specs, tick_ms, edge)
        clock, bus = SimClock(), EventBus()
        world = World(road)
        for name, start, end in zones:
            world.add_zone(name, start, end)
        moved, entries = [], []
        expected_moved, expected_entries = [], []
        bus.subscribe(
            "vehicle.entered_zone",
            lambda e: entries.append((e.time, e.source, dict(e.data))),
        )
        vehicles, states = [], []
        for index, (position, speed, target, mode) in enumerate(specs):
            name = f"v{index}"
            vehicle = Vehicle(
                name, clock, bus, world,
                position_m=position, speed_mps=speed, tick_ms=tick_ms,
            )
            vehicle.set_target_speed(target)
            vehicle.mode = mode
            vehicle.add_motion_listener(lambda n=name: moved.append(n))
            vehicles.append(vehicle)
            states.append(SimpleNamespace(
                name=name, tick_ms=tick_ms, position_m=position,
                speed_mps=speed, target_speed_mps=target, mode=mode,
                position_saturated=False,
            ))

        def write_after(tick):
            for at, index, kind, value in writes:
                if at == tick:
                    _write(
                        vehicles[index], states[index], kind, value, road,
                        expected_moved,
                    )

        def check(tick):
            now = tick * tick_ms
            for state in states:
                _reference_tick(
                    state, world, now, expected_moved, expected_entries
                )
            # repr: an int road length must stay an int position.
            assert [
                (repr(v.speed_mps), repr(v.position_m), v.position_saturated)
                for v in vehicles
            ] == [
                (repr(s.speed_mps), repr(s.position_m), s.position_saturated)
                for s in states
            ]
            assert moved == expected_moved
            assert entries == expected_entries
            assert {
                zone.name: {v.name for v in world.occupants(zone.name)}
                for zone in world.zones
            } == {
                zone.name: {
                    s.name for s in states if zone.contains(s.position_m)
                }
                for zone in world.zones
            }
            write_after(tick)

        write_after(0)
        if one_run:
            # Checked between ticks, under one horizon for the whole run.
            for tick in range(1, ticks + 1):
                clock.schedule_at(
                    (tick + 0.5) * tick_ms, lambda tick=tick: check(tick)
                )
            clock.run_until((ticks + 0.5) * tick_ms)
        else:
            for tick in range(1, ticks + 1):
                clock.run_until(tick * tick_ms)
                check(tick)


class _SweptFleet(FleetConstructionSiteScenario):
    """The fleet scenario with SG01 checked per convoy member, as before
    the zone gate, and SG03/SG05 sweeping every vehicle and OBU, as
    before their offenders were kept by events: the oracle for the one
    gated check and for the event-kept checks."""

    def _install_goal_checks(self):
        zone = self.world.zone(self.ZONE_NAME)
        start, end = zone.start, zone.end
        for vehicle in self.vehicles:
            def sg01_zone_without_driver(vehicle=vehicle):
                if (
                    start <= vehicle.position_m < end
                    and vehicle.mode in AUTOMATED_MODES
                ):
                    return (
                        f"{vehicle.name} inside the construction zone in "
                        f"{vehicle.mode.value} mode at "
                        f"{vehicle.speed_mps:.1f} m/s"
                    )
                return None

            # What one check guarding ("SG01", "SG01:<vehicle>") recorded.
            self.monitor.add_invariant("SG01", sg01_zone_without_driver)
            self.monitor.add_invariant(
                f"SG01:{vehicle.name}", sg01_zone_without_driver
            )

        def sg03_implausible_speed_target():
            for vehicle in self.vehicles:
                if vehicle.target_speed_mps > self.LEGAL_MAX_SPEED_MPS:
                    return (
                        f"{vehicle.name} automation targets implausible "
                        f"speed {vehicle.target_speed_mps:.1f} m/s"
                    )
            return None

        def sg05_warning_flood():
            for obu in self.obus:
                if obu.warnings_shown > self.max_warnings:
                    return (
                        f"{obu.name}: {obu.warnings_shown} hazard warnings "
                        f"shown (limit {self.max_warnings})"
                    )
            return None

        self.monitor.add_invariant("SG03", sg03_implausible_speed_target)
        self.monitor.add_invariant("SG05", sg05_warning_flood)


#: "target" is set_target_speed (mid-cruise); "move" is a
#: ``position_m`` setter write.
_SWITCHES = (
    "handover", "manual", "automated", "safe_stop", "move", "target",
)


@st.composite
def _convoy_cases(draw):
    size = draw(st.integers(min_value=1, max_value=5))
    params = dict(
        fleet_size=size,
        headway_m=draw(st.floats(min_value=1.0, max_value=150.0)),
        vehicle_speed_mps=draw(st.floats(min_value=0.0, max_value=40.0)),
        zone_start_m=draw(st.floats(min_value=0.0, max_value=400.0)),
    )
    params["zone_end_m"] = params["zone_start_m"] + draw(
        st.floats(min_value=1.0, max_value=200.0)
    )
    # A zone start, zone end or road end exactly where a vehicle (the
    # lead, for the road end), cruising, lands after some 100 ms ticks,
    # or one ULP either side.
    edge = draw(st.one_of(st.none(), st.tuples(
        st.sampled_from(("start", "end", "road")),
        st.integers(min_value=0, max_value=size - 1),
        st.integers(min_value=1, max_value=80),
        st.sampled_from((-1, 0, 1)),
    )))
    if edge is not None:
        _place_convoy_edge(params, *edge)
    road = params.get("road_length_m", 700.0)
    switches = draw(st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=8000.0),  # time (ms)
            st.integers(min_value=0, max_value=size - 1),  # vehicle
            st.sampled_from(_SWITCHES),
            # "move" position, or target speed
            st.floats(min_value=0.0, max_value=min(road, 700.0)),
        ),
        max_size=8,
    ))
    duration = draw(st.floats(min_value=100.0, max_value=8000.0))
    return params, switches, duration


def _place_convoy_edge(params, kind, index, ticks, ulps):
    """Move the zone bound or the road end onto the edge."""
    width = params["zone_end_m"] - params["zone_start_m"]
    if kind == "road":
        index = 0
    start = (params["fleet_size"] - 1 - index) * params["headway_m"]
    value = _cruise_edge(
        start, params["vehicle_speed_mps"], 100.0, ticks, ulps
    )
    if kind == "start" and value >= 0:
        params["zone_start_m"] = value
        params["zone_end_m"] = value + width
    elif kind == "end" and value > 0:
        params["zone_start_m"] = max(0.0, value - width)
        params["zone_end_m"] = value
    elif kind == "road" and value > 0 and value >= start:
        # The whole convoy, the zone and the RSU fit on the road.
        params["road_length_m"] = value
        params["rsu_position_m"] = min(1200.0, value)
        if params["zone_end_m"] > value:
            params["zone_start_m"] = min(params["zone_start_m"], value / 2)
            params["zone_end_m"] = value


def _switch(scenario, index, action, value):
    vehicle = scenario.vehicles[index]
    if action == "target":
        vehicle.set_target_speed(value)
    elif action == "warn":
        scenario.obus[index].handle(Message(
            kind=KIND_HAZARD_WARNING, sender="test", payload={"text": "!"}
        ))
    elif action == "handover":
        vehicle.request_handover("test")
    elif action == "manual":
        vehicle.driver_takes_over()
    elif action == "automated":
        vehicle.mode = DrivingMode.AUTOMATED
    elif action == "safe_stop":
        vehicle.safe_stop("test")
    else:
        vehicle.position_m = value


def _sg_violations(scenario_class, case):
    params, switches, duration = case
    scenario = scenario_class(**params)
    for time, index, action, value in switches:
        scenario.clock.schedule_at(
            time,
            lambda i=index, a=action, v=value: _switch(scenario, i, a, v),
        )
    scenario.clock.run_until(duration)
    return [
        (violation.time, violation.goal_id, violation.detail)
        for violation in scenario.monitor.violations
    ]


class TestZoneGatedSG01Property:
    @settings(max_examples=150, deadline=None)
    @given(_convoy_cases())
    # Pinned: ego-1 and ego-3 start inside the zone in automated mode,
    # ego-2 (between them) in manual mode: both violate in the first
    # sweep, recorded in convoy order.
    @example((
        dict(
            fleet_size=3, headway_m=20.0, vehicle_speed_mps=25.0,
            zone_start_m=0.0, zone_end_m=100.0,
        ),
        [(0.0, 1, "manual", 0.0)],
        200.0,
    ))
    # Pinned: the zone starts exactly where ego-1 cruises after 10 ticks
    # of 0.1 m from 1.0 m (2.000000000000001, not 2.0); a target write
    # then brakes it inside the zone.
    @example((
        dict(
            fleet_size=2, headway_m=1.0, vehicle_speed_mps=1.0,
            zone_start_m=2.000000000000001, zone_end_m=3.0,
        ),
        [(1500.0, 0, "target", 0.5)],
        2500.0,
    ))
    # Pinned: the road ends exactly there instead, so ego-1 saturates
    # on its next tick while ego-2 crosses the zone.
    @example((
        dict(
            fleet_size=2, headway_m=1.0, vehicle_speed_mps=1.0,
            zone_start_m=0.5, zone_end_m=1.5,
            road_length_m=2.000000000000001,
            rsu_position_m=2.000000000000001,
        ),
        [],
        2500.0,
    ))
    def test_gated_check_records_like_per_vehicle_checks(self, case):
        """The fleet's one zone-gated SG01 check records the violations
        (time, goal id, detail, order) one check per convoy member
        recorded."""
        gated = _sg_violations(FleetConstructionSiteScenario, case)
        assert gated == _sg_violations(_SweptFleet, case)


_OFFENDER_SWITCHES = ("target", "safe_stop", "warn", "handover")


@st.composite
def _offender_cases(draw):
    size = draw(st.integers(min_value=1, max_value=5))
    params = dict(
        fleet_size=size,
        headway_m=draw(st.floats(min_value=1.0, max_value=150.0)),
        # Above 40 m/s the initial target speed already violates SG03.
        vehicle_speed_mps=draw(st.floats(min_value=0.0, max_value=60.0)),
        max_warnings=draw(st.integers(min_value=0, max_value=3)),
    )
    switches = draw(st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1000.0),  # time (ms)
            st.integers(min_value=0, max_value=size - 1),  # vehicle/OBU
            st.sampled_from(_OFFENDER_SWITCHES),
            st.floats(min_value=0.0, max_value=80.0),  # "target" speed
        ),
        max_size=12,
    ))
    duration = draw(st.floats(min_value=100.0, max_value=1000.0))
    return params, switches, duration


class TestEventKeptOffendersProperty:
    @settings(max_examples=100, deadline=None)
    @given(_offender_cases())
    # Pinned: ego-1's target rises above 40 m/s and falls back between
    # the sweeps at 100 and 150 ms (nothing recorded), then rises again
    # and stays (recorded at 250 ms).
    @example((
        dict(fleet_size=2, headway_m=40.0, vehicle_speed_mps=25.0,
             max_warnings=5),
        [(110.0, 0, "target", 45.0), (120.0, 0, "target", 20.0),
         (230.0, 0, "target", 50.0)],
        400.0,
    ))
    # Pinned: every vehicle starts above 40 m/s; ego-1 stops safely
    # before the first sweep, so SG03 names ego-2.
    @example((
        dict(fleet_size=3, headway_m=40.0, vehicle_speed_mps=50.0,
             max_warnings=5),
        [(10.0, 0, "safe_stop", 0.0)],
        200.0,
    ))
    # Pinned: OBU-3 passes max_warnings first and OBU-2 after it, both
    # before the first sweep: SG05 names the lower-ranked OBU-2, with
    # the count it has at the sweep (3).
    @example((
        dict(fleet_size=3, headway_m=40.0, vehicle_speed_mps=25.0,
             max_warnings=1),
        [(10.0, 2, "warn", 0.0), (20.0, 2, "warn", 0.0),
         (30.0, 1, "warn", 0.0), (40.0, 1, "warn", 0.0),
         (45.0, 1, "warn", 0.0)],
        200.0,
    ))
    def test_event_kept_checks_record_like_the_sweeps(self, case):
        """SG03 and SG05 kept by events record the violations (time,
        goal id, detail) the sweeps over every vehicle and OBU
        recorded."""
        kept = _sg_violations(FleetConstructionSiteScenario, case)
        assert kept == _sg_violations(_SweptFleet, case)


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
