"""Tests for the road world, vehicle kinematics and the driver model."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import EventBus
from repro.sim import vehicle as vehicle_module
from repro.sim.vehicle import Driver, DrivingMode, Vehicle
from repro.sim.world import World, Zone


class TestWorld:
    def test_zone_containment(self):
        zone = Zone("z", 100.0, 200.0)
        assert zone.contains(100.0)
        assert zone.contains(199.9)
        assert not zone.contains(200.0)
        assert zone.length == 100.0

    def test_zone_validation(self):
        with pytest.raises(SimulationError):
            Zone("z", 200.0, 100.0)

    @pytest.mark.parametrize(
        "start, end", [(float("nan"), 10.0), (5.0, float("nan"))]
    )
    def test_nan_zone_bounds_rejected(self, start, end):
        """A NaN bound passes every ``<``/``<=`` check: the zone could
        never be entered."""
        world = World(road_length_m=100.0)
        with pytest.raises(SimulationError, match="NaN"):
            world.add_zone("a", start, end)
        with pytest.raises(SimulationError, match="NaN"):
            Zone("a", start, end)
        assert world.zones == ()

    def test_world_zone_management(self):
        world = World(road_length_m=1000.0)
        world.add_zone("construction", 500.0, 600.0)
        assert world.in_zone(550.0, "construction")
        assert not world.in_zone(450.0, "construction")
        assert world.distance_to(400.0, "construction") == 100.0

    def test_duplicate_zone_rejected(self):
        world = World()
        world.add_zone("z", 0.0, 10.0)
        with pytest.raises(SimulationError):
            world.add_zone("z", 20.0, 30.0)

    def test_zone_outside_road_rejected(self):
        world = World(road_length_m=100.0)
        with pytest.raises(SimulationError):
            world.add_zone("z", 50.0, 150.0)

    def test_clamp(self):
        world = World(road_length_m=100.0)
        assert world.clamp_value(-5.0) == (0.0, True)
        assert world.clamp_value(105.0) == (100.0, True)
        assert world.clamp_value(50.0) == (50.0, False)

    def test_zones_at(self):
        world = World()
        world.add_zone("a", 0.0, 100.0)
        world.add_zone("b", 50.0, 150.0)
        assert {z.name for z in world.zones_at(75.0)} == {"a", "b"}

    def test_occupants_follow_placement_and_setter(self):
        clock, bus = SimClock(), EventBus()
        world = World(1000.0)
        world.add_zone("a", 100.0, 200.0)
        inside = Vehicle(
            "inside", clock, bus, world, position_m=150.0, speed_mps=0.0
        )
        outside = Vehicle(
            "outside", clock, bus, world, position_m=50.0, speed_mps=0.0
        )
        assert world.occupants("a") == {inside}
        outside.position_m = 100.0  # the start is inside
        inside.position_m = 200.0  # the end is not
        assert world.occupants("a") == {outside}
        # A zone defined later starts with the residents already in it.
        world.add_zone("b", 0.0, 150.0)
        assert world.occupants("b") == {outside}
        with pytest.raises(SimulationError, match="unknown zone"):
            world.occupants("c")


@pytest.fixture()
def rig():
    clock = SimClock()
    bus = EventBus()
    world = World(road_length_m=3000.0)
    world.add_zone("construction", 1500.0, 1600.0)
    vehicle = Vehicle("ego", clock, bus, world, speed_mps=25.0)
    return clock, bus, world, vehicle


class TestVehicle:
    def test_constant_speed_motion(self, rig):
        clock, __, __, vehicle = rig
        clock.run_until(10000.0)  # 10 s at 25 m/s
        assert vehicle.position_m == pytest.approx(250.0, abs=3.0)

    def test_deceleration_is_bounded(self, rig):
        clock, __, __, vehicle = rig
        vehicle.set_target_speed(5.0)
        clock.run_until(1000.0)
        # Max 4 m/s^2: after 1 s the speed can have dropped by at most ~4.
        assert vehicle.speed_mps >= 20.0
        clock.run_until(10000.0)
        assert vehicle.speed_mps == pytest.approx(5.0)

    def test_acceleration_is_bounded(self, rig):
        clock, __, __, vehicle = rig
        vehicle.set_target_speed(35.0)
        clock.run_until(1000.0)
        assert vehicle.speed_mps <= 27.5

    def test_handover_state_machine(self, rig):
        clock, bus, __, vehicle = rig
        vehicle.request_handover("test")
        assert vehicle.mode is DrivingMode.HANDOVER_REQUESTED
        assert bus.count("vehicle.handover_requested") == 1
        # Idempotent while pending.
        vehicle.request_handover("again")
        assert bus.count("vehicle.handover_requested") == 1
        vehicle.driver_takes_over()
        assert vehicle.mode is DrivingMode.MANUAL
        # No handover request once manual.
        vehicle.request_handover("later")
        assert bus.count("vehicle.handover_requested") == 1

    def test_manual_latency_published(self, rig):
        clock, bus, __, vehicle = rig
        bus.retain("vehicle.manual_control")
        clock.run_until(1000.0)
        vehicle.request_handover("x")
        clock.run_until(3000.0)
        vehicle.driver_takes_over()
        event = bus.last("vehicle.manual_control")
        assert event.data["latency_ms"] == pytest.approx(2000.0)

    def test_safe_stop(self, rig):
        clock, bus, __, vehicle = rig
        vehicle.safe_stop("test")
        assert vehicle.mode is DrivingMode.SAFE_STOP
        clock.run_until(10000.0)
        assert vehicle.is_stopped
        assert bus.count("vehicle.safe_stop") == 1

    def test_zone_entry_event_carries_mode(self, rig):
        clock, bus, __, vehicle = rig
        bus.retain("vehicle.entered_zone")
        clock.run_until(70000.0)  # well past the zone at 25 m/s
        entries = bus.events("vehicle.entered_zone")
        assert len(entries) == 1
        assert entries[0].data["zone"] == "construction"
        assert entries[0].data["mode"] == "automated"

    def test_position_saturates_at_road_end(self, rig):
        clock, __, world, vehicle = rig
        clock.run_until(300000.0)
        assert vehicle.position_m == world.road_length_m

    def test_invalid_speeds_rejected(self, rig):
        __, __, __, vehicle = rig
        with pytest.raises(SimulationError):
            vehicle.set_target_speed(-1.0)

    @pytest.mark.parametrize(
        "kwargs", [{"speed_mps": float("nan")}, {"tick_ms": float("nan")}]
    )
    def test_nan_construction_rejected(self, kwargs):
        clock, world = SimClock(), World(1000.0)
        with pytest.raises(SimulationError):
            Vehicle("ego", clock, EventBus(), world, **kwargs)
        assert clock.pending == 0
        world.add_zone("all", 0.0, 1000.0)
        assert world.occupants("all") == frozenset()

    def test_nan_targets_and_speeds_rejected(self, rig):
        """With a NaN target, ``target < speed`` and ``target > speed``
        are both false: the vehicle would silently cruise."""
        clock, __, __, vehicle = rig
        for write in (
            lambda: vehicle.set_target_speed(float("nan")),
            lambda: setattr(vehicle, "speed_mps", float("nan")),
        ):
            with pytest.raises(SimulationError, match="NaN|>= 0"):
                write()
        assert vehicle.target_speed_mps == vehicle.speed_mps == 25.0
        clock.run_until(1000.0)
        assert vehicle.position_m == pytest.approx(25.0)

    def test_target_speed_is_read_only(self, rig):
        """Only set_target_speed and safe_stop write the target: they
        publish the events goal checks keep their offenders on."""
        clock, __, __, vehicle = rig
        with pytest.raises(AttributeError):
            vehicle.target_speed_mps = 41.0
        assert vehicle.target_speed_mps == 25.0
        clock.run_until(1000.0)
        assert vehicle.speed_mps == 25.0

    def test_infinite_target_is_legal(self, rig):
        # SG03 is what flags it.
        clock, __, __, vehicle = rig
        vehicle.set_target_speed(float("inf"))
        clock.run_until(1000.0)
        assert vehicle.speed_mps == pytest.approx(27.0)

    def test_vehicle_created_mid_run_ticks_one_period_later(self):
        clock = SimClock()
        clock.run_until(250.0)
        late = Vehicle("late", clock, EventBus(), World(1000.0))
        clock.run_until(349.0)
        assert late.position_m == 0.0
        clock.run_until(350.0)
        assert late.position_m == pytest.approx(2.5)  # one 100 ms tick


def _convoy_events(per_vehicle_schedules, monkeypatch):
    """Zone entries of a 3-vehicle convoy: ``(time, source, data)``."""
    if per_vehicle_schedules:
        # A cohort of one per vehicle: one periodic schedule each.
        monkeypatch.setattr(
            vehicle_module,
            "_join_tick_cohort",
            lambda vehicle, clock, position: vehicle_module._TickCohort(
                clock, vehicle.tick_ms
            ).join(vehicle, position),
        )
    clock, bus = SimClock(), EventBus()
    world = World(road_length_m=400.0)
    world.add_zone("site", 100.0, 200.0)
    world.add_zone("approach", 50.0, 150.0)
    world.add_zone("cone", 100.0, 120.0)  # entered with "site"
    seen = []
    convoy = [
        Vehicle("lead", clock, bus, world, position_m=45.0, speed_mps=30.0),
        Vehicle("mid", clock, bus, world, position_m=20.0, speed_mps=25.0),
        Vehicle("tail", clock, bus, world, position_m=0.0, speed_mps=40.0),
    ]

    def on_entry(event):
        seen.append((event.time, event.source, dict(event.data)))
        # State a later tick in the same period reads.
        if event.source == "lead" and event.data["zone"] == "site":
            convoy[1].set_target_speed(5.0)

    bus.subscribe("vehicle.entered_zone", on_entry)
    clock.run_until(10000.0)
    return seen, [(v.position_m, v.speed_mps) for v in convoy]


class TestTickCohort:
    def test_vehicles_created_together_share_one_schedule(self):
        clock, bus, world = SimClock(), EventBus(), World(1000.0)
        for index in range(3):
            Vehicle(f"v{index}", clock, bus, world)
        assert clock.pending == 1
        Vehicle("slow", clock, bus, world, tick_ms=200.0)
        assert clock.pending == 2
        clock.run_until(50.0)
        Vehicle("later", clock, bus, world)
        assert clock.pending == 3

    def test_zone_entries_match_per_vehicle_schedules(self, monkeypatch):
        cohort = _convoy_events(False, monkeypatch)
        per_vehicle = _convoy_events(True, monkeypatch)
        assert cohort[0]  # the convoy did enter zones
        assert cohort == per_vehicle

    def test_tick_keeps_zone_occupancy(self):
        clock, bus, world = SimClock(), EventBus(), World(1000.0)
        world.add_zone("site", 10.0, 20.0)
        vehicle = Vehicle(
            "v", clock, bus, world, position_m=5.0, speed_mps=50.0
        )
        inside = []
        for tick in range(1, 4):  # 5 m per tick: 10, 15, then 20
            clock.run_until(100.0 * tick)
            inside.append(vehicle in world.occupants("site"))
        assert inside == [True, True, False]

    def test_one_notification_per_tick_for_a_shared_listener(self):
        clock, bus, world = SimClock(), EventBus(), World(1000.0)
        convoy = [
            Vehicle(f"v{index}", clock, bus, world, speed_mps=10.0)
            for index in range(3)
        ]
        parked = Vehicle("parked", clock, bus, world, speed_mps=0.0)
        calls = []

        def shared():
            calls.append(clock.now)

        for vehicle in convoy:
            vehicle.add_motion_listener(shared)
        convoy[0].add_motion_listener(shared)  # registered twice: once
        parked.add_motion_listener(lambda: calls.append("parked"))
        clock.run_until(300.0)
        assert calls == [100.0, 200.0, 300.0]
        # The setter still notifies at once.
        convoy[1].position_m = 500.0
        assert calls[-1] == 300.0 and len(calls) == 4

    def test_zone_added_mid_run_is_entered(self):
        """A zone added while a vehicle cruises brings a crossing its
        filed tick did not know of."""
        clock, bus, world = SimClock(), EventBus(), World(1000.0)
        bus.retain("vehicle.entered_zone")
        vehicle = Vehicle("v", clock, bus, world, speed_mps=10.0)
        clock.run_until(100.0)  # 1 m per tick, filed with no zone ahead
        world.add_zone("site", 5.0, 10.0)
        clock.run_until(2000.0)
        assert [e.time for e in bus.events("vehicle.entered_zone")] == [
            500.0
        ]
        assert world.occupants("site") == frozenset()
        assert vehicle.position_m == 20.0

    def test_cruising_convoy_is_stepped_on_its_first_tick_only(
        self, monkeypatch
    ):
        """Far from any boundary, a cruising convoy is advanced by the
        column update alone: no vehicle is stepped after its first
        tick."""
        steps = []
        advance = vehicle_module._TickCohort._advance

        def counting(cohort, tick, due):
            steps.append(tick)
            advance(cohort, tick, due)

        monkeypatch.setattr(vehicle_module._TickCohort, "_advance", counting)
        clock, bus, world = SimClock(), EventBus(), World(10000.0)
        world.add_zone("site", 9000.0, 9500.0)
        convoy = [
            Vehicle(f"v{index}", clock, bus, world, position_m=10.0 * index)
            for index in range(64)
        ]
        clock.run_until(1000.0)
        assert steps == [1]
        assert convoy[-1].position_m == 630.0 + 25.0

    def test_listeners_notified_before_a_zone_entry_publish(self):
        clock, bus, world = SimClock(), EventBus(), World(1000.0)
        world.add_zone("site", 1.0, 50.0)
        lead = Vehicle("lead", clock, bus, world, speed_mps=10.0)
        tail = Vehicle("tail", clock, bus, world, speed_mps=5.0)
        log = []
        for vehicle in (lead, tail):
            vehicle.add_motion_listener(lambda: log.append("moved"))
        bus.subscribe(
            "vehicle.entered_zone", lambda event: log.append(event.source)
        )
        clock.run_until(100.0)
        # lead moves and enters: notified before the publish; tail
        # moves after it (and does not reach the zone): notified after
        # the loop.
        assert log == ["moved", "lead", "moved"]


class TestDriver:
    def test_reaction_time(self, rig):
        clock, bus, __, vehicle = rig
        Driver(vehicle, clock, bus, reaction_time_ms=2000.0)
        clock.run_until(1000.0)
        vehicle.request_handover("road works")
        clock.run_until(2500.0)
        assert vehicle.mode is DrivingMode.HANDOVER_REQUESTED
        clock.run_until(3100.0)
        assert vehicle.mode is DrivingMode.MANUAL
        assert vehicle.manual_since == pytest.approx(3000.0)

    def test_driver_slows_down_after_takeover(self, rig):
        clock, bus, __, vehicle = rig
        Driver(
            vehicle, clock, bus, reaction_time_ms=500.0,
            comfort_speed_mps=8.0,
        )
        vehicle.request_handover("road works")
        clock.run_until(20000.0)
        assert vehicle.speed_mps == pytest.approx(8.0)

    def test_driver_ignores_other_vehicles(self, rig):
        clock, bus, world, vehicle = rig
        other = Vehicle("other", clock, bus, world)
        Driver(vehicle, clock, bus, reaction_time_ms=100.0)
        other.request_handover("other's problem")
        clock.run_until(1000.0)
        assert vehicle.mode is DrivingMode.AUTOMATED
