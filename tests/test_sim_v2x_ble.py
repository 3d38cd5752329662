"""Tests for the V2X (RSU/OBU) and BLE keyless-entry endpoints."""

import pytest

from repro.sim.ble import (
    AccessEcu,
    DoorLock,
    DoorLockEcu,
    DoorState,
    Smartphone,
)
from repro.sim.can import CanBus
from repro.sim.clock import SimClock
from repro.sim.crypto import KeyStore
from repro.sim.events import EventBus
from repro.sim.network import Channel
from repro.sim.v2x import OnBoardUnit, RoadsideUnit
from repro.sim.vehicle import DrivingMode, Vehicle
from repro.sim.world import World


@pytest.fixture()
def v2x_rig():
    clock = SimClock()
    bus = EventBus()
    keystore = KeyStore()
    world = World()
    world.add_zone("construction", 1500.0, 1600.0)
    vehicle = Vehicle("ego", clock, bus, world, speed_mps=25.0)
    channel = Channel("v2x", clock, bus, latency_ms=2.0)
    rsu = RoadsideUnit("RSU-A", clock, channel, keystore, "site-A")
    obu = OnBoardUnit("OBU", clock, bus, vehicle)
    channel.attach(obu)
    return clock, bus, vehicle, channel, rsu, obu


class TestRsuObu:
    def test_road_works_warning_triggers_handover(self, v2x_rig):
        clock, bus, vehicle, __, rsu, __ = v2x_rig
        rsu.send_road_works_warning(1500.0, 8.0)
        clock.run_until(100.0)
        assert vehicle.mode is DrivingMode.HANDOVER_REQUESTED
        assert bus.count("obu.warning_accepted") == 1

    def test_messages_are_signed_and_counted(self, v2x_rig):
        __, __, __, __, rsu, __ = v2x_rig
        first = rsu.send_road_works_warning(1500.0, 8.0)
        second = rsu.send_speed_limit(13.0)
        assert first.auth_tag
        assert second.counter == first.counter + 1
        assert first.location == "site-A"

    def test_speed_limit_applied_to_vehicle(self, v2x_rig):
        clock, bus, vehicle, __, rsu, __ = v2x_rig
        rsu.send_speed_limit(13.0)
        clock.run_until(100.0)
        assert vehicle.target_speed_mps == 13.0
        assert bus.count("obu.speed_limit_accepted") == 1

    def test_non_numeric_speed_limit_ignored(self, v2x_rig):
        clock, bus, vehicle, channel, __, __ = v2x_rig
        from repro.sim.network import Message

        channel.send(Message(
            kind="speed_limit", sender="x",
            payload={"speed_limit_mps": "fast"},
        ))
        clock.run_until(100.0)
        assert vehicle.target_speed_mps == 25.0

    def test_hazard_warnings_counted(self, v2x_rig):
        clock, bus, __, __, rsu, obu = v2x_rig
        for __ in range(3):
            rsu.send_hazard_warning("breakdown ahead")
        clock.run_until(100.0)
        assert obu.warnings_shown == 3
        assert bus.count("obu.hazard_warning_shown") == 3

    def test_periodic_broadcast(self, v2x_rig):
        clock, bus, __, __, rsu, __ = v2x_rig
        rsu.broadcast_periodically(500.0, 1500.0, 8.0, until=2600.0)
        clock.run_until(3000.0)
        assert bus.count("channel.v2x.delivered") == 5


@pytest.fixture()
def ble_rig():
    clock = SimClock()
    bus = EventBus()
    keystore = KeyStore()
    ble = Channel("ble", clock, bus, latency_ms=5.0)
    can = CanBus("body", clock, bus, frame_time_ms=1.0)
    lock = DoorLock(clock, bus)
    access = AccessEcu("ECU_GW", clock, bus, can)
    ble.attach(access)
    can.attach(DoorLockEcu("door-ecu", clock, bus, lock))
    phone = Smartphone("phone", "KEY-1", clock, ble, keystore)
    return clock, bus, ble, can, lock, access, phone


class TestKeylessEntry:
    def test_open_and_close_round_trip(self, ble_rig):
        clock, bus, __, __, lock, __, phone = ble_rig
        bus.retain("door.opened")
        phone.send_open()
        clock.run_until(100.0)
        assert lock.state is DoorState.OPEN
        assert bus.last("door.opened").data["actor"] == "phone"
        phone.send_close()
        clock.run_until(200.0)
        assert lock.state is DoorState.CLOSED

    def test_commands_carry_key_id_and_are_signed(self, ble_rig):
        __, __, __, __, __, __, phone = ble_rig
        message = phone.send_open()
        assert message.payload["key_id"] == "KEY-1"
        assert message.auth_tag
        assert message.counter == 1

    def test_idempotent_lock_operations(self, ble_rig):
        clock, __, __, __, lock, __, phone = ble_rig
        phone.send_open()
        phone.send_open()
        clock.run_until(200.0)
        assert lock.open_count == 1

    def test_diag_requests_forwarded_with_higher_priority(self, ble_rig):
        clock, bus, ble, can, __, __, phone = ble_rig
        from repro.sim.network import Message

        bus.retain("can.body.frame")
        ble.send(Message(
            kind="diag_request", sender="tester", payload={"request": 1},
        ))
        clock.run_until(100.0)
        frames = bus.events("can.body.frame")
        assert len(frames) == 1
        assert frames[0].data["can_id"] == 0x100

    def test_non_door_frames_ignored_by_door_ecu(self, ble_rig):
        clock, __, __, can, lock, __, __ = ble_rig
        from repro.sim.can import make_frame

        can.send(make_frame("x", 0x300, kind="other"))
        clock.run_until(100.0)
        assert lock.state is DoorState.CLOSED
