"""Tests for ECUs (queueing, overload, shutdown, routing) and the CAN bus."""

import pytest

from repro.errors import SimulationError
from repro.sim.can import CanBus, make_frame
from repro.sim.clock import SimClock
from repro.sim.ecu import Ecu, Gateway
from repro.sim.events import EventBus
from repro.sim.network import Message


class RecordingEcu(Ecu):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.handled = []

    def handle(self, message):
        self.handled.append(message)


@pytest.fixture()
def env():
    return SimClock(), EventBus()


def msg(kind="k", sender="s", **payload):
    return Message(kind=kind, sender=sender, payload=payload)


class TestEcuQueueing:
    def test_messages_processed_after_service_time(self, env):
        clock, bus = env
        ecu = RecordingEcu("E", clock, bus, service_time_ms=2.0)
        ecu.receive(msg())
        clock.run_until(1.0)
        assert ecu.handled == []
        clock.run_until(3.0)
        assert len(ecu.handled) == 1

    def test_sequential_service(self, env):
        clock, bus = env
        ecu = RecordingEcu("E", clock, bus, service_time_ms=2.0)
        ecu.receive(msg())
        ecu.receive(msg())
        clock.run_until(3.0)
        assert len(ecu.handled) == 1  # second finishes at 4ms
        clock.run_until(5.0)
        assert len(ecu.handled) == 2

    def test_backlog_metric(self, env):
        clock, bus = env
        ecu = RecordingEcu("E", clock, bus, service_time_ms=5.0)
        for __ in range(4):
            ecu.receive(msg())
        assert ecu.backlog_ms == pytest.approx(20.0)

    def test_overload_drops_and_publishes(self, env):
        clock, bus = env
        ecu = RecordingEcu(
            "E", clock, bus, service_time_ms=10.0, queue_capacity=2
        )
        for __ in range(5):
            ecu.receive(msg())
        assert ecu.stats["overloaded"] == 3
        assert bus.count("ecu.E.overload") == 3

    def test_shutdown_after_sustained_overload(self, env):
        clock, bus = env
        ecu = RecordingEcu(
            "E", clock, bus, service_time_ms=10.0, queue_capacity=1,
            shutdown_after_overloads=3,
        )
        for __ in range(6):
            ecu.receive(msg())
        assert ecu.is_shut_down
        assert bus.count("ecu.E.shutdown") == 1
        # The pre-shutdown queue (1 slot) drains, then nothing more is
        # accepted -- a shut-down ECU ignores even valid traffic.
        clock.run()
        assert ecu.stats["processed"] == 1
        ecu.receive(msg())
        clock.run()
        assert ecu.stats["processed"] == 1

    def test_rejected_messages_not_queued(self, env):
        from repro.sim.controls import IdWhitelist

        clock, bus = env
        ecu = RecordingEcu("E", clock, bus)
        ecu.pipeline.add(IdWhitelist({"GOOD"}))
        ecu.receive(msg(kind="open_command", key_id="BAD"))
        clock.run()
        assert ecu.handled == []
        assert ecu.stats["rejected"] == 1

    def test_invalid_parameters(self, env):
        clock, bus = env
        with pytest.raises(SimulationError):
            Ecu("E", clock, bus, service_time_ms=0)
        with pytest.raises(SimulationError):
            Ecu("E", clock, bus, queue_capacity=0)
        with pytest.raises(SimulationError):
            Ecu("E", clock, bus, shutdown_after_overloads=0)


class TestGateway:
    def test_routing_with_transform(self, env):
        clock, bus = env
        can = CanBus("body", clock, bus, frame_time_ms=1.0)
        sink = RecordingEcu("sink", clock, bus)
        can.attach(sink)
        gateway = Gateway("GW", clock, bus, service_time_ms=0.5)
        gateway.add_route(
            "cmd", can,
            lambda m: make_frame("GW", 0x100, kind="frame", data=m.payload["x"]),
        )
        gateway.receive(msg(kind="cmd", x=42))
        clock.run()
        assert len(sink.handled) == 1
        assert sink.handled[0].payload["data"] == 42
        assert gateway.forwarded == 1

    def test_unrouted_kinds_are_absorbed(self, env):
        clock, bus = env
        gateway = Gateway("GW", clock, bus)
        gateway.receive(msg(kind="unknown"))
        clock.run()
        assert gateway.forwarded == 0

    def test_duplicate_route_rejected(self, env):
        clock, bus = env
        gateway = Gateway("GW", clock, bus)
        gateway.add_route("cmd", object())
        with pytest.raises(SimulationError):
            gateway.add_route("cmd", object())


class TestCanBus:
    def test_frames_need_integer_can_id(self, env):
        clock, bus = env
        can = CanBus("c", clock, bus)
        with pytest.raises(SimulationError):
            can.send(msg())
        with pytest.raises(SimulationError):
            can.send(Message(kind="k", sender="s", payload={"can_id": "x"}))

    def test_broadcast_delivery(self, env):
        clock, bus = env
        can = CanBus("c", clock, bus, frame_time_ms=1.0)
        a, b = RecordingEcu("a", clock, bus), RecordingEcu("b", clock, bus)
        can.attach(a)
        can.attach(b)
        can.send(make_frame("s", 0x100))
        clock.run()
        assert len(a.handled) == 1
        assert len(b.handled) == 1

    def test_arbitration_prefers_low_ids(self, env):
        clock, bus = env
        can = CanBus("c", clock, bus, frame_time_ms=1.0)
        order = []

        class Sniffer:
            name = "sniffer"

            def receive(self, frame):
                order.append(frame.payload["can_id"])

        can.attach(Sniffer())
        # Three frames contend for the bus; arbitration picks the lowest
        # CAN id among everything pending at each slot boundary.
        can.send(make_frame("s", 0x300))
        can.send(make_frame("s", 0x200))
        can.send(make_frame("s", 0x100))
        clock.run()
        assert order == [0x100, 0x200, 0x300]

    def test_serialisation_takes_frame_time(self, env):
        clock, bus = env
        can = CanBus("c", clock, bus, frame_time_ms=2.0)
        delivery_times = []

        class Sniffer:
            name = "sniffer"

            def receive(self, frame):
                delivery_times.append(clock.now)

        can.attach(Sniffer())
        for __ in range(3):
            can.send(make_frame("s", 0x100))
        clock.run()
        assert delivery_times == [
            pytest.approx(2.0), pytest.approx(4.0), pytest.approx(6.0),
        ]

    def test_queue_overflow_loses_frames(self, env):
        clock, bus = env
        can = CanBus("c", clock, bus, frame_time_ms=1.0, queue_capacity=2)
        for __ in range(5):
            can.send(make_frame("s", 0x100))
        assert can.stats["lost"] >= 1
        assert bus.count("can.c.lost") == can.stats["lost"]

    def test_latency_trace(self, env):
        clock, bus = env
        can = CanBus("c", clock, bus, frame_time_ms=1.0)
        bus.retain("can.c.frame")
        can.send(make_frame("s", 0x100))
        can.send(make_frame("s", 0x101))
        clock.run()
        latencies = can.delivery_latencies()
        assert len(latencies) == 2
        assert latencies[1] > latencies[0]

    def test_latency_trace_without_retain_raises(self, env):
        clock, bus = env
        can = CanBus("c", clock, bus, frame_time_ms=1.0)
        can.send(make_frame("s", 0x100))
        clock.run()
        assert bus.count("can.c.frame") == 1
        with pytest.raises(
            SimulationError, match=r"bus\.retain\('can\.c\.frame'\)"
        ):
            can.delivery_latencies()

    def test_invalid_parameters(self, env):
        clock, bus = env
        with pytest.raises(SimulationError):
            CanBus("c", clock, bus, frame_time_ms=0)
        with pytest.raises(SimulationError):
            CanBus("c", clock, bus, queue_capacity=0)
