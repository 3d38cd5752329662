"""Tests for the discrete-event clock and the event bus."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import EventBus

NAN = float("nan")


class TestSimClock:
    def test_events_execute_in_time_order(self):
        clock = SimClock()
        order = []
        clock.schedule_at(20, lambda: order.append("b"))
        clock.schedule_at(10, lambda: order.append("a"))
        clock.schedule_at(30, lambda: order.append("c"))
        clock.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        clock = SimClock()
        order = []
        clock.schedule_at(10, lambda: order.append("first"))
        clock.schedule_at(10, lambda: order.append("second"))
        clock.run()
        assert order == ["first", "second"]

    def test_run_until_advances_exactly(self):
        clock = SimClock()
        clock.schedule_at(100, lambda: None)
        executed = clock.run_until(50)
        assert executed == 0
        assert clock.now == 50
        executed = clock.run_until(150)
        assert executed == 1
        assert clock.now == 150

    def test_callbacks_see_their_scheduled_time(self):
        clock = SimClock()
        seen = []
        clock.schedule_at(42, lambda: seen.append(clock.now))
        clock.run()
        assert seen == [42]

    def test_events_may_schedule_events(self):
        clock = SimClock()
        log = []

        def first():
            log.append(clock.now)
            clock.schedule(5, lambda: log.append(clock.now))

        clock.schedule_at(10, first)
        clock.run()
        assert log == [10, 15]

    def test_scheduling_in_the_past_rejected(self):
        clock = SimClock()
        clock.run_until(100)
        with pytest.raises(SimulationError):
            clock.schedule_at(50, lambda: None)
        with pytest.raises(SimulationError):
            clock.schedule(-1, lambda: None)

    def test_running_backwards_rejected(self):
        clock = SimClock()
        clock.run_until(100)
        with pytest.raises(SimulationError):
            clock.run_until(50)

    def test_cancellation(self):
        clock = SimClock()
        fired = []
        handle = clock.schedule_at(10, lambda: fired.append(1))
        handle.cancel()
        clock.run()
        assert fired == []
        assert handle.cancelled

    def test_periodic_scheduling(self):
        clock = SimClock()
        times = []
        clock.schedule_periodic(10, lambda: times.append(clock.now), until=45)
        clock.run()
        assert times == [10, 20, 30, 40]

    def test_periodic_with_start(self):
        clock = SimClock()
        times = []
        clock.schedule_periodic(
            10, lambda: times.append(clock.now), start=5, until=30
        )
        clock.run()
        assert times == [5, 15, 25]

    @pytest.mark.parametrize("until, expected", [(5, []), (10, [10])])
    def test_periodic_until_at_or_before_first_occurrence(
        self, until, expected
    ):
        """An ``until`` before the first occurrence schedules nothing."""
        clock = SimClock()
        times = []
        clock.schedule_periodic(
            10, lambda: times.append(clock.now), until=until
        )
        assert clock.pending == len(expected)
        clock.run_until(100.0)
        assert times == expected

    def test_nan_periodic_until_rejected(self):
        clock = SimClock()
        times = []
        with pytest.raises(SimulationError, match="NaN"):
            clock.schedule_periodic(
                10, lambda: times.append(clock.now), until=NAN
            )
        assert clock.pending == 0
        clock.run_until(100.0)
        assert times == []

    def test_periodic_needs_positive_period(self):
        with pytest.raises(SimulationError):
            SimClock().schedule_periodic(0, lambda: None)

    def test_nan_schedule_at_rejected(self):
        """A NaN time compares false both ways; at the heap top it would
        stop every later event for good."""
        clock = SimClock()
        fired = []
        clock.schedule_at(1.0, lambda: fired.append(1.0))
        with pytest.raises(SimulationError):
            clock.schedule_at(NAN, lambda: fired.append("nan"))
        clock.schedule_at(5.0, lambda: fired.append(5.0))
        assert clock.run_until(10.0) == 2
        assert fired == [1.0, 5.0]

    def test_nan_delay_rejected(self):
        clock = SimClock()
        with pytest.raises(SimulationError, match="NaN delay"):
            clock.schedule(NAN, lambda: None)
        assert clock.pending == 0

    def test_nan_post_rejected(self):
        clock = SimClock()
        with pytest.raises(SimulationError):
            clock.post(NAN, lambda: None)
        assert clock.pending == 0

    @pytest.mark.parametrize(
        "period, start", [(NAN, None), (10.0, NAN)]
    )
    def test_nan_periodic_rejected(self, period, start):
        clock = SimClock()
        with pytest.raises(SimulationError):
            clock.schedule_periodic(period, lambda: None, start=start)
        assert clock.pending == 0

    def test_nan_lane_push_rejected(self):
        clock = SimClock()
        fired = []
        lane = clock.lane(fired.append)
        lane.push(1.0, "a")
        with pytest.raises(SimulationError):
            lane.push(NAN, "nan")
        lane.push(5.0, "b")
        assert clock.run_until(10.0) == 2
        assert fired == ["a", "b"]

    def test_nan_run_until_rejected(self):
        clock = SimClock()
        clock.schedule_at(1.0, lambda: None)
        with pytest.raises(SimulationError):
            clock.run_until(NAN)
        assert clock.now == 0.0
        assert clock.run_until(2.0) == 1

    def test_pending_count(self):
        clock = SimClock()
        handle = clock.schedule_at(10, lambda: None)
        clock.schedule_at(20, lambda: None)
        assert clock.pending == 2
        handle.cancel()
        assert clock.pending == 1


class TestEventBus:
    def test_publish_and_trace(self):
        bus = EventBus()
        bus.retain("")
        bus.publish(1.0, "a.b", "src", value=1)
        bus.publish(2.0, "a.c", "src")
        assert len(bus.events("")) == 2
        assert bus.events("")[0].data["value"] == 1

    def test_prefix_subscription(self):
        bus = EventBus()
        received = []
        bus.subscribe("v2x", received.append)
        bus.publish(1.0, "v2x.warning", "obu")
        bus.publish(2.0, "can.frame", "bus")
        assert [event.topic for event in received] == ["v2x.warning"]

    def test_empty_prefix_receives_everything(self):
        bus = EventBus()
        received = []
        bus.subscribe("", received.append)
        bus.publish(1.0, "x", "s")
        bus.publish(2.0, "y.z", "s")
        assert len(received) == 2

    def test_prefix_must_match_segment_boundary(self):
        bus = EventBus()
        bus.publish(1.0, "v2xtra.topic", "s")
        assert bus.count("v2x") == 0

    def test_events_query_and_last(self):
        bus = EventBus()
        bus.retain("")
        bus.publish(1.0, "door.opened", "door", actor="a")
        bus.publish(2.0, "door.opened", "door", actor="b")
        assert bus.count("door.opened") == 2
        assert bus.last("door.opened").data["actor"] == "b"
        assert bus.last("missing") is None

    def test_clear_keeps_subscriptions(self):
        bus = EventBus()
        received = []
        bus.subscribe("t", received.append)
        bus.retain("")
        bus.publish(1.0, "t", "s")
        bus.clear()
        assert bus.events("") == ()
        bus.publish(2.0, "t", "s")
        assert len(received) == 2
