"""Tests for the discrete-event kernel (clock, engine)."""

import datetime

import pytest

from repro.sim.clock import SimClock
from repro.sim.engine import Engine, StopSimulation


class TestClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance(self):
        c = SimClock()
        c.advance_to(10.0)
        assert c.now == 10.0

    def test_rejects_backwards(self):
        c = SimClock()
        c.advance_to(5.0)
        with pytest.raises(ValueError):
            c.advance_to(4.0)

    def test_datetime_anchor(self):
        c = SimClock(epoch=datetime.datetime(2025, 4, 1))
        c.advance_to(86400.0)
        assert c.to_datetime() == datetime.datetime(2025, 4, 2)

    def test_hour_of_day(self):
        c = SimClock(epoch=datetime.datetime(2025, 4, 1, 0, 0, 0))
        assert c.hour_of_day(3600.0 * 15.5) == pytest.approx(15.5)


class TestEngineScheduling:
    def test_executes_in_time_order(self):
        e = Engine()
        order = []
        e.schedule_at(5.0, lambda: order.append("b"))
        e.schedule_at(1.0, lambda: order.append("a"))
        e.run()
        assert order == ["a", "b"]

    def test_fifo_for_simultaneous_events(self):
        e = Engine()
        order = []
        for i in range(10):
            e.schedule_at(1.0, lambda i=i: order.append(i))
        e.run()
        assert order == list(range(10))

    def test_clock_advances_with_events(self):
        e = Engine()
        seen = []
        e.schedule_at(3.0, lambda: seen.append(e.now))
        e.run()
        assert seen == [3.0]

    def test_rejects_past_scheduling(self):
        e = Engine()
        e.schedule_at(2.0, lambda: None)
        e.run()
        with pytest.raises(ValueError):
            e.schedule_at(1.0, lambda: None)

    def test_rejects_negative_delay(self):
        e = Engine()
        with pytest.raises(ValueError):
            e.schedule_in(-1.0, lambda: None)

    def test_schedule_in_is_relative(self):
        e = Engine()
        times = []
        e.schedule_at(10.0, lambda: e.schedule_in(5.0, lambda: times.append(e.now)))
        e.run()
        assert times == [15.0]


class TestEngineCancellation:
    def test_cancelled_event_not_run(self):
        e = Engine()
        hits = []
        ev = e.schedule_at(1.0, lambda: hits.append(1))
        ev.cancel()
        e.run()
        assert hits == []

    def test_pending_ignores_cancelled(self):
        e = Engine()
        ev = e.schedule_at(1.0, lambda: None)
        e.schedule_at(2.0, lambda: None)
        ev.cancel()
        assert e.pending() == 1

    def test_peek_skips_cancelled(self):
        e = Engine()
        ev = e.schedule_at(1.0, lambda: None)
        e.schedule_at(2.0, lambda: None)
        ev.cancel()
        assert e.peek_time() == 2.0


class TestEngineRun:
    def test_until_horizon_executes_boundary(self):
        e = Engine()
        hits = []
        e.schedule_at(5.0, lambda: hits.append("on"))
        e.schedule_at(5.1, lambda: hits.append("after"))
        e.run(until=5.0)
        assert hits == ["on"]
        assert e.now == 5.0

    def test_clock_lands_on_horizon_without_events(self):
        e = Engine()
        e.run(until=100.0)
        assert e.now == 100.0

    def test_max_events_budget(self):
        e = Engine()
        hits = []
        for i in range(10):
            e.schedule_at(float(i), lambda: hits.append(1))
        e.run(max_events=3)
        assert len(hits) == 3

    def test_stop_simulation(self):
        e = Engine()
        hits = []

        def boom():
            raise StopSimulation()

        e.schedule_at(1.0, lambda: hits.append(1))
        e.schedule_at(2.0, boom)
        e.schedule_at(3.0, lambda: hits.append(3))
        e.run()
        assert hits == [1]

    def test_events_scheduled_during_run(self):
        e = Engine()
        hits = []

        def chain(n):
            hits.append(n)
            if n < 3:
                e.schedule_in(1.0, lambda: chain(n + 1))

        e.schedule_at(0.0, lambda: chain(0))
        e.run()
        assert hits == [0, 1, 2, 3]

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    def test_events_executed_counter(self):
        e = Engine()
        for i in range(4):
            e.schedule_at(float(i), lambda: None)
        e.run()
        assert e.events_executed == 4

