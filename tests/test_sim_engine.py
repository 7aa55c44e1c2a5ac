"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Engine, SimulationError


class TestScheduling:
    def test_starts_at_time_zero(self):
        assert Engine().now == 0

    def test_at_runs_at_absolute_time(self):
        eng = Engine()
        seen = []
        eng.at(50, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [50]

    def test_after_runs_relative_to_now(self):
        eng = Engine()
        seen = []
        eng.after(10, lambda: eng.after(5, lambda: seen.append(eng.now)))
        eng.run()
        assert seen == [15]

    def test_args_are_passed(self):
        eng = Engine()
        seen = []
        eng.after(1, seen.append, "payload")
        eng.run()
        assert seen == ["payload"]

    def test_events_fire_in_time_order(self):
        eng = Engine()
        seen = []
        eng.at(30, seen.append, "c")
        eng.at(10, seen.append, "a")
        eng.at(20, seen.append, "b")
        eng.run()
        assert seen == ["a", "b", "c"]

    def test_same_time_events_fire_in_schedule_order(self):
        eng = Engine()
        seen = []
        for label in "abcde":
            eng.at(7, seen.append, label)
        eng.run()
        assert seen == list("abcde")

    def test_scheduling_in_the_past_raises(self):
        eng = Engine()
        eng.after(10, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.at(5, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Engine().after(-1, lambda: None)

    def test_zero_delay_runs_at_current_time(self):
        eng = Engine()
        seen = []
        eng.after(10, lambda: eng.after(0, lambda: seen.append(eng.now)))
        eng.run()
        assert seen == [10]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        eng = Engine()
        seen = []
        handle = eng.after(10, seen.append, "x")
        handle.cancel()
        eng.run()
        assert seen == []

    def test_cancel_is_idempotent(self):
        eng = Engine()
        handle = eng.after(10, lambda: None)
        handle.cancel()
        handle.cancel()
        assert eng.run() == 0

    def test_cancel_releases_live_count(self):
        # With only a daemon timer left, run() returns before firing
        # it; a cancel that kept the live count would fire 50 ticks.
        eng = Engine()
        handle = eng.after(10, lambda: None)
        handle.cancel()
        eng.every(1, lambda: None)
        assert eng.run(max_events=50) == 0

    def test_cancelling_one_of_two_leaves_other(self):
        eng = Engine()
        seen = []
        eng.after(10, seen.append, "keep")
        handle = eng.after(5, seen.append, "drop")
        handle.cancel()
        eng.run()
        assert seen == ["keep"]

    def test_cancel_after_fire_is_a_noop(self):
        # Regression: cancelling a fired handle used to decrement the
        # live-event count a second time, so a later non-daemon event
        # made run() return while work was still queued.
        eng = Engine()
        handle = eng.after(1, lambda: None)
        eng.run()
        handle.cancel()
        timer = eng.every(1, lambda: None)
        assert eng.run(max_events=50) == 0
        timer.stop()
        seen = []
        eng.after(5, seen.append, "late")
        eng.run()
        assert seen == ["late"]

    def test_cancel_after_fire_from_within_callback(self):
        # A slice-handle-style pattern: the callback body cancels its
        # own handle (already marked fired by the engine).
        eng = Engine()
        handles = []
        handles.append(eng.after(1, lambda: handles[0].cancel()))
        eng.run()
        timer = eng.every(1, lambda: None)
        assert eng.run(max_events=50) == 0
        timer.stop()
        seen = []
        eng.after(1, seen.append, "next")
        eng.run()
        assert seen == ["next"]


class TestRun:
    def test_run_returns_event_count(self):
        eng = Engine()
        for i in range(5):
            eng.after(i + 1, lambda: None)
        assert eng.run() == 5

    def test_run_until_stops_the_clock_at_deadline(self):
        eng = Engine()
        eng.after(100, lambda: None)
        eng.run(until=40)
        assert eng.now == 40

    def test_run_until_executes_events_at_deadline(self):
        eng = Engine()
        seen = []
        eng.at(40, seen.append, "edge")
        eng.run(until=40)
        assert seen == ["edge"]

    def test_run_until_leaves_later_events_pending(self):
        eng = Engine()
        seen = []
        eng.at(41, seen.append, "later")
        eng.run(until=40)
        assert seen == []
        eng.run()
        assert seen == ["later"]

    def test_max_events_bound(self):
        eng = Engine()
        for i in range(10):
            eng.after(i + 1, lambda: None)
        assert eng.run(max_events=3) == 3

    def test_engine_is_not_reentrant(self):
        eng = Engine()
        failures = []

        def recurse():
            try:
                eng.run()
            except SimulationError:
                failures.append(True)

        eng.after(1, recurse)
        eng.run()
        assert failures == [True]

    def test_step_runs_one_event(self):
        eng = Engine()
        seen = []
        eng.after(1, seen.append, "a")
        eng.after(2, seen.append, "b")
        assert eng.step() is True
        assert seen == ["a"]

    def test_step_on_empty_queue_returns_false(self):
        assert Engine().step() is False

    def test_step_fires_daemon_timers_one_at_a_time(self):
        # The idle probe and skip_fn would let run() elide the ticks
        # before t=100; step() fires each occurrence instead.
        eng = Engine()
        fired, skipped = [], []
        eng.set_idle_probe(lambda: True)
        eng.every(10, lambda: fired.append(eng.now), skip_fn=skipped.append)
        eng.after(100, lambda: None)
        assert eng.step() is True
        assert eng.step() is True
        assert fired == [10, 20]
        assert skipped == []

    def test_step_calls_the_sanitizer(self):
        eng = Engine()
        checks = []
        eng.set_sanitizer(lambda: checks.append(eng.now))
        eng.after(5, lambda: None)
        assert eng.step() is True
        assert checks == [5]

    def test_step_drains_cancelled_events_without_moving_the_clock(self):
        eng = Engine()
        seen = []
        eng.after(5, seen.append, "dead").cancel()
        eng.after(9, seen.append, "live")
        assert eng.step() is True
        assert seen == ["live"]
        assert eng.now == 9
        eng.after(1, seen.append, "late").cancel()
        assert eng.step() is False
        assert eng.now == 9


class TestDaemonEvents:
    def test_daemon_event_does_not_keep_run_alive(self):
        eng = Engine()
        eng.after(10, lambda: None, daemon=True)
        assert eng.run() == 0

    def test_daemon_events_run_before_live_work_drains(self):
        eng = Engine()
        seen = []
        eng.after(5, seen.append, "daemon", daemon=True)
        eng.after(10, seen.append, "real")
        eng.run()
        assert seen == ["daemon", "real"]

    def test_periodic_timer_is_daemon_by_default(self):
        eng = Engine()
        ticks = []
        eng.every(10, lambda: ticks.append(eng.now))
        eng.after(35, lambda: None)
        eng.run()
        assert ticks == [10, 20, 30]

    def test_run_until_advances_daemons(self):
        eng = Engine()
        ticks = []
        eng.every(10, lambda: ticks.append(eng.now))
        eng.run(until=55)
        assert ticks == [10, 20, 30, 40, 50]
        assert eng.now == 55

    def test_periodic_timer_stop(self):
        eng = Engine()
        ticks = []
        timer = eng.every(10, lambda: ticks.append(eng.now))
        eng.at(25, timer.stop)
        eng.run(until=100)
        assert ticks == [10, 20]

    def test_periodic_timer_stop_is_idempotent(self):
        eng = Engine()
        timer = eng.every(10, lambda: None)
        timer.stop()
        timer.stop()

    def test_periodic_timer_custom_start(self):
        eng = Engine()
        ticks = []
        eng.every(10, lambda: ticks.append(eng.now), start=3)
        eng.run(until=25)
        assert ticks == [3, 13, 23]

    def test_non_positive_period_raises(self):
        with pytest.raises(SimulationError):
            Engine().every(0, lambda: None)

    def test_timer_stopping_itself_mid_fire(self):
        eng = Engine()
        ticks = []
        holder = {}

        def fire():
            ticks.append(eng.now)
            if len(ticks) == 2:
                holder["t"].stop()

        holder["t"] = eng.every(10, fire)
        eng.run(until=100)
        assert ticks == [10, 20]


class TestDeterminism:
    def test_rng_depends_on_seed(self):
        a = Engine(seed=1).rng.random()
        b = Engine(seed=2).rng.random()
        assert a != b

    def test_same_seed_same_stream(self):
        assert Engine(seed=7).rng.random() == Engine(seed=7).rng.random()

    def test_forked_streams_are_independent_of_order(self):
        eng1 = Engine(seed=3)
        first_a = eng1.fork_rng("a").random()
        eng2 = Engine(seed=3)
        eng2.fork_rng("b").random()  # extra consumer must not perturb "a"
        assert eng2.fork_rng("a").random() == first_a

    def test_seed_property(self):
        assert Engine(seed=42).seed == 42
