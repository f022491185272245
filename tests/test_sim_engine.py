"""Tests for the discrete-event engine."""

import pytest

from repro.sim import SimulationError, Simulator


class TestScheduling:
    def test_initial_time_is_zero(self, sim):
        assert sim.now == 0.0

    def test_custom_start_time(self):
        sim = Simulator(seed=1, start_time=10.0)
        assert sim.now == 10.0

    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_in_schedule_order(self, sim):
        order = []
        for label in "abcde":
            sim.schedule(1.0, order.append, label)
        sim.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_schedule_at_absolute_time(self, sim):
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_call_soon_runs_at_current_time(self, sim):
        seen = []
        sim.schedule(1.0, lambda: sim.call_soon(lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [1.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_the_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_non_callable_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(1.0, "not callable")

    def test_nan_time_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)

    def test_callback_arguments_forwarded(self, sim):
        seen = []
        sim.schedule(1.0, lambda a, b, key=None: seen.append((a, b, key)), 1, 2, key="x")
        sim.run()
        assert seen == [(1, 2, "x")]


class TestCancellation:
    def test_cancelled_event_does_not_run(self, sim):
        seen = []
        event = sim.schedule(1.0, seen.append, "x")
        event.cancel()
        sim.run()
        assert seen == []

    def test_cancel_via_simulator_helper(self, sim):
        seen = []
        event = sim.schedule(1.0, seen.append, "x")
        sim.cancel(event)
        sim.run()
        assert seen == []

    def test_cancel_none_is_noop(self, sim):
        sim.cancel(None)

    def test_cancel_after_execution_is_noop(self, sim):
        seen = []
        event = sim.schedule(1.0, seen.append, "x")
        sim.run()
        event.cancel()
        assert seen == ["x"]
        assert event.executed
        assert not event.cancelled

    def test_pending_flag_lifecycle(self, sim):
        event = sim.schedule(1.0, lambda: None)
        assert event.pending
        sim.run()
        assert not event.pending
        assert event.executed


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, "early")
        sim.schedule(5.0, seen.append, "late")
        sim.run(until=2.0)
        assert seen == ["early"]
        assert sim.now == 2.0

    def test_run_until_then_continue(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, "early")
        sim.schedule(5.0, seen.append, "late")
        sim.run(until=2.0)
        sim.run()
        assert seen == ["early", "late"]

    def test_run_advances_clock_to_until_even_when_idle(self, sim):
        sim.run(until=30.0)
        assert sim.now == 30.0

    def test_max_events_limit(self, sim):
        seen = []
        for index in range(10):
            sim.schedule(index + 1.0, seen.append, index)
        sim.run(max_events=3)
        assert seen == [0, 1, 2]

    def test_step_executes_one_event(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(2.0, seen.append, "b")
        assert sim.step() is True
        assert seen == ["a"]

    def test_step_on_empty_queue_returns_false(self, sim):
        assert sim.step() is False

    def test_processed_events_counter(self, sim):
        for index in range(5):
            sim.schedule(float(index + 1), lambda: None)
        sim.run()
        assert sim.processed_events == 5

    def test_pending_events_counter(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
        events[0].cancel()
        assert sim.pending_events == 3

    def test_events_scheduled_during_run_are_executed(self, sim):
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 3:
                sim.schedule(1.0, chain, depth + 1)

        sim.schedule(1.0, chain, 0)
        sim.run()
        assert seen == [0, 1, 2, 3]

    def test_run_until_idle_guard(self, sim):
        def forever():
            sim.schedule(0.001, forever)

        sim.schedule(0.001, forever)
        sim.run_until_idle(max_events=100)
        assert sim.processed_events == 100

    def test_determinism_across_instances(self):
        def workload(simulator):
            values = []
            for _ in range(50):
                simulator.schedule(simulator.random.uniform(0, 10), values.append, simulator.random.random())
            simulator.run()
            return values

        assert workload(Simulator(seed=5)) == workload(Simulator(seed=5))

    def test_different_seeds_differ(self):
        a = Simulator(seed=1).random.random()
        b = Simulator(seed=2).random.random()
        assert a != b


class TestCompaction:
    def test_compact_drops_cancelled_entries(self, sim):
        keep = [sim.schedule(1.0, lambda: None) for _ in range(5)]
        drop = [sim.schedule(2.0, lambda: None) for _ in range(20)]
        for event in drop:
            event.cancel()
        assert sim.queued_entries == 25
        assert sim.compact() == 20
        assert sim.queued_entries == 5
        assert sim.pending_events == 5
        assert all(event.pending for event in keep)

    def test_compact_preserves_execution_order(self, sim):
        order = []
        sim.schedule(3.0, order.append, "c")
        doomed = sim.schedule(1.5, order.append, "x")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        doomed.cancel()
        sim.compact()
        sim.run()
        assert order == ["a", "b", "c"]

    def test_compact_on_empty_queue(self, sim):
        assert sim.compact() == 0

    def test_compact_rejected_while_running(self, sim):
        failures = []

        def inside():
            try:
                sim.compact()
            except SimulationError:
                failures.append(True)

        sim.schedule(1.0, inside)
        sim.run()
        assert failures == [True]

    def test_pending_events_excludes_cancelled_without_compact(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        assert sim.pending_events == 0
        assert sim.queued_entries == 1


    def test_auto_compaction_inside_run_bounds_the_debris(self, sim):
        """An RTO-style timer re-armed from every ACK-style callback strands
        one cancelled entry per restart behind the live events; ``run()``
        sweeps them whenever the constant is reached, and what fires — and
        in which order — is what would fire with no debris at all."""
        from repro.sim import Timer
        from repro.sim.engine import _AUTO_COMPACT_THRESHOLD

        restarts = 3 * _AUTO_COMPACT_THRESHOLD + 500
        order, debris = [], []
        timer = Timer(sim, lambda: order.append("rto"))
        for index in range(40):  # same-time survivors: heap order must outlive every sweep
            sim.schedule(5.0, order.append, f"late{index}")

        def ack(index):
            order.append(index)
            timer.start(10.0)
            debris.append(sim.queued_entries - sim.pending_events)
            if index + 1 < restarts:
                sim.schedule(0.001, ack, index + 1)

        sim.schedule(0.001, ack, 0)
        sim.run()
        assert max(debris) == _AUTO_COMPACT_THRESHOLD
        assert order == list(range(restarts)) + [f"late{index}" for index in range(40)] + ["rto"]
        assert sim.processed_events == restarts + 41
        assert sim.queued_entries == sim.pending_events == 0


class TestPooledAndRearmedEvents:
    def test_pooled_events_share_the_sequence_with_schedule(self, sim):
        order = []
        sim.schedule(1.0, order.append, "a")
        sim.schedule_pooled(1.0, order.append, "b")
        sim.schedule(1.0, order.append, "c")
        sim.schedule_pooled(0.5, order.append, "first")
        assert sim.pending_events == 4
        sim.run()
        assert order == ["first", "a", "b", "c"]

    def test_recycled_event_fires_only_its_new_callback(self, sim):
        order = []
        sim.schedule_pooled(1.0, order.append, "old")
        sim.run()
        # The spent event is reused for the next pooled schedule ...
        sim.schedule_pooled(1.0, order.append, "new")
        sim.schedule_pooled(2.0, order.append, "fresh")
        sim.run()
        # ... and runs the new callback once; the old one never comes back.
        assert order == ["old", "new", "fresh"]
        assert sim.processed_events == 3

    def test_pooled_time_is_validated(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_pooled(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_pooled(float("nan"), lambda: None)

    def test_rearm_fires_the_same_event_again_in_schedule_order(self, sim):
        order = []
        event = sim.schedule(1.0, order.append, "wakeup")
        sim.run()
        sim.schedule(1.0, order.append, "before")
        sim.rearm(event, 1.0)
        sim.schedule(1.0, order.append, "after")
        assert event.pending and sim.pending_events == 3
        sim.run()
        assert order == ["wakeup", "before", "wakeup", "after"]
        assert event.executed and sim.now == 2.0

    def test_rearm_requires_an_event_that_already_ran(self, sim):
        event = sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.rearm(event, 1.0)
        event.cancel()  # cancelled but still queued under its old key
        with pytest.raises(SimulationError):
            sim.rearm(event, 1.0)
        assert sim.pending_events == 0
        spent = sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.rearm(spent, -1.0)


class TestSeedDerivation:
    def test_derive_seed_is_stable(self):
        from repro.sim import derive_seed

        assert derive_seed(1, "a", "b", 0) == derive_seed(1, "a", "b", 0)

    def test_derive_seed_depends_on_every_component(self):
        from repro.sim import derive_seed

        base = derive_seed(1, "exp", "scen", 0)
        assert base != derive_seed(2, "exp", "scen", 0)
        assert base != derive_seed(1, "exp2", "scen", 0)
        assert base != derive_seed(1, "exp", "scen", 1)

    def test_derive_seed_component_boundaries(self):
        from repro.sim import derive_seed

        # ("ab", "c") must not collide with ("a", "bc").
        assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")

    def test_derive_seed_range(self):
        from repro.sim import derive_seed

        for index in range(50):
            seed = derive_seed(7, "cell", index)
            assert 0 <= seed < 2**63
