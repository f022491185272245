"""Tests for timers, random sub-streams and latency models."""

import pytest

from repro.sim import (
    ConstantLatency,
    LogNormalLatency,
    NormalLatency,
    PeriodicTimer,
    RandomSource,
    ShiftedLatency,
    Timer,
)


class TestTimer:
    def test_fires_after_delay(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        sim.run()
        assert fired == [2.0]

    def test_restart_replaces_previous_deadline(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        timer.start(5.0)
        sim.run()
        assert fired == [5.0]

    def test_many_restarts_fire_once_at_the_last_expiry(self, sim):
        """Each restart re-keys the timer's one event: the superseded
        deadlines stay queued as dead entries, none of them fires, and the
        timer fires exactly once, at the expiry of its last start."""
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        for step in range(1, 101):
            sim.run(until=step * 0.01)
            timer.start(0.5 + step * 0.01)
        assert timer.expiry == pytest.approx(2.5)
        assert sim.pending_events == 1
        sim.run()
        assert fired == [pytest.approx(2.5)]
        assert not timer.armed
        assert sim.pending_events == 0
        assert sim.compact() == 0  # every dead entry was popped and skipped
        assert sim.queued_entries == 0

    def test_stop_prevents_firing(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        timer.stop()
        sim.run()
        assert fired == []

    def test_armed_and_remaining(self, sim):
        timer = Timer(sim, lambda: None)
        assert not timer.armed
        timer.start(3.0)
        assert timer.armed
        assert timer.remaining == pytest.approx(3.0)
        assert timer.expiry == pytest.approx(3.0)

    def test_not_armed_after_firing(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        sim.run()
        assert not timer.armed
        assert timer.expiry is None

    def test_can_rearm_from_callback(self, sim):
        fired = []
        timer = Timer(sim, lambda: None)

        def callback():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(1.0)

        timer._callback = callback
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_released_timer_drops_its_callback_and_refuses_start(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now), name="rto")
        timer.start(1.0)
        timer.release()
        assert not timer.armed and timer._callback is None
        assert sim.pending_events == 0
        with pytest.raises(RuntimeError, match="'rto' was released"):
            timer.start(1.0)
        sim.run()
        assert fired == []
        assert sim.pending_events == 0


class TestPeriodicTimer:
    def test_ticks_at_interval(self, sim):
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start()
        sim.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_initial_delay_override(self, sim):
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start(initial_delay=0.25)
        sim.run(until=2.5)
        assert ticks == [0.25, 1.25, 2.25]

    def test_stop_ends_series(self, sim):
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start()
        sim.schedule(2.5, timer.stop)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]
        assert not timer.running

    def test_stop_from_callback(self, sim):
        timer = PeriodicTimer(sim, 1.0, lambda: timer.stop())
        timer.start()
        sim.run(until=5.0)
        assert timer.ticks == 1

    def test_double_start_is_noop(self, sim):
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        timer.start()
        timer.start()
        sim.run(until=2.5)
        assert ticks == [1.0, 2.0]

    def test_invalid_interval_rejected(self, sim):
        with pytest.raises(ValueError):
            PeriodicTimer(sim, 0.0, lambda: None)


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(3)
        b = RandomSource(3)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_substreams_are_deterministic(self):
        a = RandomSource(3).substream("link")
        b = RandomSource(3).substream("link")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_substream_identity_is_cached(self):
        root = RandomSource(3)
        assert root.substream("x") is root.substream("x")

    def test_named_substreams_are_independent(self):
        root = RandomSource(3)
        assert root.substream("a").random() != root.substream("b").random()

    def test_a_stream_seeds_itself_on_its_first_draw(self, monkeypatch):
        """Most named streams never draw (a loss-free link's, an idle
        stack's): naming one, deriving from it and the draw-free ``chance``
        extremes build no generator, and the one the first draw builds
        yields what an eagerly seeded ``random.Random`` does."""
        import random

        built = []
        eager = random.Random

        class Counting(eager):
            def __init__(self, seed):
                built.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(random, "Random", Counting)
        root = RandomSource(11)
        child = root.substream("link:wifi")
        child.substream("deeper")
        assert child.chance(0.0) is False and child.chance(1.0) is True
        assert child.seed == RandomSource(11).substream("link:wifi").seed
        assert built == []
        reference = eager(child.seed)
        draws = [child.random(), child.randint(1, 6), child.gauss(0.0, 1.0), child.chance(0.5)]
        assert draws == [
            reference.random(), reference.randint(1, 6), reference.gauss(0.0, 1.0),
            reference.random() < 0.5,
        ]
        assert built == [child.seed]

    def test_chance_extremes(self):
        rng = RandomSource(1)
        assert rng.chance(0.0) is False
        assert rng.chance(1.0) is True
        assert rng.chance(-1.0) is False
        assert rng.chance(2.0) is True

    def test_chance_statistics(self):
        rng = RandomSource(1)
        hits = sum(1 for _ in range(20_000) if rng.chance(0.3))
        assert 0.27 < hits / 20_000 < 0.33

    def test_ephemeral_port_range(self):
        rng = RandomSource(1)
        for _ in range(100):
            assert 32768 <= rng.ephemeral_port() <= 60999

    def test_randint_bounds(self):
        rng = RandomSource(1)
        for _ in range(100):
            assert 1 <= rng.randint(1, 6) <= 6

    def test_sample_distinct(self):
        rng = RandomSource(1)
        sampled = rng.sample(list(range(10)), 4)
        assert len(set(sampled)) == 4


class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(0.001)
        assert model.sample(RandomSource(1)) == 0.001
        assert model.mean() == 0.001

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)

    def test_normal_floor(self):
        model = NormalLatency(mean=1e-6, stddev=1e-3, floor=0.0)
        rng = RandomSource(1)
        assert all(model.sample(rng) >= 0.0 for _ in range(200))

    def test_lognormal_mean_calibration(self):
        model = LogNormalLatency(20e-6, sigma=0.5)
        rng = RandomSource(1)
        samples = [model.sample(rng) for _ in range(20_000)]
        assert sum(samples) / len(samples) == pytest.approx(20e-6, rel=0.05)

    def test_lognormal_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LogNormalLatency(0.0)
        with pytest.raises(ValueError):
            LogNormalLatency(1e-6, sigma=0.0)

    def test_shifted(self):
        base = ConstantLatency(1e-6)
        model = ShiftedLatency(base, 5e-6)
        assert model.sample(RandomSource(1)) == pytest.approx(6e-6)
        assert model.mean() == pytest.approx(6e-6)
        assert model.base is base
        assert model.shift == pytest.approx(5e-6)

    def test_shifted_rejects_negative(self):
        with pytest.raises(ValueError):
            ShiftedLatency(ConstantLatency(0.0), -1e-6)
