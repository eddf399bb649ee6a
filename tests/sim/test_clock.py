"""Drifting local clocks."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import SimulationError
from repro.sim.clock import LocalClock, PerfectClock
from repro.sim.kernel import Simulator


def _advance(sim, delta):
    sim.schedule(delta, lambda: None)
    sim.run()


class TestPerfectClock:
    def test_tracks_sim_time(self):
        sim = Simulator()
        clock = PerfectClock(sim)
        _advance(sim, 12345)
        assert clock.now() == 12345
        assert clock.offset_from_perfect() == 0


class TestDrift:
    def test_positive_drift_runs_fast(self):
        sim = Simulator()
        clock = LocalClock(sim, drift_ppm=100)
        _advance(sim, 1_000_000_000)  # 1 s
        assert clock.offset_from_perfect() == 100_000  # 100 us fast

    def test_negative_drift_runs_slow(self):
        sim = Simulator()
        clock = LocalClock(sim, drift_ppm=-50)
        _advance(sim, 1_000_000_000)
        assert clock.offset_from_perfect() == -50_000

    def test_initial_offset(self):
        sim = Simulator()
        clock = LocalClock(sim, offset_ns=777)
        assert clock.now() == 777

    @given(st.floats(min_value=-100, max_value=100),
           st.integers(min_value=1, max_value=10**9))
    def test_drift_proportional(self, ppm, elapsed):
        sim = Simulator()
        clock = LocalClock(sim, drift_ppm=ppm)
        _advance(sim, elapsed)
        expected = elapsed * ppm / 1e6
        assert clock.offset_from_perfect() == pytest.approx(expected, abs=1.0)


class TestAdjustment:
    def test_step(self):
        sim = Simulator()
        clock = LocalClock(sim)
        clock.step(-300)
        assert clock.now() == -300

    def test_step_does_not_rewrite_history_rate(self):
        sim = Simulator()
        clock = LocalClock(sim, drift_ppm=10)
        _advance(sim, 1_000_000_000)
        drifted = clock.now()
        clock.step(5)
        assert clock.now() == drifted + 5

    def test_adjust_rate_cancels_drift(self):
        sim = Simulator()
        clock = LocalClock(sim, drift_ppm=40)
        clock.adjust_rate(-40)
        _advance(sim, 1_000_000_000)
        assert clock.offset_from_perfect() == 0

    def test_adjust_rate_replaces_previous(self):
        sim = Simulator()
        clock = LocalClock(sim)
        clock.adjust_rate(100)
        clock.adjust_rate(10)
        _advance(sim, 1_000_000)
        assert clock.offset_from_perfect() == pytest.approx(10, abs=1)

    def test_rate_correction_ppm_property(self):
        sim = Simulator()
        clock = LocalClock(sim)
        clock.adjust_rate(12.5)
        assert clock.rate_correction_ppm == pytest.approx(12.5)

    def test_monotone_across_adjustments(self):
        sim = Simulator()
        clock = LocalClock(sim, drift_ppm=-30)
        readings = [clock.now()]
        for _ in range(5):
            _advance(sim, 1000)
            clock.adjust_rate(-15)
            readings.append(clock.now())
        assert readings == sorted(readings)


class TestLocalDelay:
    def test_perfect_clock_identity(self):
        sim = Simulator()
        clock = LocalClock(sim)
        assert clock.sim_delay_for_local(125_000) == 125_000

    def test_fast_clock_needs_less_sim_time(self):
        sim = Simulator()
        clock = LocalClock(sim, drift_ppm=1000)  # exaggerated
        assert clock.sim_delay_for_local(1_000_000) < 1_000_000

    def test_minimum_one_ns(self):
        sim = Simulator()
        clock = LocalClock(sim)
        assert clock.sim_delay_for_local(1) == 1

    def test_nonpositive_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            LocalClock(sim).sim_delay_for_local(0)


class TestLocalDelayMemo:
    """``sim_delay_for_local`` memoizes per interval until the rate moves."""

    @staticmethod
    def _fresh(clock, local_ns):
        return max(1, round(Fraction(local_ns) / clock.rate))

    def test_adjust_rate_invalidates(self):
        sim = Simulator()
        clock = LocalClock(sim, drift_ppm=20)
        before = clock.sim_delay_for_local(1_000_000)
        assert before == self._fresh(clock, 1_000_000) == 999_980
        _advance(sim, 500)
        clock.adjust_rate(-20)
        after = clock.sim_delay_for_local(1_000_000)
        assert after == self._fresh(clock, 1_000_000) == 1_000_000

    def test_set_drift_invalidates(self):
        sim = Simulator()
        clock = LocalClock(sim)
        assert clock.sim_delay_for_local(1_000_000) == 1_000_000
        _advance(sim, 500)
        clock.set_drift_ppm(-50)
        after = clock.sim_delay_for_local(1_000_000)
        assert after == self._fresh(clock, 1_000_000) == 1_000_050

    def test_step_keeps_value(self):
        sim = Simulator()
        clock = LocalClock(sim, drift_ppm=-7)
        before = clock.sim_delay_for_local(62_500)
        _advance(sim, 500)
        clock.step(1_234)
        assert clock.sim_delay_for_local(62_500) == before
        assert before == self._fresh(clock, 62_500)

    def test_listeners_see_the_new_rate(self):
        """Rate listeners (window-table rebuilds) convert at the new rate."""
        sim = Simulator()
        clock = LocalClock(sim, drift_ppm=20)
        clock.sim_delay_for_local(1_000_000)
        seen = []
        clock.on_rate_change(
            lambda: seen.append(clock.sim_delay_for_local(1_000_000))
        )
        clock.adjust_rate(-20)
        clock.set_drift_ppm(100)
        assert seen == [1_000_000, self._fresh(clock, 1_000_000)]
