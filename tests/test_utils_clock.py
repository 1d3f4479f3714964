"""Tests for repro.utils.clock."""

import pytest

from repro.utils.clock import CostModel, SimulatedClock, WallClock


class TestWallClock:
    def test_monotonic(self):
        clock = WallClock()
        first = clock.now()
        second = clock.now()
        assert second >= first >= 0.0

    def test_restart_resets_origin(self):
        clock = WallClock()
        _ = clock.now()
        clock.restart()
        assert clock.now() < 1.0


class TestSimulatedClock:
    def test_starts_at_zero(self):
        assert SimulatedClock().now() == 0.0

    def test_advance(self):
        clock = SimulatedClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now() == pytest.approx(2.0)

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1.0)

    def test_charge_uses_cost_model(self):
        model = CostModel(memory_flip=2.0, page_read=5.0)
        clock = SimulatedClock(model)
        clock.charge("memory_flip", count=3)
        clock.charge("page_read")
        assert clock.now() == pytest.approx(11.0)

    def test_event_counts(self):
        clock = SimulatedClock()
        clock.charge("memory_flip", count=4)
        clock.charge("page_read", count=2)
        assert clock.event_counts() == {"memory_flip": 4, "page_read": 2}

    def test_charge_unknown_event_raises(self):
        with pytest.raises(AttributeError):
            SimulatedClock().charge("nonexistent_event")

    def test_restart(self):
        clock = SimulatedClock()
        clock.charge("memory_flip", 10)
        clock.restart()
        assert clock.now() == 0.0
        assert clock.event_counts() == {}

    def test_relative_costs_match_paper_magnitudes(self):
        """A random page access must be orders of magnitude more expensive
        than an in-memory flip (the premise of the hybrid architecture)."""
        model = CostModel()
        assert model.page_read / model.memory_flip >= 100
        assert model.rdbms_flip_overhead / model.memory_flip >= 100
