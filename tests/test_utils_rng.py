"""Tests for repro.utils.rng."""

import pytest
from hypothesis import given, strategies as st

from repro.utils.rng import RandomSource, child_seed, spawn_rng


class TestRandomSource:
    def test_same_seed_same_stream(self):
        first = RandomSource(42)
        second = RandomSource(42)
        assert [first.random() for _ in range(10)] == [second.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        first = [RandomSource(1).random() for _ in range(5)]
        second = [RandomSource(2).random() for _ in range(5)]
        assert first != second

    def test_pick_returns_member(self):
        rng = RandomSource(0)
        items = ["a", "b", "c"]
        assert rng.pick(items) in items

    def test_pick_empty_raises(self):
        with pytest.raises(ValueError):
            RandomSource(0).pick([])

    def test_coin_probability_extremes(self):
        rng = RandomSource(0)
        assert rng.coin(1.0) is True
        assert rng.coin(0.0) is False

    def test_randint_bounds(self):
        rng = RandomSource(3)
        values = [rng.randint(2, 5) for _ in range(100)]
        assert min(values) >= 2
        assert max(values) <= 5

    def test_sample_distinct(self):
        rng = RandomSource(7)
        sample = rng.sample(range(10), 4)
        assert len(sample) == 4
        assert len(set(sample)) == 4

    def test_shuffle_preserves_elements(self):
        rng = RandomSource(5)
        items = list(range(20))
        shuffled = rng.shuffle(list(items))
        assert sorted(shuffled) == items

    def test_spawn_independent_and_reproducible(self):
        parent = RandomSource(9)
        child_a = parent.spawn(1)
        child_b = parent.spawn(2)
        assert child_a.seed != child_b.seed
        again = RandomSource(9).spawn(1)
        assert [child_a.random() for _ in range(5)] == [again.random() for _ in range(5)]

    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_in_unit_interval(self, seed):
        value = RandomSource(seed).random()
        assert 0.0 <= value < 1.0


class TestSpawnRng:
    def test_spawn_rng_with_salt_differs(self):
        base = spawn_rng(1, salt=0)
        salted = spawn_rng(1, salt=3)
        assert [base.random() for _ in range(3)] != [salted.random() for _ in range(3)]

    def test_spawn_rng_none_seed(self):
        rng = spawn_rng(None)
        assert 0.0 <= rng.random() < 1.0


class TestChildSeed:
    @given(
        st.one_of(st.none(), st.integers(min_value=0, max_value=2**40)),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_child_seed_is_the_spawned_seed_and_stream(self, seed, salt):
        parent = RandomSource(seed)
        child = parent.spawn(salt)
        assert parent.child_seed(salt) == child_seed(seed, salt) == child.seed
        derived = RandomSource(parent.child_seed(salt))
        assert [derived.random() for _ in range(5)] == [child.random() for _ in range(5)]

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=2**31))
    def test_reseed_restarts_on_the_fresh_stream(self, first, second):
        reused = RandomSource(first)
        reused.random()
        reused.gauss(0.0, 1.0)  # leaves a cached gauss variate behind
        reused.reseed(second)
        fresh = RandomSource(second)
        assert reused.seed == second
        assert [reused.random() for _ in range(5)] == [fresh.random() for _ in range(5)]
        assert reused.gauss(0.0, 1.0) == fresh.gauss(0.0, 1.0)
        assert reused.raw().getrandbits(40) == fresh.raw().getrandbits(40)
