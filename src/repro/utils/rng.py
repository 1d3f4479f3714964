"""Seeded random-number helpers.

All stochastic components in the library (WalkSAT, SampleSAT, MC-SAT,
synthetic dataset generators) receive a :class:`RandomSource` so that every
experiment can be reproduced exactly from a single integer seed.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, TypeVar

T = TypeVar("T")


class RandomSource:
    """A thin, explicit wrapper around :class:`random.Random`.

    The wrapper exists for two reasons: it makes seeding explicit at every
    call site (no module-level global state), and it provides the handful of
    sampling primitives the inference code needs with names that match the
    paper's vocabulary (e.g. ``pick`` for choosing a violated clause).
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self.seed = seed
        self._random = random.Random(seed)

    def random(self) -> float:
        """Return a float uniformly drawn from ``[0, 1)``."""
        return self._random.random()

    def raw(self) -> random.Random:
        """The underlying :class:`random.Random`.

        Hot loops (the WalkSAT kernel) bind its methods directly to avoid
        the wrapper's extra call frame per draw; it consumes exactly the
        same stream as the named helpers, so seeded runs are unaffected.
        """
        return self._random

    def randint(self, low: int, high: int) -> int:
        """Return an integer uniformly drawn from ``[low, high]`` inclusive."""
        return self._random.randint(low, high)

    def coin(self, probability: float = 0.5) -> bool:
        """Return ``True`` with the given probability."""
        return self._random.random() < probability

    def pick(self, items: Sequence[T]) -> T:
        """Pick a uniformly random element of a non-empty sequence."""
        if not items:
            raise ValueError("cannot pick from an empty sequence")
        return self._random.choice(items)

    def sample(self, items: Sequence[T], count: int) -> list[T]:
        """Sample ``count`` distinct elements without replacement."""
        return self._random.sample(list(items), count)

    def shuffle(self, items: list[T]) -> list[T]:
        """Shuffle a list in place and return it for convenience."""
        self._random.shuffle(items)
        return items

    def exponential(self, rate: float) -> float:
        """Draw from an exponential distribution with the given rate."""
        return self._random.expovariate(rate)

    def gauss(self, mean: float, stddev: float) -> float:
        """Draw from a normal distribution."""
        return self._random.gauss(mean, stddev)

    def reseed(self, seed: int) -> None:
        """Restart this source on the stream ``RandomSource(seed)`` draws.

        ``Random.seed(s)`` leaves a generator in exactly the state
        ``Random(s)`` starts in, so a loop over many short searches can
        reuse one generator (and every method bound to it) instead of
        building one per search.
        """
        self.seed = seed
        self._random.seed(seed)

    def child_seed(self, salt: int) -> int:
        """The seed of :meth:`spawn`'s child stream, without building it."""
        return child_seed(self.seed, salt)

    def spawn(self, salt: int) -> "RandomSource":
        """Derive an independent child stream from this source.

        Children derived with different salts produce uncorrelated streams,
        which is how the parallel component search gives each worker its own
        reproducible randomness.
        """
        return RandomSource(self.child_seed(salt))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomSource(seed={self.seed!r})"


def child_seed(seed: Optional[int], salt: int) -> int:
    """The seed of the child stream ``RandomSource(seed).spawn(salt)``."""
    base = seed if seed is not None else 0
    return (base * 1_000_003 + salt) & 0x7FFFFFFF


def spawn_rng(seed: Optional[int], salt: int = 0) -> RandomSource:
    """Create a :class:`RandomSource`, optionally salted.

    This is a convenience for call sites that accept ``seed: int | None`` in
    their public signature but need several independent streams internally.
    """
    source = RandomSource(seed)
    if salt:
        return source.spawn(salt)
    return source
