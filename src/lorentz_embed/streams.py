"""Reproducible random streams keyed by (master_seed, path)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RandomStream:
    """A named, reproducible source of randomness.

    (master_seed, path) fully determines all draws: path is the spawn key.
    Distinct paths give statistically independent streams.  Substreams
    extend the path so parallel scheduling cannot change results.
    """

    master_seed: int
    path: tuple = (0,)

    def __post_init__(self):
        if not (0 <= self.master_seed < 2 ** 64):
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if not (isinstance(self.path, tuple)
                and all(isinstance(i, int) and i >= 0 for i in self.path)):
            raise ValueError("path must be a tuple of nonnegative integers")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.master_seed, spawn_key=self.path))

    def substream(self, index: int) -> "RandomStream":
        """Child stream for one trial; index is appended to the path."""
        return RandomStream(self.master_seed, self.path + (index,))
