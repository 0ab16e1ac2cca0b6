"""Reproducible random streams keyed by (master_seed, stream_id, path)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RandomStream:
    """A named, reproducible source of randomness.

    (master_seed, stream_id, path) fully determines all draws: the spawn key is
    (stream_id,) + path.  Distinct stream ids give statistically independent
    streams.  Substreams extend the path so parallel scheduling cannot change
    results.
    """

    master_seed: int
    stream_id: int = 0
    path: tuple = ()

    def __post_init__(self):
        if not (0 <= self.master_seed < 2 ** 64):
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if self.stream_id < 0:
            raise ValueError("stream_id must be nonnegative")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed,
                                     spawn_key=(self.stream_id,) + self.path)
        return np.random.default_rng(seq)

    def substream(self, index: int) -> "RandomStream":
        """Child stream for one trial; index is appended to the path."""
        if index < 0:
            raise ValueError("substream index must be nonnegative")
        return RandomStream(self.master_seed, self.stream_id, self.path + (index,))
