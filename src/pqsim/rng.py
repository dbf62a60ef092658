"""Counter-based random streams for reproducible, parallel-safe sampling.

A stream is identified by a ``(seed, stream_id)`` pair fed directly into the
key of a Philox counter-based generator, so the same pair always reproduces
the same draw sequence and distinct pairs give statistically independent
sequences.  Batched samplers derive one child stream per batch and one
grandchild per row tile after the first, which makes results independent
of how tiles are scheduled across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1

# Odd multiplier (golden-ratio constant); child ids of one parent are distinct
# and ids of different parents are scattered over the full 64-bit range.
_GOLDEN = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class RngStream:
    """An addressable random stream: ``(seed, stream_id)`` is the identity."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Instantiate the generator for this stream (always from scratch)."""
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RngStream":
        """Derive an independent sub-stream, e.g. one per sampling batch."""
        if index < 0:
            raise ValueError("child index must be nonnegative")
        new_id = (self.stream_id * _GOLDEN + index + 1) & _MASK64
        return RngStream(self.seed & _MASK64, new_id)
