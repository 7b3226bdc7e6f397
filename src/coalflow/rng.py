"""Counter-based splittable random streams.

A stream is addressed by (seed, path) where path is a tuple of integers,
conventionally deepened as replica / trajectory / step.  Identical addresses
reproduce identical draws; distinct paths are statistically independent.
Backed by numpy's Philox counter-based generator keyed through SeedSequence
spawn keys.

Stream layout of the coalescing samplers (motions.Draws.of): a replica or
skeleton stream s gives its step kernels their normals from s.child(0) and
their uniforms from s.child(1), so both kinds can be drawn ahead in blocks;
no other draw may come from those two children.  The cluster-count sampler
(kernels.cluster_count_sample) still draws both kinds, normals first each
step, from the one generator of its replica stream.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

_PATH_LIMIT = 2**32  # SeedSequence spawn_key entries are uint32


@dataclass(frozen=True)
class RngStream:
    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        seed = _integer(self.seed)
        path = tuple(_integer(p) for p in self.path)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        for p in path:
            if not 0 <= p < _PATH_LIMIT:
                raise ValueError("path entries must fit in 32 bits")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "path", path)

    def child(self, *indices: int) -> "RngStream":
        """Substream at a deeper hierarchical address."""
        return RngStream(self.seed, self.path + indices)

    def generator(self) -> np.random.Generator:
        """Fresh Generator positioned at the start of this substream."""
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))


def _integer(v) -> int:
    """v as a Python int: numpy integers pass; bools, floats and other
    non-integers are a TypeError."""
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise TypeError(f"seed and path entries must be integers, got {v!r}")
