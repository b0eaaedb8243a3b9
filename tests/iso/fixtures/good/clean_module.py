"""Near-miss fixture: per-instance state done right.

Frozen module constants, containers and an id counter created in
``__init__``, the context stored on ``self``, and a seeded private
RNG — nothing here is shared between two Trail stacks.
"""

import itertools
import random
from types import MappingProxyType

SECTOR_SIZE = 512
KNOWN_CODES = frozenset({"a", "b"})
PRIORITIES = ("low", "high")
LIMITS = MappingProxyType({"queue": 64})


class WriteLog:
    def __init__(self, sim, seed):
        self.sim = sim
        self.rng = random.Random(seed)
        self.ids = itertools.count(1)
        self.entries = []
        self.by_lba = {}

    def record(self, lba):
        self.entries.append((self.sim.now, lba))
        self.by_lba[lba] = len(self.entries)

    def sample(self):
        return self.rng.choice(self.entries)
