"""TSN000 hygiene: unknown code, unused and reason-less suppressions."""

TRACKS = 1  # trailsan: disable=TSN099 -- no such rule
SECTORS = 2  # trailsan: disable=TSN003 -- nothing here to suppress


class Driver:
    def __init__(self, sim):
        self.sim = sim
        self.chain_head = 0  # trailsan: atomic_group(chain)
        self.chain_len = 0  # trailsan: atomic_group(chain)

    def emit(self, disk):
        self.chain_head += 8
        yield disk.write(self.chain_head, b"r")
        self.chain_len += 1  # trailsan: disable=TSN003
