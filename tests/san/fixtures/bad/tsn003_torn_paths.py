"""TSN003 through every kind of write the scan sees: a module-level
group, a mutating method call, and ``yield from`` as the boundary."""

_HEAD = 0  # trailsan: atomic_group(module-chain)
_LEN = 0  # trailsan: atomic_group(module-chain)


def append(disk):
    global _HEAD, _LEN
    _HEAD += 8
    yield disk.write(_HEAD, b"r")
    _LEN += 1


class Log:
    def __init__(self):
        self.live = {}  # trailsan: atomic_group(tail)
        self.last = -1  # trailsan: atomic_group(tail)

    def emit(self, disk, seq, lba):
        self.live.setdefault(seq, lba)
        yield disk.write(lba, b"x")
        self.last = lba

    def flush(self, disk, lba):
        self.last = lba
        yield from self._sync(disk)
        self.live.clear()

    def _sync(self, disk):
        yield disk.write(0, b"s")
