"""TPC-C input generation rules (clause 2.1.6 and 4.3 of the spec).

Implements NURand (non-uniform random), the syllable-based customer
last names, and the per-transaction-type input distributions the
benchmark requires.  Everything is seeded, so runs are reproducible.
"""

from __future__ import annotations

import random
from typing import List, Tuple

#: The ten syllables used to build customer last names (clause 4.3.2.3).
_NAME_SYLLABLES = (
    "BAR", "OUGHT", "ABLE", "PRI", "PRES",
    "ESE", "ANTI", "CALLY", "ATION", "EING",
)


def last_name(number: int) -> str:
    """Customer last name for ``number`` in [0, 999]."""
    if not 0 <= number <= 999:
        raise ValueError(f"name number must be in [0, 999], got {number}")
    return (_NAME_SYLLABLES[number // 100]
            + _NAME_SYLLABLES[(number // 10) % 10]
            + _NAME_SYLLABLES[number % 10])


class TpccRandom:
    """Seeded random source implementing the TPC-C distributions."""

    #: NURand constants fixed at database build time (clause 2.1.6.1).
    C_LAST = 123
    C_CUST_ID = 259
    C_ITEM_ID = 987

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        #: Bound method cached for the hot draws below: every uniform
        #: draw costs one C-level ``random()`` call instead of the
        #: layered ``randint`` -> ``randrange`` -> ``getrandbits`` path.
        self._random = self._rng.random

    def uniform(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        # random() < 1.0 strictly, so the scaled draw stays < span for
        # any span far below 2**53 (TPC-C spans top out at 100,000).
        return low + int(self._random() * (high - low + 1))

    def uniform_many(self, low: int, high: int, count: int) -> List[int]:
        """``count`` uniform integers in [low, high] (bulk population).

        When the whole range fits in a byte the draw runs at C speed:
        seeded ``randbytes`` filtered by rejection sampling (bytes at or
        above the largest multiple of the span are discarded, keeping
        the distribution exactly uniform) and mapped through a
        translation table.  Larger ranges fall back to scaled
        ``random()`` draws.
        """
        span = high - low + 1
        if 0 <= low and high <= 0xFF and count >= 64:
            limit = span * (0x100 // span)
            table = bytes(low + byte % span if byte < limit else 0
                          for byte in range(0x100))
            reject = bytes(range(limit, 0x100))
            randbytes = self._rng.randbytes
            values = bytearray()
            while len(values) < count:
                need = count - len(values)
                # Oversample for the expected rejection rate so one
                # round usually suffices.
                raw = randbytes(need + (need * (0x100 - limit) >> 8) + 32)
                values += raw.translate(table, reject)
            return list(values[:count])
        r = self._random
        return [low + int(r() * span) for _ in range(count)]

    def decimal(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._rng.uniform(low, high)

    def chance(self, percent: float) -> bool:
        """True with the given percent probability."""
        return self._rng.random() * 100.0 < percent

    def nurand(self, a: int, low: int, high: int, c: int) -> int:
        """The spec's NURand(A, x, y) skewed distribution."""
        return ((((self.uniform(0, a) | self.uniform(low, high)) + c)
                 % (high - low + 1)) + low)

    # ------------------------------------------------------------------
    # Domain-specific draws

    def item_id(self, items: int = 100_000) -> int:
        """Skewed item id in [1, items] (clause 2.4.1.5)."""
        return self.nurand(8191, 1, items, self.C_ITEM_ID)

    def customer_id(self, customers: int = 3000) -> int:
        """Skewed customer id in [1, customers] (clause 2.4.1.5)."""
        return self.nurand(1023, 1, customers, self.C_CUST_ID)

    def district_id(self, districts: int = 10) -> int:
        """Uniform district id in [1, districts]."""
        return self.uniform(1, districts)

    def order_line_count(self) -> int:
        """ol_cnt for New-Order: uniform in [5, 15] (clause 2.4.1.3)."""
        return self.uniform(5, 15)

    def quantity(self) -> int:
        """Order-line quantity: uniform in [1, 10]."""
        return self.uniform(1, 10)

    def remote_warehouse(self, home: int, warehouses: int) -> Tuple[int, bool]:
        """Supplying warehouse for an order line (1% remote when w > 1)."""
        if warehouses > 1 and self.chance(1.0):
            other = self.uniform(1, warehouses - 1)
            if other >= home:
                other += 1
            return other, True
        return home, False

    def payment_amount(self) -> float:
        """Payment amount: uniform in [1.00, 5000.00]."""
        return self.decimal(1.0, 5000.0)

    def by_last_name(self) -> bool:
        """Payment/Order-Status select customer by last name 60% of the
        time (clause 2.5.1.2)."""
        return self.chance(60.0)

    def invalid_item(self) -> bool:
        """1% of New-Order transactions roll back on an unused item id
        (clause 2.4.1.5)."""
        return self.chance(1.0)

    def threshold(self) -> int:
        """Stock-Level threshold: uniform in [10, 20]."""
        return self.uniform(10, 20)
