"""TPC-C schema constants: tables, cardinalities, and record sizes.

Record sizes follow the spec's minimum row sizes (clause 4.2), which is
what determines the page I/O and log volume the benchmark generates.
Growing tables (ORDER, ORDER-LINE, NEW-ORDER, HISTORY) are provisioned
with headroom so a multi-thousand-transaction run never outgrows its
extent.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

#: Districts per warehouse (clause 1.2.1).
DISTRICTS_PER_WAREHOUSE = 10
#: Customers per district.
CUSTOMERS_PER_DISTRICT = 3000
#: Items in the catalogue.
ITEMS = 100_000
#: Stock rows per warehouse (one per item).
STOCK_PER_WAREHOUSE = ITEMS
#: Initially loaded orders per district.
INITIAL_ORDERS_PER_DISTRICT = 3000
#: Of which the most recent 900 are undelivered (NEW-ORDER rows).
INITIAL_NEW_ORDERS_PER_DISTRICT = 900
#: Maximum order lines per order.
MAX_ORDER_LINES = 15

#: Minimum row sizes in bytes (clause 4.2.2).
RECORD_BYTES: Mapping[str, int] = MappingProxyType({
    "warehouse": 89,
    "district": 95,
    "customer": 655,
    "history": 46,
    "new_order": 8,
    "order": 24,
    "order_line": 54,
    "item": 82,
    "stock": 306,
})

#: Transaction mix (clause 5.2.3's minimums, as deployed in practice).
TRANSACTION_MIX = (
    ("new_order", 45.0),
    ("payment", 43.0),
    ("order_status", 4.0),
    ("delivery", 4.0),
    ("stock_level", 4.0),
)


@dataclass(frozen=True)
class TpccScale:
    """Cardinalities for a database of ``warehouses`` warehouses."""

    warehouses: int
    #: Extra order slots per district beyond the initial 3000, sized for
    #: the longest run the harness will drive.
    order_headroom_per_district: int = 4000
    #: Extra HISTORY rows beyond the initial one per customer.
    history_headroom: int = 40_000

    def __post_init__(self) -> None:
        if self.warehouses < 1:
            raise ValueError(
                f"warehouses must be >= 1, got {self.warehouses}")

    @property
    def districts(self) -> int:
        return self.warehouses * DISTRICTS_PER_WAREHOUSE

    @property
    def customers(self) -> int:
        return self.districts * CUSTOMERS_PER_DISTRICT

    @property
    def stock_rows(self) -> int:
        return self.warehouses * STOCK_PER_WAREHOUSE

    @property
    def orders_per_district(self) -> int:
        return INITIAL_ORDERS_PER_DISTRICT + self.order_headroom_per_district

    @property
    def order_rows(self) -> int:
        return self.districts * self.orders_per_district

    @property
    def order_line_rows(self) -> int:
        return self.order_rows * MAX_ORDER_LINES

    @property
    def history_rows(self) -> int:
        return self.customers + self.history_headroom

    def database_bytes(self) -> int:
        """Initial database size (the paper quotes >0.5 GB for w=1
        including access-structure overheads)."""
        return (
            self.warehouses * RECORD_BYTES["warehouse"]
            + self.districts * RECORD_BYTES["district"]
            + self.customers * RECORD_BYTES["customer"]
            + self.customers * RECORD_BYTES["history"]
            + ITEMS * RECORD_BYTES["item"]
            + self.stock_rows * RECORD_BYTES["stock"]
            + self.districts * INITIAL_ORDERS_PER_DISTRICT
            * (RECORD_BYTES["order"] + 10 * RECORD_BYTES["order_line"])
        )

    # ------------------------------------------------------------------
    # Record-index mapping (dense, zero-based) used for page placement

    def warehouse_index(self, w: int) -> int:
        self._check(1 <= w <= self.warehouses, "warehouse", w)
        return w - 1

    def district_index(self, w: int, d: int) -> int:
        self._check(1 <= d <= DISTRICTS_PER_WAREHOUSE, "district", d)
        return self.warehouse_index(w) * DISTRICTS_PER_WAREHOUSE + d - 1

    def customer_index(self, w: int, d: int, c: int) -> int:
        self._check(1 <= c <= CUSTOMERS_PER_DISTRICT, "customer", c)
        return (self.district_index(w, d) * CUSTOMERS_PER_DISTRICT
                + c - 1)

    def item_index(self, i: int) -> int:
        self._check(1 <= i <= ITEMS, "item", i)
        return i - 1

    def stock_index(self, w: int, i: int) -> int:
        return self.warehouse_index(w) * STOCK_PER_WAREHOUSE \
            + self.item_index(i)

    def order_index(self, w: int, d: int, o: int) -> int:
        self._check(1 <= o <= self.orders_per_district, "order", o)
        return (self.district_index(w, d) * self.orders_per_district
                + o - 1)

    def order_line_index(self, w: int, d: int, o: int, ol: int) -> int:
        self._check(1 <= ol <= MAX_ORDER_LINES, "order line", ol)
        return self.order_index(w, d, o) * MAX_ORDER_LINES + ol - 1

    @staticmethod
    def _check(condition: bool, what: str, value: int) -> None:
        if not condition:
            raise ValueError(f"{what} id {value} out of range")
