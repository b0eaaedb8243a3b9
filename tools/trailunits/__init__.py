"""trailunits — dimension & address-space flow analysis.

The Trail reproduction juggles five numeric families that Python types
cannot tell apart: byte counts, sector counts, track/cylinder indexes,
simulated milliseconds (vs real seconds), and block addresses that
live on *two different disks* (the log disk holding the record chain,
and the data disk those records destage to).  trailunits runs a
flow-sensitive inference over the AST — seeded from ``repro.units``
aliases (``Bytes``, ``Sectors``, ``Ms``, ``LogLba``, ``DataLba``...),
``# unit:`` signature comments, the ``units.*`` converter helpers, and
conservative name heuristics — and reports TUN001–TUN008 where
dimensions meet illegally.

Run it with every other analyzer through ``python -m tools.analysis``
(``make analyzers``).  Suppressions must carry a reason::

    head = entry.log_lba   # trailunits: disable=TUN006 -- chain walk reads the prev pointer

A reason-less or unused suppression is itself a TUN000 finding.
"""

from tools.trailunits.engine import SPEC, UnitsContext
from tools.trailunits.rules import REGISTRY

__all__ = ["REGISTRY", "SPEC", "UnitsContext"]
