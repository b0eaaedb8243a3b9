"""Fixture: mutable containers and counters bound at module scope
(TIS001).

Any module-level list/dict/set/bytearray, or an ``itertools.count``
id source, is shared by every Trail instance in the process;
trailiso demands a freeze or a per-instance home.
"""

import itertools
from itertools import count

_CACHE = {}  # expect: TIS001

RETRY_QUEUE = []  # expect: TIS001

SEEN_DRIVES = set()  # expect: TIS001

SCRATCH = bytearray(64)  # expect: TIS001

BY_CODE = {code: [] for code in ("a", "b")}  # expect: TIS001

TX_IDS = itertools.count(1)  # expect: TIS001

BATCH_IDS = count()  # expect: TIS001
