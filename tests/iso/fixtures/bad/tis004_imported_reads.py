"""Fixture: ambient reads spelled through imports (TIS004).

Seven reads of the wall clock or of a process-global or unseeded RNG:
a ``from`` import or the ``Random`` constructor hides the module name,
not the singleton.  ``Random(seed)`` is a private, seeded stream.
"""

import datetime
import random
import time
from random import Random, choice
from time import perf_counter


def probe(seed, items):
    wall = time.time()  # expect: TIS004
    today = datetime.datetime.now()  # expect: TIS004
    roll = random.random()  # expect: TIS004
    start = perf_counter()  # expect: TIS004
    pick = choice(items)  # expect: TIS004
    loose = Random()  # expect: TIS004
    other = random.Random()  # expect: TIS004
    seeded = Random(seed)
    return wall, today, roll, start, pick, loose, other, seeded
