"""Read-only tables shared by every series of one length, bounded by their bytes.

The trend filter's plan, the MODWT's and the detector's level gains and the
Huber fit's harmonic table each depend on a length (and a smoothing, filter
pair or depth) alone, so a batch of series of one length builds them once.
A table grows with its length, so a count of entries bounds nothing: eight
entries per function held 0.2 GB at lengths near N = 10^5. The cache holds
the most recently used tables whose bytes together fit one budget, and
always the last few used, which a detection at any length needs.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict

# Bytes held by the cached tables together: the four tables of one length
# hold 0.22 MB at N = 1000, 3.0 MB at N = 10 000 and 43 MB at N = 100 007, so
# this holds those of about 70, 5 and 0 lengths besides the recent ones.
_TABLE_BYTES = 16 << 20

# A detection reads the four tables of its length, which stay however large
# they are: a series too long for the budget would otherwise rebuild them on
# every detection (the trend plan alone takes 0.3 s at N = 200 000, whose
# trend transforms have the prime factor 199 999), and its detection holds
# arrays of their size anyway.
_RECENT = 4


class TableCache:
    """A least-recently-used cache of read-only arrays, bounded by their total bytes.

    Decorate a function of hashable positional arguments that returns an
    array or a tuple of arrays, which every caller then shares: each array
    is made read-only before it is first returned. Arguments of different
    types are different keys, so ``True`` is checked by the function rather
    than served the table of 1. Past ``budget`` bytes the least recently
    used tables are dropped, but never the ``recent`` most recently used.
    """

    def __init__(self, budget: int, recent: int):
        self.budget = budget
        self.recent = recent
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()  # key -> (value, bytes)
        self._lock = threading.Lock()

    def __call__(self, func):
        @functools.wraps(func)
        def cached(*args):
            key = (func, *((type(arg), arg) for arg in args))
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    return entry[0]
            value = func(*args)
            arrays = value if isinstance(value, tuple) else (value,)
            for array in arrays:
                array.flags.writeable = False
            size = sum(array.nbytes for array in arrays)
            with self._lock:
                if key not in self._entries:
                    self._entries[key] = (value, size)
                    self.nbytes += size
                    while self.nbytes > self.budget and len(self._entries) > self.recent:
                        self.nbytes -= self._entries.popitem(last=False)[1][1]
            return value

        return cached

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0


TABLES = TableCache(_TABLE_BYTES, _RECENT)
