"""Bounded table of clean check verdicts.

One :class:`MemoTable` lives as long as the worker's
:class:`~repro.core.harness.Chipmunk` and maps each check-memo key of a
state that checked CLEAN (zero reports) to a tag naming the workload
memo that last used the entry, which lets
:class:`~repro.core.checker.CheckMemo` tell a cross-workload hit from a
within-workload one.

Only clean verdicts live here.  Skipping a re-check of a clean state can
never change ``bugs.json`` — there is nothing to suppress — so clean
entries are the ones safe to keep across workloads and the ones safe to
evict (re-checking an evicted clean state costs time, never correctness).
Buggy keys stay in each workload memo's own set: a buggy state met again
in a later workload is re-checked there and emits that workload's
reports.

Eviction is LRU, bounded by ``max_entries`` (0 disables the bound).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

#: Default clean-entry cap.  A seq-2 campaign checks ~10^5 distinct states;
#: at ~100 bytes per table entry this bounds the store near 25 MiB while
#: still holding an entire campaign's working set.
DEFAULT_MAX_ENTRIES = 262144


class MemoTable:
    """LRU-bounded table of keys whose check came back CLEAN."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        self.max_entries = int(max_entries)
        self._clean: "OrderedDict[object, object]" = OrderedDict()
        self.evictions = 0

    def lookup(self, key) -> Optional[object]:
        """Return the key's tag, refreshing LRU recency; None = miss."""
        tag = self._clean.get(key)
        if tag is not None:
            self._clean.move_to_end(key)
        return tag

    def publish(self, key, tag: object = True) -> int:
        """Record ``key`` as clean under ``tag`` (re-tagging an existing
        entry); returns how many entries the bound evicted."""
        self._clean[key] = tag
        self._clean.move_to_end(key)
        evicted = 0
        if self.max_entries > 0:
            while len(self._clean) > self.max_entries:
                self._clean.popitem(last=False)
                evicted += 1
        self.evictions += evicted
        return evicted

    def __len__(self) -> int:
        return len(self._clean)

    def __contains__(self, key) -> bool:
        return key in self._clean
