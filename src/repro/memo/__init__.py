"""Worker-lifetime check memo: one verdict table per worker.

Every workload in a campaign re-checks the same mkfs-fresh early crash
states, and seq-2 ACE workloads share whole multi-op prefixes.  The
:class:`~repro.memo.store.MemoTable` behind
:class:`~repro.core.checker.CheckMemo` therefore lives as long as the
worker's :class:`~repro.core.harness.Chipmunk`, not one workload.

Soundness contract (see DESIGN.md "Worker-lifetime check memo"): entries
are keyed by ``oracle-context digest ‖ content address ‖ syscall
context``, so key equality implies both byte-identical images *and*
identical oracle expectations.  Only CLEAN verdicts persist across
workloads; buggy keys stay per workload, so every workload still emits
its own reports and ``bugs.json`` stays byte-equal to a memo-off run.
"""

from repro.memo.store import DEFAULT_MAX_ENTRIES, MemoTable

__all__ = ["MemoTable", "DEFAULT_MAX_ENTRIES"]
