"""Worker-lifetime check memo: verdict tables that outlive one workload.

Every workload in a campaign re-checks the same mkfs-fresh early crash
states, and seq-2 ACE workloads share whole multi-op prefixes.  The
tables behind :class:`~repro.core.checker.CheckMemo` therefore live as
long as the worker's :class:`~repro.core.harness.Chipmunk`, not one
workload:

* :class:`~repro.memo.store.MemoTable` holds CLEAN verdicts keyed by
  ``oracle-context digest ‖ content address ‖ syscall context`` — key
  equality implies byte-identical images *and* identical expectations.
  Buggy keys stay per workload.
* :class:`~repro.memo.readset.ReadSetTable` holds verdicts, buggy ones
  included, keyed by the crash bytes a check read; a hit rebuilds the
  reports for the new state, so every workload still emits its own.

See DESIGN.md "Worker-lifetime check memo" and "Read-set verdict memo".
"""

from repro.memo.readset import ReadSetTable
from repro.memo.store import DEFAULT_MAX_ENTRIES, MemoTable

__all__ = ["MemoTable", "ReadSetTable", "DEFAULT_MAX_ENTRIES"]
