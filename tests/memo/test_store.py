"""MemoTable units: an LRU-bounded table of clean check verdicts.

The table only ever holds keys whose check came back CLEAN — buggy keys
live in each workload memo's own set (covered in ``test_worker_memo``) —
so evicting an entry can cost a redundant re-check, never a report.
"""

from repro.core.checker import CheckMemo, ConsistencyChecker
from repro.core.harness import Chipmunk
from repro.core.oracle import run_oracle
from repro.core.replayer import enumerate_crash_states
from repro.memo.store import MemoTable
from repro.workloads.ops import Op


def k(i):
    return b"key-%04d" % i


class TestVerdicts:
    def test_miss_then_hit(self):
        t = MemoTable()
        assert t.lookup(k(1)) is None
        t.publish(k(1), 7)
        assert t.lookup(k(1)) == 7

    def test_buggy_round_trip(self):
        """A buggy verdict round-trips through the workload memo, never the
        table: the state's second sighting is a hit, and its key is absent
        from the table."""
        workload = [Op("mkdir", ("/A",)), Op("creat", ("/A/f",))]
        cm = Chipmunk("nova")  # default bug config: some states are buggy
        oracle = run_oracle(
            cm.fs_class, workload, cm.config.device_size, bugs=cm.bugs
        )
        table = MemoTable()
        memo = CheckMemo(
            ConsistencyChecker(cm.fs_class, oracle, "w", bugs=cm.bugs),
            table=table,
        )
        base, log, _ = cm.record(workload)
        buggy = next(
            s for s in enumerate_crash_states(base, log) if memo.check(s)
        )
        hits = memo.hits
        assert memo.check(buggy) is None
        assert memo.hits == hits + 1
        assert memo.key_of(buggy) not in table

    def test_idempotent_publish(self):
        t = MemoTable()
        for _ in range(3):
            t.publish(k(1), 1)
        assert len(t) == 1

    def test_republish_retags_without_eviction(self):
        t = MemoTable(max_entries=1)
        t.publish(k(1), 1)
        assert t.publish(k(1), 2) == 0
        assert t.lookup(k(1)) == 2
        assert t.evictions == 0


class TestEviction:
    def test_lru_evicts_oldest_clean(self):
        t = MemoTable(max_entries=2)
        t.publish(k(1), 1)
        t.publish(k(2), 1)
        t.publish(k(3), 1)
        assert t.evictions == 1
        assert t.lookup(k(1)) is None  # oldest went
        assert t.lookup(k(2)) == 1
        assert t.lookup(k(3)) == 1

    def test_lookup_refreshes_recency(self):
        t = MemoTable(max_entries=2)
        t.publish(k(1), 1)
        t.publish(k(2), 1)
        t.lookup(k(1))  # k1 is now the most recently used
        t.publish(k(3), 1)
        assert t.lookup(k(1)) == 1
        assert t.lookup(k(2)) is None

    def test_publish_returns_evicted_count(self):
        t = MemoTable(max_entries=2)
        assert [t.publish(k(i), 1) for i in range(4)] == [0, 0, 1, 1]
        assert t.evictions == 2
        assert len(t) == 2

    def test_zero_cap_means_unbounded(self):
        t = MemoTable(max_entries=0)
        for i in range(100):
            t.publish(k(i), 1)
        assert len(t) == 100
        assert t.evictions == 0


class TestStats:
    def test_contains(self):
        t = MemoTable()
        t.publish(k(1), 1)
        assert k(1) in t
        assert k(3) not in t
