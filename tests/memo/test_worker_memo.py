"""Worker-lifetime check memo: clean verdicts outlive the workload.

A :class:`~repro.core.harness.Chipmunk` keeps one
:class:`~repro.memo.store.MemoTable` for its lifetime, and every memoized
workload's :class:`~repro.core.checker.CheckMemo` shares it.  The contract
under test:

1. a state checked CLEAN in workload A is skipped in workload B;
2. a buggy state from A is re-checked in B, so B's reports are byte-equal
   to a memo-off run;
3. a table capped at one entry changes only how often clean states are
   re-checked, never the reports;
4. the oracle context folds into the key, so byte-identical images judged
   against different expectations never cross-hit;
5. ``sum(reasons) == misses`` survives cross-workload hits; and
6. a 2-worker seq-2 campaign is ``diff --strict``-equal to the serial
   memo-off reference.
"""

import json
from dataclasses import dataclass

from repro.campaign import CampaignEngine, CampaignSpec, EngineConfig
from repro.core.checker import CheckMemo, ConsistencyChecker
from repro.core.harness import Chipmunk, ChipmunkConfig
from repro.core.oracle import run_oracle
from repro.core.replayer import enumerate_crash_states
from repro.fs.bugs import BugConfig
from repro.memo.store import MemoTable
from repro.obs.diff import diff_sides, load_side
from repro.workloads.ops import Op

WORKLOAD = [Op("mkdir", ("/A",)), Op("creat", ("/A/f",))]
#: Shares WORKLOAD's first syscall, then diverges.
SIBLING = [Op("mkdir", ("/A",)), Op("creat", ("/A/g",))]


def fresh_memo(cm, table=None, workload=WORKLOAD):
    """A CheckMemo over a fresh checker for ``workload`` (one per
    'workload'), sharing ``table`` when given."""
    oracle = run_oracle(
        cm.fs_class, workload, cm.config.device_size, bugs=cm.bugs
    )
    checker = ConsistencyChecker(cm.fs_class, oracle, "w", bugs=cm.bugs)
    return CheckMemo(checker, table=table)


def run_states(cm, memo, workload=WORKLOAD):
    """Check every crash state of ``workload``; returns the report list."""
    base, log, _ = cm.record(workload)
    reports = []
    for state in enumerate_crash_states(base, log):
        found = memo.check(state)
        if found:
            reports.extend(found)
    return reports


def report_bytes(result):
    return json.dumps(
        [r.to_dict() for r in result.reports], sort_keys=True
    ).encode()


def exemplar_bytes(result):
    """The workload's contribution to ``bugs.json``: cluster exemplars."""
    return json.dumps(
        [c.exemplar.to_dict() for c in result.clusters], sort_keys=True
    ).encode()


def per_workload(workload, memoize=True):
    """The workload on a fresh Chipmunk: a memo that starts empty."""
    return Chipmunk(
        "nova", config=ChipmunkConfig(memoize=memoize)
    ).test_workload(workload)


class TestCrossWorkload:
    def test_second_workload_skips_clean_states(self):
        """SIBLING, run after WORKLOAD on the same table, skips the states
        of the shared first syscall that WORKLOAD checked clean."""
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        table = MemoTable()
        run_states(cm, fresh_memo(cm, table))
        after = fresh_memo(cm, table, workload=SIBLING)
        assert run_states(cm, after, workload=SIBLING) == []
        alone = fresh_memo(cm, workload=SIBLING)
        run_states(cm, alone, workload=SIBLING)
        assert after.cross_hits > 0
        assert after.misses == alone.misses - after.cross_hits
        assert after.hits + after.misses == alone.hits + alone.misses

    def test_identical_workload_checks_nothing_twice(self):
        """A clean workload run twice on one table: the second run checks
        nothing, and every first sighting of a state is a cross hit."""
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        table = MemoTable()
        first = fresh_memo(cm, table)
        run_states(cm, first)
        second = fresh_memo(cm, table)
        assert run_states(cm, second) == []
        assert second.misses == 0
        assert second.cross_hits == first.misses
        assert second.hits == first.hits + first.misses

    def test_only_clean_verdicts_enter_the_table(self):
        """A buggy run records only its clean states in the shared table:
        every table entry is a key that checked clean."""
        cm = Chipmunk("nova")  # default bug config: states will be buggy
        table = MemoTable()
        memo = fresh_memo(cm, table)
        assert run_states(cm, memo)  # the point of the default config
        assert len(table) == memo.misses - len(memo._buggy)
        assert memo._buggy
        assert not any(key in table for key in memo._buggy)

    def test_harness_shares_one_table_across_workloads(self):
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        first = cm.test_workload(WORKLOAD)
        second = cm.test_workload(SIBLING)
        alone = Chipmunk("nova", bugs=BugConfig.fixed()).test_workload(SIBLING)
        assert second.memo_hits > alone.memo_hits
        assert second.n_unique_states < alone.n_unique_states
        assert first.n_crash_states and len(cm.memo_table) > 0


class TestBuggyPerWorkload:
    def test_buggy_state_rechecked_in_next_workload(self):
        """The same buggy workload twice on one Chipmunk: the second run
        skips the clean states and judges every buggy one again — by
        replaying the verdict the read-set table recorded for the same
        bytes, so it emits the reports a re-check would.  Its reports are
        byte-equal to the first run's, and its ``bugs.json`` exemplars to
        a memo-off run's.  (Full report lists of memo-on and memo-off runs
        differ even per workload: the delta content key is finer than
        memo-off's whole-image sha1, so memo-on re-judges a few
        byte-identical states.)"""
        cm = Chipmunk("nova")
        first = cm.test_workload(WORKLOAD)
        second = cm.test_workload(WORKLOAD)
        reference = per_workload(WORKLOAD, memoize=False)
        assert reference.reports
        assert report_bytes(second) == report_bytes(first)
        assert exemplar_bytes(second) == exemplar_bytes(reference)
        # Every buggy state is judged again, none by a real check: the
        # first run already recorded a verdict for each one's exact bytes.
        assert second.memo_misses == 0
        assert 0 < second.memo_readset_hits < first.n_unique_states
        assert second.memo_hits - second.memo_readset_hits > \
            first.memo_hits - first.memo_readset_hits

    def test_buggy_keys_survive_a_one_entry_table(self):
        """Buggy keys never enter the LRU: with a one-entry table, a buggy
        state recurring inside the workload is still skipped, so it never
        reports twice."""
        cm = Chipmunk("nova")
        memo = fresh_memo(cm, MemoTable(max_entries=1))
        assert run_states(cm, memo)
        assert run_states(cm, memo) == []  # same workload, states recur

    def test_memo_off_keeps_a_per_workload_table(self):
        """The memo-off reference never sees another workload's verdicts."""
        cm = Chipmunk("nova", config=ChipmunkConfig(memoize=False))
        first = cm.test_workload(WORKLOAD)
        second = cm.test_workload(WORKLOAD)
        assert second.memo_misses == first.memo_misses
        assert len(cm.memo_table) == 0


class TestBoundedTable:
    def test_one_entry_table_preserves_reports(self):
        """A table capped at one entry thrashes constantly and re-checks
        clean states, but every workload's reports stay byte-equal to a
        run on an empty memo, and its exemplars to a memo-off run's."""
        sequence = [WORKLOAD, SIBLING, WORKLOAD]
        tiny = Chipmunk("nova")
        tiny.memo_table = MemoTable(max_entries=1)
        evictions = 0
        for workload in sequence:
            got = tiny.test_workload(workload)
            evictions += got.memo_evictions
            assert report_bytes(got) == report_bytes(per_workload(workload))
            assert exemplar_bytes(got) == exemplar_bytes(
                per_workload(workload, memoize=False)
            )
        assert evictions > 0


class TestContextSeparation:
    @dataclass(frozen=True)
    class S:
        syscall: object = None
        mid_syscall: bool = False
        after_syscall: int = -1

    def _checker(self, cm, workload):
        oracle = run_oracle(
            cm.fs_class, workload, cm.config.device_size, bugs=cm.bugs
        )
        return ConsistencyChecker(cm.fs_class, oracle, "w", bugs=cm.bugs)

    def test_different_expectations_different_digest(self):
        """creat and mkdir leave different post-op trees: a byte-identical
        crash image checked after syscall 0 must not cross-hit between
        those workloads."""
        cm = Chipmunk("nova")
        a = self._checker(cm, [Op("creat", ("/A",))])
        b = self._checker(cm, [Op("mkdir", ("/A",))])
        post0 = self.S(after_syscall=0)
        assert a.context_digest(post0) != b.context_digest(post0)

    def test_identical_expectations_identical_digest(self):
        """Two independent checkers over the same workload agree — the
        digest is a pure function of fs/bugs/expectations, which is what
        makes a key recorded by one workload valid in the next."""
        cm = Chipmunk("nova")
        a = self._checker(cm, [Op("creat", ("/A",))])
        b = self._checker(cm, [Op("creat", ("/A",))])
        for state in (
            self.S(),  # pre-workload image
            self.S(after_syscall=0),
            self.S(syscall=0, mid_syscall=True),
        ):
            assert a.context_digest(state) == b.context_digest(state)

    def test_mid_and_post_contexts_separate(self):
        cm = Chipmunk("nova")
        a = self._checker(cm, [Op("creat", ("/A",))])
        assert a.context_digest(self.S(syscall=0, mid_syscall=True)) != \
            a.context_digest(self.S(after_syscall=0))

    def test_bug_config_folds_into_digest(self):
        cm_buggy = Chipmunk("nova")
        cm_fixed = Chipmunk("nova", bugs=BugConfig.fixed())
        a = self._checker(cm_buggy, [Op("creat", ("/A",))])
        b = self._checker(cm_fixed, [Op("creat", ("/A",))])
        assert a.context_digest(self.S()) != b.context_digest(self.S())

    def test_other_expectations_never_cross_hit(self):
        """Byte-identical pre-workload images under different workloads'
        expectations get different keys."""
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        table = MemoTable()
        creat, mkdir = [Op("creat", ("/A",))], [Op("mkdir", ("/A",))]
        run_states(cm, fresh_memo(cm, table, workload=creat), workload=creat)
        other = fresh_memo(cm, table, workload=mkdir)
        run_states(cm, other, workload=mkdir)
        assert other.cross_hits == 0


class TestAttributionInvariant:
    def test_sum_reasons_equals_misses_with_cross_workload_hits(self):
        """A cross-workload hit is a hit: it seeds the attribution
        universe but counts no miss reason, so the invariant stays exact —
        and states on a fence base an earlier workload saw classify as
        new content, not cold_base."""
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        table = MemoTable()
        run_states(cm, fresh_memo(cm, table))
        after = fresh_memo(cm, table, workload=SIBLING)
        run_states(cm, after, workload=SIBLING)
        alone = fresh_memo(cm, workload=SIBLING)
        run_states(cm, alone, workload=SIBLING)
        assert after.cross_hits > 0
        assert sum(after.attribution.reasons.values()) == after.misses
        assert after.attribution.total == after.misses
        assert after.attribution.reasons.get("cold_base", 0) < \
            alone.attribution.reasons.get("cold_base", 0)


N = 6  # per sequence length; the campaign runs seq 1 and seq 2


def run_campaign(outdir, workers, memoize):
    spec = CampaignSpec(fs="nova", seq=2, max_workloads=N, memoize=memoize)
    engine = CampaignEngine(
        spec, str(outdir),
        EngineConfig(workers=workers, batch_size=3, item_timeout=120.0),
    )
    merged = engine.run()
    assert merged.summary.workloads_tested == 2 * N
    assert not merged.quarantined
    return merged


class TestCampaignEquivalence:
    def test_two_worker_seq2_strict_equal_to_serial_memo_off(self, tmp_path):
        """Seq-2 workloads share multi-op prefixes, so the worker-lifetime
        memo skips states across workloads; the campaign must still be
        ``diff --strict``-equal to the serial memo-off reference."""
        reference = tmp_path / "reference"
        memo_on = tmp_path / "memo-on"
        run_campaign(reference, workers=1, memoize=False)
        merged = run_campaign(memo_on, workers=2, memoize=True)
        diff = diff_sides(
            load_side(str(reference)), load_side(str(memo_on)), strict=True
        )
        assert diff.clusters_compared
        assert diff.strict_equal is True
        assert not diff.divergent
        assert (reference / "bugs.json").read_bytes() == \
            (memo_on / "bugs.json").read_bytes()
        assert merged.summary.memo_hits > 0
