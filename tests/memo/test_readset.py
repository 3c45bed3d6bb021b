"""Read-set verdict memo: a state matching an earlier check on every byte
that check read gets the earlier verdict.

The contract under test:

1. soundness — with the real check re-run on every read-set hit (on a
   fresh copy of the hit's crash image), the replayed ``(consequence,
   detail, paths)`` and recovered-outcome digest equal the re-check's, on
   NOVA ACE seq-1, a seq-2 slice, two fuzz segments and PMFS seq-1; and
   the full report lists equal a run with the tier off;
2. exact masking — a read keeps every byte no earlier checker write
   covered, even inside a cache line that write touched;
3. the context carries the op arguments — two mid-syscall states with the
   same trees and op name but different arguments never share a buggy
   verdict;
4. the counters — read-set hits are hits, ``sum(reasons) == misses``
   stays exact, and the hits fold into stats, coverage, the report and
   ``diff``.
"""

import itertools
import json
from dataclasses import dataclass

import pytest

from repro.analysis.reporting import CampaignSummary, render_markdown
from repro.core.checker import CheckMemo, ConsistencyChecker
from repro.core.harness import Chipmunk, ChipmunkConfig, TestResult
from repro.core.oracle import run_oracle
from repro.core.replayer import enumerate_crash_states
from repro.fs.bugs import BugConfig
from repro.memo.readset import (
    ReadSetTable,
    Verdict,
    merge_pieces,
    pristine_reads,
)
from repro.obs.campaign import CampaignStats
from repro.obs.coverage import CoverageReport
from repro.obs.diff import _metrics_of_stats
from repro.pm.device import PMDevice
from repro.workloads import ace
from repro.workloads.fuzzer import WorkloadFuzzer
from repro.workloads.ops import Op


# ----------------------------------------------------------------------
# Soundness: re-check every hit
# ----------------------------------------------------------------------
class Verifier:
    """Re-runs the real check on every read-set hit and records any
    disagreement with the replayed verdict."""

    def __init__(self, monkeypatch):
        self.hits = 0
        self.mismatches = []
        self._image = None
        lookup = ReadSetTable.lookup
        replay = ConsistencyChecker.replay
        verifier = self

        def verified_lookup(table, context, image):
            verdict = lookup(table, context, image)
            if verdict is not None:
                # The view is pristine here: the checker has not run.
                verifier._image = bytes(image)
            return verdict

        def verified_replay(checker, state, verdict):
            device = PMDevice.from_snapshot(verifier._image)
            real = checker._check_device(state, device)
            got = tuple((r.consequence, r.detail, r.paths) for r in real)
            verifier.hits += 1
            if got != verdict.reports or checker.last_outcome != verdict.outcome:
                verifier.mismatches.append((state.describe(), got, verdict))
            return replay(checker, state, verdict)

        monkeypatch.setattr(ReadSetTable, "lookup", verified_lookup)
        monkeypatch.setattr(ConsistencyChecker, "replay", verified_replay)


def report_bytes(results):
    return json.dumps(
        [[r.to_dict() for r in result.reports] for result in results],
        sort_keys=True,
    ).encode()


def ace_results(cm, seq, n, fs_mode="pm"):
    return [
        cm.test_workload(w.core, setup=w.setup)
        for w in itertools.islice(ace.generate(seq, mode=fs_mode), n)
    ]


def fuzz_results(cm, seeds=(0, 1), executions=4):
    results = []
    for seed in seeds:
        fuzzer = WorkloadFuzzer(cm, seed=seed)
        results.extend(fuzzer.step() for _ in range(executions))
    return results


def tier_off(fs):
    """A Chipmunk whose memo runs without the read-set table."""
    cm = Chipmunk(fs)
    cm.readset_table = None
    return cm


CAMPAIGNS = {
    "nova-ace-seq1": lambda cm: ace_results(cm, 1, 55),
    "nova-ace-seq1+seq2-slice": lambda cm: (
        ace_results(cm, 1, 55) + ace_results(cm, 2, 40)
    ),
    "nova-fuzz-two-segments": fuzz_results,
    "pmfs-ace-seq1": lambda cm: ace_results(cm, 1, 55),
}


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_every_hit_matches_a_real_check(name, monkeypatch):
    fs = name.split("-")[0]
    reference = CAMPAIGNS[name](tier_off(fs))
    verifier = Verifier(monkeypatch)
    cm = Chipmunk(fs)
    results = CAMPAIGNS[name](cm)
    assert verifier.hits > 0
    assert verifier.mismatches == []
    assert verifier.hits == sum(r.memo_readset_hits for r in results)
    # Replayed reports are the ones a check would have built: the full
    # report lists equal the tier-off run's, provenance included.
    assert report_bytes(results) == report_bytes(reference)
    assert [r.n_unique_outcomes for r in results] == \
        [r.n_unique_outcomes for r in reference]
    assert [r.n_unique_states for r in results] == \
        [r.n_unique_states for r in reference]


# ----------------------------------------------------------------------
# Exact masking
# ----------------------------------------------------------------------
class TestPristineReads:
    def test_untouched_reads_kept_whole(self):
        trace = [(0, b"abcd"), (100, b"xy")]
        assert pristine_reads(trace, 256) == [(0, b"abcd"), (100, b"xy")]

    def test_read_of_own_write_is_masked(self):
        trace = [(10, 4), (10, b"WXYZ")]
        assert pristine_reads(trace, 256) == []

    def test_partial_overlap_in_one_line_keeps_unwritten_bytes(self):
        """Write [12, 16), then read [8, 24) — all in cache line 0.  The
        eight unwritten bytes still count; a per-line mask would drop
        them."""
        trace = [(12, 4), (8, b"abcdWXYZefghijkl")]
        assert pristine_reads(trace, 256) == [(8, b"abcd"), (16, b"efghijkl")]

    def test_read_before_write_stays_pristine(self):
        trace = [(8, b"abcdefgh"), (8, 8), (8, b"ABCDEFGH")]
        assert pristine_reads(trace, 256) == [(8, b"abcdefgh")]

    def test_gaps_between_writes(self):
        trace = [(2, 2), (6, 2), (0, b"0123456789")]
        assert pristine_reads(trace, 64) == [
            (0, b"01"), (4, b"45"), (8, b"89"),
        ]

    def test_merge_overlapping_and_adjacent_pieces(self):
        spans, data = merge_pieces([(4, b"efgh"), (0, b"abcdef"), (8, b"ij")])
        assert spans == ((0, 10),)
        assert data == b"abcdefghij"


class TestTableMasking:
    VERDICT = Verdict(reports=(), outcome=b"o")

    def _table(self):
        # Read [0, 16) and [32, 48); the checker wrote [36, 40) before the
        # second read, in the same cache line.
        image = bytearray(range(64))
        trace = [(0, bytes(image[0:16])), (36, 4), (32, bytes(image[32:48]))]
        table = ReadSetTable()
        table.record(b"ctx", trace, len(image), self.VERDICT)
        return table, image

    def test_same_read_bytes_hit(self):
        table, image = self._table()
        image[20] ^= 0xFF  # never read
        image[37] ^= 0xFF  # written before it was read
        assert table.lookup(b"ctx", image) is self.VERDICT

    def test_unwritten_byte_next_to_a_write_must_match(self):
        table, image = self._table()
        image[40] ^= 0xFF  # read, same line as the write, never written
        assert table.lookup(b"ctx", image) is None

    def test_context_separates(self):
        table, image = self._table()
        assert table.lookup(b"other", image) is None

    def test_lru_bound_drops_signatures_with_their_last_entry(self):
        table = ReadSetTable(max_entries=1)
        image = bytearray(64)
        table.record(b"a", [(0, bytes(8))], 64, self.VERDICT)
        table.record(b"b", [(8, bytes(8))], 64, self.VERDICT)
        assert len(table) == 1
        assert b"a" not in table._signatures
        assert table.lookup(b"a", image) is None
        assert table.lookup(b"b", image) is self.VERDICT


# ----------------------------------------------------------------------
# Op arguments in the context
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MidState:
    """The context fields of a crash inside syscall 2."""

    image: bytes
    syscall: int = 2
    mid_syscall: bool = True
    after_syscall: int = 1


def keep_size_fallocate(offset, length):
    """fallocate inside a 5000-byte file: pre and post trees coincide
    whatever the arguments, so only the op text tells the states apart."""
    return [
        Op("creat", ("/f",)),
        Op("write", ("/f", 0, 1, 5000)),
        Op("fallocate", ("/f", offset, length)),
    ]


def reports_json(result):
    return json.dumps([r.to_dict() for r in result.reports], sort_keys=True)


class TestOpArgsContext:
    def test_mid_syscall_context_carries_op_args(self):
        cm = Chipmunk("nova", bugs=BugConfig.only(8))
        checkers = []
        for args in ((0, 100), (100, 100)):
            workload = keep_size_fallocate(*args)
            oracle = run_oracle(
                cm.fs_class, workload, cm.config.device_size, bugs=cm.bugs
            )
            checkers.append(ConsistencyChecker(cm.fs_class, oracle, "w",
                                               bugs=cm.bugs))
        state = MidState(image=bytes(cm.config.device_size))
        a, b = checkers
        assert a.context_digest(state) == b.context_digest(state)
        assert a.verdict_context(state) != b.verdict_context(state)

    def test_tree_digest_covers_content_past_the_preview(self):
        """Expected trees differing only past an observation's 32-byte
        ``repr`` preview get different context digests."""
        cm = Chipmunk("pmfs")
        digests = set()
        for fill in (1, 2):
            workload = [Op("creat", ("/f",)), Op("write", ("/f", 0, 65, 64)),
                        Op("write", ("/f", 40, fill, 8))]
            oracle = run_oracle(
                cm.fs_class, workload, cm.config.device_size, bugs=cm.bugs
            )
            checker = ConsistencyChecker(cm.fs_class, oracle, "w",
                                         bugs=cm.bugs)
            digests.add(checker.context_digest(
                MidState(image=b"", syscall=None, mid_syscall=False,
                         after_syscall=2)
            ))
        assert len(digests) == 2

    def test_buggy_verdict_not_shared_across_op_args(self):
        """Bug 8 makes both workloads' mid-fallocate states buggy, with
        report text quoting the op.  Run after the (0, 100) workload, the
        (100, 100) one must report its own arguments."""
        cm = Chipmunk("nova", bugs=BugConfig.only(8))
        cm.test_workload(keep_size_fallocate(0, 100))
        after = cm.test_workload(keep_size_fallocate(100, 100))
        alone = Chipmunk("nova", bugs=BugConfig.only(8)).test_workload(
            keep_size_fallocate(100, 100)
        )
        assert any("fallocate('/f', 100, 100)" in r.detail
                   for r in alone.reports)
        assert reports_json(after) == reports_json(alone)


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
WORKLOAD = [Op("creat", ("/foo",)), Op("creat", ("/foo",))]


class TestCounters:
    def test_hits_are_hits_and_reasons_sum_to_misses(self):
        result = Chipmunk("nova").test_workload(WORKLOAD)
        assert result.memo_readset_hits > 0
        assert result.memo_hits + result.memo_misses == result.n_crash_states
        assert sum(result.memo_miss_reasons.values()) == result.memo_misses
        assert result.memo_misses + result.memo_readset_hits == \
            result.n_unique_states

    def test_memo_without_table_never_replays(self):
        cm = Chipmunk("nova")
        workload = list(WORKLOAD)
        oracle = run_oracle(
            cm.fs_class, workload, cm.config.device_size, bugs=cm.bugs
        )
        memo = CheckMemo(ConsistencyChecker(cm.fs_class, oracle, "w",
                                            bugs=cm.bugs))
        base, log, _ = cm.record(workload)
        for state in enumerate_crash_states(base, log):
            memo.check(state)
        assert memo.readset_hits == 0
        assert memo.unique == memo.misses

    def test_tier_off_without_memo_and_under_fsync_points(self):
        off = Chipmunk("nova", config=ChipmunkConfig(memoize=False))
        fsync = Chipmunk("nova", config=ChipmunkConfig(crash_points="fsync"))
        assert off.test_workload(WORKLOAD).memo_readset_hits == 0
        assert fsync.test_workload(WORKLOAD).memo_readset_hits == 0
        assert len(off.readset_table) == len(fsync.readset_table) == 0

    def test_counters_fold_everywhere(self):
        result = Chipmunk("nova").test_workload(WORKLOAD)
        hits = result.memo_readset_hits
        rebuilt = TestResult.from_dict(result.to_dict())
        assert rebuilt.memo_readset_hits == hits

        stats = CampaignStats()
        stats.add_result(result)
        assert stats.n_memo_readset_hits == hits
        assert stats.to_json_dict()["memo_readset_hits"] == hits
        assert f"({hits} by read set)" in stats.render()
        traced = CampaignStats()
        traced._fold_workload_event(result.to_dict())
        assert traced.n_memo_readset_hits == hits

        coverage = CoverageReport()
        coverage.add_fields(result.to_dict())
        assert coverage.memo_readset_hits == hits
        assert coverage.to_json_dict()["memo_readset_hits"] == hits
        assert coverage.attribution_consistent

        summary = CampaignSummary(fs_name="nova", generator="ace")
        summary.add_result(result)
        assert summary.memo_readset_hits == hits
        assert f"{hits} replayed by read set" in render_markdown(summary)

        metrics = _metrics_of_stats(stats)
        assert metrics["memo_readset_hits"] == hits
        assert metrics["checks_run"] == result.memo_misses
