"""Per-workload lineage tables: O(region) tagging and the compact wire form.

A workload's log is tabulated once (:class:`LogTable`) and each crash
state re-tags only its crash region.  A serialized ``TestResult`` stores
the table and the repro context once; each report keeps its crash
identity plus a table index.  Both must rebuild exactly the lineage the
straightforward full-prefix tagger produces.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import harness
from repro.core.harness import Chipmunk
from repro.core.triage import triage_reports
from repro.forensics.provenance import (
    DROPPED,
    DURABLE,
    FENCE,
    MARKER,
    PAYLOAD_CAP,
    REPLAYED,
    CrashProvenance,
    LogTable,
    ProvEntry,
    ProvenanceRecorder,
    ProvenanceTables,
    capture_provenance,
    decode_tables,
)
from repro.pm.log import Fence, Flush, NTStore, PMLog, SyscallBegin, SyscallEnd
from repro.workloads import ace
from repro.workloads.fuzzer import WorkloadFuzzer


def reference_entries(log, log_pos, replayed):
    """The full-prefix tagger: every entry up to ``log_pos``, tagged."""
    prefix = log.entries[:log_pos]
    last_fence = -1
    for i, entry in enumerate(prefix):
        if isinstance(entry, Fence):
            last_fence = i
    replayed = set(replayed)
    out = []
    epoch = 0
    pos_in_region = 0
    for seq, entry in enumerate(prefix):
        if isinstance(entry, (NTStore, Flush)):
            if seq < last_fence:
                status = DURABLE
            else:
                status = REPLAYED if pos_in_region in replayed else DROPPED
                pos_in_region += 1
            out.append(ProvEntry(
                seq=seq,
                kind="store" if isinstance(entry, NTStore) else "flush",
                status=status, epoch=epoch, func=entry.func,
                addr=entry.addr, length=entry.length, syscall=entry.syscall,
                payload=entry.data[:PAYLOAD_CAP].hex(),
                payload_truncated=len(entry.data) > PAYLOAD_CAP,
            ))
        elif isinstance(entry, Fence):
            out.append(ProvEntry(
                seq=seq, kind="fence", status=FENCE, epoch=epoch,
                func=entry.func, syscall=entry.syscall,
            ))
            epoch += 1
        elif isinstance(entry, SyscallBegin):
            out.append(ProvEntry(
                seq=seq, kind="syscall_begin", status=MARKER, epoch=epoch,
                syscall=entry.index, label=f"{entry.name}({entry.args})",
            ))
        elif isinstance(entry, SyscallEnd):
            out.append(ProvEntry(
                seq=seq, kind="syscall_end", status=MARKER, epoch=epoch,
                syscall=entry.index, label=entry.name,
            ))
    return tuple(out)


class State:
    """A hand-built crash-point identity (the fields capture reads)."""

    def __init__(self, log_pos, replayed, kind="subset", fence_index=0):
        self.log_pos = log_pos
        self.replayed_entries = tuple(replayed)
        self.kind = kind
        self.fence_index = fence_index
        self.mid_syscall = kind == "subset"
        self.syscall = None
        self.syscall_name = None
        self.after_syscall = -1


# ----------------------------------------------------------------------
# Property: O(region) re-tagging equals the full-prefix tagger
# ----------------------------------------------------------------------
log_op = st.one_of(
    st.tuples(st.just("store"), st.integers(0, 4096),
              st.binary(min_size=1, max_size=48)),
    st.tuples(st.just("flush"), st.integers(0, 4096),
              st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("fence")),
    st.tuples(st.just("syscall")),
)


def build_log(ops):
    log = PMLog()
    n_syscalls = 0
    for op in ops:
        if op[0] == "store":
            log.nt_store(op[1], op[2], "memcpy_nt")
        elif op[0] == "flush":
            log.flush(op[1], op[2], "clwb")
        elif op[0] == "fence":
            log.fence()
        elif log.current_syscall is None:
            log.syscall_begin(n_syscalls, "creat", repr(f"/f{n_syscalls}"))
            n_syscalls += 1
        else:
            log.syscall_end()
    return log


def region_size(log, log_pos):
    """In-flight writes between the last fence before ``log_pos`` and it."""
    n = 0
    for entry in log.entries[:log_pos]:
        if isinstance(entry, Fence):
            n = 0
        elif isinstance(entry, (NTStore, Flush)):
            n += 1
    return n


@st.composite
def log_and_states(draw):
    log = build_log(draw(st.lists(log_op, max_size=40)))
    first_fence = next(
        (i for i, e in enumerate(log.entries) if isinstance(e, Fence)),
        len(log),
    )
    states = []
    for _ in range(draw(st.integers(1, 6))):
        log_pos = draw(st.one_of(
            st.integers(0, len(log)),
            st.integers(0, first_fence),  # before the first fence
        ))
        n = region_size(log, log_pos)
        ends = [p for p in {0, n - 1} if n > 0]  # replayed at both ends
        replayed = draw(st.one_of(
            st.sets(st.integers(0, max(n - 1, 0)), max_size=n),
            st.just(set(ends)),
        )) if n else set()
        states.append(State(log_pos, sorted(replayed)))
    # The final state: end of log, every in-flight write persisted.
    states.append(
        State(len(log), range(region_size(log, len(log))), kind="final")
    )
    return log, states


class TestRetagProperty:
    @given(log_and_states())
    @settings(max_examples=150, deadline=None)
    def test_table_tagging_matches_reference(self, case):
        log, states = case
        table = LogTable.from_log(log)
        recorder = ProvenanceRecorder(log, fs_name="nova")
        encoder = ProvenanceTables()
        wire = []
        for state in states:
            want = reference_entries(log, state.log_pos, state.replayed_entries)
            assert table.tag(state.log_pos, state.replayed_entries) == want
            # The shared recorder table, the per-call prefix table, and the
            # compact wire form all agree with the reference tagger.
            shared = recorder.for_state(state)
            alone = capture_provenance(log, state, fs_name="nova")
            assert shared.entries == want
            assert alone.entries == want
            wire.append((shared, json.loads(json.dumps(encoder.encode(shared)))))
        tables = decode_tables(json.loads(json.dumps(encoder.to_list())))
        assert len(tables) == 1
        for prov, data in wire:
            assert "entries" not in data
            assert CrashProvenance.from_dict(data, tables) == prov

    def test_region_without_stores_tags_nothing(self):
        log = PMLog()
        log.nt_store(0, b"a", "w")
        log.fence()
        log.syscall_begin(0, "mkdir", "'/A'")
        log.syscall_end()
        entries = LogTable.from_log(log).tag(len(log), ())
        assert entries == reference_entries(log, len(log), ())
        assert [e.status for e in entries] == [DURABLE, FENCE, MARKER, MARKER]


# ----------------------------------------------------------------------
# Round trip of real campaign results
# ----------------------------------------------------------------------
def nova_results():
    chipmunk = Chipmunk("nova")
    for index in range(ace.count(1)):
        w = ace.workload_at(1, index)
        yield chipmunk.test_workload(w.core, setup=w.setup)
    for seed in range(3):
        fuzzer = WorkloadFuzzer(Chipmunk("nova"), seed=seed)
        for _ in range(4):
            yield fuzzer.step()


@pytest.fixture(scope="module")
def results():
    return list(nova_results())


def wire(result):
    return harness.TestResult.from_dict(json.loads(json.dumps(result.to_dict())))


class TestResultRoundTrip:
    def test_every_report_rebuilds_equal_provenance(self, results):
        n = 0
        for result in results:
            rebuilt = wire(result)
            assert len(rebuilt.reports) == len(result.reports)
            for got, want in zip(rebuilt.reports, result.reports):
                assert got.provenance == want.provenance
                assert json.dumps(got.to_dict(), sort_keys=True) == \
                    json.dumps(want.to_dict(), sort_keys=True)
                n += 1
        assert n > 100, "the NOVA runs should report plenty of bugs"

    def test_lineage_is_stored_once_per_result(self, results):
        for result in results:
            data = result.to_dict()
            if not result.reports:
                assert "provenance_tables" not in data
                continue
            assert len(data["provenance_tables"]) == 1
            for report in data["reports"]:
                prov = report["provenance"]
                assert prov["table"] == 0
                assert "entries" not in prov and "workload" not in prov

    def test_rebuilt_result_reencodes_compactly(self, results):
        result = next(r for r in results if len(r.reports) > 1)
        assert wire(result).to_dict() == result.to_dict()

    def test_clusters_are_derived_on_first_read(self, results):
        for result in results:
            rebuilt = wire(result)
            assert rebuilt._clusters is None
            assert [c.exemplar.to_dict() for c in rebuilt.clusters] == \
                [c.exemplar.to_dict() for c in result.clusters]
            assert len(rebuilt.clusters) == len(triage_reports(result.reports))

    def test_inline_provenance_results_still_load(self, results):
        """Results serialized with each report's provenance inline."""
        for result in results[:20]:
            data = json.loads(json.dumps(result.to_dict()))
            data.pop("provenance_tables", None)
            data["reports"] = [r.to_dict() for r in result.reports]
            rebuilt = harness.TestResult.from_dict(data)
            assert [r.provenance for r in rebuilt.reports] == \
                [r.provenance for r in result.reports]
