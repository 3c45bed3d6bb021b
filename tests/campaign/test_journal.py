"""Checkpoint journal: append, replay, and torn-write tolerance."""

import json
import os

from repro.campaign.journal import CheckpointJournal


def open_journal(tmp_path):
    journal = CheckpointJournal(str(tmp_path))
    journal.open()
    return journal


class TestRoundTrip:
    def test_meta_and_items_replay(self, tmp_path):
        journal = open_journal(tmp_path)
        journal.write_meta({"fs": "nova", "generator": "ace"}, n_items=3)
        journal.write_item_done("ace:1:000000", 0, worker=0, retries=0,
                                results=[{"workload_desc": "w0"}])
        journal.write_item_done("ace:1:000001", 1, worker=1, retries=1,
                                results=[{"workload_desc": "w1"}])
        journal.write_item_quarantined("ace:1:000002", 2, retries=3,
                                       error="worker died")
        journal.write_done(1.5)
        journal.close()

        state = CheckpointJournal.replay(str(tmp_path))
        assert state.spec_dict == {"fs": "nova", "generator": "ace"}
        assert state.n_items == 3
        assert set(state.results) == {"ace:1:000000", "ace:1:000001"}
        assert state.results["ace:1:000001"] == [{"workload_desc": "w1"}]
        assert state.ordinals["ace:1:000001"] == 1
        assert set(state.quarantined) == {"ace:1:000002"}
        assert state.done_ids == {
            "ace:1:000000", "ace:1:000001", "ace:1:000002"
        }
        assert state.completed_marker

    def test_missing_journal_is_empty_state(self, tmp_path):
        state = CheckpointJournal.replay(str(tmp_path / "nowhere"))
        assert state.spec_dict is None
        assert not state.done_ids
        assert not state.completed_marker


class TestCrashTolerance:
    def test_torn_final_line_is_ignored(self, tmp_path):
        journal = open_journal(tmp_path)
        journal.write_meta({"fs": "nova"}, n_items=2)
        journal.write_item_done("ace:1:000000", 0, 0, 0, [])
        journal.close()
        # Simulate a SIGKILL mid-append: a truncated JSON line at the tail.
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write('{"type":"item_done","id":"ace:1:0000')
        state = CheckpointJournal.replay(str(tmp_path))
        assert state.done_ids == {"ace:1:000000"}
        assert state.torn_lines == 1
        # The resumed run's first record must not be glued onto the torn
        # tail (and lost with it).
        journal = open_journal(tmp_path)
        journal.write_item_done("ace:1:000001", 1, 0, 0, [])
        journal.close()
        state = CheckpointJournal.replay(str(tmp_path))
        assert state.done_ids == {"ace:1:000000", "ace:1:000001"}
        assert state.torn_lines == 1

    def test_append_is_readable_line_by_line(self, tmp_path):
        journal = open_journal(tmp_path)
        journal.write_meta({"fs": "nova"}, n_items=1)
        journal.write_item_done("ace:1:000000", 0, 0, 0, [])
        journal.close()
        with open(journal.path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        assert [r["type"] for r in records] == ["campaign_meta", "item_done"]

    def test_resume_appends_rather_than_truncates(self, tmp_path):
        journal = open_journal(tmp_path)
        journal.write_meta({"fs": "nova"}, n_items=2)
        journal.write_item_done("ace:1:000000", 0, 0, 0, [])
        journal.close()
        journal2 = open_journal(tmp_path)
        journal2.write_item_done("ace:1:000001", 1, 0, 0, [])
        journal2.close()
        state = CheckpointJournal.replay(str(tmp_path))
        assert state.done_ids == {"ace:1:000000", "ace:1:000001"}

    def test_later_done_supersedes_quarantine(self, tmp_path):
        # A resume can re-run an item that was only quarantined because the
        # first run died around it; success on retry wins.
        journal = open_journal(tmp_path)
        journal.write_item_quarantined("ace:1:000000", 0, retries=3, error="x")
        journal.write_item_done("ace:1:000000", 0, 0, 0, [{"workload_desc": "w"}])
        journal.close()
        state = CheckpointJournal.replay(str(tmp_path))
        assert not state.quarantined
        assert "ace:1:000000" in state.results
