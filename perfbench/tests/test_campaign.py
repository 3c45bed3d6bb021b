"""Journal fold, wall-time split and output check of the benchmark."""

import json

import pytest

import campaign


def write_journal(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def result(states):
    return {"workload_desc": "w", "n_crash_states": states}


@pytest.fixture
def journal(tmp_path):
    path = tmp_path / "journal.jsonl"
    write_journal(path, [
        {"type": "campaign_meta", "spec": {}, "n_items": 4, "t": 100.5},
        {"type": "item_done", "id": "a", "ordinal": 0, "worker": 0,
         "retries": 0, "results": [result(3), result(2)], "t": 101.0},
        {"type": "item_done", "id": "b", "ordinal": 1, "worker": 1,
         "retries": 2, "results": [result(4)], "t": 102.0},
        {"type": "item_quarantined", "id": "c", "ordinal": 2, "retries": 3,
         "error": "worker died", "t": 102.5},
        {"type": "item_done", "id": "d", "ordinal": 3, "worker": 0,
         "retries": 1, "results": [result(1)], "t": 103.25},
        {"type": "campaign_done", "elapsed": 3.0, "t": 103.5},
    ])
    return path


def launch(rc=1, started=100.0, wall=4.0):
    return campaign.Launch(rc=rc, started=started, t0=10.0, t1=10.0 + wall,
                           cpu_s=1.0, peak_rss_mb=50.0)


class TestFold:
    def test_counts(self, journal):
        fold = campaign.fold_journal(str(journal))
        assert fold.items == 4
        assert fold.workloads == 4
        assert fold.crash_states == 10
        assert fold.completed

    def test_failed_items_are_retries_plus_quarantined(self, journal):
        fold = campaign.fold_journal(str(journal))
        assert (fold.retries, fold.quarantined) == (3, 1)
        assert fold.failed_items == 4

    def test_split_adds_up_to_wall(self, journal):
        fold = campaign.fold_journal(str(journal))
        parts = campaign.split(launch(), fold)
        assert parts.setup_s == pytest.approx(0.5)
        assert parts.run_s == pytest.approx(2.75)
        assert parts.tail_s == pytest.approx(0.75)

    def test_split_needs_meta_and_items(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_journal(path, [{"type": "campaign_meta", "n_items": 1, "t": 1}])
        with pytest.raises(ValueError):
            campaign.split(launch(), campaign.fold_journal(str(path)))


class TestOutputCheck:
    @pytest.fixture
    def outdir(self, tmp_path, journal):
        (tmp_path / "bugs.json").write_bytes(b'{"reports": []}')
        return tmp_path

    def reference(self, outdir, journal):
        campaign.save_reference(str(outdir / "ref"), str(outdir),
                                campaign.fold_journal(str(journal)))
        return campaign.load_reference(str(outdir / "ref"))

    def test_matching_output_passes(self, outdir, journal):
        ref = self.reference(outdir, journal)
        fold = campaign.fold_journal(str(journal))
        assert campaign.check_output(launch(rc=1), str(outdir), fold, ref) == []
        assert campaign.check_output(launch(rc=0), str(outdir), fold, ref) == []

    def test_tampered_bugs_json_is_rejected(self, outdir, journal):
        ref = self.reference(outdir, journal)
        (outdir / "bugs.json").write_bytes(b'{"reports": [] }')
        fold = campaign.fold_journal(str(journal))
        problems = campaign.check_output(launch(), str(outdir), fold, ref)
        assert problems == ["bugs.json differs from the reference"]

    def test_other_exit_code_and_totals_are_rejected(self, outdir, journal):
        ref = self.reference(outdir, journal)
        fold = campaign.fold_journal(str(journal))
        fold.crash_states += 1
        problems = campaign.check_output(launch(rc=2), str(outdir), fold, ref)
        assert problems == ["exit code 2",
                            "11 crash states, reference 10"]

    def test_missing_journal_is_rejected(self, outdir, journal):
        ref = self.reference(outdir, journal)
        assert campaign.check_output(launch(), str(outdir), None, ref)

    def test_missing_reference_is_none(self, tmp_path):
        assert campaign.load_reference(str(tmp_path / "absent")) is None
