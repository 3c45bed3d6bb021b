"""Campaign spec: JSON round-trip and validation."""

import pytest

from repro.campaign.spec import CampaignSpec
from repro.fs.bugs import BugConfig


class TestValidation:
    def test_unknown_fs_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(fs="not-a-fs")

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(fs="nova", generator="symbolic")

    def test_bad_seq_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(fs="nova", seq=4)


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = CampaignSpec(fs="pmfs", generator="fuzz", bug_ids=[1, 2],
                            cap=3, seed=7, segments=2, executions=10,
                            trace=True)
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_keys_ignored(self):
        # Forward compatibility: an old engine can read a newer journal.
        data = CampaignSpec(fs="nova").to_dict()
        data["future_knob"] = 42
        assert CampaignSpec.from_dict(data) == CampaignSpec(fs="nova")

    def test_retired_memo_keys_still_load(self, tmp_path):
        """Journals written while the campaign-wide check-memo service
        existed carry its three spec keys, and journals written while the
        image backend was selectable carry ``image_backend``; such a
        campaign still resumes."""
        from repro.campaign import CampaignEngine, EngineConfig
        from repro.campaign.journal import CheckpointJournal

        spec = CampaignSpec(fs="nova", max_workloads=2)
        old = dict(spec.to_dict(), shared_memo=True,
                   memo_address="127.0.0.1:9009", memo_entries=262144,
                   image_backend="auto")
        assert CampaignSpec.from_dict(old) == spec
        journal = CheckpointJournal(str(tmp_path))
        journal.open()
        journal.write_meta(old, n_items=2)
        journal.close()
        merged = CampaignEngine(
            spec, str(tmp_path), EngineConfig(workers=1), resume=True
        ).run()
        assert merged.summary.workloads_tested == 2


class TestBugConfig:
    def test_default_is_fs_bug_catalogue(self):
        assert CampaignSpec(fs="nova").bug_config() == BugConfig.buggy("nova")

    def test_empty_list_is_fixed(self):
        assert CampaignSpec(fs="nova", bug_ids=[]).bug_config() == BugConfig.fixed()

    def test_explicit_ids(self):
        spec = CampaignSpec(fs="nova", bug_ids=[4])
        assert spec.bug_config() == BugConfig.only(4)


class TestMode:
    def test_strong_fs_is_pm_mode(self):
        assert CampaignSpec(fs="nova").mode == "pm"

    def test_weak_fs_is_fsync_mode(self):
        assert CampaignSpec(fs="ext4-dax").mode == "fsync"


class TestBuildChipmunk:
    def test_builds_configured_harness(self):
        spec = CampaignSpec(fs="winefs", bug_ids=[], cap=1)
        chipmunk = spec.build_chipmunk()
        assert chipmunk.fs_class.name == "winefs"
        assert chipmunk.config.cap == 1
        assert chipmunk.bugs == BugConfig.fixed()
