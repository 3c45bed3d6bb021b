"""Memo-miss attribution: every miss gets exactly one reason label."""

from dataclasses import dataclass

from repro.core.checker import CheckMemo, ConsistencyChecker
from repro.core.harness import Chipmunk, ChipmunkConfig
from repro.core.oracle import run_oracle
from repro.core.replayer import enumerate_crash_states
from repro.fs.bugs import BugConfig
from repro.obs.attribution import MISS_REASONS, MemoAttribution
from repro.pm.image import CrashImage, FenceBase
from repro.workloads.ops import Op


@dataclass(frozen=True)
class FakeState:
    """Just enough of a CrashState for classification."""

    image: object
    syscall: object = None
    mid_syscall: bool = False
    after_syscall: bool = False


def _classify(attr, image, syscall=None, mid=False, after=False):
    state = FakeState(image, syscall, mid, after)
    # the memo digest is whatever the memo would key on; the range-wise
    # delta digest serves for CrashImages
    digest = image.digest() if isinstance(image, CrashImage) else bytes(8)
    return attr.classify_miss(state, digest)


class TestReasonClasses:
    def test_cold_base_on_first_sight_of_an_epoch(self):
        attr = MemoAttribution()
        base = FenceBase(bytes(64))
        assert _classify(attr, CrashImage(base, ())) == "cold_base"
        other = FenceBase(bytes([1]) * 64)
        assert _classify(attr, CrashImage(other, ())) == "cold_base"

    def test_syscall_context_same_content_other_context(self):
        attr = MemoAttribution()
        base = FenceBase(bytes(64))
        img = CrashImage(base, ((0, b"x"),))
        _classify(attr, img, syscall=1)
        assert _classify(attr, img, syscall=2) == "syscall_context"

    def test_new_content_when_bytes_differ(self):
        attr = MemoAttribution()
        base = FenceBase(bytes(64))
        _classify(attr, CrashImage(base, ((0, b"a"),)), syscall=1)
        reason = _classify(attr, CrashImage(base, ((0, b"b"),)), syscall=1)
        assert reason == "new_content"

    def test_flat_bytes_images_classify_too(self):
        # The eager (non-delta) path has no fence bases: first sight of
        # content is new_content, re-checks under another context are
        # syscall_context.
        attr = MemoAttribution()
        assert _classify(attr, bytes(32), syscall=1) == "new_content"
        assert _classify(attr, bytes(32), syscall=2) == "syscall_context"

    def test_every_label_is_in_the_taxonomy(self):
        attr = MemoAttribution()
        base = FenceBase(bytes(64))
        for img in (
            CrashImage(base, ()),
            CrashImage(base, ((0, b"ab"),)),
            CrashImage(base, ((0, b"a"), (1, b"b"))),
            CrashImage(base, ((5, b"zz"),)),
        ):
            assert _classify(attr, img, syscall=1) in MISS_REASONS
        assert set(attr.reasons) <= set(MISS_REASONS)

    def test_recheck_after_eviction_is_new_content(self):
        """The same content under the same context misses again only when
        the memo's LRU bound evicted its clean entry."""
        attr = MemoAttribution()
        img = CrashImage(FenceBase(bytes(64)), ((0, b"x"),))
        _classify(attr, img, syscall=1)
        assert _classify(attr, img, syscall=1) == "new_content"

    def test_cross_workload_hit_seeds_the_universe(self):
        """A state skipped on an earlier workload's verdict counts no
        reason, but its base and context are seen from then on."""
        attr = MemoAttribution()
        base = FenceBase(bytes(64))
        img = CrashImage(base, ((0, b"x"),))
        attr.note_cross_workload_hit(FakeState(img, syscall=1))
        assert attr.total == 0
        assert _classify(attr, CrashImage(base, ((0, b"y"),)), syscall=1) \
            == "new_content"
        assert _classify(attr, img, syscall=2) == "syscall_context"


class TestSumInvariant:
    WORKLOAD = [
        Op("mkdir", ("/A",)),
        Op("creat", ("/A/f",)),
        Op("write", ("/A/f", 0, 0x41, 256)),
        Op("fsync", ("/A/f",)),
    ]

    def test_reasons_sum_exactly_to_misses_live(self):
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        workload = self.WORKLOAD
        base, log, _ = cm.record(workload)
        oracle = run_oracle(cm.fs_class, workload, cm.config.device_size,
                            bugs=cm.bugs)
        checker = ConsistencyChecker(cm.fs_class, oracle, "w", bugs=cm.bugs)
        memo = CheckMemo(checker)
        for state in enumerate_crash_states(base, log, cap=2):
            memo.check(state)
        assert memo.misses > 0
        assert memo.attribution.total == memo.misses
        assert sum(memo.attribution.reasons.values()) == memo.misses

    def test_harness_result_carries_attribution(self):
        cm = Chipmunk("nova", config=ChipmunkConfig(memoize=True))
        result = cm.test_workload(self.WORKLOAD)
        assert sum(result.memo_miss_reasons.values()) == result.memo_misses
        assert set(result.memo_miss_reasons) <= set(MISS_REASONS)
        assert result.n_unique_outcomes > 0
        assert result.n_unique_outcomes <= result.n_unique_states


class TestCollisionTable:
    def test_colliding_content_keys_surface(self):
        attr = MemoAttribution()
        base = FenceBase(bytes(64))
        _classify(attr, CrashImage(base, ((0, b"ab"),)), syscall=1)
        _classify(attr, CrashImage(base, ((0, b"a"), (1, b"b"))), syscall=1)
        _classify(attr, CrashImage(base, ((9, b"q"),)), syscall=1)
        collisions = attr.top_collisions()
        assert len(collisions) == 1
        key_hex, n_shapes = collisions[0]
        assert n_shapes == 2
        assert len(key_hex) == 16

    def test_no_collisions_without_shape_variety(self):
        attr = MemoAttribution()
        base = FenceBase(bytes(64))
        _classify(attr, CrashImage(base, ((0, b"a"),)), syscall=1)
        _classify(attr, CrashImage(base, ((0, b"b"),)), syscall=1)
        assert attr.top_collisions() == []
