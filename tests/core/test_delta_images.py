"""Delta crash-state images and check memoization.

The lazy ``CrashImage`` representation (shared fence base + sparse overlay)
must be observationally identical to the eager ``bytes`` images the seed
replayer built — the property tests here replay random PM logs through the
delta enumerator and an in-test reimplementation of the eager algorithm and
demand byte-identical state sequences across every ``crash_points`` mode,
with and without a unit ranker.
"""

import hashlib
import itertools
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checker import CheckMemo, ConsistencyChecker
from repro.core.harness import Chipmunk, ChipmunkConfig
from repro.core.replayer import (
    apply_entries,
    coalesce_units,
    enumerate_crash_states,
)
from repro.fs.bugs import BugConfig
from repro.obs.attribution import MISS_REASONS
from repro.pm.device import PMDevice
from repro.pm.image import (
    CHUNK,
    ChunkedDigest,
    CrashImage,
    FenceBase,
    flatten_overlay,
)
from repro.pm.log import Fence, Flush, NTStore, PMLog, SyscallBegin, SyscallEnd
from repro.workloads.ops import Op

BASE = bytes(1024)


class OneContext:
    """Checker stand-in for memo keying: every state shares one oracle
    context, so keys differ only by content and syscall context."""

    @staticmethod
    def context_digest(state):
        return bytes(20)


# ---------------------------------------------------------------------------
# Eager reference: the seed's O(device)-per-state enumeration, kept here as
# the ground truth the delta path is checked against.
# ---------------------------------------------------------------------------
def eager_states(base_image, log, cap=2, threshold=256, crash_points="fence",
                 unit_ranker=None):
    """Yield (image_bytes, replayed_entries, kind) exactly as the eager
    replayer produced them."""
    persistent = bytearray(base_image)
    inflight = []
    in_syscall = None
    completed = -1

    def subset_states(log_pos):
        units = coalesce_units(inflight, threshold)
        if unit_ranker is not None and len(units) > 1:
            units = unit_ranker(units)
        program_order = {id(e): i for i, e in enumerate(inflight)}
        n = len(units)
        if not n:
            return
        max_size = n - 1
        if cap is not None and cap < max_size:
            max_size = cap
        for size in range(0, max_size + 1):
            for combo in itertools.combinations(range(n), size):
                image = bytearray(persistent)
                chosen = []
                for unit_index in combo:
                    chosen.extend(units[unit_index])
                chosen.sort(key=lambda e: program_order[id(e)])
                apply_entries(image, chosen)
                yield (
                    bytes(image),
                    tuple(program_order[id(e)] for e in chosen),
                    "subset",
                )

    for entry in log:
        if isinstance(entry, SyscallBegin):
            in_syscall = entry.index
        elif isinstance(entry, SyscallEnd):
            completed = entry.index
            if crash_points in ("fence", "post") or entry.name in (
                "fsync", "fdatasync", "sync"
            ):
                yield bytes(persistent), (), "post"
            in_syscall = None
        elif isinstance(entry, Fence):
            if crash_points == "fence":
                yield from subset_states(0)
            apply_entries(persistent, inflight)
            inflight.clear()
        elif isinstance(entry, (NTStore, Flush)):
            inflight.append(entry)
    if crash_points == "fence":
        yield from subset_states(0)
    apply_entries(persistent, inflight)
    if crash_points in ("fence", "post"):
        yield bytes(persistent), tuple(range(len(inflight))), "final"


# ---------------------------------------------------------------------------
# Random PM logs
# ---------------------------------------------------------------------------
@st.composite
def pm_logs(draw):
    """A random log: syscalls containing stores/flushes and fences."""
    log = PMLog()
    n_syscalls = draw(st.integers(1, 3))
    for index in range(n_syscalls):
        name = draw(st.sampled_from(["creat", "write", "fsync"]))
        log.syscall_begin(index, name)
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from(["store", "flush", "fence"]))
            if kind == "fence":
                log.fence()
            else:
                addr = draw(st.integers(0, 115)) * 8
                length = draw(st.sampled_from([8, 16, 256]))
                data = bytes([draw(st.integers(1, 255))]) * length
                if kind == "store":
                    log.nt_store(addr, data, "persist")
                else:
                    log.flush(addr, data, "flush")
        if draw(st.booleans()):
            log.fence()
        log.syscall_end()
    return log


def reverse_ranker(units):
    return list(reversed(units))


class TestDeltaMatchesEagerProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        log=pm_logs(),
        cap=st.sampled_from([None, 1, 2]),
        crash_points=st.sampled_from(["fence", "post", "fsync"]),
        ranked=st.booleans(),
    )
    def test_images_byte_identical_to_eager(self, log, cap, crash_points, ranked):
        ranker = reverse_ranker if ranked else None
        delta = list(
            enumerate_crash_states(
                BASE, log, cap=cap, crash_points=crash_points, unit_ranker=ranker
            )
        )
        eager = list(
            eager_states(
                BASE, log, cap=cap, crash_points=crash_points, unit_ranker=ranker
            )
        )
        assert len(delta) == len(eager)
        for state, (image, replayed, kind) in zip(delta, eager):
            assert bytes(state.image) == image
            assert state.kind == kind
            if kind == "subset":
                assert state.replayed_entries == replayed

    @settings(max_examples=25, deadline=None)
    @given(log=pm_logs(), cap=st.sampled_from([None, 2]))
    def test_digest_equality_matches_byte_equality_one_way(self, log, cap):
        """Digest equality must imply byte-identical images (the direction
        memoization relies on); the converse may not hold."""
        by_digest = {}
        for state in enumerate_crash_states(BASE, log, cap=cap):
            image = state.image
            prior = by_digest.setdefault(image.digest(), bytes(image))
            assert prior == bytes(image)


class TestRankerOrderingSatellite:
    """Satellite: the unranked path skips the per-combo sort entirely; an
    order-preserving ranker (which takes the sorted path) must still emit
    identical ``replayed_entries``."""

    def _record(self):
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        base, log, _ = cm.record(
            [Op("creat", ("/f",)), Op("write", ("/f", 0, 0x41, 512))]
        )
        return base, log

    def test_identity_ranker_pins_replayed_entries(self):
        base, log = self._record()
        plain = list(enumerate_crash_states(base, log, cap=None))
        ranked = list(
            enumerate_crash_states(base, log, cap=None, unit_ranker=list)
        )
        assert [s.replayed_entries for s in plain] == [
            s.replayed_entries for s in ranked
        ]
        assert [bytes(s.image) for s in plain] == [bytes(s.image) for s in ranked]

    def test_reverse_ranker_same_state_set(self):
        base, log = self._record()
        plain = {
            (s.replayed_entries, bytes(s.image))
            for s in enumerate_crash_states(base, log, cap=None)
        }
        ranked = {
            (s.replayed_entries, bytes(s.image))
            for s in enumerate_crash_states(
                base, log, cap=None, unit_ranker=reverse_ranker
            )
        }
        assert plain == ranked

    def test_replayed_entries_always_program_ordered(self):
        base, log = self._record()
        for ranker in (None, reverse_ranker):
            for s in enumerate_crash_states(base, log, cap=None,
                                            unit_ranker=ranker):
                assert list(s.replayed_entries) == sorted(s.replayed_entries)


class TestChunkedDigest:
    def test_matches_fresh_hash_after_invalidation(self):
        buf = bytearray(3 * CHUNK + 100)
        digest = ChunkedDigest(buf)
        first = digest.digest()
        assert first == ChunkedDigest(bytearray(buf)).digest()
        buf[CHUNK + 5 : CHUNK + 9] = b"\xde\xad\xbe\xef"
        digest.invalidate(CHUNK + 5, 4)
        assert digest.digest() == ChunkedDigest(bytearray(buf)).digest()
        assert digest.digest() != first

    def test_stale_without_invalidation(self):
        # The contract: writers must invalidate.  A silent mutation keeps
        # the cached chunk — this pins that the cache is actually used.
        buf = bytearray(2 * CHUNK)
        digest = ChunkedDigest(buf)
        before = digest.digest()
        buf[0] = 0xFF
        assert digest.digest() == before
        digest.invalidate(0, 1)
        assert digest.digest() != before

    def test_content_function_only(self):
        a = ChunkedDigest(bytearray(b"x" * (CHUNK + 1)))
        b = ChunkedDigest(bytearray(b"x" * (CHUNK + 1)))
        assert a.digest() == b.digest()


class TestCrashImage:
    def _image(self):
        base = FenceBase(bytes(range(256)) * 4)
        return CrashImage(base, ((8, b"\x00" * 4), (1000, b"\xff\xfe")))

    def test_materializes_overlay(self):
        img = self._image()
        flat = bytes(img)
        assert flat[8:12] == b"\x00" * 4
        assert flat[1000:1002] == b"\xff\xfe"
        assert flat[:8] == bytes(range(8))
        assert len(img) == 1024

    def test_bytes_like_surface(self):
        img = self._image()
        flat = bytes(img)
        assert img == flat
        assert img[5] == flat[5]
        assert img[8:12] == flat[8:12]
        assert hash(img) == hash(flat)
        assert not (img < flat) and img <= flat and img >= flat

    def test_ordering_vs_other_images(self):
        base = FenceBase(bytes(16))
        small = CrashImage(base, ((0, b"\x01"),))
        smaller = CrashImage(base, ())
        assert smaller < small and small > smaller
        assert sorted([small, smaller]) == [smaller, small]

    def test_empty_overlay_shares_base_bytes(self):
        base = FenceBase(bytes(64))
        assert CrashImage(base).materialize() is base.data

    def test_digest_depends_on_overlay_shape(self):
        base = FenceBase(bytes(64))
        a = CrashImage(base, ((0, b"ab"),))
        b = CrashImage(base, ((0, b"a"), (1, b"b")))
        c = CrashImage(base, ((0, b"ab"),))
        assert bytes(a) == bytes(b)
        assert a.digest() == c.digest()
        assert a.digest() != b.digest()  # same bytes, distinct address

    def test_replay_order_wins_on_overlap(self):
        base = FenceBase(bytes(8))
        img = CrashImage(base, ((0, b"\x01\x01"), (1, b"\x02")))
        assert bytes(img)[:3] == b"\x01\x02\x00"


class TestNoopOverlayWrites:
    """Satellite: base-equal overlay writes are dropped before digesting."""

    def test_noop_write_does_not_perturb_digest(self):
        base = FenceBase(bytes(range(256)))
        clean = CrashImage(base, ((10, b"XY"),))
        noisy = CrashImage(base, ((10, b"XY"), (50, bytes(range(50, 54)))))
        assert bytes(clean) == bytes(noisy)
        assert noisy.digest() == clean.digest()
        assert noisy.noop_dropped == 1
        assert clean.noop_dropped == 0

    def test_noop_overlapping_kept_write_is_not_dropped(self):
        # Replay order: a base-equal write landing on top of an earlier
        # effective write restores base content there — dropping it would
        # change the materialized image.
        base = FenceBase(bytes(8))
        img = CrashImage(base, ((0, b"\x01\x01"), (1, b"\x00")))
        assert img.noop_dropped == 0
        assert bytes(img)[:3] == b"\x01\x00\x00"
        shape_only = CrashImage(base, ((0, b"\x01\x01"),))
        assert img.digest() != shape_only.digest()

    def test_noop_suffix_over_kept_write_drops(self):
        # Regression: a rewrite that repeats an earlier kept write's
        # visible bytes — its visible suffix is a no-op — must be compared
        # against the overlap-resolved content, not the raw base.  It
        # changes nothing, so it drops, and the digest stays canonical.
        base = FenceBase(bytes(8))
        img = CrashImage(base, ((0, b"\x05"), (0, b"\x05\x00")))
        assert bytes(img)[:3] == b"\x05\x00\x00"
        assert img.noop_dropped == 1
        assert img.digest() == CrashImage(base, ((0, b"\x05"),)).digest()

    def test_noop_overlapping_dropped_write_still_drops(self):
        # Two stacked no-ops: the first leaves base content in place, so
        # the second overlapping no-op is also droppable.
        base = FenceBase(bytes(range(64)))
        img = CrashImage(
            base, ((0, bytes(range(4))), (2, bytes(range(2, 6))))
        )
        assert img.noop_dropped == 2
        assert img.digest() == CrashImage(base, ()).digest()

    def test_effective_writes_preserve_materialization(self):
        base = FenceBase(bytes(range(128)))
        writes = (
            (0, b"\xaa\xbb"),
            (10, bytes(range(10, 14))),  # no-op
            (1, b"\xcc"),
            (0, b"\x00\x01"),            # no-op bytes, overlaps kept writes
        )
        img = CrashImage(base, writes)
        replayed = bytearray(base.data)
        for addr, data in writes:
            replayed[addr:addr + len(data)] = data
        assert bytes(img) == bytes(replayed)
        # Materializing only the effective writes gives the same image.
        effective = bytearray(base.data)
        for addr, data in img.effective_writes():
            effective[addr:addr + len(data)] = data
        assert bytes(effective) == bytes(replayed)

    @settings(max_examples=60, deadline=None)
    @given(
        writes=st.lists(
            st.tuples(
                st.integers(0, 56),
                st.binary(min_size=1, max_size=8),
            ),
            max_size=6,
        )
    )
    def test_property_digest_canonical_under_noops(self, writes):
        """Adding base-equal writes anywhere never changes the digest as
        long as they do not overlap an earlier kept write; and
        materialization is always preserved."""
        base = FenceBase(bytes(range(64)))
        img = CrashImage(base, tuple(writes))
        replayed = bytearray(base.data)
        for addr, data in writes:
            replayed[addr:addr + len(data)] = data
        assert bytes(img) == bytes(replayed)
        # digest equality still implies byte equality across variants
        flat = flatten_overlay(base.data, writes)
        canonical = CrashImage(base, flat)
        assert bytes(canonical) == bytes(img)


class TestFlattenOverlay:
    def test_exact_diff_against_base(self):
        base = bytes(range(100))
        writes = ((5, b"\xff\xff"), (6, bytes([6, 7])), (50, b"\x00"))
        flat = flatten_overlay(base, writes)
        replayed = bytearray(base)
        for addr, data in writes:
            replayed[addr:addr + len(data)] = data
        rebuilt = bytearray(base)
        for addr, data in flat:
            rebuilt[addr:addr + len(data)] = data
        assert bytes(rebuilt) == bytes(replayed)
        # every flattened byte genuinely differs from base
        for addr, data in flat:
            for i, b in enumerate(data):
                assert base[addr + i] != b

    def test_shape_independent(self):
        base = bytes(64)
        a = flatten_overlay(base, ((0, b"ab"),))
        b = flatten_overlay(base, ((0, b"a"), (1, b"b")))
        assert a == b == ((0, b"ab"),)

    def test_pure_noop_flattens_to_nothing(self):
        base = bytes(range(32))
        assert flatten_overlay(base, ((4, bytes(range(4, 10))),)) == ()

    def test_adjacent_runs_merge(self):
        base = bytes(16)
        flat = flatten_overlay(base, ((2, b"\x01"), (3, b"\x02")))
        assert flat == ((2, b"\x01\x02"),)


class TestCheckMemo:
    WORKLOAD = [Op("creat", ("/foo",)), Op("creat", ("/foo",))]

    def _run(self, memoize):
        cm = Chipmunk("nova", config=ChipmunkConfig(memoize=memoize))
        return cm.test_workload(self.WORKLOAD)

    def test_same_reports_with_and_without_memo(self):
        on, off = self._run(True), self._run(False)
        assert on.reports == off.reports
        assert on.n_crash_states == off.n_crash_states

    def test_memo_counters_populated(self):
        result = self._run(True)
        # A unique state is judged by a check (a miss) or by replaying the
        # read-set verdict of an earlier check (a hit of its own kind).
        assert result.memo_readset_hits > 0
        assert result.memo_misses + result.memo_readset_hits == \
            result.n_unique_states
        assert result.memo_hits + result.memo_misses == result.n_crash_states
        assert result.memo_hits > 0  # seq-2 workloads repeat states

    def test_counters_round_trip(self):
        from repro.core.harness import TestResult

        result = self._run(True)
        rebuilt = TestResult.from_dict(result.to_dict())
        assert rebuilt.memo_hits == result.memo_hits
        assert rebuilt.memo_misses == result.memo_misses

    def test_hit_returns_none_and_counts(self):
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        workload = [Op("creat", ("/f",))]
        base, log, _ = cm.record(workload)
        from repro.core.oracle import run_oracle

        oracle = run_oracle(cm.fs_class, workload, cm.config.device_size,
                            bugs=cm.bugs)
        checker = ConsistencyChecker(cm.fs_class, oracle, "w", bugs=cm.bugs)
        memo = CheckMemo(checker)
        state = next(iter(enumerate_crash_states(base, log)))
        first = memo.check(state)
        assert first is not None
        assert memo.check(state) is None
        assert (memo.hits, memo.misses) == (1, 1)

    def test_delta_and_eager_keys_agree_on_flat_bytes(self):
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        base, log, _ = cm.record([Op("creat", ("/f",))])
        for state in enumerate_crash_states(base, log):
            eager_key = b"".join((
                OneContext.context_digest(state),
                hashlib.sha1(bytes(state.image)).digest(),
                struct.pack(
                    ">iBi",
                    -1 if state.syscall is None else state.syscall,
                    1 if state.mid_syscall else 0,
                    state.after_syscall,
                ),
            ))
            memo = CheckMemo(checker=OneContext(), delta=False)
            assert memo.key_of(state) == eager_key

    def test_canonical_key_ignores_overlay_shape(self):
        """Two overlays that materialize the same bytes share a memo key
        regardless of how the writes are partitioned or how many residual
        no-op bytes they carry."""
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class S:
            image: object
            syscall: object = 1
            mid_syscall: bool = True
            after_syscall: int = -1

        base = FenceBase(bytes(range(256)) * 4)
        memo = CheckMemo(checker=OneContext())
        one = CrashImage(base, ((0, b"\xff\xfe"),))
        split = CrashImage(base, ((0, b"\xff"), (1, b"\xfe")))
        noisy = CrashImage(base, ((0, b"\xff\xfe" + bytes(range(2, 4))),))
        assert memo.key_of(S(one)) == memo.key_of(S(split))
        assert memo.key_of(S(one)) == memo.key_of(S(noisy))
        assert bytes(one) == bytes(split) == bytes(noisy)
        different = CrashImage(base, ((0, b"\xff\xfd"),))
        assert memo.key_of(S(one)) != memo.key_of(S(different))

    def test_no_sentinel_misses_live(self):
        """A live memoized campaign records no colliding content keys (the
        memo keys on the canonical content address, so one would be a
        key-purity regression) and only the taxonomy's miss reasons."""
        result = self._run(True)
        assert set(result.memo_miss_reasons) <= set(MISS_REASONS)
        assert result.memo_collisions == []


class TestCowCheckIsolation:
    def test_checker_mutations_do_not_leak_between_states(self):
        """The usability pass creates and deletes files on the mounted
        image; with the shared-device COW path those mutations must roll
        back before the next state mounts."""
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        result = cm.test_workload([Op("mkdir", ("/A",)), Op("creat", ("/A/f",))])
        assert result.reports == []

    def test_cow_view_restores_base_bytes(self):
        dev = PMDevice(256)
        dev.write(0, b"base")
        snapshot = dev.snapshot()
        with dev.cow_view(((0, b"over"), (100, b"lay"))) as view:
            assert view.read(0, 4) == b"over"
            assert view.read(100, 3) == b"lay"
            view.write(50, b"checker-mutation")
        assert dev.snapshot() == snapshot
        assert not dev.undo_active
