"""Differential suite: numpy image backend vs the pure-python reference.

The vectorized data plane (``repro.pm.image_np``) is an *internal* rewrite
behind the bytes-compatible delta API — every observable it feeds
downstream must be byte-identical to the python backend's.  These property
tests replay random PM logs through ``enumerate_crash_states`` under both
backends and demand equality of the four observables the pipeline actually
consumes:

* materialized crash-image bytes (what the checker mounts),
* content addresses / memo keys (what ``CheckMemo`` dedupes on),
* ``ChunkedDigest`` values (what fence bases are named by),
* ``recovery_read_set`` (what the mech planner and ranker trust).

Everything here skips when numpy is absent — the python backend is then
the only backend and there is nothing to differ from.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_delta_images import OneContext, pm_logs, reverse_ranker

from repro.core.checker import CheckMemo
from repro.core.harness import Chipmunk
from repro.core.recovery_reads import recovery_read_set
from repro.core.replayer import enumerate_crash_states
from repro.fs.bugs import BugConfig
from repro.pm.backend import numpy_available
from repro.pm.image import CHUNK, ChunkedDigest
from repro.workloads.ops import Op

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy not importable"
)

BASE = bytes(1024)


@st.composite
def pm_logs_inbounds(draw):
    """Like ``pm_logs`` but every write fits the device.

    The memo-key path flattens overlays against the base and — like the
    python reference — does not define writes past the device end (real
    logs come from a bounds-checked ``PMDevice``), so the key differential
    only draws in-bounds logs.  The image/digest differentials keep the
    unconstrained strategy: materialization must match even under the
    bytearray-growth semantics out-of-range writes produce.
    """
    from repro.pm.log import PMLog

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
                addr = draw(st.integers(0, 95)) * 8
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


def _streams(log, **kwargs):
    py = list(enumerate_crash_states(BASE, log, image_backend="python",
                                     **kwargs))
    vec = list(enumerate_crash_states(BASE, log, image_backend="numpy",
                                      **kwargs))
    return py, vec


class TestStateStreamEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        log=pm_logs(),
        cap=st.sampled_from([None, 1, 2]),
        crash_points=st.sampled_from(["fence", "post", "fsync"]),
        ranked=st.booleans(),
    )
    def test_images_and_metadata_byte_identical(self, log, cap, crash_points,
                                                ranked):
        ranker = reverse_ranker if ranked else None
        py, vec = _streams(log, cap=cap, crash_points=crash_points,
                           unit_ranker=ranker)
        assert len(py) == len(vec)
        for a, b in zip(py, vec):
            assert bytes(a.image) == bytes(b.image)
            assert a.kind == b.kind
            assert a.replayed_entries == b.replayed_entries
            assert a.syscall == b.syscall
            assert a.mid_syscall == b.mid_syscall

    @settings(max_examples=30, deadline=None)
    @given(log=pm_logs_inbounds(), cap=st.sampled_from([None, 2]))
    def test_content_addresses_and_memo_keys_equal(self, log, cap):
        """The canonical content address — hence the memo key — must not
        depend on which backend produced the image, or memoized campaigns
        would diverge between backends."""
        py, vec = _streams(log, cap=cap)
        memo_py = CheckMemo(checker=OneContext())
        memo_np = CheckMemo(checker=OneContext())
        for a, b in zip(py, vec):
            assert a.image.digest() == b.image.digest()
            assert memo_py.key_of(a) == memo_np.key_of(b)

    @settings(max_examples=30, deadline=None)
    @given(log=pm_logs())
    def test_fence_base_digests_equal(self, log):
        """Fence bases are named by their ChunkedDigest; the lazy numpy
        base must produce the same name as the snapshotting python one."""
        py, vec = _streams(log)
        for a, b in zip(py, vec):
            assert a.image.base.digest == b.image.base.digest
            assert bytes(a.image.base.data) == bytes(b.image.base.data)


class TestChunkedDigestEquivalence:
    """NPChunkedDigest's vectorized cold scan vs the incremental reference."""

    @settings(max_examples=25, deadline=None)
    @given(
        n_chunks=st.integers(1, 4),
        writes=st.lists(
            st.tuples(st.integers(0, CHUNK - 64), st.binary(min_size=1,
                                                            max_size=64)),
            max_size=5,
        ),
    )
    def test_cold_scan_matches_reference(self, n_chunks, writes):
        from repro.pm.image_np import NPChunkedDigest

        buf = bytearray(n_chunks * CHUNK)
        for addr, data in writes:
            buf[addr : addr + len(data)] = data
        assert NPChunkedDigest(bytearray(buf)).digest() == ChunkedDigest(
            bytearray(buf)
        ).digest()

    def test_invalidate_cycle_matches_reference(self):
        from repro.pm.image_np import NPChunkedDigest

        buf_np, buf_py = bytearray(2 * CHUNK), bytearray(2 * CHUNK)
        d_np, d_py = NPChunkedDigest(buf_np), ChunkedDigest(buf_py)
        assert d_np.digest() == d_py.digest()
        for buf, d in ((buf_np, d_np), (buf_py, d_py)):
            buf[CHUNK - 2 : CHUNK + 2] = b"\xde\xad\xbe\xef"
            d.invalidate(CHUNK - 2, 4)
        assert d_np.digest() == d_py.digest()

    def test_odd_sizes_fall_back_to_reference(self):
        from repro.pm.image_np import NPChunkedDigest

        for size in (1, 100, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 7):
            buf = bytearray(size)
            if size > 3:
                buf[3] = 0x7F
            assert NPChunkedDigest(bytearray(buf)).digest() == ChunkedDigest(
                bytearray(buf)
            ).digest()


class TestRecoveryReadSetEquivalence:
    """The mech planner and recovery-read ranker consume read sets built
    over each backend's base objects — same image, same set."""

    @pytest.fixture(scope="class")
    def recorded(self):
        cm = Chipmunk("nova", bugs=BugConfig.fixed())
        base, log, _ = cm.record([
            Op("mkdir", ("/d",)),
            Op("creat", ("/d/f",)),
            Op("write", ("/d/f", 0, 0x41, 512)),
            Op("fsync", ("/d/f",)),
        ])
        return cm, base, log

    def test_read_sets_identical_per_state(self, recorded):
        cm, base, log = recorded
        py = list(enumerate_crash_states(base, log, image_backend="python"))
        vec = list(enumerate_crash_states(base, log, image_backend="numpy"))
        assert len(py) == len(vec)
        compared = 0
        for a, b in zip(py, vec):
            assert bytes(a.image) == bytes(b.image)
            flat = recovery_read_set(cm.fs_class, bytes(a.image),
                                     bugs=cm.bugs)
            overlay = recovery_read_set(cm.fs_class, b.image.base,
                                        bugs=cm.bugs, writes=b.image.writes)
            assert flat == overlay
            compared += 1
        assert compared > 0
