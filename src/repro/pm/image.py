"""Zero-copy crash-state images: lazy fence bases plus sparse overlays.

The replayer used to build every crash state eagerly — ``bytearray`` copy of
the persistent image, replay the subset, freeze to ``bytes`` — an
O(device_size) cost paid per *state* even though all states of one fence
region share the same persistent base and differ only in a handful of
replayed byte ranges.  This module holds the lazy representation:

* :class:`PersistTracker` — the replayer's persistent buffer plus an
  **undo log**: applying a fence epoch records each write's before-image,
  so any earlier region's content stays reconstructible from the live
  buffer without ever copying the device.
* :class:`FenceBase` — one fence region's persistent image, tagged with a
  content digest and shared by reference by every crash state of the
  region.  It holds no snapshot: random access patches the live buffer
  with the undo suffix (O(suffix delta), not O(device)), and flat bytes
  are built only if a consumer genuinely needs them.  The checker mounts
  the live buffer directly through a COW view prefixed with
  :meth:`FenceBase.restore_writes` — empty while states stream, because
  states of a region are checked while the region is current.
* :class:`CrashImage` — a fence base plus a sparse overlay of replayed
  ``(addr, payload)`` ranges.  Materialization to flat ``bytes`` happens
  only on demand (forensics image diffs, legacy consumers) and is cached.
* :class:`ChunkedDigest` — an incrementally maintained content digest over
  the tracker's buffer, so taking a fence base at every region costs
  O(bytes written since the last fence), not O(device).  All-zero chunks
  (most of a fresh mkfs image) are recognized by one compare and never
  hashed.

The content address of a crash state is
``sha1(base.digest ‖ (addr, len, payload) per effective replayed range)``.
*Effective* ranges are the overlay after dropping no-op writes: a write
whose payload is byte-equal to the content it overwrites — the base slice
it covers, patched with whatever earlier *kept* writes it overlaps —
cannot change the materialized image, because replaying an idempotent
store is indistinguishable from losing it.  (Overlap resolution matters
because later writes win: a base-equal write layered over an earlier kept
write restores base content, which is an effect, and is kept; conversely
a write that merely repeats an earlier kept write's visible bytes is a
no-op even though it overlaps it.)
Digest equality therefore implies byte-identical images, which is the
direction check memoization needs: a memo hit can never skip a state that
might have checked differently.  The converse still does not fully hold —
partial or overlapping rewrites of base content survive canonicalization
and yield distinct digests for identical images — so memoization may
rarely re-check a duplicate, which costs time but can never mask a bug.
:func:`flatten_overlay` computes the exact byte-level diff from base
(:mod:`repro.obs.attribution` uses it to measure how often that residual
case actually bites).
"""

from __future__ import annotations

import hashlib
import re
import struct
import weakref
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

from repro.obs import profile as _profile
from repro.pm.device import PMDeviceError

#: Granularity of the incremental digest over the persistent buffer.  Small
#: enough that a fence region dirtying a few metadata lines rehashes a few
#: chunks; large enough that the per-chunk bookkeeping stays negligible.
CHUNK = 16 * 1024

_ZERO_CHUNK = bytes(CHUNK)
_ZERO_CHUNK_DIGEST = hashlib.sha1(_ZERO_CHUNK).digest()

#: Maximal runs of nonzero bytes — the changed runs of an xor diff.
_CHANGED_RUNS = re.compile(rb"[^\x00]+")

#: One overlay range: (device address, payload bytes).
OverlayWrite = Tuple[int, bytes]


def flatten_overlay(
    base, writes: Sequence[OverlayWrite]
) -> Tuple[OverlayWrite, ...]:
    """The exact byte-level diff from ``base`` after applying ``writes``.

    Flattens the overlay with later-writes-win semantics, drops every byte
    equal to the base, and returns the survivors as maximal contiguous
    runs.  The result is a pure function of the *materialized* image: two
    overlays materializing identically flatten identically, regardless of
    how their writes partition, order, or overlap the ranges.

    ``base`` is flat ``bytes`` or a :class:`FenceBase`; only the merged
    overlay spans are ever read from it, so the cost is O(total overlay
    bytes), never O(device).  Each span is resolved in a ``bytearray``,
    xor-ed against the base slice as one big integer, and the changed
    runs are the nonzero runs of that xor — all C-speed, no per-byte
    python loop.
    """
    prof = _profile.ACTIVE
    t0 = perf_counter() if prof is not None else 0.0
    ranges = [(addr, data) for addr, data in writes if data]
    spans: List[Tuple[int, int]] = []
    for lo, hi in sorted((a, a + len(d)) for a, d in ranges):
        if spans and lo <= spans[-1][1]:
            if hi > spans[-1][1]:
                spans[-1] = (spans[-1][0], hi)
        else:
            spans.append((lo, hi))
    flat: List[OverlayWrite] = []
    for lo, hi in spans:
        old = bytes(base[lo:hi])
        new = bytearray(old)
        for addr, data in ranges:
            # Spans are unions of whole writes: each write lies in one.
            if lo <= addr < hi:
                new[addr - lo : addr - lo + len(data)] = data
        if new == old:
            continue
        diff = (
            int.from_bytes(new, "big") ^ int.from_bytes(old, "big")
        ).to_bytes(hi - lo, "big")
        for run in _CHANGED_RUNS.finditer(diff):
            s, e = run.span()
            flat.append((lo + s, bytes(new[s:e])))
    if prof is not None:
        prof.add("image.flatten_overlay", perf_counter() - t0,
                 sum(len(d) for _, d in ranges))
    return tuple(flat)


class ChunkedDigest:
    """Incrementally maintained content digest of a mutable buffer.

    The buffer is divided into :data:`CHUNK`-sized pieces, each with a
    cached sha1.  Writers call :meth:`invalidate` for every mutated range;
    :meth:`digest` rehashes only the dirty chunks and combines the chunk
    digests.  The combined value is a pure function of the buffer contents
    (chunking is fixed), so equal contents always produce equal digests.
    """

    __slots__ = ("buf", "_chunks")

    def __init__(self, buf: bytearray) -> None:
        self.buf = buf
        self._chunks: List[Optional[bytes]] = [None] * (
            (len(buf) + CHUNK - 1) // CHUNK or 1
        )

    def invalidate(self, addr: int, length: int) -> None:
        """Mark every chunk overlapping ``[addr, addr+length)`` dirty."""
        if length <= 0:
            return
        for i in range(addr // CHUNK, (addr + length - 1) // CHUNK + 1):
            self._chunks[i] = None

    def digest(self) -> bytes:
        """sha1 over the per-chunk sha1s, rehashing only dirty chunks.

        A dirty chunk equal to an all-zero chunk takes the precomputed
        zero digest — one C-speed ``startswith`` compare, no copy, instead
        of a hash — which is what keeps the first digest of a mostly-zero
        device cheap.  The combine hashes one joined buffer instead of
        feeding the chunk digests to sha1 one update at a time — same byte
        stream, same value, without an O(chunks) python loop of hashlib
        calls per call.
        """
        prof = _profile.ACTIVE
        t0 = perf_counter() if prof is not None else 0.0
        chunks = self._chunks
        buf = self.buf
        view = memoryview(buf)
        rehashed = 0
        for i, cached in enumerate(chunks):
            if cached is None:
                if buf.startswith(_ZERO_CHUNK, i * CHUNK):
                    chunks[i] = _ZERO_CHUNK_DIGEST
                else:
                    piece = view[i * CHUNK : (i + 1) * CHUNK]
                    chunks[i] = hashlib.sha1(piece).digest()
                    rehashed += len(piece)
        combined = hashlib.sha1(b"".join(chunks))
        if prof is not None:
            prof.add("image.chunk_rehash", perf_counter() - t0, rehashed,
                     "digest_hashed")
        return combined.digest()


class PersistTracker:
    """The replayer's persistent buffer plus undo log and content digest.

    Applying a fence epoch writes it into :attr:`buf` in place, records
    each write's before-image, and invalidates only the touched digest
    chunks, so advancing a region costs O(bytes written), not O(device).
    :meth:`base` hands out the current region's :class:`FenceBase`, which
    shares :attr:`buf` instead of snapshotting it.
    """

    __slots__ = ("buf", "size", "_undo", "_digest", "_base")

    def __init__(self, base_image: bytes) -> None:
        self.buf = bytearray(base_image)
        self.size = len(self.buf)
        #: Chronological ``(addr, before-image)`` of every applied write.
        self._undo: List[OverlayWrite] = []
        self._digest = ChunkedDigest(self.buf)
        # Weak, so a dead tracker/base pair frees by refcount (no gc cycle).
        self._base: Optional["weakref.ref[FenceBase]"] = None

    def apply(self, entries) -> None:
        """Persist a fence epoch, recording before-images for live bases.

        Raises :class:`~repro.pm.device.PMDeviceError` for an entry outside
        the device: a recorded log never has one (every store went through
        :meth:`~repro.pm.device.PMDevice.check_range`).
        """
        if not entries:
            return
        prof = _profile.ACTIVE
        t0 = perf_counter() if prof is not None else 0.0
        buf = self.buf
        size = self.size
        undo = self._undo
        invalidate = self._digest.invalidate
        applied = 0
        for entry in entries:
            addr = entry.addr
            data = entry.data
            end = addr + len(data)
            if addr < 0 or end > size:
                raise PMDeviceError(
                    f"write [{addr}, {end}) outside device of size {size}"
                )
            undo.append((addr, bytes(buf[addr:end])))
            buf[addr:end] = data
            invalidate(addr, len(data))
            applied += len(data)
        self._base = None
        if prof is not None:
            prof.add("replay.persist_apply", perf_counter() - t0, applied)

    def base(self) -> "FenceBase":
        """The current region's shared base (cached until the next apply).

        Zero-copy: the returned base references the live buffer; the
        ``replay.fence_base`` callsite is still recorded (for call counts)
        but charges no materialized bytes unless ``.data`` is later pulled.
        """
        base = self._base() if self._base is not None else None
        if base is None:
            prof = _profile.ACTIVE
            t0 = perf_counter() if prof is not None else 0.0
            m0 = prof.mark() if prof is not None else 0.0
            base = FenceBase(self, len(self._undo), self._digest.digest())
            self._base = weakref.ref(base)
            if prof is not None:
                # Exclusive of the chunk rehashes the digest runs inside.
                prof.add_exclusive("replay.fence_base", perf_counter() - t0,
                                   m0, 0)
        return base

    def restore_writes(self, undo_pos: int) -> List[OverlayWrite]:
        """Before-images from the undo suffix, newest first.

        Applying them in the returned order (later entries win) rolls the
        live buffer back to its content at ``undo_pos``.
        """
        undo = self._undo
        return [undo[i] for i in range(len(undo) - 1, undo_pos - 1, -1)]

    def snapshot_at(self, undo_pos: int) -> bytes:
        """Flat buffer content as of ``undo_pos`` (one O(device) copy)."""
        out = bytearray(self.buf)
        for addr, before in self.restore_writes(undo_pos):
            out[addr : addr + len(before)] = before
        return bytes(out)

    def read_range(self, undo_pos: int, start: int, stop: int) -> bytes:
        """``[start, stop)`` content as of ``undo_pos`` — O(suffix + range)."""
        if stop <= start:
            return b""
        out = bytearray(self.buf[start:stop])
        for addr, before in self.restore_writes(undo_pos):
            end = addr + len(before)
            if addr < stop and start < end:
                s = max(addr, start)
                e = min(end, stop)
                out[s - start : e - start] = before[s - addr : e - addr]
        return bytes(out)


class FenceBase:
    """One fence region's persistent image: live buffer + undo suffix.

    Created once per fence region (lazily, at the region's first crash
    state) and shared by reference across every state of the region.
    ``digest`` is a content digest, so two regions whose persistent images
    happen to coincide (e.g. a region whose writes were all idempotent)
    share a content address even though they are distinct objects.
    Nothing is copied when the base is handed out; byte content is
    reconstructed on demand by patching the tracker's live buffer with the
    before-images recorded since this region ended.
    """

    __slots__ = ("tracker", "_undo_pos", "digest", "_data", "__weakref__")

    def __init__(self, tracker: PersistTracker, undo_pos: int,
                 digest: bytes) -> None:
        self.tracker = tracker
        self._undo_pos = undo_pos
        self.digest = digest
        self._data: Optional[bytes] = None

    def __len__(self) -> int:
        return self.tracker.size

    @property
    def data(self) -> bytes:
        """Flat snapshot bytes — the O(device) copy, paid only on demand."""
        if self._data is None:
            prof = _profile.ACTIVE
            t0 = perf_counter() if prof is not None else 0.0
            self._data = self.tracker.snapshot_at(self._undo_pos)
            if prof is not None:
                prof.add("replay.fence_base", perf_counter() - t0,
                         len(self._data), "materialized")
        return self._data

    def __getitem__(self, key):
        if self._data is None and isinstance(key, slice) and key.step in (None, 1):
            start, stop, _ = key.indices(self.tracker.size)
            return self.tracker.read_range(self._undo_pos, start, stop)
        return self.data[key]

    def restore_writes(self) -> List[OverlayWrite]:
        """Writes rolling the live buffer back to this base (apply in order).

        Empty while this base's region is the tracker's current one — the
        streaming-pipeline common case — and O(undo suffix) otherwise.
        """
        return self.tracker.restore_writes(self._undo_pos)


class CrashImage:
    """A lazy crash-state image: shared fence base + sparse overlay.

    Behaves like ``bytes`` for every consumer the pipeline has — length,
    indexing/slicing, equality and ordering against other images or raw
    ``bytes``, hashing — but costs O(overlay) to construct and to digest.
    Flat ``bytes`` are produced only by :meth:`materialize` (cached), which
    comparisons and subscripts fall back on; the hot check path (COW mount
    via :meth:`repro.pm.device.PMDevice.cow_view` + digest memoization)
    never materializes at all.
    """

    __slots__ = ("base", "writes", "_digest", "_mat", "_effective", "_noop_dropped")

    def __init__(self, base: FenceBase, writes: Sequence[OverlayWrite] = ()) -> None:
        self.base = base
        #: Overlay ranges in replay (program) order; later writes win.
        self.writes: Tuple[OverlayWrite, ...] = tuple(writes)
        self._digest: Optional[bytes] = None
        self._mat: Optional[bytes] = None
        self._effective: Optional[Tuple[OverlayWrite, ...]] = None
        self._noop_dropped: Optional[int] = None

    # ------------------------------------------------------------------
    def effective_writes(self) -> Tuple[OverlayWrite, ...]:
        """The overlay with no-op writes dropped (cached).

        A write is a no-op — and safe to drop — when its payload is
        byte-equal to the content it overwrites: the base slice it covers,
        patched with the earlier *kept* writes it overlaps.  Comparing
        against the overlap-resolved content (not the raw base) is what
        keeps the drop sound under later-writes-win materialization in
        both directions: a base-equal write on top of a kept write
        restores base content — an effect, kept — while a write that
        merely repeats a kept write's visible bytes (e.g. a rewrite whose
        visible suffix is idempotent) changes nothing and drops.  (Overlap
        with earlier *dropped* writes needs no patching: a dropped write
        left the prior content in place by definition.)
        """
        if self._effective is None:
            base = self.base
            kept: List[OverlayWrite] = []
            dropped = 0
            for addr, data in self.writes:
                end = addr + len(data)
                current = None
                for a, d in kept:
                    e = a + len(d)
                    if a < end and addr < e:
                        if current is None:
                            current = bytearray(base[addr:end])
                        s, t = max(a, addr), min(e, end)
                        current[s - addr : t - addr] = d[s - a : t - a]
                if (bytes(current) if current is not None else base[addr:end]) == data:
                    dropped += 1
                    continue
                kept.append((addr, data))
            self._effective = tuple(kept)
            self._noop_dropped = dropped
        return self._effective

    @property
    def noop_dropped(self) -> int:
        """Overlay writes :meth:`digest` ignored as no-ops."""
        if self._noop_dropped is None:
            self.effective_writes()
        return self._noop_dropped  # type: ignore[return-value]

    def digest(self) -> bytes:
        """Content address: sha1(base digest ‖ each effective overlay range).

        No-op writes (see :meth:`effective_writes`) are dropped before
        hashing, so a state that replays only idempotent stores shares the
        digest of the state that dropped them — the two images are
        byte-identical and now memoize as such.  Equal digests imply
        byte-identical materialized images; see the module docstring for
        why the one-way implication is the safe one.
        """
        if self._digest is None:
            prof = _profile.ACTIVE
            t0 = perf_counter() if prof is not None else 0.0
            h = hashlib.sha1(self.base.digest)
            hashed = len(self.base.digest)
            for addr, data in self.effective_writes():
                h.update(struct.pack("<QQ", addr, len(data)))
                h.update(data)
                hashed += 16 + len(data)
            self._digest = h.digest()
            if prof is not None:
                prof.add("image.digest", perf_counter() - t0, hashed,
                         "digest_hashed")
        return self._digest

    def materialize(self) -> bytes:
        """The flat ``bytes`` image (cached after the first call)."""
        if self._mat is None:
            prof = _profile.ACTIVE
            t0 = perf_counter() if prof is not None else 0.0
            m0 = prof.mark() if prof is not None else 0.0
            if not self.writes:
                # Zero-copy: shares the base snapshot, nothing materialized.
                self._mat = self.base.data
                copied = 0
            else:
                buf = bytearray(self.base.data)
                for addr, data in self.writes:
                    buf[addr : addr + len(data)] = data
                self._mat = bytes(buf)
                copied = len(self._mat)
            if prof is not None:
                # Exclusive of a lazy fence base materializing itself.
                prof.add_exclusive("image.materialize", perf_counter() - t0,
                                   m0, copied, "materialized")
        return self._mat

    # ------------------------------------------------------------------
    # bytes-compatible surface
    # ------------------------------------------------------------------
    def __bytes__(self) -> bytes:
        return self.materialize()

    def __len__(self) -> int:
        return len(self.base)

    def __getitem__(self, key):
        return self.materialize()[key]

    def _content_of(self, other) -> Optional[bytes]:
        if isinstance(other, CrashImage):
            return other.materialize()
        if isinstance(other, (bytes, bytearray)):
            return bytes(other)
        return None

    def __eq__(self, other) -> bool:
        content = self._content_of(other)
        if content is None:
            return NotImplemented
        return self.materialize() == content

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __lt__(self, other) -> bool:
        content = self._content_of(other)
        if content is None:
            return NotImplemented
        return self.materialize() < content

    def __le__(self, other) -> bool:
        content = self._content_of(other)
        if content is None:
            return NotImplemented
        return self.materialize() <= content

    def __gt__(self, other) -> bool:
        content = self._content_of(other)
        if content is None:
            return NotImplemented
        return self.materialize() > content

    def __ge__(self, other) -> bool:
        content = self._content_of(other)
        if content is None:
            return NotImplemented
        return self.materialize() >= content

    def __hash__(self) -> int:
        # Content hash, consistent with content equality (incl. vs bytes).
        return hash(self.materialize())

    def __repr__(self) -> str:
        return (
            f"CrashImage(size={len(self)}, overlay={len(self.writes)} "
            f"range(s), materialized={self._mat is not None})"
        )
