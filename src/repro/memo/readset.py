"""Read-set verdict table: replay a check's verdict by the bytes it read.

The consistency check is a deterministic function of its context (file
system, bug set, oracle expectations) and of the PM bytes recovery and the
tree walk *read*.  A crash state that agrees with an earlier checked state
on every byte that check read from the crash image therefore makes the
same reads, gets the same answers and reaches the same verdict — whatever
its other bytes hold (log entries past an unpersisted tail, blocks no
inode points at).  :class:`ReadSetTable` stores verdicts under exactly
those bytes.

**Recording.**  While a check runs, the device appends every access to
``PMDevice.trace``: ``(addr, data)`` for a read, ``(addr, length)`` for a
write.  :func:`pristine_reads` keeps the *pristine* part of each read —
every byte no earlier checker write covered — exact to the byte: a read
that partly overlaps an earlier write in the same cache line still keeps
its unwritten bytes, because dropping a byte that was read from the crash
image would let a state that differs there share the verdict.  Bytes the
checker wrote before reading them are a function of earlier reads, so
they need no comparison.

**Lookup.**  Under one context the table keeps the few distinct read-span
*signatures* earlier checks produced; each maps ``sha1(crash-image bytes at
those spans)`` to a stored :class:`Verdict`.  A lookup hashes the state's
image at each signature's spans (before the checker touches it) and
returns the first stored verdict that matches.

Entries are LRU-bounded like :class:`~repro.memo.store.MemoTable`; a
signature disappears with its last entry.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.memo.store import DEFAULT_MAX_ENTRIES

#: ``(lo, hi)`` byte ranges of the crash image, sorted and disjoint.
Spans = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class Verdict:
    """What a check concluded, minus everything the state itself supplies.

    ``reports`` holds each report's ``(consequence, detail, paths)``; the
    checker rebuilds the reports for a new state around them (crash
    description, replay count and provenance come from that state).
    ``outcome`` is the digest of the recovered observable outcome.
    """

    reports: Tuple[tuple, ...]
    outcome: bytes


def pristine_reads(trace: Sequence[tuple], size: int) -> List[Tuple[int, bytes]]:
    """The ``(addr, data)`` pieces of traced reads no earlier write covered.

    ``trace`` is a device access trace in program order: ``(addr, bytes)``
    per read, ``(addr, int length)`` per write.  A write marks its bytes
    covered from then on; each read keeps exactly its uncovered bytes.
    """
    written: Optional[bytearray] = None
    pieces: List[Tuple[int, bytes]] = []
    for addr, item in trace:
        if type(item) is int:
            if item:
                if written is None:
                    written = bytearray(size)
                written[addr : addr + item] = b"\x01" * item
            continue
        end = addr + len(item)
        if addr == end:
            continue
        if written is None or written.find(1, addr, end) < 0:
            pieces.append((addr, item))
            continue
        pos = addr
        while pos < end:
            stop = written.find(1, pos, end)
            if stop < 0:
                stop = end
            if stop > pos:
                pieces.append((pos, item[pos - addr : stop - addr]))
            if stop == end:
                break
            pos = written.find(0, stop, end)
            if pos < 0:
                break
    return pieces


def merge_pieces(pieces: List[Tuple[int, bytes]]) -> Tuple[Spans, bytes]:
    """Merge read pieces into disjoint sorted spans plus their bytes.

    Overlapping pristine pieces agree byte for byte (nothing wrote to them
    between the reads), so a later piece only contributes its tail.
    """
    spans: List[List[int]] = []
    chunks: List[bytearray] = []
    for addr, data in sorted(pieces):
        end = addr + len(data)
        if spans and addr <= spans[-1][1]:
            last = spans[-1]
            if end > last[1]:
                chunks[-1] += data[last[1] - addr :]
                last[1] = end
        else:
            spans.append([addr, end])
            chunks.append(bytearray(data))
    return tuple((lo, hi) for lo, hi in spans), b"".join(chunks)


def span_digest(image, spans: Spans) -> bytes:
    """sha1 over ``image``'s bytes at ``spans``, in span order."""
    h = hashlib.sha1()
    with memoryview(image) as view:
        for lo, hi in spans:
            h.update(view[lo:hi])
    return h.digest()


class _Signature:
    """One read-span set recorded under a context, with its verdicts."""

    __slots__ = ("context", "spans", "verdicts")

    def __init__(self, context: bytes, spans: Spans) -> None:
        self.context = context
        self.spans = spans
        self.verdicts: Dict[bytes, Verdict] = {}


class ReadSetTable:
    """Verdicts keyed by check context and the crash bytes a check read."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        self.max_entries = int(max_entries)
        self._signatures: Dict[bytes, Dict[Spans, _Signature]] = {}
        # (signature, digest) -> None, in recency order.
        self._lru: "OrderedDict[Tuple[_Signature, bytes], None]" = OrderedDict()

    def lookup(self, context: bytes, image) -> Optional[Verdict]:
        """The verdict of an earlier check whose read bytes ``image``
        matches under ``context``; None when there is none."""
        for sig in self._signatures.get(context, {}).values():
            digest = span_digest(image, sig.spans)
            verdict = sig.verdicts.get(digest)
            if verdict is not None:
                self._lru.move_to_end((sig, digest))
                return verdict
        return None

    def record(self, context: bytes, trace: Sequence[tuple], size: int,
               verdict: Verdict) -> None:
        """Store ``verdict`` under the pristine bytes ``trace`` read."""
        spans, data = merge_pieces(pristine_reads(trace, size))
        by_spans = self._signatures.setdefault(context, {})
        sig = by_spans.get(spans)
        if sig is None:
            sig = by_spans[spans] = _Signature(context, spans)
        digest = hashlib.sha1(data).digest()
        sig.verdicts[digest] = verdict
        self._lru[(sig, digest)] = None
        self._lru.move_to_end((sig, digest))
        if self.max_entries > 0:
            while len(self._lru) > self.max_entries:
                (old, old_digest), _ = self._lru.popitem(last=False)
                del old.verdicts[old_digest]
                if not old.verdicts:
                    siblings = self._signatures[old.context]
                    del siblings[old.spans]
                    if not siblings:
                        del self._signatures[old.context]

    def __len__(self) -> int:
        return len(self._lru)
