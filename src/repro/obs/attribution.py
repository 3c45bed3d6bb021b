"""Memo-miss attribution: *why* did a check-memo lookup miss?

The check memo (:class:`repro.core.checker.CheckMemo`) keys crash states
by the canonical byte-granular content address
(:meth:`MemoAttribution.content_key`): equality implies byte-identical
images, and — because the key flattens the overlay down to the exact byte
diff from base — every overlay shape that materializes the same bytes
produces the same key.  This module classifies every miss into exactly
one of:

``cold_base``
    The fence base's content digest had never been seen — the first state
    of a new persistent epoch.  Unavoidable: nothing to memoize against.
``syscall_context``
    The content was seen before, but only under a different
    ``(syscall, mid_syscall, after_syscall)`` context.  A *necessary*
    miss: the same image is judged against different oracle expectations.
``new_content``
    Content this workload has not checked under this context.  Necessary
    by definition — short of a re-check of a clean state whose entry the
    memo's LRU bound evicted (counted separately as an eviction).

Classification is exact, not sampled — the memo hands over the content
key it already computed, so the per-miss cost is set lookups, and a miss
is immediately followed by a full mount-and-walk check that dwarfs them.
The reason counts always sum to the memo's miss count: every miss
receives exactly one label.

The attribution also keeps a colliding-digest table: content keys that
were checked under more than one distinct memo digest.  Under canonical
keying the two coincide, so any entry here is a signal that the memo key
stopped being a pure function of the bytes.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, List, Optional, Set, Tuple

from repro.pm.image import CrashImage, flatten_overlay

#: Classification labels, in reporting order.
MISS_REASONS = ("cold_base", "syscall_context", "new_content")


class MemoAttribution:
    """Classifies every memo miss of one workload's :class:`CheckMemo`.

    One instance per memo (per workload): the universe a miss is judged
    against is exactly the set of states the memo itself has seen, so
    "seen before" means "a hit was possible in principle".
    """

    def __init__(self) -> None:
        #: reason -> count; values always sum to the number of
        #: :meth:`classify_miss` calls (== the memo's miss count).
        self.reasons: Dict[str, int] = {}
        self._bases: Set[bytes] = set()
        #: content key -> syscall contexts it was checked under.
        self._contexts: Dict[bytes, Set[Tuple]] = {}
        #: content key -> distinct range-wise (memo) digests seen.
        self._shapes: Dict[bytes, Set[bytes]] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def content_key(image) -> bytes:
        """A canonical content address: a pure function of the bytes.

        For a :class:`CrashImage` this is sha1 over the base digest and
        the exact byte diff from base — O(overlay), no materialization,
        and identical for every overlay shape that materializes the same
        image.  Flat ``bytes`` images hash directly.
        """
        if isinstance(image, CrashImage):
            h = hashlib.sha1(image.base.digest)
            for addr, data in flatten_overlay(image.base, image.writes):
                h.update(struct.pack("<QQ", addr, len(data)))
                h.update(data)
            return h.digest()
        return hashlib.sha1(
            image if isinstance(image, (bytes, bytearray)) else bytes(image)
        ).digest()

    # ------------------------------------------------------------------
    def classify_miss(
        self, state, memo_digest: bytes, ckey: Optional[bytes] = None
    ) -> str:
        """Label one miss; record the state for future classifications.

        ``memo_digest`` is the content-address component of the memo key
        that just missed — it feeds the colliding-digest table.  When the
        memo already keys on the canonical content address it passes it as
        ``ckey`` so the overlay is never flattened twice; legacy callers
        (range-wise or eager keying) omit it and the key is derived here.
        """
        image = state.image
        context = (state.syscall, state.mid_syscall, state.after_syscall)
        is_delta = isinstance(image, CrashImage)
        if ckey is None:
            ckey = self.content_key(image)
        seen = self._contexts.get(ckey)
        if is_delta and image.base.digest not in self._bases:
            reason = "cold_base"
        elif seen is not None and context not in seen:
            reason = "syscall_context"
        else:
            reason = "new_content"
        if is_delta:
            self._bases.add(image.base.digest)
        self._contexts.setdefault(ckey, set()).add(context)
        self._shapes.setdefault(ckey, set()).add(memo_digest)
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        return reason

    def note_cross_workload_hit(
        self, state, ckey: Optional[bytes] = None
    ) -> None:
        """Record a state skipped on a verdict recorded earlier: a clean
        verdict from an earlier workload, or a read-set verdict.

        A hit is not a miss, so no reason is counted — ``sum(reasons) ==
        misses`` stays structural.  But the state's base and context are
        now "seen": without seeding them, a later miss on the same fence
        base would be misclassified as ``cold_base`` (the base is anything
        but cold — earlier workloads checked states on it), inflating the
        unavoidable class and understating memo headroom.  No ``_shapes``
        entry is recorded: the colliding-digest table tracks *checked*
        digests only.
        """
        image = state.image
        context = (state.syscall, state.mid_syscall, state.after_syscall)
        if ckey is None:
            ckey = self.content_key(image)
        if isinstance(image, CrashImage):
            self._bases.add(image.base.digest)
        self._contexts.setdefault(ckey, set()).add(context)

    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        """Total classified misses (== the memo's miss count)."""
        return sum(self.reasons.values())

    def top_collisions(self, k: int = 5) -> List[Tuple[str, int]]:
        """Content keys checked under more than one memo digest.

        Returns up to ``k`` ``(content_key_hex, n_shapes)`` pairs, most
        collided first — the concrete states a canonical digest would have
        merged.
        """
        colliding = [
            (key.hex()[:16], len(shapes))
            for key, shapes in self._shapes.items()
            if len(shapes) > 1
        ]
        colliding.sort(key=lambda kv: (-kv[1], kv[0]))
        return colliding[:k]
