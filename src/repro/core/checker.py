"""Consistency checking of crash states (paper section 3.3).

For every crash state the checker:

1. mounts the target file system on the image — failure to mount is itself
   a finding (three Table-1 bugs make the file system unmountable);
2. walks the tree — unreadable files/directories are findings;
3. compares the tree against the oracle: a crash *during* syscall *i* must
   match the syscall's pre- or post-state (atomicity, with a torn-write
   envelope for file systems whose ``write`` is not atomic); a crash *after*
   syscall *i* must match its post-state exactly (synchrony);
4. runs a usability pass: create a probe file in every directory, then
   delete every regular file.

Each crash state is checked on a copy-on-write view of its fence region's
shared device (:meth:`~repro.pm.device.PMDevice.cow_view`): the view
overlays the state's writes and arms an undo log that rolls back both the
overlay and every checker mutation on exit, so checker mutations never leak
between states — the paper's own undo-log strategy.  Hand-built flat
images are checked on a fresh device copy instead.
"""

from __future__ import annotations

import hashlib
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.oracle import OracleResult, TreeState
from repro.obs import profile as _profile
from repro.core.replayer import CrashState
from repro.core.report import BugReport, Consequence, diff_trees
from repro.fs.common.alloc import AllocatorError
from repro.memo.readset import ReadSetTable, Verdict
from repro.memo.store import MemoTable
from repro.obs.attribution import MemoAttribution
from repro.obs.metrics import CacheCounters
from repro.pm.device import PMDevice, PMDeviceError
from repro.pm.image import CrashImage, FenceBase
from repro.vfs.errors import FsError
from repro.vfs.interface import FileSystem, MountError
from repro.vfs.types import FileType

#: Operations checked with the torn-data envelope on file systems whose
#: write path is not atomic ("the main exception is write", section 3.3).
DATA_OPS = ("write", "pwrite", "append", "fallocate")

PROBE_NAME = ".chk_probe"


@dataclass
class CheckerConfig:
    usability_check: bool = True
    max_diff_entries: int = 4


class ConsistencyChecker:
    """Checks crash states of one recorded workload against its oracle."""

    def __init__(
        self,
        fs_class,
        oracle: OracleResult,
        workload_desc: str,
        bugs=None,
        config: Optional[CheckerConfig] = None,
        telemetry=None,
        provenance=None,
    ) -> None:
        self.fs_class = fs_class
        self.oracle = oracle
        self.workload_desc = workload_desc
        self.bugs = bugs
        self.config = config or CheckerConfig()
        self.telemetry = telemetry if telemetry is not None and telemetry.enabled else None
        #: Optional :class:`~repro.forensics.provenance.ProvenanceRecorder`;
        #: when attached, every report carries its crash state's lineage.
        self.provenance = provenance
        # One shared mount device per fence base (states of one region
        # arrive consecutively, so a single-entry cache hits every time).
        # The numpy backend goes further: one adopted device per *tracker*,
        # wrapping the replayer's live buffer for every region.
        self._mount_base: Optional[FenceBase] = None
        self._mount_device: Optional[PMDevice] = None
        self._mount_store = None
        #: Digests of every distinct *recovered observable outcome* seen —
        #: the post-recovery tree (or an unmountable/unreadable marker) per
        #: checked state.  ``len(outcome_digests) / states checked`` is the
        #: measured headroom for WITCHER-style output-equivalence pruning:
        #: two crash states recovering to the same tree under the same
        #: oracle can only ever yield the same verdict.
        self.outcome_digests: set = set()
        #: Digest of the most recent check's outcome (see :meth:`verdict`).
        self.last_outcome = b""
        # Oracle-context digests cached per (syscall, mid, after) — the
        # expectations part of the check-memo key (see context_digest).
        self._ctx_digests: Dict[Tuple, bytes] = {}
        self._verdict_ctx: Dict[Tuple, bytes] = {}

    # ------------------------------------------------------------------
    # Oracle-context digest (check-memo key component)
    # ------------------------------------------------------------------
    def context_digest(self, state: CrashState) -> bytes:
        """Digest of everything besides the image that decides a verdict.

        Two checkers judging byte-identical images reach the same verdict
        iff their expectations agree, so the cross-workload memo key folds
        in a digest of exactly the inputs :meth:`_check_device` consults:
        the file system, the enabled bug set, the checker knobs, and the
        oracle trees the state's ``(syscall, mid_syscall, after_syscall)``
        context is compared against.  Equal digest ⟹ equal expectations ⟹
        (with equal image bytes) equal verdict — the soundness argument for
        reusing clean verdicts across workloads.  Tree digests go through
        :meth:`_tree_digest`, a pure function of the observable tree.

        Cached per context: a workload has a handful of contexts but
        thousands of states.
        """
        context = (state.syscall, state.mid_syscall, state.after_syscall)
        cached = self._ctx_digests.get(context)
        if cached is not None:
            return cached
        h = hashlib.sha1()
        h.update(self.fs_class.name.encode())
        h.update(b"\x00")
        enabled = sorted(self.bugs.enabled) if self.bugs is not None else []
        h.update(repr(enabled).encode())
        h.update(b"\x01" if self.config.usability_check else b"\x02")
        h.update(b"\x01" if self.fs_class.atomic_data_writes else b"\x02")
        oracle = self.oracle
        if state.mid_syscall and state.syscall is not None:
            i = state.syscall
            op = oracle.workload[i]
            h.update(b"mid")
            h.update(op.name.encode())
            h.update(b"\x00")
            h.update((oracle.errnos[i] or "").encode())
            h.update(b"\x00")
            h.update(self._tree_digest(oracle.pre_state(i)))
            if oracle.errnos[i] is None:
                h.update(self._tree_digest(oracle.post_state(i)))
        else:
            expected = (
                oracle.states[0]
                if state.after_syscall < 0
                else oracle.post_state(state.after_syscall)
            )
            h.update(b"post")
            h.update(self._tree_digest(expected))
        digest = h.digest()
        self._ctx_digests[context] = digest
        return digest

    # ------------------------------------------------------------------
    def verdict_context(self, state: CrashState) -> bytes:
        """Key of everything besides the bytes read that a verdict's
        *text* depends on — the read-set memo's context.

        :meth:`context_digest` decides whether two states pass or fail
        alike, but buggy verdicts are replayed with their report text, and
        that quotes the syscall context (``state after syscall #i``) and,
        mid-syscall, the operation's arguments — the digest only hashes the
        op name.  The device size pins the geometry recovery derives.
        """
        context = (state.syscall, state.mid_syscall, state.after_syscall)
        cached = self._verdict_ctx.get(context)
        if cached is not None:
            return cached
        parts = [
            self.context_digest(state),
            struct.pack(
                ">iBiQ",
                state.syscall if state.syscall is not None else -1,
                1 if state.mid_syscall else 0,
                state.after_syscall,
                len(state.image),
            ),
        ]
        if state.mid_syscall and state.syscall is not None:
            parts.append(self.oracle.workload[state.syscall].describe().encode())
        key = b"".join(parts)
        self._verdict_ctx[context] = key
        return key

    # ------------------------------------------------------------------
    def check(self, state: CrashState, device: Optional[PMDevice] = None
              ) -> List[BugReport]:
        """Return every violation found in one crash state.

        ``device`` is the state's already-open :meth:`view`; without one
        the check opens (and closes) its own.  When telemetry is attached,
        the per-state outcome breakdown is counted under
        ``checker.outcome.*`` (``clean`` for a state with no findings).
        """
        if device is None:
            with self.view(state) as device:
                reports = self._check_device(state, device)
        else:
            reports = self._check_device(state, device)
        self._count(reports)
        return reports

    def _count(self, reports: List[BugReport]) -> None:
        tel = self.telemetry
        if tel is not None:
            tel.count("checker.states_checked")
            if not reports:
                tel.count("checker.outcome.clean")
            else:
                for report in reports:
                    tel.count("checker.outcome." + report.consequence.name.lower())

    def verdict(self, reports: List[BugReport]) -> Verdict:
        """The state-independent part of the last check's outcome."""
        return Verdict(
            tuple((r.consequence, r.detail, r.paths) for r in reports),
            self.last_outcome,
        )

    def replay(self, state: CrashState, verdict: Verdict) -> List[BugReport]:
        """Rebuild a stored verdict's reports for ``state``, as a check of
        it would build them (crash description, replay count and
        provenance come from ``state``).  Telemetry counts it under
        ``checker.states_checked`` and ``checker.outcome.*`` like a check."""
        self.outcome_digests.add(verdict.outcome)
        reports = [
            self._report(state, consequence, detail, paths=paths)
            for consequence, detail, paths in verdict.reports
        ]
        self._count(reports)
        return reports

    @contextmanager
    def view(self, state: CrashState) -> Iterator[PMDevice]:
        """The device a state is checked on, for the ``with`` block."""
        image = state.image
        if isinstance(image, CrashImage):
            # Delta path: mount the fence region's shared device through a
            # copy-on-write view of the state's overlay.  The view's undo
            # log rolls back both the overlay and any checker mutation
            # (mount-time recovery writes, the usability pass), so states
            # never leak into each other — the paper's own undo-log
            # strategy, instead of a full image copy per state.
            base = image.base
            restore = getattr(base, "restore_writes", None)
            if restore is not None and not base.adoptable:
                # A later write grew the live buffer past this base's
                # historical end; content restores cannot truncate, so the
                # zero-copy adopt path would mount a longer device.  Take
                # the snapshotting path below instead (rare: only logs
                # that write past the device end).
                restore = None
            if restore is not None:
                # Numpy backend: the base shares the replayer's live buffer
                # — adopt that buffer as the mount device (no copy, ever)
                # and prefix the COW view with the base's restore patch,
                # which rolls the live content back to this region.  While
                # states stream (region checked as it is enumerated) the
                # patch is empty; it only grows for stale bases re-checked
                # after enumeration moved on.
                tracker = base.tracker
                if self._mount_store is not tracker:
                    self._mount_store = tracker
                    self._mount_base = None
                    self._mount_device = PMDevice.adopt(
                        tracker.buf, telemetry=self.telemetry
                    )
                writes = tuple(restore()) + image.writes
            else:
                if self._mount_base is not base:
                    self._mount_base = base
                    self._mount_store = None
                    self._mount_device = PMDevice.from_snapshot(
                        base.data, telemetry=self.telemetry
                    )
                writes = image.writes
            with self._mount_device.cow_view(writes) as device:
                yield device
            return
        # Legacy eager path for flat images (hand-built states, the
        # delta-vs-eager benchmark baseline): fresh device copy per state.
        yield PMDevice.from_snapshot(image, telemetry=self.telemetry)

    def _check_device(self, state: CrashState, device: PMDevice) -> List[BugReport]:
        prof = _profile.ACTIVE
        t0 = perf_counter() if prof is not None else 0.0
        try:
            fs = self.fs_class.mount(device, bugs=self.bugs)
        except MountError as exc:
            self._note_outcome(b"<unmountable>" + str(exc).encode())
            return [self._report(state, Consequence.UNMOUNTABLE, str(exc))]
        except (PMDeviceError, AllocatorError) as exc:
            self._note_outcome(
                b"<mount-crash>" + type(exc).__name__.encode()
            )
            return [
                self._report(
                    state,
                    Consequence.UNMOUNTABLE,
                    f"mount crashed: {type(exc).__name__}: {exc}",
                )
            ]
        finally:
            if prof is not None:
                prof.add("checker.mount", perf_counter() - t0)
        reports: List[BugReport] = []
        t0 = perf_counter() if prof is not None else 0.0
        try:
            crash_tree = fs.walk()
        except FsError as exc:
            reports.append(self._report(state, Consequence.UNREADABLE, str(exc)))
            crash_tree = None
        if prof is not None:
            prof.add("checker.walk", perf_counter() - t0)
        if crash_tree is None:
            self._note_outcome(b"<unreadable>")
        else:
            self._note_outcome(self._tree_digest(crash_tree))
            t0 = perf_counter() if prof is not None else 0.0
            reports.extend(self._check_semantics(state, crash_tree))
            if prof is not None:
                prof.add("checker.semantics", perf_counter() - t0)
            if self.config.usability_check:
                t0 = perf_counter() if prof is not None else 0.0
                reports.extend(self._check_usability(state, fs, crash_tree))
                if prof is not None:
                    prof.add("checker.usability", perf_counter() - t0)
        return reports

    # ------------------------------------------------------------------
    # Recovered-outcome tracking (equivalence-pruning headroom)
    # ------------------------------------------------------------------
    def _note_outcome(self, material: bytes) -> None:
        self.last_outcome = hashlib.sha1(material).digest()
        self.outcome_digests.add(self.last_outcome)

    @staticmethod
    def _tree_digest(crash_tree: TreeState) -> bytes:
        """Stable digest of the recovered observable tree.

        Covers every field tree equality compares — the whole content,
        not the 32-byte preview an observation's ``repr`` shows: two
        expected trees that differ past that preview must not share a
        context digest, or a verdict would carry over between them.
        """
        h = hashlib.sha1()
        for path in sorted(crash_tree):
            obs = crash_tree[path]
            content = obs.content if obs.content is not None else b""
            h.update(path.encode())
            h.update(b"\x00")
            h.update(repr((obs.ftype.name, obs.size, obs.nlink, obs.mode,
                           obs.content is None, len(content),
                           obs.entries)).encode())
            h.update(content)
            h.update(b"\x01")
        return b"<tree>" + h.digest()

    # ------------------------------------------------------------------
    # Semantic comparison
    # ------------------------------------------------------------------
    def _check_semantics(self, state: CrashState, crash_tree: TreeState) -> List[BugReport]:
        oracle = self.oracle
        if state.mid_syscall and state.syscall is not None:
            i = state.syscall
            pre = oracle.pre_state(i)
            if oracle.errnos[i] is not None:
                # The syscall failed on the oracle; it must not have left
                # any persistent effect.
                if crash_tree == pre:
                    return []
                return [self._mismatch(state, crash_tree, pre, Consequence.ATOMICITY)]
            post = oracle.post_state(i)
            if crash_tree == pre or crash_tree == post:
                return []
            op_name = oracle.workload[i].name
            if op_name in DATA_OPS and not self.fs_class.atomic_data_writes:
                if self._within_data_envelope(crash_tree, pre, post):
                    return []
            return [self._atomicity_report(state, crash_tree, pre, post)]
        # Post-syscall or final state: synchrony — exact match required.
        if state.after_syscall < 0:
            expected = oracle.states[0]
        else:
            expected = oracle.post_state(state.after_syscall)
        if crash_tree == expected:
            return []
        consequence = (
            Consequence.SYNCHRONY if state.after_syscall >= 0 else Consequence.STATE_MISMATCH
        )
        return [self._mismatch(state, crash_tree, expected, consequence)]

    def _within_data_envelope(
        self, crash: TreeState, pre: TreeState, post: TreeState
    ) -> bool:
        """Torn-write envelope for non-atomic data operations.

        Paths untouched by the syscall must match the pre-state; the target
        file's metadata must be the old or new version, and every content
        byte must come from the old content, the new content, or be zero in
        a region the operation extended.
        """
        changed = {p for p in set(pre) | set(post) if pre.get(p) != post.get(p)}
        for path in set(crash) | set(pre):
            if path in changed:
                continue
            if crash.get(path) != pre.get(path):
                return False
        for path in changed:
            c = crash.get(path)
            p0, p1 = pre.get(path), post.get(path)
            if c is None or p1 is None:
                return False
            if c.ftype is not FileType.REGULAR:
                return False
            if c.nlink != p1.nlink or c.mode != p1.mode:
                return False
            sizes = {p1.size} | ({p0.size} if p0 is not None else set())
            if c.size not in sizes:
                return False
            old = p0.content if p0 is not None and p0.content else b""
            new = p1.content if p1.content else b""
            content = c.content or b""
            for i, byte in enumerate(content):
                old_b = old[i] if i < len(old) else 0
                new_b = new[i] if i < len(new) else 0
                if byte not in (old_b, new_b, 0):
                    return False
        return True

    # ------------------------------------------------------------------
    # Report construction
    # ------------------------------------------------------------------
    def _atomicity_report(
        self, state: CrashState, crash: TreeState, pre: TreeState, post: TreeState
    ) -> BugReport:
        """Classify an atomicity violation for a readable crash state."""
        diffs_pre = diff_trees(crash, pre)
        diffs_post = diff_trees(crash, post)
        diffs = diffs_pre if len(diffs_pre) <= len(diffs_post) else diffs_post
        consequence = Consequence.ATOMICITY
        op = self.oracle.workload[state.syscall] if state.syscall is not None else None
        detail_bits: List[str] = []
        if op is not None and op.name == "rename":
            old_path, new_path = op.args[0], op.args[1]
            if old_path not in crash and new_path not in crash and old_path in pre:
                detail_bits.append(
                    f"rename atomicity broken: neither {old_path!r} nor "
                    f"{new_path!r} exists (file disappears)"
                )
            elif old_path in crash and new_path in crash:
                detail_bits.append(
                    f"rename atomicity broken: old file {old_path!r} still "
                    f"present alongside {new_path!r}"
                )
        if any(
            d.kind == "differs" and "zeros" not in d.detail and "content" in d.detail
            for d in diffs
        ):
            consequence = Consequence.DATA_LOSS
        missing_data = [
            d for d in diffs if d.kind == "differs" and "size" in d.detail
        ]
        if op is not None and op.name in DATA_OPS and (missing_data or not detail_bits):
            consequence = Consequence.DATA_LOSS
        detail_bits.extend(
            d.describe() for d in diffs[: self.config.max_diff_entries]
        )
        return self._report(
            state,
            consequence,
            f"matches neither pre nor post state of "
            f"{op.describe() if op else '?'}: " + " | ".join(detail_bits),
            paths=tuple(d.path for d in diffs[: self.config.max_diff_entries]),
        )

    def _mismatch(
        self,
        state: CrashState,
        crash: TreeState,
        expected: TreeState,
        consequence: Consequence,
    ) -> BugReport:
        diffs = diff_trees(crash, expected)
        detail = " | ".join(d.describe() for d in diffs[: self.config.max_diff_entries])
        return self._report(
            state,
            consequence,
            f"state after syscall #{state.after_syscall} diverges: {detail}",
            paths=tuple(d.path for d in diffs[: self.config.max_diff_entries]),
        )

    def _report(
        self,
        state: CrashState,
        consequence: Consequence,
        detail: str,
        paths: Tuple[str, ...] = (),
    ) -> BugReport:
        return BugReport(
            fs_name=self.fs_class.name,
            consequence=consequence,
            workload_desc=self.workload_desc,
            crash_desc=state.describe(),
            detail=detail,
            syscall=state.syscall,
            syscall_name=state.syscall_name,
            mid_syscall=state.mid_syscall,
            n_replayed=state.n_replayed,
            paths=paths,
            provenance=(
                self.provenance.for_state(state)
                if self.provenance is not None
                else None
            ),
        )

    # ------------------------------------------------------------------
    # Usability pass
    # ------------------------------------------------------------------
    def _check_usability(
        self, state: CrashState, fs: FileSystem, crash_tree: TreeState
    ) -> List[BugReport]:
        """Create a file in every directory, then delete every file."""
        reports: List[BugReport] = []
        dirs = [p for p, obs in crash_tree.items() if obs.ftype is FileType.DIRECTORY]
        files = [p for p, obs in crash_tree.items() if obs.ftype is FileType.REGULAR]
        for d in sorted(dirs):
            probe = (d.rstrip("/") or "") + "/" + PROBE_NAME
            try:
                fs.creat(probe)
                files.append(probe)
            except FsError as exc:
                reports.append(
                    self._report(
                        state,
                        Consequence.USABILITY,
                        f"cannot create a file in {d!r}: {exc}",
                        paths=(d,),
                    )
                )
        for f in sorted(files):
            try:
                fs.unlink(f)
            except FsError as exc:
                reports.append(
                    self._report(
                        state,
                        Consequence.USABILITY,
                        f"cannot delete {f!r}: {exc}",
                        paths=(f,),
                    )
                )
        return reports


#: Length of a sha1 digest; the memo key packs two of them first.
_SHA1_LEN = 20


class CheckMemo:
    """Content-addressed check memoization: one checker run per distinct state.

    The single entry point for checking crash states (the harness calls
    nothing else), so memoization and the per-state ``check_state``
    telemetry span wrap the same code path.

    **One key.** A state is keyed by ``context_digest ‖ content address ‖
    (syscall, mid_syscall, after_syscall)``.  The checker's
    :meth:`~ConsistencyChecker.context_digest` covers everything besides
    the image that decides a verdict — file system, bug set, checker knobs
    and the oracle trees the state is compared against — so key equality
    implies byte-identical images *and* identical expectations, hence an
    identical verdict in any workload.  A byte-identical image
    crash-checked mid-syscall and post-syscall gets two keys.

    With ``delta=True`` the content address is the canonical byte-granular
    key (:meth:`~repro.obs.attribution.MemoAttribution.content_key`: sha1
    over the fence-base digest and the exact byte diff from base via
    :func:`~repro.pm.image.flatten_overlay`) — O(overlay), no
    materialization, and identical for every overlay shape that
    materializes the same bytes.  With ``delta=False`` every state is
    materialized and keyed by ``sha1(image)`` — eager whole-image dedup,
    the ``--no-memoize`` reference.

    **Clean verdicts outlive the workload.**  A state that checks CLEAN
    is recorded in ``table``, the :class:`~repro.memo.store.MemoTable` the
    harness shares across every workload of one
    :class:`~repro.core.harness.Chipmunk`; without a table the memo builds
    its own per-workload one (the ``--no-memoize`` path, which keeps the
    reference run independent of cross-workload reuse).  Skipping a state
    whose verdict is provably clean cannot change ``bugs.json``: there are
    no reports to suppress.  LRU eviction of a clean entry only costs a
    redundant check.

    **Buggy keys stay per workload**, in this memo's own set.  A buggy
    state recurring inside the workload is skipped (its reports are
    already in the caller's hands); met again in a later workload it is
    re-checked and emits that workload's own reports, exactly as a
    memo-off run does.  Keeping buggy keys out of the LRU also means none
    is ever evicted and re-reported within a workload.

    **Read-set verdicts.**  Given a worker-lifetime
    :class:`~repro.memo.readset.ReadSetTable` (``readsets=``), a content
    miss opens the state's :meth:`~ConsistencyChecker.view` and first
    looks the state up by the crash bytes earlier checks *read*: a state
    that matches an earlier check on every byte it read gets that check's
    verdict, buggy or clean, rebuilt for this state by
    :meth:`~ConsistencyChecker.replay` — the report list is the one a
    check would have produced.  Otherwise the checker runs on the same
    view with the device access trace on, and its verdict is recorded
    under the pristine bytes it read.  A read-set hit counts as a hit (in
    :attr:`hits` and :attr:`readset_hits`), not a miss.

    :meth:`check` returns ``None`` when the state's byte-identical twin was
    already judged (its reports, if any, are in the caller's hands) and
    the state's report list otherwise — checked or replayed.

    Every miss is classified by a :class:`~repro.obs.attribution.MemoAttribution`
    (cold base / syscall context / new content — the reason counts sum
    exactly to :attr:`misses`).  A hit on an entry an earlier workload
    recorded counts in :attr:`cross_hits` and seeds the attribution, so
    later misses on the same fence base are not misread as cold.  Overlay
    writes dropped as whole-write no-ops are tallied in
    :attr:`noop_writes_dropped`.  With telemetry attached these surface as
    registry counters: ``checker.memo.miss.{reason}``,
    ``checker.memo.readset_hits``, ``checker.memo.noop_writes_dropped``
    and ``checker.memo.evictions``.
    """

    def __init__(self, checker: ConsistencyChecker, telemetry=None,
                 delta: bool = True,
                 table: Optional[MemoTable] = None,
                 readsets: Optional[ReadSetTable] = None) -> None:
        self.checker = checker
        self.delta = delta
        self._readsets = readsets
        self._tel = telemetry if telemetry is not None and telemetry.enabled else None
        #: Per-memo hit/miss counts (one memo per workload).
        self.hits = 0
        self.misses = 0
        #: Hits on clean entries an earlier workload recorded (also
        #: counted in :attr:`hits`).
        self.cross_hits = 0
        #: Hits answered by the read-set table (also counted in
        #: :attr:`hits`).
        self.readset_hits = 0
        #: Clean entries this memo's publishes pushed out of the table.
        self.evictions = 0
        #: Overlay writes dropped before digesting because they were
        #: byte-equal to the base (summed over every state keyed).
        self.noop_writes_dropped = 0
        #: Miss classifier; its reason counts always sum to :attr:`misses`.
        self.attribution = MemoAttribution()
        # Registry-backed counters accumulate campaign-wide under
        # ``checker.memo.*`` when telemetry is attached.
        self._counters = (
            CacheCounters("checker.memo", self._tel.metrics)
            if self._tel is not None
            else None
        )
        self._table = table if table is not None else MemoTable()
        self._buggy: set = set()
        # The tag this memo's table entries carry, telling a hit on an
        # earlier workload's entry from a hit on this workload's own.
        self._tag = object()

    def key_of(self, state: CrashState) -> bytes:
        prof = _profile.ACTIVE
        t0 = perf_counter() if prof is not None else 0.0
        m0 = prof.mark() if prof is not None else 0.0
        image = state.image
        if self.delta and isinstance(image, CrashImage):
            content = MemoAttribution.content_key(image)
        else:
            content = hashlib.sha1(
                image if isinstance(image, (bytes, bytearray)) else bytes(image)
            ).digest()
        key = b"".join((
            self.checker.context_digest(state),
            content,
            struct.pack(
                ">iBi",
                state.syscall if state.syscall is not None else -1,
                1 if state.mid_syscall else 0,
                state.after_syscall,
            ),
        ))
        if prof is not None:
            # Exclusive of the flatten the content key runs internally
            # (profiled at its own site in the same stage).
            prof.add_exclusive("memo.key", perf_counter() - t0, m0)
        return key

    @property
    def unique(self) -> int:
        """Distinct states judged, by a check (:attr:`misses`) or a
        read-set replay — the campaign's "unique states"."""
        return self.misses + self.readset_hits

    def _hit(self) -> None:
        self.hits += 1
        if self._counters is not None:
            self._counters.hit()

    def check(self, state: CrashState) -> Optional[List[BugReport]]:
        key = self.key_of(state)
        image = state.image
        if self.delta and isinstance(image, CrashImage):
            dropped = image.noop_dropped
            if dropped:
                self.noop_writes_dropped += dropped
                if self._tel is not None:
                    self._tel.count("checker.memo.noop_writes_dropped", dropped)
        if key in self._buggy:
            self._hit()
            return None
        # On the delta path (and for flat images) the key's content address
        # *is* the canonical content key — hand it over so attribution never
        # re-flattens the overlay.
        content = key[_SHA1_LEN:2 * _SHA1_LEN]
        ckey = content if self.delta or not isinstance(image, CrashImage) else None
        tag = self._table.lookup(key)
        if tag is not None:
            if tag is not self._tag:
                # An earlier workload checked these bytes under these
                # expectations and found nothing.  Re-tag the entry so
                # further hits in this workload count as local, and mark
                # the state seen for attribution.
                self.cross_hits += 1
                self._table.publish(key, self._tag)
                self.attribution.note_cross_workload_hit(state, ckey=ckey)
            self._hit()
            return None
        if self._readsets is None:
            reports = self._check_miss(state, content, ckey, None)
        else:
            reports = self._check_readsets(state, content, ckey)
        if reports:
            self._buggy.add(key)
            return reports
        evicted = self._table.publish(key, self._tag)
        if evicted:
            self.evictions += evicted
            if self._tel is not None:
                self._tel.count("checker.memo.evictions", evicted)
        return reports

    def _check_readsets(self, state: CrashState, content: bytes,
                        ckey: Optional[bytes]) -> List[BugReport]:
        """Replay a read-set verdict, else check and record one."""
        checker = self.checker
        context = checker.verdict_context(state)
        with checker.view(state) as device:
            verdict = self._readsets.lookup(context, device.image)
            if verdict is not None:
                self.readset_hits += 1
                self.attribution.note_cross_workload_hit(state, ckey=ckey)
                self._hit()
                if self._tel is not None:
                    self._tel.count("checker.memo.readset_hits")
                return checker.replay(state, verdict)
            device.trace = []
            try:
                reports = self._check_miss(state, content, ckey, device)
                self._readsets.record(
                    context, device.trace, device.size, checker.verdict(reports)
                )
            finally:
                device.trace = None
        return reports

    def _check_miss(self, state: CrashState, content: bytes,
                    ckey: Optional[bytes],
                    device: Optional[PMDevice]) -> List[BugReport]:
        self.misses += 1
        reason = self.attribution.classify_miss(state, content, ckey=ckey)
        if self._counters is not None:
            self._counters.miss()
        if self._tel is None:
            return self.checker.check(state, device)
        self._tel.count("checker.memo.miss." + reason)
        with self._tel.span(
            "check_state",
            fence=state.fence_index,
            syscall=state.syscall_name or "",
            n_replayed=state.n_replayed,
        ):
            return self.checker.check(state, device)
