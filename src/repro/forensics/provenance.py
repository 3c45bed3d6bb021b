"""Crash-state provenance: the store-level lineage behind a checker failure.

A :class:`~repro.core.report.BugReport` used to say *what* diverged; this
module records *why* — which persistence operations were in flight at the
crash, which subset the replayer persisted, and which were dropped.  The
lineage is captured from the recorded :class:`~repro.pm.log.PMLog` at the
moment a checker failure is reported (never for clean states, so capture
cost scales with bugs, not with crash states) and travels inside the report
as a compact, JSON-serializable :class:`CrashProvenance`.

Every report of one workload comes from the same log, so the log is
tabulated once per workload (:class:`LogTable`) and each crash state only
re-tags its crash region's stores.  On the wire the same sharing holds:
a serialized test result stores the table and the context once
(:class:`ProvenanceTables`) and each report keeps its crash identity plus
an index into them.  A standalone :meth:`CrashProvenance.to_dict` is
always the full inline form.

The provenance also carries the full *reproduction context* — file system,
workload and setup operations, bug configuration, and harness knobs — so
``python -m repro explain`` can rebuild the exact crash state offline from
a saved report, re-run the checker, and minimize the culprit store set
(:mod:`repro.forensics.minimize`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.pm.log import Fence, Flush, NTStore, PMLog, SyscallBegin, SyscallEnd

#: Entry statuses.  ``durable`` — fenced before the crash region;
#: ``replayed`` — in flight at the crash and persisted in this state;
#: ``dropped`` — in flight at the crash and lost in this state;
#: ``fence`` / ``marker`` — ordering structure, not data.
DURABLE = "durable"
REPLAYED = "replayed"
DROPPED = "dropped"
FENCE = "fence"
MARKER = "marker"

#: Maximum store payload bytes embedded per provenance entry.  Data-heavy
#: workloads log block-sized (512 B+) stores; embedding them whole would
#: blow up ``bugs.json`` by orders of magnitude, and the first cache line is
#: what a developer actually reads in a lineage (the replay layer never
#: needs the payload — it re-records).  Longer payloads are truncated with
#: an explicit ``payload_truncated`` marker.
PAYLOAD_CAP = 32


@dataclass(frozen=True)
class ProvEntry:
    """One log entry of the crash lineage, tagged with its persistence fate."""

    #: Position in ``PMLog.entries`` (stable across re-recordings).
    seq: int
    #: ``"store"`` | ``"flush"`` | ``"fence"`` | ``"syscall_begin"`` |
    #: ``"syscall_end"``.
    kind: str
    status: str
    #: Fence epoch the entry belongs to (fences close their own epoch).
    epoch: int
    #: Issuing persistence function — the probe site that recorded it.
    func: str = ""
    addr: int = -1
    length: int = 0
    syscall: Optional[int] = None
    #: Marker text (syscall name and arguments) for begin/end entries.
    label: str = ""
    #: Hex of the store payload's first :data:`PAYLOAD_CAP` bytes ("" for
    #: non-store entries or payload-free captures).
    payload: str = ""
    #: True when the payload was longer than :data:`PAYLOAD_CAP`.
    payload_truncated: bool = False

    def to_dict(self) -> Dict[str, object]:
        out = {
            "seq": self.seq,
            "kind": self.kind,
            "status": self.status,
            "epoch": self.epoch,
            "func": self.func,
            "addr": self.addr,
            "length": self.length,
            "syscall": self.syscall,
            "label": self.label,
        }
        # Payload keys only when present: fences, markers, and short-store
        # captures pay zero serialization cost.
        if self.payload:
            out["payload"] = self.payload
        if self.payload_truncated:
            out["payload_truncated"] = True
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ProvEntry":
        return cls(
            seq=int(data["seq"]),
            kind=str(data["kind"]),
            status=str(data["status"]),
            epoch=int(data["epoch"]),
            func=str(data.get("func", "")),
            addr=int(data.get("addr", -1)),
            length=int(data.get("length", 0)),
            syscall=data.get("syscall"),
            label=str(data.get("label", "")),
            payload=str(data.get("payload", "")),
            payload_truncated=bool(data.get("payload_truncated", False)),
        )


def _ops_to_tuples(ops: Sequence) -> Tuple[Tuple[str, Tuple], ...]:
    return tuple((op.name, tuple(op.args)) for op in ops)


def ops_from_tuples(packed: Sequence[Sequence]) -> List:
    """Rebuild :class:`~repro.workloads.ops.Op` values from packed form."""
    from repro.workloads.ops import Op  # deferred: keep this module light

    return [Op(str(name), tuple(args)) for name, args in packed]


@dataclass(frozen=True)
class CrashProvenance:
    """Full lineage of one failing crash state plus its repro context."""

    fs_name: str
    #: Crash-point identity (mirrors :class:`~repro.core.replayer.CrashState`).
    fence_index: int
    log_pos: int
    mid_syscall: bool
    syscall: Optional[int]
    syscall_name: Optional[str]
    after_syscall: int
    state_kind: str  # "subset" | "post" | "final"
    #: Positions (within the crash region's in-flight vector) persisted.
    replayed_entries: Tuple[int, ...]
    #: Every log entry up to the crash point, tagged.
    entries: Tuple[ProvEntry, ...]
    #: Reproduction context: the workload as (name, args) pairs.
    workload: Tuple[Tuple[str, Tuple], ...] = ()
    setup: Tuple[Tuple[str, Tuple], ...] = ()
    bug_ids: Tuple[int, ...] = ()
    cap: Optional[int] = 2
    coalesce_threshold: int = 256
    device_size: int = 256 * 1024
    crash_points: str = "fence"
    usability_check: bool = True

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def stores(self) -> List[ProvEntry]:
        return [e for e in self.entries if e.kind in ("store", "flush")]

    def dropped(self) -> List[ProvEntry]:
        return [e for e in self.entries if e.status == DROPPED]

    def counts(self) -> Dict[str, int]:
        out = {DURABLE: 0, REPLAYED: 0, DROPPED: 0}
        for entry in self.stores():
            out[entry.status] += 1
        return out

    @property
    def n_epochs(self) -> int:
        return max((e.epoch for e in self.entries), default=-1) + 1

    def crash_region(self) -> List[ProvEntry]:
        """Entries of the fence epoch the crash happened in."""
        return [e for e in self.entries if e.epoch == self.fence_index]

    def where(self) -> str:
        if self.mid_syscall:
            return f"during syscall #{self.syscall} {self.syscall_name}"
        return f"after syscall #{self.after_syscall}"

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def identity_dict(self) -> Dict[str, object]:
        """The crash-point identity: what sets this state's provenance
        apart from every other state's of the same workload."""
        return {
            "fence_index": self.fence_index,
            "log_pos": self.log_pos,
            "mid_syscall": self.mid_syscall,
            "syscall": self.syscall,
            "syscall_name": self.syscall_name,
            "after_syscall": self.after_syscall,
            "state_kind": self.state_kind,
            "replayed_entries": list(self.replayed_entries),
        }

    def context_dict(self) -> Dict[str, object]:
        """The reproduction context, shared by every report of a workload."""
        return {
            "fs_name": self.fs_name,
            "workload": [[name, list(args)] for name, args in self.workload],
            "setup": [[name, list(args)] for name, args in self.setup],
            "bug_ids": list(self.bug_ids),
            "cap": self.cap,
            "coalesce_threshold": self.coalesce_threshold,
            "device_size": self.device_size,
            "crash_points": self.crash_points,
            "usability_check": self.usability_check,
        }

    def to_dict(self) -> Dict[str, object]:
        """The standalone (inline) form: identity, entries and context."""
        context = self.context_dict()
        return {
            "fs_name": context.pop("fs_name"),
            **self.identity_dict(),
            "entries": [e.to_dict() for e in self.entries],
            **context,
        }

    @classmethod
    def from_dict(
        cls, data: Dict[str, object], tables: Sequence["SharedTable"] = (),
    ) -> "CrashProvenance":
        """Rebuild from the inline :meth:`to_dict` form, or from the
        compact form :class:`ProvenanceTables` writes: the identity plus a
        ``"table"`` index into ``tables`` (see :func:`decode_tables`)."""
        identity = _identity_kwargs(data)
        if "table" in data:
            table, context = tables[int(data["table"])]
            return table.provenance(identity, context)
        return cls(
            entries=tuple(
                ProvEntry.from_dict(e) for e in data.get("entries", ())
            ),
            **identity,
            **_context_kwargs(data),
        )


def _identity_kwargs(data: Dict[str, object]) -> Dict[str, object]:
    return {
        "fence_index": int(data["fence_index"]),
        "log_pos": int(data["log_pos"]),
        "mid_syscall": bool(data["mid_syscall"]),
        "syscall": data.get("syscall"),
        "syscall_name": data.get("syscall_name"),
        "after_syscall": int(data["after_syscall"]),
        "state_kind": str(data.get("state_kind", "subset")),
        "replayed_entries": tuple(
            int(i) for i in data.get("replayed_entries", ())
        ),
    }


def _context_kwargs(data: Dict[str, object]) -> Dict[str, object]:
    return {
        "fs_name": str(data["fs_name"]),
        "workload": tuple(
            (str(name), tuple(args)) for name, args in data.get("workload", ())
        ),
        "setup": tuple(
            (str(name), tuple(args)) for name, args in data.get("setup", ())
        ),
        "bug_ids": tuple(int(b) for b in data.get("bug_ids", ())),
        "cap": data.get("cap"),
        "coalesce_threshold": int(data.get("coalesce_threshold", 256)),
        "device_size": int(data.get("device_size", 256 * 1024)),
        "crash_points": str(data.get("crash_points", "fence")),
        "usability_check": bool(data.get("usability_check", True)),
    }


#: Fields of :meth:`CrashProvenance.context_dict`: the part of a
#: provenance every report of one workload shares.
_CONTEXT_FIELDS = (
    "fs_name", "workload", "setup", "bug_ids", "cap", "coalesce_threshold",
    "device_size", "crash_points", "usability_check",
)

_WRITE_KINDS = ("store", "flush")


class LogTable:
    """One workload's PM log as lineage entries, before any crash is chosen.

    Every store is tagged ``durable`` here: that is its fate in any state
    whose crash region opens after it.  A crash state's lineage is this
    table's prefix up to the crash region's opening fence, plus the
    region's stores re-tagged ``replayed`` or ``dropped`` (:meth:`tag`) —
    so capturing one more state of the workload costs O(crash region), not
    O(log prefix).  Entry ``i`` is log position ``i``.
    """

    def __init__(self, entries: Sequence[ProvEntry]) -> None:
        self.entries: Tuple[ProvEntry, ...] = tuple(entries)
        #: Log positions of the fences, ascending.
        self.fences: List[int] = [
            e.seq for e in self.entries if e.kind == "fence"
        ]
        #: (seq, status) -> re-tagged store, shared by every state.
        self._retagged: Dict[Tuple[int, str], ProvEntry] = {}

    @classmethod
    def from_log(cls, log: PMLog, end: Optional[int] = None) -> "LogTable":
        """Tabulate ``log.entries[:end]`` (the whole log by default)."""
        entries: List[ProvEntry] = []
        epoch = 0
        for seq, entry in enumerate(log.entries[:end]):
            if isinstance(entry, (NTStore, Flush)):
                data = entry.data
                entries.append(
                    ProvEntry(
                        seq=seq,
                        kind="store" if isinstance(entry, NTStore) else "flush",
                        status=DURABLE,
                        epoch=epoch,
                        func=entry.func,
                        addr=entry.addr,
                        length=entry.length,
                        syscall=entry.syscall,
                        payload=data[:PAYLOAD_CAP].hex(),
                        payload_truncated=len(data) > PAYLOAD_CAP,
                    )
                )
            elif isinstance(entry, Fence):
                entries.append(
                    ProvEntry(
                        seq=seq,
                        kind="fence",
                        status=FENCE,
                        epoch=epoch,
                        func=entry.func,
                        syscall=entry.syscall,
                    )
                )
                epoch += 1
            elif isinstance(entry, SyscallBegin):
                entries.append(
                    ProvEntry(
                        seq=seq,
                        kind="syscall_begin",
                        status=MARKER,
                        epoch=epoch,
                        syscall=entry.index,
                        label=f"{entry.name}({entry.args})",
                    )
                )
            elif isinstance(entry, SyscallEnd):
                entries.append(
                    ProvEntry(
                        seq=seq,
                        kind="syscall_end",
                        status=MARKER,
                        epoch=epoch,
                        syscall=entry.index,
                        label=entry.name,
                    )
                )
        return cls(entries)

    def tag(self, log_pos: int, replayed: Sequence[int]) -> Tuple[ProvEntry, ...]:
        """Every entry before ``log_pos``, tagged for one crash state.

        Stores before the crash region's opening fence stay ``durable``;
        stores inside the region are ``replayed`` when their position in
        the region's in-flight vector is in ``replayed``, else ``dropped``.
        """
        k = bisect_left(self.fences, log_pos)
        start = self.fences[k - 1] + 1 if k else 0
        persisted = set(replayed)
        region: List[ProvEntry] = []
        pos = 0
        for entry in self.entries[start:log_pos]:
            if entry.kind in _WRITE_KINDS:
                entry = self._retag(
                    entry, REPLAYED if pos in persisted else DROPPED
                )
                pos += 1
            region.append(entry)
        return self.entries[:start] + tuple(region)

    def _retag(self, entry: ProvEntry, status: str) -> ProvEntry:
        key = (entry.seq, status)
        hit = self._retagged.get(key)
        if hit is None:
            hit = self._retagged[key] = replace(entry, status=status)
        return hit

    def provenance(
        self, identity: Dict[str, object], context: Dict[str, object],
    ) -> CrashProvenance:
        """The provenance of one crash state of this table's workload.

        ``identity`` and ``context`` are :class:`CrashProvenance` keyword
        arguments.  The result remembers its table, so
        :class:`ProvenanceTables` can serialize it by reference.
        """
        prov = CrashProvenance(
            entries=self.tag(identity["log_pos"], identity["replayed_entries"]),
            **identity,
            **context,
        )
        object.__setattr__(prov, "_table", self)
        return prov


#: A decoded shared table: the lineage plus its context keyword arguments.
SharedTable = Tuple[LogTable, Dict[str, object]]


class ProvenanceTables:
    """Wire encoder: one lineage table and repro context per workload.

    Every report of a workload shares its log table and context, so a
    serialized :class:`~repro.core.harness.TestResult` stores them once
    (:meth:`to_list`) and each report's provenance dict keeps only the
    crash identity plus ``"table"``, an index into that list
    (:meth:`encode`).  Provenance built without a :class:`LogTable` — by
    hand, or decoded from an inline dict — keeps the inline
    :meth:`CrashProvenance.to_dict` form.
    """

    def __init__(self) -> None:
        #: [table, context dict, entries needed] per emitted row.
        self._rows: List[list] = []
        self._index: Dict[tuple, int] = {}

    def __bool__(self) -> bool:
        return bool(self._rows)

    def encode(self, prov: CrashProvenance) -> Dict[str, object]:
        table = getattr(prov, "_table", None)
        if table is None:
            return prov.to_dict()
        key = (id(table),) + tuple(getattr(prov, f) for f in _CONTEXT_FIELDS)
        index = self._index.get(key)
        if index is None:
            index = self._index[key] = len(self._rows)
            self._rows.append([table, prov.context_dict(), 0])
        row = self._rows[index]
        row[2] = max(row[2], prov.log_pos)
        return {"table": index, **prov.identity_dict()}

    def to_list(self) -> List[Dict[str, object]]:
        """The shared rows: each table's entries up to the furthest crash
        point that references it, with the context."""
        return [
            {
                "context": context,
                "entries": [e.to_dict() for e in table.entries[:end]],
            }
            for table, context, end in self._rows
        ]


def decode_tables(rows: Sequence[Dict[str, object]]) -> List[SharedTable]:
    """Rebuild :meth:`ProvenanceTables.to_list` output."""
    return [
        (
            LogTable(ProvEntry.from_dict(e) for e in row["entries"]),
            _context_kwargs(row["context"]),
        )
        for row in rows
    ]


def capture_provenance(
    log: PMLog,
    state,
    *,
    table: Optional[LogTable] = None,
    fs_name: str,
    workload: Sequence = (),
    setup: Sequence = (),
    bug_ids: Sequence[int] = (),
    cap: Optional[int] = 2,
    coalesce_threshold: int = 256,
    device_size: int = 256 * 1024,
    crash_points: str = "fence",
    usability_check: bool = True,
) -> CrashProvenance:
    """Tag every log entry up to the crash point of ``state``.

    Stores before the crash region's opening fence are ``durable``; stores
    inside the crash region are ``replayed`` or ``dropped`` according to the
    state's ``replayed_entries`` positions; fences and syscall markers keep
    their structural role.  ``table`` is ``log``'s :class:`LogTable` when
    the caller keeps one across states; without it only the prefix up to
    the crash point is tabulated.
    """
    if table is None:
        table = LogTable.from_log(log, end=state.log_pos)
    identity = {
        "fence_index": state.fence_index,
        "log_pos": state.log_pos,
        "mid_syscall": state.mid_syscall,
        "syscall": state.syscall,
        "syscall_name": state.syscall_name,
        "after_syscall": state.after_syscall,
        "state_kind": getattr(state, "kind", "subset"),
        "replayed_entries": tuple(sorted(state.replayed_entries)),
    }
    context = {
        "fs_name": fs_name,
        "workload": _ops_to_tuples(workload),
        "setup": _ops_to_tuples(setup),
        "bug_ids": tuple(sorted(bug_ids)),
        "cap": cap,
        "coalesce_threshold": coalesce_threshold,
        "device_size": device_size,
        "crash_points": crash_points,
        "usability_check": usability_check,
    }
    return table.provenance(identity, context)


class ProvenanceRecorder:
    """Per-workload provenance factory handed to the consistency checker.

    Tabulates the workload's log once, at the first capture, and tags each
    failing state's crash region against that table.  Memoizes by
    crash-point identity: a crash state producing several reports (e.g.
    unreadable + unusable) captures its lineage once.
    """

    def __init__(self, log: PMLog, **context) -> None:
        self.log = log
        self.context = context
        self._table: Optional[LogTable] = None
        self._cache: Dict[Tuple[int, Tuple[int, ...]], CrashProvenance] = {}

    def for_state(self, state) -> CrashProvenance:
        key = (state.log_pos, tuple(state.replayed_entries))
        hit = self._cache.get(key)
        if hit is None:
            if self._table is None:
                self._table = LogTable.from_log(self.log)
            hit = capture_provenance(
                self.log, state, table=self._table, **self.context
            )
            self._cache[key] = hit
        return hit
