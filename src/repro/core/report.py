"""Bug reports.

A report carries enough detail to reproduce the inconsistency: the workload,
the crash point (fence index and replayed subset), the consequence class,
and a diff against the legal states — the paper's "bug report with enough
detail to reproduce the bug" (Figure 1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.forensics.provenance import (
    CrashProvenance,
    ProvenanceTables,
    SharedTable,
)


class Consequence(enum.Enum):
    """Classification of what the crash state violated."""

    UNMOUNTABLE = "file system unmountable"
    ATOMICITY = "operation is not atomic"
    SYNCHRONY = "operation is not synchronous"
    UNREADABLE = "file or directory is unreadable"
    DATA_LOSS = "file data lost"
    USABILITY = "file system unusable (create/delete fails)"
    STATE_MISMATCH = "unexpected post-crash state"


@dataclass(frozen=True)
class BugReport:
    """One checker finding on one crash state."""

    fs_name: str
    consequence: Consequence
    workload_desc: str
    crash_desc: str
    detail: str
    syscall: Optional[int] = None
    syscall_name: Optional[str] = None
    mid_syscall: bool = False
    n_replayed: int = 0
    paths: Tuple[str, ...] = ()
    #: Store-level lineage and repro context (:mod:`repro.forensics`);
    #: ``None`` when forensics capture is disabled.  Excluded from
    #: :meth:`signature` so triage clustering is unaffected.
    provenance: Optional[CrashProvenance] = None

    def signature(self) -> str:
        """Lexical signature used by the triage clustering."""
        return " ".join(
            [
                self.fs_name,
                self.consequence.value,
                self.syscall_name or "none",
                "mid" if self.mid_syscall else "post",
                self.detail,
            ]
        )

    def render(self) -> str:
        lines = [
            f"BUG [{self.fs_name}] {self.consequence.value}",
            f"  workload: {self.workload_desc}",
            f"  crash:    {self.crash_desc}",
            f"  detail:   {self.detail}",
        ]
        if self.paths:
            lines.append(f"  paths:    {', '.join(self.paths)}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # JSON round-trip — campaign workers ship reports across process
    # boundaries and the checkpoint journal persists them between runs.
    # Standalone, the provenance is inline; inside a serialized test
    # result, ``tables`` hoists the workload's shared lineage out of it.
    # ------------------------------------------------------------------
    def to_dict(
        self, tables: Optional[ProvenanceTables] = None
    ) -> Dict[str, object]:
        prov = self.provenance
        return {
            "fs_name": self.fs_name,
            "consequence": self.consequence.name,
            "workload_desc": self.workload_desc,
            "crash_desc": self.crash_desc,
            "detail": self.detail,
            "syscall": self.syscall,
            "syscall_name": self.syscall_name,
            "mid_syscall": self.mid_syscall,
            "n_replayed": self.n_replayed,
            "paths": list(self.paths),
            "provenance": (
                None if prov is None
                else prov.to_dict() if tables is None
                else tables.encode(prov)
            ),
        }

    @classmethod
    def from_dict(
        cls, data: Dict[str, object], tables: Sequence[SharedTable] = (),
    ) -> "BugReport":
        return cls(
            fs_name=str(data["fs_name"]),
            consequence=Consequence[str(data["consequence"])],
            workload_desc=str(data["workload_desc"]),
            crash_desc=str(data["crash_desc"]),
            detail=str(data["detail"]),
            syscall=data.get("syscall"),
            syscall_name=data.get("syscall_name"),
            mid_syscall=bool(data.get("mid_syscall", False)),
            n_replayed=int(data.get("n_replayed", 0)),
            paths=tuple(data.get("paths", ())),
            provenance=(
                CrashProvenance.from_dict(data["provenance"], tables)
                if data.get("provenance") is not None
                else None
            ),
        )


@dataclass
class DiffEntry:
    """One path-level difference between a crash state and an oracle state."""

    path: str
    kind: str  # "missing", "extra", "differs"
    detail: str

    def describe(self) -> str:
        return f"{self.path}: {self.kind} ({self.detail})"


def diff_trees(crash, oracle) -> List[DiffEntry]:
    """Path-level differences between two tree observations."""
    out: List[DiffEntry] = []
    for path in sorted(set(crash) | set(oracle)):
        in_crash, in_oracle = path in crash, path in oracle
        if in_crash and not in_oracle:
            out.append(DiffEntry(path, "extra", crash[path].describe()))
        elif in_oracle and not in_crash:
            out.append(DiffEntry(path, "missing", oracle[path].describe()))
        elif crash[path] != oracle[path]:
            out.append(
                DiffEntry(
                    path,
                    "differs",
                    f"crash={crash[path].describe()} expected={oracle[path].describe()}",
                )
            )
    return out
