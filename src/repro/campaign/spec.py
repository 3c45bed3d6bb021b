"""Campaign specification: everything a worker needs to rebuild its world.

A campaign crosses process boundaries twice — parent → worker at dispatch
and disk → parent at ``--resume`` — so the full configuration must round-
trip through plain JSON.  :class:`CampaignSpec` is that closure: file
system, bug configuration, harness knobs, generator parameters.  Workers
receive the dict form and call :meth:`CampaignSpec.build_chipmunk`;
``--resume`` compares the journal's stored spec against the requested one
and refuses to mix campaigns.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from repro.core.harness import Chipmunk, ChipmunkConfig
from repro.fs.bugs import BugConfig
from repro.fs.registry import FS_CLASSES


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign's full, JSON-serializable configuration."""

    fs: str
    generator: str = "ace"  # "ace" | "fuzz"
    #: ``None`` means "all of the FS's catalogue bugs" (the CLI default);
    #: an explicit list pins the configuration, ``[]`` means fully fixed.
    bug_ids: Optional[List[int]] = None
    cap: Optional[int] = 2
    #: ACE parameters.
    seq: int = 1
    max_workloads: int = 0  # 0 = the whole sequence space
    #: Fuzzer parameters: the seed space [seed, seed + segments) is split
    #: into one work item per segment, each running ``executions`` programs.
    seed: int = 0
    segments: int = 4
    executions: int = 25
    #: Write per-worker telemetry traces into the campaign directory.
    trace: bool = False
    #: Content-addressed check memoization (``ChipmunkConfig.memoize``);
    #: part of the spec so a resumed campaign keeps the original setting.
    memoize: bool = True
    #: Crash-plan selection (``ChipmunkConfig.crash_plans``): ``"subset"``
    #: or ``"mech"``; in the spec so resumed campaigns and every worker
    #: explore the same state space.
    crash_plans: str = "subset"
    #: Hot-path profiler (``ChipmunkConfig.profile``): per-stage/per-site
    #: time and byte attribution recorded into each ``TestResult``.
    profile: bool = False
    #: Crash-image backend (``ChipmunkConfig.image_backend``): ``"auto"``
    #: picks numpy when importable; ``"python"``/``"numpy"`` pin one.  In
    #: the spec so every worker replays states on the same backend.
    image_backend: str = "auto"

    def __post_init__(self) -> None:
        if self.fs not in FS_CLASSES():
            raise ValueError(f"unknown file system {self.fs!r}")
        if self.generator not in ("ace", "fuzz"):
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.generator == "ace" and self.seq not in (1, 2, 3):
            raise ValueError(f"seq must be 1, 2, or 3 (got {self.seq})")
        if self.crash_plans not in ("subset", "mech"):
            raise ValueError(f"unknown crash-plan mode {self.crash_plans!r}")
        from repro.pm.backend import BACKEND_CHOICES

        if self.image_backend not in BACKEND_CHOICES:
            raise ValueError(f"unknown image backend {self.image_backend!r}")

    @property
    def mode(self) -> str:
        """ACE mode for this file system (paper section 3.4.1)."""
        return "pm" if FS_CLASSES()[self.fs].strong_guarantees else "fsync"

    def bug_config(self) -> BugConfig:
        if self.bug_ids is None:
            return BugConfig.buggy(self.fs)
        if not self.bug_ids:
            return BugConfig.fixed()
        return BugConfig.only(*self.bug_ids)

    def build_chipmunk(self, telemetry=None) -> Chipmunk:
        return Chipmunk(
            self.fs,
            bugs=self.bug_config(),
            config=ChipmunkConfig(
                cap=self.cap,
                memoize=self.memoize,
                crash_plans=self.crash_plans,
                profile=self.profile,
                image_backend=self.image_backend,
            ),
            telemetry=telemetry,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignSpec":
        # Unknown keys are dropped, so a journal written before a knob was
        # retired still resumes.
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})
