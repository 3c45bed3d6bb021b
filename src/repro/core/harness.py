"""Chipmunk orchestration: record → replay → check (paper Figure 2).

:class:`Chipmunk` runs one workload against one file system: it formats a
device, attaches probes to the file system's persistence functions, executes
the workload while recording the write log, runs the oracle, enumerates
crash states, checks each, and triages the findings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Type, Union

from repro.core.checker import CheckerConfig, CheckMemo, ConsistencyChecker
from repro.core.oracle import run_oracle
from repro.core.probes import ProbeSet, probe_targets_of
from repro.core.replayer import (
    ReplayStats,
    enumerate_crash_states,
    inflight_histogram,
    persistence_breakdown,
    store_region_counts,
)
from repro.core.report import BugReport
from repro.core.triage import Cluster, layout_map_for, triage_reports
from repro.forensics.provenance import (
    ProvenanceRecorder,
    ProvenanceTables,
    decode_tables,
)
from repro.fs.bugs import BugConfig
from repro.fs.registry import fs_class as lookup_fs_class
from repro.memo.readset import ReadSetTable
from repro.memo.store import MemoTable
from repro.obs import NULL
from repro.obs import profile as _profile
from repro.pm.device import PMDevice
from repro.pm.log import PMLog
from repro.vfs.interface import FileSystem
from repro.workloads.ops import Op, Workload, describe_workload, execute_op


@dataclass
class ChipmunkConfig:
    """Knobs of one testing campaign."""

    device_size: int = 256 * 1024
    #: Maximum in-flight write units replayed per crash state (None = all;
    #: the paper finds 2 sufficient for every bug, section 5.1.2).
    cap: Optional[int] = 2
    #: NT stores at least this large coalesce as file-data writes.
    coalesce_threshold: int = 256
    usability_check: bool = True
    #: Stop checking a workload after this many reports (the triage layer
    #: dedups anyway; this bounds worst-case work on very buggy states).
    max_reports_per_workload: int = 64
    #: Override the crash-point strategy ("fence", "post", "fsync"); None
    #: picks "fence" for strong-guarantee systems and "fsync" otherwise.
    crash_points: Optional[str] = None
    #: Attach store-level lineage (:mod:`repro.forensics`) to every bug
    #: report.  Capture only runs for failing states, so the cost on clean
    #: workloads is a no-op.
    forensics: bool = True
    #: Content-addressed check memoization: key crash states by their
    #: O(overlay) delta digest instead of hashing the materialized image
    #: (:class:`repro.core.checker.CheckMemo`), keep clean verdicts across
    #: workloads, and (under ``fence`` crash points) replay verdicts by the
    #: crash bytes a check read.  ``False`` falls back to eager whole-image
    #: sha1 dedup within each workload: the same ``bugs.json`` on ACE
    #: workloads, but the report lists can differ — on fuzz programs even
    #: the cluster exemplars can (``perfbench/README.md``).
    memoize: bool = True
    #: Crash-plan selection: ``"subset"`` enumerates capped store subsets
    #: per fence epoch (the paper's strategy); ``"mech"`` recognizes the
    #: persistence mechanism behind each epoch (:mod:`repro.mech`) and
    #: emits a few targeted plans instead, falling back to subset
    #: enumeration for unrecognized epochs.
    crash_plans: str = "subset"
    #: Install the hot-path profiler (:mod:`repro.obs.profile`) for the
    #: duration of each workload: per-stage wall time, per-callsite
    #: attribution, and byte accounting land in :attr:`TestResult.profile`.
    #: Off by default — the disabled path costs one global read per
    #: instrumented site (the telemetry-overhead bench pins it).
    profile: bool = False
    #: Crash-image data plane (:mod:`repro.pm.backend`): ``"python"`` (the
    #: reference implementation), ``"numpy"`` (vectorized, zero-copy fence
    #: bases), or ``"auto"`` (numpy when importable).  Both backends
    #: produce byte-identical crash states, digests, and reports; an
    #: explicit ``"numpy"`` degrades gracefully to ``"python"`` on hosts
    #: without numpy.
    image_backend: str = "auto"

    def __post_init__(self) -> None:
        if self.crash_plans not in ("subset", "mech"):
            raise ValueError(
                f"unknown crash-plan mode {self.crash_plans!r} "
                f"(expected 'subset' or 'mech')"
            )
        from repro.pm.backend import BACKEND_CHOICES

        if self.image_backend not in BACKEND_CHOICES:
            raise ValueError(
                f"unknown image backend {self.image_backend!r} "
                f"(expected one of {BACKEND_CHOICES})"
            )


#: Pipeline stage keys of :attr:`TestResult.stage_times`, in execution order.
#: ``analyze`` is the post-check analytics pass (persistence breakdowns,
#: recovery-read overlap) feeding ``repro coverage``.
STAGES = ("record", "oracle", "enumerate", "check", "triage", "analyze")

#: Cache-line granularity of the recovery-read overlap estimate, matching
#: :func:`repro.core.recovery_reads.recovery_read_set`.
RECOVERY_LINE = 64


@dataclass
class TestResult:
    """Outcome of testing one workload."""

    workload_desc: str
    reports: List[BugReport]
    n_crash_states: int
    n_unique_states: int
    n_fences: int
    log_length: int
    inflight: Dict[str, List[int]]
    #: Total pipeline time; always the sum of :attr:`stage_times`.
    elapsed: float
    errnos: List[Optional[str]] = field(default_factory=list)
    #: Per-stage wall time (keys from :data:`STAGES`), sourced from the
    #: telemetry span layer.
    stage_times: Dict[str, float] = field(default_factory=dict)
    #: True when checking stopped early at ``max_reports_per_workload`` —
    #: a capped campaign is not a clean one.
    truncated: bool = False
    #: Check-memoization counters (``checker.memo.*``): states skipped
    #: because a byte-identical image was already checked / states checked.
    memo_hits: int = 0
    memo_misses: int = 0
    #: Memo hits answered by the read-set verdict table
    #: (``checker.memo.readset_hits``; also counted in :attr:`memo_hits`).
    memo_readset_hits: int = 0
    #: Memo-miss attribution: reason -> count (``checker.memo.miss.*``).
    #: Values sum exactly to :attr:`memo_misses`.
    memo_miss_reasons: Dict[str, int] = field(default_factory=dict)
    #: Top colliding content keys: ``[content_key_hex, n_shapes]`` pairs —
    #: byte-identical contents checked under multiple overlay shapes.
    memo_collisions: List[List[object]] = field(default_factory=list)
    #: Overlay writes dropped as no-ops before digesting
    #: (``checker.memo.noop_writes_dropped``).
    memo_noop_dropped: int = 0
    #: Clean entries this workload's publishes LRU-evicted from the memo
    #: table (``checker.memo.evictions``).
    memo_evictions: int = 0
    #: Distinct recovered observable outcomes among the checked states —
    #: the numerator of the output-equivalence pruning headroom.
    n_unique_outcomes: int = 0
    #: Persistence-function mix: func -> {stores, flushes, fences, bytes}.
    persistence: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Write traffic per layout region: region -> {writes, bytes}.
    store_regions: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Recovery-read overlap on the final persistent image
    #: ({read_lines, store_lines, overlap_lines}, 64-byte cache lines).
    recovery_overlap: Dict[str, int] = field(default_factory=dict)
    #: Crash-plan mode the workload ran under ("subset" | "mech").
    crash_plans: str = "subset"
    #: Mechanism recognition (``mech.recognized.{kind}``): fence epochs per
    #: recognized mechanism kind.  Empty outside mech mode.
    mech_recognized: Dict[str, int] = field(default_factory=dict)
    #: Targeted crash states emitted from mechanism plans
    #: (``mech.plans.emitted``).
    mech_plans_emitted: int = 0
    #: Epochs that fell back to full subset enumeration
    #: (``mech.fallback_epochs``).
    mech_fallback_epochs: int = 0
    #: Hot-path profile (:meth:`repro.obs.profile.Profiler.to_dict`):
    #: per-stage seconds, per-callsite attribution, byte accounting.
    #: Empty unless the workload ran with ``ChipmunkConfig.profile``.
    profile: Dict[str, object] = field(default_factory=dict)
    #: Crash-image backend the workload actually ran under ("python" |
    #: "numpy") — the resolved value, not the configured one.
    image_backend: str = "python"
    #: Backing store of :attr:`clusters`; ``None`` until first read.
    _clusters: Optional[List[Cluster]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def clusters(self) -> List[Cluster]:
        """Triage clusters of :attr:`reports`.  The harness sets them from
        its triage stage; a result rebuilt by :meth:`from_dict` triages on
        first read, since campaign merges re-cluster across workloads and
        never read per-result clusters."""
        if self._clusters is None:
            self._clusters = triage_reports(self.reports)
        return self._clusters

    @clusters.setter
    def clusters(self, value: List[Cluster]) -> None:
        self._clusters = value

    @property
    def buggy(self) -> bool:
        return bool(self.reports)

    def summary(self) -> str:
        head = (
            f"workload [{self.workload_desc}]: {len(self.reports)} report(s) in "
            f"{len(self.clusters)} cluster(s), {self.n_unique_states} unique of "
            f"{self.n_crash_states} crash states, {self.n_fences} fences, "
            f"{self.elapsed * 1000:.1f} ms"
        )
        if self.truncated:
            head += " [TRUNCATED at report cap]"
        if self.stage_times:
            head += "\n  stages: " + "  ".join(
                f"{stage} {self.stage_times[stage] * 1000:.1f}ms"
                for stage in STAGES
                if stage in self.stage_times
            )
        if not self.clusters:
            return head
        return head + "\n" + "\n".join(
            "  - " + c.exemplar.consequence.value + ": " + c.exemplar.detail[:120]
            for c in self.clusters
        )

    # ------------------------------------------------------------------
    # JSON round-trip.  Campaign workers return results to the parent as
    # dicts, and the checkpoint journal persists them across kills; the
    # merge stage rebuilds real ``TestResult`` objects so every existing
    # aggregator (``CampaignSummary``, ``CampaignStats``) works unchanged.
    # Every report of the workload shares one provenance lineage table and
    # repro context: ``provenance_tables`` stores them once and each
    # report's provenance keeps its crash identity plus a table index
    # (:class:`~repro.forensics.provenance.ProvenanceTables`).  Reports
    # with inline provenance (results written before the tables existed)
    # load too.  Clusters are not serialized — they are a pure function of
    # the reports, re-derived on first read of :attr:`clusters`.
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        tables = ProvenanceTables()
        out = {
            "workload_desc": self.workload_desc,
            "reports": [r.to_dict(tables) for r in self.reports],
            "n_crash_states": self.n_crash_states,
            "n_unique_states": self.n_unique_states,
            "n_fences": self.n_fences,
            "log_length": self.log_length,
            "inflight": {k: list(v) for k, v in self.inflight.items()},
            "elapsed": self.elapsed,
            "errnos": list(self.errnos),
            "stage_times": dict(self.stage_times),
            "truncated": self.truncated,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_readset_hits": self.memo_readset_hits,
            "memo_miss_reasons": dict(self.memo_miss_reasons),
            "memo_collisions": [list(c) for c in self.memo_collisions],
            "memo_noop_dropped": self.memo_noop_dropped,
            "memo_evictions": self.memo_evictions,
            "n_unique_outcomes": self.n_unique_outcomes,
            "persistence": {k: dict(v) for k, v in self.persistence.items()},
            "store_regions": {k: dict(v) for k, v in self.store_regions.items()},
            "recovery_overlap": dict(self.recovery_overlap),
            "crash_plans": self.crash_plans,
            "mech_recognized": dict(self.mech_recognized),
            "mech_plans_emitted": self.mech_plans_emitted,
            "mech_fallback_epochs": self.mech_fallback_epochs,
            "profile": dict(self.profile),
            "image_backend": self.image_backend,
        }
        if tables:
            out["provenance_tables"] = tables.to_list()
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TestResult":
        tables = decode_tables(data.get("provenance_tables", ()))
        return cls(
            workload_desc=str(data["workload_desc"]),
            reports=[
                BugReport.from_dict(r, tables) for r in data.get("reports", [])
            ],
            n_crash_states=int(data.get("n_crash_states", 0)),
            n_unique_states=int(data.get("n_unique_states", 0)),
            n_fences=int(data.get("n_fences", 0)),
            log_length=int(data.get("log_length", 0)),
            inflight={
                str(k): [int(c) for c in v]
                for k, v in dict(data.get("inflight", {})).items()
            },
            elapsed=float(data.get("elapsed", 0.0)),
            errnos=list(data.get("errnos", [])),
            stage_times={
                str(k): float(v)
                for k, v in dict(data.get("stage_times", {})).items()
            },
            truncated=bool(data.get("truncated", False)),
            memo_hits=int(data.get("memo_hits", 0)),
            memo_misses=int(data.get("memo_misses", 0)),
            memo_readset_hits=int(data.get("memo_readset_hits", 0)),
            memo_miss_reasons={
                str(k): int(v)
                for k, v in dict(data.get("memo_miss_reasons", {})).items()
            },
            memo_collisions=[
                [str(c[0]), int(c[1])]
                for c in list(data.get("memo_collisions", []))
            ],
            memo_noop_dropped=int(data.get("memo_noop_dropped", 0)),
            memo_evictions=int(data.get("memo_evictions", 0)),
            n_unique_outcomes=int(data.get("n_unique_outcomes", 0)),
            persistence={
                str(k): {str(kk): int(vv) for kk, vv in dict(v).items()}
                for k, v in dict(data.get("persistence", {})).items()
            },
            store_regions={
                str(k): {str(kk): int(vv) for kk, vv in dict(v).items()}
                for k, v in dict(data.get("store_regions", {})).items()
            },
            recovery_overlap={
                str(k): int(v)
                for k, v in dict(data.get("recovery_overlap", {})).items()
            },
            crash_plans=str(data.get("crash_plans", "subset")),
            mech_recognized={
                str(k): int(v)
                for k, v in dict(data.get("mech_recognized", {})).items()
            },
            mech_plans_emitted=int(data.get("mech_plans_emitted", 0)),
            mech_fallback_epochs=int(data.get("mech_fallback_epochs", 0)),
            profile=dict(data.get("profile", {})),
            image_backend=str(data.get("image_backend", "python")),
        )


class Chipmunk:
    """Crash-consistency tester for one file system configuration."""

    def __init__(
        self,
        fs: Union[str, Type[FileSystem]],
        bugs: Optional[BugConfig] = None,
        config: Optional[ChipmunkConfig] = None,
        telemetry=None,
    ) -> None:
        self.fs_class = lookup_fs_class(fs) if isinstance(fs, str) else fs
        self.bugs = bugs if bugs is not None else BugConfig.buggy(self.fs_class.name)
        self.config = config or ChipmunkConfig()
        #: Telemetry sink (:class:`repro.obs.Telemetry`); defaults to the
        #: null object, which keeps the pipeline uninstrumented.
        self.telemetry = telemetry if telemetry is not None else NULL
        #: Clean check verdicts, kept for this instance's lifetime: every
        #: memoized workload's :class:`CheckMemo` skips states an earlier
        #: workload already checked clean under the same expectations.
        self.memo_table = MemoTable()
        #: Verdicts by the crash bytes a check read, for the same lifetime
        #: (memoized ``fence`` crash-point workloads only).
        self.readset_table = ReadSetTable()

    # ------------------------------------------------------------------
    def record(self, workload: Workload, setup: Workload = (), coverage=None) -> tuple:
        """Run the workload with probes attached; return (base, log, errnos).

        ``setup`` operations run before recording starts (the ACE dependency
        phase — crash states are only explored for the core workload, as in
        CrashMonkey/ACE).  ``coverage`` optionally attaches a
        :class:`~repro.workloads.coverage.CoverageMap` to the instance.
        """
        tel = self.telemetry
        device = PMDevice(
            self.config.device_size,
            telemetry=tel if tel.enabled else None,
        )
        fs = self.fs_class.mkfs(device, bugs=self.bugs)
        for op in setup:
            execute_op(fs, op)
        if coverage is not None:
            fs.coverage = coverage
        base = device.snapshot()
        log = PMLog()
        probes = ProbeSet(log)
        probes.attach(probe_targets_of(fs))
        errnos: List[Optional[str]] = []
        try:
            if tel.enabled:
                for index, op in enumerate(workload):
                    log.syscall_begin(index, op.name, ", ".join(map(repr, op.args)))
                    with tel.span("syscall", index=index, op=op.name):
                        errnos.append(execute_op(fs, op))
                    log.syscall_end()
            else:
                for index, op in enumerate(workload):
                    log.syscall_begin(index, op.name, ", ".join(map(repr, op.args)))
                    errnos.append(execute_op(fs, op))
                    log.syscall_end()
        finally:
            probes.detach()
        return base, log, errnos

    def test_workload(
        self, workload: Workload, setup: Workload = (), coverage=None
    ) -> TestResult:
        """Full pipeline for one workload.

        Every stage runs under a telemetry span (``record``, ``oracle``,
        ``enumerate``, ``check``, ``triage``); :attr:`TestResult.stage_times`
        is sourced from the span durations, and ``elapsed`` is their sum.
        Enumeration and checking interleave (crash states are generated
        lazily), so their stages are timed at crash-state boundaries — each
        ``next()`` on the generator is enumeration, everything after it is
        checking.

        With ``config.profile`` a hot-path profiler
        (:mod:`repro.obs.profile`) is installed for the pipeline's duration;
        its stage clock transitions at the same boundaries as the spans, so
        the profile's per-stage seconds reconcile with ``stage_times``.
        """
        if not self.config.profile:
            return self._run_pipeline(workload, setup, coverage, None)
        profiler = _profile.Profiler()
        with _profile.install(profiler):
            return self._run_pipeline(workload, setup, coverage, profiler)

    def _run_pipeline(
        self, workload: Workload, setup: Workload, coverage, profiler
    ) -> TestResult:
        tel = self.telemetry
        workload = list(workload)
        desc = describe_workload(workload)
        stage_times: Dict[str, float] = {}
        if profiler is not None:
            profiler.set_stage("record")
        with tel.span("record", workload=desc) as sp:
            base, log, errnos = self.record(workload, setup=setup, coverage=coverage)
        stage_times["record"] = sp.duration
        if profiler is not None:
            profiler.set_stage("oracle")
        with tel.span("oracle") as sp:
            oracle = run_oracle(
                self.fs_class, workload, self.config.device_size, bugs=self.bugs,
                setup=setup,
            )
        stage_times["oracle"] = sp.duration
        if profiler is not None:
            # Pipeline setup (checker, planner, forensics recorder) sits
            # outside every stage span; keep it out of the stage clock too
            # so profile stages reconcile with ``stage_times``.
            profiler.set_stage("other")
        if errnos != oracle.errnos:
            raise RuntimeError(
                f"probed run and oracle disagree on syscall results: "
                f"{errnos} vs {oracle.errnos} for [{desc}]"
            )
        crash_points = self.config.crash_points or (
            "fence" if self.fs_class.strong_guarantees else "fsync"
        )
        recorder = None
        if self.config.forensics:
            recorder = ProvenanceRecorder(
                log,
                fs_name=self.fs_class.name,
                workload=workload,
                setup=list(setup),
                bug_ids=sorted(self.bugs.enabled),
                cap=self.config.cap,
                coalesce_threshold=self.config.coalesce_threshold,
                device_size=self.config.device_size,
                crash_points=crash_points,
                usability_check=self.config.usability_check,
            )
        checker = ConsistencyChecker(
            self.fs_class,
            oracle,
            desc,
            bugs=self.bugs,
            config=CheckerConfig(usability_check=self.config.usability_check),
            telemetry=tel,
            provenance=recorder,
        )
        stats = ReplayStats()
        # The memo is the single entry point for checking: dedup (by delta
        # digest or eager sha1, per ``config.memoize``), the ``check_state``
        # telemetry span, and the checker call all live behind it.  The
        # memo-off reference keeps a per-workload table, independent of
        # cross-workload reuse.  The read-set tier only pays under fence
        # crash points: fsync points give few states whose reads repeat.
        memo = CheckMemo(
            checker,
            telemetry=tel,
            delta=self.config.memoize,
            table=self.memo_table if self.config.memoize else None,
            readsets=(
                self.readset_table
                if self.config.memoize and crash_points == "fence"
                else None
            ),
        )
        planner = None
        if self.config.crash_plans == "mech" and crash_points == "fence":
            # Mechanism recognition only prunes fence-epoch subsets; the
            # post/fsync strategies never enumerate them, so the classifier
            # pass would be pure overhead there.
            from repro.mech.plans import MechPlanner

            planner = MechPlanner(
                self.fs_class,
                log,
                self.config.device_size,
                base_image=base,
                bugs=self.bugs,
                cap=self.config.cap,
                coalesce_threshold=self.config.coalesce_threshold,
                telemetry=tel,
            )
        reports: List[BugReport] = []
        n_states = 0
        truncated = False
        enum_time = 0.0
        check_time = 0.0
        from repro.pm.backend import resolve_backend

        image_backend = resolve_backend(self.config.image_backend)
        states = enumerate_crash_states(
            base,
            log,
            cap=self.config.cap,
            coalesce_threshold=self.config.coalesce_threshold,
            crash_points=crash_points,
            stats=stats,
            telemetry=tel,
            planner=planner,
            image_backend=image_backend,
        )
        if profiler is not None:
            profiler.set_stage("enumerate")
        t_prev = time.perf_counter()
        while True:
            state = next(states, None)
            t_state = time.perf_counter()
            enum_time += t_state - t_prev
            if state is None:
                break
            if profiler is not None:
                profiler.set_stage("check")
            n_states += 1
            found = memo.check(state)
            if found is None:
                # Memo hit: a byte-identical state was already judged.
                if tel.enabled:
                    tel.count("harness.dedup_hits")
                t_prev = time.perf_counter()
                check_time += t_prev - t_state
                if profiler is not None:
                    profiler.set_stage("enumerate")
                continue
            reports.extend(found)
            t_prev = time.perf_counter()
            check_time += t_prev - t_state
            if profiler is not None:
                profiler.set_stage("enumerate")
            if len(reports) >= self.config.max_reports_per_workload:
                truncated = True
                break
        stage_times["enumerate"] = enum_time
        stage_times["check"] = check_time
        if profiler is not None:
            profiler.set_stage("triage")
        with tel.span("triage") as sp:
            clusters = triage_reports(reports)
        stage_times["triage"] = sp.duration
        if profiler is not None:
            profiler.set_stage("analyze")
        with tel.span("analyze") as sp:
            persistence = persistence_breakdown(log)
            try:
                layout = layout_map_for(
                    self.fs_class.name, self.config.device_size
                )
                store_regions = store_region_counts(log, layout)
            except Exception:  # noqa: BLE001 — analytics never sink a run
                store_regions = {}
            recovery_overlap = self._recovery_overlap(base, log)
        stage_times["analyze"] = sp.duration
        if profiler is not None:
            profiler.stop()
            prof_dict = profiler.to_dict()
            if tel.enabled:
                for cat, n in profiler.bytes.items():
                    if n:
                        tel.count("profile.bytes." + cat, n)
        else:
            prof_dict = {}
        result = TestResult(
            workload_desc=desc,
            reports=reports,
            n_crash_states=n_states,
            n_unique_states=memo.unique,
            n_fences=stats.n_fences,
            log_length=len(log),
            inflight=inflight_histogram(log, self.config.coalesce_threshold),
            elapsed=sum(stage_times.values()),
            errnos=errnos,
            stage_times=stage_times,
            truncated=truncated,
            memo_hits=memo.hits,
            memo_misses=memo.misses,
            memo_readset_hits=memo.readset_hits,
            memo_miss_reasons=dict(memo.attribution.reasons),
            memo_collisions=[
                [key, count] for key, count in memo.attribution.top_collisions()
            ],
            memo_noop_dropped=memo.noop_writes_dropped,
            memo_evictions=memo.evictions,
            n_unique_outcomes=len(checker.outcome_digests),
            persistence=persistence,
            store_regions=store_regions,
            recovery_overlap=recovery_overlap,
            crash_plans=self.config.crash_plans,
            mech_recognized=dict(planner.recognized) if planner else {},
            mech_plans_emitted=planner.plans_emitted if planner else 0,
            mech_fallback_epochs=planner.fallback_epochs if planner else 0,
            profile=prof_dict,
            image_backend=image_backend,
        )
        result.clusters = clusters
        if tel.enabled:
            self._emit_result(tel, result)
        return result

    def _recovery_overlap(self, base: bytes, log: PMLog) -> Dict[str, int]:
        """Recovery-read overlap with the workload's write set.

        Mounts the final persistent image on an overlay-aware read-tracking
        device (:func:`repro.core.recovery_reads.recovery_read_set` with
        ``writes=``) and intersects the cache lines recovery reads with the
        lines the workload stored.  The fence base is shared by reference
        and only the chunks recovery touches are materialized, so this
        analyze stage costs O(log delta + bytes read), never a device copy.
        A large never-read remainder is the Vinter-heuristic redundancy the
        coverage report surfaces: in-flight writes recovery does not even
        look at rarely change a verdict.
        """
        from repro.core.recovery_reads import recovery_read_set

        store_lines: set = set()
        overlay = []
        for entry in log.writes():
            data = entry.data
            overlay.append((entry.addr, data))
            first = entry.addr // RECOVERY_LINE
            last = (entry.addr + max(len(data), 1) - 1) // RECOVERY_LINE
            store_lines.update(range(first, last + 1))
        read_lines = recovery_read_set(
            self.fs_class, base, bugs=self.bugs,
            granularity=RECOVERY_LINE, writes=overlay,
        )
        return {
            "read_lines": len(read_lines),
            "store_lines": len(store_lines),
            "overlap_lines": len(read_lines & store_lines),
        }

    def _emit_result(self, tel, result: TestResult) -> None:
        """Counters plus the ``workload_result`` trace event that
        :meth:`repro.obs.campaign.CampaignStats.from_trace` folds back."""
        tel.count("harness.workloads")
        tel.count("harness.crash_states", result.n_crash_states)
        tel.count("harness.unique_states", result.n_unique_states)
        tel.count("harness.reports", len(result.reports))
        if result.truncated:
            tel.count("harness.truncated_workloads")
        outcomes: Dict[str, int] = {}
        for report in result.reports:
            name = report.consequence.name
            outcomes[name] = outcomes.get(name, 0) + 1
        tel.event(
            "workload_result",
            fs=self.fs_class.name,
            desc=result.workload_desc,
            elapsed=result.elapsed,
            stages=result.stage_times,
            n_crash_states=result.n_crash_states,
            n_unique_states=result.n_unique_states,
            n_fences=result.n_fences,
            n_reports=len(result.reports),
            n_clusters=len(result.clusters),
            truncated=result.truncated,
            memo_hits=result.memo_hits,
            memo_misses=result.memo_misses,
            memo_readset_hits=result.memo_readset_hits,
            memo_miss_reasons=result.memo_miss_reasons,
            memo_collisions=result.memo_collisions,
            memo_noop_dropped=result.memo_noop_dropped,
            memo_evictions=result.memo_evictions,
            n_unique_outcomes=result.n_unique_outcomes,
            persistence=result.persistence,
            store_regions=result.store_regions,
            recovery_overlap=result.recovery_overlap,
            crash_plans=result.crash_plans,
            mech_recognized=result.mech_recognized,
            mech_plans_emitted=result.mech_plans_emitted,
            mech_fallback_epochs=result.mech_fallback_epochs,
            profile=result.profile,
            image_backend=result.image_backend,
            outcomes=outcomes,
            inflight=result.inflight,
        )

    # ------------------------------------------------------------------
    def test_many(self, workloads: List[Workload], stop_after: Optional[int] = None):
        """Test a batch of workloads, yielding (workload, TestResult).

        ``stop_after`` stops the campaign once that many buggy workloads
        have been seen (useful for time-to-first-bug measurements).
        """
        buggy = 0
        for workload in workloads:
            result = self.test_workload(workload)
            yield workload, result
            if result.buggy:
                buggy += 1
                if stop_after is not None and buggy >= stop_after:
                    return
