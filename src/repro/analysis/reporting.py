"""Campaign reporting: render triaged findings as a markdown document.

The paper's Figure 1 ends in "bug reports with enough detail to reproduce
the bug"; this module is the last-mile formatting — a campaign summary a
developer can file upstream, with one section per triaged cluster including
the workload, the crash point, and the divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.harness import TestResult
from repro.core.triage import Cluster, Triage


@dataclass
class CampaignSummary:
    """Aggregated outcome of a testing campaign."""

    fs_name: str
    generator: str
    workloads_tested: int = 0
    crash_states: int = 0
    unique_states: int = 0
    wall_time: float = 0.0
    truncated_workloads: int = 0
    #: Check-memoization counters (``checker.memo.*``) summed over workloads.
    memo_hits: int = 0
    memo_misses: int = 0
    #: Hits the read-set verdict table answered (also in ``memo_hits``).
    memo_readset_hits: int = 0
    memo_noop_dropped: int = 0
    #: Clean-entry LRU evictions from the memo tables.
    memo_evictions: int = 0
    #: ``checker.memo.miss.{reason}`` attribution, summed over workloads.
    memo_miss_reasons: Dict[str, int] = field(default_factory=dict)
    #: Distinct recovered-outcome digests summed over workloads — the
    #: WITCHER output-equivalence pruning headroom denominator.
    unique_outcomes: int = 0
    #: Mechanism-aware crash planning (``mech.*``): epochs per recognized
    #: kind, targeted states emitted, and subset-fallback epochs.
    crash_plans: str = "?"
    mech_recognized: Dict[str, int] = field(default_factory=dict)
    mech_plans_emitted: int = 0
    mech_fallback_epochs: int = 0
    #: Provenance-guided triage by default: reports carrying a culprit site
    #: set cluster by (fs, consequence, sites) — one bug seen through
    #: different syscalls merges — and the rest fall back to the lexical
    #: procedure.  Campaigns run with forensics disabled therefore behave
    #: exactly as before.
    triage: Triage = field(default_factory=lambda: Triage(provenance=True))
    #: workload index at which each cluster was first seen
    first_seen: Dict[int, int] = field(default_factory=dict)
    #: per-stage wall time summed over workloads (telemetry satellite data)
    stage_totals: Dict[str, float] = field(default_factory=dict)

    def add_result(self, result: TestResult) -> None:
        self.workloads_tested += 1
        self.crash_states += result.n_crash_states
        self.unique_states += result.n_unique_states
        self.wall_time += result.elapsed
        self.memo_hits += getattr(result, "memo_hits", 0)
        self.memo_misses += getattr(result, "memo_misses", 0)
        self.memo_readset_hits += getattr(result, "memo_readset_hits", 0)
        self.memo_noop_dropped += getattr(result, "memo_noop_dropped", 0)
        self.memo_evictions += getattr(result, "memo_evictions", 0)
        for reason, n in getattr(result, "memo_miss_reasons", {}).items():
            self.memo_miss_reasons[reason] = (
                self.memo_miss_reasons.get(reason, 0) + n
            )
        self.unique_outcomes += getattr(result, "n_unique_outcomes", 0)
        mode = getattr(result, "crash_plans", "subset")
        self.crash_plans = mode if self.crash_plans in ("?", mode) else "mixed"
        for kind, n in getattr(result, "mech_recognized", {}).items():
            self.mech_recognized[kind] = self.mech_recognized.get(kind, 0) + n
        self.mech_plans_emitted += getattr(result, "mech_plans_emitted", 0)
        self.mech_fallback_epochs += getattr(result, "mech_fallback_epochs", 0)
        if getattr(result, "truncated", False):
            self.truncated_workloads += 1
        for stage, dt in getattr(result, "stage_times", {}).items():
            self.stage_totals[stage] = self.stage_totals.get(stage, 0.0) + dt
        new = self.triage.add_new(result.reports)
        base = len(self.triage.clusters) - len(new)
        for offset in range(len(new)):
            self.first_seen[base + offset] = self.workloads_tested

    @property
    def clusters(self) -> List[Cluster]:
        return self.triage.clusters


def run_campaign(chipmunk, workloads, generator: str = "ace") -> CampaignSummary:
    """Run a batch of workloads and aggregate a :class:`CampaignSummary`.

    ``workloads`` may yield plain op lists or ACE workloads (with ``setup``
    and ``core`` attributes).
    """
    summary = CampaignSummary(fs_name=chipmunk.fs_class.name, generator=generator)
    for workload in workloads:
        setup = getattr(workload, "setup", ())
        core = getattr(workload, "core", workload)
        summary.add_result(chipmunk.test_workload(core, setup=setup))
    return summary


def _telemetry_section(summary: CampaignSummary) -> List[str]:
    """Markdown telemetry block: per-stage timings, throughput, dedup rate."""
    if not summary.stage_totals:
        return []
    lines: List[str] = ["## Telemetry", ""]
    if summary.wall_time > 0:
        lines.append(
            f"- **throughput:** {summary.crash_states / summary.wall_time:.1f} "
            f"crash states/sec"
        )
    if summary.crash_states:
        rate = 1.0 - summary.unique_states / summary.crash_states
        lines.append(f"- **dedup hit-rate:** {rate * 100:.1f}%")
    memo_total = summary.memo_hits + summary.memo_misses
    if memo_total:
        noop = (
            f"; {summary.memo_noop_dropped} no-op write(s) dropped"
            if summary.memo_noop_dropped else ""
        )
        evict = (
            f"; {summary.memo_evictions} clean eviction(s)"
            if summary.memo_evictions else ""
        )
        readset = (
            f", {summary.memo_readset_hits} by read set"
            if summary.memo_readset_hits else ""
        )
        lines.append(
            f"- **check memo hit-rate:** "
            f"{summary.memo_hits / memo_total * 100:.1f}% "
            f"({summary.memo_hits} hit(s){readset}, "
            f"{summary.memo_misses} miss(es); "
            f"`checker.memo.*`{evict}{noop})"
        )
    if summary.memo_miss_reasons:
        parts = ", ".join(
            f"`{reason}` {n}"
            for reason, n in sorted(
                summary.memo_miss_reasons.items(), key=lambda kv: (-kv[1], kv[0])
            )
        )
        lines.append(f"- **memo misses by reason:** {parts}")
    if summary.unique_states and summary.unique_outcomes:
        headroom = 1.0 - summary.unique_outcomes / summary.unique_states
        lines.append(
            f"- **recovered outcomes:** {summary.unique_outcomes} distinct of "
            f"{summary.unique_states} judged "
            f"({headroom * 100:.1f}% output-equivalence pruning headroom)"
        )
    if summary.mech_recognized:
        parts = ", ".join(
            f"`{kind}` {n}"
            for kind, n in sorted(
                summary.mech_recognized.items(), key=lambda kv: (-kv[1], kv[0])
            )
        )
        lines.append(
            f"- **mechanism recognition** (`--crash-plans "
            f"{summary.crash_plans}`): {parts}"
        )
        lines.append(
            f"- **mech plans:** {summary.mech_plans_emitted} targeted "
            f"state(s) emitted, {summary.mech_fallback_epochs} epoch(s) fell "
            f"back to subset enumeration"
        )
    lines.append("")
    lines.append("| stage | total (ms) | share |")
    lines.append("| --- | ---: | ---: |")
    total = sum(summary.stage_totals.values()) or 1.0
    for stage in ("record", "oracle", "enumerate", "check", "triage", "analyze"):
        if stage in summary.stage_totals:
            dt = summary.stage_totals[stage]
            lines.append(
                f"| {stage} | {dt * 1000:.1f} | {dt / total * 100:.1f}% |"
            )
    lines.append("")
    return lines


def _engine_section(engine_meta: Optional[Dict[str, object]],
                    quarantined: Optional[List[dict]]) -> List[str]:
    """Markdown block for the parallel campaign engine's run metadata."""
    lines: List[str] = []
    if engine_meta:
        lines += ["## Campaign engine", ""]
        lines.append(f"- **workers:** {engine_meta.get('workers', '?')}")
        if engine_meta.get("wall_clock") is not None:
            lines.append(
                f"- **wall clock:** {float(engine_meta['wall_clock']):.1f}s"
            )
        lines.append(
            f"- **scheduling:** {engine_meta.get('dispatched', 0)} dispatched, "
            f"{engine_meta.get('steals', 0)} stolen, "
            f"{engine_meta.get('requeues', 0)} requeued"
        )
        if engine_meta.get("workers_killed"):
            lines.append(
                f"- **workers killed:** {engine_meta['workers_killed']} "
                f"(crash or per-workload timeout)"
            )
        if engine_meta.get("items_resumed"):
            lines.append(
                f"- **resumed:** {engine_meta['items_resumed']} workload(s) "
                f"restored from the checkpoint journal, not re-executed"
            )
        if engine_meta.get("interrupted"):
            lines.append(
                "- **interrupted:** campaign stopped early; findings are a "
                "lower bound (resume with `--resume`)"
            )
        lines.append("")
    if quarantined:
        lines += ["## Quarantined workloads", ""]
        lines.append(
            f"{len(quarantined)} workload(s) exhausted their retry budget "
            f"and were excluded; their coverage is missing from this report."
        )
        lines.append("")
        lines.append("| workload | retries | last error |")
        lines.append("| --- | ---: | --- |")
        for record in quarantined:
            lines.append(
                f"| `{record.get('id', '?')}` | {record.get('retries', '?')} "
                f"| {record.get('error', '?')} |"
            )
        lines.append("")
    return lines


def _forensics_section(exemplar, finding_index: int) -> List[str]:
    """Markdown forensics block for one cluster exemplar's provenance.

    Shows the crash-region store lineage (the fence epoch the crash
    interrupted, with each store's persistence fate) and points at
    ``repro explain`` for the full timeline, minimization, and image diff.
    """
    prov = exemplar.provenance
    if prov is None:
        return []
    counts = prov.counts()
    lines: List[str] = ["**Forensics**", ""]
    lines.append(
        f"Crash {prov.where()} (fence epoch {prov.fence_index} of "
        f"{prov.n_epochs}, state `{prov.state_kind}`): "
        f"{counts['replayed']} in-flight store(s) persisted, "
        f"{counts['dropped']} dropped, {counts['durable']} already durable."
    )
    region = [e for e in prov.crash_region() if e.kind in ("store", "flush")]
    if region:
        lines.append("")
        lines.append("```")
        for e in region:
            lines.append(
                f"seq {e.seq:>4}  {e.kind:<6} {e.status:<9} {e.func:<28} "
                f"addr={e.addr:#08x} len={e.length}"
            )
        lines.append("```")
    lines.append("")
    lines.append(
        f"Full timeline, store-set minimization, and image diff: "
        f"`python -m repro explain bugs.json --index "
        f"{finding_index - 1} --minimize`"
    )
    lines.append("")
    return lines


def render_markdown(
    summary: CampaignSummary,
    title: Optional[str] = None,
    engine_meta: Optional[Dict[str, object]] = None,
    quarantined: Optional[List[dict]] = None,
) -> str:
    """Render a campaign summary as a markdown report.

    ``engine_meta`` and ``quarantined`` come from the parallel campaign
    engine (:mod:`repro.campaign`); serial callers omit them and get the
    original report shape.
    """
    lines: List[str] = []
    lines.append(f"# {title or f'Crash-consistency report: {summary.fs_name}'}")
    lines.append("")
    lines.append(f"- **file system:** `{summary.fs_name}`")
    lines.append(f"- **workload generator:** {summary.generator}")
    lines.append(f"- **workloads tested:** {summary.workloads_tested}")
    lines.append(
        f"- **crash states:** {summary.crash_states} generated, "
        f"{summary.unique_states} unique "
        + (f"({summary.memo_misses} checked, {summary.memo_readset_hits} "
           f"replayed by read set)"
           if summary.memo_readset_hits else "checked")
    )
    lines.append(f"- **wall time:** {summary.wall_time:.1f}s")
    if summary.truncated_workloads:
        lines.append(
            f"- **truncated workloads:** {summary.truncated_workloads} "
            f"(hit the per-workload report cap; findings are a lower bound)"
        )
    lines.append(f"- **findings:** {len(summary.clusters)} triaged cluster(s)")
    lines.append("")
    lines.extend(_engine_section(engine_meta, quarantined))
    lines.extend(_telemetry_section(summary))
    if not summary.clusters:
        lines.append("No crash-consistency violations found.")
        lines.append("")
        return "\n".join(lines)
    for index, cluster in enumerate(summary.clusters, 1):
        exemplar = cluster.exemplar
        lines.append(f"## Finding {index}: {exemplar.consequence.value}")
        lines.append("")
        lines.append(f"*{cluster.count} report(s) in this cluster; first seen at "
                     f"workload #{summary.first_seen.get(index - 1, '?')}.*")
        lines.append("")
        if cluster.prov_key is not None and cluster.sites:
            lines.append(
                f"*Clustered by culprit sites: {cluster.describe_sites()}.*"
            )
            lines.append("")
        lines.append("**Reproduction workload**")
        lines.append("")
        lines.append("```")
        lines.append(exemplar.workload_desc)
        lines.append("```")
        lines.append("")
        lines.append("**Crash point**")
        lines.append("")
        lines.append("```")
        lines.append(exemplar.crash_desc)
        lines.append("```")
        lines.append("")
        lines.append("**Observed divergence**")
        lines.append("")
        lines.append(exemplar.detail)
        if exemplar.paths:
            lines.append("")
            lines.append(f"Affected paths: {', '.join(f'`{p}`' for p in exemplar.paths)}")
        lines.append("")
        lines.extend(_forensics_section(exemplar, index))
    return "\n".join(lines)
