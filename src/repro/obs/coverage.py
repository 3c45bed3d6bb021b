"""Crash-state space coverage analytics (``python -m repro coverage``).

Every remaining exploration lever — mechanism-aware pruning, WITCHER-style
output-equivalence pruning, digest canonicalization — starts from a
distribution question: how big are in-flight windows per fence epoch, which
persistence mechanisms carry the stores, how many checked states recover to
distinct outcomes, how much of the stored data does recovery even read?
:class:`CoverageReport` aggregates those distributions from data the
pipeline already produces (serialized :class:`~repro.core.harness.TestResult`
dicts in a campaign's checkpoint journal, or ``workload_result`` events in
``--trace`` JSONL files) and renders them as a markdown report with ASCII
CDFs that campaigns drop next to ``report.md`` and ``forensics.md``.

The module stays dependency-light like the rest of :mod:`repro.obs`:
campaign-journal access is deferred into the builder function, so importing
the analytics never pulls the engine in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.tracing import read_jsonl

#: Bar width of the ASCII CDF / histogram renderings.
BAR_WIDTH = 40


def _bar(fraction: float, width: int = BAR_WIDTH) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + " " * (width - filled)


def ascii_cdf(values: Sequence[int], label: str = "value") -> List[str]:
    """Cumulative distribution of integer observations, one row per value.

    ``P(X <= v)`` per distinct observed ``v`` — the Silhouette-style
    window-size CDF shape, in monospace.
    """
    if not values:
        return ["(no observations)"]
    total = len(values)
    counts: Dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    lines = [f"{label + ' <=':>12}  count    cum%"]
    cum = 0
    for v in sorted(counts):
        cum += counts[v]
        frac = cum / total
        lines.append(
            f"{v:>12}  {counts[v]:>5}  {frac * 100:>5.1f}%  |{_bar(frac)}|"
        )
    return lines


def ascii_histogram(values: Sequence[int], label: str = "value") -> List[str]:
    """Frequency histogram; collapses to ranges past 12 distinct values."""
    if not values:
        return ["(no observations)"]
    total = len(values)
    distinct = sorted(set(values))
    if len(distinct) <= 12:
        buckets: List[Tuple[str, int]] = []
        counts: Dict[int, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        for v in distinct:
            buckets.append((str(v), counts[v]))
    else:
        lo, hi = distinct[0], distinct[-1]
        n_buckets = 8
        span = max(1, (hi - lo + n_buckets) // n_buckets)
        counted: Dict[int, int] = {}
        for v in values:
            counted[(v - lo) // span] = counted.get((v - lo) // span, 0) + 1
        buckets = [
            (f"{lo + i * span}-{lo + (i + 1) * span - 1}", counted[i])
            for i in sorted(counted)
        ]
    lines = [f"{label:>12}  count   share"]
    for name, count in buckets:
        frac = count / total
        lines.append(
            f"{name:>12}  {count:>5}  {frac * 100:>5.1f}%  |{_bar(frac)}|"
        )
    return lines


def _percentile(sorted_values: Sequence[int], q: float) -> int:
    if not sorted_values:
        return 0
    idx = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[idx]


@dataclass
class CoverageReport:
    """Aggregated exploration-coverage distributions of one campaign."""

    fs_name: str = "?"
    generator: str = "?"
    meta: Dict[str, object] = field(default_factory=dict)

    workloads: int = 0
    buggy_workloads: int = 0
    n_reports: int = 0
    truncated: int = 0

    #: fs -> syscall -> in-flight unit count at each fence epoch.
    inflight: Dict[str, Dict[str, List[int]]] = field(default_factory=dict)
    fences_per_workload: List[int] = field(default_factory=list)
    stores_per_workload: List[int] = field(default_factory=list)

    #: persistence function -> {stores, flushes, fences, bytes}.
    persistence: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: layout region -> {writes, bytes}.
    store_regions: Dict[str, Dict[str, int]] = field(default_factory=dict)

    states_enumerated: int = 0
    states_checked: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    #: Hits the read-set verdict table answered (also in ``memo_hits``).
    memo_readset_hits: int = 0
    memo_noop_dropped: int = 0
    #: Clean entries LRU-evicted from the bounded memo tables.
    memo_evictions: int = 0
    miss_reasons: Dict[str, int] = field(default_factory=dict)
    #: content-key hex -> max distinct overlay shapes seen (per workload).
    collisions: Dict[str, int] = field(default_factory=dict)
    unique_outcomes: int = 0

    #: Crash-plan mode ("subset" | "mech" | "mixed"; "?" until data arrives).
    crash_plans: str = "?"
    #: mechanism kind -> fence epochs recognized as that kind.
    mech_recognized: Dict[str, int] = field(default_factory=dict)
    mech_plans_emitted: int = 0
    mech_fallback_epochs: int = 0

    recovery: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Ingestion: one entry point for both journal result dicts and
    # ``workload_result`` trace-event fields (the keys coincide by design).
    # ------------------------------------------------------------------
    def add_fields(self, fields: Dict[str, object]) -> None:
        self.workloads += 1
        n_reports = int(
            fields.get("n_reports", len(list(fields.get("reports", []))))
        )
        self.n_reports += n_reports
        if n_reports:
            self.buggy_workloads += 1
        if fields.get("truncated"):
            self.truncated += 1
        self.states_enumerated += int(fields.get("n_crash_states", 0))
        self.states_checked += int(fields.get("n_unique_states", 0))
        self.memo_hits += int(fields.get("memo_hits", 0))
        self.memo_misses += int(fields.get("memo_misses", 0))
        self.memo_readset_hits += int(fields.get("memo_readset_hits", 0))
        self.memo_noop_dropped += int(fields.get("memo_noop_dropped", 0))
        self.memo_evictions += int(fields.get("memo_evictions", 0))
        self.unique_outcomes += int(fields.get("n_unique_outcomes", 0))
        self.fences_per_workload.append(int(fields.get("n_fences", 0)))
        for reason, n in dict(fields.get("memo_miss_reasons", {})).items():
            self.miss_reasons[str(reason)] = (
                self.miss_reasons.get(str(reason), 0) + int(n)
            )
        for pair in list(fields.get("memo_collisions", [])):
            key, count = str(pair[0]), int(pair[1])
            self.collisions[key] = max(self.collisions.get(key, 0), count)
        mode = str(fields.get("crash_plans", "subset"))
        if self.crash_plans == "?":
            self.crash_plans = mode
        elif self.crash_plans != mode:
            self.crash_plans = "mixed"
        for kind, n in dict(fields.get("mech_recognized", {})).items():
            self.mech_recognized[str(kind)] = (
                self.mech_recognized.get(str(kind), 0) + int(n)
            )
        self.mech_plans_emitted += int(fields.get("mech_plans_emitted", 0))
        self.mech_fallback_epochs += int(fields.get("mech_fallback_epochs", 0))
        stores = 0
        for func, mix in dict(fields.get("persistence", {})).items():
            mix = dict(mix)
            bucket = self.persistence.setdefault(
                str(func), {"stores": 0, "flushes": 0, "fences": 0, "bytes": 0}
            )
            for k in bucket:
                bucket[k] += int(mix.get(k, 0))
            stores += int(mix.get("stores", 0)) + int(mix.get("flushes", 0))
        self.stores_per_workload.append(stores)
        for region, traffic in dict(fields.get("store_regions", {})).items():
            traffic = dict(traffic)
            bucket = self.store_regions.setdefault(
                str(region), {"writes": 0, "bytes": 0}
            )
            for k in bucket:
                bucket[k] += int(traffic.get(k, 0))
        for k, v in dict(fields.get("recovery_overlap", {})).items():
            self.recovery[str(k)] = self.recovery.get(str(k), 0) + int(v)
        fs = str(fields.get("fs", self.fs_name))
        if self.fs_name == "?" and fs != "?":
            self.fs_name = fs
        bucket_fs = fs if fs != "?" else self.fs_name
        per_syscall = self.inflight.setdefault(bucket_fs, {})
        for syscall, counts in dict(fields.get("inflight", {})).items():
            per_syscall.setdefault(str(syscall), []).extend(
                int(c) for c in counts
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def memo_hit_rate(self) -> float:
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0

    @property
    def attribution_consistent(self) -> bool:
        """Reason counts sum exactly to the memo miss count."""
        return sum(self.miss_reasons.values()) == self.memo_misses

    @property
    def outcome_headroom(self) -> float:
        """Fraction of checked states recovering to an already-seen outcome."""
        if not self.states_checked:
            return 0.0
        return 1.0 - self.unique_outcomes / self.states_checked

    @property
    def mech_recognized_fraction(self) -> float:
        """Fraction of classified epochs explained by a real mechanism
        (anything but the ``unstructured`` fallback kind)."""
        total = sum(self.mech_recognized.values())
        if not total:
            return 0.0
        return 1.0 - self.mech_recognized.get("unstructured", 0) / total

    @property
    def recovery_unread_fraction(self) -> float:
        """Fraction of stored cache lines recovery never reads."""
        stored = self.recovery.get("store_lines", 0)
        if not stored:
            return 0.0
        return 1.0 - self.recovery.get("overlap_lines", 0) / stored

    def all_window_sizes(self, fs: Optional[str] = None) -> List[int]:
        merged: List[int] = []
        for name, per_syscall in self.inflight.items():
            if fs is not None and name != fs:
                continue
            for counts in per_syscall.values():
                merged.extend(counts)
        return merged

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        return {
            "fs": self.fs_name,
            "generator": self.generator,
            "workloads": self.workloads,
            "buggy_workloads": self.buggy_workloads,
            "reports": self.n_reports,
            "truncated_workloads": self.truncated,
            "states_enumerated": self.states_enumerated,
            "states_checked": self.states_checked,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_readset_hits": self.memo_readset_hits,
            "memo_hit_rate": self.memo_hit_rate,
            "memo_noop_writes_dropped": self.memo_noop_dropped,
            "memo_evictions": self.memo_evictions,
            "memo_miss_reasons": dict(self.miss_reasons),
            "memo_miss_reasons_consistent": self.attribution_consistent,
            "memo_collisions": sorted(
                self.collisions.items(), key=lambda kv: (-kv[1], kv[0])
            ),
            "unique_outcomes": self.unique_outcomes,
            "outcome_headroom": self.outcome_headroom,
            "crash_plans": self.crash_plans,
            "mech_recognized": dict(self.mech_recognized),
            "mech_plans_emitted": self.mech_plans_emitted,
            "mech_fallback_epochs": self.mech_fallback_epochs,
            "mech_recognized_fraction": self.mech_recognized_fraction,
            "fences_per_workload": list(self.fences_per_workload),
            "stores_per_workload": list(self.stores_per_workload),
            "persistence": {k: dict(v) for k, v in self.persistence.items()},
            "store_regions": {k: dict(v) for k, v in self.store_regions.items()},
            "recovery": dict(self.recovery),
            "recovery_unread_fraction": self.recovery_unread_fraction,
            "inflight": {
                fs: {s: list(c) for s, c in per.items()}
                for fs, per in self.inflight.items()
            },
        }

    # ------------------------------------------------------------------
    # Markdown rendering
    # ------------------------------------------------------------------
    def render_markdown(self) -> str:
        lines: List[str] = []
        lines.append(
            f"# Exploration coverage: {self.fs_name} ({self.generator})"
        )
        lines.append("")
        extras = {
            k: v for k, v in sorted(self.meta.items())
            if k not in ("fs", "generator")
        }
        if extras:
            lines.append(
                "- " + ", ".join(f"**{k}:** {v}" for k, v in extras.items())
            )
        lines.append(f"- **workloads:** {self.workloads}"
                     + (f" ({self.truncated} truncated)" if self.truncated else ""))
        lines.append(
            f"- **findings:** {self.n_reports} report(s) across "
            f"{self.buggy_workloads} buggy workload(s)"
        )
        lines.append("")

        lines.append("## Crash-state space")
        lines.append("")
        lines.append(
            f"| enumerated | judged | memo hits | read-set hits | "
            f"memo hit-rate | unique outcomes |"
        )
        lines.append("| ---: | ---: | ---: | ---: | ---: | ---: |")
        lines.append(
            f"| {self.states_enumerated} | {self.states_checked} | "
            f"{self.memo_hits} | {self.memo_readset_hits} | "
            f"{self.memo_hit_rate * 100:.1f}% | "
            f"{self.unique_outcomes} |"
        )
        lines.append("")
        if self.memo_evictions:
            lines.append(
                f"{self.memo_evictions} clean memo entrie(s) were "
                f"LRU-evicted under the memo bound."
            )
            lines.append("")
        if self.states_checked:
            lines.append(
                f"Of {self.states_checked} judged states, only "
                f"{self.unique_outcomes} recovered to distinct observable "
                f"outcomes — **{self.outcome_headroom * 100:.1f}% headroom** "
                f"for WITCHER-style output-equivalence pruning."
            )
            lines.append("")

        lines.append("## In-flight window size CDF (per fence epoch)")
        lines.append("")
        for fs in sorted(self.inflight):
            windows = self.all_window_sizes(fs)
            if not windows:
                continue
            ordered = sorted(windows)
            lines.append(
                f"**{fs}** — {len(windows)} fence epoch(s) with in-flight "
                f"writes; avg {sum(windows) / len(windows):.1f}, "
                f"p95 {_percentile(ordered, 0.95)}, max {ordered[-1]} units"
            )
            lines.append("")
            lines.append("```")
            lines.extend(ascii_cdf(windows, label="units"))
            lines.append("```")
            lines.append("")
            per_syscall = self.inflight[fs]
            if per_syscall:
                lines.append("| syscall | epochs | avg units | p95 | max |")
                lines.append("| --- | ---: | ---: | ---: | ---: |")
                for syscall in sorted(per_syscall):
                    counts = sorted(per_syscall[syscall])
                    lines.append(
                        f"| {syscall} | {len(counts)} | "
                        f"{sum(counts) / len(counts):.1f} | "
                        f"{_percentile(counts, 0.95)} | {counts[-1]} |"
                    )
                lines.append("")

        lines.append("## Fence epochs per workload")
        lines.append("")
        lines.append("```")
        lines.extend(ascii_histogram(self.fences_per_workload, label="fences"))
        lines.append("```")
        lines.append("")
        lines.append("## Stores per workload")
        lines.append("")
        lines.append("```")
        lines.extend(ascii_histogram(self.stores_per_workload, label="stores"))
        lines.append("```")
        lines.append("")

        lines.append("## Persistence-mechanism store breakdown")
        lines.append("")
        if self.persistence:
            lines.append("| function | stores | flushes | fences | bytes |")
            lines.append("| --- | ---: | ---: | ---: | ---: |")
            ordered_funcs = sorted(
                self.persistence.items(),
                key=lambda kv: -(kv[1]["stores"] + kv[1]["flushes"] + kv[1]["fences"]),
            )
            for func, mix in ordered_funcs:
                lines.append(
                    f"| `{func}` | {mix['stores']} | {mix['flushes']} | "
                    f"{mix['fences']} | {mix['bytes']} |"
                )
        else:
            lines.append("(no persistence data)")
        lines.append("")

        lines.append("## Mechanism recognition")
        lines.append("")
        if self.mech_recognized:
            total = sum(self.mech_recognized.values()) or 1
            lines.append(
                f"Crash-plan mode: `{self.crash_plans}` — "
                f"{self.mech_recognized_fraction * 100:.1f}% of {total} "
                f"classified epoch(s) explained by a recognized mechanism; "
                f"{self.mech_plans_emitted} targeted state(s) emitted, "
                f"{self.mech_fallback_epochs} epoch(s) fell back to subset "
                f"enumeration."
            )
            lines.append("")
            lines.append("| mechanism kind | epochs | share |")
            lines.append("| --- | ---: | ---: |")
            for kind, n in sorted(
                self.mech_recognized.items(), key=lambda kv: (-kv[1], kv[0])
            ):
                lines.append(f"| `{kind}` | {n} | {n / total * 100:.1f}% |")
        else:
            lines.append(
                "(no mechanism data — run with `--crash-plans mech`)"
            )
        lines.append("")

        lines.append("## Store placement by layout region")
        lines.append("")
        if self.store_regions:
            lines.append("| region | writes | bytes |")
            lines.append("| --- | ---: | ---: |")
            for region, traffic in sorted(
                self.store_regions.items(), key=lambda kv: -kv[1]["writes"]
            ):
                lines.append(
                    f"| `{region}` | {traffic['writes']} | {traffic['bytes']} |"
                )
        else:
            lines.append("(no layout data)")
        lines.append("")

        lines.append("## Memo-miss attribution")
        lines.append("")
        if self.miss_reasons:
            lines.append("| reason | misses | share |")
            lines.append("| --- | ---: | ---: |")
            total = sum(self.miss_reasons.values()) or 1
            for reason, n in sorted(
                self.miss_reasons.items(), key=lambda kv: (-kv[1], kv[0])
            ):
                lines.append(f"| `{reason}` | {n} | {n / total * 100:.1f}% |")
            lines.append("")
            check = "==" if self.attribution_consistent else "!="
            mark = "✓" if self.attribution_consistent else "✗ MISMATCH"
            lines.append(
                f"Reason counts sum to {sum(self.miss_reasons.values())} "
                f"{check} `checker.memo.misses` ({self.memo_misses}) {mark}."
            )
            lines.append(
                f"{self.memo_noop_dropped} no-op overlay write(s) dropped "
                f"before digesting."
            )
            lines.append("")
            if self.collisions:
                lines.append(
                    "Top colliding content keys (byte-identical content "
                    "checked under multiple overlay shapes):"
                )
                lines.append("")
                lines.append("| content key | distinct shapes |")
                lines.append("| --- | ---: |")
                for key, count in sorted(
                    self.collisions.items(), key=lambda kv: (-kv[1], kv[0])
                )[:5]:
                    lines.append(f"| `{key}` | {count} |")
                lines.append("")
        else:
            lines.append("(no attribution data)")
            lines.append("")

        lines.append("## Recovery-read redundancy")
        lines.append("")
        if self.recovery.get("store_lines"):
            lines.append(
                f"Summed over workloads: recovery read "
                f"{self.recovery.get('read_lines', 0)} cache line(s) at "
                f"mount, workloads stored {self.recovery['store_lines']}, "
                f"overlap {self.recovery.get('overlap_lines', 0)} — "
                f"**{self.recovery_unread_fraction * 100:.1f}%** of stored "
                f"lines are never read by recovery (Vinter-heuristic "
                f"redundancy)."
            )
        else:
            lines.append("(no recovery-read data)")
        lines.append("")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def coverage_from_results(
    result_dicts: Iterable[Dict[str, object]],
    fs: str = "?",
    generator: str = "?",
    meta: Optional[Dict[str, object]] = None,
) -> CoverageReport:
    """Build a report from serialized ``TestResult`` dicts."""
    report = CoverageReport(fs_name=fs, generator=generator)
    if meta:
        report.meta.update(meta)
    for fields in result_dicts:
        report.add_fields(fields)
    return report


def coverage_from_campaign_dir(campaign_dir: str) -> CoverageReport:
    """Build a report from a campaign directory's checkpoint journal.

    Works on any campaign — traced or not — because the journal's
    ``item_done`` records carry full serialized results.
    """
    from repro.campaign.journal import CheckpointJournal  # deferred: no cycle
    from repro.campaign.spec import CampaignSpec

    state = CheckpointJournal.replay(campaign_dir)
    fs, generator = "?", "?"
    meta: Dict[str, object] = {}
    if state.spec_dict is not None:
        spec = CampaignSpec.from_dict(state.spec_dict)
        fs, generator = spec.fs, spec.generator
        meta["seq"] = spec.seq
    report = CoverageReport(fs_name=fs, generator=generator)
    report.meta.update(meta)
    for item_id in sorted(state.results, key=lambda i: state.ordinals.get(i, 0)):
        for fields in state.results[item_id]:
            report.add_fields(fields)
    return report


def coverage_from_traces(paths: Sequence[str]) -> CoverageReport:
    """Build a report from ``--trace`` JSONL files (``workload_result``)."""
    report = CoverageReport()
    for path in paths:
        for rec in read_jsonl(path):
            kind = rec.get("type")
            if kind == "meta":
                report.meta.update(
                    {k: v for k, v in rec.items() if k != "type"}
                )
                report.fs_name = str(report.meta.get("fs", report.fs_name))
                report.generator = str(
                    report.meta.get("generator", report.generator)
                )
            elif kind == "event" and rec.get("name") == "workload_result":
                report.add_fields(rec.get("fields", {}))
    return report
