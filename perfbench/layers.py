"""Per-layer metrics from the spans a traced campaign wrote.

Each process's spans are ``[name, start, end, parent, workload]`` lists
(see ``tracer.py``).  A span's *self time* is its duration minus the part
of it that its child spans cover.

Time metrics (``*_s``) are wall-clock shares that add up to the traced
run's wall time.  The main process's timeline splits into three windows:

* before the first workload starts: interpreter start, imports, CLI
  set-up and worker spawn (``campaign.spawn_s`` is the engine's own time
  from ``CampaignEngine.run`` to the first ``Chipmunk.test_workload``);
* the run phase, up to ``merge_campaign``: main-process spans
  (``campaign.journal_s``) count in full; the rest of the window is time
  the main process waits on its workers, and is shared out over the
  workers' layers in proportion to the worker-seconds each took;
* the merge and exit.

Main-process time outside every span is ``unattributed_s``, so the
additive metrics below sum exactly to ``trace.wall_s``.  Inclusive
metrics (``harness.s``, ``checker.check_s``) are the same worker shares
taken over a span's whole duration.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from typing import Dict, Iterable, List, Sequence, Tuple

Interval = Tuple[float, float]

#: Span name -> additive metric.  Every span name the tracer writes.
SELF_METRIC = {
    "import": "startup.import_s",
    "journal": "campaign.journal_s",
    "merge": "campaign.merge_s",
    "triage": "triage.s",
    "worker": "campaign.worker_loop_s",
    "dispatch_wait": "campaign.dispatch_wait_s",
    "results_fsync": "campaign.results_fsync_s",
    "serialize": "campaign.serialize_s",
    "gen": "workloads.gen_s",
    "fuzz.step": "workloads.gen_s",
    "workload": "harness.self_s",
    "record": "harness.record_s",
    "oracle": "oracle.run_s",
    "enumerate": "replayer.enumerate_s",
    "cow_view": "pm.cow_view_s",
    "memo.check": "memo.check_s",
    "memo.key": "memo.key_s",
    "checker.check": "checker.semantics_s",
    "mount": "fs.mount_s",
    "walk": "vfs.walk_s",
    "usability": "checker.usability_s",
    "provenance": "forensics.provenance_s",
    "analyze": "harness.analyze_s",
}

#: Metrics that sum to ``trace.wall_s``.
ADDITIVE = sorted(
    set(SELF_METRIC.values()) | {"campaign.spawn_s", "unattributed_s"}
)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_quantile(n: int) -> float:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    for q in (0.999, 0.99, 0.9):
        if n * (1 - q) >= 10:
            return q
    return 0.5


def union_length(intervals: Iterable[Interval]) -> float:
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_intervals(spans: Sequence[list]) -> List[List[Interval]]:
    """For each span, the parts of its interval no child span covers."""
    children: Dict[int, List[Interval]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, _, _) in enumerate(spans):
        free: List[Interval] = []
        cursor = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, start), min(hi, end)
            if lo > cursor:
                free.append((cursor, lo))
            cursor = max(cursor, hi)
        if end > cursor:
            free.append((cursor, end))
        result.append(free)
    return result


def clipped(intervals: Iterable[Interval], lo: float, hi: float) -> float:
    """Total length of ``intervals`` inside ``[lo, hi]``."""
    return sum(max(0.0, min(b, hi) - max(a, lo)) for a, b in intervals)


def load_spans(spans_dir: str) -> Tuple[list, List[list]]:
    """(main spans, [spans of each worker]) from a tracer output dir."""
    main, workers = None, []
    for name in sorted(os.listdir(spans_dir)):
        with open(os.path.join(spans_dir, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["role"] == "main":
            main = doc["spans"]
        else:
            workers.append(doc["spans"])
    if main is None or not workers:
        raise ValueError(f"incomplete spans in {spans_dir}")
    return main, workers


def attribute(main: list, workers: List[list], launch: float,
              exit_: float) -> Dict[str, float]:
    """Per-layer metrics of one traced run launched at ``launch`` and
    reaped at ``exit_`` (both on the spans' clock)."""
    run = [s for s in main if s[0] == "engine.run"]
    if len(run) != 1:
        raise ValueError("expected one CampaignEngine.run span")
    merge = [s for s in main if s[0] == "merge"]
    p1 = merge[0][1] if merge else run[0][2]
    starts = [s[1] for spans in workers for s in spans if s[0] == "workload"]
    if not starts:
        raise ValueError("no Chipmunk.test_workload spans in any worker")
    p0 = min(starts)
    windows = {"pre": (launch, p0), "run": (p0, p1), "post": (p1, exit_)}

    out = {metric: 0.0 for metric in ADDITIVE}
    main_free = self_intervals(main)
    waiting = 0.0
    for span, free in zip(main, main_free):
        for window, (lo, hi) in windows.items():
            share = clipped(free, lo, hi)
            if span[0] != "engine.run":
                out[SELF_METRIC[span[0]]] += share
            elif window == "pre":
                out["campaign.spawn_s"] += share
            elif window == "run":
                waiting += share
            else:
                out["unattributed_s"] += share
    covered = union_length((s[1], s[2]) for s in main if s[3] < 0)
    out["unattributed_s"] += (exit_ - launch) - covered

    # The run phase's waiting time, shared over the workers' layers.
    lo, hi = windows["run"]
    worker_seconds = sum(
        clipped([(s[1], s[2])], lo, hi)
        for spans in workers for s in spans if s[0] == "worker"
    )
    if worker_seconds <= 0:
        raise ValueError("no worker time inside the run phase")
    scale = waiting / worker_seconds
    harness = check = 0.0
    latencies: List[float] = []
    for spans in workers:
        for span, free in zip(spans, self_intervals(spans)):
            out[SELF_METRIC[span[0]]] += scale * clipped(free, lo, hi)
            inside = scale * clipped([(span[1], span[2])], lo, hi)
            if span[0] == "workload":
                harness += inside
                latencies.append((span[2] - span[1]) * 1e3)
            elif span[0] == "checker.check":
                check += inside
    out["harness.s"] = harness
    out["checker.check_s"] = check

    counts = Counter(span[0] for spans in workers for span in spans)
    states = counts.get("memo.check", 0)
    checks = counts.get("checker.check", 0)
    out["replayer.states"] = float(states)
    out["forensics.captures"] = float(counts.get("provenance", 0))
    out["memo.hit_rate"] = 1 - checks / states if states else 0.0
    out["memo.checks_per_state"] = checks / states if states else 0.0
    out["harness.workload_ms_p50"] = percentile(latencies, 0.5)
    out["harness.workload_ms_tail"] = percentile(
        latencies, tail_quantile(len(latencies))
    )
    out["trace.wall_s"] = exit_ - launch
    return out


def additive_sum(metrics: Dict[str, float]) -> float:
    return sum(metrics[name] for name in ADDITIVE)
