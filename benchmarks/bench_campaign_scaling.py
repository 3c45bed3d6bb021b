"""Campaign engine scaling: parallel workers vs the serial pipeline.

The paper's 50k-workload seq-3 campaign was split across ten VMs
(section 4.2); ``repro.campaign`` replays that scale-out pattern with a
local worker pool.  This bench runs the same seq-2 slice serially and
through the engine at increasing worker counts, prints the scaling table,
and — always — checks the parallel runs reproduce the serial bug set
exactly (the engine's core correctness contract).

Speedup is asserted only when the host actually has spare cores: on a
single-CPU container the workers time-slice one core and parallel wall
clock can only match (or slightly trail) serial, which the table then
documents instead.
"""

import itertools
import os
import time

from conftest import print_table, run_once

from repro.analysis.reporting import CampaignSummary
from repro.campaign import CampaignEngine, CampaignSpec, EngineConfig
from repro.core.harness import ChipmunkConfig
from repro.workloads import ace

#: ACE workloads per sequence length (seq 1..2): 55 + 120 = 175 workloads,
#: a few seconds of serial wall clock — enough for scheduling overheads to
#: amortize without making the bench slow.
MAX_WORKLOADS = 120
WORKER_COUNTS = (2, 4)


def _fingerprint(clusters):
    return sorted(
        (c.exemplar.consequence.name, c.exemplar.detail, c.count)
        for c in clusters
    )


def _serial_run(spec):
    chipmunk = spec.build_chipmunk()
    summary = CampaignSummary(fs_name=spec.fs, generator="ace")
    for seq in range(1, spec.seq + 1):
        total = min(ace.count(seq), spec.max_workloads)
        for w in itertools.islice(ace.generate(seq, mode=spec.mode), total):
            summary.add_result(chipmunk.test_workload(w.core, setup=w.setup))
    return summary


def test_bench_campaign_scaling(benchmark, tmp_path):
    """Serial vs ``--workers N`` wall clock on a seq-2 slice."""
    spec = CampaignSpec(fs="nova", seq=2, max_workloads=MAX_WORKLOADS)
    cpus = os.cpu_count() or 1

    def experiment():
        start = time.perf_counter()
        serial_summary = _serial_run(spec)
        serial_wall = time.perf_counter() - start

        parallel = []
        for workers in WORKER_COUNTS:
            start = time.perf_counter()
            merged = CampaignEngine(
                spec, str(tmp_path / f"workers-{workers}"),
                EngineConfig(workers=workers),
            ).run()
            wall = time.perf_counter() - start
            parallel.append((workers, wall, merged))
        return serial_summary, serial_wall, parallel

    serial_summary, serial_wall, parallel = run_once(benchmark, experiment)

    rows = [("serial", f"{serial_wall:.2f}", "1.00x", "-", "-")]
    for workers, wall, merged in parallel:
        rows.append((
            f"{workers} workers",
            f"{wall:.2f}",
            f"{serial_wall / wall:.2f}x",
            str(merged.engine["steals"]),
            str(merged.engine["requeues"]),
        ))
    print_table(
        f"Campaign scaling: nova seq-2 slice, "
        f"{serial_summary.workloads_tested} workloads ({cpus} CPU(s))",
        ("configuration", "wall (s)", "speedup", "steals", "requeues"),
        rows,
    )

    best_speedup = max(serial_wall / wall for _, wall, _ in parallel)

    # Ledger append happens before the assertions so a failing gate still
    # leaves the run's numbers in the history.
    from repro.obs.history import append_record

    metrics = {
        "workloads": serial_summary.workloads_tested,
        "serial_seconds": serial_wall,
        "best_speedup": best_speedup,
    }
    for workers, wall, _ in parallel:
        metrics[f"workers_{workers}_seconds"] = wall
    append_record(
        "BENCH_history.jsonl", "campaign_scaling", metrics,
        config={"cpus": cpus, "max_workloads": MAX_WORKLOADS,
                "worker_counts": list(WORKER_COUNTS)},
    )

    # Correctness is unconditional: every worker count must reproduce the
    # serial bug set, workload-for-workload.
    serial_fp = _fingerprint(serial_summary.clusters)
    for workers, _, merged in parallel:
        assert merged.summary.workloads_tested == serial_summary.workloads_tested
        assert _fingerprint(merged.clusters) == serial_fp, (
            f"{workers}-worker campaign diverged from the serial bug set"
        )
        assert not merged.quarantined

    # Speedup is conditional on real parallelism being available.
    if cpus >= 4:
        assert best_speedup >= 2.0, (
            f"expected >=2x speedup with {cpus} CPUs, got {best_speedup:.2f}x"
        )
    elif cpus >= 2:
        assert best_speedup >= 1.2, (
            f"expected >=1.2x speedup with {cpus} CPUs, got {best_speedup:.2f}x"
        )
    else:
        # Single CPU: workers only time-slice; just make sure the engine's
        # overhead is bounded rather than pathological.
        assert best_speedup >= 0.5, (
            f"parallel overhead pathological on 1 CPU: {best_speedup:.2f}x"
        )


#: Workloads per sequence length for the check-memo bench.  Cross-workload
#: redundancy grows with the seq-2 slice (more workloads sharing each
#: first-op prefix); 240 is ~6s per campaign.
MEMO_MAX_WORKLOADS = 240


def _tranche_hit_rates(campaign_dir):
    """Memo hit-rate per ``seq`` tranche, from the journal.

    The overall campaign hit-rate under-reports what the worker-lifetime
    memo does, because the seq-1 tranche is cross-workload-disjoint *by
    construction* (each workload is one distinct op, so no two workloads
    produce the same state under the same expectations) and dilutes the
    average.  The seq-2 tranche — workloads with shared multi-op prefixes
    — is where the redundancy lives, so it is measured separately.
    """
    from repro.campaign.journal import CheckpointJournal

    state = CheckpointJournal.replay(str(campaign_dir))
    tranches = {}
    for item_id, results in state.results.items():
        seq = item_id.split(":")[1] if item_id.startswith("ace:") else "?"
        hits, misses = tranches.setdefault(seq, [0, 0])
        for fields in results:
            hits += int(fields.get("memo_hits", 0))
            misses += int(fields.get("memo_misses", 0))
        tranches[seq] = [hits, misses]
    return {
        seq: h / (h + m) if h + m else 0.0
        for seq, (h, m) in tranches.items()
    }


def test_bench_worker_memo(benchmark, tmp_path):
    """Worker-lifetime check memo: hit-rate and throughput vs memo off.

    The memo-off reference (``--no-memoize``) dedups only inside one
    workload, by whole-image sha1.  With the memo on, each worker keeps
    its clean verdicts across workloads, so the redundancy across ACE
    workloads (shared multi-op prefixes produce byte-identical crash
    states under identical oracle expectations) is skipped too.  This
    bench runs the same seq-1..2 slice with the memo off and on, prints
    hit-rate, read-set hits, checks per state (checker runs per crash
    state) and states/sec, and gates on byte-equal ``bugs.json``, a
    states/sec gain, and a memo-on hit-rate of at least 40% on the
    redundancy-bearing seq-2 tranche.

    It runs one worker: the hit-rate floor is a property of the memo, and
    with N workers the engine stripes the slice round-robin, so each
    worker's table sees only part of every prefix family (39% at two
    workers on this slice).  Multi-worker equivalence is gated in
    ``tests/memo/test_worker_memo.py`` and CI.
    """
    cpus = os.cpu_count() or 1
    workers = 1

    def one_campaign(memoize):
        spec = CampaignSpec(
            fs="nova", seq=2, max_workloads=MEMO_MAX_WORKLOADS,
            memoize=memoize,
        )
        path = tmp_path / ("memo-on" if memoize else "memo-off")
        start = time.perf_counter()
        merged = CampaignEngine(
            spec, str(path), EngineConfig(workers=workers),
        ).run()
        return merged, time.perf_counter() - start, path

    def experiment():
        return one_campaign(False), one_campaign(True)

    (off, off_wall, off_dir), (on, on_wall, on_dir) = run_once(
        benchmark, experiment
    )

    def overall_rate(merged):
        s = merged.summary
        total = s.memo_hits + s.memo_misses
        return s.memo_hits / total if total else 0.0

    def states_per_sec(merged, wall):
        return merged.summary.crash_states / wall if wall > 0 else 0.0

    def checks_per_state(merged):
        # States the checker actually ran on; read-set hits replay an
        # earlier check's verdict instead.
        s = merged.summary
        return s.memo_misses / s.crash_states if s.crash_states else 0.0

    off_seq2 = _tranche_hit_rates(off_dir).get("2", 0.0)
    on_seq2 = _tranche_hit_rates(on_dir).get("2", 0.0)

    rows = []
    for label, merged, wall, seq2 in (
        ("off", off, off_wall, off_seq2),
        ("on", on, on_wall, on_seq2),
    ):
        rows.append((
            label,
            f"{wall:.2f}",
            f"{overall_rate(merged) * 100:.1f}%",
            f"{seq2 * 100:.1f}%",
            str(merged.summary.memo_readset_hits),
            f"{checks_per_state(merged):.3f}",
            f"{states_per_sec(merged, wall):.0f}",
        ))
    print_table(
        f"Worker-lifetime check memo: nova seq-1..2 slice, "
        f"{on.summary.workloads_tested} workloads, "
        f"{workers} workers ({cpus} CPU(s))",
        ("memo", "wall (s)", "hit-rate", "seq-2 rate", "read-set hits",
         "checks/state", "states/s"),
        rows,
    )

    from repro.obs.history import append_record

    append_record(
        "BENCH_history.jsonl", "campaign_worker_memo",
        {
            "workloads": on.summary.workloads_tested,
            "off_seconds": off_wall,
            "on_seconds": on_wall,
            "off_hit_rate": overall_rate(off),
            "on_hit_rate": overall_rate(on),
            "off_seq2_hit_rate": off_seq2,
            "on_seq2_hit_rate": on_seq2,
            "off_states_per_sec": states_per_sec(off, off_wall),
            "on_states_per_sec": states_per_sec(on, on_wall),
            "on_readset_hits": on.summary.memo_readset_hits,
            "off_checks_per_state": checks_per_state(off),
            "on_checks_per_state": checks_per_state(on),
        },
        config={"cpus": cpus, "max_workloads": MEMO_MAX_WORKLOADS,
                "workers": workers,
                "device_size": ChipmunkConfig().device_size},
    )

    # Correctness first: the memo must not change the bug set.
    assert (on_dir / "bugs.json").read_bytes() == \
        (off_dir / "bugs.json").read_bytes(), (
        "memo-on campaign diverged from the memo-off bugs.json"
    )
    assert not on.quarantined and not off.quarantined

    # The worker-lifetime table is what moves the hit-rate on the tranche
    # that carries cross-workload redundancy.
    assert on_seq2 >= 0.40, (
        f"memo-on seq-2 hit-rate {on_seq2:.1%} < 40% floor"
    )
    assert on_seq2 > off_seq2

    ratio = states_per_sec(on, on_wall) / max(
        states_per_sec(off, off_wall), 1e-9
    )
    assert ratio >= 1.05, (
        f"memo gave no measurable states/sec gain: {ratio:.2f}x"
    )
