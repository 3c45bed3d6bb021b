"""Repo benchmark: fixed campaigns of ``python -m repro campaign``.

One run::

    python3 perfbench/run.py --workload nova-ace-seq2 --seed 0 \\
        --seconds 30 --trace 0

runs the workload's campaign again and again for ``--seconds``, each time
in a fresh campaign directory, timing the CLI process from outside and
checking its ``bugs.json``, workload count and crash-state count against
a reference.  The last line of standard output is one JSON object:
``correct``, ``attempted`` and ``failed`` work items, and the medians of
the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``, see ``layers.py``).

``--all`` runs every workload and prints each metric by name and unit;
it exits 1 when any run fails its output check.

Only ``--seed`` of the fuzz workload changes its inputs; the ACE
workloads enumerate a fixed space and ignore it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
import uuid
from dataclasses import dataclass
from typing import Dict, List, Tuple

import campaign
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout: campaign dirs, generated references.
WORK = os.path.join(ROOT, ".perfbench")


@dataclass(frozen=True)
class Workload:
    name: str
    fs: str
    #: ``campaign`` flags of the timed run.
    args: Tuple[str, ...]
    #: Flags of the serial reference run whose output every run must match.
    reference_args: Tuple[str, ...]
    #: Flags of the small discarded run that compiles ``.pyc`` files.
    warmup_args: Tuple[str, ...]
    seeded: bool = False

    def seed_args(self, seed: int) -> Tuple[str, ...]:
        # The CLI's own seed space: seed s runs segments s .. s+99.
        return ("--seed", str(seed)) if self.seeded else ()

    def ref_key(self, seed: int) -> str:
        return f"{self.name}-seed{seed}" if self.seeded else self.name


#: Many short fuzzer segments: a program's cost is heavy-tailed (one
#: segment can cost 4x the mean), so the sum over many independent
#: segments varies far less from seed to seed than a few long ones do.
FUZZ_SEGMENTS = 100
FUZZ_EXECUTIONS = "4"
ACE_SEQ2_PREFIX = "600"

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "nova-ace-seq2", "nova",
            # One worker: with two, the main process (journaling ~35 KB
            # per workload) and both workers contend for two CPUs, and
            # wall time swings by +-6% from one repetition to the next.
            args=("--seq", "2", "--max-workloads", ACE_SEQ2_PREFIX,
                  "--workers", "1"),
            reference_args=("--seq", "2", "--max-workloads", ACE_SEQ2_PREFIX,
                            "--workers", "1", "--no-memoize",
                            "--crash-plans", "subset"),
            warmup_args=("--seq", "2", "--max-workloads", "3",
                         "--workers", "1"),
        ),
        Workload(
            "ext4dax-ace-seq2", "ext4-dax",
            args=("--seq", "2", "--workers", "2"),
            reference_args=("--seq", "2", "--workers", "1", "--no-memoize",
                            "--crash-plans", "subset"),
            warmup_args=("--seq", "2", "--max-workloads", "3",
                         "--workers", "2"),
        ),
        Workload(
            "nova-fuzz", "nova",
            args=("--generator", "fuzz", "--segments", str(FUZZ_SEGMENTS),
                  "--executions", FUZZ_EXECUTIONS, "--workers", "1"),
            # Memo on: memo-on and memo-off runs of fuzz programs report
            # different states, which can move cluster exemplars in
            # bugs.json (see README.md).
            reference_args=("--generator", "fuzz", "--segments",
                            str(FUZZ_SEGMENTS), "--executions", FUZZ_EXECUTIONS,
                            "--workers", "1", "--crash-plans", "subset"),
            warmup_args=("--generator", "fuzz", "--segments", "1",
                         "--executions", "3", "--workers", "1"),
            seeded=True,
        ),
    )
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "states_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    units = {name: "s" for name in layers.ADDITIVE}
    units.update({
        "harness.s": "s",
        "checker.check_s": "s",
        "harness.workload_ms_p50": "ms",
        "harness.workload_ms_tail": "ms",
        "replayer.states": "count",
        "forensics.captures": "count",
        "memo.hit_rate": "ratio",
        "memo.checks_per_state": "ratio",
        "campaign.journal_bytes_per_workload": "bytes",
        "trace.wall_s": "s",
        "trace.overhead_frac": "ratio",
    })
    return units


class Bench:
    """Runs campaigns of one checkout; every file it writes is under
    :data:`WORK`."""

    def __init__(self) -> None:
        # Bytecode is cached (under WORK) whatever the caller's environment
        # says, so the warm-up run keeps compilation out of setup_s.
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0",
                        PYTHONPYCACHEPREFIX=os.path.join(WORK, "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.runs = os.path.join(WORK, "runs")
        os.makedirs(self.runs, exist_ok=True)

    def fresh_dir(self) -> str:
        return os.path.join(self.runs, uuid.uuid4().hex)

    def campaign(self, workload: Workload, flags, trace_dir: str = None):
        """Run one campaign; return (launch, campaign dir, journal fold)."""
        out = self.fresh_dir()
        cli = ["campaign", workload.fs, *flags, "--out", out]
        if trace_dir is None:
            argv = [sys.executable, "-m", "repro", *cli]
        else:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"),
                    trace_dir, SRC, "--", *cli]
        run = campaign.launch(argv, self.env, ROOT, out + ".stderr")
        journal = os.path.join(out, "journal.jsonl")
        fold = campaign.fold_journal(journal) if os.path.exists(journal) else None
        return run, out, fold

    def discard(self, out: str) -> None:
        shutil.rmtree(out, ignore_errors=True)
        try:
            os.remove(out + ".stderr")
        except FileNotFoundError:
            pass

    def stderr_tail(self, out: str) -> str:
        try:
            with open(out + ".stderr", encoding="utf-8", errors="replace") as fh:
                return fh.read()[-2000:]
        except FileNotFoundError:
            return ""

    def reference(self, workload: Workload, seed: int) -> campaign.Reference:
        """The committed reference, else a cached one, else generate it."""
        key = workload.ref_key(seed)
        for base in (os.path.join(HERE, "refs"), os.path.join(WORK, "refs")):
            ref = campaign.load_reference(os.path.join(base, key))
            if ref is not None:
                return ref
        run, out, fold = self.campaign(
            workload, (*workload.reference_args, *workload.seed_args(seed))
        )
        if run.rc not in (0, 1) or fold is None or not fold.completed:
            raise RuntimeError(
                f"reference run for {key} failed (exit {run.rc}):\n"
                + self.stderr_tail(out)
            )
        campaign.save_reference(os.path.join(WORK, "refs", key), out, fold)
        self.discard(out)
        return campaign.load_reference(os.path.join(WORK, "refs", key))

    def warm_up(self, workload: Workload, seed: int) -> None:
        _, out, _ = self.campaign(
            workload, (*workload.warmup_args, *workload.seed_args(seed))
        )
        self.discard(out)


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    problems: List[str]


def checked(bench: Bench, workload: Workload, seed: int, ref, trace_dir=None):
    """One campaign with its output check:
    (launch, fold, problems, journal size in bytes)."""
    run, out, fold = bench.campaign(
        workload, (*workload.args, *workload.seed_args(seed)), trace_dir
    )
    problems = campaign.check_output(run, out, fold, ref)
    if problems and run.rc not in (0, 1):
        problems.append(bench.stderr_tail(out))
    journal_bytes = os.path.getsize(os.path.join(out, "journal.jsonl")) \
        if fold is not None else 0
    bench.discard(out)
    return run, fold, problems, journal_bytes


def fits(started: float, durations: List[float], seconds: float) -> bool:
    """Whether another repetition of median length ends within budget."""
    if not durations:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(durations) <= seconds


def measure(bench: Bench, workload: Workload, seed: int, seconds: float,
            ref) -> Outcome:
    """Untraced repetitions for ``seconds``; medians of the metrics."""
    rows: List[Dict[str, float]] = []
    durations: List[float] = []
    attempted = failed = 0
    problems: List[str] = []
    started = time.perf_counter()
    while fits(started, durations, seconds):
        run, fold, found, _ = checked(bench, workload, seed, ref)
        durations.append(run.wall_s)
        items = fold.items if fold is not None and fold.items else 1
        attempted += items
        if found:
            failed += items
            problems.extend(found)
            break
        failed += fold.failed_items
        parts = campaign.split(run, fold)
        rows.append({
            "wall_s": run.wall_s,
            "setup_s": parts.setup_s,
            "states_per_s": fold.crash_states / parts.run_s,
            "cpu_s": run.cpu_s,
            "peak_rss_mb": run.peak_rss_mb,
            "tail_s": parts.tail_s,
        })
    metrics = {
        name: statistics.median(row[name] for row in rows) if rows else 0.0
        for name in END_TO_END
    }
    if rows:
        metrics["tail_s"] = statistics.median(row["tail_s"] for row in rows)
    return Outcome(not problems, attempted, failed, metrics, problems)


def trace(bench: Bench, workload: Workload, seed: int, seconds: float,
          ref) -> Outcome:
    """Pairs of (untraced, traced) runs for ``seconds``; the per-layer
    metrics of the traced run with the median wall time."""
    traced: List[Dict[str, float]] = []
    untraced: List[float] = []
    durations: List[float] = []
    attempted = failed = 0
    problems: List[str] = []
    started = time.perf_counter()
    while fits(started, durations, seconds):
        pair_t0 = time.perf_counter()
        run, fold, found, _ = checked(bench, workload, seed, ref)
        untraced.append(run.wall_s)
        spans_dir = bench.fresh_dir()
        os.makedirs(spans_dir)
        trun, tfold, traced_problems, journal_bytes = checked(
            bench, workload, seed, ref, trace_dir=spans_dir
        )
        durations.append(time.perf_counter() - pair_t0)
        for f in (fold, tfold):
            items = f.items if f is not None and f.items else 1
            attempted += items
            failed += items if found or traced_problems else f.failed_items
        if found or traced_problems:
            problems.extend(found + traced_problems)
            shutil.rmtree(spans_dir, ignore_errors=True)
            break
        main, workers = layers.load_spans(spans_dir)
        shutil.rmtree(spans_dir, ignore_errors=True)
        metrics = layers.attribute(main, workers, trun.t0, trun.t1)
        metrics["campaign.journal_bytes_per_workload"] = (
            journal_bytes / tfold.workloads
        )
        traced.append(metrics)
    if not traced:
        return Outcome(False, attempted, failed,
                       {name: 0.0 for name in per_layer_units()}, problems)
    traced.sort(key=lambda m: m["trace.wall_s"])
    metrics = traced[(len(traced) - 1) // 2]
    metrics["trace.overhead_frac"] = (
        statistics.median(m["trace.wall_s"] for m in traced)
        / statistics.median(untraced) - 1
    )
    return Outcome(not problems, attempted, failed, metrics, problems)


def run_workload(bench: Bench, name: str, seed: int, seconds: float,
                 traced: bool) -> Outcome:
    workload = WORKLOADS[name]
    try:
        ref = bench.reference(workload, seed)
    except RuntimeError as exc:
        units = per_layer_units() if traced else END_TO_END
        return Outcome(False, 1, 1, {m: 0.0 for m in units}, [str(exc)])
    bench.warm_up(workload, seed)
    if traced:
        return trace(bench, workload, seed, seconds, ref)
    return measure(bench, workload, seed, seconds, ref)


def result_line(outcome: Outcome, units: Dict[str, str]) -> str:
    return json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    })


def print_table(name: str, outcome: Outcome, units: Dict[str, str],
                traced: bool) -> None:
    status = "ok" if outcome.correct else "OUTPUT CHECK FAILED"
    print(f"== {name}: {status}, {outcome.attempted} items attempted, "
          f"{outcome.failed} failed "
          f"(failed_frac {outcome.failed / outcome.attempted:.4f})")
    extra = {} if traced else {"tail_s": "s"}
    for metric, unit in {**units, **extra}.items():
        if metric in outcome.metrics:
            print(f"  {metric:40s} {outcome.metrics[metric]:14.6f} {unit}")
    if traced and outcome.correct:
        m = outcome.metrics
        print(f"  additive layers + unattributed_s = "
              f"{layers.additive_sum(m):.6f} s; trace.wall_s = "
              f"{m['trace.wall_s']:.6f} s")
        if m["harness.s"] > 0:
            for share in ("checker.check_s", "forensics.provenance_s"):
                print(f"  {share} / harness.s = {m[share] / m['harness.s']:.3f}")
    for problem in outcome.problems:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true",
                        help="run every workload and print a table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "repro", "__main__.py")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    units = per_layer_units() if args.trace else END_TO_END
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = Bench()
    try:
        if args.all:
            ok = True
            for name in WORKLOADS:
                outcome = run_workload(bench, name, args.seed, args.seconds,
                                       bool(args.trace))
                print_table(name, outcome, units, bool(args.trace))
                ok &= outcome.correct
            return 0 if ok else 1
        outcome = run_workload(bench, args.workload, args.seed, args.seconds,
                               bool(args.trace))
        for problem in outcome.problems:
            print(f"problem: {problem}", file=sys.stderr)
        print(result_line(outcome, units))
        return 0
    finally:
        shutil.rmtree(bench.runs, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
