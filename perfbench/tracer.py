"""Run one ``python -m repro`` command in-process with layer spans.

Usage::

    python perfbench/tracer.py SPANS_DIR SRC_DIR -- campaign nova --seq 2 ...

The tracer imports the CLI, wraps the public functions each layer is
entered through (the table in ``layers.py``), then calls the CLI's
``main()``.  Campaign workers are forked from this process and inherit
the wrappers.  Every span is a ``[name, start, end, parent, workload]``
list kept in memory; each process writes its spans to
``SPANS_DIR/spans-<role>-<pid>.json`` as it exits.  Times come from
``time.perf_counter`` (the system-wide monotonic clock on Linux), so
spans of different processes share one time axis.

Nothing in the program under test is modified on disk: the wrappers
only exist in this process and its forks.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

clock = time.perf_counter


class Recorder:
    """The spans of one process, plus the stack that gives each a parent."""

    def __init__(self, role: str) -> None:
        self.reset(role)

    def reset(self, role: str) -> None:
        self.role = role
        self.spans: list = []
        self.stack: list = []
        #: Id of the workload being generated or run (0 before the first).
        self.workload = 0

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, clock(), 0.0, parent, self.workload])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = clock()
        self.stack.pop()

    def top(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def dump(self, spans_dir: str) -> None:
        path = os.path.join(spans_dir, f"spans-{self.role}-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"role": self.role, "spans": self.spans}, fh)


def timed(rec: Recorder, name: str, fn, new_workload: bool = False,
          under: str = None):
    """Wrap ``fn`` in a span.  ``new_workload`` starts a workload id;
    ``under`` records the span only when the innermost open span has
    that name (file-system calls count only inside a check)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if under is not None and rec.top() != under:
            return fn(*args, **kwargs)
        if new_workload:
            rec.workload += 1
        index = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(index)

    return wrapper


class _TimedIterator:
    """Each ``next()`` on the crash-state generator is one span."""

    def __init__(self, rec: Recorder, it) -> None:
        self._rec = rec
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        index = self._rec.open("enumerate")
        try:
            return next(self._it)
        finally:
            self._rec.close(index)


class _TimedContext:
    """Times a context manager's enter and exit, not its body."""

    def __init__(self, rec: Recorder, name: str, cm) -> None:
        self._rec = rec
        self._name = name
        self._cm = cm

    def __enter__(self):
        index = self._rec.open(self._name)
        try:
            return self._cm.__enter__()
        finally:
            self._rec.close(index)

    def __exit__(self, *exc):
        index = self._rec.open(self._name)
        try:
            return self._cm.__exit__(*exc)
        finally:
            self._rec.close(index)


class _TimedQueue:
    """A worker's task queue whose blocking ``get`` is a span."""

    def __init__(self, rec: Recorder, queue) -> None:
        self._rec = rec
        self._queue = queue

    def get(self, *args, **kwargs):
        index = self._rec.open("dispatch_wait")
        try:
            return self._queue.get(*args, **kwargs)
        finally:
            self._rec.close(index)


def _wrap_attr(rec, owner, attr, name, **kw) -> None:
    """Replace ``owner.attr`` (function, method or classmethod) by a
    timed wrapper, set on ``owner`` itself."""
    static = inspect.getattr_static(owner, attr)
    if isinstance(static, classmethod):
        setattr(owner, attr, classmethod(timed(rec, name, static.__func__, **kw)))
    else:
        setattr(owner, attr, timed(rec, name, static, **kw))


def import_cli():
    """Import the CLI and the modules its campaign command loads lazily."""
    import repro.__main__ as cli
    import repro.campaign.engine  # noqa: F401
    import repro.forensics.provenance  # noqa: F401

    return cli


def install(rec: Recorder, spans_dir: str, fs_name: str) -> None:
    """Wrap every layer entry point named in ``layers.py``."""
    from repro.campaign import engine, worker
    from repro.campaign.journal import CheckpointJournal
    from repro.core import harness, recovery_reads
    from repro.core.checker import CheckMemo, ConsistencyChecker
    from repro.forensics.provenance import ProvenanceRecorder
    from repro.fs.registry import fs_class
    from repro.pm.device import PMDevice
    from repro.workloads import ace
    from repro.workloads.fuzzer import WorkloadFuzzer

    _wrap_attr(rec, engine.CampaignEngine, "run", "engine.run")
    _wrap_attr(rec, engine, "merge_campaign", "merge")
    _wrap_attr(rec, CheckpointJournal, "write_item_done", "journal")
    _wrap_attr(rec, worker, "_append_result", "results_fsync")
    _wrap_attr(rec, harness.TestResult, "to_dict", "serialize")
    _wrap_attr(rec, ace, "workload_at", "gen", new_workload=True)
    _wrap_attr(rec, WorkloadFuzzer, "step", "fuzz.step", new_workload=True)
    _wrap_attr(rec, WorkloadFuzzer, "next_program", "gen")
    _wrap_attr(rec, harness.Chipmunk, "test_workload", "workload")
    _wrap_attr(rec, harness.Chipmunk, "record", "record")
    _wrap_attr(rec, harness, "run_oracle", "oracle")
    _wrap_attr(rec, harness, "triage_reports", "triage")
    for fn in ("persistence_breakdown", "store_region_counts"):
        _wrap_attr(rec, harness, fn, "analyze")
    _wrap_attr(rec, recovery_reads, "recovery_read_set", "analyze")
    _wrap_attr(rec, CheckMemo, "check", "memo.check")
    _wrap_attr(rec, CheckMemo, "key_of", "memo.key")
    _wrap_attr(rec, ConsistencyChecker, "check", "checker.check")
    _wrap_attr(rec, ProvenanceRecorder, "for_state", "provenance")
    fs = fs_class(fs_name)
    _wrap_attr(rec, fs, "mount", "mount", under="checker.check")
    _wrap_attr(rec, fs, "walk", "walk", under="checker.check")
    for op in ("creat", "unlink"):
        _wrap_attr(rec, fs, op, "usability", under="checker.check")

    enumerate_states = harness.enumerate_crash_states

    @functools.wraps(enumerate_states)
    def enumerate_crash_states(*args, **kwargs):
        return _TimedIterator(rec, enumerate_states(*args, **kwargs))

    harness.enumerate_crash_states = enumerate_crash_states

    cow_view = PMDevice.cow_view

    @functools.wraps(cow_view)
    def timed_cow_view(self, writes):
        return _TimedContext(rec, "cow_view", cow_view(self, writes))

    PMDevice.cow_view = timed_cow_view

    worker_main = worker.worker_main

    @functools.wraps(worker_main)
    def timed_worker_main(wid, spec_dict, task_q, *rest):
        # A forked worker starts with a copy of the parent's spans.
        rec.reset("worker")
        index = rec.open("worker")
        try:
            worker_main(wid, spec_dict, _TimedQueue(rec, task_q), *rest)
        finally:
            rec.close(index)
            rec.dump(spans_dir)

    worker.worker_main = timed_worker_main


def main(argv) -> int:
    spans_dir, src = argv[0], argv[1]
    if argv[2] != "--":
        raise SystemExit("usage: tracer.py SPANS_DIR SRC_DIR -- CLI-ARGS...")
    cli_args = argv[3:]
    rec = Recorder("main")
    sys.path.insert(0, src)
    index = rec.open("import")
    cli = import_cli()
    rec.close(index)
    install(rec, spans_dir, fs_name=cli_args[1])
    try:
        return cli.main(cli_args)
    finally:
        rec.dump(spans_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
