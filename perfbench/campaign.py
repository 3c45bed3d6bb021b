"""Launch one ``repro campaign`` process, time it, fold its journal and
check its output against a reference."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import List, Optional

#: A campaign taking longer than this is killed and counts as failed.
TIMEOUT_S = 150.0


@dataclass
class Launch:
    """One CLI process, timed from outside."""

    rc: int
    #: ``time.time()`` just before the process was started.
    started: float
    #: ``time.perf_counter()`` at start and after the process was reaped.
    t0: float
    t1: float
    #: user + sys of the process and every child it reaped (``os.wait4``).
    cpu_s: float
    #: Peak resident set of the process or any child it reaped.
    peak_rss_mb: float

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0


def launch(argv: List[str], env: dict, cwd: str, stderr_path: str) -> Launch:
    """Run ``argv`` to completion (killing its process group after
    :data:`TIMEOUT_S`) and reap it with ``os.wait4``."""
    with open(stderr_path, "wb") as err:
        started = time.time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err,
            start_new_session=True,
        )
        watchdog = threading.Timer(
            TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL)
        )
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM is turned into SystemExit by run.py):
            # take the campaign and its workers down with us.
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(
        rc=proc.returncode, started=started, t0=t0, t1=t1,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


@dataclass
class JournalFold:
    """What one campaign journal says about its run."""

    items: int = 0
    workloads: int = 0
    crash_states: int = 0
    #: Re-executions journaled items needed, plus quarantined items.
    retries: int = 0
    quarantined: int = 0
    meta_t: Optional[float] = None
    last_done_t: Optional[float] = None
    completed: bool = False

    @property
    def failed_items(self) -> int:
        return self.retries + self.quarantined


def fold_journal(path: str) -> JournalFold:
    fold = JournalFold()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            kind = record["type"]
            if kind == "campaign_meta":
                fold.items = int(record["n_items"])
                fold.meta_t = float(record["t"])
            elif kind == "item_done":
                fold.retries += int(record["retries"])
                fold.workloads += len(record["results"])
                fold.crash_states += sum(
                    int(r["n_crash_states"]) for r in record["results"]
                )
                fold.last_done_t = float(record["t"])
            elif kind == "item_quarantined":
                fold.quarantined += 1
            elif kind == "campaign_done":
                fold.completed = True
    return fold


@dataclass
class Split:
    """A campaign's wall time in three parts: set-up (launch to the
    journal's ``campaign_meta``), the run (to the last ``item_done``) and
    the tail (merge, report, exit)."""

    setup_s: float
    run_s: float
    tail_s: float


def split(run: Launch, fold: JournalFold) -> Split:
    if fold.meta_t is None or fold.last_done_t is None:
        raise ValueError("journal has no campaign_meta or no item_done")
    setup = fold.meta_t - run.started
    work = fold.last_done_t - fold.meta_t
    return Split(setup_s=setup, run_s=work, tail_s=run.wall_s - setup - work)


@dataclass
class Reference:
    bugs: bytes
    workloads: int
    crash_states: int


def load_reference(directory: str) -> Optional[Reference]:
    try:
        with open(os.path.join(directory, "bugs.json"), "rb") as fh:
            bugs = fh.read()
        with open(os.path.join(directory, "totals.json"),
                  encoding="utf-8") as fh:
            totals = json.load(fh)
    except FileNotFoundError:
        return None
    return Reference(bugs, int(totals["workloads"]), int(totals["crash_states"]))


def save_reference(directory: str, campaign_dir: str, fold: JournalFold) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(campaign_dir, "bugs.json"), "rb") as fh:
        bugs = fh.read()
    with open(os.path.join(directory, "bugs.json"), "wb") as fh:
        fh.write(bugs)
    with open(os.path.join(directory, "totals.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workloads": fold.workloads,
                   "crash_states": fold.crash_states}, fh)
        fh.write("\n")


def check_output(run: Launch, campaign_dir: str, fold: Optional[JournalFold],
                 reference: Reference) -> List[str]:
    """Every way the run's output differs from the reference (empty when
    it matches).  Exit code 1 means "bugs found" and is not a failure."""
    problems = []
    if run.rc not in (0, 1):
        problems.append(f"exit code {run.rc}")
    if fold is None or not fold.completed:
        problems.append("journal missing or campaign not completed")
        return problems
    if fold.workloads != reference.workloads:
        problems.append(
            f"{fold.workloads} workloads, reference {reference.workloads}"
        )
    if fold.crash_states != reference.crash_states:
        problems.append(
            f"{fold.crash_states} crash states, "
            f"reference {reference.crash_states}"
        )
    try:
        with open(os.path.join(campaign_dir, "bugs.json"), "rb") as fh:
            bugs = fh.read()
    except FileNotFoundError:
        problems.append("no bugs.json")
    else:
        if bugs != reference.bugs:
            problems.append("bugs.json differs from the reference")
    return problems
