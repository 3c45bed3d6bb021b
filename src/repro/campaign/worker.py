"""Campaign worker: the process that actually runs workloads.

Each worker owns a private :class:`~repro.core.harness.Chipmunk` instance
rebuilt from the campaign spec (nothing heavier than a dict crosses the
process boundary) and a pair of queues: the parent pushes batches of
:class:`~repro.campaign.queue.WorkItem` on the task queue, the worker
streams one message per completed workload back on its result queue.
Per-item streaming is what gives the parent per-workload progress — the
engine's timeout clock resets on every message, and a killed worker only
orphans items whose results have not been streamed yet.

ACE items are regenerated worker-side from their index via
:func:`repro.workloads.ace.workload_at`; fuzz items run a whole seed
segment (a fresh :class:`~repro.workloads.fuzzer.WorkloadFuzzer` seeded
with the segment's seed) and stream one result per execution, so both
generators merge identically.

Queue messages are *not* crash-durable: ``multiprocessing.Queue`` buffers
through a feeder thread, so a worker that dies right after ``put`` can
lose results it already finished.  Each worker therefore also appends
every result to a per-incarnation fsync'd results file; on reaping a dead
worker the engine recovers completed items from that file and only the
genuinely in-flight workload is charged a retry.

Fault injection (tests only): the spec's engine config may name an item to
``crash`` (``os._exit``), ``hang`` (sleep past the timeout), or ``raise``
on, with a bounded number of occurrences tracked via marker files in the
campaign directory so the count survives worker respawns.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional

from repro.campaign.queue import WorkItem
from repro.campaign.spec import CampaignSpec
from repro.obs import Telemetry
from repro.workloads import ace
from repro.workloads.fuzzer import WorkloadFuzzer

#: Message tags on the worker → parent result queue.
MSG_READY = "ready"
MSG_RESULT = "result"
MSG_ITEM_ERROR = "item_error"
MSG_BATCH_DONE = "batch_done"
MSG_STOPPED = "stopped"

#: Parent → worker task queue messages.
TASK_BATCH = "batch"
TASK_STOP = "stop"

_ORPHAN_POLL_S = 2.0


def _fault_fires(fault: Optional[dict], item: WorkItem, campaign_dir: str) -> Optional[str]:
    """Check (and consume) one occurrence of an injected fault."""
    if not fault or fault.get("item_id") != item.item_id:
        return None
    times = int(fault.get("times", 1))
    slug = item.item_id.replace(":", "_")
    fired = sum(
        1 for name in os.listdir(campaign_dir)
        if name.startswith(f"fault.{slug}.")
    )
    if fired >= times:
        return None
    marker = os.path.join(campaign_dir, f"fault.{slug}.{fired}")
    with open(marker, "w", encoding="utf-8"):
        pass
    return str(fault.get("kind", "crash"))


def _append_result(fh, item_id: str, results: List[dict]) -> None:
    """Durably persist one result before it is queued to the parent."""
    fh.write(json.dumps({"id": item_id, "results": results}) + "\n")
    fh.flush()
    os.fsync(fh.fileno())


def _write_heartbeat(path: str, wid: int, item_id: Optional[str]) -> None:
    """Overwrite the worker's liveness beacon (best-effort, no fsync).

    ``repro watch`` reads these to tell a worker grinding through a slow
    workload from one that is wedged.  Liveness is advisory — losing a
    beacon to a crash costs nothing, so unlike the results file this is
    deliberately not durable.
    """
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(
                {"worker": wid, "item": item_id, "t": round(time.time(), 3)}
            ))
    except OSError:
        pass


def _run_item(chipmunk, spec: CampaignSpec, item: WorkItem) -> List[dict]:
    """Execute one work item, returning serialized per-workload results."""
    if item.kind == "ace":
        workload = ace.workload_at(item.seq, item.index, mode=spec.mode)
        result = chipmunk.test_workload(workload.core, setup=workload.setup)
        return [result.to_dict()]
    fuzzer = WorkloadFuzzer(chipmunk, seed=item.seed)
    results: List[dict] = []
    for _ in range(item.executions):
        results.append(fuzzer.step().to_dict())
    return results


def worker_main(
    wid: int,
    spec_dict: Dict[str, object],
    task_q,
    result_q,
    campaign_dir: str,
    fault: Optional[dict] = None,
    run_tag: str = "run",
) -> None:
    """Process entrypoint (top-level so it survives spawn-style pickling).

    ``run_tag`` distinguishes engine invocations: a resumed campaign's
    workers must not overwrite the original run's trace files.  The
    worker builds one :class:`~repro.core.harness.Chipmunk`, so its check
    memo keeps clean verdicts across every workload the worker runs.
    """
    spec = CampaignSpec.from_dict(spec_dict)
    telemetry = None
    if spec.trace:
        telemetry = Telemetry()
        telemetry.meta.update(
            fs=spec.fs, generator=spec.generator, worker=wid, run=run_tag,
        )
    chipmunk = spec.build_chipmunk(telemetry=telemetry)
    results_path = os.path.join(
        campaign_dir, f"worker-{run_tag}-{wid}.results.jsonl"
    )
    hb_path = os.path.join(campaign_dir, f"worker-{run_tag}-{wid}.hb")
    results_fh = open(results_path, "a", encoding="utf-8")
    _write_heartbeat(hb_path, wid, None)
    result_q.put((MSG_READY, wid))
    while True:
        try:
            message = task_q.get(timeout=_ORPHAN_POLL_S)
        except Exception:
            # Timeout: if the parent died (SIGKILL leaves no one to send
            # "stop"), we are reparented — exit rather than leak.
            if os.getppid() == 1:
                return
            continue
        if message[0] == TASK_STOP:
            break
        batch = [WorkItem.from_dict(d) for d in message[1]]
        for item in batch:
            _write_heartbeat(hb_path, wid, item.item_id)
            kind = _fault_fires(fault, item, campaign_dir)
            if kind == "crash":
                os._exit(41)
            elif kind == "hang":
                time.sleep(3600.0)
            elif kind == "raise":
                result_q.put((MSG_ITEM_ERROR, wid, item.item_id,
                              "injected fault"))
                continue
            try:
                results = _run_item(chipmunk, spec, item)
            except Exception as exc:  # noqa: BLE001 — fault boundary
                result_q.put((MSG_ITEM_ERROR, wid, item.item_id,
                              f"{type(exc).__name__}: {exc}"))
            else:
                _append_result(results_fh, item.item_id, results)
                result_q.put((MSG_RESULT, wid, item.item_id, results))
        _write_heartbeat(hb_path, wid, None)
        result_q.put((MSG_BATCH_DONE, wid))
    if telemetry is not None:
        telemetry.event("worker_stop", worker=wid)
        trace_path = os.path.join(
            campaign_dir, f"worker-{run_tag}-{wid}.trace.jsonl"
        )
        try:
            telemetry.export_jsonl(trace_path)
        except OSError:
            pass
    results_fh.close()
    result_q.put((MSG_STOPPED, wid))
