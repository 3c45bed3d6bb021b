"""Journals written with inline per-report provenance still resume and diff.

Result dicts store each workload's provenance lineage table and repro
context once, with each report carrying its crash identity and a table
index.  Journals and per-worker results files written before that carry
every report's provenance inline; a campaign directory holding them must
still resume to the same ``bugs.json`` and diff to zero divergence.
"""

import json
import shutil
from types import SimpleNamespace

from repro.__main__ import main
from repro.campaign import (
    CampaignEngine,
    CampaignSpec,
    CheckpointJournal,
    EngineConfig,
)
from repro.campaign.queue import WorkItem
from repro.core import harness

SPEC = CampaignSpec(fs="nova", generator="fuzz", seed=0, segments=4,
                    executions=3)


def run(campaign_dir, resume=False):
    engine = CampaignEngine(
        SPEC, str(campaign_dir),
        EngineConfig(workers=1, batch_size=2, item_timeout=60.0),
        resume=resume,
    )
    return engine.run()


def inline_form(result_dict):
    """The pre-table serialization: every report's provenance inline."""
    result = harness.TestResult.from_dict(result_dict)
    old = {k: v for k, v in result_dict.items() if k != "provenance_tables"}
    old["reports"] = [r.to_dict() for r in result.reports]
    return old


def rewrite_inline(campaign_dir, keep_ordinals=None):
    """Convert a journal to the inline form, optionally keeping only some
    items (and then dropping the completion marker, as a kill would)."""
    path = campaign_dir / "journal.jsonl"
    lines = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record["type"] == "item_done":
            if keep_ordinals is not None and \
                    record["ordinal"] not in keep_ordinals:
                continue
            record["results"] = [inline_form(r) for r in record["results"]]
        elif record["type"] == "campaign_done" and keep_ordinals is not None:
            continue
        lines.append(json.dumps(record, separators=(",", ":")))
    path.write_text("\n".join(lines) + "\n")
    for name in ("bugs.json", "report.md", "coverage.md"):
        (campaign_dir / name).unlink()


def provenances(result_dicts):
    return [
        report.provenance
        for d in result_dicts
        for report in harness.TestResult.from_dict(d).reports
    ]


def test_fresh_journal_stores_tables(tmp_path):
    run(tmp_path)
    state = CheckpointJournal.replay(str(tmp_path))
    dicts = [d for results in state.results.values() for d in results]
    assert any(d.get("provenance_tables") for d in dicts)
    assert all(
        "table" in r["provenance"] for d in dicts for r in d["reports"]
    )


def test_inline_journal_resumes_to_byte_equal_bugs_json(tmp_path):
    fresh = tmp_path / "fresh"
    run(fresh)
    partial = tmp_path / "partial"
    shutil.copytree(fresh, partial)
    rewrite_inline(partial, keep_ordinals={0, 1})
    merged = run(partial, resume=True)
    assert merged.engine["items_resumed"] == 2
    assert (partial / "bugs.json").read_bytes() == \
        (fresh / "bugs.json").read_bytes()


def test_diff_strict_old_vs_new_format_is_zero(tmp_path, capsys):
    fresh = tmp_path / "fresh"
    run(fresh)
    old = tmp_path / "old"
    shutil.copytree(fresh, old)
    rewrite_inline(old)
    run(old, resume=True)  # re-merges from the inline journal alone
    assert (old / "bugs.json").read_bytes() == (fresh / "bugs.json").read_bytes()
    out_md = tmp_path / "diff.md"
    assert main(["diff", str(old), str(fresh), "--strict",
                 "--out", str(out_md)]) == 0
    text = out_md.read_text()
    assert "0 appeared, 0 disappeared" in text
    assert "Strict serialized-report equality: **equal**" in text


def test_recover_results_reads_both_shapes(tmp_path):
    fresh = tmp_path / "fresh"
    run(fresh)
    state = CheckpointJournal.replay(str(fresh))
    new_id, old_id = sorted(state.results)[:2]
    new_results = state.results[new_id]
    old_results = [inline_form(d) for d in state.results[old_id]]
    assert any(r["reports"] for r in old_results)

    salvage = tmp_path / "salvage"
    salvage.mkdir()
    results_path = salvage / "worker-x-0.results.jsonl"
    with open(results_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": new_id, "results": new_results}) + "\n")
        fh.write(json.dumps({"id": old_id, "results": old_results}) + "\n")
        fh.write('{"id": "torn')  # the crash tore the last line
    handle = SimpleNamespace(
        wid=0, results_path=str(results_path),
        in_flight={
            item_id: WorkItem(item_id=item_id, kind="fuzz",
                              ordinal=state.ordinals[item_id])
            for item_id in (new_id, old_id)
        },
    )
    journal = CheckpointJournal(str(salvage))
    journal.open()
    recovered = {}
    CampaignEngine(SPEC, str(salvage))._recover_results(
        handle, journal, recovered, {}
    )
    journal.close()
    assert handle.in_flight == {}
    assert recovered == {new_id: new_results, old_id: old_results}
    replayed = CheckpointJournal.replay(str(salvage))
    assert replayed.results == recovered
    assert provenances(replayed.results[old_id]) == \
        provenances(state.results[old_id])
    assert provenances(replayed.results[new_id]) == \
        provenances(state.results[new_id])
