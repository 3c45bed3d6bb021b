"""Span self-time arithmetic and wall-time attribution."""

import pytest

import layers


def span(name, start, end, parent=-1):
    return [name, start, end, parent, 0]


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            span("workload", 0.0, 10.0),
            span("record", 1.0, 3.0, 0),
            span("memo.check", 4.0, 9.0, 0),
            span("checker.check", 5.0, 8.0, 2),
            span("mount", 5.5, 6.0, 3),
        ]
        free = layers.self_intervals(spans)
        assert free[0] == [(0.0, 1.0), (3.0, 4.0), (9.0, 10.0)]
        assert free[2] == [(4.0, 5.0), (8.0, 9.0)]
        assert free[3] == [(5.0, 5.5), (6.0, 8.0)]
        assert free[4] == [(5.5, 6.0)]
        total = sum(b - a for f in free for a, b in f)
        assert total == pytest.approx(10.0)

    def test_overlapping_children_count_once(self):
        spans = [span("a", 0.0, 10.0), span("b", 2.0, 6.0, 0),
                 span("c", 4.0, 8.0, 0)]
        assert layers.self_intervals(spans)[0] == [(0.0, 2.0), (8.0, 10.0)]

    def test_union_and_clip(self):
        assert layers.union_length([(0, 2), (1, 3), (5, 6)]) == 4
        assert layers.clipped([(0, 2), (5, 6)], 1, 5.5) == 1.5


def traced_run():
    """Launch 0, exit 20.  Main: import 0.5-1, engine.run 2-18 with a
    journal write 7-8 and merge 15-17 (triage 16-16.5 inside it).
    Two workers start their first workload at 3 and 3.5."""
    main = [
        span("import", 0.5, 1.0),
        span("engine.run", 2.0, 18.0),
        span("journal", 7.0, 8.0, 1),
        span("merge", 15.0, 17.0, 1),
        span("triage", 16.0, 16.5, 3),
    ]
    w1 = [
        span("worker", 2.5, 15.0),
        span("workload", 3.0, 9.0, 0),
        span("checker.check", 4.0, 8.0, 1),
        span("dispatch_wait", 9.0, 15.0, 0),
    ]
    w2 = [
        span("worker", 2.5, 15.0),
        span("workload", 3.5, 14.0, 0),
        span("record", 3.5, 5.0, 1),
    ]
    return main, [w1, w2]


class TestAttribution:
    def test_additive_metrics_sum_to_wall(self):
        main, workers = traced_run()
        m = layers.attribute(main, workers, 0.0, 20.0)
        assert m["trace.wall_s"] == 20.0
        assert layers.additive_sum(m) == pytest.approx(20.0)

    def test_main_process_windows(self):
        m = layers.attribute(*traced_run(), 0.0, 20.0)
        assert m["startup.import_s"] == pytest.approx(0.5)
        assert m["campaign.spawn_s"] == pytest.approx(1.0)  # run 2 -> 3
        assert m["campaign.journal_s"] == pytest.approx(1.0)
        assert m["campaign.merge_s"] == pytest.approx(1.5)
        assert m["triage.s"] == pytest.approx(0.5)
        # 0-0.5, 1-2, engine.run after merge 17-18, 18-20.
        assert m["unattributed_s"] == pytest.approx(4.5)

    def test_run_phase_is_shared_over_worker_time(self):
        m = layers.attribute(*traced_run(), 0.0, 20.0)
        # Run phase 3-15 minus the journal write: 11 s of waiting over
        # 24 worker-seconds (12 s each, clipped to the run phase).
        scale = 11.0 / 24.0
        assert m["checker.semantics_s"] == pytest.approx(4.0 * scale)
        assert m["harness.record_s"] == pytest.approx(1.5 * scale)
        assert m["campaign.dispatch_wait_s"] == pytest.approx(6.0 * scale)
        assert m["harness.s"] == pytest.approx(16.5 * scale)
        assert m["checker.check_s"] == pytest.approx(4.0 * scale)

    def test_counts_and_latency(self):
        m = layers.attribute(*traced_run(), 0.0, 20.0)
        assert m["harness.workload_ms_p50"] == pytest.approx(6000.0)

    def test_needs_workloads(self):
        main, workers = traced_run()
        workers = [[s for s in w if s[0] != "workload"] for w in workers]
        with pytest.raises(ValueError):
            layers.attribute(main, workers, 0.0, 20.0)


def test_tail_quantile_keeps_ten_samples_beyond():
    assert layers.tail_quantile(655) == 0.9
    assert layers.tail_quantile(3080) == 0.99
    assert layers.tail_quantile(20000) == 0.999
    assert layers.percentile([5, 1, 4, 2, 3], 0.5) == 3
