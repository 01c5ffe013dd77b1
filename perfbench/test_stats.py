"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from graph_worker import run_breakdown
from stats import busy_rates, covered, percentile, self_time


class TestPercentile:
    def test_value_comes_with_its_sample_count(self):
        p = percentile([float(v) for v in range(20, 0, -1)], 95)
        assert (p.value, p.count, p.beyond) == (19.0, 20, 1)

    def test_median_is_nearest_rank(self):
        p = percentile([3.0, 1.0, 2.0, 4.0], 50)
        assert (p.value, p.count, p.beyond) == (2.0, 4, 2)

    def test_describe_states_count_and_tail(self):
        text = percentile(list(range(1, 201)), 95).describe()
        assert text == "p95 = 190 ms (n=200, 10 beyond)"

    @pytest.mark.parametrize("q", [0, -1, 101])
    def test_rejects_bad_q(self, q):
        with pytest.raises(ValueError):
            percentile([1.0], q)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestRates:
    def test_busy_rates_group_runs_by_start_window(self):
        rates = busy_rates([0.1, 0.3, 0.6, 0.9], [0.1, 0.3, 0.2, 0.2], 8, 0.5)
        assert rates == pytest.approx([40.0, 40.0])


class TestSelfTime:
    def test_overlapping_children_count_once(self):
        # [1, 6] from two overlapping children, [8, 10] from one that runs
        # past the parent's end.
        assert covered(0.0, 10.0, [(3.0, 6.0), (1.0, 4.0), (8.0, 12.0)]) == 7.0
        assert self_time(0.0, 10.0, [(3.0, 6.0), (1.0, 4.0), (8.0, 12.0)]) == 3.0

    def test_nested_child_adds_nothing(self):
        assert self_time(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0)]) == 4.0

    def test_children_outside_the_parent_are_ignored(self):
        assert self_time(5.0, 6.0, [(0.0, 1.0), (7.0, 9.0)]) == 1.0

    def test_run_breakdown_attributes_time_per_node_and_stage(self):
        def span(sid, name, parent, start, end, **attrs):
            return SimpleNamespace(
                span_id=sid, name=name, parent_id=parent, start=start, end=end,
                duration=end - start, attrs=attrs,
            )

        spans = [
            span(1, "bench.graph.run", None, 0.0, 10.0),
            span(2, "bench.engine.run", 1, 1.0, 4.0, node="c1"),
            span(3, "request", 2, 1.0, 4.0),
            span(4, "execute.fused", 3, 2.0, 3.5),
            span(5, "fused.stage1", 4, 2.0, 2.5),
            span(6, "fused.stage2", 4, 2.5, 3.0),
            span(7, "fused.stage3", 4, 3.0, 3.5),
            span(8, "bench.engine.run", 1, 5.0, 9.0, node="c2"),
            span(9, "request", 8, 5.0, 9.0),
            span(10, "execute.im2col", 9, 6.0, 8.0),
        ]
        row = run_breakdown(spans, {"c1": "winograd", "c2": "im2col"})
        assert row["graph.self"] == 3.0
        assert row["engine.run.c1"] == 3.0
        assert row["engine.dispatch.c1"] == 1.5
        assert row["engine.dispatch.c2"] == 2.0
        assert row["portfolio.execute.winograd"] == 1.5
        assert row["portfolio.execute.im2col"] == 2.0
        assert row["fused.input_transform"] == 0.5
        assert row["fused.output_transform"] == 0.5
        assert row["obs.spans"] == 7
