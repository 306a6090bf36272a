"""Tests for the trace inspector (span-tree reconstruction + rendering)."""

from __future__ import annotations

import pytest

from repro.obs.events import JsonlSink
from repro.obs.inspector import load_trace, render_compare, render_summary
from repro.obs.tracer import Tracer


@pytest.fixture
def trace_path(tmp_path):
    path = tmp_path / "run.jsonl"
    tracer = Tracer(JsonlSink(path))
    tracer.emit("run", command="solve", algorithm="bl", seed=3, n=100, m=200)
    with tracer.span("bl/solve", n=100, m=200):
        for i in range(3):
            with tracer.span("bl/round", round=i) as sp:
                sp.set(n_after=100 - 10 * (i + 1))
    tracer.flush_metrics()
    tracer.close()
    return path


class TestLoadTrace:
    def test_tree_reconstruction(self, trace_path):
        doc = load_trace(trace_path)
        assert doc.run["algorithm"] == "bl"
        (root,) = doc.roots
        assert root.name == "bl/solve"
        assert [c.name for c in root.children] == ["bl/round"] * 3
        # children restored to open order even though closes arrive first
        assert [c.attrs["round"] for c in root.children] == [0, 1, 2]

    def test_metrics_captured(self, trace_path):
        doc = load_trace(trace_path)
        assert doc.metrics is not None
        assert "counters" in doc.metrics

    def test_orphan_span_becomes_root(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.emit({"type": "span", "id": 5, "name": "x", "wall_ns": 10, "parent": 99})
        sink.close()
        doc = load_trace(path)
        assert [s.name for s in doc.roots] == ["x"]


class TestRenderSummary:
    def test_contains_tree_rollup_and_run(self, trace_path):
        text = render_summary(trace_path)
        assert "run: command=solve" in text
        assert "bl/solve" in text
        assert "×3" in text  # collapsed sibling rounds
        assert "per-phase rollup" in text

    def test_sparkline_for_repeated_spans(self, trace_path):
        text = render_summary(trace_path)
        assert "bl/round" in text.split("trajectories")[-1]

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        JsonlSink(path).close()
        assert "no spans recorded" in render_summary(path)

    def test_kernel_dispatch_table(self, tmp_path):
        from repro.obs.metrics import isolated_registry

        path = tmp_path / "run.jsonl"
        with isolated_registry() as reg:
            tracer = Tracer(JsonlSink(path), registry=reg)
            with tracer.span("bl/solve"):
                reg.counter("kernels/dispatch_shape/d3-u1k/bitset").inc()
                reg.counter("kernels/dispatch_shape/d4plus-u4k/bitset").inc(2)
            tracer.flush_metrics()
            tracer.close()
        text = render_summary(path)
        assert "kernel dispatch" in text
        assert "d3-u1k" in text and "d4plus-u4k" in text
        assert "**kernel dispatch (backend x shape bucket)**" in text


class TestRenderCompare:
    def test_deltas_and_missing_sides(self, trace_path, tmp_path):
        other = tmp_path / "other.jsonl"
        tracer = Tracer(JsonlSink(other))
        with tracer.span("bl/solve"):
            pass
        with tracer.span("kuw/solve"):
            pass
        tracer.close()
        text = render_compare(trace_path, other)
        assert "trace compare" in text
        assert "bl/solve" in text and "kuw/solve" in text
        assert "%" in text  # at least one relative delta
        assert "—" in text  # spans missing from stream A
