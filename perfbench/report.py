"""Metric names, the run result, and the printed ledger table."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from typing import Mapping

from perfbench.ledger import Span, median, percentile, tail_percentile

#: End-to-end metrics, reported by every workload with tracing off.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run.  A workload that does not cross
#: a layer reports 0 for it: that layer spent no time on its operations.
PER_LAYER = {
    "service.transport_ms_p50": "ms",
    "service.wait_ms_p50": "ms",
    "service.encode_ms_p50": "ms",
    "service.batch_cells_mean": "count",
    "service.cache_hit_frac": "frac",
    "service.instances_held": "count",
    "hypergraph.parse_ms_p50": "ms",
    "hypergraph.content_hash_calls_per_op": "count",
    "hypergraph.content_hash_ms_per_op": "ms",
    "hypergraph.updates.apply_ms_p50": "ms",
    "hypergraph.updates.noop_frac": "frac",
    "kernels.dispatch_us_p50": "us",
    "kernels.dense_frac": "frac",
    "core.sbl_ms_p50": "ms",
    "core.bl_ms_p50": "ms",
    "core.kuw_ms_p50": "ms",
    "core.greedy_ms_p50": "ms",
    "core.rounds_total": "count",
    "core.pram_depth_total": "count",
    "validate.check_mis_ms_p50": "ms",
    "dynamic.localize_ms_p50": "ms",
    "dynamic.patch_frac": "frac",
    "dynamic.repair_frac": "frac",
    "dynamic.decide_us_p50": "us",
    "exec.cell_ms_p50": "ms",
    "exec.busy_frac": "frac",
    "exec.dispatch_ms_per_cell": "ms",
    "exec.speedup_vs_serial": "x",
    "exec.publish_ms_per_pass": "ms",
    "generators.build_ms_per_pass": "ms",
    "trace.unattributed_frac": "frac",
    "trace.overhead_frac": "frac",
}


@dataclass
class OpLog:
    """What one timed phase did: per-op latency and the phase's wall time."""

    latencies_ns: list[int] = field(default_factory=list)
    completed: int = 0
    attempted: int = 0
    failed: int = 0
    wall_ns: int = 0

    @property
    def throughput(self) -> float:
        return self.completed / (self.wall_ns / 1e9) if self.wall_ns else 0.0


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    lines: list[str] = field(default_factory=list)
    #: Traced runs: every recorded span, the timed operations as "op".
    spans: list[Span] = field(default_factory=list)

    def as_json(self, trace: bool) -> dict:
        units = PER_LAYER if trace else END_TO_END
        missing = set(units) - set(self.metrics)
        if missing:
            raise KeyError(f"metrics not measured: {sorted(missing)}")
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": float(self.metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        }


def op_spans(ops: list[tuple[int, int]]) -> list[Span]:
    return [Span("op", t0, t1, 0, 0) for t0, t1 in ops]


def end_to_end(setup_s: list[float], log: OpLog, rss_mb: float) -> dict[str, float]:
    lat_ms = [ns / 1e6 for ns in log.latencies_ns]
    return {
        "setup_s": median(setup_s),
        "throughput_per_s": log.throughput,
        "latency_p50_ms": median(lat_ms),
        "latency_p99_ms": tail_percentile(lat_ms)[1],
        "peak_rss_mb": rss_mb,
    }


def describe(name: str, setup_s: list[float], log: OpLog, unit: str) -> list[str]:
    lat_ms = [ns / 1e6 for ns in log.latencies_ns]
    q, tail = tail_percentile(lat_ms)
    return [
        f"{name}: {log.completed} {unit} in {log.wall_ns / 1e9:.2f} s "
        f"({log.throughput:.1f}/s), failed {log.failed}/{log.attempted}",
        f"  latency p50 {median(lat_ms):.3f} ms, p{q * 100:.1f} {tail:.3f} ms "
        f"({len(lat_ms)} samples), p25-p75 {percentile(lat_ms, 0.25):.3f}-"
        f"{percentile(lat_ms, 0.75):.3f} ms",
        f"  set-up {', '.join(f'{s:.3f}' for s in setup_s)} s",
    ]


def rss_mb(who: int) -> float:
    """Peak resident set (MB) of this process or of its largest reaped child."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def ledger_table(
    title: str, self_ns: Mapping[str, int], op_ns: int, n_ops: int, unattributed_ns: int
) -> list[str]:
    """Per-layer self time per op and share of the traced op time.

    The rows plus the unattributed remainder add up to *op_ns*; the
    ``sum`` line prints that total so a reader can check it.
    """
    lines = [
        f"ledger {title}: {n_ops} traced ops, {op_ns / 1e6:.1f} ms traced op time",
        f"  {'layer':34s} {'self ms/op':>11s} {'share':>7s}",
    ]
    per = max(n_ops, 1) * 1e6
    total = 0
    rows = sorted(self_ns.items(), key=lambda kv: -kv[1])
    rows.append(("trace.unattributed", unattributed_ns))
    for name, ns in rows:
        total += ns
        share = ns / op_ns if op_ns else 0.0
        lines.append(f"  {name:34s} {ns / per:11.4f} {share:7.1%}")
    lines.append(
        f"  {'sum':34s} {total / per:11.4f} {total / op_ns if op_ns else 0.0:7.1%}"
    )
    return lines
