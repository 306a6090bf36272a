"""stream-churn: certified MIS maintenance under per-shard edge churn.

One ``DynamicMIS(strategy="auto", validate=True)`` absorbs batches of 8
events.  An operation is one ``apply`` call: batch in, certified state
out.  The service and the dense BL engines do no work here; update,
localisation, greedy re-solve and certification do all of it.
"""

from __future__ import annotations

import importlib
import resource
import threading
import time

import numpy as np

from perfbench import gen
from perfbench.ledger import (
    Patch,
    Recorder,
    Target,
    layer_self_ns,
    median,
    spans_within,
)
from perfbench.report import (
    PER_LAYER,
    OpLog,
    Result,
    describe,
    end_to_end,
    ledger_table,
    op_spans,
    rss_mb,
)

SETUP_REPEATS = 9
#: Inputs generated per measured second; a run that exhausts them ends
#: early and reports the rate over the time it did run.
STEPS_PER_SECOND = 600
#: Second-half over first-half median step latency above this means the
#: stream is not stationary and the run is not a valid measurement.
MAX_DRIFT = 2.0


def targets() -> list[Target]:
    """The stream path's layer entry points, as the engine looks them up."""
    from repro.dynamic.engine import DynamicMIS
    from repro.hypergraph.hypergraph import Hypergraph

    engine = importlib.import_module("repro.dynamic.engine")
    greedy = importlib.import_module("repro.core.greedy")
    return [
        Target(DynamicMIS, "apply", "dynamic.engine"),
        Target(engine, "apply_updates", "hypergraph.updates.apply"),
        Target(engine, "decide_strategy", "dynamic.decide"),
        Target(engine, "greedy_mis", "core.greedy"),
        Target(engine, "check_mis", "validate.check_mis"),
        Target(engine, "component_labels", "hypergraph.components"),
        Target(Hypergraph, "content_hash", "hypergraph.content_hash"),
        Target(greedy, "select_backend", "kernels.dispatch", lambda a, k, r: {"dense": r.dense}),
    ]


class Session:
    def __init__(self, inputs: gen.StreamInputs):
        from repro.dynamic import DynamicMIS

        self.inputs = inputs
        t0 = time.perf_counter()
        self.engine = DynamicMIS(
            inputs.H, seed=inputs.engine_seed, strategy="auto", validate=True
        )
        self.setup_s = time.perf_counter() - t0
        self.next_batch = 0
        #: (strategy, patch vertices, active vertices) per completed step.
        self.steps: list[tuple[str, int, int]] = []
        self.ops: list[tuple[int, int]] = []

    def measure(self, seconds: float) -> OpLog:
        log = OpLog()
        batches = self.inputs.batches
        engine = self.engine
        start = time.perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        now = start
        while now < deadline and self.next_batch < len(batches):
            adds, removes = batches[self.next_batch]
            self.next_batch += 1
            log.attempted += 1
            t0 = time.perf_counter_ns()
            try:
                out = engine.apply(adds, removes)
            except Exception:  # noqa: BLE001 - a failed step is counted, not fatal
                log.failed += 1
                now = time.perf_counter_ns()
                continue
            now = time.perf_counter_ns()
            log.latencies_ns.append(now - t0)
            self.ops.append((t0, now))
            # A summary, not the outcome: the outcome holds the whole
            # successor hypergraph, and keeping one per step grows memory.
            self.steps.append(
                (out.strategy, out.patch_vertices, out.update.hypergraph.num_vertices)
            )
            if out.certified:
                log.completed += 1
            else:
                log.failed += 1
        log.wall_ns = now - start
        return log

    def final_state_ok(self) -> bool:
        return bool(
            np.array_equal(self.engine.independent_set, self.engine.recompute_reference())
        )


def drift(log: OpLog) -> float:
    """Median step latency of the second half over the first half."""
    lat = log.latencies_ns
    half = len(lat) // 2
    if half < 10:
        return 1.0
    return median(lat[half:]) / median(lat[:half])


def _checks(session: Session, logs: list[OpLog], lines: list[str]) -> tuple[bool, int]:
    """Final state equals the recompute reference; the stream stays stationary."""
    failed = 0
    if not session.final_state_ok():
        lines.append("CHECK FAILED: final state differs from recompute_reference()")
        failed += 1
    correct = True
    for log in logs:
        ratio = drift(log)
        lines.append(f"  step-cost drift (second half / first half median): {ratio:.3f}")
        if ratio > MAX_DRIFT:
            lines.append(f"CHECK FAILED: step cost drifted by more than {MAX_DRIFT}x")
            correct = False
    return correct, failed


def run(seed: int, seconds: float, trace: bool) -> Result:
    steps = max(200, int(seconds * STEPS_PER_SECOND))
    inputs = gen.frozen(gen.stream_inputs(seed, steps))
    lines: list[str] = []
    if not trace:
        setups = []
        for _ in range(SETUP_REPEATS):
            session = Session(inputs)
            setups.append(session.setup_s)
        log = session.measure(seconds)
        lines += describe("stream-churn", setups, log, "certified batches")
        correct, failed = _checks(session, [log], lines)
        metrics = end_to_end(setups, log, rss_mb(resource.RUSAGE_SELF))
        return Result(correct, log.attempted, log.failed + failed, metrics, lines)

    # Untraced half, then the traced half on a fresh engine: the traced
    # engine replays the same batches from the same starting state.
    plain = Session(inputs)
    log_plain = plain.measure(seconds / 2)
    recorder = Recorder()
    with Patch(recorder, targets()):
        traced = Session(inputs)
        recorder.drain()
        log = traced.measure(seconds / 2)
    lines += describe("stream-churn untraced", [plain.setup_s], log_plain, "batches")
    lines += describe("stream-churn traced", [traced.setup_s], log, "batches")
    correct, failed = _checks(traced, [log_plain, log], lines)
    correct_plain, failed_plain = _checks(plain, [], lines)
    metrics, table = layer_metrics(recorder.spans, traced, log_plain, log)
    lines += table
    return Result(
        correct and correct_plain,
        log_plain.attempted + log.attempted,
        log_plain.failed + log.failed + failed + failed_plain,
        metrics,
        lines,
        recorder.spans + op_spans(traced.ops),
    )


def layer_metrics(spans, session: Session, log_plain: OpLog, log: OpLog):
    main = threading.get_ident()
    groups = spans_within(session.ops, [s for s in spans if s.thread == main])
    inside = [s for g in groups for s in g]
    op_ns = sum(t1 - t0 for t0, t1 in session.ops)
    selfs = layer_self_ns(groups)
    unattributed = op_ns - sum(selfs.values())
    n_ops = len(session.ops)

    def durs(name: str, scale: float) -> list[float]:
        return [s.dur_ns / scale for s in inside if s.name == name]

    dispatch = [s for s in inside if s.name == "kernels.dispatch"]
    hashes = durs("hypergraph.content_hash", 1e6)
    steps = session.steps
    changed = [(strategy, patch, n) for strategy, patch, n in steps if strategy != "noop"]
    m = dict.fromkeys(PER_LAYER, 0.0)
    m.update(
        {
            "hypergraph.content_hash_calls_per_op": len(hashes) / max(n_ops, 1),
            "hypergraph.content_hash_ms_per_op": sum(hashes) / max(n_ops, 1),
            "hypergraph.updates.apply_ms_p50": median(durs("hypergraph.updates.apply", 1e6)),
            "hypergraph.updates.noop_frac": 1 - len(changed) / max(len(steps), 1),
            "kernels.dispatch_us_p50": median(durs("kernels.dispatch", 1e3)),
            "kernels.dense_frac": (
                sum(s.attrs["dense"] for s in dispatch) / len(dispatch) if dispatch else 0.0
            ),
            "core.greedy_ms_p50": median(durs("core.greedy", 1e6)),
            "validate.check_mis_ms_p50": median(durs("validate.check_mis", 1e6)),
            "dynamic.localize_ms_p50": median(
                [s.self_ns / 1e6 for s in inside if s.name == "dynamic.engine"]
            ),
            "dynamic.patch_frac": (
                float(np.mean([patch / n for _, patch, n in changed])) if changed
                else 0.0
            ),
            "dynamic.repair_frac": (
                sum(c[0] == "repair" for c in changed) / len(changed) if changed else 0.0
            ),
            "dynamic.decide_us_p50": median(durs("dynamic.decide", 1e3)),
            "trace.unattributed_frac": unattributed / op_ns if op_ns else 0.0,
            "trace.overhead_frac": (
                log_plain.throughput / log.throughput - 1 if log.throughput else 0.0
            ),
        }
    )
    table = ledger_table("stream-churn", selfs, op_ns, n_ops, unattributed)
    table.append(
        f"  tracing overhead: untraced {log_plain.throughput:.1f} ops/s, traced "
        f"{log.throughput:.1f} ops/s ({m['trace.overhead_frac']:+.1%})"
    )
    return m, table

