"""campaign-general: grid passes of ``Campaign.run`` on a warm 2-worker runner.

An operation is one grid pass: 3 Theorem-1 instances (built in the
parent) x {sbl, sbl-practical, kuw} x 2 repeats, shipped through shared
memory to the pool and verified in the workers.  Each pass uses a fresh
campaign seed.  Parse and service are absent; executor transfer and the
CSR round loop with SBL's sampled sub-instances do the work.
"""

from __future__ import annotations

import os
import resource
import threading
import time
from collections import defaultdict

from perfbench import gen
from perfbench.ledger import (
    Patch,
    Recorder,
    Span,
    Target,
    dispatch_targets,
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

WORKERS = 2
SETUP_REPEATS = 9
#: The warm-up pass is the same in every run, so set-up time does not
#: vary with the run seed.
WARM_SEED = 2**31
#: Grid passes scheduled per measured second (a pass takes ~0.1 s).
PASSES_PER_SECOND = 40
#: Passes re-run serially in-process to check parallel == serial records.
SERIAL_CHECKS = 6

#: The recorder forked workers inherit while a traced pool runs.  Workers
#: only see module state, so the drain task finds it here.
_worker_recorder: Recorder | None = None


def parent_targets() -> list[Target]:
    from repro.analysis.campaign import Campaign, InstanceSpec
    from repro.exec.runner import ParallelRunner
    from repro.exec.shm import ShmArena
    from repro.hypergraph.hypergraph import Hypergraph

    def cells(args, kwargs, result):
        return {"cells": [(r.label, r.wall_ns, r.num_rounds, r.depth) for r in result]}

    return [
        Target(Campaign, "run", "analysis.campaign"),
        Target(InstanceSpec, "build", "generators.build"),
        Target(ParallelRunner, "run_cells", "exec.run_cells", cells),
        Target(ShmArena, "publish", "exec.publish"),
        Target(Hypergraph, "content_hash", "hypergraph.content_hash"),
    ]


def worker_targets() -> list[Target]:
    import importlib

    return [
        Target(importlib.import_module("repro.core.sbl"), "sbl", "core.sbl"),
        Target(importlib.import_module("repro.core.kuw"), "karp_upfal_wigderson", "core.kuw"),
        Target(importlib.import_module("repro.core.result"), "check_mis", "validate.check_mis"),
    ] + dispatch_targets()


def _drain_worker(_: int) -> tuple[int, list]:
    """Pool task: hand back this worker's spans (the sleep spreads tasks over workers)."""
    time.sleep(0.05)
    spans = _worker_recorder.drain() if _worker_recorder is not None else []
    return os.getpid(), [(s.name, s.t0, s.t1, s.self_ns, s.thread, s.attrs) for s in spans]


def drain_workers(runner) -> list[Span]:
    """Collect every worker's spans; retries until each worker answered."""
    seen: dict[int, list] = {}
    for _ in range(10):
        for pid, rows in runner.map_tasks(_drain_worker, list(range(2 * WORKERS)), chunksize=None):
            seen.setdefault(pid, []).extend(rows)
        if len(seen) >= WORKERS:
            break
    else:
        raise RuntimeError(f"only {len(seen)} of {WORKERS} workers returned their spans")
    return [Span(*row) for rows in seen.values() for row in rows]


class Session:
    """A warm runner: pool start plus one warm-up pass is the set-up."""

    def __init__(self, warm_seed: int):
        from repro.exec import ParallelRunner

        t0 = time.perf_counter()
        self.runner = ParallelRunner(WORKERS)
        try:
            self.grid = gen.campaign_grid()
            grid = self.grid
            self.cells_per_pass = len(grid.instances) * len(grid.algorithms) * grid.repeats
            self.grid.run(seed=warm_seed, parallel=self.runner)
        except BaseException:
            self.runner.close()
            raise
        self.setup_s = time.perf_counter() - t0
        self.ops: list[tuple[int, int]] = []
        self.records: dict[int, list] = {}

    def measure(self, seeds, seconds: float) -> OpLog:
        log = OpLog()
        start = time.perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        now = start
        for seed in seeds:
            if now >= deadline:
                break
            log.attempted += self.cells_per_pass
            t0 = time.perf_counter_ns()
            try:
                records = self.grid.run(seed=seed, parallel=self.runner)
            except Exception:  # noqa: BLE001 - a failed pass is counted, not fatal
                log.failed += self.cells_per_pass
                now = time.perf_counter_ns()
                continue
            now = time.perf_counter_ns()
            self.ops.append((t0, now))
            self.records[seed] = records
            log.latencies_ns.append(now - t0)
            log.completed += len(records)
        log.wall_ns = now - start
        return log

    def close(self) -> None:
        self.runner.close()


def serial_check(grid, records: dict[int, list], lines: list[str]) -> tuple[int, list[float]]:
    """Re-run evenly spaced passes serially; parallel records must match.

    Returns the number of mismatched cells and the serial pass times (s).
    """
    seeds = list(records)
    step = max(1, len(seeds) // SERIAL_CHECKS)
    bad, times = 0, []
    for seed in seeds[::step][:SERIAL_CHECKS]:
        t0 = time.perf_counter()
        serial = grid.run(seed=seed)
        times.append(time.perf_counter() - t0)
        parallel = records[seed]
        bad += sum(a != b for a, b in zip(serial, parallel)) + abs(len(serial) - len(parallel))
    if bad:
        lines.append(f"CHECK FAILED: {bad} parallel records differ from the serial run")
    return bad, times


def run(seed: int, seconds: float, trace: bool) -> Result:
    passes = max(20, int(seconds * PASSES_PER_SECOND))
    seeds = gen.frozen(gen.campaign_seeds(seed, passes))
    lines: list[str] = []
    if not trace:
        setups = []
        for k in range(SETUP_REPEATS):
            session = Session(WARM_SEED)
            setups.append(session.setup_s)
            if k < SETUP_REPEATS - 1:
                session.close()
        try:
            log = session.measure(seeds, seconds)
        finally:
            session.close()
        lines += describe("campaign-general", setups, log, "verified cells")
        bad, _ = serial_check(session.grid, session.records, lines)
        rss = rss_mb(resource.RUSAGE_SELF) + rss_mb(resource.RUSAGE_CHILDREN)
        metrics = end_to_end(setups, log, rss)
        return Result(bad == 0, log.attempted, log.failed + bad, metrics, lines)

    global _worker_recorder
    plain = Session(WARM_SEED)
    try:
        log_plain = plain.measure(seeds, seconds / 2)
    finally:
        plain.close()
    recorder = Recorder()
    _worker_recorder = recorder
    try:
        with Patch(recorder, parent_targets() + worker_targets()):
            traced = Session(WARM_SEED)
            try:
                drain_workers(traced.runner)
                recorder.drain()
                log = traced.measure(seeds, seconds / 2)
                worker_spans = drain_workers(traced.runner)
            finally:
                traced.close()
    finally:
        _worker_recorder = None
    lines += describe("campaign-general untraced", [plain.setup_s], log_plain, "cells")
    lines += describe("campaign-general traced", [traced.setup_s], log, "cells")
    bad_plain, serial_s = serial_check(plain.grid, plain.records, lines)
    bad, _ = serial_check(traced.grid, traced.records, lines)
    metrics, table = layer_metrics(
        recorder.spans, worker_spans, traced, log_plain, log, serial_s
    )
    lines += table
    return Result(
        bad + bad_plain == 0,
        log_plain.attempted + log.attempted,
        log_plain.failed + log.failed + bad + bad_plain,
        metrics,
        lines,
        recorder.spans + worker_spans + op_spans(traced.ops),
    )


def layer_metrics(spans, worker_spans, session, log_plain, log, serial_s):
    main = threading.get_ident()
    groups = spans_within(session.ops, [s for s in spans if s.thread == main])
    inside = [s for g in groups for s in g]
    op_ns = sum(t1 - t0 for t0, t1 in session.ops)
    selfs = layer_self_ns(groups)
    unattributed = op_ns - sum(selfs.values())
    passes = max(len(session.ops), 1)

    run_cells = [s for s in inside if s.name == "exec.run_cells"]
    cells = [c for s in run_cells for c in s.attrs["cells"]]
    cell_ns = sum(c[1] for c in cells)
    run_cells_ns = sum(s.dur_ns for s in run_cells)
    first_pass = run_cells[0].attrs["cells"] if run_cells else []
    worker = defaultdict(list)
    for s in worker_spans:
        worker[s.name].append(s)
    dispatch = worker["kernels.dispatch"]
    checks_ns = sum(s.dur_ns for s in worker["validate.check_mis"])
    hashes = [s for s in inside if s.name == "hypergraph.content_hash"]
    hashes += worker["hypergraph.content_hash"]
    parallel_pass_s = median([ns / 1e9 for ns in log_plain.latencies_ns])

    def per_pass_ms(name: str) -> float:
        return sum(s.dur_ns for s in inside if s.name == name) / 1e6 / passes

    m = dict.fromkeys(PER_LAYER, 0.0)
    m.update(
        {
            "hypergraph.content_hash_calls_per_op": len(hashes) / passes,
            "hypergraph.content_hash_ms_per_op": sum(s.dur_ns for s in hashes) / 1e6 / passes,
            "kernels.dispatch_us_p50": median([s.dur_ns / 1e3 for s in dispatch]),
            "kernels.dense_frac": (
                sum(s.attrs["dense"] for s in dispatch) / len(dispatch) if dispatch else 0.0
            ),
            "core.sbl_ms_p50": median([s.dur_ns / 1e6 for s in worker["core.sbl"]]),
            "core.kuw_ms_p50": median([s.dur_ns / 1e6 for s in worker["core.kuw"]]),
            "core.rounds_total": float(sum(c[2] for c in first_pass)),
            "core.pram_depth_total": float(sum(c[3] for c in first_pass)),
            "validate.check_mis_ms_p50": median(
                [s.dur_ns / 1e6 for s in worker["validate.check_mis"]]
            ),
            "exec.cell_ms_p50": median([c[1] / 1e6 for c in cells]),
            "exec.busy_frac": cell_ns / (WORKERS * run_cells_ns) if run_cells_ns else 0.0,
            "exec.dispatch_ms_per_cell": (
                (WORKERS * run_cells_ns - cell_ns - checks_ns) / 1e6 / len(cells) if cells else 0.0
            ),
            "exec.speedup_vs_serial": (
                median(serial_s) / parallel_pass_s if parallel_pass_s else 0.0
            ),
            "exec.publish_ms_per_pass": per_pass_ms("exec.publish"),
            "generators.build_ms_per_pass": per_pass_ms("generators.build"),
            "trace.unattributed_frac": unattributed / op_ns if op_ns else 0.0,
            "trace.overhead_frac": (
                log_plain.throughput / log.throughput - 1 if log.throughput else 0.0
            ),
        }
    )
    table = ledger_table("campaign-general (parent)", selfs, op_ns, len(session.ops), unattributed)
    table.append(
        f"  in the workers, per pass: solver {cell_ns / 1e6 / passes:.2f} ms, "
        f"check_mis {checks_ns / 1e6 / passes:.2f} ms, over {WORKERS} workers "
        f"busy {m['exec.busy_frac']:.1%} of run_cells"
    )
    table.append(
        f"  tracing overhead: untraced {log_plain.throughput:.1f} cells/s, traced "
        f"{log.throughput:.1f} cells/s ({m['trace.overhead_frac']:+.1%})"
    )
    return m, table
