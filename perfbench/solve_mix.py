"""solve-mix: request bytes to a certified MIS through the solve service.

The server runs in its own process (``perfbench.serve``, ``workers=0``:
one dispatch thread solves while the event loop parses).  Two
closed-loop clients each send the next pre-encoded request only after
the previous reply arrived.  An operation is one request: send to
response line.
"""

from __future__ import annotations

import json
import os
import resource
import select
import socket
import subprocess
import sys
import threading
import time
from bisect import bisect_left
from collections import defaultdict
from pathlib import Path

import numpy as np

from perfbench import gen
from perfbench.ledger import Span, median
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

ROOT = Path(__file__).resolve().parent.parent
#: Relative to the checkout root, which is both processes' working
#: directory: short enough for the unix-socket path limit wherever the
#: checkout lives.
RUN_DIR = Path("perfbench") / ".out"
SOCKET = str(RUN_DIR / "solve.sock")
SETUP_REPEATS = 5
CLIENTS = 2
#: Requests scheduled per measured second; a run that uses them all ends
#: early and reports the rate over the time it did run.
CALLS_PER_SECOND = 400
START_TIMEOUT_S = 60


class Server:
    """One server process; ``setup_s`` is spawn to socket bound."""

    def __init__(self, trace: bool):
        (ROOT / RUN_DIR).mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        cmd = [sys.executable, "-m", "perfbench.serve", SOCKET] + (["--trace"] if trace else [])
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if line.strip() != "ready":
                raise RuntimeError(f"server did not start: {line!r}")
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.setup_s = time.perf_counter() - t0

    def stop(self) -> dict:
        """Stop the server; return its metrics registry and spans."""
        try:
            out, _ = self.proc.communicate("stop\n", timeout=120)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])


def _request(path: str, doc: dict) -> dict:
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(60)
        s.connect(path)
        s.sendall((json.dumps(doc) + "\n").encode())
        with s.makefile("rb") as rfile:
            return json.loads(rfile.readline())


class Load:
    """Closed-loop clients over a shared request schedule."""

    def __init__(self, inputs: gen.SolveMixInputs):
        self.inputs = inputs
        self.next = 0
        self._lock = threading.Lock()
        #: (call index, send ns, response ns, response line) per request.
        self.records: list[tuple[int, int, int, bytes]] = []

    def _take(self, deadline: int) -> int | None:
        with self._lock:
            if time.perf_counter_ns() >= deadline or self.next >= len(self.inputs.calls):
                return None
            self.next += 1
            return self.next - 1

    def _client(self, deadline: int) -> None:
        calls, records = self.inputs.calls, self.records
        sock = rfile = None
        while (i := self._take(deadline)) is not None:
            if sock is None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(120)
                try:
                    sock.connect(SOCKET)
                except OSError:  # the server is gone: this request and the rest fail
                    sock.close()
                    records.append((i, time.perf_counter_ns(), time.perf_counter_ns(), b""))
                    return
                rfile = sock.makefile("rb")
            frame = self.inputs.frame(calls[i])
            t0 = time.perf_counter_ns()
            try:
                sock.sendall(frame)
                line = rfile.readline()
            except OSError:
                line = b""
            records.append((i, t0, time.perf_counter_ns(), line))
            if not line:  # dropped: count it and reconnect
                rfile.close()
                sock.close()
                sock = None
        if sock is not None:
            rfile.close()
            sock.close()

    def run(self, seconds: float) -> int:
        """Drive the clients for *seconds*; return the phase start (ns)."""
        start = time.perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        threads = [
            threading.Thread(target=self._client, args=(deadline,)) for _ in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return start


def warm(inputs: gen.SolveMixInputs) -> None:
    """Every (instance, algorithm) once, off the clock and off the schedule."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(120)
        s.connect(SOCKET)
        with s.makefile("rb") as rfile:
            for call in inputs.warmup:
                s.sendall(inputs.frame(call))
                doc = json.loads(rfile.readline())
                if doc.get("status") != "ok":
                    raise RuntimeError(f"warm-up request failed: {doc}")


def evaluate(inputs: gen.SolveMixInputs, load: Load, start: int) -> tuple[OpLog, list, int]:
    """Fold the responses into an OpLog; certify every ok response.

    Returns the log, ``(call, send ns, response ns, doc)`` per ok
    response, and the number of responses that failed a check.
    """
    from repro.hypergraph.validate import check_mis

    log = OpLog()
    ok = []
    for i, t0, t1, line in sorted(load.records, key=lambda r: r[1]):
        log.attempted += 1
        call = inputs.calls[i]
        try:
            doc = json.loads(line) if line else {}
        except json.JSONDecodeError:
            doc = {}
        if doc.get("status") != "ok" or doc.get("id") != call.rid:
            log.failed += 1
            continue
        log.completed += 1
        log.latencies_ns.append(t1 - t0)
        ok.append((call, t0, t1, doc))
    log.wall_ns = max((r[2] for r in load.records), default=start) - start
    # After the timed loop: every ok response is an MIS of its instance,
    # and every response to one (instance, algorithm, seed) cell is the
    # same set.
    bad = 0
    first: dict[tuple, list[int]] = {}
    certified: set[tuple] = set()
    for call, _, _, doc in ok:
        members = doc["independent_set"]
        seen = first.setdefault(call.cell, members)
        if seen != members:
            bad += 1
            continue
        if call.cell in certified:
            continue
        try:
            check_mis(inputs.instances[call.instance], np.asarray(members, dtype=np.intp))
        except Exception:  # noqa: BLE001 - any violation fails the response
            bad += 1
            continue
        certified.add(call.cell)
    return log, ok, bad


def run(seed: int, seconds: float, trace: bool) -> Result:
    calls = max(500, int(seconds * CALLS_PER_SECOND))
    inputs = gen.frozen(gen.solve_mix_inputs(seed, calls))
    lines: list[str] = []
    if not trace:
        setups = []
        for k in range(SETUP_REPEATS):
            server = Server(trace=False)
            setups.append(server.setup_s)
            if k < SETUP_REPEATS - 1:
                server.stop()
        try:
            warm(inputs)
            load = Load(inputs)
            start = load.run(seconds)
        finally:
            server.stop()
        log, _, bad = evaluate(inputs, load, start)
        lines += describe("solve-mix", setups, log, "ok responses")
        if bad:
            lines.append(f"CHECK FAILED: {bad} ok responses are not the certified MIS")
        metrics = end_to_end(setups, log, rss_mb(resource.RUSAGE_CHILDREN))
        return Result(bad == 0, log.attempted, log.failed + bad, metrics, lines)

    # Untraced half on one server, traced half on a fresh one.
    phases = []
    for traced in (False, True):
        server = Server(trace=traced)
        try:
            warm(inputs)
            load = Load(inputs)
            start = load.run(seconds / 2)
            stats = _request(SOCKET, {"op": "stats"})["stats"]
        finally:
            dump = server.stop()
        phases.append((server, load, start, stats, dump))
    (_, load_a, start_a, _, _), (server_b, load_b, start_b, stats, dump) = phases
    log_a, _, bad_a = evaluate(inputs, load_a, start_a)
    log_b, ok_b, bad_b = evaluate(inputs, load_b, start_b)
    lines += describe("solve-mix untraced", [phases[0][0].setup_s], log_a, "ok responses")
    lines += describe("solve-mix traced", [server_b.setup_s], log_b, "ok responses")
    bad = bad_a + bad_b
    if bad:
        lines.append(f"CHECK FAILED: {bad} ok responses are not the certified MIS")
    spans = [Span(*row) for row in dump["spans"]]
    metrics, table = layer_metrics(spans, ok_b, stats, dump["metrics"], log_a, log_b)
    lines += table
    return Result(
        bad == 0,
        log_a.attempted + log_b.attempted,
        log_a.failed + log_b.failed + bad,
        metrics,
        lines,
        spans + op_spans([(t0, t1) for _, t0, t1, _ in ok_b]),
    )


def _inside(by_thread: dict[int, list[Span]], outer: Span) -> list[Span]:
    """*outer* and the spans nested in it (each thread's list sorted by start)."""
    spans = by_thread[outer.thread]
    i = bisect_left(spans, outer.t0, key=lambda s: s.t0)
    out = []
    while i < len(spans) and spans[i].t0 <= outer.t1:
        if spans[i].t1 <= outer.t1:
            out.append(spans[i])
        i += 1
    return out


def layer_metrics(spans, ok, stats, registry, log_a: OpLog, log_b: OpLog):
    """Attribute each traced request's time to the layers it crossed.

    Client op = decode + request + encode on the server + what no span
    covers (socket transfer, event-loop scheduling).  The request span's
    own time, less its parse and the solve and certificate of its cell,
    is the wait: the batch window plus queueing behind the other client.
    """
    by_id: dict[tuple[str, str], Span] = {}
    solves: dict[tuple[str, str, int], list[Span]] = defaultdict(list)
    checks: dict[str, list[Span]] = defaultdict(list)
    by_thread: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_thread[s.thread].append(s)
        if s.name.startswith("core."):
            solves[(s.name, s.attrs["hash"], s.attrs["seed"])].append(s)
        elif s.name == "validate.check_mis":
            checks[s.attrs["hash"]].append(s)
        elif s.attrs and "id" in s.attrs:
            by_id[(s.name, s.attrs["id"])] = s
    for group in by_thread.values():
        group.sort(key=lambda s: s.t0)

    selfs: dict[str, int] = defaultdict(int)
    op_total = covered_total = 0
    transport, wait, encode, parse = [], [], [], []
    hash_calls = hash_ns = 0
    solve_ms: dict[str, list[float]] = defaultdict(list)
    check_ms, dispatch_us, dense = [], [], []
    for call, t0, t1, doc in ok:
        op_total += t1 - t0
        transport.append((t1 - t0) / 1e6 - doc["wall_ms"])
        dec = by_id.get(("service.decode", call.rid))
        req = by_id.get(("service.request", call.rid))
        enc = by_id.get(("service.encode", call.rid))
        prs = by_id.get(("hypergraph.parse", call.rid))
        if not (dec and req and enc and prs):
            continue
        tree = [dec, enc] + _inside(by_thread, prs)
        cell_ns = 0
        if not doc["cached"]:
            name = f"core.{call.algorithm}"
            key = (name, doc["content_hash"], call.seed)
            solve = next((s for s in solves[key] if req.t0 <= s.t0 and s.t1 <= req.t1), None)
            if solve is not None:
                tree += _inside(by_thread, solve)
                cell_ns += solve.dur_ns
                solve_ms[name].append(solve.dur_ns / 1e6)
                check = next(
                    (c for c in checks[doc["content_hash"]]
                     if c.thread == solve.thread and solve.t1 <= c.t0 and c.t1 <= req.t1),
                    None,
                )
                if check is not None:
                    tree.append(check)
                    cell_ns += check.dur_ns
        own = req.dur_ns - prs.dur_ns - cell_ns
        wait.append(own / 1e6)
        encode.append(enc.dur_ns / 1e6)
        parse.append(prs.dur_ns / 1e6)
        selfs["service.wait"] += own
        for s in tree:
            selfs[s.name] += s.self_ns
            if s.name == "hypergraph.content_hash":
                hash_calls += 1
                hash_ns += s.dur_ns
            elif s.name == "validate.check_mis":
                check_ms.append(s.dur_ns / 1e6)
            elif s.name == "kernels.dispatch":
                dispatch_us.append(s.dur_ns / 1e3)
                dense.append(s.attrs["dense"])
        covered_total += dec.dur_ns + req.dur_ns + enc.dur_ns

    n_ops = len(ok)
    counters = registry["counters"]
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    unattributed = op_total - covered_total
    m = dict.fromkeys(PER_LAYER, 0.0)
    m.update(
        {
            "service.transport_ms_p50": median(transport),
            "service.wait_ms_p50": median(wait),
            "service.encode_ms_p50": median(encode),
            "service.batch_cells_mean": (
                counters.get("service/batched_cells", 0) / counters["service/batches"]
                if counters.get("service/batches") else 0.0
            ),
            "service.cache_hit_frac": cache["hits"] / lookups if lookups else 0.0,
            "service.instances_held": float(stats["instances"]),
            "hypergraph.parse_ms_p50": median(parse),
            "hypergraph.content_hash_calls_per_op": hash_calls / max(n_ops, 1),
            "hypergraph.content_hash_ms_per_op": hash_ns / 1e6 / max(n_ops, 1),
            "kernels.dispatch_us_p50": median(dispatch_us),
            "kernels.dense_frac": sum(dense) / len(dense) if dense else 0.0,
            "core.sbl_ms_p50": median(solve_ms["core.sbl"]),
            "core.bl_ms_p50": median(solve_ms["core.bl"]),
            "core.kuw_ms_p50": median(solve_ms["core.kuw"]),
            "validate.check_mis_ms_p50": median(check_ms),
            "trace.unattributed_frac": unattributed / op_total if op_total else 0.0,
            "trace.overhead_frac": (
                log_a.throughput / log_b.throughput - 1 if log_b.throughput else 0.0
            ),
        }
    )
    table = ledger_table("solve-mix", dict(selfs), op_total, n_ops, unattributed)
    table.append(
        "  (unattributed here is transport: socket transfer and event-loop "
        "scheduling outside decode, request and encode)"
    )
    table.append(
        f"  tracing overhead: untraced {log_a.throughput:.1f} ops/s, traced "
        f"{log_b.throughput:.1f} ops/s ({m['trace.overhead_frac']:+.1%})"
    )
    return m, table
