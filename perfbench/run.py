"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload stream-churn --seed 1 --seconds 10 --trace 0

The program under test is the ``repro`` package in ``src/`` next to this
directory.  With ``--trace 0`` the last line of output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run, preceded by the printed ledger; the spans go to
``perfbench/.out/<workload>-seed<seed>.spans.jsonl``.  Exits non-zero
without a result when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("solve-mix", "stream-churn", "campaign-general")


def stop_resource_tracker() -> None:
    """Stop and reap the tracker process shared memory starts, if any.

    Left alone it outlives this interpreter by a moment and is never
    reaped, so a run would leave a process behind.  Every pool is closed
    by now, so no worker holds the tracker's pipe open.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an error, so pools and the server close.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import campaign_general, solve_mix, stream_churn

    module = {
        "solve-mix": solve_mix,
        "stream-churn": stream_churn,
        "campaign-general": campaign_general,
    }[args.workload]
    try:
        result = module.run(args.seed, args.seconds, bool(args.trace))
    finally:
        stop_resource_tracker()
    for line in result.lines:
        print(line)
    if result.spans:
        out = ROOT / "perfbench" / ".out" / f"{args.workload}-seed{args.seed}.spans.jsonl"
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w") as fp:
            for s in result.spans:
                fp.write(json.dumps([s.name, s.t0, s.t1, s.self_ns, s.thread, s.attrs]) + "\n")
        print(f"spans: {len(result.spans)} written to {out.relative_to(ROOT)}")
    print(json.dumps(result.as_json(bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
