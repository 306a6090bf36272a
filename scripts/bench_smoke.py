"""Bench smoke: run the benchmark suites and record medians + IQR.

Three suites, one JSON baseline each at the repo root:

* **m01** — the solver-kernel micro-benchmarks
  (``benchmarks/bench_m01_solver_kernels.py`` via pytest-benchmark, with
  warmup iterations enabled so first-call JIT/cache effects don't land in
  the recorded samples) → ``BENCH_m01.json``.
* **m02** — campaign throughput serial vs the parallel executor
  (``benchmarks/bench_m02_campaign_throughput.py``, plain wall-clock
  timing) → ``BENCH_m02.json``.
* **m03** — solve-service throughput and tail latency per request path
  (``benchmarks/bench_m03_service.py``, a live server driven over its
  unix socket) → ``BENCH_m03.json``.
* **m04** — incremental MIS under edge streams: repair vs recompute,
  dispatcher crossover and sustained-churn throughput
  (``benchmarks/bench_m04_dynamic.py``, plain wall-clock timing) →
  ``BENCH_m04.json``.

Both payloads carry ``medians_ns`` and ``iqr_ns`` per entry; the IQR is
what lets ``scripts/bench_gate.py`` distinguish a real regression from
run-to-run noise.  This is the opt-in perf gate wired into the tier-1
targets (see ROADMAP.md) — run it before and after touching the hot paths
and diff the medians:

    PYTHONPATH=src python scripts/bench_smoke.py            # both suites
    PYTHONPATH=src python scripts/bench_smoke.py --suite m01

Every run also appends one provenance-stamped line per suite to
``BENCH_history.jsonl`` (gitignored; CI uploads it as an artifact), the
raw material ``scripts/bench_trend.py`` renders as perf trajectories.

Exit status is non-zero if a benchmark run itself fails; the script does
not enforce thresholds (the JSON is the record, review the diff).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

# Re-exported for historical importers (scripts/bench_gate.py and tests);
# the definition lives in the package so the installed code shares it.
from repro.util.hostid import machine_identity  # noqa: E402
BENCH = REPO / "benchmarks" / "bench_m01_solver_kernels.py"
OUT = REPO / "BENCH_m01.json"
OUT_M02 = REPO / "BENCH_m02.json"
OUT_M03 = REPO / "BENCH_m03.json"
OUT_M04 = REPO / "BENCH_m04.json"
#: Append-only perf trajectory (gitignored; uploaded as a CI artifact).
HISTORY = REPO / "BENCH_history.jsonl"

#: pytest-benchmark warmup iterations for the m01 kernels.
WARMUP_ITERATIONS = 5


def _provenance() -> dict:
    """Record where the numbers came from: commit, toolchain, machine, time."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (subprocess.CalledProcessError, OSError):
        commit = None
    import numpy

    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "machine_id": machine_identity(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds")
        .replace("+00:00", "Z"),
    }


def append_history(
    suite: str, payload: dict, *, history_path: Path = HISTORY, kind: str = "smoke"
) -> None:
    """Append one run's medians (+ provenance) to the perf-trajectory log.

    One JSON object per line, append-only, so every bench run — smoke
    refreshes and gate checks alike — leaves a data point that
    ``scripts/bench_trend.py`` can plot against time/commits.
    """
    record = {
        "suite": suite,
        "kind": kind,
        "provenance": payload.get("provenance"),
        "medians_ns": payload.get("medians_ns"),
        "iqr_ns": payload.get("iqr_ns"),
    }
    with open(history_path, "a", encoding="utf-8") as f:
        f.write(json.dumps(record, separators=(",", ":")) + "\n")


def run_benchmarks(warmup_iterations: int = WARMUP_ITERATIONS) -> dict:
    """Run the m01 kernel benchmarks once and return the payload.

    Shared by this script (which commits the payload as BENCH_m01.json)
    and ``scripts/bench_gate.py`` (which compares a fresh payload against
    the committed one).  Raises ``RuntimeError`` if the pytest-benchmark
    run fails.
    """
    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp) / "bench.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                str(BENCH),
                "-q",
                "--benchmark-only",
                "--benchmark-warmup=on",
                f"--benchmark-warmup-iterations={warmup_iterations}",
                f"--benchmark-json={raw}",
            ],
            cwd=REPO,
            env={**__import__("os").environ, "PYTHONPATH": str(REPO / "src")},
        )
        if proc.returncode != 0:
            raise RuntimeError(f"benchmark run failed (pytest rc={proc.returncode})")
        report = json.loads(raw.read_text())

    medians = {}
    iqrs = {}
    for bench in report["benchmarks"]:
        name = bench["name"].removeprefix("test_kernel_")
        medians[name] = int(bench["stats"]["median"] * 1e9)
        iqrs[name] = int(bench["stats"]["iqr"] * 1e9)
    return {
        "benchmark": BENCH.name,
        "unit": "ns",
        "stat": "median",
        "machine": report.get("machine_info", {}).get("cpu", {}).get("brand_raw"),
        "warmup_iterations": warmup_iterations,
        "provenance": _provenance(),
        "medians_ns": dict(sorted(medians.items())),
        "iqr_ns": dict(sorted(iqrs.items())),
    }


def run_benchmarks_m02() -> dict:
    """Run the m02 campaign-throughput benchmark and return the payload."""
    sys.path.insert(0, str(REPO / "benchmarks"))
    try:
        from bench_m02_campaign_throughput import run_m02
    finally:
        sys.path.pop(0)
    payload = run_m02()
    payload["provenance"] = _provenance()
    return payload


def run_benchmarks_m03() -> dict:
    """Run the m03 solve-service benchmark and return the payload."""
    sys.path.insert(0, str(REPO / "benchmarks"))
    try:
        from bench_m03_service import run_m03
    finally:
        sys.path.pop(0)
    payload = run_m03()
    payload["provenance"] = _provenance()
    return payload


def run_benchmarks_m04() -> dict:
    """Run the m04 dynamic repair-vs-recompute benchmark and return the payload."""
    sys.path.insert(0, str(REPO / "benchmarks"))
    try:
        from bench_m04_dynamic import run_m04
    finally:
        sys.path.pop(0)
    payload = run_m04()
    payload["provenance"] = _provenance()
    return payload


#: suite name -> (runner, baseline path)
SUITES = {
    "m01": (run_benchmarks, OUT),
    "m02": (run_benchmarks_m02, OUT_M02),
    "m03": (run_benchmarks_m03, OUT_M03),
    "m04": (run_benchmarks_m04, OUT_M04),
}


def _print_payload(payload: dict) -> None:
    medians = payload["medians_ns"]
    iqrs = payload.get("iqr_ns", {})
    width = max(len(k) for k in medians)
    for name, ns in sorted(medians.items()):
        iqr = iqrs.get(name)
        tail = f"  (IQR {iqr / 1e6:7.3f} ms)" if iqr is not None else ""
        print(f"{name:<{width}}  {ns / 1e6:10.3f} ms{tail}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=[*SUITES, "all"],
        default="all",
        help="which benchmark suite(s) to run and record (default: all)",
    )
    args = parser.parse_args(argv)
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    for suite in suites:
        runner, out = SUITES[suite]
        try:
            payload = runner()
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        out.write_text(json.dumps(payload, indent=2) + "\n")
        append_history(suite, payload, kind="smoke")
        print(f"[{suite}]")
        _print_payload(payload)
        print(f"wrote {out.relative_to(REPO)}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
