"""Perf gate: fail CI when a benchmark median regresses past a threshold.

Re-runs the benchmark suites (via ``bench_smoke``) and compares each fresh
median against the committed per-machine baselines — ``BENCH_m01.json``
for the solver kernels, ``BENCH_m02.json`` for campaign throughput.  The
gate fails an entry when **both** hold:

    fresh_median / baseline_median > threshold        (default 1.25)
    fresh_median - baseline_median > iqr_mult · IQR   (default 3.0×)

The second condition uses the baseline's recorded inter-quartile range:
an entry whose absolute change is within a few IQRs of its own run-to-run
spread is jitter, not a regression, no matter what the ratio says — this
is what keeps sub-millisecond kernels from tripping the gate on scheduler
noise.  Baselines without ``iqr_ns`` (or with a zero IQR) fall back to
the plain ratio test.  A baseline entry missing from the fresh run fails
the gate; entries that are new (present fresh, absent from the baseline)
are reported but do not fail — commit a refreshed baseline with
``scripts/bench_smoke.py`` to start tracking them.

Baselines record a normalized machine identity; the gate refuses to
compare against a baseline from a different machine (exit 2, or
``--allow-machine-mismatch`` to override) and warns when the baseline
predates machine stamping.  Every gate run appends its fresh medians to
``BENCH_history.jsonl``; when an m01 solver entry regresses, the entry is
re-run once with telemetry into ``forensics_m01_<entry>.jsonl`` so the
failure ships a span trace, not just a ratio.

Usage::

    PYTHONPATH=src python scripts/bench_gate.py                  # both suites
    PYTHONPATH=src python scripts/bench_gate.py --suite m01
    PYTHONPATH=src python scripts/bench_gate.py --threshold 1.5 \
        --output fresh.json

Micro-benchmarks on shared CI runners are noisy; the default threshold is
deliberately loose (25%) and IQR-slacked so the gate only trips on real
regressions — an accidental O(n·m) loop, a dropped vectorisation — not
scheduler jitter.  If the gate flakes, re-run the job before suspecting
the code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench_smoke import (
    OUT_M02,
    OUT_M03,
    OUT_M04,
    REPO,
    append_history,
    machine_identity,
    run_benchmarks,
    run_benchmarks_m02,
    run_benchmarks_m03,
    run_benchmarks_m04,
)

DEFAULT_BASELINE = REPO / "BENCH_m01.json"
DEFAULT_THRESHOLD = 1.25
DEFAULT_IQR_MULT = 3.0

#: m01 entry -> (kernel, solver attr on repro.core, extra kwargs) for the
#: forensics re-run; non-solver entries (normalize, matvec, …) are skipped.
FORENSIC_SOLVERS: dict[str, tuple[str, str, dict]] = {
    "greedy": ("csr", "greedy_mis", {}),
    "kuw": ("csr", "karp_upfal_wigderson", {"trace": False}),
    "permutation": ("csr", "permutation_bl", {"trace": False}),
    "bl": ("csr", "beame_luby", {"trace": False}),
    "bl_bitset": ("bitset", "beame_luby", {"trace": False}),
}


def check_machine(baseline_doc: dict, baseline_path: Path, suite: str) -> str | None:
    """Compare the baseline's recorded machine identity against this host.

    Returns an error string when the identities differ (medians from two
    machines are not comparable); ``None`` when they match or the baseline
    predates machine stamping (warn-and-proceed — refresh the baseline to
    start enforcing).
    """
    recorded = (baseline_doc.get("provenance") or {}).get("machine_id")
    if recorded is None:
        print(
            f"[{suite}] warning: baseline {baseline_path.name} has no machine "
            f"identity; cannot check comparability (refresh it with "
            f"scripts/bench_smoke.py)",
            file=sys.stderr,
        )
        return None
    current = machine_identity()
    if recorded != current:
        return (
            f"[{suite}] baseline {baseline_path.name} was recorded on a "
            f"different machine:\n"
            f"  baseline: {recorded}\n"
            f"  current:  {current}\n"
            f"medians are not comparable across machines — refresh the "
            f"baseline with scripts/bench_smoke.py on this machine, or pass "
            f"--allow-machine-mismatch to compare anyway"
        )
    return None


def write_forensics_trace(entry: str, out_path: Path) -> bool:
    """Re-run one regressed m01 solver entry with telemetry for triage.

    Executes the same (instance, kernel, solver) combination the benchmark
    measures, streaming spans to *out_path* — so a failing perf gate ships
    a trace that ``repro trace summary|diff|flame`` can dissect instead of
    a bare ratio.  Returns ``False`` (never raises) for non-solver entries
    or when the re-run fails; forensics must not mask the gate verdict.
    """
    spec = FORENSIC_SOLVERS.get(entry)
    if spec is None:
        return False
    kernel, fn_name, kwargs = spec
    try:
        from repro import core
        from repro.generators import uniform_hypergraph
        from repro.kernels import use_kernel
        from repro.obs import JsonlSink, Tracer, isolated_registry, use_tracer

        fn = getattr(core, fn_name)
        # The m01 suite's fixed instance (benchmarks/bench_m01_solver_kernels.py).
        H = uniform_hypergraph(400, 800, 3, seed=7)
        with isolated_registry():
            tracer = Tracer(JsonlSink(out_path))
            try:
                tracer.emit(
                    "run", command="bench-forensics", entry=entry, kernel=kernel
                )
                with use_tracer(tracer), use_kernel(kernel):
                    fn(H, seed=1, **kwargs)
                tracer.flush_metrics()
            finally:
                tracer.close()
        return True
    except Exception as exc:  # noqa: BLE001 - forensics is best-effort
        print(f"forensics re-run failed for {entry}: {exc}", file=sys.stderr)
        return False


def compare(
    baseline: dict[str, int],
    fresh: dict[str, int],
    threshold: float,
    *,
    baseline_iqr: dict[str, int] | None = None,
    iqr_mult: float = DEFAULT_IQR_MULT,
) -> tuple[list[str], list[str]]:
    """Return ``(lines, violations)`` for the entry-by-entry comparison.

    ``baseline_iqr`` maps entry name to the baseline's IQR in ns; when an
    entry has a positive IQR, a ratio over *threshold* only counts as a
    violation if the absolute increase also exceeds ``iqr_mult`` IQRs.
    """
    iqr_map = baseline_iqr or {}
    lines: list[str] = []
    violations: list[str] = []
    names = sorted(set(baseline) | set(fresh))
    width = max(len(n) for n in names) if names else 1
    for name in names:
        base = baseline.get(name)
        cur = fresh.get(name)
        if base is None:
            lines.append(f"{name:<{width}}  NEW      {cur / 1e6:10.3f} ms (no baseline)")
            continue
        if cur is None:
            lines.append(f"{name:<{width}}  MISSING  baseline {base / 1e6:10.3f} ms")
            violations.append(f"{name}: entry missing from fresh run")
            continue
        ratio = cur / base
        verdict = "ok"
        if ratio > threshold:
            iqr = iqr_map.get(name, 0) or 0
            slack = iqr_mult * iqr
            if iqr > 0 and (cur - base) <= slack:
                verdict = "ok (within noise)"
            else:
                verdict = "REGRESSED"
                violations.append(
                    f"{name}: {base / 1e6:.3f} ms -> {cur / 1e6:.3f} ms "
                    f"({ratio:.2f}x > {threshold:.2f}x"
                    + (
                        f", +{(cur - base) / 1e6:.3f} ms > "
                        f"{iqr_mult:g}·IQR {slack / 1e6:.3f} ms)"
                        if iqr > 0
                        else ")"
                    )
                )
        lines.append(
            f"{name:<{width}}  {base / 1e6:10.3f} ms -> {cur / 1e6:10.3f} ms  "
            f"{ratio:5.2f}x  {verdict}"
        )
    return lines, violations


def _gate_suite(
    suite: str,
    baseline_path: Path,
    threshold: float,
    iqr_mult: float,
    *,
    allow_machine_mismatch: bool = False,
    forensics_dir: Path | None = None,
) -> tuple[dict | None, int]:
    """Run one suite's gate; returns ``(fresh_payload, exit_code)``."""
    if not baseline_path.exists():
        print(f"baseline not found: {baseline_path}", file=sys.stderr)
        return None, 2
    baseline_doc = json.loads(baseline_path.read_text())
    baseline = baseline_doc.get("medians_ns", {})
    if not baseline:
        print(f"baseline has no medians_ns: {baseline_path}", file=sys.stderr)
        return None, 2
    machine_error = check_machine(baseline_doc, baseline_path, suite)
    if machine_error is not None:
        if not allow_machine_mismatch:
            print(machine_error, file=sys.stderr)
            return None, 2
        print(
            f"[{suite}] warning: comparing across machines "
            f"(--allow-machine-mismatch)",
            file=sys.stderr,
        )

    runners = {
        "m01": run_benchmarks,
        "m02": run_benchmarks_m02,
        "m03": run_benchmarks_m03,
        "m04": run_benchmarks_m04,
    }
    try:
        payload = runners[suite]()
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return None, 1
    append_history(suite, payload, kind="gate")

    lines, violations = compare(
        baseline,
        payload["medians_ns"],
        threshold,
        baseline_iqr=baseline_doc.get("iqr_ns"),
        iqr_mult=iqr_mult,
    )
    print(
        f"[{suite}] perf gate vs {baseline_path.name} "
        f"(threshold {threshold:.2f}x, noise slack {iqr_mult:g}·IQR)"
    )
    for line in lines:
        print(f"  {line}")
    if violations:
        print(f"\n[{suite}] FAIL: {len(violations)} entr(y/ies) regressed")
        for v in violations:
            print(f"  {v}")
        if suite == "m01" and forensics_dir is not None:
            forensics_dir.mkdir(parents=True, exist_ok=True)
            for v in violations:
                entry = v.split(":", 1)[0]
                out = forensics_dir / f"forensics_m01_{entry}.jsonl"
                if write_forensics_trace(entry, out):
                    print(
                        f"  forensics trace: {out} "
                        f"(inspect with 'repro trace summary')"
                    )
        return payload, 1
    print(f"[{suite}] perf gate passed\n")
    return payload, 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=["m01", "m02", "m03", "m04", "all", "both"],
        default="all",
        help="which suite(s) to gate ('both' = m01+m02, kept for "
        "compatibility; default: all)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="override the baseline file (single-suite runs only)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="max allowed fresh/baseline median ratio (default: %(default)s)",
    )
    parser.add_argument(
        "--iqr-mult",
        type=float,
        default=DEFAULT_IQR_MULT,
        help="noise slack: absolute increase must exceed this many baseline "
        "IQRs to count as a regression (default: %(default)s)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also write the fresh payload(s) here (CI artifact / triage)",
    )
    parser.add_argument(
        "--allow-machine-mismatch",
        action="store_true",
        help="compare even when the baseline was recorded on a different "
        "machine (medians are NOT comparable across machines; escape "
        "hatch for triage only)",
    )
    parser.add_argument(
        "--forensics-dir",
        type=Path,
        default=REPO,
        help="where failing m01 entries drop their telemetry traces "
        "(forensics_m01_<entry>.jsonl; default: repo root)",
    )
    args = parser.parse_args(argv)

    if args.threshold <= 0:
        print(f"threshold must be positive: {args.threshold}", file=sys.stderr)
        return 2
    if args.suite == "all":
        suites = ["m01", "m02", "m03", "m04"]
    elif args.suite == "both":
        suites = ["m01", "m02"]
    else:
        suites = [args.suite]
    if args.baseline is not None and len(suites) > 1:
        print("--baseline requires a single --suite", file=sys.stderr)
        return 2

    default_baselines = {
        "m01": DEFAULT_BASELINE,
        "m02": OUT_M02,
        "m03": OUT_M03,
        "m04": OUT_M04,
    }
    fresh: dict[str, dict] = {}
    rc = 0
    for suite in suites:
        baseline_path = args.baseline or default_baselines[suite]
        payload, suite_rc = _gate_suite(
            suite,
            baseline_path,
            args.threshold,
            args.iqr_mult,
            allow_machine_mismatch=args.allow_machine_mismatch,
            forensics_dir=args.forensics_dir,
        )
        if payload is not None:
            fresh[suite] = payload
        rc = max(rc, suite_rc)

    if args.output is not None and fresh:
        doc = next(iter(fresh.values())) if len(fresh) == 1 else fresh
        args.output.write_text(json.dumps(doc, indent=2) + "\n")
    if rc == 0:
        print("perf gate passed")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
