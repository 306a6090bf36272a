"""Measure both calibration tables on this machine and write them.

Two run-time choices follow per-machine measurements when a calibration
file exists (loader: ``repro.util.calibration``):

* ``KERNEL_CALIBRATION.json`` — the kernel cost model.  For every shape
  bucket (dimension band x universe band,
  :func:`repro.util.calibration.shape_bucket`) inside the dense envelope
  the probe builds a representative random instance, solves it under
  ``use_kernel("csr")`` and ``use_kernel("bitset")``, and records the
  median wall clock (ns) of each.  ``select_backend`` in ``auto`` mode
  then follows whichever measured faster.
* ``DYNAMIC_CALIBRATION.json`` — the repair-vs-recompute crossover.  For
  each probe shape the probe builds a sharded multi-component instance
  and sweeps a grid of delta fractions; at each fraction it times
  forced-repair and forced-recompute engines absorbing identically sized
  update batches (half departures of existing edges, half fresh
  arrivals).  The recorded ``crossover_fraction`` is where the
  repair/recompute time ratio crosses 1, linearly interpolated — batches
  below it repair, above it recompute.

Both payloads are stamped with ``machine_identity()``: a table measured
elsewhere is ignored at load time (counted, never silently applied), the
rule ``scripts/bench_gate.py`` enforces for the bench baselines.  Each
written file is read back through the same loader dispatch uses.

    PYTHONPATH=src python scripts/calibrate.py                  # both tables
    PYTHONPATH=src python scripts/calibrate.py --samples 5
    PYTHONPATH=src python scripts/calibrate.py --quick --output /tmp/cal

``--output`` names the directory both files are written to (default: the
repo root).  CI uses ``--verify-fixture`` on top of a quick probe: it
checks that the committed cross-machine kernel fixture is *ignored* as
committed, and *honored* once re-stamped with the local machine id — the
dispatch plumbing end to end, independent of this machine's timings.

    PYTHONPATH=src python scripts/calibrate.py \\
        --verify-fixture tests/fixtures/kernel_calibration.json
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.bl import beame_luby  # noqa: E402
from repro.dynamic import DYNAMIC_CALIBRATION, DynamicMIS  # noqa: E402
from repro.generators import sharded_hypergraph, uniform_hypergraph  # noqa: E402
from repro.hypergraph import Hypergraph  # noqa: E402
from repro.kernels import use_kernel  # noqa: E402
from repro.kernels.dispatch import KERNEL_CALIBRATION, select_backend  # noqa: E402
from repro.util.calibration import (  # noqa: E402
    CalibrationTable,
    invalidate_calibration_cache,
    load_calibration,
    shape_bucket,
)
from repro.util.hostid import machine_identity  # noqa: E402
from repro.util.rng import as_generator  # noqa: E402

PROBE_SEED = 20140623  # SPAA'14

# ---------------------------------------------------------------------------
# kernel table: csr vs bitset per shape bucket
# ---------------------------------------------------------------------------

#: One probe instance per bucket: (dimension, universe, edges).  The
#: universes sit inside their band; edge counts keep each solve well
#: under a second per backend so the full probe stays CI-friendly.
KERNEL_SHAPES: list[tuple[int, int, int]] = [
    (2, 768, 1536),
    (2, 1536, 3072),
    (2, 3072, 6144),
    (2, 6144, 9216),
    (2, 16384, 16384),
    (3, 768, 1536),
    (3, 1536, 3072),
    (3, 3072, 6144),
    (3, 6144, 9216),
    (3, 16384, 16384),
    (4, 768, 1536),
    (4, 1536, 3072),
    (4, 3072, 6144),
    (4, 6144, 9216),
    (4, 16384, 16384),
]

#: The ``--quick`` subset: one bucket per dimension band.
KERNEL_QUICK: list[tuple[int, int, int]] = [
    (2, 768, 1536),
    (3, 3072, 6144),
    (4, 768, 1536),
]

BACKENDS = ("csr", "bitset")


def _median_solve_ns(H: Hypergraph, kernel: str, samples: int) -> int:
    times = []
    for _ in range(samples):
        t0 = time.perf_counter_ns()
        with use_kernel(kernel):
            beame_luby(H, seed=1)
        times.append(time.perf_counter_ns() - t0)
    return int(statistics.median(times))


def probe_kernels(shapes: list[tuple[int, int, int]], samples: int) -> dict:
    buckets: dict[str, dict[str, int]] = {}
    for d, universe, m in shapes:
        bucket = shape_bucket(d, universe)
        H = uniform_hypergraph(universe, m, d, seed=PROBE_SEED)
        entry = {k: _median_solve_ns(H, k, samples) for k in BACKENDS}
        buckets[bucket] = entry
        winner = min(entry, key=lambda k: (entry[k], k != "bitset"))
        print(
            f"  {bucket:<16} csr={entry['csr'] / 1e6:9.2f}ms "
            f"bitset={entry['bitset'] / 1e6:9.2f}ms -> {winner}"
        )
    return buckets


# ---------------------------------------------------------------------------
# dynamic table: repair vs recompute crossover per shape bucket
# ---------------------------------------------------------------------------

#: One probe instance per bucket: (dimension, blocks, block_n, block_m).
#: Universes (blocks x block_n) sit inside their band; sharded so repair
#: has components to localize to.
DYNAMIC_SHAPES: list[tuple[int, int, int, int]] = [
    (2, 48, 16, 24),
    (2, 192, 16, 24),
    (3, 48, 16, 30),
    (3, 192, 16, 30),
    (3, 600, 16, 30),
    (4, 48, 16, 30),
    (4, 192, 16, 30),
]

#: The ``--quick`` subset.
DYNAMIC_QUICK: list[tuple[int, int, int, int]] = [
    (3, 48, 16, 30),
    (3, 192, 16, 30),
]

#: Delta fractions swept per bucket (changed edges / |E_old ∪ E_new|).
FRACTION_GRID = (0.01, 0.05, 0.10, 0.20, 0.40)


def _make_batch(
    H: Hypergraph, fraction: float, rng: np.random.Generator
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """An update batch rewriting ~*fraction* of H's edge set (half out, half in)."""
    m = H.num_edges
    d = H.dimension or 3
    # changed = 2r, denominator = m + r  =>  r = fraction*m / (2 - fraction)
    r = max(1, round(fraction * m / (2.0 - fraction)))
    edges = H.edges
    removes = [edges[i] for i in rng.choice(m, size=min(r, m), replace=False)]
    adds = []
    while len(adds) < r:
        e = tuple(sorted(int(v) for v in rng.choice(H.universe, size=d, replace=False)))
        adds.append(e)
    return adds, removes


def _median_update_ns(
    H: Hypergraph, strategy: str, fraction: float, samples: int, seed: int
) -> int:
    rng = as_generator((seed, "dynamic-calibrate"))
    times = []
    for s in range(samples):
        engine = DynamicMIS(H, seed=seed + s, strategy=strategy, validate=False)
        adds, removes = _make_batch(H, fraction, rng)
        t0 = time.perf_counter_ns()
        engine.apply(adds, removes, strict=False)
        times.append(time.perf_counter_ns() - t0)
    return int(statistics.median(times))


def _crossover(fractions: list[float], ratios: list[float]) -> float:
    """Where the repair/recompute ratio crosses 1, interpolated; clamped."""
    prev_f, prev_r = 0.0, 0.0
    for f, r in zip(fractions, ratios):
        if r >= 1.0:
            if r == prev_r:
                return f
            t = (1.0 - prev_r) / (r - prev_r)
            return round(min(1.0, max(0.0, prev_f + t * (f - prev_f))), 4)
        prev_f, prev_r = f, r
    return fractions[-1]  # repair won everywhere probed


def probe_dynamic(shapes: list[tuple[int, int, int, int]], samples: int) -> dict:
    buckets: dict[str, dict] = {}
    for d, blocks, block_n, block_m in shapes:
        H = sharded_hypergraph(blocks, block_n, block_m, d, seed=PROBE_SEED)
        bucket = shape_bucket(d, H.universe)
        ratios = []
        sweep = {}
        for frac in FRACTION_GRID:
            rep = _median_update_ns(H, "repair", frac, samples, PROBE_SEED)
            rec = _median_update_ns(H, "recompute", frac, samples, PROBE_SEED)
            ratios.append(rep / rec)
            sweep[f"{frac:g}"] = {"repair_ns": rep, "recompute_ns": rec}
        crossover = _crossover(list(FRACTION_GRID), ratios)
        buckets[bucket] = {"crossover_fraction": crossover, "sweep": sweep}
        print(
            f"  {bucket:<16} n={H.universe:<6} m={H.num_edges:<6} "
            f"crossover={crossover:g}  "
            f"ratios={['%.2f' % r for r in ratios]}"
        )
    return buckets


# ---------------------------------------------------------------------------
# shared: provenance, writing, fixture check
# ---------------------------------------------------------------------------


def _payload(buckets: dict, samples: int, **provenance: object) -> dict:
    return {
        "schema": 1,
        "unit": "ns",
        "stat": "median",
        "buckets": buckets,
        "provenance": {
            "machine_id": machine_identity(),
            "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "samples": samples,
            "seed": PROBE_SEED,
            **provenance,
        },
    }


def _write(table: CalibrationTable, payload: dict, directory: Path) -> None:
    path = directory / table.filename
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    load_calibration(table, path)  # dispatch must accept what the probe wrote
    print(f"wrote {path} (machine_id={payload['provenance']['machine_id']})")


def verify_fixture(fixture: Path) -> int:
    """CI check: the committed kernel fixture steers dispatch exactly as specced.

    1. As committed (foreign ``machine_id``) it must be **ignored**:
       dispatch falls back to the static envelope.
    2. Re-stamped with the local machine id it must be **honored**: every
       covered bucket's measured winner is what ``select_backend`` picks.
    """
    doc = json.loads(fixture.read_text())
    failures: list[str] = []

    def _probe_instance(bucket: str) -> Hypergraph:
        d = {"d2": 2, "d3": 3, "d4plus": 4}[bucket.split("-")[0]]
        u = {"u1k": 768, "u2k": 1536, "u4k": 3072, "u8k": 6144, "u8kplus": 16384}[
            bucket.split("-")[1]
        ]
        edges = [tuple(range(i, i + d)) for i in range(0, 4 * d, d)]
        return Hypergraph(u, edges)

    env = KERNEL_CALIBRATION.env
    # 1. Foreign machine_id => ignored, static fallback decides.
    os.environ[env] = str(fixture)
    invalidate_calibration_cache()
    for bucket in doc["buckets"]:
        d = select_backend(_probe_instance(bucket), requested="auto")
        if not d.reason.startswith("auto:"):
            failures.append(f"{bucket}: cross-machine fixture was not ignored ({d.reason})")

    # 2. Local machine_id => honored bucket by bucket.
    doc["provenance"]["machine_id"] = machine_identity()
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(doc, fh)
        local = fh.name
    try:
        os.environ[env] = local
        invalidate_calibration_cache()
        for bucket, entry in doc["buckets"].items():
            want = "bitset" if entry["bitset"] <= entry["csr"] else "csr"
            d = select_backend(_probe_instance(bucket), requested="auto")
            if (d.backend, d.reason) != (want, f"cost-model:{want}"):
                failures.append(
                    f"{bucket}: want ({want}, cost-model:{want}), "
                    f"got ({d.backend}, {d.reason})"
                )
    finally:
        os.unlink(local)
        os.environ.pop(env, None)
        invalidate_calibration_cache()

    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    if not failures:
        print(f"ok: dispatch honors {fixture} ({len(doc['buckets'])} buckets)")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--output",
        type=Path,
        default=REPO,
        metavar="DIR",
        help="directory to write both calibration files to (default: repo root)",
    )
    ap.add_argument("--samples", type=int, default=3)
    ap.add_argument("--quick", action="store_true", help="probe a small bucket subset per table")
    ap.add_argument(
        "--verify-fixture",
        type=Path,
        default=None,
        metavar="PATH",
        help="skip probing; assert select_backend honors the committed fixture",
    )
    args = ap.parse_args(argv)
    if args.verify_fixture is not None:
        return verify_fixture(args.verify_fixture)
    args.output.mkdir(parents=True, exist_ok=True)

    shapes = KERNEL_QUICK if args.quick else KERNEL_SHAPES
    print(f"kernel table: {len(shapes)} buckets x {args.samples} samples per backend")
    buckets = probe_kernels(shapes, args.samples)
    _write(KERNEL_CALIBRATION, _payload(buckets, args.samples), args.output)

    dyn_shapes = DYNAMIC_QUICK if args.quick else DYNAMIC_SHAPES
    print(
        f"dynamic table: {len(dyn_shapes)} shapes x {len(FRACTION_GRID)} fractions x "
        f"{args.samples} samples per strategy"
    )
    buckets = probe_dynamic(dyn_shapes, args.samples)
    _write(
        DYNAMIC_CALIBRATION,
        _payload(buckets, args.samples, fraction_grid=list(FRACTION_GRID)),
        args.output,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
