"""Measured repair-vs-recompute crossover for the dynamic engine.

Small update batches should be repaired in place (cost scales with the
affected region); large ones should recompute from scratch (repair's
localization overhead — one component labeling plus the splice — stops
paying for itself).  Where the crossover sits depends on the machine and
on the instance shape, so this module mirrors the kernel dispatcher's
:mod:`repro.kernels.costmodel` discipline exactly: a calibration file
(``DYNAMIC_CALIBRATION.json`` at the repo root, schema-validated, stamped
with :func:`repro.util.hostid.machine_identity` and **ignored** on
machine mismatch) maps each *shape bucket* — the same dimension × universe
vocabulary as kernel dispatch, see
:func:`repro.kernels.costmodel.shape_bucket` — to a measured crossover
delta-fraction.  Without a usable calibration the dispatcher falls back
to a static threshold; a bad calibration can never break an update, only
mis-route it.

``scripts/dynamic_calibrate.py`` produces the calibration by racing
repair against recompute at increasing delta fractions per bucket.
Override the file location with ``REPRO_DYNAMIC_CALIBRATION``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.kernels.costmodel import shape_bucket
from repro.util.hostid import machine_identity

__all__ = [
    "DEFAULT_CALIBRATION_PATH",
    "ENV_CALIBRATION",
    "STATIC_CROSSOVER_FRACTION",
    "CrossoverCalibration",
    "DynamicCalibrationError",
    "StrategyDecision",
    "calibration_path",
    "decide_strategy",
    "delta_band",
    "invalidate_calibration_cache",
    "load_calibration",
    "usable_calibration",
]

#: Environment variable overriding the calibration file location.
ENV_CALIBRATION = "REPRO_DYNAMIC_CALIBRATION"

#: Default location, next to the BENCH_*.json baselines at the repo root.
DEFAULT_CALIBRATION_PATH = Path(__file__).resolve().parents[3] / "DYNAMIC_CALIBRATION.json"

#: Delta-fraction above which recompute wins when no calibration applies.
#: Conservative: repair's fixed overhead (diff + component labeling) is
#: vectorised while the greedy scan it avoids is per-vertex Python, so the
#: measured crossover usually sits far higher.
STATIC_CROSSOVER_FRACTION = 0.25

#: Delta-fraction band upper bounds (exclusive), smallest first; used only
#: for the low-cardinality decision counters, never for dispatch itself.
_DELTA_BANDS: tuple[tuple[float, str], ...] = (
    (0.01, "lt1pct"),
    (0.05, "lt5pct"),
    (0.20, "lt20pct"),
)
_DELTA_TOP = "ge20pct"


class DynamicCalibrationError(ValueError):
    """A dynamic calibration file exists but does not match the schema."""


@dataclass(frozen=True)
class CrossoverCalibration:
    """A loaded, schema-validated crossover calibration."""

    path: Path
    buckets: Mapping[str, float]  # shape bucket -> crossover delta-fraction
    provenance: Mapping[str, object]
    raw: Mapping[str, object]

    @property
    def machine_id(self) -> str:
        return str(self.provenance["machine_id"])


@dataclass(frozen=True)
class StrategyDecision:
    """One repair-vs-recompute routing decision, with its audit trail."""

    strategy: str  # "repair" | "recompute"
    reason: str
    bucket: str  # shape bucket (kernel vocabulary, e.g. "d3-u4k")
    band: str  # delta-fraction band (e.g. "lt1pct")
    threshold: float
    mode: str  # "cost-model" | "static"


def delta_band(fraction: float) -> str:
    """Low-cardinality label for a delta fraction (counter dimension)."""
    for bound, label in _DELTA_BANDS:
        if fraction < bound:
            return label
    return _DELTA_TOP


def calibration_path() -> Path:
    """The calibration file location (env override, else the repo default)."""
    override = os.environ.get(ENV_CALIBRATION)
    return Path(override) if override else DEFAULT_CALIBRATION_PATH


def load_calibration(path: Path) -> CrossoverCalibration:
    """Load and schema-validate one crossover calibration file.

    Raises ``FileNotFoundError`` if absent and
    :class:`DynamicCalibrationError` on any shape violation, including a
    missing ``provenance.machine_id`` — an unattributed measurement must
    never steer dispatch.
    """
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DynamicCalibrationError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DynamicCalibrationError(f"{path}: top level must be an object")
    if doc.get("schema") != 1:
        raise DynamicCalibrationError(
            f"{path}: unsupported schema {doc.get('schema')!r} (expected 1)"
        )
    provenance = doc.get("provenance")
    if not isinstance(provenance, dict) or not isinstance(
        provenance.get("machine_id"), str
    ):
        raise DynamicCalibrationError(
            f"{path}: provenance.machine_id (a string) is required"
        )
    buckets_doc = doc.get("buckets")
    if not isinstance(buckets_doc, dict) or not buckets_doc:
        raise DynamicCalibrationError(f"{path}: buckets must be a non-empty object")
    buckets: dict[str, float] = {}
    for bucket, entry in buckets_doc.items():
        if not isinstance(entry, dict) or "crossover_fraction" not in entry:
            raise DynamicCalibrationError(
                f"{path}: buckets[{bucket!r}] must be an object with crossover_fraction"
            )
        value = entry["crossover_fraction"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DynamicCalibrationError(
                f"{path}: buckets[{bucket!r}].crossover_fraction must be a number"
            )
        fraction = float(value)
        if not 0.0 <= fraction <= 1.0:
            raise DynamicCalibrationError(
                f"{path}: buckets[{bucket!r}].crossover_fraction must be in [0, 1]"
            )
        buckets[str(bucket)] = fraction
    return CrossoverCalibration(path=path, buckets=buckets, provenance=provenance, raw=doc)


def usable_calibration(
    path: Path | None = None, *, machine_id: str | None = None
) -> CrossoverCalibration | None:
    """The calibration dispatch may act on, or ``None`` with the reason counted."""
    from repro.obs import metrics as obs_metrics

    p = path if path is not None else calibration_path()
    try:
        cal = load_calibration(p)
    except FileNotFoundError:
        obs_metrics.inc("dynamic/calibration/missing")
        return None
    except DynamicCalibrationError:
        obs_metrics.inc("dynamic/calibration/invalid")
        return None
    current = machine_id if machine_id is not None else machine_identity()
    if cal.machine_id != current:
        obs_metrics.inc("dynamic/calibration/machine-mismatch")
        return None
    obs_metrics.inc("dynamic/calibration/loaded")
    return cal


#: Memo of usable_calibration so sustained churn does not re-read the file
#: on every update (same discipline as kernel dispatch's cache).  Keyed on
#: the raw ``ENV_CALIBRATION`` value (``None`` when unset): a dict lookup,
#: where resolving the path would cost filesystem calls on every batch.
_CAL_CACHE: dict[str | None, CrossoverCalibration | None] = {}


def invalidate_calibration_cache() -> None:
    """Drop the memoised calibration (tests and calibration writers)."""
    _CAL_CACHE.clear()


def _cached_calibration() -> CrossoverCalibration | None:
    key = os.environ.get(ENV_CALIBRATION)
    if key not in _CAL_CACHE:
        if len(_CAL_CACHE) > 8:
            _CAL_CACHE.clear()
        _CAL_CACHE[key] = usable_calibration(calibration_path())
    return _CAL_CACHE[key]


def decide_strategy(
    delta_fraction: float, dimension: int, universe: int
) -> StrategyDecision:
    """Route one update batch: repair in place or recompute from scratch.

    The batch's *delta fraction* (changed edges over ``|E_old ∪ E_new|``)
    is compared against the crossover for the instance's shape bucket —
    measured when a usable calibration covers the bucket, the static
    threshold otherwise.
    """
    bucket = shape_bucket(dimension, universe)
    band = delta_band(delta_fraction)
    cal = _cached_calibration()
    if cal is not None and bucket in cal.buckets:
        threshold = cal.buckets[bucket]
        mode = "cost-model"
    else:
        threshold = STATIC_CROSSOVER_FRACTION
        mode = "static"
    strategy = "repair" if delta_fraction <= threshold else "recompute"
    reason = (
        f"{mode}: delta {delta_fraction:.4f} "
        f"{'<=' if strategy == 'repair' else '>'} crossover {threshold:.4f} [{bucket}]"
    )
    return StrategyDecision(
        strategy=strategy,
        reason=reason,
        bucket=bucket,
        band=band,
        threshold=threshold,
        mode=mode,
    )
