"""Per-machine calibration tables for the two measured dispatchers.

Two run-time choices follow wall-clock measurements when a calibration
exists, and static thresholds otherwise:

* kernel dispatch (:func:`repro.kernels.dispatch.select_backend`) reads
  ``KERNEL_CALIBRATION.json`` — per shape bucket, the median solve time
  of the ``csr`` and ``bitset`` backends;
* the dynamic engine (:func:`repro.dynamic.engine.decide_strategy`) reads
  ``DYNAMIC_CALIBRATION.json`` — per shape bucket, the update-batch delta
  fraction above which recompute beats repair.

``scripts/calibrate.py`` measures both on the current machine and writes
both files to the repo root.  They share one envelope (schema 1)::

    {"schema": 1,
     "buckets": {"d3-u1k": <entry>, ...},
     "provenance": {"machine_id": "...", ...}}

This module owns everything the two tables have in common: the envelope
check (:func:`load_calibration`), the machine gate
(:func:`usable_calibration`), the per-process memo
(:func:`active_calibration`) and the bucket vocabulary
(:func:`shape_bucket`).  Each consumer contributes only a
:class:`CalibrationTable` — file name, env override, counter namespace and
the validator for one bucket entry.

Wall-clock medians are only meaningful on the machine that produced them,
so every file must carry :func:`repro.util.hostid.machine_identity` in its
provenance and is **ignored** on mismatch — the rule
``scripts/bench_gate.py`` enforces for the bench baselines.  A missing,
invalid or cross-machine file is counted
(``<namespace>/calibration/<missing|invalid|machine-mismatch>``) and
reverts its consumer to the static thresholds; it can never break a solve
or an update, only mis-route it.

>>> shape_bucket(3, 900)
'd3-u1k'
>>> shape_bucket(5, 9000)
'd4plus-u8kplus'
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.util.hostid import machine_identity

__all__ = [
    "CalibrationSchemaError",
    "Calibration",
    "CalibrationTable",
    "active_calibration",
    "bounded_number",
    "invalidate_calibration_cache",
    "load_calibration",
    "shape_bucket",
    "usable_calibration",
]

#: Where the calibration files live by default, next to the BENCH_*.json
#: baselines.
_REPO_ROOT = Path(__file__).resolve().parents[3]

#: Universe band upper bounds (inclusive), smallest first; shapes above the
#: last bound land in the open top band.
_UNIVERSE_BANDS: tuple[tuple[int, str], ...] = (
    (1024, "u1k"),
    (2048, "u2k"),
    (4096, "u4k"),
    (8192, "u8k"),
)
_UNIVERSE_TOP = "u8kplus"


class CalibrationSchemaError(ValueError):
    """A calibration file exists but does not match the expected schema."""


@dataclass(frozen=True)
class CalibrationTable:
    """One kind of calibration file and how its bucket entries parse.

    *parse_entry* turns one ``buckets[<bucket>]`` value into what the
    consumer looks up, raising ``ValueError`` (message without the path,
    which :func:`load_calibration` prefixes) when the entry is malformed.
    """

    namespace: str  # counters: ``<namespace>/calibration/<event>``
    filename: str
    env: str  # environment variable overriding the file location
    parse_entry: Callable[[object], Any]

    def path(self) -> Path:
        """The file location (env override, else the repo default)."""
        override = os.environ.get(self.env)
        return Path(override) if override else _REPO_ROOT / self.filename


@dataclass(frozen=True)
class Calibration:
    """A loaded calibration file whose envelope and entries validated."""

    path: Path
    buckets: Mapping[str, Any]  # bucket -> parsed entry
    provenance: Mapping[str, object]

    @property
    def machine_id(self) -> str:
        return str(self.provenance["machine_id"])


def shape_bucket(dimension: int, universe: int) -> str:
    """The calibration bucket for an instance shape, e.g. ``"d3-u2k"``.

    Buckets are a dimension band (``d2`` | ``d3`` | ``d4plus``) crossed
    with a universe band (``u1k`` ≤ 1024 < ``u2k`` ≤ 2048 < ``u4k`` ≤ 4096
    < ``u8k`` ≤ 8192 < ``u8kplus``).  Low-cardinality by construction —
    3 × 5 possible labels — so per-bucket counters stay bounded.
    """
    if dimension <= 2:
        dim_band = "d2"
    elif dimension == 3:
        dim_band = "d3"
    else:
        dim_band = "d4plus"
    for bound, label in _UNIVERSE_BANDS:
        if universe <= bound:
            return f"{dim_band}-{label}"
    return f"{dim_band}-{_UNIVERSE_TOP}"


def bounded_number(value: object, name: str, hi: float = math.inf) -> float:
    """*value* as a float in ``[0, hi]``, else ``ValueError`` naming *name*."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    out = float(value)
    if out < 0:
        raise ValueError(f"{name} must be non-negative, got {out}")
    if out > hi:
        raise ValueError(f"{name} must be at most {hi:g}, got {out}")
    return out


def load_calibration(table: CalibrationTable, path: Path) -> Calibration:
    """Load and schema-validate one calibration file of *table*'s kind.

    Raises ``FileNotFoundError`` if absent and
    :class:`CalibrationSchemaError` on any shape violation — including a
    missing ``provenance.machine_id``, which is mandatory: a calibration
    that cannot prove where it was measured must never steer dispatch.
    """
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CalibrationSchemaError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CalibrationSchemaError(f"{path}: top level must be an object")
    if doc.get("schema") != 1:
        raise CalibrationSchemaError(
            f"{path}: unsupported schema {doc.get('schema')!r} (expected 1)"
        )
    provenance = doc.get("provenance")
    if not isinstance(provenance, dict) or not isinstance(
        provenance.get("machine_id"), str
    ):
        raise CalibrationSchemaError(
            f"{path}: provenance.machine_id (a string) is required"
        )
    buckets_doc = doc.get("buckets")
    if not isinstance(buckets_doc, dict) or not buckets_doc:
        raise CalibrationSchemaError(f"{path}: buckets must be a non-empty object")
    buckets: dict[str, Any] = {}
    for bucket, entry in buckets_doc.items():
        try:
            buckets[str(bucket)] = table.parse_entry(entry)
        except ValueError as exc:
            raise CalibrationSchemaError(f"{path}: buckets[{bucket!r}]: {exc}") from None
    return Calibration(path=path, buckets=buckets, provenance=provenance)


def usable_calibration(
    table: CalibrationTable, path: Path | None = None, *, machine_id: str | None = None
) -> Calibration | None:
    """The calibration a dispatcher may act on, or ``None`` with the reason counted.

    ``None`` (static fallback) when the file is missing, fails schema
    validation, or was measured on a different machine.  The *machine_id*
    parameter exists for the cross-machine unit tests; real callers use
    the ambient :func:`machine_identity`.
    """
    from repro.obs import metrics as obs_metrics

    counter = f"{table.namespace}/calibration"
    try:
        cal = load_calibration(table, path if path is not None else table.path())
    except FileNotFoundError:
        obs_metrics.inc(f"{counter}/missing")
        return None
    except CalibrationSchemaError:
        obs_metrics.inc(f"{counter}/invalid")
        return None
    current = machine_id if machine_id is not None else machine_identity()
    if cal.machine_id != current:
        obs_metrics.inc(f"{counter}/machine-mismatch")
        return None
    obs_metrics.inc(f"{counter}/loaded")
    return cal


#: Memo of :func:`usable_calibration`: dispatch runs on every solve and
#: every update batch and must not re-read the file each time.  Keyed on
#: the table and the raw env value (``None`` when unset) — a dict lookup,
#: where resolving the path would cost filesystem calls.  ``None`` results
#: are memoised too.
_MEMO: dict[tuple[str, str | None], Calibration | None] = {}


def active_calibration(table: CalibrationTable) -> Calibration | None:
    """The memoised usable calibration for *table* at its current location."""
    key = (table.namespace, os.environ.get(table.env))
    if key not in _MEMO:
        if len(_MEMO) > 16:  # env churn in long-lived test processes
            _MEMO.clear()
        _MEMO[key] = usable_calibration(table)
    return _MEMO[key]


def invalidate_calibration_cache() -> None:
    """Drop every memoised calibration (tests; after rewriting a file)."""
    _MEMO.clear()
