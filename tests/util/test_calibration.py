"""Calibration tables: envelope schema, machine gate, memo, both consumers."""

from __future__ import annotations

import json

import pytest

from repro.dynamic.engine import (
    DYNAMIC_CALIBRATION,
    STATIC_CROSSOVER_FRACTION,
    decide_strategy,
    delta_band,
)
from repro.kernels.dispatch import KERNEL_CALIBRATION, ShapeFeatures, preferred_backend
from repro.obs.metrics import isolated_registry
from repro.util.calibration import (
    CalibrationSchemaError,
    invalidate_calibration_cache,
    load_calibration,
    shape_bucket,
    usable_calibration,
)
from repro.util.hostid import machine_identity

TABLES = [KERNEL_CALIBRATION, DYNAMIC_CALIBRATION]

#: One valid bucket entry per table, keyed by counter namespace.
ENTRY = {
    "kernels": {"csr": 100.0, "bitset": 10.0},
    "dynamic": {"crossover_fraction": 0.05},
}

per_table = pytest.mark.parametrize("table", TABLES, ids=lambda t: t.namespace)


@pytest.fixture(autouse=True)
def _isolated_calibration(tmp_path, monkeypatch):
    """Point both tables at a nonexistent file so the repo root never leaks in."""
    for table in TABLES:
        monkeypatch.setenv(table.env, str(tmp_path / "absent.json"))
    invalidate_calibration_cache()
    yield
    invalidate_calibration_cache()


def _doc(table, buckets=None, machine_id=None, **over):
    doc = {
        "schema": 1,
        "unit": "ns",
        "stat": "median",
        "buckets": buckets if buckets is not None else {"d3-u1k": ENTRY[table.namespace]},
        "provenance": {
            "machine_id": machine_id if machine_id is not None else machine_identity()
        },
    }
    doc.update(over)
    return doc


def _write(tmp_path, doc, name="cal.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestShapeBucket:
    @pytest.mark.parametrize(
        "dim,universe,expected",
        [
            (2, 100, "d2-u1k"),
            (1, 1024, "d2-u1k"),
            (3, 1025, "d3-u2k"),
            (3, 2048, "d3-u2k"),
            (3, 4096, "d3-u4k"),
            (4, 8192, "d4plus-u8k"),
            (8, 8193, "d4plus-u8kplus"),
            (5, 400, "d4plus-u1k"),
        ],
    )
    def test_bands(self, dim, universe, expected):
        assert shape_bucket(dim, universe) == expected

    def test_cardinality_is_bounded(self):
        labels = {
            shape_bucket(d, u)
            for d in range(1, 12)
            for u in (1, 1024, 2048, 4096, 8192, 1 << 20)
        }
        assert len(labels) <= 15


@per_table
class TestEnvelope:
    """The one loader: schema checks every table shares."""

    def test_roundtrip(self, table, tmp_path):
        cal = load_calibration(table, _write(tmp_path, _doc(table)))
        assert cal.machine_id == machine_identity()
        assert set(cal.buckets) == {"d3-u1k"}

    def test_missing_file_raises(self, table, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_calibration(table, tmp_path / "nope.json")

    def test_bad_json(self, table, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text("{not json")
        with pytest.raises(CalibrationSchemaError, match="not valid JSON"):
            load_calibration(table, path)

    def test_top_level_must_be_an_object(self, table, tmp_path):
        path = _write(tmp_path, [])
        with pytest.raises(CalibrationSchemaError, match="top level"):
            load_calibration(table, path)

    def test_wrong_schema_version(self, table, tmp_path):
        path = _write(tmp_path, _doc(table, schema=2))
        with pytest.raises(CalibrationSchemaError, match="unsupported schema"):
            load_calibration(table, path)

    def test_machine_id_is_mandatory(self, table, tmp_path):
        doc = _doc(table)
        del doc["provenance"]["machine_id"]
        with pytest.raises(CalibrationSchemaError, match="machine_id"):
            load_calibration(table, _write(tmp_path, doc))

    def test_provenance_is_mandatory(self, table, tmp_path):
        doc = _doc(table)
        doc.pop("provenance")
        with pytest.raises(CalibrationSchemaError, match="machine_id"):
            load_calibration(table, _write(tmp_path, doc))

    def test_empty_buckets(self, table, tmp_path):
        path = _write(tmp_path, _doc(table, buckets={}))
        with pytest.raises(CalibrationSchemaError, match="non-empty"):
            load_calibration(table, path)

    def test_entry_error_names_the_bucket(self, table, tmp_path):
        path = _write(tmp_path, _doc(table, buckets={"d3-u1k": "fast"}))
        with pytest.raises(CalibrationSchemaError, match=r"buckets\['d3-u1k'\]"):
            load_calibration(table, path)


class TestKernelEntries:
    def _load(self, tmp_path, entry):
        doc = _doc(KERNEL_CALIBRATION, buckets={"d3-u1k": entry})
        return load_calibration(KERNEL_CALIBRATION, _write(tmp_path, doc))

    def test_parsed_timings(self, tmp_path):
        cal = self._load(tmp_path, {"csr": 100, "bitset": 10.0})
        assert cal.buckets["d3-u1k"] == {"csr": 100.0, "bitset": 10.0}

    def test_missing_backend_entry(self, tmp_path):
        with pytest.raises(CalibrationSchemaError, match="missing 'bitset'"):
            self._load(tmp_path, {"csr": 1.0})

    def test_non_numeric_timing(self, tmp_path):
        with pytest.raises(CalibrationSchemaError, match="must be a number"):
            self._load(tmp_path, {"csr": "fast", "bitset": 1.0})

    def test_negative_timing(self, tmp_path):
        with pytest.raises(CalibrationSchemaError, match="non-negative"):
            self._load(tmp_path, {"csr": -5, "bitset": 1.0})


class TestDynamicEntries:
    def test_parsed_fraction(self, tmp_path):
        path = _write(tmp_path, _doc(DYNAMIC_CALIBRATION))
        assert load_calibration(DYNAMIC_CALIBRATION, path).buckets["d3-u1k"] == 0.05

    @pytest.mark.parametrize(
        "entry",
        [
            {},
            {"crossover_fraction": "0.1"},
            {"crossover_fraction": 1.5},
            {"crossover_fraction": -0.1},
            {"crossover_fraction": True},
        ],
        ids=["no-fraction", "string-fraction", "above-one", "negative", "bool-fraction"],
    )
    def test_schema_violations(self, tmp_path, entry):
        doc = _doc(DYNAMIC_CALIBRATION, buckets={"d3-u1k": entry})
        with pytest.raises(CalibrationSchemaError):
            load_calibration(DYNAMIC_CALIBRATION, _write(tmp_path, doc))


@per_table
class TestMachineGate:
    def test_same_machine_is_usable(self, table, tmp_path):
        path = _write(tmp_path, _doc(table))
        with isolated_registry() as reg:
            cal = usable_calibration(table, path)
            snap = reg.snapshot()
        assert cal is not None
        assert snap["counters"][f"{table.namespace}/calibration/loaded"] == 1

    def test_cross_machine_is_ignored(self, table, tmp_path):
        # The bench_gate rule, applied to dispatch: wall-clock measured on
        # another machine must never steer this one.
        path = _write(tmp_path, _doc(table, machine_id="linux-arm64-other-cpu-256c"))
        with isolated_registry() as reg:
            cal = usable_calibration(table, path)
            snap = reg.snapshot()
        assert cal is None
        assert snap["counters"][f"{table.namespace}/calibration/machine-mismatch"] == 1

    def test_machine_id_parameter_overrides_ambient(self, table, tmp_path):
        path = _write(tmp_path, _doc(table, machine_id="linux-arm64-other-cpu-256c"))
        assert usable_calibration(table, path, machine_id="linux-arm64-other-cpu-256c")

    def test_missing_is_counted(self, table, tmp_path):
        with isolated_registry() as reg:
            assert usable_calibration(table, tmp_path / "nope.json") is None
            snap = reg.snapshot()
        assert snap["counters"][f"{table.namespace}/calibration/missing"] == 1

    def test_invalid_is_counted(self, table, tmp_path):
        path = _write(tmp_path, _doc(table, schema=99))
        with isolated_registry() as reg:
            assert usable_calibration(table, path) is None
            snap = reg.snapshot()
        assert snap["counters"][f"{table.namespace}/calibration/invalid"] == 1

    def test_env_override_locates_the_file(self, table, tmp_path, monkeypatch):
        path = _write(tmp_path, _doc(table), name="elsewhere.json")
        monkeypatch.setenv(table.env, str(path))
        assert table.path() == path
        cal = usable_calibration(table)
        assert cal is not None and cal.path == path


class TestPreferredBackend:
    def _cal(self, tmp_path, buckets):
        doc = _doc(KERNEL_CALIBRATION, buckets=buckets)
        return load_calibration(KERNEL_CALIBRATION, _write(tmp_path, doc))

    def test_picks_the_measured_faster_backend(self, tmp_path):
        cal = self._cal(
            tmp_path,
            {
                "d3-u1k": {"csr": 100.0, "bitset": 10.0},
                "d3-u2k": {"csr": 10.0, "bitset": 100.0},
            },
        )
        f1 = ShapeFeatures(n=40, m=80, universe=40, dimension=3, density=2.0)
        f2 = ShapeFeatures(n=2000, m=80, universe=2000, dimension=3, density=0.04)
        assert preferred_backend(cal, f1) == "bitset"
        assert preferred_backend(cal, f2) == "csr"

    def test_tie_prefers_bitset(self, tmp_path):
        cal = self._cal(tmp_path, {"d3-u1k": {"csr": 10.0, "bitset": 10.0}})
        f = ShapeFeatures(n=40, m=80, universe=40, dimension=3, density=2.0)
        assert preferred_backend(cal, f) == "bitset"

    def test_uncovered_bucket_returns_none(self, tmp_path):
        cal = self._cal(tmp_path, {"d2-u1k": {"csr": 1.0, "bitset": 2.0}})
        f = ShapeFeatures(n=40, m=80, universe=40, dimension=3, density=2.0)
        assert preferred_backend(cal, f) is None


class TestDecideStrategy:
    def _use(self, monkeypatch, tmp_path, bucket, fraction):
        doc = _doc(DYNAMIC_CALIBRATION, buckets={bucket: {"crossover_fraction": fraction}})
        path = _write(tmp_path, doc)
        monkeypatch.setenv(DYNAMIC_CALIBRATION.env, str(path))
        invalidate_calibration_cache()
        return path

    def test_delta_band_boundaries(self):
        assert delta_band(0.0) == "lt1pct"
        assert delta_band(0.0099) == "lt1pct"
        assert delta_band(0.01) == "lt5pct"
        assert delta_band(0.049) == "lt5pct"
        assert delta_band(0.05) == "lt20pct"
        assert delta_band(0.2) == "ge20pct"
        assert delta_band(1.0) == "ge20pct"

    def test_static_fallback_routes_on_threshold(self):
        d = decide_strategy(0.01, 3, 900)
        assert d.strategy == "repair"
        assert d.mode == "static"
        assert d.threshold == STATIC_CROSSOVER_FRACTION
        assert d.bucket == shape_bucket(3, 900)
        assert d.band == "lt5pct"
        big = decide_strategy(0.5, 3, 900)
        assert big.strategy == "recompute"
        assert "static" in big.reason

    def test_env_override_steers_dispatch(self, tmp_path, monkeypatch):
        self._use(monkeypatch, tmp_path, shape_bucket(3, 900), 0.02)
        d = decide_strategy(0.03, 3, 900)
        assert d.mode == "cost-model"
        assert d.threshold == 0.02
        assert d.strategy == "recompute"  # 0.03 > measured 0.02, static would repair
        assert decide_strategy(0.01, 3, 900).strategy == "repair"

    def test_uncovered_bucket_falls_back_to_static(self, tmp_path, monkeypatch):
        self._use(monkeypatch, tmp_path, "d2-u1k", 0.02)
        d = decide_strategy(0.1, 4, 900)  # bucket d4plus-u1k not covered
        assert d.mode == "static"
        assert d.threshold == STATIC_CROSSOVER_FRACTION

    def test_cross_machine_table_is_ignored(self, tmp_path, monkeypatch):
        doc = _doc(DYNAMIC_CALIBRATION, machine_id="someone-elses-box-128c")
        monkeypatch.setenv(DYNAMIC_CALIBRATION.env, str(_write(tmp_path, doc)))
        invalidate_calibration_cache()
        with isolated_registry() as reg:
            d = decide_strategy(0.1, 3, 900)
            snap = reg.snapshot()
        assert d.mode == "static"
        assert snap["counters"]["dynamic/calibration/machine-mismatch"] == 1

    def test_cache_invalidation_picks_up_rewrite(self, tmp_path, monkeypatch):
        bucket = shape_bucket(3, 900)
        path = self._use(monkeypatch, tmp_path, bucket, 0.02)
        assert decide_strategy(0.03, 3, 900).threshold == 0.02
        path.write_text(
            json.dumps(
                _doc(DYNAMIC_CALIBRATION, buckets={bucket: {"crossover_fraction": 0.4}})
            )
        )
        # Memoised: the old threshold sticks until the cache is dropped.
        assert decide_strategy(0.03, 3, 900).threshold == 0.02
        invalidate_calibration_cache()
        assert decide_strategy(0.03, 3, 900).threshold == 0.4

    def test_memo_is_keyed_on_the_env_value(self, tmp_path, monkeypatch):
        bucket = shape_bucket(3, 900)
        self._use(monkeypatch, tmp_path, bucket, 0.02)
        assert decide_strategy(0.03, 3, 900).threshold == 0.02
        other = _write(
            tmp_path,
            _doc(DYNAMIC_CALIBRATION, buckets={bucket: {"crossover_fraction": 0.3}}),
            name="other.json",
        )
        # A new env value is a new memo key: no invalidation needed.
        monkeypatch.setenv(DYNAMIC_CALIBRATION.env, str(other))
        assert decide_strategy(0.03, 3, 900).threshold == 0.3
