"""Shape-based backend dispatch: decisions, reasons, counters, overrides."""

from __future__ import annotations

import pytest

from repro.generators import uniform_hypergraph
from repro.hypergraph import Hypergraph
from repro.kernels import DEFAULT_KERNEL, VALID_KERNELS, current_kernel, use_kernel
from repro.kernels.dispatch import (
    DENSE_MAX_DIMENSION,
    DENSE_MAX_UNIVERSE,
    dense_capable,
    select_backend,
    shape_bucket,
)
from repro.obs.metrics import isolated_registry

DENSE_H = uniform_hypergraph(40, 80, 3, seed=0)
SPARSE_H = Hypergraph(DENSE_MAX_UNIVERSE + 1, [(0, 1, 2)])
WIDE_H = Hypergraph(20, [tuple(range(DENSE_MAX_DIMENSION + 1))])  # dim 9
DIM4_H = Hypergraph(10, [(0, 1, 2, 3)])  # dense-capable since the frontier engine


class TestDenseCapable:
    def test_small_low_dim_is_capable(self):
        assert dense_capable(DENSE_H)

    def test_universe_boundary(self):
        at = Hypergraph(DENSE_MAX_UNIVERSE, [(0, 1)])
        over = Hypergraph(DENSE_MAX_UNIVERSE + 1, [(0, 1)])
        assert dense_capable(at)
        assert not dense_capable(over)

    def test_dimension_boundary(self):
        at = Hypergraph(10, [tuple(range(DENSE_MAX_DIMENSION))])
        assert dense_capable(at)
        assert not dense_capable(WIDE_H)

    def test_dim4_and_big_universe_are_inside_the_envelope(self):
        # The PR-5 ceiling: these shapes used to be CSR-only.
        assert dense_capable(DIM4_H)
        assert dense_capable(Hypergraph(4096, [(0, 1, 2)]))


#: The edge of every shape bucket inside the dense envelope: each
#: dimension band's ends crossed with the universe band boundaries.
BOUNDARY_SHAPES = [
    (d, u)
    for d in (2, 3, 4, DENSE_MAX_DIMENSION)
    for u in (1024, 1025, 8192, 8193, DENSE_MAX_UNIVERSE)
]


class TestSelectBackend:
    @pytest.mark.parametrize(
        "dimension,universe", BOUNDARY_SHAPES, ids=[f"d{d}-u{u}" for d, u in BOUNDARY_SHAPES]
    )
    def test_auto_picks_bitset_on_dense_shapes(self, dimension, universe):
        H = Hypergraph(universe, [tuple(range(dimension))])
        d = select_backend(H, requested="auto")
        assert (d.backend, d.reason) == ("bitset", "auto:shape-dense")
        assert d.dense

    def test_auto_picks_bitset_on_dim4_shapes(self):
        d = select_backend(DIM4_H, requested="auto")
        assert (d.backend, d.reason) == ("bitset", "auto:shape-dense")

    def test_auto_picks_csr_on_sparse_shapes(self):
        # One step past the envelope on each axis: universe 65537, d = 9.
        for H in (SPARSE_H, WIDE_H):
            d = select_backend(H, requested="auto")
            assert (d.backend, d.reason) == ("csr", "auto:shape-sparse")
            assert not d.dense

    def test_forced_csr_wins_over_shape(self):
        d = select_backend(DENSE_H, requested="csr")
        assert (d.backend, d.reason) == ("csr", "forced:csr")

    def test_forced_bitset(self):
        d = select_backend(DENSE_H, requested="bitset")
        assert (d.backend, d.reason) == ("bitset", "forced:bitset")

    def test_forced_backend_on_unsupported_shape_degrades_to_csr(self):
        d = select_backend(WIDE_H, requested="bitset")
        assert (d.backend, d.reason) == ("csr", "unsupported-shape")

    def test_blockers_force_csr(self):
        d = select_backend(DENSE_H, requested="bitset", blockers=("on_round",))
        assert (d.backend, d.reason) == ("csr", "blocked:on_round")

    def test_first_blocker_is_counted(self):
        d = select_backend(DENSE_H, blockers=("backend", "on_round"))
        assert d.reason == "blocked:backend"

    def test_unknown_kernel_rejected(self, monkeypatch):
        for name in ("fpga", "jit"):
            with pytest.raises(ValueError, match="unknown kernel"):
                select_backend(DENSE_H, requested=name)
        monkeypatch.setenv("REPRO_KERNEL", "jit")
        with pytest.raises(ValueError, match="unknown kernel"):
            select_backend(DENSE_H)


class TestRequestSources:
    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert current_kernel() == DEFAULT_KERNEL == "auto"

    def test_use_kernel_drives_dispatch(self):
        with use_kernel("csr"):
            assert select_backend(DENSE_H).reason == "forced:csr"
        with use_kernel("bitset"):
            assert select_backend(DENSE_H).backend == "bitset"

    def test_env_var_drives_dispatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "csr")
        assert select_backend(DENSE_H).reason == "forced:csr"

    def test_use_kernel_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "csr")
        with use_kernel("bitset"):
            assert select_backend(DENSE_H).backend == "bitset"

    def test_valid_kernels_are_exactly_the_contract(self):
        assert VALID_KERNELS == ("auto", "csr", "bitset")


class TestCounters:
    def test_every_decision_is_counted(self):
        with isolated_registry() as reg:
            select_backend(DENSE_H, requested="auto")
            select_backend(SPARSE_H, requested="auto")
            select_backend(DENSE_H, requested="csr")
            snap = reg.snapshot()
        counters = snap["counters"]
        assert counters["kernels/dispatch/bitset"] == 1
        assert counters["kernels/dispatch/csr"] == 2
        assert counters["kernels/dispatch_reason/auto:shape-dense"] == 1
        assert counters["kernels/dispatch_reason/auto:shape-sparse"] == 1
        assert counters["kernels/dispatch_reason/forced:csr"] == 1

    def test_shape_bucket_counters(self):
        with isolated_registry() as reg:
            select_backend(DENSE_H, requested="auto")
            snap = reg.snapshot()
        assert snap["counters"]["kernels/dispatch_shape/d3-u1k/bitset"] == 1


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
