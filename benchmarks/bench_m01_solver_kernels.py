"""M1: micro-benchmarks of the solver kernels (wall-clock).

Unlike the E/A-series (one-shot table regenerations), these use
pytest-benchmark conventionally — many rounds, full statistics — on fixed
mid-size instances, so regressions in the hot paths (marking matvec,
cleanup, KUW prefix computation, greedy scan) show up as timing shifts.

The solver entries pin their execution backend with ``use_kernel`` so
each entry keeps measuring the same code path as the dispatcher evolves:
the historical ``bl``/``kuw``/``permutation``/``greedy`` entries are the
CSR path and ``bl_bitset`` is the dense engine (acceptance floor: ≥ 10×
the ``bl`` median).

The widened dense envelope adds two fenced pairs beyond the old
``dimension ≤ 3`` / ``universe ≤ 2048`` ceiling: ``bl_wide`` /
``bl_wide_bitset`` (universe 4096, the big-universe scalar path) and
``bl_dim4`` / ``bl_dim4_bitset`` (dimension 4, the frontier engine) —
acceptance floor ≥ 3× for each dense entry over its CSR twin.  ``sbl``
runs under ``auto`` dispatch, so it measures the real routed path
including the dense engines its reduced instances now reach.

``bl_mix25`` / ``bl_mix25_bitset`` fence the frontier engine's row-mask
Δ state on the ``solve-mix`` shape (mixed dimensions 2–5, n=1000,
m=1500), where duplicate collapse, containment and red singletons all
fire; floor ≥ 3× for the dense entry over its CSR twin.
"""

import pytest

from repro.core import beame_luby, greedy_mis, karp_upfal_wigderson, permutation_bl
from repro.core import sbl as sbl_solver
from repro.generators import mixed_dimension_hypergraph, uniform_hypergraph
from repro.hypergraph import check_mis
from repro.hypergraph.degrees import degree_profile
from repro.hypergraph.ops import normalize
from repro.kernels import use_kernel

N, M, D = 400, 800, 3
#: Beyond the old dense ceiling: universe 4096 (was ≤ 2048) …
N_WIDE, M_WIDE = 4096, 8192
#: … and dimension 4 (was ≤ 3).
N_D4, M_D4, D4 = 400, 600, 4
#: … and mixed dimensions 2–5, the solve-mix pool shape.
N_MIX, M_MIX, DIMS_MIX = 1000, 1500, (2, 3, 4, 5)


@pytest.fixture(scope="module")
def instance():
    return uniform_hypergraph(N, M, D, seed=7)


@pytest.fixture(scope="module")
def wide_instance():
    return uniform_hypergraph(N_WIDE, M_WIDE, 3, seed=7)


@pytest.fixture(scope="module")
def dim4_instance():
    return uniform_hypergraph(N_D4, M_D4, D4, seed=7)


@pytest.fixture(scope="module")
def mix25_instance():
    return mixed_dimension_hypergraph(N_MIX, M_MIX, DIMS_MIX, seed=7)


def _forced(kernel, fn, *args, **kwargs):
    with use_kernel(kernel):
        return fn(*args, **kwargs)


def test_kernel_greedy(benchmark, instance):
    res = benchmark(lambda: _forced("csr", greedy_mis, instance, seed=1))
    check_mis(instance, res.independent_set)


def test_kernel_kuw(benchmark, instance):
    res = benchmark(
        lambda: _forced("csr", karp_upfal_wigderson, instance, seed=1, trace=False)
    )
    check_mis(instance, res.independent_set)


def test_kernel_permutation(benchmark, instance):
    res = benchmark(
        lambda: _forced("csr", permutation_bl, instance, seed=1, trace=False)
    )
    check_mis(instance, res.independent_set)


def test_kernel_bl(benchmark, instance):
    res = benchmark(lambda: _forced("csr", beame_luby, instance, seed=1, trace=False))
    check_mis(instance, res.independent_set)


def test_kernel_bl_bitset(benchmark, instance):
    res = benchmark(
        lambda: _forced("bitset", beame_luby, instance, seed=1, trace=False)
    )
    check_mis(instance, res.independent_set)


def test_kernel_bl_wide(benchmark, wide_instance):
    res = benchmark(
        lambda: _forced("csr", beame_luby, wide_instance, seed=1, trace=False)
    )
    check_mis(wide_instance, res.independent_set)


def test_kernel_bl_wide_bitset(benchmark, wide_instance):
    res = benchmark(
        lambda: _forced("bitset", beame_luby, wide_instance, seed=1, trace=False)
    )
    check_mis(wide_instance, res.independent_set)


def test_kernel_bl_dim4(benchmark, dim4_instance):
    res = benchmark(
        lambda: _forced("csr", beame_luby, dim4_instance, seed=1, trace=False)
    )
    check_mis(dim4_instance, res.independent_set)


def test_kernel_bl_dim4_bitset(benchmark, dim4_instance):
    res = benchmark(
        lambda: _forced("bitset", beame_luby, dim4_instance, seed=1, trace=False)
    )
    check_mis(dim4_instance, res.independent_set)


def test_kernel_bl_mix25(benchmark, mix25_instance):
    res = benchmark(
        lambda: _forced("csr", beame_luby, mix25_instance, seed=1, trace=False)
    )
    check_mis(mix25_instance, res.independent_set)


def test_kernel_bl_mix25_bitset(benchmark, mix25_instance):
    res = benchmark(
        lambda: _forced("bitset", beame_luby, mix25_instance, seed=1, trace=False)
    )
    check_mis(mix25_instance, res.independent_set)


def test_kernel_sbl(benchmark, instance):
    res = benchmark(lambda: _forced("auto", sbl_solver, instance, seed=1))
    check_mis(instance, res.independent_set)


def test_kernel_degree_profile(benchmark, instance):
    prof = benchmark(lambda: degree_profile(instance))
    assert prof.delta() > 0


def test_kernel_normalize(benchmark, instance):
    benchmark(lambda: normalize(instance))


def test_kernel_incidence_matvec(benchmark, instance):
    import numpy as np

    marked = np.zeros(instance.universe, dtype=bool)
    marked[::3] = True
    inc = instance.incidence()
    sizes = instance.edge_sizes()
    out = benchmark(lambda: np.flatnonzero((inc @ marked.astype(np.int64)) == sizes))
    assert out is not None
