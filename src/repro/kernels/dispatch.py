"""Shape-based kernel dispatch for the MIS solvers.

Every solver entry point (``beame_luby``, ``karp_upfal_wigderson``,
``permutation_bl``, ``greedy_mis``) asks this module which execution
backend to run — callers never pick one by hand.  The decision uses cheap
instance features only (universe and dimension, read off the store
headers without touching the payload), plus hard blockers from the call
site (instrumentation hooks that are defined in terms of the CSR
representation).

In ``auto`` mode the rule is static: inside the dense envelope
(:func:`dense_capable`) a dense engine runs, outside it the CSR loop.
The dense engines measured faster than CSR in every shape bucket of the
envelope (2.6–11.4× for BL, ``docs/kernels.md``), so no per-machine
table is consulted.

The contract the dispatcher relies on — and the differential fuzz subjects
enforce — is that **all backends are bit-identical per seed**, so this
choice can never change a result, a trace record, or a regression corpus
replay; only wall-clock.

Every decision is counted in the metrics registry:

* ``kernels/dispatch/<backend>`` — which backend ran;
* ``kernels/dispatch_reason/<reason>`` — why (low-cardinality labels);
* ``kernels/dispatch_shape/<bucket>/<backend>`` — chosen backend per
  shape bucket (:func:`shape_bucket`);

all visible in ``repro trace summary`` and the OpenMetrics export.

>>> shape_bucket(3, 900)
'd3-u1k'
>>> shape_bucket(5, 9000)
'd4plus-u8kplus'
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hypergraph.hypergraph import Hypergraph
from repro.kernels import current_kernel
from repro.obs import metrics as obs_metrics

__all__ = [
    "DENSE_MAX_DIMENSION",
    "DENSE_MAX_UNIVERSE",
    "KernelDecision",
    "dense_capable",
    "select_backend",
    "shape_bucket",
]

#: The dense envelope: what *some* dense engine can represent.  The
#: engines divide it between themselves — the scalar engine covers
#: dimension ≤ 3 (bespoke degree/pair histograms), the frontier engine
#: dimension 4+ (generic lists + a row-mask Δ state) — and both keep
#: per-vertex state O(universe), so the bound is set by acceptable
#: allocation, not table blow-up.
DENSE_MAX_DIMENSION = 8
DENSE_MAX_UNIVERSE = 65536

#: Universe band upper bounds (inclusive), smallest first; shapes above the
#: last bound land in the open top band.
_UNIVERSE_BANDS: tuple[tuple[int, str], ...] = (
    (1024, "u1k"),
    (2048, "u2k"),
    (4096, "u4k"),
    (8192, "u8k"),
)
_UNIVERSE_TOP = "u8kplus"


def shape_bucket(dimension: int, universe: int) -> str:
    """The counter label for an instance shape, e.g. ``"d3-u2k"``.

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


@dataclass(frozen=True)
class KernelDecision:
    """Outcome of one dispatch: the backend to run and the (counted) reason."""

    backend: str  # "csr" | "bitset"
    reason: str

    @property
    def dense(self) -> bool:
        return self.backend != "csr"


def dense_capable(H: Hypergraph) -> bool:
    """Can a dense engine represent this instance at all?

    The frontier engines keep per-vertex incidence lists and integer
    degree state — O(universe + Σ 2^|e|), no U² tables — so the
    envelope extends to dimension ≤ 8 and universes up to 64k.  Beyond it
    the CSR reference loop is the only representation.
    """
    return H.dimension <= DENSE_MAX_DIMENSION and H.universe <= DENSE_MAX_UNIVERSE


def select_backend(
    H: Hypergraph,
    *,
    requested: str | None = None,
    blockers: tuple[str, ...] = (),
) -> KernelDecision:
    """Choose the backend for one solve and count the decision.

    Parameters
    ----------
    H:
        The instance (only shape features are read).
    requested:
        Explicit kernel name; defaults to :func:`repro.kernels.current_kernel`
        (``use_kernel`` override, else ``REPRO_KERNEL``, else ``auto``).
    blockers:
        Call-site conditions that force CSR regardless of the request —
        e.g. an ``on_round`` hook (its signature hands out CSR hypergraph
        successors) or an explicit execution backend.  Low-cardinality
        labels; the first one is counted.
    """
    req = _validated(requested) if requested is not None else current_kernel()
    if req == "csr":
        decision = KernelDecision("csr", "forced:csr")
    elif blockers:
        decision = KernelDecision("csr", f"blocked:{blockers[0]}")
    elif not dense_capable(H):
        reason = "auto:shape-sparse" if req == "auto" else "unsupported-shape"
        decision = KernelDecision("csr", reason)
    elif req == "bitset":
        decision = KernelDecision("bitset", "forced:bitset")
    else:
        decision = KernelDecision("bitset", "auto:shape-dense")
    obs_metrics.inc(f"kernels/dispatch/{decision.backend}")
    obs_metrics.inc(f"kernels/dispatch_reason/{decision.reason}")
    bucket = shape_bucket(H.dimension, H.universe)
    obs_metrics.inc(f"kernels/dispatch_shape/{bucket}/{decision.backend}")
    return decision


def _validated(name: str) -> str:
    from repro.kernels import _validate

    return _validate(name)
