"""Seeded instance fuzzer: generator families + adversarial mutations.

Case synthesis is a pure function of ``(seed, index)``:

* the **family** rotates deterministically through every generator in
  :data:`FAMILIES` (so a short run still covers random, linear, planted,
  structured, boundary and degenerate shapes — no coverage luck), and
* the family **parameters**, the **mutation pipeline** and the **solver
  seed** are drawn from a child RNG derived from ``(seed, "case", index)``
  via the repo-wide :mod:`repro.util.rng` plumbing.

That determinism is what makes failures replayable: a reproducer needs
only the fuzz seed and case index (or the shrunk instance itself, see
:mod:`repro.qa.regressions`) to rebuild the exact run.

Families marked as carrying a **certificate** (planted instances) attach
a known-valid MIS to the case; the differential harness validates the
certificate alongside the solver outputs, which catches validator bugs
as well as solver bugs.  Mutations that would invalidate the certificate
(singletons, isolated vertices, disjoint unions) are skipped on such
cases; duplicate and superset edges provably preserve it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.generators import (
    bounded_edges_instance,
    churn_stream,
    complete_uniform,
    matching_hypergraph,
    mixed_dimension_hypergraph,
    partial_steiner_triples,
    planted_mis_instance,
    random_linear_hypergraph,
    sharded_hypergraph,
    sparse_random_graph,
    star_hypergraph,
    sunflower,
    tight_cycle,
    tight_path,
    uniform_hypergraph,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.qa import mutations as mut
from repro.util.rng import SeedLike, as_generator

__all__ = ["FuzzCase", "FAMILIES", "generate_case", "iter_cases"]


@dataclass(frozen=True)
class FuzzCase:
    """One fuzz instance plus the provenance needed to rebuild it."""

    index: int
    family: str
    params: dict
    mutations: tuple[str, ...]
    solver_seed: int
    hypergraph: Hypergraph
    certificate: np.ndarray | None = field(default=None, compare=False)

    def describe(self) -> str:
        """One-line human summary (used by the CLI and failure manifests)."""
        H = self.hypergraph
        muts = "+".join(self.mutations) if self.mutations else "none"
        return (
            f"case {self.index}: family={self.family} n={H.num_vertices} "
            f"m={H.num_edges} dim={H.dimension} mutations={muts} "
            f"solver_seed={self.solver_seed}"
        )


def _build_uniform(rng: np.random.Generator) -> tuple[Hypergraph, None, dict]:
    n = int(rng.integers(6, 44))
    d = int(rng.integers(2, min(6, n + 1)))
    m = int(min(rng.integers(1, 2 * n), math.comb(n, d)))
    return uniform_hypergraph(n, m, d, seed=rng), None, {"n": n, "m": m, "d": d}


def _build_mixed(rng: np.random.Generator) -> tuple[Hypergraph, None, dict]:
    n = int(rng.integers(8, 40))
    dims = sorted({int(rng.integers(2, 6)) for _ in range(3)})
    m = int(rng.integers(1, 2 * n))
    H = mixed_dimension_hypergraph(n, m, dims, seed=rng)
    return H, None, {"n": n, "m": m, "dims": dims}


def _build_graph(rng: np.random.Generator) -> tuple[Hypergraph, None, dict]:
    n = int(rng.integers(4, 48))
    avg = float(rng.uniform(0.5, 4.0))
    return sparse_random_graph(n, avg, seed=rng), None, {"n": n, "avg_degree": round(avg, 2)}


def _build_linear(rng: np.random.Generator) -> tuple[Hypergraph, None, dict]:
    n = int(rng.integers(9, 36))
    d = int(rng.integers(2, 5))
    budget = (n * (n - 1) // 2) // (d * (d - 1) // 2)
    m = int(rng.integers(1, max(2, budget // 2)))
    try:
        H = random_linear_hypergraph(n, m, d, seed=rng)
    except RuntimeError:
        # Random probing stalled below the pair budget; fall back to the
        # deterministic packing (still a linear instance, still seeded).
        H = partial_steiner_triples(max(n, 3), seed=rng)
        return H, None, {"n": n, "fallback": "steiner"}
    return H, None, {"n": n, "m": m, "d": d}


def _build_steiner(rng: np.random.Generator) -> tuple[Hypergraph, None, dict]:
    n = int(rng.integers(7, 22))
    return partial_steiner_triples(n, seed=rng), None, {"n": n}


def _build_planted(rng: np.random.Generator) -> tuple[Hypergraph, np.ndarray, dict]:
    n = int(rng.integers(6, 32))
    d = int(rng.integers(2, 5))
    extra = int(rng.integers(0, 2 * n))
    frac = float(rng.uniform(0.25, 0.75))
    H, planted = planted_mis_instance(n, extra, d, seed=rng, planted_fraction=frac)
    return H, planted, {"n": n, "extra_edges": extra, "d": d, "fraction": round(frac, 2)}


def _build_bounded(rng: np.random.Generator) -> tuple[Hypergraph, None, dict]:
    n = int(rng.integers(16, 48))
    beta = float(rng.uniform(0.5, 5.0))
    H = bounded_edges_instance(n, seed=rng, beta_fraction=beta)
    return H, None, {"n": n, "beta_fraction": round(beta, 2)}


def _build_structured(rng: np.random.Generator) -> tuple[Hypergraph, None, dict]:
    kind = ["sunflower", "matching", "star", "complete", "tight_path", "tight_cycle"][
        int(rng.integers(0, 6))
    ]
    if kind == "sunflower":
        args = (int(rng.integers(1, 4)), int(rng.integers(2, 6)), int(rng.integers(1, 4)))
        H = sunflower(*args)
    elif kind == "matching":
        args = (int(rng.integers(0, 6)), int(rng.integers(2, 5)))
        H = matching_hypergraph(*args)
    elif kind == "star":
        args = (int(rng.integers(1, 7)), int(rng.integers(2, 5)))
        H = star_hypergraph(*args)
    elif kind == "complete":
        n = int(rng.integers(3, 8))
        args = (n, int(rng.integers(2, n + 1)))
        H = complete_uniform(*args)
    elif kind == "tight_path":
        n = int(rng.integers(4, 20))
        args = (n, int(rng.integers(2, min(6, n + 1))))
        H = tight_path(*args)
    else:
        n = int(rng.integers(4, 20))
        args = (n, int(rng.integers(2, min(6, n))))
        H = tight_cycle(*args)
    return H, None, {"kind": kind, "args": list(args)}


def _build_boundary(rng: np.random.Generator) -> tuple[Hypergraph, None, dict]:
    """Near-d-dimension boundary: edge sizes at or one below the vertex count."""
    n = int(rng.integers(3, 9))
    shape = int(rng.integers(0, 3))
    if shape == 0:
        # One edge spanning every vertex: any MIS is V minus one vertex.
        H = Hypergraph(n, [tuple(range(n))])
        kind = "full-edge"
    elif shape == 1:
        # All (n-1)-subsets: any MIS has exactly n-2 vertices.
        H = complete_uniform(n, n - 1)
        kind = "complete-(n-1)"
    else:
        # All (n-1)-subsets plus the full superset edge (cleanup bait).
        H = complete_uniform(n, n - 1).replace(
            edges=list(complete_uniform(n, n - 1).edges) + [tuple(range(n))]
        )
        kind = "complete-(n-1)+full"
    return H, None, {"n": n, "kind": kind}


def _build_dense(rng: np.random.Generator) -> tuple[Hypergraph, None, dict]:
    """Dense-kernel bias: small universe, dimension ≤ 3, high edge density.

    Every instance of this family routes through the dense scalar engine
    under ``auto`` dispatch, so the differential battery exercises its
    cleanup machinery — duplicate collapse, containment discards,
    singleton reds — far more often than the uniform family would.
    """
    n = int(rng.integers(6, 64))
    d = int(rng.integers(2, 4))
    cap = math.comb(n, d)
    m = int(min(rng.integers(n, 4 * n + 1), cap))
    H = uniform_hypergraph(n, m, d, seed=rng)
    return H, None, {"n": n, "m": m, "d": d}


def _build_dense_high_dim(rng: np.random.Generator) -> tuple[Hypergraph, None, dict]:
    """Dense-kernel bias, dimension 4–5: the frontier-engine regime.

    Under ``auto`` dispatch these route to the mixed-dimension frontier
    engine (``bl_frontier``) — the path where cleanup must converge past
    one pass (a containment discard can expose a new duplicate, which can
    expose a new singleton) — so the differential battery hammers exactly
    the generalized fixed-point loop.
    """
    n = int(rng.integers(12, 49))
    d = int(rng.integers(4, 6))
    cap = math.comb(n, d)
    m = int(min(rng.integers(n, 3 * n + 1), cap))
    H = uniform_hypergraph(n, m, d, seed=rng)
    return H, None, {"n": n, "m": m, "d": d}


def _build_dense_wide(rng: np.random.Generator) -> tuple[Hypergraph, None, dict]:
    """Dense-kernel bias, universe 3k–8k: the big-universe regime.

    Beyond the old 2048-vertex ceiling but inside the widened envelope,
    with few edges relative to the universe — the live-stripe shape the
    tiled layout targets.  Keeps per-case solves fast while still walking
    the wide-universe code paths (sentinel padding, stripe clipping,
    sparse-active commits).
    """
    n = int(rng.integers(3000, 8001))
    d = int(rng.integers(2, 4))
    m = int(rng.integers(64, 257))
    H = uniform_hypergraph(n, m, d, seed=rng)
    return H, None, {"n": n, "m": m, "d": d}


def _build_stream(rng: np.random.Generator) -> tuple[Hypergraph, None, dict]:
    """Stream-updates family: a starting instance plus an update sequence.

    The case's hypergraph is the *initial* state; the churn batches ride
    in ``params["stream"]["steps"]`` (JSON-ably encoded) and the battery
    routes to :func:`repro.qa.streams.run_stream_battery` instead of the
    one-shot differential checks.  Mutations applied after this builder
    only *add* structure, so departures generated here stay applicable
    (and replays run lenient regardless).
    """
    from repro.qa.streams import encode_steps

    blocks = int(rng.integers(2, 6))
    block_n = int(rng.integers(5, 12))
    d = int(rng.integers(2, min(4, block_n)))
    block_m = int(rng.integers(3, 2 * block_n))
    H = sharded_hypergraph(
        blocks, block_n, block_m, d, seed=int(rng.integers(2**31))
    )
    steps = int(rng.integers(1, 8))
    batch = int(rng.integers(1, 5))
    batches = churn_stream(
        H,
        steps,
        seed=int(rng.integers(2**31)),
        batch_edges=batch,
        arrival_fraction=float(rng.uniform(0.3, 0.8)),
        hot_fraction=float(rng.uniform(0.0, 1.0)),
        hot_window=float(rng.uniform(0.05, 0.3)),
        adversarial_fraction=float(rng.uniform(0.0, 0.4)),
    )
    params = {
        "blocks": blocks,
        "block_n": block_n,
        "block_m": block_m,
        "d": d,
        "stream": {
            "steps": encode_steps([(list(b.add_edges), list(b.remove_edges)) for b in batches])
        },
    }
    return H, None, params


def _build_degenerate(rng: np.random.Generator) -> tuple[Hypergraph, None, dict]:
    shape = int(rng.integers(0, 5))
    if shape == 0:
        return Hypergraph(0), None, {"kind": "empty-universe"}
    if shape == 1:
        return Hypergraph(1), None, {"kind": "one-vertex"}
    if shape == 2:
        n = int(rng.integers(2, 16))
        return Hypergraph(n), None, {"kind": "edgeless", "n": n}
    if shape == 3:
        n = int(rng.integers(1, 10))
        return (
            Hypergraph(n, [(i,) for i in range(n)]),
            None,
            {"kind": "all-singletons", "n": n},
        )
    n = int(rng.integers(2, 12))
    k = int(rng.integers(0, n))
    # Active set strictly smaller than the universe (dead id ranges).
    verts = np.sort(rng.choice(n, size=max(1, k), replace=False))
    return (
        Hypergraph(n, [], vertices=verts),
        None,
        {"kind": "sparse-active", "n": n, "active": int(verts.size)},
    )


#: Family rotation — index ``i`` draws its instance from
#: ``FAMILIES[i % len(FAMILIES)]``, so every window of ``len(FAMILIES)``
#: consecutive cases covers every family once.
FAMILIES: tuple[tuple[str, Callable], ...] = (
    ("uniform", _build_uniform),
    ("mixed", _build_mixed),
    ("graph", _build_graph),
    ("linear", _build_linear),
    ("planted", _build_planted),
    ("bounded", _build_bounded),
    ("structured", _build_structured),
    ("boundary", _build_boundary),
    ("degenerate", _build_degenerate),
    ("steiner", _build_steiner),
    ("dense", _build_dense),
    ("dense-dim45", _build_dense_high_dim),
    ("dense-wide", _build_dense_wide),
    ("stream-updates", _build_stream),
)

#: Mutations safe to apply when the case carries a planted certificate:
#: duplicates leave the instance equal, supersets add only redundant
#: constraints (cannot break independence, cannot unblock an outsider).
_CERT_SAFE = {"dup", "superset"}


def _mutate(
    H: Hypergraph, rng: np.random.Generator, has_certificate: bool
) -> tuple[Hypergraph, tuple[str, ...]]:
    applied: list[str] = []
    if H.num_edges and rng.random() < 0.35:
        H = mut.add_duplicate_edges(H, int(rng.integers(1, 4)), seed=rng)
        applied.append("dup")
    if H.num_edges and rng.random() < 0.35:
        H = mut.add_superset_edges(H, int(rng.integers(1, 4)), seed=rng)
        applied.append("superset")
    if not has_certificate:
        if H.num_vertices and rng.random() < 0.25:
            H = mut.add_singleton_edges(H, int(rng.integers(1, 3)), seed=rng)
            applied.append("singleton")
        if rng.random() < 0.25:
            H = mut.add_isolated_vertices(H, int(rng.integers(1, 5)))
            applied.append("isolated")
        if rng.random() < 0.2:
            blocks = int(rng.integers(1, 4))
            H = mut.disjoint_union(H, matching_hypergraph(blocks, int(rng.integers(2, 4))))
            applied.append("disjoint")
    return H, tuple(applied)


def generate_case(seed: SeedLike, index: int) -> FuzzCase:
    """Synthesise fuzz case *index* of the stream identified by *seed*.

    Pure: the same ``(seed, index)`` always yields the same case, with no
    dependence on which other cases were generated.
    """
    if seed is None:
        seed = 0
    rng = as_generator((seed, "case", index))
    name, build = FAMILIES[index % len(FAMILIES)]
    H, certificate, params = build(rng)
    H, applied = _mutate(H, rng, certificate is not None)
    solver_seed = int(rng.integers(0, 2**31 - 1))
    return FuzzCase(
        index=index,
        family=name,
        params=params,
        mutations=applied,
        solver_seed=solver_seed,
        hypergraph=H,
        certificate=certificate,
    )


def iter_cases(seed: SeedLike, start: int = 0) -> Iterator[FuzzCase]:
    """Infinite deterministic case stream (the engine applies the budget)."""
    index = start
    while True:
        yield generate_case(seed, index)
        index += 1
