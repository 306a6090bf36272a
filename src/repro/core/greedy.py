"""Sequential greedy MIS — the linear-time baseline.

The paper's end-game alternative ("the algorithm that takes time linear in
the number of vertices"): scan the vertices in some order and add each one
unless it would complete an edge.  With per-edge counters the total cost is
``O(n + Σ_e |e|)``.

Also the ground truth for differential tests: for a fixed order the greedy
MIS is unique, and *every* MIS algorithm's output must pass the same
:func:`~repro.hypergraph.validate.check_mis` validator.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.result import MISResult, RoundRecord
from repro.hypergraph.hypergraph import Hypergraph
from repro.kernels.dispatch import select_backend
from repro.obs import metrics as obs_metrics
from repro.obs.tracer import NullTracer, Tracer, current_tracer
from repro.pram.machine import Machine
from repro.util.rng import SeedLike, as_generator

__all__ = ["greedy_mis"]


def greedy_mis(
    H: Hypergraph,
    seed: SeedLike = None,
    *,
    order: Sequence[int] | np.ndarray | None = None,
    machine: Machine | None = None,
    trace: bool = False,
    tracer: Tracer | NullTracer | None = None,
) -> MISResult:
    """Greedy MIS along a vertex order.

    Parameters
    ----------
    H:
        Input hypergraph.
    seed:
        Used only when *order* is ``None``: the scan order is a uniformly
        random permutation of the active vertices.
    order:
        Explicit scan order (must enumerate exactly the active vertices).
    machine:
        Optional PRAM accountant.  Greedy is inherently sequential: the
        whole scan is one processor doing ``n + Σ|e|`` steps, charged as
        depth = work.
    trace:
        Record one :class:`RoundRecord` summarising the scan.
    tracer:
        Telemetry tracer (defaults to the ambient
        :func:`~repro.obs.tracer.current_tracer`); emits a single
        ``greedy/solve`` span covering the whole scan.

    Notes
    -----
    A vertex *v* is rejected iff some edge ``e ∋ v`` has all of
    ``e \\ {v}`` already accepted — detected by maintaining, per edge, the
    count of accepted vertices: *v* completes ``e`` iff
    ``accepted[e] == |e| − 1`` and the missing vertex is *v*, which, since
    counts only reflect accepted vertices and *v* is not yet accepted, is
    equivalent to ``accepted[e] == |e| − 1``.  Size-1 edges (``|e|−1 = 0``)
    correctly always reject their vertex.
    """
    active = H.vertices
    if order is None:
        # np.asarray would alias the read-only view and numpy's shuffle
        # fast path for arrays of size <= 1 operates in place, so an
        # explicit copy is required (found by `repro fuzz`, pinned by
        # tests/regressions/greedy-empty-universe.npz).
        scan = as_generator(seed).permutation(active.copy())
    else:
        scan = np.asarray(
            list(order) if not isinstance(order, np.ndarray) else order, dtype=np.intp
        )
        if not np.array_equal(np.sort(scan), active):
            raise ValueError("order must enumerate exactly the active vertices")

    trc = tracer if tracer is not None else current_tracer()
    with trc.span(
        "greedy/solve",
        machine=machine,
        n=H.num_vertices,
        m=H.num_edges,
        dim=H.dimension,
    ) as span:
        store = H.store
        sizes = store.sizes().tolist()
        accepted_count = [0] * store.num_edges
        chosen: list[int] = []

        # Shape dispatch: both adjacency layouts enumerate the same incident
        # edge sets, and the scan (order, accept/reject rule) is shared — the
        # backends are bit-identical by construction.  The dense layout is a
        # CSC-style flat index (one argsort) instead of a dict of lists,
        # indexed by each vertex's rank among the active vertices so its
        # cost follows the instance, not the universe.
        use_dense = bool(select_backend(H).dense and store.indices.size)
        scan_ids = scan.tolist()
        if use_dense:
            rank = np.empty(H.universe, dtype=np.intp)
            rank[active] = np.arange(active.size, dtype=np.intp)
            col = rank[store.indices]
            csc_order = np.argsort(col, kind="stable")
            eids = np.repeat(
                np.arange(store.num_edges, dtype=np.intp), store.sizes()
            )[csc_order].tolist()
            aptr = np.zeros(active.size + 1, dtype=np.intp)
            np.cumsum(np.bincount(col, minlength=active.size), out=aptr[1:])
            aptr = aptr.tolist()
            slots = rank[scan].tolist()
        else:
            adj = H.vertex_to_edges()
            slots = scan_ids

        for v, r in zip(scan_ids, slots):
            incident = (
                eids[aptr[r] : aptr[r + 1]] if use_dense else adj.get(v, ())
            )
            completes = any(accepted_count[i] == sizes[i] - 1 for i in incident)
            if completes:
                continue
            chosen.append(v)
            for i in incident:
                accepted_count[i] += 1

        added = len(chosen)
        if machine is not None:
            cost = H.num_vertices + H.total_edge_size
            machine.charge(cost, cost, 1)
        if trc.enabled:
            span.set(mis_size=added, rejected=int(active.size) - added)
    obs_metrics.inc("solver/vertices_committed", added)

    records: list[RoundRecord] = []
    if trace:
        record = RoundRecord(
            index=0,
            phase="greedy",
            n_before=int(active.size),
            m_before=H.num_edges,
            n_after=0,
            m_after=0,
            added=added,
            removed_red=int(active.size) - added,
            dimension=H.dimension,
        )
        if trc.enabled:
            record.extras["wall_ns"] = span.wall_ns
        records.append(record)
    return MISResult(
        independent_set=np.asarray(chosen, dtype=np.intp),
        algorithm="greedy",
        n=H.num_vertices,
        m=H.num_edges,
        rounds=records,
        machine=machine.snapshot() if hasattr(machine, "snapshot") else None,
        meta={"order": "explicit" if order is not None else "random"},
    )
