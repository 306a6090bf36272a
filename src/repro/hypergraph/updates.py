"""Incremental edge updates — the reusable batch-update API.

This module turns the diff machinery that already powers the algorithm
rounds (:meth:`EdgeStore.diff`, :meth:`EdgeStore.trim` reporting, the
:class:`~repro.hypergraph.degrees.DeltaTracker`) into a front-door API for
*streamed* hypergraphs: :func:`apply_updates` applies a batch of edge
arrivals/departures and returns the successor hypergraph together with an
**exact structural diff** (indices of the edges that actually changed, not
the request as submitted — duplicate adds and add/remove cancellations net
out) and a **content-hash chain** so every streamed state stays
cache-addressable and the update history is audit-checkable.

Semantics
---------
* Removals apply first, then additions.  A batch that removes and re-adds
  the same edge therefore leaves it present — and the *exact* diff reports
  it as unchanged.
* Adding an edge activates its vertices; removing an edge never
  deactivates anything (the universe and active set only grow, which keeps
  vertex ids stable across the stream — the same fixed-universe discipline
  the one-shot algorithms rely on).
* ``strict=True`` (default) raises on removing an edge that is not
  present; ``strict=False`` counts and ignores such removals
  (``updates/ignored_removals``), which is what adversarial churn streams
  want.

The diff is exact by construction.  On shapes whose edges pack into one
64-bit key per edge (``dimension · log2(universe) ≲ 62`` — every
practical streamed instance) the whole batch runs **sort-free**: the old
store is already lex-sorted, so packed keys are ascending, removals and
additions resolve by binary search against the keys cached on the old
store, the successor (keys included) is spliced from slices of the old
arrays, and the structural diff falls out of the bookkeeping — one copy
of the store plus work per changed edge, with no re-pack and no
O(m log m) re-sort anywhere.  Degenerate shapes fall back to the general
path (one canonical-store ``old.diff(new)`` comparison, a padded
lex-sort); both paths are differentially tested against each other.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.hypergraph.degrees import DeltaTracker
from repro.hypergraph.edgestore import EdgeStore
from repro.hypergraph.hypergraph import EdgeLike, Hypergraph
from repro.obs import metrics as obs_metrics

__all__ = ["UpdateResult", "apply_updates", "chain_hash", "feed_tracker"]


def chain_hash(parent_chain: str, state_hash: str) -> str:
    """Advance the stream's hash chain by one state.

    ``chain_0 = H_0.content_hash()`` and
    ``chain_{t+1} = sha256(chain_t ‖ H_{t+1}.content_hash())`` — two streams
    agree on a chain value iff they agree on the entire state history, while
    each state stays individually addressable by its own content hash.
    """
    h = hashlib.sha256()
    h.update(parent_chain.encode("ascii"))
    h.update(state_hash.encode("ascii"))
    return h.hexdigest()


#: Packed keys must fit an int64 with headroom for the sentinel offset.
_KEY_BITS = 62


def _packed_keys(store: EdgeStore, base: int, width: int) -> np.ndarray:
    """One int64 key per edge, ascending iff the store is lex-sorted.

    Each edge is padded to *width* positions with 0 and written as a
    base-*base* number with digits ``vertex + 2`` — padding compares
    below every vertex, so key order reproduces Python-tuple order
    (a prefix sorts before its extensions), exactly like the sentinel
    matrix in :meth:`EdgeStore.diff`.
    """
    m = store.num_edges
    if m == 0:
        return np.empty(0, dtype=np.int64)
    sizes = store.sizes()
    rows = np.repeat(np.arange(m, dtype=np.intp), sizes)
    cols = np.arange(store.indices.size, dtype=np.intp) - np.repeat(
        store.indptr[:-1], sizes
    )
    M = np.zeros((m, width), dtype=np.int64)
    M[rows, cols] = store.indices.astype(np.int64) + 2
    keys = M[:, 0].copy()
    for c in range(1, width):
        keys *= base
        keys += M[:, c]
    return keys


def _store_keys(store: EdgeStore, base: int, width: int) -> np.ndarray:
    """The packed keys of *store*, from its ``(base, width)`` cache when set.

    A store without a matching cache — the genesis state, or one the
    general path built — pays one :func:`_packed_keys` pass and keeps the
    result, so a stream re-packs only when it enters the fast path.
    """
    cached = store._packed
    if cached is not None and cached[0] == base and cached[1] == width:
        return cached[2]
    keys = _packed_keys(store, base, width)
    _adopt_keys(store, base, width, keys)
    return keys


def _adopt_keys(store: EdgeStore, base: int, width: int, keys: np.ndarray) -> None:
    keys.flags.writeable = False
    store._packed = (base, width, keys)


def _locate(sorted_arr: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Insertion points of *queries* in *sorted_arr*, and which are present."""
    pos = np.searchsorted(sorted_arr, queries)
    found = np.zeros(queries.size, dtype=bool)
    inside = pos < sorted_arr.size
    found[inside] = sorted_arr[pos[inside]] == queries[inside]
    return pos, found


def _splice(
    old: EdgeStore,
    keys_old: np.ndarray,
    drop: np.ndarray,
    fresh: EdgeStore,
    keys_fresh: np.ndarray,
    at: np.ndarray,
) -> EdgeStore:
    """*old* without edges *drop*, with fresh edge ``j`` inserted before old
    edge ``at[j]`` (both ascending), and its packed keys attached.

    Each successor array — ``indptr``, ``indices``, sizes, keys — is one
    concatenation of old slices and fresh pieces: a single copy of the
    store plus bookkeeping per changed edge, with no full-store mask,
    insert or prefix sum.
    """
    ptr, fptr = old.indptr, fresh.indptr
    sizes, fsizes = old.sizes(), fresh.sizes()
    indptr_parts = [ptr[:1]]
    index_parts, size_parts, key_parts = [old.indices[:0]], [sizes[:0]], [keys_old[:0]]
    # An insertion at p goes before old edge p, so it sorts ahead of a
    # drop of p; fresh edges at one point keep their batch order.
    events = sorted(
        [(p, 0, j) for j, p in enumerate(at.tolist())]
        + [(d, 1, 0) for d in drop.tolist()]
        + [(old.num_edges, 1, 0)]  # flushes the tail
    )
    prev = written = 0
    for p, is_drop, j in events:
        if p > prev:
            lo, hi = int(ptr[prev]), int(ptr[p])
            indptr_parts.append(ptr[prev + 1 : p + 1] + (written - lo))
            index_parts.append(old.indices[lo:hi])
            size_parts.append(sizes[prev:p])
            key_parts.append(keys_old[prev:p])
            written += hi - lo
        if is_drop:
            prev = p + 1
            continue
        lo, hi = int(fptr[j]), int(fptr[j + 1])
        written += hi - lo
        indptr_parts.append(np.array([written], dtype=np.intp))
        index_parts.append(fresh.indices[lo:hi])
        size_parts.append(fsizes[j : j + 1])
        key_parts.append(keys_fresh[j : j + 1])
        prev = p
    store = EdgeStore(np.concatenate(indptr_parts), np.concatenate(index_parts))
    store._sizes = np.concatenate(size_parts)
    base, width, _ = old._packed
    _adopt_keys(store, base, width, np.concatenate(key_parts))
    return store


def _fast_apply(
    old: EdgeStore, rem: EdgeStore, add: EdgeStore, universe: int
) -> tuple[EdgeStore, np.ndarray, np.ndarray, np.ndarray] | None:
    """Sort-free batch application via packed edge keys.

    Returns ``(new_store, removed, added, missing)`` — the successor
    store, the exact diff (cancellation already applied), and the indices
    of requested removals absent from *old* — or ``None`` when the shape
    cannot pack into 62 bits and the caller must take the lex-sort path.

    The old store's keys come from its cache and the successor's are
    spliced alongside its arrays (:func:`_splice`), so no step re-packs
    the instance.  The key width only grows along a stream: keys padded
    wider still order and match exactly, and a cached width already
    covers every edge of *old* without a scan.
    """
    base = universe + 3
    width = max((int(s.sizes().max()) for s in (rem, add) if s.num_edges), default=1)
    cached = old._packed
    if cached is not None and cached[0] == base:
        width = max(width, cached[1])
    elif old.num_edges:
        width = max(width, int(old.sizes().max()))
    if width * math.log2(base) > _KEY_BITS:
        return None
    keys_old = _store_keys(old, base, width)

    pos, found = _locate(keys_old, _packed_keys(rem, base, width))
    drop = pos[found]
    missing = np.flatnonzero(~found)
    keys_add = _packed_keys(add, base, width)
    at, present = _locate(keys_old, keys_add)
    if present.any():
        # Adding a present edge changes nothing, and a removed-then-re-added
        # edge is unchanged: cancel its removal so the reported diff is the
        # true symmetric difference.
        drop = drop[~_locate(at[present], drop)[1]]
    at = at[~present]
    if not drop.size and not at.size:
        return old, drop, at, missing
    new_store = _splice(old, keys_old, drop, add.select(~present), keys_add[~present], at)
    # A fresh edge lands after every dropped edge before it and every
    # fresh edge ahead of it in the batch.
    added = at - np.searchsorted(drop, at) + np.arange(at.size, dtype=np.intp)
    return new_store, drop, added, missing


def _edge_ids_vertices(store: EdgeStore, edge_ids: np.ndarray) -> np.ndarray:
    """Sorted unique vertices of the given edges of *store*."""
    if edge_ids.size == 0:
        return np.empty(0, dtype=np.intp)
    return np.unique(store.subset(edge_ids).indices)


def _edge_ids_tuples(store: EdgeStore, edge_ids: np.ndarray) -> tuple[tuple[int, ...], ...]:
    return tuple(store.edge(int(i)) for i in edge_ids)


@dataclass(frozen=True)
class UpdateResult:
    """Successor state plus the exact structural diff of one update batch.

    ``removed`` indexes into the *pre*-update edge store, ``added`` into the
    *post*-update store; both describe what actually changed after
    cancellation (a removed-then-re-added edge appears in neither).
    ``dirty_vertices`` is the union of the changed edges' vertices — the
    seed set for repair localization.
    """

    hypergraph: Hypergraph
    removed: np.ndarray = field(compare=False)
    added: np.ndarray = field(compare=False)
    dirty_vertices: np.ndarray = field(compare=False)
    ignored_removals: int
    parent_hash: str
    parent_chain: str
    chain: str

    @property
    def content_hash(self) -> str:
        """Content hash of the successor state (the cache key)."""
        return self.hypergraph.content_hash()

    @property
    def num_changed(self) -> int:
        """Number of edges that actually changed (after cancellation)."""
        return int(self.removed.size + self.added.size)

    @property
    def is_noop(self) -> bool:
        return self.num_changed == 0

    def delta_fraction(self) -> float:
        """Changed edges as a fraction of ``|E_old ∪ E_new|`` (0 for no-ops)."""
        union = self.hypergraph.num_edges + int(self.removed.size)
        return self.num_changed / union if union else 0.0


def apply_updates(
    H: Hypergraph,
    add_edges: Iterable[EdgeLike] = (),
    remove_edges: Iterable[EdgeLike] = (),
    *,
    parent_chain: str | None = None,
    strict: bool = True,
) -> UpdateResult:
    """Apply one batch of edge removals then additions to *H*.

    Parameters
    ----------
    add_edges, remove_edges:
        Iterables of vertex iterables; canonicalised on entry (sorted,
        deduplicated), so request order and within-edge vertex order never
        matter.  Removals are matched against *H* by canonical edge tuple.
    parent_chain:
        The stream's chain value for *H* (defaults to ``H.content_hash()``
        — i.e. *H* is treated as the genesis state).
    strict:
        Raise ``ValueError`` on removing an absent edge (default), or
        count-and-ignore it when ``False``.

    Returns an :class:`UpdateResult`; see the module docstring for the
    exact-diff and activation semantics.
    """
    old_store = H.store
    universe = H.universe

    rem_store = EdgeStore.from_iterable(remove_edges)
    add_store = EdgeStore.from_iterable(add_edges)
    if add_store.indices.size and (
        int(add_store.indices.min()) < 0 or int(add_store.indices.max()) >= universe
    ):
        raise IndexError("added edge contains a vertex outside the universe")

    fast = _fast_apply(old_store, rem_store, add_store, universe)
    if fast is not None:
        new_store, removed, added, missing = fast
    else:
        # General path: full lex-sort canonicalisation + one store diff.
        if rem_store.num_edges:
            surviving, missing = old_store.diff(rem_store)
            keep = np.zeros(old_store.num_edges, dtype=bool)
            keep[surviving] = True
            mid_store = old_store.select(keep)
        else:
            mid_store = old_store
            missing = np.empty(0, dtype=np.intp)
        if add_store.num_edges:
            merged_indptr = np.concatenate(
                [mid_store.indptr, mid_store.indptr[-1] + add_store.indptr[1:]]
            )
            merged_indices = np.concatenate([mid_store.indices, add_store.indices])
            new_store = EdgeStore.from_arrays(
                merged_indptr, merged_indices, canonical=False
            )
        else:
            new_store = mid_store
        removed, added = old_store.diff(new_store)

    ignored = 0
    if missing.size:
        if strict:
            raise ValueError(
                f"cannot remove absent edge {rem_store.edge(int(missing[0]))} "
                f"({missing.size} missing in total; pass strict=False to ignore)"
            )
        ignored = int(missing.size)
        obs_metrics.inc("updates/ignored_removals", ignored)

    new_vertices = np.asarray(H.vertices)
    if add_store.num_edges:
        # Activate only the genuinely new vertices — an O(batch) lookup
        # and insert into the sorted active array, not an O(n) set union.
        touched = np.unique(add_store.indices)
        novel = touched[~_locate(new_vertices, touched)[1]]
        if novel.size:
            new_vertices = np.insert(
                new_vertices, np.searchsorted(new_vertices, novel), novel
            )
    new_H = Hypergraph._from_arrays(universe, new_store, new_vertices)

    dirty = np.union1d(
        _edge_ids_vertices(old_store, removed), _edge_ids_vertices(new_store, added)
    )

    parent_hash = H.content_hash()
    chain_parent = parent_hash if parent_chain is None else parent_chain
    chain = chain_hash(chain_parent, new_H.content_hash())

    obs_metrics.inc("updates/batches")
    obs_metrics.inc("updates/edges_removed", int(removed.size))
    obs_metrics.inc("updates/edges_added", int(added.size))

    return UpdateResult(
        hypergraph=new_H,
        removed=removed,
        added=added,
        dirty_vertices=dirty,
        ignored_removals=ignored,
        parent_hash=parent_hash,
        parent_chain=chain_parent,
        chain=chain,
    )


def feed_tracker(tracker: DeltaTracker, result: UpdateResult, old: Hypergraph) -> None:
    """Advance a :class:`DeltaTracker` across one update batch.

    *old* must be the pre-update hypergraph the tracker currently models;
    after the call it models ``result.hypergraph``.  Cost is
    O(changed edges · 2^d) — the whole point of the exact diff.
    """
    tracker.remove_edges(_edge_ids_tuples(old.store, result.removed))
    tracker.add_edges(_edge_ids_tuples(result.hypergraph.store, result.added))
