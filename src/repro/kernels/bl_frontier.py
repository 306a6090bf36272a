"""Mixed-dimension frontier Beame–Luby engine (dimensions above three).

The scalar engine (:mod:`repro.kernels.bl_scalar`) hard-codes the
dimension-3 cleanup algebra — 2-row pair keys, 3-row pair multiplicities,
one shrink class per round — so instances of dimension 4+ used to fall
back to the CSR reference loop.  This engine generalises the same
frontier idea to arbitrary (small) dimension: edges live as sorted
per-row vertex lists banked behind static per-vertex incidence lists, a
round touches only the rows incident to the marked set, and the cleanup
is the *exact* fixed point :func:`repro.hypergraph.ops.normalize_after_trim`
computes — trim, duplicate-row collapse, containment restricted to the
changed rows, then a single singleton/red pass.

Where the scalar engine maintains the Δ maxima with bespoke degree/pair
histograms (valid only for d ≤ 3), this engine keeps its own integer Δ
state keyed by **(row, live-position mask)**: every live row is a subset
of its normalised original row, so every vertex set ``x`` it can ever
count is a submask of that row.  The first edged round interns all those
submasks to integer ids in one vectorised pass; afterwards each removed,
trimmed or re-entering row walks a precomputed list of the nonempty
proper submasks of its mask, bumping one count list per edge size and a
multiplicity histogram per ``(i, s)`` whose cached maximum is walked
down lazily.

Bit-identity
------------
Same contract as the other engines: identical coins
(:class:`~repro.kernels.rng.RoundRngPlan`), identical per-round records,
machine charges, solver counters and metadata, pinned by
``tests/kernels`` and the ``repro.qa`` differential subjects.  The Δ
state holds exactly the integers
:class:`~repro.hypergraph.degrees.DeltaTracker` keeps for the CSR loop —
the multiplicity of every ``(x, i)`` under the same
``(removed, added)`` edge diff — and turns its per-``(i, s)`` maxima
into floats with the same ``max ** (1 / (i - s))``, so Δ and the marking
probability agree bit for bit; a round-by-round test checks the maxima
against :func:`~repro.hypergraph.degrees.degree_profile`.  With an
enabled tracer the engine emits the same per-round ``bl/round`` spans as
the CSR loop and stamps ``extras["wall_ns"]``.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

import numpy as np

from repro.core.result import MISResult, RoundRecord
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.ops import normalize
from repro.kernels.rng import RoundRngPlan
from repro.obs import metrics as obs_metrics
from repro.pram.machine import Machine, NullMachine
from repro.util.rng import SeedLike

__all__ = ["beame_luby_frontier"]


@lru_cache(maxsize=None)
def _submasks(width: int) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
    """``table[a]``: the nonempty proper submasks of every mask ``a < 2^width``.

    Grouped by popcount, ``((s, (sub, ...)), ...)`` in ascending ``s``, so
    an update walks one ``(i, s)`` histogram at a time.
    """
    table = []
    for a in range(1 << width):
        by_size: dict[int, list[int]] = {}
        sub = (a - 1) & a
        while sub:
            by_size.setdefault(sub.bit_count(), []).append(sub)
            sub = (sub - 1) & a
        table.append(tuple((s, tuple(by_size[s])) for s in sorted(by_size)))
    return tuple(table)


class _RowMaskDelta:
    """The Δ maxima of the live rows, keyed by (row, live-position mask).

    Every live row is a subset of its normalised original row, so every
    vertex set ``x`` the row can ever count is a submask of that row.  The
    build interns all of them to integer ids in one vectorised pass (one
    size class at a time, ids ascending in ``|x|``); afterwards a row at
    mask ``a`` contributes one count to ``cnt[popcount(a)][ids[row][sub]]``
    for every nonempty proper submask ``sub`` of ``a``.  Per ``(i, s)``
    a multiplicity histogram plus a cached maximum, walked down lazily,
    give ``max |N_{i-s}(x)|`` — the same integers
    :class:`~repro.hypergraph.degrees.DeltaTracker` keeps in its
    ``(x, i)`` dict, hence the same Δ floats.
    """

    __slots__ = ("ids", "cnt", "hist", "top", "subs")

    def __init__(self, W: Hypergraph):
        store = W.store
        sizes = store.sizes()
        indptr, indices = store.indptr, store.indices
        m = int(sizes.size)
        dim = W.dimension
        U = max(W.universe, 1)
        self.subs = subs = _submasks(dim)

        # Per size class L: the rows, their vertex matrix E and the id
        # table T (2^L entries per row, indexed by submask).
        classes: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for L in range(2, dim + 1):
            rows = np.flatnonzero(sizes == L)
            if rows.size:
                E = indices[indptr[rows][:, None] + np.arange(L)]
                classes[L] = (rows, E, np.zeros((rows.size, 1 << L), dtype=np.int64))

        # Intern one subset size s at a time, ids ascending in s.  An
        # s-subset is its (s-1)-prefix plus its largest vertex, so
        # ``prefix id * U + vertex`` names it exactly across all classes.
        base = [0] * (dim + 1)  # base[s]: first id of size s
        for s in range(1, dim):
            parts = []
            for L, (rows, E, T) in classes.items():
                if L > s:
                    masks = dict(subs[(1 << L) - 1])[s]
                    ms = np.asarray(masks)
                    high = np.asarray([a.bit_length() - 1 for a in masks])
                    key = T[:, ms ^ (1 << high)] * U + E[:, high]
                    parts.append((T, ms, key))
            uniq, inv = np.unique(
                np.concatenate([key.ravel() for _, _, key in parts]), return_inverse=True
            )
            lo = 0
            for T, ms, key in parts:
                T[:, ms] = inv[lo : lo + key.size].reshape(key.shape) + base[s]
                lo += key.size
            base[s + 1] = base[s] + uniq.size

        # Row id tables, bulk counts and histograms.
        self.ids: list[list[int] | None] = [None] * m
        self.cnt: list[list[int]] = [[] for _ in range(dim + 1)]
        self.hist: list[list[list[int]]] = [[] for _ in range(dim + 1)]
        self.top: list[list[int]] = [[] for _ in range(dim + 1)]
        for i in range(2, dim + 1):
            counts = np.zeros(base[i], dtype=np.int64)
            if i in classes:
                rows, _, T = classes[i]
                counts += np.bincount(T[:, 1:-1].ravel(), minlength=base[i])
                for r, row_ids in zip(rows.tolist(), T.tolist()):
                    self.ids[r] = row_ids
            self.cnt[i] = counts.tolist()
            hist_i: list[list[int]] = [[]]
            top_i = [0]
            for s in range(1, i):
                seg = counts[base[s] : base[s + 1]]
                hist_i.append(np.bincount(seg, minlength=m + 2).tolist())
                top_i.append(int(seg.max(initial=0)))
            self.hist[i] = hist_i
            self.top[i] = top_i

    def add(self, row: int, a: int, i: int) -> None:
        """Row *row* enters at mask *a* (popcount *i*)."""
        ids = self.ids[row]
        cnt = self.cnt[i]
        hist = self.hist[i]
        top = self.top[i]
        for s, subs in self.subs[a]:
            h = hist[s]
            t = top[s]
            for sub in subs:
                x = ids[sub]
                c = cnt[x] + 1
                cnt[x] = c
                h[c - 1] -= 1
                h[c] += 1
                if c > t:
                    t = c
            top[s] = t

    def remove(self, row: int, a: int, i: int) -> None:
        """Row *row* leaves from mask *a* (popcount *i*); maxima go stale."""
        ids = self.ids[row]
        cnt = self.cnt[i]
        hist = self.hist[i]
        for s, subs in self.subs[a]:
            h = hist[s]
            for sub in subs:
                x = ids[sub]
                c = cnt[x]
                cnt[x] = c - 1
                h[c] -= 1
                h[c - 1] += 1

    def delta_by_size(self, dim: int) -> dict[int, float]:
        """``Δ_i`` per live edge size ≤ *dim* — the :class:`DegreeProfile` view."""
        out: dict[int, float] = {}
        for i in range(2, dim + 1):
            hist = self.hist[i]
            top = self.top[i]
            for s in range(1, i):
                t = top[s]
                h = hist[s]
                while t and not h[t]:
                    t -= 1
                top[s] = t
                if t and t ** (1.0 / (i - s)) > out.get(i, 0.0):
                    out[i] = t ** (1.0 / (i - s))
        return out

    def delta(self, dim: int) -> float:
        """``Δ(H)`` over the live rows, all of size ≤ *dim*."""
        return max(self.delta_by_size(dim).values(), default=0.0)


def beame_luby_frontier(
    H: Hypergraph,
    seed: SeedLike,
    mach: Machine,
    recompute_probability: bool,
    marking_probability: float | None,
    max_rounds: int,
    trace: bool,
    trc=None,
) -> MISResult:
    """Run BL on the mixed-dimension frontier engine.  See module docstring.

    The caller (the dispatcher inside :func:`repro.core.bl.beame_luby`)
    guarantees the shape is within the dense envelope with
    ``H.dimension > 3`` (the engine itself is dimension-generic), no
    ``on_round`` hook and no explicit execution backend.
    """
    from repro.core.bl import _charge_round  # deferred: core.bl imports us

    tr_on = trc is not None and trc.enabled

    U = H.universe
    # Upfront cleanup — the same normal form the CSR loop establishes.
    W, pre_red = normalize(H)

    # -- frontier state -------------------------------------------------
    # edges[i]: sorted vertex list of row i, or None once the row dies.
    # adj[v]: static incidence list (row ids); rows that die or drop v are
    # filtered at query time — removed vertices are never queried again.
    flat = W.store.indices.tolist()
    ptr = W.store.indptr.tolist()
    edges: list[list[int] | None] = [flat[a:b] for a, b in zip(ptr, ptr[1:])]
    # orig[i]: row i as normalised; mask[i]: its live positions (bit k =
    # orig[i][k]), the key of the row's subsets in the Δ state.
    orig = edges.copy()
    mask = [(1 << len(ed)) - 1 for ed in edges]
    adj: list[list[int]] = [[] for _ in range(U)]
    for i, ed in enumerate(edges):
        for v in ed:
            adj[v].append(i)
    active: list[int] = W.vertices.tolist()
    m_alive = len(edges)
    total_size = 0
    size_hist = [0] * (W.dimension + 1)
    for ed in edges:
        sz = len(ed)
        size_hist[sz] += 1
        total_size += sz
    dim_max = W.dimension

    # The Δ maxima are carried across rounds by row-mask counts, fed the
    # same edge diff the CSR loop derives; built lazily on the first edged
    # round (the hypergraph is still W at that point).
    W0: Hypergraph | None = W
    dstate: _RowMaskDelta | None = None

    plan: RoundRngPlan | None = None
    independent: list[int] = []
    records: list[RoundRecord] = []
    p_fixed: float | None = marking_probability
    p_initial: float | None = None

    charge = None if type(mach) is NullMachine else _charge_round
    edged_rounds = 0
    draws_total = 0
    committed_total = 0
    retractions_total = 0
    edgeless_commit = False

    for round_index in range(max_rounds):
        n = len(active)
        if n == 0:
            break
        if m_alive == 0:
            rspan = (
                trc.span(
                    "bl/round", machine=mach, round=round_index, n=n, m=0
                ).__enter__()
                if tr_on
                else None
            )
            independent.extend(active)
            if charge is not None:
                mach.map(n)
            committed_total += n
            edgeless_commit = True
            if rspan is not None:
                rspan.set(n_after=0, m_after=0, added=n)
                rspan.__exit__(None, None, None)
            if trace:
                record = RoundRecord(
                    index=round_index,
                    phase="bl",
                    n_before=n,
                    m_before=0,
                    n_after=0,
                    m_after=0,
                    marked=n,
                    added=n,
                    dimension=0,
                )
                if rspan is not None:
                    record.extras["wall_ns"] = rspan.wall_ns
                records.append(record)
            break

        while dim_max > 0 and size_hist[dim_max] == 0:
            dim_max -= 1
        d = dim_max
        if dstate is None:
            dstate = _RowMaskDelta(W0)
            W0 = None
        delta = dstate.delta(d)
        if p_fixed is not None:
            p = p_fixed
        else:
            p = 1.0 if delta <= 0 else min(1.0, 1.0 / (2 ** (d + 1) * delta))
            if not recompute_probability:
                p_fixed = p
        if p_initial is None:
            p_initial = p

        m_before = m_alive
        total = total_size
        rspan = (
            trc.span(
                "bl/round", machine=mach, round=round_index, n=n, m=m_before, dim=d
            ).__enter__()
            if tr_on
            else None
        )

        # (2) mark — the exact SerialBackend.bernoulli draw for one chunk.
        edged_rounds += 1
        draws_total += n
        if plan is None:
            plan = RoundRngPlan(seed)
        coin = plan.generator(round_index).random(n) < p
        hits = coin.nonzero()[0]
        if hits.size:
            marked = [active[j] for j in hits.tolist()]
        else:
            marked = []
        marked_count = len(marked)

        # (3) retract fully marked edges.
        if marked_count:
            mset = set(marked)
            retracted: set[int] | None = None
            for v in marked:
                for e in adj[v]:
                    ed = edges[e]
                    if ed is None:
                        continue
                    full = True
                    for u in ed:
                        if u not in mset:
                            full = False
                            break
                    if full:
                        if retracted is None:
                            retracted = set()
                        retracted.update(ed)
            if retracted is None:
                added = marked
            else:
                added = [v for v in marked if v not in retracted]
        else:
            added = marked
        added_count = len(added)
        unmarked_count = marked_count - added_count

        if added_count == 0:
            # No survivors: a normal hypergraph is unchanged (same object
            # on the CSR path); only the trace and charges advance.
            if charge is not None:
                charge(mach, n, m_before, total, max(d, 1))
            retractions_total += unmarked_count
            if rspan is not None:
                rspan.set(
                    n_after=n,
                    m_after=m_before,
                    added=0,
                    unmarked=unmarked_count,
                    p=p,
                )
                rspan.__exit__(None, None, None)
            if trace:
                record = RoundRecord(
                    index=round_index,
                    phase="bl",
                    n_before=n,
                    m_before=m_before,
                    n_after=n,
                    m_after=m_before,
                    marked=marked_count,
                    unmarked=unmarked_count,
                    added=0,
                    removed_red=0,
                    dimension=d,
                    extras={"p": p, "delta": delta},
                )
                if rspan is not None:
                    record.extras["wall_ns"] = rspan.wall_ns
                records.append(record)
            continue

        independent.extend(added)
        added_set = set(added)

        # (4)–(5) commit + fused cleanup, mirroring normalize_after_trim.
        # Changed rows = alive rows containing an added vertex (a row only
        # drops a vertex when it leaves, so every alive row listed under
        # an active vertex holds it); keep their pre-trim vertex lists.
        old_of: dict[int, list[int]] = {}
        for v in added:
            for e in adj[v]:
                ed = edges[e]
                if ed is not None and e not in old_of:
                    old_of[e] = ed

        red_list: list[int] = []
        dead: set[int] = set()
        pivots: list[int] = []
        if old_of:
            # Trim + duplicate collapse.  Every changed row keeps ≥ 1
            # vertex (a row losing all vertices would have been fully
            # marked and retracted above).  A row trimming onto the tuple
            # of an earlier changed row this round collapses into it.  It
            # never lands on an unchanged row: that row would be a proper
            # subset of the changed row's old tuple, which the previous
            # round's normal form rules out.  Every changed row leaves the
            # Δ state and the size histogram at its old mask; a surviving
            # pivot re-enters below.
            claimed: set[tuple[int, ...]] = set()
            for e in sorted(old_of):
                old = old_of[e]
                sz = len(old)
                dstate.remove(e, mask[e], sz)
                size_hist[sz] -= 1
                total_size -= sz
                new = [u for u in old if u not in added_set]
                t = tuple(new)
                if t in claimed:
                    edges[e] = None
                    continue
                claimed.add(t)
                edges[e] = new
                a = mask[e]
                for k, u in enumerate(orig[e]):
                    if u in added_set:
                        a &= ~(1 << k)
                mask[e] = a
                pivots.append(e)

            # Containment, restricted to the changed pivots and computed
            # on the pre-drop state (all kills are simultaneous, exactly
            # the restricted Gram scan of normalize_after_trim).  Only
            # proper supersets of a pivot die: a live row properly inside
            # pivot j is either unchanged — then it was inside j's old
            # tuple, which the previous normal form rules out — or another
            # pivot, whose own scan finds j.  Every superset of pivot j
            # holds j's least-loaded vertex, whose incidence list is
            # therefore the whole candidate set.
            for j in pivots:
                ej = edges[j]
                lj = len(ej)
                best = adj[ej[0]]
                for v in ej:
                    if len(adj[v]) < len(best):
                        best = adj[v]
                for i in best:
                    ei = edges[i]
                    if ei is not None and len(ei) > lj and i not in dead:
                        for u in ej:
                            if u not in ei:
                                break
                        else:
                            dead.add(i)

            # Single singleton pass on the survivors: rows that shrank to
            # singletons colour their vertex red; every surviving row
            # touching a red vertex is vacuous (any *larger* red-touching
            # row is already dead — it properly contained the singleton).
            for j in pivots:
                if j in dead:
                    continue
                ej = edges[j]
                if len(ej) == 1:
                    red_list.append(ej[0])
            if red_list:
                for r in red_list:
                    for i in adj[r]:
                        if edges[i] is not None:
                            dead.add(i)
        red_count = len(red_list)

        # The rest of the exact edge diff (same bookkeeping as the trim
        # masks): surviving pivots enter at their trimmed mask; dead
        # unchanged rows leave at their current mask.
        if old_of:
            for j in pivots:
                if j not in dead:
                    sz = len(edges[j])
                    dstate.add(j, mask[j], sz)
                    size_hist[sz] += 1
                    total_size += sz
            for i in dead:
                if i not in old_of:
                    sz = len(edges[i])
                    dstate.remove(i, mask[i], sz)
                    size_hist[sz] -= 1
                    total_size -= sz
            m_alive -= (len(old_of) - len(pivots)) + len(dead)
            for i in dead:
                edges[i] = None

        if red_list:
            removals = sorted(added_set.union(red_list))
        else:
            removals = added
        for v in removals:
            del active[bisect_left(active, v)]

        if charge is not None:
            charge(mach, n, m_before, total, max(d, 1))
        committed_total += added_count
        retractions_total += unmarked_count
        if rspan is not None:
            rspan.set(
                n_after=len(active),
                m_after=m_alive,
                added=added_count,
                unmarked=unmarked_count,
                p=p,
            )
            rspan.__exit__(None, None, None)
        if trace:
            record = RoundRecord(
                index=round_index,
                phase="bl",
                n_before=n,
                m_before=m_before,
                n_after=len(active),
                m_after=m_alive,
                marked=marked_count,
                unmarked=unmarked_count,
                added=added_count,
                removed_red=red_count,
                dimension=d,
                extras={"p": p, "delta": delta},
            )
            if rspan is not None:
                record.extras["wall_ns"] = rspan.wall_ns
            records.append(record)
    else:
        raise RuntimeError(
            f"BL failed to terminate within {max_rounds} rounds "
            f"(n={H.num_vertices}, m={H.num_edges}, dim={H.dimension})"
        )

    # Flush the counters the CSR path would have created, same totals.
    inc = obs_metrics.inc
    if edged_rounds:
        inc("backend/bernoulli_calls", edged_rounds)
        inc("backend/bernoulli_draws", draws_total)
        inc("solver/unmark_retractions", retractions_total)
    if edged_rounds or edgeless_commit:
        inc("solver/vertices_committed", committed_total)

    return MISResult(
        independent_set=np.asarray(independent, dtype=np.intp),
        algorithm="bl",
        n=H.num_vertices,
        m=H.num_edges,
        rounds=records,
        machine=mach.snapshot() if hasattr(mach, "snapshot") else None,
        meta={
            "p_initial": p_initial if p_initial is not None else 1.0,
            "recompute_probability": recompute_probability,
            "prenormalized_red": int(pre_red.size),
        },
    )
