"""Incremental MIS maintenance: localize, repair, splice, certify.

The engine keeps ``(H_t, I_t)`` — the current hypergraph and a maximal
independent set of it — and applies update batches through
:func:`repro.hypergraph.updates.apply_updates`.  Per batch it either
**repairs** (re-solve only the affected components and splice the patch
into the frozen remainder) or **recomputes** from scratch, routed by the
measured crossover in :mod:`repro.dynamic.costmodel`.

Why repair is exact, not approximate
------------------------------------
All solving — initial, repair, recompute — is greedy along one global
*priority order*: a permutation of the universe derived from the engine
seed.  Greedy along a fixed priority is component-decomposable (a
vertex's accept/reject decision depends only on earlier-priority vertices
of its own component), so the maintained invariant

    ``I_t  ==  greedy_mis(H_t, order=priority)``

survives repair *exactly*: components of ``H_t`` containing no dirty
vertex have identical vertex and edge sets as in ``H_{t-1}`` (an incident
edge that changed would make its endpoints dirty), hence the frozen
restriction of ``I_{t-1}`` is already the greedy answer there, and the
re-solved affected components supply the rest.  Repair therefore returns
**bit-identical** output to recompute-from-scratch — the property the
stream fuzzer pins per seed across kernel backends.  The greedy scan
itself rides :func:`repro.kernels.dispatch.select_backend` for its
adjacency layout, so repairs use the dense kernels whenever the patch
shape qualifies.

Every update still ends in an explicit certificate pass
(:func:`repro.hypergraph.validate.check_mis` on the *updated* hypergraph)
unless ``validate=False`` — trust the theorem, verify the code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable

import numpy as np

from repro.core.greedy import greedy_mis
from repro.core.result import RoundRecord
from repro.dynamic.costmodel import decide_strategy
from repro.hypergraph.components import component_labels
from repro.hypergraph.edgestore import concat_ranges
from repro.hypergraph.hypergraph import EdgeLike, Hypergraph
from repro.hypergraph.updates import UpdateResult, apply_updates
from repro.hypergraph.validate import check_mis
from repro.obs import metrics as obs_metrics
from repro.obs.tracer import NullTracer, Tracer, current_tracer
from repro.util.rng import SeedLike, as_generator

__all__ = ["DynamicMIS", "UpdateOutcome"]

_STRATEGIES = ("auto", "repair", "recompute")


def _local_labels(cand: np.ndarray, sub_store) -> np.ndarray:
    """Connected-component labels of the *compacted* candidate region.

    ``cand`` (sorted vertex ids) and ``sub_store`` (the edges lying inside
    it) are remapped to ``0..k-1``, and a hook-and-shortcut label pass
    runs on those arrays alone, so the cost is proportional to the
    candidate region — not the instance.  Each label is the smallest local
    index in its component: arbitrary, but distinct per component.
    """
    label = np.arange(cand.size, dtype=np.intp)
    if not sub_store.num_edges:
        return label
    members = np.searchsorted(cand, sub_store.indices)
    starts, sizes = sub_store.indptr[:-1], sub_store.sizes()
    while True:
        at = label[members]
        low = np.repeat(np.minimum.reduceat(at, starts), sizes)
        if np.array_equal(at, low):
            return label
        # Hook every member, and the root it points at, to the edge's
        # smallest label; labels only fall, so label[v] <= v throughout
        # and the shortcut below ends at the roots.
        np.minimum.at(label, at, low)
        np.minimum.at(label, members, low)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


class _Components:
    """Component labels of the current state, with a member list per label.

    ``labels`` covers the universe (``-1`` for inactive vertices).  An
    update can only change the components holding dirty vertices, so
    :meth:`region` reads exactly those through the member index and
    :meth:`relabel` rewrites exactly that region, in place — neither
    costs O(n) per step.  :meth:`reset` (initial state, recompute) is the
    only full-instance pass.
    """

    __slots__ = ("labels", "members", "next_label")

    def __init__(self, labels: np.ndarray):
        self.reset(labels)

    def reset(self, labels: np.ndarray) -> None:
        self.labels = labels
        self.members: dict[int, np.ndarray] = {}
        active = np.flatnonzero(labels >= 0)
        self._index(active, labels[active])
        self.next_label = int(labels.max()) + 1 if labels.size else 0

    def _index(self, vertices: np.ndarray, labels: np.ndarray) -> None:
        """File the sorted *vertices* under their *labels*."""
        if not vertices.size:
            return
        order = np.argsort(labels, kind="stable")
        grouped, filed = labels[order], vertices[order]
        cuts = np.flatnonzero(grouped[1:] != grouped[:-1]) + 1
        starts = [0, *cuts.tolist()]
        stops = [*starts[1:], filed.size]
        heads = grouped[starts].tolist()
        self.members.update(
            (lab, filed[a:b]) for lab, a, b in zip(heads, starts, stops)
        )

    def region(self, dirty: np.ndarray) -> np.ndarray:
        """Sorted union of the dirty vertices and their components."""
        touched = np.unique(self.labels[dirty])
        parts = [self.members[lab] for lab in touched[touched >= 0].tolist()]
        return np.unique(np.concatenate([dirty, *parts]))

    def relabel(self, region: np.ndarray, local: np.ndarray) -> None:
        """Give a :meth:`region` fresh label ids from its local labels.

        The region holds whole components, so every label it carried
        retires; ids are never reused, so the rest keep their own.
        """
        for lab in np.unique(self.labels[region]).tolist():
            self.members.pop(lab, None)
        fresh = self.next_label + local
        self.labels[region] = fresh
        self._index(region, fresh)
        self.next_label = int(fresh.max()) + 1


@dataclass(frozen=True)
class UpdateOutcome:
    """What one :meth:`DynamicMIS.apply` did, and the state it produced."""

    update: UpdateResult
    strategy: str  # "repair" | "recompute" | "noop"
    reason: str
    mis: np.ndarray = field(compare=False)
    dirty_fraction: float
    patch_vertices: int
    frozen_vertices: int
    certified: bool
    chain: str
    rounds: tuple[RoundRecord, ...] = ()

    @property
    def mis_size(self) -> int:
        return int(self.mis.size)


class DynamicMIS:
    """Maintain an MIS of a hypergraph under streamed edge updates.

    Parameters
    ----------
    H:
        Initial hypergraph.
    seed:
        Derives the global priority permutation (and nothing else) —
        the whole stream is deterministic in ``(H, seed, updates)``.
    strategy:
        ``"auto"`` (dispatch via the crossover model), or force
        ``"repair"`` / ``"recompute"`` — the benchmark harness races the
        forced modes against each other.
    validate:
        Run the :func:`check_mis` certificate after every update
        (default).  Disable only when an external pass certifies.
    """

    def __init__(
        self,
        H: Hypergraph,
        seed: SeedLike = 0,
        *,
        strategy: str = "auto",
        validate: bool = True,
    ):
        if strategy not in _STRATEGIES:
            raise ValueError(f"strategy must be one of {_STRATEGIES}: {strategy!r}")
        self._strategy = strategy
        self._validate = validate
        self._seed = seed
        perm = as_generator((seed, "dynamic-priority")).permutation(H.universe)
        rank = np.empty(H.universe, dtype=np.intp)
        rank[perm] = np.arange(H.universe, dtype=np.intp)
        self._rank = rank
        self._H = H
        self._chain = H.content_hash()
        self._mis = greedy_mis(H, order=self._priority_order(H.vertices)).independent_set
        # Component labels are maintained incrementally across updates so
        # repair localization never pays a full-instance labeling pass:
        # an update can only change the components that contain dirty
        # vertices, so those get relabeled locally (fresh ids) and the
        # rest keep their labels.  Recompute refreshes from scratch.
        self._components = _Components(component_labels(H))
        self._steps = 0
        if validate:
            check_mis(H, self._mis)

    # ------------------------------------------------------------------
    # state accessors
    # ------------------------------------------------------------------
    @property
    def hypergraph(self) -> Hypergraph:
        return self._H

    @property
    def independent_set(self) -> np.ndarray:
        view = self._mis.view()
        view.flags.writeable = False
        return view

    @property
    def chain(self) -> str:
        """Hash-chain value of the current state (see :func:`chain_hash`)."""
        return self._chain

    @property
    def steps(self) -> int:
        """Number of update batches applied."""
        return self._steps

    def certify(self) -> bool:
        """Re-run the certificate on the current state (raises on violation)."""
        check_mis(self._H, self._mis)
        return True

    def recompute_reference(self) -> np.ndarray:
        """The pinned recompute: full greedy-by-priority on the current state.

        The engine's invariant says this always equals
        :attr:`independent_set` bit for bit — the stream fuzzer's
        metamorphic oracle.
        """
        return greedy_mis(
            self._H, order=self._priority_order(self._H.vertices)
        ).independent_set

    def _priority_order(self, vertices: np.ndarray) -> np.ndarray:
        v = np.asarray(vertices, dtype=np.intp)
        return v[np.argsort(self._rank[v])]

    # ------------------------------------------------------------------
    # the update step
    # ------------------------------------------------------------------
    def apply(
        self,
        add_edges: Iterable[EdgeLike] = (),
        remove_edges: Iterable[EdgeLike] = (),
        *,
        strict: bool = True,
        trace: bool = False,
        tracer: Tracer | NullTracer | None = None,
    ) -> UpdateOutcome:
        """Apply one update batch and restore the MIS invariant.

        With ``trace=True`` the inner solve records its
        :class:`RoundRecord`\\ s on the outcome (the streamed analogue of
        the one-shot solvers' ``keep_rounds``).  Raises the certificate
        violation if validation fails — the engine state is then **not**
        advanced.
        """
        trc = tracer if tracer is not None else current_tracer()
        H_old = self._H
        with trc.span(
            "dynamic/update",
            step=self._steps,
            n=H_old.num_vertices,
            m=H_old.num_edges,
        ) as span:
            upd = apply_updates(
                H_old,
                add_edges,
                remove_edges,
                parent_chain=self._chain,
                strict=strict,
            )
            H_new = upd.hypergraph
            obs_metrics.inc("dynamic/updates")
            n_active = H_new.num_vertices
            dirty_fraction = (
                upd.dirty_vertices.size / n_active if n_active else 0.0
            )
            obs_metrics.set_gauge("dynamic/dirty_fraction", dirty_fraction)
            delta_fraction = upd.delta_fraction()

            rounds: tuple[RoundRecord, ...] = ()
            commit: Callable[[], None] | None = None
            if upd.is_noop:
                strategy, reason = "noop", "empty structural diff"
                new_mis = self._mis
                patch_vertices = 0
                frozen = int(self._mis.size)
            else:
                decision = decide_strategy(
                    delta_fraction, H_new.dimension, H_new.universe
                )
                if self._strategy == "auto":
                    strategy, reason, mode = (
                        decision.strategy,
                        decision.reason,
                        decision.mode,
                    )
                else:
                    strategy, mode = self._strategy, "forced"
                    reason = f"forced {strategy} (engine strategy override)"
                obs_metrics.inc(
                    f"dynamic/decision/{decision.bucket}:{decision.band}/{strategy}"
                )
                obs_metrics.inc(f"dynamic/decision_mode/{mode}")
                if strategy == "repair":
                    solved = self._repair(H_new, upd, trc, trace)
                else:
                    solved = self._recompute(H_new, trc, trace)
                new_mis, patch_vertices, frozen, rounds, commit = solved

            certified = False
            if self._validate:
                check_mis(H_new, new_mis)
                certified = True

            self._H = H_new
            self._mis = new_mis
            if commit is not None:
                commit()
            self._chain = upd.chain
            self._steps += 1
            if trc.enabled:
                span.set(
                    strategy=strategy,
                    mis_size=int(new_mis.size),
                    changed_edges=upd.num_changed,
                    delta_fraction=round(delta_fraction, 6),
                    dirty_fraction=round(dirty_fraction, 6),
                )
        return UpdateOutcome(
            update=upd,
            strategy=strategy,
            reason=reason,
            mis=new_mis,
            dirty_fraction=dirty_fraction,
            patch_vertices=patch_vertices,
            frozen_vertices=frozen,
            certified=certified,
            chain=upd.chain,
            rounds=rounds,
        )

    def _repair(
        self,
        H_new: Hypergraph,
        upd: UpdateResult,
        trc: Tracer | NullTracer,
        trace: bool,
    ) -> tuple[np.ndarray, int, int, tuple[RoundRecord, ...], Callable[[], None]]:
        """Localize → re-solve affected components → splice.

        Localization is two-stage, and both stages are local.  The cached
        labels of the *previous* state bound the blast radius: any path
        from a dirty vertex in ``H_new`` crosses either an added edge
        (whose endpoints are all dirty) or a surviving old edge (which
        stays inside its old component), so the new components containing
        dirty vertices live inside the union of old components containing
        dirty vertices plus the newly activated vertices.  Running CC on
        that candidate region alone then yields the exact affected
        components of ``H_new``; candidate pieces that split away from
        every dirty vertex keep their old incident edges untouched and are
        frozen along with the rest.

        Returns the spliced MIS and a ``commit`` that relabels the
        candidate region — run only once the new state is certified.
        """
        with trc.span("dynamic/repair", changed=upd.num_changed) as span:
            dirty = upd.dirty_vertices
            cand = self._components.region(dirty)
            # Every edge touching the region lies inside it.  The store is
            # lex-sorted, so first vertices ascend and the region's edges
            # are the runs that start at a region vertex: one gather and
            # two binary searches instead of a full-store mask.
            store = H_new.store
            first = store.indices[store.indptr[:-1]]
            cand_store = store.subset(
                concat_ranges(
                    np.searchsorted(first, cand, "left"),
                    np.searchsorted(first, cand, "right"),
                )
            )
            local = _local_labels(cand, cand_store)
            # Local labels are region indices, so a region-sized mask
            # marks the components that hold a dirty vertex.
            hit = np.zeros(cand.size, dtype=bool)
            hit[local[np.searchsorted(cand, dirty)]] = True
            keep = hit[local]
            sub_vertices = cand[keep]
            sub_first = cand_store.indices[cand_store.indptr[:-1]]
            sub_store = cand_store.select(keep[np.searchsorted(cand, sub_first)])
            sub_H = Hypergraph._from_arrays(H_new.universe, sub_store, sub_vertices)
            result = greedy_mis(
                sub_H,
                order=self._priority_order(sub_vertices),
                trace=trace,
                tracer=trc,
            )
            # Frozen and patch vertices are disjoint and both sorted: drop
            # the old patch members and splice the new ones in, with no
            # set operation over the whole MIS.
            mis = self._mis
            at = np.searchsorted(mis, sub_vertices)
            frozen = (
                np.delete(mis, at[mis.take(at, mode="clip") == sub_vertices])
                if mis.size
                else mis
            )
            patch = result.independent_set
            merged = np.insert(frozen, np.searchsorted(frozen, patch), patch)
            obs_metrics.inc("dynamic/repairs")
            obs_metrics.inc("dynamic/patch_vertices", sub_H.num_vertices)
            if trc.enabled:
                span.set(
                    patch_n=sub_H.num_vertices,
                    patch_m=sub_H.num_edges,
                    frozen=int(frozen.size),
                    components=int(np.count_nonzero(hit)),
                )
        return (
            merged,
            sub_H.num_vertices,
            int(frozen.size),
            tuple(result.rounds),
            partial(self._components.relabel, cand, local),
        )

    def _recompute(
        self, H_new: Hypergraph, trc: Tracer | NullTracer, trace: bool
    ) -> tuple[np.ndarray, int, int, tuple[RoundRecord, ...], Callable[[], None]]:
        with trc.span("dynamic/recompute", n=H_new.num_vertices, m=H_new.num_edges):
            result = greedy_mis(
                H_new,
                order=self._priority_order(H_new.vertices),
                trace=trace,
                tracer=trc,
            )
            obs_metrics.inc("dynamic/recomputes")
            labels = component_labels(H_new)
        return (
            result.independent_set,
            H_new.num_vertices,
            0,
            tuple(result.rounds),
            partial(self._components.reset, labels),
        )
