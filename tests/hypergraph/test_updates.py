"""The incremental update API: exact diffs, chaining, fast-path identity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hypergraph import Hypergraph, apply_updates, chain_hash, feed_tracker
from repro.hypergraph.degrees import DeltaTracker
from repro.hypergraph.updates import _fast_apply, _packed_keys
from repro.generators import uniform_hypergraph
from repro.util.rng import as_generator


def test_empty_batch_is_noop():
    H = uniform_hypergraph(20, 30, 3, seed=1)
    upd = apply_updates(H)
    assert upd.is_noop
    assert upd.num_changed == 0
    assert upd.dirty_vertices.size == 0
    assert upd.hypergraph.content_hash() == H.content_hash()
    assert upd.delta_fraction() == 0.0


def test_add_and_remove_report_exact_diff():
    H = Hypergraph(6, [(0, 1), (2, 3), (4, 5)])
    upd = apply_updates(H, add_edges=[(1, 2)], remove_edges=[(4, 5)])
    new = upd.hypergraph
    assert sorted(new.edges) == [(0, 1), (1, 2), (2, 3)]
    assert [H.edges[int(i)] for i in upd.removed] == [(4, 5)]
    assert [new.edges[int(i)] for i in upd.added] == [(1, 2)]
    assert sorted(upd.dirty_vertices.tolist()) == [1, 2, 4, 5]


def test_remove_and_readd_cancels_in_diff():
    H = Hypergraph(6, [(0, 1), (2, 3)])
    upd = apply_updates(H, add_edges=[(0, 1)], remove_edges=[(0, 1)])
    assert upd.is_noop
    assert sorted(upd.hypergraph.edges) == sorted(H.edges)


def test_emptying_update():
    H = Hypergraph(5, [(0, 1), (1, 2), (3, 4)])
    upd = apply_updates(H, remove_edges=list(H.edges))
    assert upd.hypergraph.num_edges == 0
    # Removals never deactivate: vertices stay active, edgeless.
    assert np.array_equal(upd.hypergraph.vertices, H.vertices)
    assert upd.removed.size == 3


def test_adding_activates_new_vertices():
    H = Hypergraph(10, [(0, 1)], vertices=[0, 1])
    upd = apply_updates(H, add_edges=[(7, 8)])
    assert sorted(upd.hypergraph.vertices.tolist()) == [0, 1, 7, 8]
    assert sorted(upd.dirty_vertices.tolist()) == [7, 8]


def test_strict_missing_removal_raises():
    H = Hypergraph(4, [(0, 1)])
    with pytest.raises(ValueError):
        apply_updates(H, remove_edges=[(2, 3)])


def test_lenient_missing_removal_is_counted():
    H = Hypergraph(4, [(0, 1)])
    upd = apply_updates(H, remove_edges=[(2, 3)], strict=False)
    assert upd.ignored_removals == 1
    assert upd.is_noop


def test_add_out_of_range_raises():
    H = Hypergraph(4, [(0, 1)])
    with pytest.raises(IndexError):
        apply_updates(H, add_edges=[(3, 4)])


def test_repeated_add_remove_round_trips():
    H = uniform_hypergraph(15, 20, 3, seed=3)
    edge = H.edges[0]
    state = H
    chain = None
    for _ in range(3):
        out = apply_updates(state, remove_edges=[edge], parent_chain=chain)
        state, chain = out.hypergraph, out.chain
        out = apply_updates(state, add_edges=[edge], parent_chain=chain)
        state, chain = out.hypergraph, out.chain
    assert sorted(state.edges) == sorted(H.edges)
    assert state.content_hash() == H.content_hash()


def test_chain_links_states():
    H = Hypergraph(6, [(0, 1)])
    upd1 = apply_updates(H, add_edges=[(2, 3)])
    assert upd1.parent_chain == H.content_hash()
    assert upd1.chain == chain_hash(H.content_hash(), upd1.content_hash)
    upd2 = apply_updates(upd1.hypergraph, add_edges=[(4, 5)], parent_chain=upd1.chain)
    assert upd2.chain == chain_hash(upd1.chain, upd2.content_hash)
    assert upd2.chain != upd1.chain


def test_chain_is_history_sensitive():
    # Same final state via different histories => different chains.
    H = Hypergraph(6, [(0, 1)])
    direct = apply_updates(H, add_edges=[(2, 3)])
    detour1 = apply_updates(H, add_edges=[(4, 5)])
    detour2 = apply_updates(
        detour1.hypergraph,
        add_edges=[(2, 3)],
        remove_edges=[(4, 5)],
        parent_chain=detour1.chain,
    )
    assert detour2.hypergraph.content_hash() == direct.hypergraph.content_hash()
    assert detour2.chain != direct.chain


def test_delta_fraction_definition():
    H = Hypergraph(8, [(0, 1), (2, 3), (4, 5)])
    upd = apply_updates(H, add_edges=[(6, 7)], remove_edges=[(0, 1)])
    # |E_old ∪ E_new| = 4, changed = 2.
    assert upd.delta_fraction() == pytest.approx(0.5)


def test_fast_path_matches_python_reference():
    rng = as_generator(77)
    for trial in range(60):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(2, min(5, n)))
        m = int(rng.integers(1, 2 * n))
        H = uniform_hypergraph(n, m, d, seed=int(rng.integers(2**31)))
        k = int(rng.integers(0, H.num_edges + 1))
        removes = (
            [H.edges[int(i)] for i in rng.choice(H.num_edges, size=k, replace=False)]
            if k
            else []
        )
        adds = [
            tuple(sorted(int(v) for v in rng.choice(n, size=d, replace=False)))
            for _ in range(int(rng.integers(0, 5)))
        ]
        upd = apply_updates(H, add_edges=adds, remove_edges=removes, strict=False)
        ref = (set(H.edges) - set(removes)) | set(adds)
        assert sorted(upd.hypergraph.edges) == sorted(ref), trial
        # The diff is exact: applying it to the old edge set lands on ref.
        replayed = set(H.edges)
        replayed -= {H.edges[int(i)] for i in upd.removed}
        replayed |= {upd.hypergraph.edges[int(i)] for i in upd.added}
        assert replayed == ref, trial


def test_wide_shapes_take_general_path():
    # width * log2(universe+3) > 62 => packed keys infeasible: an 8-wide
    # edge over a 300-vertex universe needs ~66 bits.
    universe = 300
    wide = tuple(range(8))
    other = tuple(range(100, 108))
    H = Hypergraph(universe, [wide, other])
    assert (
        _fast_apply(
            H.store,
            H.store.select(np.zeros(2, dtype=bool)),
            H.store.select(np.zeros(2, dtype=bool)),
            universe,
        )
        is None
    )
    fresh = tuple(range(200, 208))
    upd = apply_updates(H, add_edges=[fresh], remove_edges=[wide], strict=True)
    assert sorted(upd.hypergraph.edges) == sorted([other, fresh])
    assert upd.num_changed == 2


def test_feed_tracker_matches_from_hypergraph():
    H = uniform_hypergraph(18, 24, 3, seed=9)
    upd = apply_updates(
        H, add_edges=[(0, 1, 2), (3, 4, 5)], remove_edges=[H.edges[0], H.edges[5]]
    )
    tracker = DeltaTracker.from_hypergraph(H)
    feed_tracker(tracker, upd, H)
    fresh = DeltaTracker.from_hypergraph(upd.hypergraph)
    assert tracker.delta_by_size == fresh.delta_by_size
    assert tracker.delta() == fresh.delta()


def _assert_cached_keys_fresh(store):
    """The keys a store carries equal a from-scratch pack at their (base, width)."""
    assert store._packed is not None
    base, width, keys = store._packed
    assert width >= (int(store.sizes().max()) if store.num_edges else 1)
    assert np.array_equal(keys, _packed_keys(store, base, width))
    assert np.all(np.diff(keys) > 0)


def _step(state, chain, model, adds=(), removes=()):
    out = apply_updates(state, add_edges=adds, remove_edges=removes,
                        parent_chain=chain, strict=False)
    model -= {tuple(sorted(e)) for e in removes}
    model |= {tuple(sorted(e)) for e in adds}
    assert set(out.hypergraph.edges) == model
    # The spliced successor must agree with a store built from scratch.
    fresh = Hypergraph(state.universe, sorted(model), vertices=out.hypergraph.vertices)
    assert out.hypergraph.content_hash() == fresh.content_hash()
    return out


def test_cached_keys_match_repack_along_churn_stream():
    rng = as_generator(2024)
    H = uniform_hypergraph(60, 90, 3, seed=5)
    state, chain, model = H, None, set(H.edges)
    kinds = ["add", "remove", "noop", "cancel", "mixed"] * 8
    for kind in (kinds[int(i)] for i in rng.permutation(len(kinds))):
        present = sorted(model)
        pick = [present[int(i)] for i in rng.choice(len(present), size=3, replace=False)]
        fresh = [tuple(sorted(int(v) for v in rng.choice(60, size=int(rng.integers(2, 5)),
                                                         replace=False)))
                 for _ in range(3)]
        if kind == "add":
            out = _step(state, chain, model, adds=fresh)
        elif kind == "remove":
            out = _step(state, chain, model, removes=pick)
        elif kind == "noop":
            # Re-adding present edges and removing absent ones changes nothing.
            absent = [e for e in fresh if e not in model]
            out = _step(state, chain, model, adds=pick, removes=absent)
            assert out.is_noop
        elif kind == "cancel":
            out = _step(state, chain, model, adds=pick, removes=pick)
            assert out.is_noop
        else:
            out = _step(state, chain, model, adds=fresh + pick[:1], removes=pick)
        _assert_cached_keys_fresh(out.hypergraph.store)
        state, chain = out.hypergraph, out.chain


def test_cached_keys_survive_a_detour_through_the_general_path():
    # base = 303: seven digits fit 62 bits, eight do not.
    universe = 300
    H = Hypergraph(universe, [(0, 1, 2), (3, 4, 5), (10, 20, 30)])
    state, chain, model = H, None, set(H.edges)
    out = _step(state, chain, model, adds=[(1, 2, 3, 4)])
    _assert_cached_keys_fresh(out.hypergraph.store)
    state, chain = out.hypergraph, out.chain

    wide = tuple(range(100, 108))
    out = _step(state, chain, model, adds=[wide], removes=[(0, 1, 2)])
    assert out.hypergraph.store._packed is None  # built by the general path
    state, chain = out.hypergraph, out.chain
    out = _step(state, chain, model, adds=[(7, 8, 9)], removes=[wide])
    assert out.hypergraph.store._packed is None  # the old store was still wide
    state, chain = out.hypergraph, out.chain

    # Back in the packed shape: keys are packed once, then spliced again.
    out = _step(state, chain, model, adds=[(0, 1, 2)], removes=[(3, 4, 5)])
    _assert_cached_keys_fresh(out.hypergraph.store)
    state, chain = out.hypergraph, out.chain
    out = _step(state, chain, model, adds=[(3, 4, 5), (50, 60)], removes=[(7, 8, 9)])
    _assert_cached_keys_fresh(out.hypergraph.store)
