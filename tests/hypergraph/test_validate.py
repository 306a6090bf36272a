"""Tests for independence/maximality validation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypergraph import (
    Hypergraph,
    IndependenceViolation,
    MaximalityViolation,
    check_mis,
    is_independent,
    is_maximal_independent,
)
from repro.hypergraph.validate import (
    find_independence_witness,
    find_maximality_witness,
)


class TestIndependence:
    def test_empty_set_independent(self, triangle):
        assert is_independent(triangle, [])

    def test_single_vertices_independent(self, triangle):
        for v in range(3):
            assert is_independent(triangle, [v])

    def test_edge_is_dependent(self, triangle):
        assert not is_independent(triangle, [0, 1])

    def test_witness_is_contained_edge(self, small_mixed):
        w = find_independence_witness(small_mixed, [0, 1, 2, 7])
        assert w == (0, 1, 2)

    def test_no_witness_when_independent(self, small_mixed):
        assert find_independence_witness(small_mixed, [0, 1]) is None

    def test_edgeless_any_set_independent(self, edgeless):
        assert is_independent(edgeless, range(6))

    def test_member_outside_universe_raises(self, triangle):
        with pytest.raises(IndexError):
            is_independent(triangle, [5])

    def test_subset_of_big_edge_independent(self, single_edge):
        assert is_independent(single_edge, [1, 2])
        assert not is_independent(single_edge, [1, 2, 3])


class TestMaximality:
    def test_triangle_mis(self, triangle):
        # any single vertex is maximal in the triangle? No: {0} can add nothing
        # adjacent... adding 1 creates edge (0,1): blocked; adding 2 creates
        # (0,2): blocked. So {0} is maximal.
        assert is_maximal_independent(triangle, [0])

    def test_triangle_empty_not_maximal(self, triangle):
        assert not is_maximal_independent(triangle, [])
        assert find_maximality_witness(triangle, []) is not None

    def test_witness_is_addable(self, small_mixed):
        members = [0]
        w = find_maximality_witness(small_mixed, members)
        assert w is not None
        assert is_independent(small_mixed, members + [w])

    def test_full_edgeless_maximal(self, edgeless):
        assert is_maximal_independent(edgeless, range(6))

    def test_singleton_edge_blocks_vertex(self):
        H = Hypergraph(3, [(0,), (1, 2)])
        # 0 can never join: {1} ∪ {2} blocked by (1,2); I = {1} with 2 blocked
        # only if adding 2 completes (1,2) — yes. 0 blocked by (0,).
        assert is_maximal_independent(H, [1])
        assert not is_maximal_independent(H, [])

    def test_isolated_vertices_must_be_included(self, single_edge):
        # vertices 0 and 4 touch no edge: any maximal set includes them.
        assert not is_maximal_independent(single_edge, [1, 2])
        assert is_maximal_independent(single_edge, [0, 1, 2, 4])

    def test_inactive_vertices_not_required(self):
        H = Hypergraph(5, [(1, 2)], vertices=[1, 2, 3])
        # 0 and 4 inactive: maximality only ranges over active vertices.
        assert is_maximal_independent(H, [1, 3])

    def test_near_complete_big_edge(self):
        H = Hypergraph(5, [(0, 1, 2, 3, 4)])
        assert is_maximal_independent(H, [0, 1, 2, 3])
        assert not is_maximal_independent(H, [0, 1, 2])


class TestCheckMis:
    def test_passes_on_valid(self, triangle):
        check_mis(triangle, [0])  # no exception

    def test_independence_violation_carries_edge(self, triangle):
        with pytest.raises(IndependenceViolation) as exc:
            check_mis(triangle, [0, 1])
        assert exc.value.edge == (0, 1)

    def test_maximality_violation_carries_vertex(self, triangle):
        with pytest.raises(MaximalityViolation) as exc:
            check_mis(triangle, [])
        assert 0 <= exc.value.vertex < 3

    def test_independence_checked_before_maximality(self, small_mixed):
        # a dependent set that is also non-maximal reports independence first
        with pytest.raises(IndependenceViolation):
            check_mis(small_mixed, [2, 3])

    def test_numpy_input(self, triangle):
        check_mis(triangle, np.array([0]))

    def test_exception_str(self):
        assert "edge" in str(IndependenceViolation((0, 1)))
        assert "vertex" in str(MaximalityViolation(3))


# ---------------------------------------------------------------------------
# check_mis against the definitions, on random instances
# ---------------------------------------------------------------------------


def _reference_violation(H, members):
    """``(exception type, witness)`` straight from the definitions, or ``None``.

    The witness is the first contained edge in canonical order, else the
    smallest active non-member whose addition creates no edge.
    """
    inside = set(members)
    for e in H.edges:
        if set(e) <= inside:
            return IndependenceViolation, e
    for v in H.vertices.tolist():
        if v in inside:
            continue
        if not any(set(e) <= inside | {v} for e in H.edges):
            return MaximalityViolation, v
    return None


def _greedy_mis(H, order):
    chosen: set[int] = set()
    for v in order:
        if not any(set(e) <= chosen | {v} for e in H.edges):
            chosen.add(v)
    return chosen


@st.composite
def certificate_cases(draw):
    """An instance (size-1 edges, empty edge sets and inactive vertices
    allowed) and a member set: arbitrary, a true MIS, or an MIS with one
    planted independence or maximality violation."""
    n = draw(st.integers(min_value=1, max_value=10))
    active = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    edges = draw(
        st.lists(
            st.lists(st.sampled_from(sorted(active)), min_size=1, max_size=4, unique=True),
            max_size=10,
        )
    )
    H = Hypergraph(n, edges, vertices=active)
    order = draw(st.permutations(sorted(active)))
    mis = _greedy_mis(H, order)
    mode = draw(st.sampled_from(["arbitrary", "mis", "plant-dependent", "plant-free"]))
    if mode == "arbitrary":
        # May hold inactive vertices: they never count toward maximality.
        members = set(draw(st.lists(st.integers(0, n - 1), unique=True)))
    elif mode == "mis":
        members = mis
    elif mode == "plant-dependent":
        outside = sorted(set(active) - mis)
        members = mis | ({draw(st.sampled_from(outside))} if outside else set())
    else:
        members = mis - ({draw(st.sampled_from(sorted(mis)))} if mis else set())
    return H, sorted(members)


class TestCheckMisAgainstDefinition:
    @given(certificate_cases())
    @settings(max_examples=300, deadline=None)
    def test_same_exception_and_witness(self, case):
        H, members = case
        expected = _reference_violation(H, members)
        if expected is None:
            check_mis(H, members)
            check_mis(H, np.asarray(members, dtype=np.intp))
            return
        kind, witness = expected
        with pytest.raises(kind) as exc:
            check_mis(H, members)
        got = exc.value.edge if kind is IndependenceViolation else exc.value.vertex
        assert got == witness
        assert type(got) is type(witness)

    @given(certificate_cases())
    @settings(max_examples=200, deadline=None)
    def test_witness_finders_agree_with_definition(self, case):
        H, members = case
        expected = _reference_violation(H, members)
        edge = find_independence_witness(H, members)
        if expected is not None and expected[0] is IndependenceViolation:
            assert edge == expected[1]
            return
        assert edge is None
        want = expected[1] if expected is not None else None
        assert find_maximality_witness(H, members) == want

    def test_planted_violations_on_size_one_and_empty_edge_sets(self):
        H = Hypergraph(4, [(2,), (0, 1)])
        with pytest.raises(IndependenceViolation) as exc:
            check_mis(H, [0, 2, 3])
        assert exc.value.edge == (2,)
        with pytest.raises(MaximalityViolation) as exc:
            check_mis(H, [0])
        assert exc.value.vertex == 3
        check_mis(H, [0, 3])
        empty = Hypergraph(3, [], vertices=[0, 2])
        with pytest.raises(MaximalityViolation) as exc:
            check_mis(empty, [0, 1])
        assert exc.value.vertex == 2
        check_mis(empty, [0, 2])
