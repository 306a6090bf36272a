"""Independence / maximality validation.

The correctness contract of every MIS algorithm in :mod:`repro.core` is
checked against these validators, which implement the definitions directly:

* a set ``I`` is **independent** in ``H`` iff no edge is contained in ``I``;
* an independent ``I`` is **maximal** iff for every vertex ``v ∉ I`` the set
  ``I ∪ {v}`` is dependent.

Violations are reported as rich exception objects carrying a concrete
witness (the offending edge or the extendable vertex), which the
failure-injection experiment (E13) relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph

__all__ = [
    "IndependenceViolation",
    "MaximalityViolation",
    "is_independent",
    "is_maximal_independent",
    "check_mis",
    "find_independence_witness",
    "find_maximality_witness",
]


@dataclass
class IndependenceViolation(Exception):
    """Raised by :func:`check_mis` when an edge lies fully inside the set."""

    edge: tuple[int, ...]

    def __str__(self) -> str:
        return f"set contains edge {self.edge}"


@dataclass
class MaximalityViolation(Exception):
    """Raised by :func:`check_mis` when some vertex could be added."""

    vertex: int

    def __str__(self) -> str:
        return f"vertex {self.vertex} can be added without creating an edge"


def _member_mask(H: Hypergraph, members: Iterable[int] | np.ndarray) -> np.ndarray:
    idx = np.asarray(
        list(members) if not isinstance(members, np.ndarray) else members,
        dtype=np.intp,
    )
    mask = np.zeros(H.universe, dtype=bool)
    if idx.size:
        if idx.min() < 0 or idx.max() >= H.universe:
            raise IndexError("member outside universe")
        mask[idx] = True
    return mask


def _member_counts(H: Hypergraph, mask: np.ndarray) -> np.ndarray:
    """Per-edge count of members: one matvec over the CSR incidence,
    shared by both witnesses."""
    if H.num_edges == 0:
        return np.empty(0, dtype=np.int64)
    return H.incidence() @ mask.astype(np.int64)


def _first(flags: np.ndarray) -> int | None:
    """Index of the first ``True`` in *flags*, or ``None``."""
    if not flags.size:
        return None
    i = int(flags.argmax())
    return i if flags[i] else None


def _independence_witness(H: Hypergraph, counts: np.ndarray) -> tuple[int, ...] | None:
    i = _first(counts == H.edge_sizes())
    return None if i is None else H.store.edge(i)


def _maximality_witness(H: Hypergraph, mask: np.ndarray, counts: np.ndarray) -> int | None:
    active = H.vertices
    free = ~mask[active]
    if not free.any():
        return None
    near = np.flatnonzero(counts == H.edge_sizes() - 1)
    if near.size:
        # A near-complete edge has exactly one non-member vertex — the
        # vertex it blocks — so its sum of non-member ids *is* that
        # vertex: one more matvec, no per-position expansion.  An edge
        # of size 1 ({v}) blocks v whenever v ∉ I (counts==0==size-1).
        outside = np.arange(H.universe, dtype=np.int64) * ~mask
        blocked = np.zeros(H.universe, dtype=bool)
        blocked[(H.incidence() @ outside)[near]] = True
        free &= ~blocked[active]
    i = _first(free)
    return None if i is None else int(active[i])


def find_independence_witness(
    H: Hypergraph, members: Iterable[int] | np.ndarray
) -> tuple[int, ...] | None:
    """Return an edge fully contained in *members*, or ``None``.

    The first such edge in canonical order, from per-edge member counts.
    """
    return _independence_witness(H, _member_counts(H, _member_mask(H, members)))


def is_independent(H: Hypergraph, members: Iterable[int] | np.ndarray) -> bool:
    """Does *members* contain no edge of *H*?"""
    return find_independence_witness(H, members) is None


def find_maximality_witness(
    H: Hypergraph, members: Iterable[int] | np.ndarray
) -> int | None:
    """Return a vertex of ``V \\ I`` whose addition keeps independence, or ``None``.

    Vectorised: vertex ``v`` is blocked iff some edge ``e ∋ v`` has all its
    *other* vertices in ``I``; per edge this means ``|e ∩ I| = |e| − 1`` and
    the one missing vertex is ``v``.  We compute per-edge member counts
    once, then scan only the near-complete edges.  The witness is the
    smallest free vertex.
    """
    mask = _member_mask(H, members)
    return _maximality_witness(H, mask, _member_counts(H, mask))


def is_maximal_independent(H: Hypergraph, members: Iterable[int] | np.ndarray) -> bool:
    """Is *members* a maximal independent set of *H*?"""
    return (
        find_independence_witness(H, members) is None
        and find_maximality_witness(H, members) is None
    )


def check_mis(H: Hypergraph, members: Iterable[int] | np.ndarray) -> None:
    """Assert that *members* is an MIS of *H*; raise a witnessed violation otherwise.

    Every edge and every active vertex is checked; the member counts are
    computed once and shared by both witnesses.

    Raises
    ------
    IndependenceViolation
        If some edge lies fully inside the set.
    MaximalityViolation
        If some vertex outside the set could be added.
    """
    mask = _member_mask(H, members)
    counts = _member_counts(H, mask)
    edge = _independence_witness(H, counts)
    if edge is not None:
        raise IndependenceViolation(edge)
    v = _maximality_witness(H, mask, counts)
    if v is not None:
        raise MaximalityViolation(v)
