"""Fault-injection solver wrappers — planted bugs for testing the testers.

A fuzzing subsystem that has never caught a bug proves nothing about
itself.  These wrappers wrap a correct solver and misbehave under a
structural trigger (edge count above a threshold), giving the test suite
known-bad subjects: the harness must *detect* them, the shrinker must
minimise their trigger to a handful of edges, and a saved reproducer
must replay the failure deterministically.

The wrappers mimic the library solver signature (``fn(H, seed=None,
**kwargs) -> MISResult``) so they plug into
:func:`repro.qa.differential.run_case` via ``extra_solvers``.

:func:`slow_phase` is the *performance* twin: results stay correct but a
planted busy-spin burns CPU inside a named span, giving the regression
forensics (``repro trace diff``, the sampling profiler) a known culprit
they must convict.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.core import greedy_mis
from repro.core.result import MISResult
from repro.hypergraph.hypergraph import Hypergraph
from repro.obs.tracer import current_tracer

__all__ = [
    "drop_maximality_above",
    "break_independence_above",
    "nondeterministic",
    "slow_phase",
]


def _rewrap(result: MISResult, members: np.ndarray, name: str) -> MISResult:
    return MISResult(
        independent_set=np.asarray(members, dtype=np.intp),
        algorithm=name,
        n=result.n,
        m=result.m,
        rounds=[],
        machine=None,
        meta={"fault": name},
    )


def drop_maximality_above(
    max_edges: int, base: Callable = greedy_mis
) -> Callable[..., MISResult]:
    """A solver that silently drops one MIS vertex once ``m > max_edges``.

    On trigger the returned set is the base solver's MIS minus its
    largest member — independent but not maximal, so the harness must
    flag a ``maximality`` failure, and the minimal trigger instance has
    exactly ``max_edges + 1`` edges (what the shrinker should find).
    """

    def solver(H: Hypergraph, seed=None, **kwargs) -> MISResult:
        result = base(H, seed=seed, **kwargs)
        members = np.asarray(result.independent_set, dtype=np.intp)
        if H.num_edges > max_edges and members.size:
            return _rewrap(result, members[:-1], f"greedy[drop-max>{max_edges}]")
        return result

    return solver


def break_independence_above(
    max_edges: int, base: Callable = greedy_mis
) -> Callable[..., MISResult]:
    """A solver that adds a forbidden vertex once ``m > max_edges``.

    On trigger the first edge's missing vertices are force-added to the
    result, planting that edge fully inside the returned set — an
    ``independence`` failure with a concrete edge witness.
    """

    def solver(H: Hypergraph, seed=None, **kwargs) -> MISResult:
        result = base(H, seed=seed, **kwargs)
        members = np.asarray(result.independent_set, dtype=np.intp)
        if H.num_edges > max_edges:
            forced = np.union1d(members, np.asarray(H.edges[0], dtype=np.intp))
            return _rewrap(result, forced, f"greedy[break-ind>{max_edges}]")
        return result

    return solver


def _planted_hot_frame(cpu_ns: int) -> int:
    """Busy-spin until this thread has burned *cpu_ns* of CPU time — the
    frame a sampling profiler must name.

    A real spin (not ``time.sleep``) so the planted slowdown shows up in
    CPU attribution and stack samples alike; the loop body does trivial
    arithmetic to stay in this Python frame.  The deadline is on the
    thread's CPU clock, not the wall clock: a preempted thread keeps
    spinning until it has burned the full budget, so the span's CPU time
    is at least *cpu_ns* and its wall time (never less than its CPU time)
    is too.
    """
    deadline_ns = time.thread_time_ns() + cpu_ns
    spins = 0
    while time.thread_time_ns() < deadline_ns:
        spins += 1
    return spins


def slow_phase(
    delay_s: float,
    base: Callable = greedy_mis,
    *,
    span: str = "planted/slow_phase",
) -> Callable[..., MISResult]:
    """A solver that burns ``delay_s`` of CPU inside its own named span.

    The *performance* fault twin of the correctness wrappers above: the
    result is bit-identical to the base solver's, but every call opens a
    span named *span* on the ambient tracer and busy-spins inside
    :func:`_planted_hot_frame`.  Regression forensics must convict it —
    ``repro trace diff`` against an unwrapped baseline ranks the planted
    span as the top wall-time regression, and the profiler's flame output
    names the spinning frame.
    """
    if delay_s < 0:
        raise ValueError(f"delay must be non-negative: {delay_s}")

    def solver(H: Hypergraph, seed=None, **kwargs) -> MISResult:
        result = base(H, seed=seed, **kwargs)
        tracer = current_tracer()
        with tracer.span(span, delay_s=delay_s):
            _planted_hot_frame(int(delay_s * 1e9))
        return result

    return solver


def nondeterministic(base: Callable = greedy_mis) -> Callable[..., MISResult]:
    """A solver that ignores its seed on every second call.

    Each odd-numbered invocation perturbs the seed, so the determinism
    invariant (same seed, bit-identical output) breaks as soon as two
    runs land on instances where the scan order matters.
    """
    calls = {"n": 0}

    def solver(H: Hypergraph, seed=None, **kwargs) -> MISResult:
        calls["n"] += 1
        if calls["n"] % 2 == 0 and seed is not None:
            seed = (seed, "nondeterministic", calls["n"])
        return base(H, seed=seed, **kwargs)

    return solver
