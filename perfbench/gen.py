"""Deterministic inputs for the three workloads.

Every function here is a pure function of its seed: the same seed gives
byte-identical request lines, update batches and campaign grids.  All of
it runs before any timing starts.
"""

from __future__ import annotations

import gc
import importlib
import json
import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.campaign import AlgorithmSpec, Campaign, InstanceSpec
from repro.generators import (
    bounded_edges_instance,
    mixed_dimension_hypergraph,
    sharded_hypergraph,
    uniform_hypergraph,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.service.protocol import encode_instance

def frozen(inputs):
    """Return *inputs* after exempting everything alive from garbage collection.

    The inputs live for the whole run.  Left tracked, every full
    collection during a timed operation would walk them — a pause the
    program under test does not cause and would not pay on its own.
    """
    gc.collect()
    gc.freeze()
    return inputs


# ---------------------------------------------------------------------------
# solve-mix
# ---------------------------------------------------------------------------
#: Instance shapes of the solve pool.  All sit inside the dense-kernel
#: envelope (dimension <= 8), so the scalar and frontier engines both run.
SOLVE_SHAPES = (
    ("u3-n400", lambda s: uniform_hypergraph(400, 800, 3, seed=s)),
    ("u4-n400", lambda s: uniform_hypergraph(400, 600, 4, seed=s)),
    ("mix2-5-n1000", lambda s: mixed_dimension_hypergraph(1000, 1500, [2, 3, 4, 5], seed=s)),
    ("u2-n2000", lambda s: uniform_hypergraph(2000, 3000, 2, seed=s)),
)
INSTANCES_PER_SHAPE = 2
#: The pool is the same for every run; the run seed draws the schedule.
#: Per-seed pools would add instance-to-instance cost differences to the
#: run-to-run spread without exercising anything new.
POOL_SEED = 20140623
#: One slot per (algorithm share): half sbl, a quarter each bl and kuw.
SOLVE_ALGORITHMS = ("sbl", "sbl", "bl", "kuw")
#: Each block of the schedule holds every (instance, algorithm slot) pair
#: once, shuffled, plus this many repeats of earlier cells — 20% of the
#: block.  Stratifying keeps the cost mix of every run the same.
REPEATS_PER_BLOCK = 8
#: Repeats pick among this many preceding requests, which keeps the
#: repeated cell inside the server's result cache (1024 cells).
REPEAT_WINDOW = 256
#: asyncio's StreamReader refuses longer lines and drops the connection.
MAX_FRAME = 64 * 1024
FRAME_SUFFIX = b"}\n"


@dataclass(frozen=True)
class SolveCall:
    """One scheduled request: its pre-encoded head and its pool instance."""

    rid: str
    instance: int
    algorithm: str
    seed: int
    head: bytes

    @property
    def cell(self) -> tuple[int, str, int]:
        return (self.instance, self.algorithm, self.seed)


@dataclass(frozen=True)
class SolveMixInputs:
    instances: tuple[Hypergraph, ...]
    #: ``json`` of each instance object, spliced after a request head.
    payloads: tuple[bytes, ...]
    warmup: tuple[SolveCall, ...]
    calls: tuple[SolveCall, ...]

    def frame(self, call: SolveCall) -> bytes:
        return call.head + self.payloads[call.instance] + FRAME_SUFFIX


def _solve_call(rid: str, instance: int, algorithm: str, seed: int) -> SolveCall:
    head = json.dumps({"id": rid, "algorithm": algorithm, "seed": seed}, separators=(",", ":"))
    return SolveCall(rid, instance, algorithm, seed, head[:-1].encode() + b',"instance":')


def solve_mix_inputs(seed: int, n_calls: int) -> SolveMixInputs:
    """The instance pool and a request schedule of *n_calls* requests."""
    pool_rng = np.random.default_rng(POOL_SEED)
    instances = [
        build(int(pool_rng.integers(2**31)))
        for _, build in SOLVE_SHAPES
        for _ in range(INSTANCES_PER_SHAPE)
    ]
    payloads = tuple(
        json.dumps(encode_instance(H), separators=(",", ":")).encode() for H in instances
    )
    warmup = tuple(
        _solve_call(f"w{i}-{a}", i, a, 2**31 + i)
        for i in range(len(instances))
        for a in sorted(set(SOLVE_ALGORITHMS))
    )
    rng = np.random.default_rng([seed, 1])
    fresh_slots = [(i, a) for i in range(len(instances)) for a in SOLVE_ALGORITHMS]
    cells: list[tuple[int, str, int]] = []
    while len(cells) < n_calls:
        block: list[tuple[int, str, int] | None] = [
            (i, a, int(rng.integers(2**31))) for i, a in fresh_slots
        ] + [None] * REPEATS_PER_BLOCK
        for k in rng.permutation(len(block)):
            cell = block[k]
            if cell is None:  # a repeat of one of the last REPEAT_WINDOW cells
                if not cells:
                    continue
                lo = max(0, len(cells) - REPEAT_WINDOW)
                cell = cells[int(rng.integers(lo, len(cells)))]
            cells.append(cell)
    calls = tuple(_solve_call(f"r{k}", *cell) for k, cell in enumerate(cells[:n_calls]))
    out = SolveMixInputs(tuple(instances), payloads, warmup, calls)
    longest = max(len(out.frame(c)) for c in out.warmup)
    if longest >= MAX_FRAME:
        raise ValueError(f"a {longest}-byte request exceeds the {MAX_FRAME}-byte line limit")
    return out


# ---------------------------------------------------------------------------
# stream-churn
# ---------------------------------------------------------------------------
#: The m04 sharded instance: 600 shards x 16 vertices x 30 edges, d = 3.
SHARDS, SHARD_N, SHARD_M, DIM = 600, 16, 30, 3
BATCH_EVENTS = 8
#: Share of all events that are dup/superset injections (arrivals only).
ADVERSARIAL_FRACTION = 0.1
ZIPF_EXPONENT = 1.1
_FRESH_TRIES = 8


@dataclass(frozen=True)
class StreamInputs:
    H: Hypergraph
    batches: tuple[tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]], ...]
    engine_seed: int


def stream_inputs(seed: int, steps: int) -> StreamInputs:
    """The sharded start instance and *steps* batches of per-shard churn.

    Each event stays inside one shard, so shards never merge into a giant
    component and step cost is stationary.  Shards are drawn from a Zipf
    law over a seed-shuffled order (a few hot shards).  Arrival versus
    departure leans toward the shard's starting edge count, which keeps
    every shard's size mean-reverting around ``SHARD_M``: about half the
    events arrive and half depart.

    Injections start from a base-dimension edge, so supersets have size
    ``DIM + 1`` and never chain into ever larger edges.  Chained supersets
    reach size 5, which at this universe no longer packs into the 62-bit
    keys of ``apply_updates``' fast path; every later step then takes the
    lex-sort path and step cost drifts upward for the rest of the run.
    """
    rng = np.random.default_rng([seed, 2])
    H = sharded_hypergraph(SHARDS, SHARD_N, SHARD_M, DIM, seed=int(rng.integers(2**31)))
    present: list[list[tuple[int, ...]]] = [[] for _ in range(SHARDS)]
    for e in H.edges:
        present[e[0] // SHARD_N].append(e)
    members = [set(p) for p in present]
    weights = 1.0 / np.arange(1, SHARDS + 1) ** ZIPF_EXPONENT
    order = rng.permutation(SHARDS)
    shard_of_event = order[
        rng.choice(SHARDS, size=steps * BATCH_EVENTS, p=weights / weights.sum())
    ]
    adversarial_given_arrival = 2 * ADVERSARIAL_FRACTION

    def fresh(shard: int) -> tuple[int, ...]:
        base = shard * SHARD_N
        for _ in range(_FRESH_TRIES):
            e = tuple(sorted(int(v) + base for v in rng.choice(SHARD_N, DIM, replace=False)))
            if e not in members[shard]:
                break
        return e

    batches = []
    for step in range(steps):
        adds: list[tuple[int, ...]] = []
        removes: list[tuple[int, ...]] = []
        added: set[tuple[int, ...]] = set()
        for k in range(BATCH_EVENTS):
            shard = int(shard_of_event[step * BATCH_EVENTS + k])
            edges, have = present[shard], members[shard]
            removable = [e for e in edges if e not in added]
            p_arrival = min(0.9, max(0.1, 0.5 + 0.1 * (SHARD_M - len(edges))))
            if removable and rng.random() >= p_arrival:
                e = removable[int(rng.integers(len(removable)))]
                edges.remove(e)
                have.discard(e)
                removes.append(e)
                continue
            base_edges = [e for e in edges if len(e) == DIM]
            if base_edges and rng.random() < adversarial_given_arrival:
                e = base_edges[int(rng.integers(len(base_edges)))]
                if rng.random() < 0.5:
                    adds.append(e)  # dup: a structural no-op
                    continue
                spare = [v for v in range(shard * SHARD_N, (shard + 1) * SHARD_N) if v not in e]
                e = tuple(sorted(e + (spare[int(rng.integers(len(spare)))],)))  # superset
            else:
                e = fresh(shard)
            adds.append(e)
            if e not in have:
                edges.append(e)
                have.add(e)
                added.add(e)
        batches.append((tuple(adds), tuple(removes)))
    return StreamInputs(H, tuple(batches), int(rng.integers(2**31)))


# ---------------------------------------------------------------------------
# campaign-general
# ---------------------------------------------------------------------------
#: Theorem 1's regime: m ~ n^beta edges, a tenth of size ~sqrt(n), so
#: the dimension is 16-45 and the top level runs on CSR.
CAMPAIGN_N = (512, 1024, 2048)
CAMPAIGN_REPEATS = 2


def sbl_practical(H: Hypergraph, seed, *, machine=None):
    """SBL with the E02 experiment's practical sampling parameters.

    ``p = n^(-1/3)``, sampled dimension capped at 4 and the BL floor at
    ``ceil(p^-2)``.  The solver is looked up on its module at call time,
    so a wrapper installed there sees these calls too.
    """
    p = H.num_vertices ** (-1.0 / 3.0)
    solver = importlib.import_module("repro.core.sbl").sbl
    return solver(
        H, seed, machine=machine, p_override=p, d_cap_override=4,
        floor_override=math.ceil(p**-2.0),
    )


def campaign_grid() -> Campaign:
    """3 instance sizes x {sbl, sbl-practical, kuw} x repeats.

    The solvers are read from their modules now, so a grid built while
    timing wrappers are installed ships the wrapped names to workers.
    """
    sbl = importlib.import_module("repro.core.sbl").sbl
    kuw = importlib.import_module("repro.core.kuw").karp_upfal_wigderson
    return Campaign(
        instances=[
            InstanceSpec(f"theorem1-n{n}", bounded_edges_instance, {"n": n, "beta_fraction": 5.0})
            for n in CAMPAIGN_N
        ],
        algorithms=[
            AlgorithmSpec("sbl", sbl),
            AlgorithmSpec("sbl-practical", sbl_practical),
            AlgorithmSpec("kuw", kuw),
        ],
        repeats=CAMPAIGN_REPEATS,
    )


def campaign_seeds(seed: int, passes: int) -> tuple[int, ...]:
    """One fresh campaign seed per grid pass."""
    return tuple(int(s) for s in np.random.default_rng([seed, 3]).integers(2**31, size=passes))
