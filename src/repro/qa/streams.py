"""Stream-updates fuzz family: metamorphic checks for the dynamic engine.

A stream case is a starting hypergraph plus a deterministic sequence of
update batches (synthesised by :func:`repro.generators.churn_stream`,
carried JSON-ably in the case params so reproducers can replay without
regenerating).  The battery drives :class:`repro.dynamic.DynamicMIS`
through the whole sequence and checks the engine's contract:

* **certificate** — every intermediate state is validated by the engine
  itself (``validate=True``), and the final ``(H, I)`` passes
  :func:`check_mis` once more from the outside;
* **incremental-recompute** — the maintained set is *bit-identical* to
  the pinned recompute (full greedy along the engine's priority order on
  the final hypergraph);
* **strategy-identity** / **chain-identity** — forced repair, forced
  recompute and auto dispatch all land on the same set and the same
  content-hash chain;
* **backend-identity** — on dense-capable starts, replaying the stream
  under each forced ``REPRO_KERNEL`` backend yields the same final set.

Failing sequences are delta-debugged by :func:`shrink_steps` (ddmin over
batches, then over the events inside each batch) before being pinned as
reproducers; replays run with ``strict=False`` so shrunk sequences —
whose removals may now target absent edges — stay well-formed.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.validate import check_mis
from repro.kernels import use_kernel
from repro.kernels.dispatch import dense_capable
from repro.qa.differential import Failure

__all__ = [
    "Steps",
    "decode_steps",
    "encode_steps",
    "steps_from_params",
    "run_stream_battery",
    "make_stream_predicate",
    "shrink_steps",
]

Edge = tuple[int, ...]
#: One batch = (arrivals, departures); a case is a sequence of batches.
Steps = list[tuple[list[Edge], list[Edge]]]

#: Forced backends for the identity sweep (mirrors the differential
#: battery's bl-csr/bl-bitset subjects).
_BACKENDS = ("csr", "bitset")


def encode_steps(steps: Sequence[tuple[Sequence[Edge], Sequence[Edge]]]) -> list:
    """JSON-able form of an update sequence (lists all the way down)."""
    return [
        [[list(e) for e in adds], [list(e) for e in removes]]
        for adds, removes in steps
    ]


def decode_steps(raw: Sequence) -> Steps:
    """Inverse of :func:`encode_steps` (tuples all the way down)."""
    return [
        (
            [tuple(int(v) for v in e) for e in adds],
            [tuple(int(v) for v in e) for e in removes],
        )
        for adds, removes in raw
    ]


def steps_from_params(params: dict) -> Steps:
    """Extract the update sequence a stream case carries in its params."""
    return decode_steps(params["stream"]["steps"])


def _drive(
    H: Hypergraph, steps: Steps, engine_seed: int, strategy: str
):  # -> DynamicMIS (import deferred to avoid qa -> dynamic at module load)
    from repro.dynamic import DynamicMIS

    engine = DynamicMIS(H, seed=engine_seed, strategy=strategy, validate=True)
    for adds, removes in steps:
        engine.apply(adds, removes, strict=False)
    check_mis(engine.hypergraph, engine.independent_set)
    return engine


def run_stream_battery(
    H: Hypergraph, steps: Steps, engine_seed: int
) -> list[Failure]:
    """Run every stream check; returns the failures (empty = clean)."""
    failures: list[Failure] = []
    engines = {}
    for strategy in ("auto", "repair", "recompute"):
        try:
            engines[strategy] = _drive(H, steps, engine_seed, strategy)
        except Exception as exc:  # noqa: BLE001 — any crash is a finding
            failures.append(
                Failure(
                    f"dynamic-{strategy}",
                    "exception",
                    f"{type(exc).__name__}: {exc}",
                )
            )
    auto = engines.get("auto")
    if auto is None:
        return failures

    reference = auto.recompute_reference()
    if not np.array_equal(auto.independent_set, reference):
        failures.append(
            Failure(
                "dynamic-auto",
                "incremental-recompute",
                f"maintained |I|={auto.independent_set.size} differs from "
                f"pinned recompute |I|={reference.size} after "
                f"{len(steps)} batches",
            )
        )
    for strategy, engine in engines.items():
        if strategy == "auto":
            continue
        if not np.array_equal(engine.independent_set, auto.independent_set):
            failures.append(
                Failure(
                    f"dynamic-{strategy}",
                    "strategy-identity",
                    f"forced {strategy} produced a different set than auto "
                    f"(|I| {engine.independent_set.size} vs "
                    f"{auto.independent_set.size})",
                )
            )
        if engine.chain != auto.chain:
            failures.append(
                Failure(
                    f"dynamic-{strategy}",
                    "chain-identity",
                    f"hash chain diverged: {engine.chain[:12]}… vs "
                    f"{auto.chain[:12]}…",
                )
            )

    if dense_capable(H):
        for kernel in _BACKENDS:
            try:
                with use_kernel(kernel):
                    engine = _drive(H, steps, engine_seed, "auto")
            except Exception as exc:  # noqa: BLE001 — any crash is a finding
                failures.append(
                    Failure(
                        f"dynamic-{kernel}",
                        "exception",
                        f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            if not np.array_equal(engine.independent_set, auto.independent_set):
                failures.append(
                    Failure(
                        f"dynamic-{kernel}",
                        "backend-identity",
                        f"final set under forced {kernel} differs from auto "
                        f"dispatch (|I| {engine.independent_set.size} vs "
                        f"{auto.independent_set.size})",
                    )
                )
    return failures


def make_stream_predicate(
    H: Hypergraph, engine_seed: int
) -> Callable[[Steps], bool]:
    """The shrink predicate: does this update sequence still fail?"""

    def fails(steps: Steps) -> bool:
        return bool(run_stream_battery(H, steps, engine_seed))

    return fails


def shrink_steps(
    H: Hypergraph,
    steps: Steps,
    fails: Callable[[Steps], bool],
    *,
    max_evals: int = 400,
) -> tuple[Steps, int]:
    """ddmin an update sequence while the failure persists.

    First removes whole batches at halving granularity, then drops single
    events (arrivals/departures) inside the surviving batches.  Returns
    ``(minimised steps, predicate evaluations)``.  Raises ``ValueError``
    when the input sequence does not fail — shrinking a passing sequence
    is caller error.
    """
    evals = 0

    def check(candidate: Steps) -> bool:
        nonlocal evals
        if evals >= max_evals:
            return False
        evals += 1
        try:
            return bool(fails(candidate))
        except Exception:  # noqa: BLE001 — a predicate crash is not a repro
            return False

    if not check(steps):
        raise ValueError("update sequence does not fail the predicate")

    # Batch-level ddmin (complement loop, halving granularity).
    current = list(steps)
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        removed_any = False
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + chunk :]
            if candidate != current and check(candidate):
                current = candidate
                removed_any = True
            else:
                start += chunk
        if removed_any:
            granularity = max(granularity - 1, 2)
        elif chunk == 1:
            break
        else:
            granularity = min(granularity * 2, len(current))

    # Event-level: drop single arrivals/departures while still failing.
    changed = True
    while changed and evals < max_evals:
        changed = False
        for i, (adds, removes) in enumerate(current):
            for kind, events in (("add", adds), ("remove", removes)):
                for j in range(len(events)):
                    new_adds = adds[:j] + adds[j + 1 :] if kind == "add" else adds
                    new_removes = (
                        removes[:j] + removes[j + 1 :] if kind == "remove" else removes
                    )
                    candidate = (
                        current[:i]
                        + [(new_adds, new_removes)]
                        + current[i + 1 :]
                    )
                    if check(candidate):
                        current = candidate
                        changed = True
                        break
                if changed:
                    break
            if changed:
                break
    # Empty batches left behind by event dropping are themselves droppable.
    pruned = [b for b in current if b[0] or b[1]]
    if pruned != current and check(pruned):
        current = pruned
    return current, evals
