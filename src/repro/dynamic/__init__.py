"""Incremental MIS maintenance under edge streams.

The one-shot solvers in :mod:`repro.core` answer "what is an MIS of H?";
this package answers "H just changed — what is an MIS *now*?" without
paying for a full re-solve when the change is small:

* :mod:`repro.dynamic.engine` — :class:`DynamicMIS`, the repair engine:
  localize the update's dirty region to whole connected components,
  re-solve only those (greedy along a global priority order, so the
  repaired answer is *bit-identical* to recompute-from-scratch), splice,
  and certify against the updated hypergraph.
  Each batch is routed to repair or recompute by
  :func:`~repro.dynamic.engine.decide_strategy`, which compares its
  delta fraction with one constant crossover.

The batch-update primitive itself —
:func:`repro.hypergraph.updates.apply_updates` with its exact structural
diff and content-hash chaining — lives on the hypergraph layer so
non-dynamic callers (caches, the service) can reuse it.
"""

from repro.dynamic.engine import (
    STATIC_CROSSOVER_FRACTION,
    DynamicMIS,
    StrategyDecision,
    UpdateOutcome,
    decide_strategy,
    delta_band,
)

__all__ = [
    "DynamicMIS",
    "UpdateOutcome",
    "StrategyDecision",
    "decide_strategy",
    "delta_band",
    "STATIC_CROSSOVER_FRACTION",
]
