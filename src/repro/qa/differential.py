"""Differential harness: all solvers, one instance, every oracle we have.

For each instance the harness runs every *applicable* solver (Luby needs
2-uniform input, the linear specialisation needs a linear hypergraph) and
checks each result three independent ways:

1. **Structural validator** — :func:`repro.hypergraph.validate.check_mis`
   (sparse-matvec implementation of the definitions).
2. **Pure-Python reference** — the per-edge loop
   :func:`repro.core.reference.reference_fully_marked_edges` must find no
   edge inside the returned set (catches bugs shared by the vectorised
   validator and the vectorised solvers).
3. **Independence oracle** — :func:`repro.core.oracle.oracle_certify_mis`
   re-derives independence *and* maximality through counted oracle
   queries only (the KUW §1 model), a third disjoint code path.

On top of per-solver validation the harness checks **metamorphic
invariants** with a rotating focus solver:

* *determinism* — same seed, same instance, bit-identical output;
* *edge-order independence* — a shuffled edge presentation canonicalises
  to an equal instance and yields bit-identical output;
* *relabeling* — solving under a universe permutation and mapping back
  yields a valid MIS of the original;
* *component split* — per-component solutions union to a valid MIS;
* *component merge* — each side of a solved disjoint self-union restricts
  to a valid MIS of the original.

And it additionally runs the oracle-driven KUW (`kuw_oracle`) as an
eighth subject, plus the case certificate (planted MIS) when present.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.core import (
    beame_luby,
    greedy_mis,
    is_linear,
    karp_upfal_wigderson,
    linear_hypergraph_mis,
    luby_mis,
    permutation_bl,
    sbl,
)
from repro.core.oracle import IndependenceOracle, kuw_oracle, oracle_certify_mis
from repro.core.reference import reference_fully_marked_edges
from repro.hypergraph.components import connected_components, num_components
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.validate import (
    IndependenceViolation,
    MaximalityViolation,
    check_mis,
)
from repro.kernels import VALID_KERNELS, use_kernel
from repro.kernels.dispatch import dense_capable
from repro.qa.mutations import disjoint_union, relabel_vertices, shuffle_edge_order
from repro.util.rng import SeedLike

__all__ = [
    "Failure",
    "SolverSpec",
    "SOLVERS",
    "applicable_solvers",
    "run_case",
    "make_predicate",
]


@dataclass(frozen=True)
class Failure:
    """One differential check that did not hold.

    ``check`` is the invariant that broke (``independence``,
    ``maximality``, ``reference``, ``oracle``, ``determinism``,
    ``canonicalisation``, ``edge-order``, ``relabel``,
    ``component-split``, ``component-merge``, ``certificate``,
    ``backend-identity``, ``backend``, ``exception``); ``solver`` is the
    subject under test.
    """

    solver: str
    check: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.solver}/{self.check}] {self.detail}"


@dataclass(frozen=True)
class SolverSpec:
    """A differential subject: the callable plus its applicability test."""

    name: str
    fn: Callable
    applicable: Callable[[Hypergraph], bool]


def _always(_: Hypergraph) -> bool:
    return True


def _two_uniform(H: Hypergraph) -> bool:
    return all(len(e) == 2 for e in H.edges)


def _forced_kernel(fn: Callable, kernel: str) -> Callable:
    """Wrap a solver so every call runs under a pinned kernel backend."""

    def solve(H: Hypergraph, *args, **kwargs):
        with use_kernel(kernel):
            return fn(H, *args, **kwargs)

    return solve


#: The seven library solvers under differential test, plus one pinned-backend
#: BL subject per kernel (on dense-capable instances they exercise different
#: engines; the ``backend`` metamorphic check requires them bit-identical).
SOLVERS: tuple[SolverSpec, ...] = (
    SolverSpec("sbl", sbl, _always),
    SolverSpec("bl", beame_luby, _always),
    SolverSpec("kuw", karp_upfal_wigderson, _always),
    SolverSpec("greedy", greedy_mis, _always),
    SolverSpec("permutation", permutation_bl, _always),
    SolverSpec("luby", luby_mis, _two_uniform),
    SolverSpec("linear", linear_hypergraph_mis, is_linear),
    SolverSpec("bl-csr", _forced_kernel(beame_luby, "csr"), dense_capable),
    SolverSpec("bl-bitset", _forced_kernel(beame_luby, "bitset"), dense_capable),
)

_BY_NAME: Mapping[str, SolverSpec] = {s.name: s for s in SOLVERS}


def applicable_solvers(
    H: Hypergraph, names: list[str] | None = None
) -> list[SolverSpec]:
    """The subset of *names* (default: all seven) applicable to *H*."""
    specs = SOLVERS if names is None else tuple(_resolve(n) for n in names)
    return [s for s in specs if s.applicable(H)]


def _resolve(name: str) -> SolverSpec:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown solver {name!r}; known: {sorted(_BY_NAME)}") from None


def _solve(spec: SolverSpec, H: Hypergraph, seed: SeedLike) -> np.ndarray:
    result = spec.fn(H, seed=seed, trace=False)
    return np.asarray(result.independent_set, dtype=np.intp)


def _validate(
    H: Hypergraph, members: np.ndarray, solver: str, check_prefix: str = ""
) -> list[Failure]:
    """Structural validator + pure-Python reference, as failure records."""
    failures: list[Failure] = []
    try:
        check_mis(H, members)
    except IndependenceViolation as exc:
        failures.append(Failure(solver, check_prefix + "independence", str(exc)))
    except MaximalityViolation as exc:
        failures.append(Failure(solver, check_prefix + "maximality", str(exc)))
    inside = reference_fully_marked_edges(H, set(members.tolist()))
    if inside:
        failures.append(
            Failure(
                solver,
                check_prefix + "reference",
                f"pure-Python reference found contained edges {inside[:3]}",
            )
        )
    return failures


def run_case(
    H: Hypergraph,
    seed: SeedLike,
    *,
    solvers: list[str] | None = None,
    extra_solvers: Mapping[str, Callable] | None = None,
    focus_index: int = 0,
    metamorphic: bool = True,
    oracle: bool = True,
    certificate: np.ndarray | None = None,
    max_failures: int = 10,
) -> list[Failure]:
    """Run the full differential check battery on one instance.

    Parameters
    ----------
    H, seed:
        The instance and the solver seed (every solve in the battery uses
        the same seed, so a report is replayable from ``(H, seed)``).
    solvers:
        Solver-name subset (default: all seven).
    extra_solvers:
        Additional ``name -> callable`` subjects (assumed applicable to
        every instance) — the hook fault-injection tests and downstream
        users plug experimental solvers into.
    focus_index:
        Selects the solver that undergoes the expensive metamorphic
        battery (rotated by the engine across cases: ``case.index``).
    metamorphic, oracle:
        Toggle the invariant groups (both on in production fuzzing).
    certificate:
        A known-valid MIS of *H* (planted instances) to validate as well.
    max_failures:
        Stop collecting after this many failures.

    Returns
    -------
    list[Failure]
        Empty when every check held.
    """
    failures: list[Failure] = []
    specs = applicable_solvers(H, solvers)
    if extra_solvers:
        specs = specs + [SolverSpec(n, fn, _always) for n, fn in extra_solvers.items()]
    results: dict[str, np.ndarray] = {}

    if certificate is not None:
        failures += _validate(
            H, np.asarray(certificate, dtype=np.intp), "planted", "certificate-"
        )

    for spec in specs:
        if len(failures) >= max_failures:
            return failures[:max_failures]
        try:
            members = _solve(spec, H, seed)
        except Exception as exc:  # noqa: BLE001 — any crash is a finding
            failures.append(
                Failure(spec.name, "exception", f"{type(exc).__name__}: {exc}")
            )
            continue
        results[spec.name] = members
        failures += _validate(H, members, spec.name)

    # Dispatch contract: every BL kernel backend is bit-identical per seed.
    ref = results.get("bl-csr")
    if ref is not None:
        for name in ("bl", "bl-bitset"):
            other = results.get(name)
            if other is not None and not np.array_equal(ref, other):
                failures.append(
                    Failure(
                        name,
                        "backend-identity",
                        f"diverges from bl-csr: {other.tolist()[:6]} vs "
                        f"{ref.tolist()[:6]}",
                    )
                )

    if oracle and len(failures) < max_failures:
        try:
            res = kuw_oracle(IndependenceOracle(H), seed=seed, trace=False)
            failures += _validate(H, np.asarray(res.independent_set), "kuw-oracle")
        except Exception as exc:  # noqa: BLE001
            failures.append(
                Failure("kuw-oracle", "exception", f"{type(exc).__name__}: {exc}")
            )

    focus: SolverSpec | None = None
    if specs:
        focus = specs[focus_index % len(specs)]
    if focus is not None and focus.name in results:
        base = results[focus.name]
        if oracle and len(failures) < max_failures:
            cert = oracle_certify_mis(H, base)
            if not (cert["independent"] and cert["maximal"]):
                failures.append(
                    Failure(
                        focus.name,
                        "oracle",
                        f"oracle refutes result: {cert['independent']=} "
                        f"{cert['maximal']=} addable={cert['addable'][:3]}",
                    )
                )
        if metamorphic and len(failures) < max_failures:
            failures += _metamorphic(H, seed, focus, base, max_failures - len(failures))
    return failures[:max_failures]


def _metamorphic(
    H: Hypergraph,
    seed: SeedLike,
    focus: SolverSpec,
    base: np.ndarray,
    budget: int,
) -> list[Failure]:
    failures: list[Failure] = []

    def done() -> bool:
        return len(failures) >= budget

    # Determinism: the same seed must reproduce the run bit-for-bit.
    rerun = _try(failures, focus, "determinism", lambda: _solve(focus, H, seed))
    if rerun is not None and not np.array_equal(rerun, base):
        failures.append(
            Failure(
                focus.name,
                "determinism",
                f"same seed, different sets: {base.tolist()[:6]}... vs "
                f"{rerun.tolist()[:6]}...",
            )
        )
    if done():
        return failures

    # Backend invariance: pinning any kernel must reproduce the ambient
    # dispatch result bit-for-bit.
    for kern in (k for k in VALID_KERNELS if k != "auto"):
        out = _try(
            failures,
            focus,
            "backend",
            lambda k=kern: np.asarray(
                _forced_kernel(focus.fn, k)(H, seed=seed, trace=False).independent_set,
                dtype=np.intp,
            ),
        )
        if out is not None and not np.array_equal(out, base):
            failures.append(
                Failure(
                    focus.name,
                    "backend",
                    f"kernel={kern} diverges from ambient dispatch",
                )
            )
        if done():
            return failures

    # Edge-order independence: a shuffled presentation canonicalises to an
    # equal instance and must therefore solve identically.
    H_shuffled = shuffle_edge_order(H, seed=(seed, "qa-shuffle"))
    if H_shuffled != H:
        failures.append(
            Failure(
                focus.name,
                "canonicalisation",
                "edge-order shuffle produced an unequal hypergraph",
            )
        )
    else:
        out = _try(failures, focus, "edge-order", lambda: _solve(focus, H_shuffled, seed))
        if out is not None and not np.array_equal(out, base):
            failures.append(
                Failure(
                    focus.name,
                    "edge-order",
                    "solver output depends on edge presentation order",
                )
            )
    if done():
        return failures

    # Relabeling: vertex ids carry no structure.
    H_pi, pi = relabel_vertices(H, seed=(seed, "qa-relabel"))
    out = _try(failures, focus, "relabel", lambda: _solve(focus, H_pi, seed))
    if out is not None:
        inv = np.argsort(pi)
        failures += [
            Failure(focus.name, "relabel", str(f))
            for f in _validate(H, inv[out], focus.name)
        ][: budget - len(failures)]
    if done():
        return failures

    # Component split: per-component solutions union to an MIS of the whole.
    if H.num_edges and num_components(H) > 1:
        parts: list[np.ndarray] = []
        ok = True
        for comp in connected_components(H):
            out = _try(failures, focus, "component-split", lambda c=comp: _solve(focus, c, seed))
            if out is None:
                ok = False
                break
            parts.append(out)
        if ok:
            union = np.unique(np.concatenate(parts)) if parts else np.empty(0, np.intp)
            failures += [
                Failure(focus.name, "component-split", f.detail)
                for f in _validate(H, union, focus.name)
            ][: budget - len(failures)]
    if done():
        return failures

    # Component merge: each side of a disjoint self-union restricts to an
    # MIS of the original (kept to small universes — it doubles the work).
    if H.universe and H.universe <= 64:
        doubled = disjoint_union(H, H)
        out = _try(failures, focus, "component-merge", lambda: _solve(focus, doubled, seed))
        if out is not None:
            left = out[out < H.universe]
            right = out[out >= H.universe] - H.universe
            for side, members in (("left", left), ("right", right)):
                failures += [
                    Failure(focus.name, "component-merge", f"{side} side: {f.detail}")
                    for f in _validate(H, members, focus.name)
                ][: budget - len(failures)]
    return failures


def _try(
    failures: list[Failure], focus: SolverSpec, check: str, thunk: Callable[[], np.ndarray]
) -> np.ndarray | None:
    try:
        return thunk()
    except Exception as exc:  # noqa: BLE001
        failures.append(
            Failure(focus.name, check, f"exception {type(exc).__name__}: {exc}")
        )
        return None


def make_predicate(
    seed: SeedLike,
    *,
    solvers: list[str] | None = None,
    extra_solvers: Mapping[str, Callable] | None = None,
    focus_index: int = 0,
    metamorphic: bool = False,
    oracle: bool = False,
) -> Callable[[Hypergraph], bool]:
    """A shrinker predicate: ``True`` iff the battery still fails on *H*.

    Metamorphic/oracle groups default **off** here: the shrinker calls
    the predicate hundreds of times and the per-solver validators are
    what pin the original failure; narrow the solver list to the failing
    subject for the fastest shrinks.
    """

    def fails(H: Hypergraph) -> bool:
        return bool(
            run_case(
                H,
                seed,
                solvers=solvers,
                extra_solvers=extra_solvers,
                focus_index=focus_index,
                metamorphic=metamorphic,
                oracle=oracle,
                max_failures=1,
            )
        )

    return fails
