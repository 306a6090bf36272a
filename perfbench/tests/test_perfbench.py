"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

Generators are deterministic per seed, the timing wrappers put every
original back, a planted busy-spin in one layer shows up in that layer
and in the end-to-end latency it should move, and a checkout without the
program fails loudly instead of printing a result.
"""

from __future__ import annotations

import contextlib
import importlib
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from perfbench import campaign_general, gen, serve, stream_churn
from perfbench.ledger import Patch, Recorder, Target

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------
def test_solve_mix_inputs_are_deterministic():
    a, b = gen.solve_mix_inputs(5, 300), gen.solve_mix_inputs(5, 300)
    assert a.payloads == b.payloads and a.calls == b.calls and a.warmup == b.warmup
    other = gen.solve_mix_inputs(6, 300)
    assert other.payloads == a.payloads  # one fixed pool; the seed draws the schedule
    assert other.calls != a.calls


def test_solve_mix_schedule_shape():
    inputs = gen.solve_mix_inputs(5, 2000)
    assert max(len(inputs.frame(c)) for c in inputs.calls) < gen.MAX_FRAME
    cells = [c.cell for c in inputs.calls]
    repeated = sum(1 for i, c in enumerate(cells) if c in set(cells[:i]))
    assert 0.15 < repeated / len(cells) < 0.25
    share = {
        a: sum(c.algorithm == a for c in inputs.calls) / len(cells) for a in ("sbl", "bl", "kuw")
    }
    assert 0.45 < share["sbl"] < 0.55 and 0.2 < share["bl"] < 0.3 and 0.2 < share["kuw"] < 0.3
    ids = [c.rid for c in inputs.calls]
    assert len(set(ids)) == len(ids)


def test_stream_inputs_are_deterministic_and_per_shard():
    a, b = gen.stream_inputs(5, 120), gen.stream_inputs(5, 120)
    assert a.H == b.H and a.batches == b.batches and a.engine_seed == b.engine_seed
    assert gen.stream_inputs(6, 120).batches != a.batches
    for adds, removes in a.batches:
        assert len(adds) + len(removes) == gen.BATCH_EVENTS
        for e in adds + removes:
            assert len({v // gen.SHARD_N for v in e}) == 1
            assert len(e) in (gen.DIM, gen.DIM + 1)


def test_stream_replays_strictly_to_the_reference_state():
    from repro.dynamic import DynamicMIS

    inputs = gen.stream_inputs(7, 150)
    engine = DynamicMIS(inputs.H, seed=inputs.engine_seed, strategy="auto", validate=True)
    for adds, removes in inputs.batches:
        assert engine.apply(adds, removes).certified
    assert (engine.independent_set == engine.recompute_reference()).all()
    H = engine.hypergraph
    assert max(len(e) for e in H.edges) <= gen.DIM + 1


def test_campaign_grid_and_seeds_are_deterministic():
    assert gen.campaign_seeds(3, 10) == gen.campaign_seeds(3, 10)
    assert gen.campaign_seeds(3, 10) != gen.campaign_seeds(4, 10)
    grid = gen.campaign_grid()
    assert [s.name for s in grid.algorithms] == ["sbl", "sbl-practical", "kuw"]
    H = grid.instances[0].build(11)
    assert H == grid.instances[0].build(11) and H.dimension > 8


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------
def _all_targets() -> list[Target]:
    return (
        stream_churn.targets()
        + serve.targets()
        + campaign_general.parent_targets()
        + campaign_general.worker_targets()
    )


def _originals(targets):
    return [vars(t.owner)[t.attr] for t in targets]


def test_patch_restores_every_original():
    targets = _all_targets()
    # A name wrapped under two layers (content_hash) must come back once.
    unique = list({(id(t.owner), t.attr): t for t in targets}.values())
    before = _originals(unique)
    with Patch(Recorder(), unique):
        assert all(vars(t.owner)[t.attr] is not o for t, o in zip(unique, before))
    assert all(vars(t.owner)[t.attr] is o for t, o in zip(unique, before))


def test_patch_restores_after_an_error():
    targets = stream_churn.targets()
    before = _originals(targets)
    with pytest.raises(RuntimeError):
        with Patch(Recorder(), targets):
            raise RuntimeError("boom")
    assert all(vars(t.owner)[t.attr] is o for t, o in zip(targets, before))


def test_patch_refuses_a_missing_attribute():
    engine = importlib.import_module("repro.dynamic.engine")
    before = vars(engine)["check_mis"]
    with pytest.raises(AttributeError):
        with Patch(Recorder(), [Target(engine, "check_mis", "x"), Target(engine, "nope", "y")]):
            pass
    assert vars(engine)["check_mis"] is before


def test_self_times_add_up_to_the_outer_span():
    ns = types.SimpleNamespace()

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.005)
        ns.inner()

    ns.inner, ns.outer = inner, outer
    rec = Recorder()
    with Patch(rec, [Target(ns, "inner", "inner"), Target(ns, "outer", "outer")]):
        ns.outer()
    assert ns.inner is inner and ns.outer is outer
    first, second = rec.spans
    assert (first.name, second.name) == ("inner", "outer")
    assert first.self_ns == first.dur_ns
    assert second.self_ns + first.dur_ns == second.dur_ns
    assert second.self_ns >= 4_000_000


# ---------------------------------------------------------------------------
# planted slowdown
# ---------------------------------------------------------------------------
SPIN_S = 0.005


@contextlib.contextmanager
def planted_check_mis(delay_s: float):
    """Busy-spin for *delay_s* inside every certificate the engine runs."""
    engine = importlib.import_module("repro.dynamic.engine")
    original = engine.check_mis

    def slow_check_mis(H, members):
        original(H, members)
        end = time.perf_counter_ns() + int(delay_s * 1e9)
        while time.perf_counter_ns() < end:
            pass

    engine.check_mis = slow_check_mis
    try:
        yield
    finally:
        engine.check_mis = original


@pytest.mark.slow
def test_planted_spin_lands_in_its_layer_and_the_predicted_latency():
    base_e2e = stream_churn.run(3, 3.0, trace=False)
    base = stream_churn.run(3, 3.0, trace=True)
    with planted_check_mis(SPIN_S):
        slow_e2e = stream_churn.run(3, 3.0, trace=False)
        slow = stream_churn.run(3, 3.0, trace=True)
    spin_ms = SPIN_S * 1e3
    for r in (base_e2e, base, slow_e2e, slow):
        assert r.correct and r.failed == 0
    layer = slow.metrics["validate.check_mis_ms_p50"] - base.metrics["validate.check_mis_ms_p50"]
    assert 0.8 * spin_ms < layer < 1.6 * spin_ms
    latency = slow_e2e.metrics["latency_p50_ms"] - base_e2e.metrics["latency_p50_ms"]
    assert latency > 0.6 * spin_ms
    # The other layers did not absorb it, and nothing went unattributed.
    for name in ("hypergraph.updates.apply_ms_p50", "core.greedy_ms_p50"):
        assert slow.metrics[name] < base.metrics[name] + 0.5 * spin_ms
    unattributed = [r.metrics["trace.unattributed_frac"] for r in (base, slow)]
    assert abs(unattributed[1] - unattributed[0]) < 0.01
    assert slow.metrics["trace.unattributed_frac"] < 0.01


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------
def test_fails_without_the_program(tmp_path):
    ignore = shutil.ignore_patterns(".out", "__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
