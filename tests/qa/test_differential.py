"""Differential harness: clean instances pass, planted faults are caught."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hypergraph import Hypergraph
from repro.qa import applicable_solvers, generate_case, make_predicate, run_case
from repro.qa.faults import (
    break_independence_above,
    drop_maximality_above,
    nondeterministic,
)


class TestApplicability:
    def test_all_subjects_on_a_graph(self, triangle):
        names = {s.name for s in applicable_solvers(triangle)}
        assert names == {
            "sbl", "bl", "kuw", "greedy", "permutation", "luby", "linear",
            "bl-csr", "bl-bitset",
        }

    def test_luby_and_linear_drop_out(self, small_mixed):
        names = {s.name for s in applicable_solvers(small_mixed)}
        assert "luby" not in names  # not 2-uniform
        assert {"sbl", "bl", "kuw", "greedy", "permutation"} <= names

    def test_unknown_solver_name_raises(self, triangle):
        with pytest.raises(ValueError, match="unknown solver"):
            applicable_solvers(triangle, ["sbl", "nope"])


class TestCleanInstances:
    @pytest.mark.parametrize("index", range(10))
    def test_first_rotation_window_is_clean(self, index):
        case = generate_case(0, index)
        failures = run_case(
            case.hypergraph,
            case.solver_seed,
            focus_index=case.index,
            certificate=case.certificate,
        )
        assert failures == [], [str(f) for f in failures]

    def test_fixture_instances_are_clean(self, small_mixed, edgeless):
        for H in (small_mixed, edgeless):
            for focus in range(5):
                assert run_case(H, 3, focus_index=focus) == []


class TestFaultDetection:
    def test_maximality_fault_is_caught(self, small_mixed):
        failures = run_case(
            small_mixed,
            0,
            extra_solvers={"buggy": drop_maximality_above(0)},
            metamorphic=False,
            oracle=False,
        )
        assert any(f.solver == "buggy" and f.check == "maximality" for f in failures)

    def test_independence_fault_is_caught(self, small_mixed):
        failures = run_case(
            small_mixed,
            0,
            extra_solvers={"buggy": break_independence_above(0)},
            metamorphic=False,
            oracle=False,
        )
        kinds = {(f.solver, f.check) for f in failures}
        assert ("buggy", "independence") in kinds
        # The pure-Python reference must independently agree.
        assert ("buggy", "reference") in kinds

    def test_bad_certificate_is_caught(self, small_mixed):
        # {0, 1, 2} contains the edge (0, 1, 2): not independent.
        failures = run_case(
            small_mixed,
            0,
            certificate=np.array([0, 1, 2]),
            metamorphic=False,
            oracle=False,
        )
        assert any(
            f.solver == "planted" and f.check == "certificate-independence"
            for f in failures
        )

    def test_nondeterministic_solver_is_caught(self):
        # A path graph long enough that the scan order matters.
        H = Hypergraph(9, [(i, i + 1) for i in range(8)])
        flaky = nondeterministic()
        # focus the extra solver: it is appended after the applicable
        # library subjects.
        failures = run_case(
            H,
            12,
            extra_solvers={"flaky": flaky},
            focus_index=len(applicable_solvers(H)),
            metamorphic=True,
            oracle=False,
        )
        assert any(f.solver == "flaky" and f.check == "determinism" for f in failures)

    def test_exception_is_a_finding(self, small_mixed):
        def crashing(H, seed=None, **kwargs):
            raise RuntimeError("boom")

        failures = run_case(
            small_mixed,
            0,
            extra_solvers={"crash": crashing},
            metamorphic=False,
            oracle=False,
        )
        assert any(
            f.solver == "crash" and f.check == "exception" and "boom" in f.detail
            for f in failures
        )

    def test_max_failures_caps_the_report(self, small_mixed):
        failures = run_case(
            small_mixed,
            0,
            extra_solvers={
                f"buggy{i}": drop_maximality_above(0) for i in range(6)
            },
            metamorphic=False,
            oracle=False,
            max_failures=3,
        )
        assert len(failures) == 3


class TestPredicate:
    def test_predicate_tracks_the_fault_trigger(self, small_mixed):
        fails = make_predicate(
            0, extra_solvers={"buggy": drop_maximality_above(4)}
        )
        assert fails(small_mixed)  # 6 edges > 4: triggers
        small = Hypergraph(3, [(0, 1)])
        assert not fails(small)  # 1 edge: healthy path

    def test_predicate_is_false_on_clean_instances(self, small_mixed):
        assert not make_predicate(0)(small_mixed)
