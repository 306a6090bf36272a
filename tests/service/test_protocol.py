"""Wire protocol: parsing, validation errors, instance round-trips."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import uniform_hypergraph
from repro.hypergraph.hio import dumps as hio_dumps
from repro.hypergraph.hypergraph import Hypergraph
from repro.service.protocol import (
    ERROR_STATUSES,
    ProtocolError,
    SolveRequest,
    _decode_instance,
    decode_line,
    encode_instance,
    encode_line,
    error_response,
    ok_response,
    parse_solve_request,
)

_H = uniform_hypergraph(20, 30, 3, seed=3)
_ALGOS = ("bl", "sbl", "greedy")


def _doc(**over):
    doc = {"algorithm": "bl", "seed": 7, "instance": encode_instance(_H)}
    doc.update(over)
    return doc


class TestLineCodec:
    def test_round_trip(self):
        doc = {"op": "solve", "seed": 3, "nested": {"a": [1, 2]}}
        line = encode_line(doc)
        assert line.endswith(b"\n")
        assert decode_line(line) == doc

    def test_accepts_str_input(self):
        assert decode_line('{"a": 1}') == {"a": 1}

    @pytest.mark.parametrize("bad", [b"{not json}\n", b"[1, 2]\n", b'"just a string"\n'])
    def test_non_object_lines_rejected(self, bad):
        with pytest.raises(ProtocolError):
            decode_line(bad)

    def test_non_utf8_rejected(self):
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode_line(b"\xff\xfe{}\n")


class TestInstanceCodec:
    def test_object_round_trip(self):
        doc = encode_instance(_H)
        req = parse_solve_request(_doc(instance=doc), algorithms=_ALGOS)
        assert req.instance is not None
        assert req.instance.universe == _H.universe
        assert req.instance.content_hash() == _H.content_hash()

    def test_hio_text_accepted(self):
        req = parse_solve_request(_doc(instance=hio_dumps(_H)), algorithms=_ALGOS)
        assert req.instance is not None
        assert req.instance.content_hash() == _H.content_hash()

    def test_vertices_field_survives(self):
        sub = _H.induced(np.arange(10))
        doc = encode_instance(sub)
        assert "vertices" not in doc or doc["vertices"] == sub.vertices.tolist()
        req = parse_solve_request(_doc(instance=doc), algorithms=_ALGOS)
        assert req.instance is not None
        assert req.instance.content_hash() == sub.content_hash()

    @pytest.mark.parametrize(
        "bad",
        [{"edges": [[0, 1]]}, "not a hio document", 42, [1, 2, 3]],
    )
    def test_bad_instances_rejected(self, bad):
        with pytest.raises(ProtocolError):
            parse_solve_request(_doc(instance=bad), algorithms=_ALGOS)


def _per_element_decode(value):
    """The per-element object decoder the flat pass must agree with."""
    if "universe" not in value:
        raise ProtocolError("instance object needs a 'universe' field")
    try:
        return Hypergraph(
            int(value["universe"]),
            [tuple(int(v) for v in e) for e in value.get("edges", ())],
            vertices=value.get("vertices"),
        )
    except (TypeError, ValueError, IndexError) as exc:
        raise ProtocolError(f"bad instance object: {exc}") from exc


def _outcome(decode, value):
    try:
        H = decode(value)
    except Exception as exc:  # the exact type and text must agree
        return ("raised", type(exc).__name__, str(exc))
    return ("ok", H.content_hash())


_vertex = st.one_of(
    st.integers(-3, 14),
    st.floats(-2, 14, allow_nan=False),
    st.booleans(),
    st.sampled_from(["3", "x", "", " 4"]),
    st.lists(st.integers(0, 9), max_size=2),
    st.none(),
)
_edge = st.one_of(
    st.lists(st.integers(0, 11), max_size=5),
    st.lists(_vertex, max_size=5),
    st.just("12"),
    st.integers(0, 5),
)
# Plain in-range integer edges: the shape the flat pass takes.
_plain_edges = st.lists(st.lists(st.integers(0, 11), min_size=1, max_size=5), min_size=1, max_size=8)
_instance = st.fixed_dictionaries(
    {
        "universe": st.one_of(st.just(12), st.integers(-1, 12), st.just(12.7), st.just("9")),
        "edges": st.one_of(
            _plain_edges, _plain_edges, st.lists(_edge, max_size=8), st.just({}), st.just("01")
        ),
    },
    optional={"vertices": st.one_of(st.lists(st.integers(-1, 12), max_size=12), st.none())},
)


class TestFlatDecode:
    """The flat-pass decode accepts, rejects and hashes like the per-element one."""

    @settings(max_examples=400, deadline=None)
    @given(_instance)
    def test_matches_per_element_decoder(self, value):
        assert _outcome(_decode_instance, value) == _outcome(_per_element_decode, value)

    @pytest.mark.parametrize(
        "edges",
        [
            [[0, 1], [1.0, 2]],  # float
            [[0, 1], ["2", 3]],  # numeric string
            [[True, 2]],  # bool
            [[0, [1]]],  # nested list
            [[0, 1], []],  # empty edge
            [[-1, 2]],  # negative id
            [[0, 10]],  # out of range
            [[0, 10**30]],  # beyond int64
            [[2, 1, 1], [1, 2]],  # unsorted, repeated vertex, duplicate edge
        ],
    )
    def test_edge_cases_match(self, edges):
        value = {"universe": 10, "edges": edges}
        assert _outcome(_decode_instance, value) == _outcome(_per_element_decode, value)

    def test_pool_shapes_hash_identically(self):
        from repro.generators import mixed_dimension_hypergraph

        for H in (_H, mixed_dimension_hypergraph(300, 450, [2, 3, 4, 5], seed=1)):
            value = json.loads(json.dumps(encode_instance(H)))
            assert _decode_instance(value).content_hash() == H.content_hash()


class TestParseSolveRequest:
    def test_happy_path_fills_hash(self):
        req = parse_solve_request(_doc(id="r1", deadline_ms=250), algorithms=_ALGOS)
        assert isinstance(req, SolveRequest)
        assert req.id == "r1"
        assert req.algorithm == "bl"
        assert req.seed == 7
        assert req.content_hash == _H.content_hash()
        assert req.deadline_ms == 250.0
        assert req.verify is True

    def test_missing_algorithm(self):
        with pytest.raises(ProtocolError, match="missing 'algorithm'"):
            parse_solve_request({"instance": encode_instance(_H)}, algorithms=_ALGOS)

    def test_unknown_algorithm_lists_known(self):
        with pytest.raises(ProtocolError, match="unknown algorithm 'nope'"):
            parse_solve_request(_doc(algorithm="nope"), algorithms=_ALGOS)

    def test_needs_instance_or_hash(self):
        with pytest.raises(ProtocolError, match="'instance' or 'content_hash'"):
            parse_solve_request({"algorithm": "bl"}, algorithms=_ALGOS)

    def test_hash_only_request(self):
        req = parse_solve_request(
            {"algorithm": "bl", "content_hash": "abc123"}, algorithms=_ALGOS
        )
        assert req.instance is None
        assert req.content_hash == "abc123"

    def test_hash_cross_check(self):
        with pytest.raises(ProtocolError, match="content_hash mismatch"):
            parse_solve_request(_doc(content_hash="wrong"), algorithms=_ALGOS)

    def test_matching_hash_accepted(self):
        req = parse_solve_request(
            _doc(content_hash=_H.content_hash()), algorithms=_ALGOS
        )
        assert req.content_hash == _H.content_hash()

    @pytest.mark.parametrize("seed", ["7", 1.5, True, None])
    def test_bad_seed_types(self, seed):
        with pytest.raises(ProtocolError, match="'seed'"):
            parse_solve_request(_doc(seed=seed), algorithms=_ALGOS)

    @pytest.mark.parametrize("deadline", [0, -5, "fast", True])
    def test_bad_deadlines(self, deadline):
        with pytest.raises(ProtocolError):
            parse_solve_request(_doc(deadline_ms=deadline), algorithms=_ALGOS)

    def test_int_id_coerced_to_str(self):
        req = parse_solve_request(_doc(id=42), algorithms=_ALGOS)
        assert req.id == "42"

    def test_bad_id_type(self):
        with pytest.raises(ProtocolError, match="'id'"):
            parse_solve_request(_doc(id=[1]), algorithms=_ALGOS)

    def test_default_id_used_when_absent(self):
        req = parse_solve_request(_doc(), algorithms=_ALGOS, default_id="auto-3")
        assert req.id == "auto-3"


class TestResponses:
    def test_ok_response_spreads_payload(self):
        req = parse_solve_request(_doc(id="r9"), algorithms=_ALGOS)
        payload = {"mis_size": 4, "independent_set": [0, 2, 5, 8], "num_rounds": 2}
        response = ok_response(req, payload, cached=True, coalesced=False, wall_ms=1.2345)
        assert response["status"] == "ok"
        assert response["id"] == "r9"
        assert response["mis_size"] == 4
        assert response["independent_set"] == [0, 2, 5, 8]
        assert response["cached"] is True
        assert response["coalesced"] is False
        assert response["wall_ms"] == 1.234
        json.dumps(response)  # must be wire-serialisable as-is

    @pytest.mark.parametrize("status", ERROR_STATUSES)
    def test_error_statuses_accepted(self, status):
        response = error_response("r1", status, "why", retry=True)
        assert response == {"id": "r1", "status": status, "error": "why", "retry": True}

    def test_unknown_error_status_asserts(self):
        with pytest.raises(AssertionError):
            error_response("r1", "ok", "not an error status")
