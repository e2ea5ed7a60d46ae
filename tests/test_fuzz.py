"""Property fuzzers over the two edges where text enters: expressions and JSON-RPC requests.

Expressions go through ``parse``, ``elaborate`` and ``execute``; the only
exception any of them may raise is a :class:`FlowrankError`, and every
relation the engine builds passes the checks it skipped.  Request
objects go through ``_Dispatcher.dispatch``; no reply is an internal
error (-32603), and every reply is strict JSON (RFC 8259: no ``NaN`` or
``Infinity``).  Each runs derandomized with a bounded example count, so a
run is repeatable.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowrank.algebra import execute
from flowrank.dsl import elaborate, parse
from flowrank.errors import FlowrankError
from flowrank.frames import Relation
from flowrank.mcp import INTERNAL_ERROR, ServerConfig, _Dispatcher

from conftest import FIGURE1_EXPR, rechecked_proofs

FUZZ = settings(max_examples=400, deadline=None, database=None, derandomize=True)


@pytest.fixture(autouse=True, scope="module")
def _proofs_rechecked():
    with rechecked_proofs() as seen:
        yield
    assert seen["ranked"] > 0, seen  # the fuzzed pipelines did rank


_NAMES = ["bm25", "wbm25", "sdm", "text_loader", "rescore", "answer", "nosuch"]
_KWARGS = ["k1", "b", "num_results", "lambda_t", "lambda_o", "k", "x"]
_NUMBERS = st.sampled_from(["0", "1", "2", "0.5", "0.9", "0.1", "1000", "1e308", "1e999", "1e-400", "007", "9" * 5000])
_VALUES = st.one_of(_NUMBERS, st.sampled_from(['"hi"', '""', '"\\u00e9"', '"\\"', '"\\x"']))
_QUERIES = [
    "quick fox", "lazy dog", "", "the", "zebra", "fox fox fox", "ünïcödé \x00 fox",
    "#w(2) fox", "#w(0) fox", "#w(-1) dog", "#w(nan) fox", "#w(inf) fox", "#w(1e308) quick #w(1e308) fox",
    "#w(", "#w(2)", "#w(2 fox", "#w(x) fox", "fox #w(1.5) brown",
]


@st.composite
def _pipelines(draw, depth=3):
    """Pipeline source text from the grammar, with hostile names, values and weights."""
    if depth <= 1 or draw(st.booleans()):
        name = draw(st.sampled_from(_NAMES))
        if draw(st.integers(0, 2)):
            return name
        kwargs = draw(st.lists(st.tuples(st.sampled_from(_KWARGS), _VALUES), max_size=3))
        return f"{name}({', '.join(f'{k}={v}' for k, v in kwargs)})"
    children = draw(st.lists(_pipelines(depth - 1), min_size=1, max_size=3))
    shape = draw(st.sampled_from(["then", "sum", "rrf", "parens"]))
    if shape == "then":
        return " >> ".join(children)
    if shape == "sum":
        return " + ".join(f"{draw(_NUMBERS)}*({child})" for child in children)
    if shape == "rrf":
        k = draw(st.one_of(st.just(""), _NUMBERS.map(", k={}".format)))
        return f"rrf({', '.join(children)}{k})"
    return f"({children[0]})"


_TOKENS = st.sampled_from([">>", "+", "*", "(", ")", ",", "=", "rrf", "bm25", "k", "1.5", '"s"', "@", "#", "\n"])
_NOISE = st.one_of(st.lists(_TOKENS, max_size=12).map(" ".join), st.text(max_size=20))


def _execute(registry, source: str, queries: list[str]):
    qframe = Relation(("qid", "query"), [(f"q{i}", query) for i, query in enumerate(queries)])
    try:
        execute(elaborate(parse(source), registry), qframe)
    except FlowrankError:
        pass


@FUZZ
@given(source=_pipelines(), queries=st.lists(st.sampled_from(_QUERIES), min_size=1, max_size=3))
def test_expressions_raise_only_flowrank_errors(toy_registry, source, queries):
    _execute(toy_registry, source, queries)


@FUZZ
@given(source=_NOISE)
def test_token_soup_and_text_raise_only_flowrank_errors(toy_registry, source):
    _execute(toy_registry, source, ["quick fox"])


def _no_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.sampled_from([10**400, -(10**30), 1e308, float("inf"), float("nan"), -0.0]),
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)
_QUERY_ITEMS = st.one_of(
    st.fixed_dictionaries({"qid": st.sampled_from(["q1", "q2", ""]), "query": st.sampled_from(_QUERIES)}),
    st.dictionaries(st.sampled_from(["qid", "query", "x"]), _JSON, max_size=3),
    _JSON,
)
_QUERIES_ARGUMENT = st.fixed_dictionaries({"queries": st.lists(_QUERY_ITEMS, max_size=3)})
_CALLS = st.fixed_dictionaries(
    {
        "jsonrpc": st.just("2.0"),
        "id": st.one_of(st.integers(), st.text(max_size=4)),
        "method": st.just("tools/call"),
        "params": st.fixed_dictionaries(
            {"name": st.sampled_from(["bm25", "qa", "sdm"]), "arguments": _QUERIES_ARGUMENT}
        ),
    }
)
_ENVELOPES = st.fixed_dictionaries(
    {
        "jsonrpc": st.just("2.0"),
        "method": st.sampled_from(["initialize", "tools/list", "tools/call", "notifications/initialized", "x"]),
    },
    optional={
        "id": _JSON,
        "params": st.one_of(
            st.fixed_dictionaries(
                {},
                optional={
                    "name": st.one_of(st.sampled_from(["bm25", "qa", "sdm", "nosuch"]), _JSON),
                    "arguments": st.one_of(_QUERIES_ARGUMENT, _JSON),
                },
            ),
            _JSON,
        ),
    },
)
# well-formed calls, envelopes with hostile members, hostile objects, any JSON
_REQUESTS = st.one_of(
    _CALLS,
    _ENVELOPES,
    st.dictionaries(st.sampled_from(["jsonrpc", "id", "method", "params"]), _JSON),
    _JSON,
)


@FUZZ
@given(request=_REQUESTS)
def test_requests_never_get_an_internal_error_and_replies_are_strict_json(toy_registry, request):
    dispatcher = _Dispatcher(
        ServerConfig(
            pipelines={
                "bm25": (elaborate(parse("bm25"), toy_registry), "d"),
                "qa": (elaborate(parse(FIGURE1_EXPR), toy_registry), "d"),
                "sdm": (elaborate(parse("sdm >> wbm25"), toy_registry), "d"),
            }
        )
    )
    reply = dispatcher.dispatch(request)
    if reply is None:  # a notification: a valid request object without an id
        assert isinstance(request, dict) and "id" not in request
        return
    response = json.loads(reply, parse_constant=_no_constant)
    assert response["jsonrpc"] == "2.0"
    assert response.get("error", {}).get("code") != INTERNAL_ERROR
    assert response["id"] is None or response["id"] == request["id"]
