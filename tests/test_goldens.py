"""Exact rankings pinned against committed TREC runs and answers.

A seeded corpus of a few hundred documents and twenty queries is generated
here (only ``random.Random.random`` is drawn from, so the stream does not
depend on the Python version).  Some documents share their text, so tied
scores and the docno tie-break are exercised too.  The runs of three
reference pipelines and the figure-1 answers must match the files under
``tests/goldens/`` byte for byte.  So must the figure-1 schematics, which
``test_schematic.py`` and the acceptance suite check as well, the
``flowrank inspect`` output of the README pipelines, the MCP
``tools/list`` reply of a server with a ``bm25`` and a figure-1 tool, and
the exact ``tools/call`` reply bytes on the seeded corpus and on hand-made
relations with awkward cells (``tools_call.json``).

After a deliberate ranking or schematic change, regenerate the files with::

    PYTHONPATH=src python tests/test_goldens.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from flowrank import cli
from flowrank.algebra import execute
from flowrank.dsl import elaborate, parse, render
from flowrank.frames import Relation, format_trec_run
from flowrank.index import build_index, load_index
from flowrank.mcp import ServerConfig, _Dispatcher, _encode_result
from flowrank.schematic import build_schematic, render_html, render_text
from flowrank.transformers import registry

from conftest import FIGURE1_EXPR, TOY5

GOLDENS = Path(__file__).parent / "goldens"
SEED = 7
N_DOCS = 300
N_QUERIES = 20
VOCAB = 150

RUNS = {
    "bm25.trec": "bm25",
    "sdm_wbm25.trec": "sdm >> wbm25",
    "figure1_rescored.trec": "rrf(bm25, sdm >> wbm25) >> text_loader >> rescore",
}
ANSWERS = ("figure1_answers.tsv", "rrf(bm25, sdm >> wbm25) >> text_loader >> rescore >> answer")
INSPECTED = ("bm25", "bm25 >> text_loader", FIGURE1_EXPR)
TOOLS = {"bm25": "bm25", "figure1": FIGURE1_EXPR}
# tools/call over the seeded corpus: (tool, expression, qids of the call)
CALLS = {
    "bm25": ("bm25", ["q03"]),
    "figure1_rescored": (RUNS["figure1_rescored.trec"], ["q07"]),
    "bm25_three_queries": ("bm25", ["q01", "q12", "q20"]),
}
# relations whose replies pin the encoder's escaping and number formats
_AWKWARD = "\t\n\"quoted\" back\\slash \u2028 \u0085 caf\u00e9 \U0001f600 100%"
ENCODED = {
    "escapes": Relation(
        ("qid", "query", "docno", "text", "score", "rank", "50% note"),
        [
            ("q1", _AWKWARD, "d1", "tab\there\nnewline", 2.5, 0, "%s %d %%"),
            ("q1", _AWKWARD, "d%2", "plain", -0.0, 1, None),
        ],
    ),
    "nulls": Relation(
        ("qid", "docno", "text", "score", "rank", "note"),
        [("q1", "d1", None, 2.0, 0, "x"), ("q1", "d2", "t", 1.0, 1, None)],
    ),
    "null_rank": Relation(("qid", "rank"), [("q1", 3), ("q2", None)]),
    "query_vec": Relation(("qid", "query_vec", "score"), [("q1", (0.5, -0.0, 1e-7, 3.0), 1.0), ("q2", None, 0.0)]),
    "negative_zero": Relation(("qid", "docno", "score", "rank"), [("q1", "d1", 0.0, 0), ("q1", "d2", -0.0, 1)]),
    "empty": Relation(("qid", "docno", "score", "rank"), []),
    "no_columns": Relation((), [(), ()]),
}


def _words(rng: random.Random) -> list[str]:
    syllables = ["ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "ze", "pu"]
    words: list[str] = []
    while len(words) < VOCAB:
        n = 1 + int(rng.random() * 3)
        word = "".join(syllables[int(rng.random() * len(syllables))] for _ in range(n))
        if word not in words:
            words.append(word)
    return words


def _zipf(rng: random.Random, n: int) -> int:
    # rank r is drawn with weight 1/(r+1)
    total = sum(1.0 / (r + 1) for r in range(n))
    x, acc = rng.random() * total, 0.0
    for r in range(n):
        acc += 1.0 / (r + 1)
        if x < acc:
            return r
    return n - 1


def make_corpus(seed: int = SEED) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """(docno, text) documents and (qid, query) topics, both seeded."""
    rng = random.Random(seed)
    words = _words(rng)
    docs: list[tuple[str, str]] = []
    for i in range(N_DOCS):
        if i and rng.random() < 0.05:
            # a copy of an earlier document: same text, so equal scores
            docs.append((f"d{i:03d}", docs[int(rng.random() * len(docs))][1]))
            continue
        sentences = []
        for _ in range(1 + int(rng.random() * 4)):
            toks = [words[_zipf(rng, VOCAB)] for _ in range(3 + int(rng.random() * 9))]
            sentences.append(" ".join(toks).capitalize() + ".?!"[int(rng.random() * 3)])
        docs.append((f"d{i:03d}", " ".join(sentences)))
    queries = []
    for q in range(N_QUERIES):
        terms = [words[3 + int(rng.random() * 60)] for _ in range(1 + int(rng.random() * 4))]
        queries.append((f"q{q:02d}", " ".join(terms)))
    queries.append((f"q{N_QUERIES:02d}", f"{words[5]} {words[5]} unmatchedterm"))
    return docs, queries


def produce(index_dir: Path) -> dict[str, str]:
    """File name -> expected content, computed with the current code."""
    docs, queries = make_corpus()
    build_index(docs, index_dir)
    reg = registry(load_index(index_dir))
    topics = Relation.from_dicts([{"qid": q, "query": t} for q, t in queries], ["qid", "query"])
    out = {}
    for name, expr in RUNS.items():
        out[name] = format_trec_run(execute(elaborate(parse(expr), reg), topics), tag="golden")
    name, expr = ANSWERS
    answers = execute(elaborate(parse(expr), reg), topics)
    out[name] = "".join(f"{qid}\t{answer}\n" for qid, answer in answers.rows)
    return out


def produce_schematics() -> dict[str, str]:
    """The figure-1 schematic files over the toy corpus, indexed at ``ix``.

    The text_loader tooltip shows the index path, so the index is built at
    that relative path in the current directory.
    """
    build_index(TOY5, "ix")
    node = elaborate(parse(FIGURE1_EXPR), registry(load_index("ix")))
    graph = build_schematic(node, {"qid", "query"})
    return {"figure1.html": render_html(graph), "figure1.txt": render_text(graph)}


def produce_inspections() -> dict[str, str]:
    """``flowrank inspect`` of each README pipeline and a ``tools/list``
    reply, over the toy corpus indexed at ``ix`` as for the schematics."""
    build_index(TOY5, "ix")
    inspected = []
    for expr in INSPECTED:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["inspect", "--index", "ix", "--pipeline", expr]) == 0
        inspected.append(f"$ flowrank inspect --index ix --pipeline '{expr}'\n{out.getvalue()}")
    reg = registry(load_index("ix"))
    pipelines = {}
    for name, expr in TOOLS.items():
        node = elaborate(parse(expr), reg)
        pipelines[name] = (node, f"runs the retrieval pipeline {render(node)}")
    request = b'{"jsonrpc": "2.0", "id": 1, "method": "tools/list"}'
    reply = _Dispatcher(ServerConfig(pipelines=pipelines)).dispatch_bytes(request)
    return {"inspect.txt": "".join(inspected), "tools_list.json": reply.decode("ascii") + "\n"}


def produce_tool_calls(index_dir: Path) -> dict[str, str]:
    """``tools_call.json``: the bytes ``_Dispatcher.dispatch`` returns for
    each of :data:`CALLS` over the seeded corpus indexed at *index_dir*, and
    the bytes ``_encode_result`` gives for each of :data:`ENCODED`."""
    docs, queries = make_corpus()
    build_index(docs, index_dir)
    reg = registry(load_index(index_dir))
    text = dict(queries)
    pipelines = {name: (elaborate(parse(expr), reg), "d") for name, (expr, _) in CALLS.items()}
    dispatcher = _Dispatcher(ServerConfig(pipelines=pipelines))
    replies = {}
    for n, (name, (_, qids)) in enumerate(CALLS.items()):
        arguments = {"queries": [{"qid": qid, "query": text[qid]} for qid in qids]}
        request = {"jsonrpc": "2.0", "id": n, "method": "tools/call", "params": {"name": name, "arguments": arguments}}
        replies[f"call:{name}"] = dispatcher.dispatch(request).decode("ascii")
    for name, rel in ENCODED.items():
        replies[f"encode:{name}"] = _encode_result(f"id \"{name}\"", rel).decode("ascii")
    return {"tools_call.json": json.dumps(replies, indent=1) + "\n"}


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("goldens") / "index")


@pytest.mark.parametrize("name", [*RUNS, ANSWERS[0]])
def test_output_matches_golden(produced, name):
    assert produced[name] == (GOLDENS / name).read_text(encoding="utf-8")


def test_schematics_match_goldens(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in produce_schematics().items():
        assert text == (GOLDENS / name).read_text(encoding="utf-8"), name


def test_inspections_match_goldens(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in produce_inspections().items():
        assert text == (GOLDENS / name).read_text(encoding="utf-8"), name


_PRODUCE = """
import json, sys
from pathlib import Path
import test_goldens
files = {
    **test_goldens.produce(Path("index")),
    **test_goldens.produce_schematics(),
    **test_goldens.produce_inspections(),
    **test_goldens.produce_tool_calls(Path("calls")),
}
sys.stdout.write(json.dumps(files, sort_keys=True))
"""


def test_tool_calls_match_golden(tmp_path):
    for name, text in produce_tool_calls(tmp_path / "index").items():
        assert text == (GOLDENS / name).read_text(encoding="utf-8"), name


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """The golden producers give the same bytes under two string hash seeds.

    ``rescore`` walks each qid's query terms in the order of a set of
    strings, and reads the index once per term in that order.
    """
    import flowrank

    path = os.pathsep.join([str(Path(flowrank.__file__).parents[1]), str(Path(__file__).parent)])
    outputs = []
    for seed in ("0", "12345"):
        cwd = tmp_path / seed
        cwd.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        run = subprocess.run([sys.executable, "-c", _PRODUCE], cwd=cwd, env=env, capture_output=True, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    files = json.loads(outputs[0])
    assert files == {name: (GOLDENS / name).read_text(encoding="utf-8") for name in files}


if __name__ == "__main__":
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            files = {
                **produce(Path(tmp) / "index"),
                **produce_schematics(),
                **produce_inspections(),
                **produce_tool_calls(Path(tmp) / "calls"),
            }
        finally:
            os.chdir(cwd)
        for name, text in files.items():
            (GOLDENS / name).write_text(text, encoding="utf-8")
            print(f"wrote {GOLDENS / name}", file=sys.stderr)
