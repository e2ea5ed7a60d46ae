"""Exact rankings pinned against committed TREC runs and answers.

A seeded corpus of a few hundred documents and twenty queries is generated
here (only ``random.Random.random`` is drawn from, so the stream does not
depend on the Python version).  Some documents share their text, so tied
scores and the docno tie-break are exercised too.  The runs of three
reference pipelines and the figure-1 answers must match the files under
``tests/goldens/`` byte for byte.  So must the figure-1 schematics, which
``test_schematic.py`` and the acceptance suite check as well.

After a deliberate ranking or schematic change, regenerate the files with::

    PYTHONPATH=src python tests/test_goldens.py
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from flowrank.algebra import execute
from flowrank.dsl import elaborate, parse
from flowrank.frames import Relation, format_trec_run
from flowrank.index import build_index, load_index
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


_PRODUCE = """
import json, sys
from pathlib import Path
import test_goldens
files = {**test_goldens.produce(Path("index")), **test_goldens.produce_schematics()}
sys.stdout.write(json.dumps(files, sort_keys=True))
"""


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
            files = {**produce(Path(tmp) / "index"), **produce_schematics()}
        finally:
            os.chdir(cwd)
        for name, text in files.items():
            (GOLDENS / name).write_text(text, encoding="utf-8")
            print(f"wrote {GOLDENS / name}", file=sys.stderr)
