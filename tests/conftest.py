"""Shared fixtures: the five-document toy corpus, a session index,
helpers for synthesizing random-but-valid relations and pipeline trees, and
a hook that re-runs the checks the engine skips on what it has proven."""

from __future__ import annotations

import collections
import contextlib
import random

import pytest

from flowrank.algebra import Leaf, Linear, RRF, Then
from flowrank.errors import DataError
from flowrank.frames import Relation, canonical_columns, rank_tuples, sort_and_rank
from flowrank.index import build_index, load_index, tokenize
from flowrank.transformers import Transformer, TransformerSpec, registry, spec

TOY5 = [
    ("d1", "the quick brown fox"),
    ("d2", "the lazy dog"),
    ("d3", "quick quick fox"),
    ("d4", "brown dog barks"),
    ("d5", "fox jumps over the lazy dog"),
]

TOY5_DOCNOS = [d for d, _ in TOY5]
TOY5_VOCAB = sorted({t for _, text in TOY5 for t in text.split()})


@pytest.fixture(scope="session")
def toy_index_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ix") / "toy5"
    build_index(TOY5, out)
    return out


@pytest.fixture(scope="session")
def toy_index(toy_index_dir):
    return load_index(toy_index_dir)


@pytest.fixture(scope="session")
def overflow_index(tmp_path_factory):
    """d1's idf is high enough that a term's part of its score times 1.7e308 is inf."""
    out = tmp_path_factory.mktemp("ix") / "overflow"
    build_index([("d1", "alpha beta")] + [(f"x{i:02d}", "gamma") for i in range(20)], out)
    return load_index(out)


@pytest.fixture(scope="session")
def toy_registry(toy_index):
    return registry(toy_index)


@pytest.fixture()
def tokenized(monkeypatch):
    """The texts that transformers pass to ``tokenize``, in call order."""
    import flowrank.transformers

    texts = []

    def counting(text):
        texts.append(text)
        return tokenize(text)

    monkeypatch.setattr(flowrank.transformers, "tokenize", counting)
    return texts


FIGURE1_EXPR = "rrf(bm25, sdm >> wbm25) >> text_loader >> rescore >> answer"


@pytest.fixture(scope="session")
def figure1(toy_registry):
    from flowrank.dsl import elaborate, parse

    return elaborate(parse(FIGURE1_EXPR), toy_registry)


@pytest.fixture()
def qframe():
    return Relation.from_dicts(
        [{"qid": "q1", "query": "quick fox"}, {"qid": "q2", "query": "lazy dog"}],
        ["qid", "query"],
    )


# ---------------------------------------------------------------------------
# Synthetic spec-only transformers (exercise vector flow and passthrough)
# ---------------------------------------------------------------------------


def _query_vector(query: str) -> tuple[float, ...]:
    return (float(len(query) % 7), float(sum(map(ord, query)) % 13) / 10.0)


def _pseudo_score(qid: str, docno: str) -> float:
    return float((hash((qid, docno)) % 1000) + 1) / 100.0


def vec_encoder() -> Transformer:
    def fn(rel):
        rows = []
        for row in rel.to_dicts():
            out = dict(row)
            out["query_vec"] = _query_vector(row["query"])
            rows.append(out)
        columns = list(rel.columns)
        if "query_vec" not in columns:
            columns.append("query_vec")
        return Relation.from_dicts(rows, columns)

    return Transformer(
        name="vec_encoder",
        description="encode queries as small deterministic vectors",
        attributes=(("dim", 2),),
        spec=spec({"qid", "query"}, {"qid", "query", "query_vec"}, passthrough=True),
        fn=fn,
    )


def vec_retriever() -> Transformer:
    def fn(rel):
        vecs = {}
        for row in rel.to_dicts():
            vecs.setdefault(row["qid"], row["query_vec"])
        rows = []
        for qid, vec in vecs.items():
            for docno in TOY5_DOCNOS[:3]:
                rows.append(
                    {"qid": qid, "query_vec": vec, "docno": docno, "score": _pseudo_score(qid, docno)}
                )
        return sort_and_rank(Relation.from_dicts(rows, ["qid", "query_vec", "docno", "score"]))

    return Transformer(
        name="vec_retriever",
        description="retrieve a fixed candidate pool scored from the query vector",
        attributes=(),
        spec=spec({"qid", "query_vec"}, {"qid", "query_vec", "docno", "score", "rank"}),
        fn=fn,
    )


def doc_tagger() -> Transformer:
    def fn(rel):
        rows = []
        for row in rel.to_dicts():
            out = dict(row)
            out["doc_label"] = f"label-{row['docno']}"
            rows.append(out)
        columns = list(rel.columns)
        if "doc_label" not in columns:
            columns.append("doc_label")
        return Relation.from_dicts(rows, columns)

    return Transformer(
        name="doc_tagger",
        description="attach a label column to ranked documents",
        attributes=(),
        spec=spec(
            {"qid", "docno", "score", "rank"},
            {"qid", "docno", "score", "rank", "doc_label"},
            passthrough=True,
        ),
        fn=fn,
    )


@pytest.fixture(scope="session")
def synthetic_transformers():
    return [vec_encoder(), vec_retriever(), doc_tagger()]


# ---------------------------------------------------------------------------
# Constant-output source transformers (fixed runs for fusion oracles)
# ---------------------------------------------------------------------------


def stub_run(name: str, rows: list[dict], with_rank: bool = False) -> Transformer:
    """Source transformer ignoring its input and returning a fixed run."""
    columns = ["qid", "docno", "score"] + (["rank"] if with_rank else [])
    fixed = Relation.from_dicts(rows, columns)
    out_spec = TransformerSpec(outputs=((frozenset(), frozenset(columns)),))
    return Transformer(
        name=name,
        description=f"fixed run {name}",
        attributes=(),
        spec=out_spec,
        fn=lambda rel: fixed,
    )


EMPTY_INPUT = Relation.from_dicts([], ["qid", "query"])


# ---------------------------------------------------------------------------
# Random-but-valid relation synthesis
# ---------------------------------------------------------------------------


def synthesize_relation(columns, rng: random.Random) -> Relation:
    """A random relation over *columns* satisfying all frame invariants.

    docno values come from the toy corpus so text lookups always resolve,
    and query/text values from its vocabulary so retrieval stays meaningful.
    """
    columns = set(columns)
    ordered = canonical_columns(columns)
    rows: list[dict] = []
    n_qids = rng.randint(1, 3)
    qids = [f"q{i + 1}" for i in range(n_qids)]

    def fill(base: dict) -> dict:
        row = dict(base)
        for col in columns:
            if col in row:
                continue
            if col == "query":
                row[col] = " ".join(rng.sample(TOY5_VOCAB, rng.randint(1, 3)))
            elif col == "text":
                row[col] = " ".join(rng.choices(TOY5_VOCAB, k=rng.randint(2, 5)))
            elif col == "qanswer":
                row[col] = rng.choice(TOY5_VOCAB)
            elif col == "score":
                row[col] = rng.random() * 3.0
            elif col == "rank":
                row[col] = 0
            elif col == "query_vec":
                row[col] = (rng.random(), rng.random())
            else:
                row[col] = f"v{rng.randint(0, 9)}"
        return row

    if "qid" in columns and "docno" in columns:
        for qid in qids:
            for docno in rng.sample(TOY5_DOCNOS, rng.randint(1, 4)):
                rows.append(fill({"qid": qid, "docno": docno}))
    elif "qid" in columns:
        rows = [fill({"qid": qid}) for qid in qids]
    elif "docno" in columns:
        rows = [fill({"docno": docno}) for docno in rng.sample(TOY5_DOCNOS, rng.randint(1, 5))]
    else:
        rows = [fill({}) for _ in range(rng.randint(1, 4))]

    tuples = [tuple(row[c] for c in ordered) for row in rows]
    if {"qid", "docno", "score", "rank"} <= columns:
        _, tuples = rank_tuples(ordered, tuples)
    # without a docno there is one row per qid, and fill() set every rank to 0
    return Relation(ordered, tuple(tuples))


def random_tree(pool: list[Transformer], rng: random.Random, depth: int = 4):
    """Random pipeline tree of the given maximum depth over *pool* leaves."""
    if depth <= 1 or rng.random() < 0.4:
        return Leaf(rng.choice(pool))
    shape = rng.choice(["then", "linear", "rrf"])
    n = rng.randint(2, 3)
    children = tuple(random_tree(pool, rng, depth - 1) for _ in range(n))
    if shape == "then":
        flat = []
        for child in children:
            if isinstance(child, Then):
                flat.extend(child.children)
            else:
                flat.append(child)
        return Then(tuple(flat))
    if shape == "linear":
        return Linear(children, tuple(rng.uniform(0.1, 2.0) for _ in children))
    return RRF(children, k=rng.choice([60.0, 10.0, 90.0]))


def random_expr(rng: random.Random, depth: int) -> str:
    """Random pipeline-expression source text over the built-in names."""
    names = ["bm25", "wbm25", "sdm", "text_loader", "rescore", "answer"]
    if depth <= 1 or rng.random() < 0.45:
        name = rng.choice(names)
        if name in ("bm25", "wbm25") and rng.random() < 0.3:
            return f"{name}(k1={rng.choice([0.9, 1.5])}, b={rng.choice([0.4, 0.75])})"
        return name
    shape = rng.choice(["then", "sum", "rrf"])
    if shape == "then":
        return " >> ".join(random_expr(rng, depth - 1) for _ in range(rng.randint(2, 3)))
    if shape == "sum":
        terms = [
            f"{rng.choice([0.5, 1.0, 2.0])}*({random_expr(rng, depth - 1)})"
            for _ in range(rng.randint(2, 3))
        ]
        return " + ".join(terms)
    inner = ", ".join(random_expr(rng, depth - 1) for _ in range(rng.randint(2, 3)))
    return f"rrf({inner}, k={rng.choice([60.0, 10.0])})"


# ---------------------------------------------------------------------------
# Proven outputs, re-checked
# ---------------------------------------------------------------------------


def recheck(rel: Relation) -> None:
    """Every check ``Relation._trusted`` skipped on *rel*; AssertionError if one fires.

    That is the frame check and the rank check of public construction and,
    for a relation marked ranked, the row order and the ranks by position
    that fusion relies on.  The error is not a ``FlowrankError``, so no
    caller that expects those swallows it.
    """
    try:
        rel._check_frame()
        if {"qid", "score", "rank"} <= set(rel.columns):
            rel._check_ranks()
        # one comparison covers both the row order and the ranks by position
        if rel._ranked and list(rel.rows) != rank_tuples(rel.columns, rel.rows)[1]:
            raise DataError("rows are not in ranking order, ranked by position")
    except DataError as exc:
        raise AssertionError(f"a skipped check fires on {'a ranked' if rel._ranked else 'an'} engine output: {exc}")


@contextlib.contextmanager
def rechecked_proofs():
    """Run :func:`recheck` on every relation ``Relation._trusted`` builds.

    Yields a counter of the relations checked, ``ranked`` and ``other``.
    """
    trusted = Relation._trusted.__func__
    seen = collections.Counter()

    def rechecking(cls, columns, rows, ranked=False):
        rel = trusted(cls, columns, rows, ranked)
        recheck(rel)
        seen["ranked" if rel._ranked else "other"] += 1
        return rel

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Relation, "_trusted", classmethod(rechecking))
        yield seen
