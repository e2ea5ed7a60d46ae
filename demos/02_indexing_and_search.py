"""Indexing a corpus and searching it with BM25.

Builds a positional inverted index over a five-document corpus, inspects
the on-disk layout, and runs plain and weighted retrieval over it.
"""

import tempfile
from pathlib import Path

from flowrank import (
    Relation,
    bm25_retriever,
    build_index,
    format_trec_run,
    load_index,
    sdm_rewriter,
    tokenize,
    weighted_bm25_retriever,
)
from flowrank.index import count_adjacent

CORPUS = [
    ("d1", "the quick brown fox"),
    ("d2", "the lazy dog"),
    ("d3", "quick quick fox"),
    ("d4", "brown dog barks"),
    ("d5", "fox jumps over the lazy dog"),
]

# Tokenization is the deterministic baseline: lowercase, split on anything
# non-alphanumeric, no stemming, no stopwords.
print(tokenize("The quick-brown FOX!"))

index_dir = Path(tempfile.mkdtemp()) / "toy_index"
stats = build_index(CORPUS, index_dir)
print(f"{stats.n_docs} docs, {stats.total_tokens} tokens, avg length {stats.avg_doc_len}")

# Three UTF-8 files; identical corpora produce byte-identical indexes.
for f in sorted(index_dir.iterdir()):
    print(" ", f.name, f.stat().st_size, "bytes")

index = load_index(index_dir)
print("df(fox) =", index.df("fox"), " cf(quick) =", index.cf("quick"))

# Positions are stored, so adjacent-pair counts are exact.  Postings are
# (doc_id, tf, positions) tuples; docnos() maps a doc_id back to its docno.
d3 = index.docnos().index("d3")
quick, fox = ({doc_id: pos for doc_id, _, pos in index.postings(t)} for t in ("quick", "fox"))
print("ordered (quick, fox) in d3:", count_adjacent(quick[d3], fox[d3]))

topics = Relation.from_dicts(
    [{"qid": "q1", "query": "quick fox"}, {"qid": "q2", "query": "lazy dog"}],
    ["qid", "query"],
)

# Plain BM25: scores documents sharing at least one term with the query.
run = bm25_retriever(index).transform(topics)
print(format_trec_run(run, tag="bm25"), end="")

# The sequential-dependence rewriter turns multi-token queries into a
# weighted form; the weighted retriever scores unigram and ordered-window
# groups, so adjacency ("quick fox" as a phrase prefix) earns extra credit.
rewritten = sdm_rewriter().transform(topics)
print("rewritten:", rewritten.column("query")[0])
weighted_run = weighted_bm25_retriever(index).transform(rewritten)
print(format_trec_run(weighted_run, tag="sdm"), end="")
