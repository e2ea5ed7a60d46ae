"""Seeded, download-free corpus and query generator.

Documents hold 20-120 tokens drawn Zipf(1) over a fixed-size vocabulary and
are cut into sentences ending in '.', '?' or '!', so the extractive answerer
has sentences to cut.  Queries hold 1-4 Zipf-distributed terms: frequent terms
recur across queries and hit long postings lists, and single-term queries
take the ``sdm`` pass-through branch.  The same parameters and seed always
give the same corpus and queries.  The seed draws the corpus and decides
which word holds which Zipf rank; the ranks a query draws do not depend on it.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import asdict, dataclass

_LETTERS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class CorpusParams:
    n_docs: int
    vocab: int = 5000
    min_len: int = 20
    max_len: int = 120
    max_query_terms: int = 4

    def describe(self) -> dict:
        return asdict(self) | {"term_distribution": "zipf(1)"}


def vocabulary(size: int, seed: int) -> list[str]:
    """*size* distinct pronounceable lowercase words in a seeded order; word i has Zipf rank i+1."""
    syllables = [c + v for c in _LETTERS for v in _VOWELS]
    words: list[str] = []
    for n in itertools.count(1):
        words += ("".join(combo) for combo in itertools.product(syllables, repeat=n))
        if len(words) >= size:
            break
    del words[size:]
    random.Random(f"vocabulary/{seed}").shuffle(words)
    return words


def _zipf_cum_weights(size: int) -> list[float]:
    return list(itertools.accumulate(1.0 / r for r in range(1, size + 1)))


def make_corpus(params: CorpusParams, seed: int) -> list[tuple[str, str]]:
    """(docno, text) pairs with sentence punctuation."""
    rng = random.Random(f"corpus/{seed}")
    words = vocabulary(params.vocab, seed)
    cum = _zipf_cum_weights(params.vocab)
    docs = []
    for d in range(params.n_docs):
        tokens = rng.choices(words, cum_weights=cum, k=rng.randint(params.min_len, params.max_len))
        sentences = []
        start = 0
        while start < len(tokens):
            end = min(len(tokens), start + rng.randint(5, 15))
            sentence = " ".join(tokens[start:end])
            sentences.append(sentence[0].upper() + sentence[1:] + rng.choice(".?!"))
            start = end
        docs.append((f"doc{d:06d}", " ".join(sentences)))
    return docs


def _radical_inverse(i: int, base: int) -> float:
    inv, f = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        inv += digit * f
        f /= base
    return inv


# One Halton dimension per query-term position; 2 is left out because the
# term count already cycles with the low bits of the query number.
_HALTON_BASES = (3, 5, 7, 11)


def make_queries(params: CorpusParams, seed: int, n: int) -> list[tuple[str, str]]:
    """The first *n* (qid, query) pairs of the seed's query stream.

    Query i has 1 + i mod max_query_terms distinct terms.  Term j has the
    Zipf rank given by the inverse CDF at the (i+1)-th Halton point in base
    ``_HALTON_BASES[j]``, and the seed's vocabulary order turns ranks into
    words.  Each term is Zipf(1)-distributed and every prefix of the stream
    holds the same mix of head and tail terms.  So the sequence of query
    shapes, and with it the cost of each op, is the same for every seed:
    the seed changes the words and the corpus, and a run's latency
    percentiles do not swing with the luck of the draw.
    """
    words = vocabulary(params.vocab, seed)
    cum = _zipf_cum_weights(params.vocab)
    total = cum[-1]
    queries = []
    for i in range(n):
        n_terms = 1 + i % params.max_query_terms
        ranks: list[int] = []
        for j in range(n_terms):
            u = _radical_inverse(i + 1, _HALTON_BASES[j])
            rank = min(bisect.bisect_right(cum, u * total), params.vocab - 1)
            while rank in ranks:
                rank = (rank + 1) % params.vocab
            ranks.append(rank)
        queries.append((f"q{i:05d}", " ".join(words[r] for r in ranks)))
    return queries


def write_corpus_jsonl(docs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for docno, text in docs:
            fh.write(json.dumps({"docno": docno, "text": text}) + "\n")


def write_topics_tsv(queries, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for qid, query in queries:
            fh.write(f"{qid}\t{query}\n")
