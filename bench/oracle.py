"""Reference answers computed in plain Python from the generated inputs.

Nothing here imports flowrank: the oracle re-derives BM25 scores from the
corpus text with the documented formula, so a ranking the program returns
can be checked against an independent computation.
"""

from __future__ import annotations

import math
import re
from collections import Counter

_WORD = re.compile(r"[a-z]+")


def _tokens(text: str) -> list[str]:
    # generated text holds only ASCII letters, spaces and . ? !
    return _WORD.findall(text.lower())


class Bm25Oracle:
    """BM25 with ``idf = ln(1 + (N - df + 0.5) / (df + 0.5))``, k1=1.2, b=0.75."""

    def __init__(self, docs, k1: float = 1.2, b: float = 0.75):
        self.k1, self.b = k1, b
        self.docnos = []
        self.lengths = []
        self.postings: dict[str, list[tuple[int, int]]] = {}
        for doc_id, (docno, text) in enumerate(docs):
            toks = _tokens(text)
            self.docnos.append(docno)
            self.lengths.append(len(toks))
            for term, tf in Counter(toks).items():
                self.postings.setdefault(term, []).append((doc_id, tf))
        self.n = len(self.docnos)
        self.avgdl = sum(self.lengths) / self.n

    def top(self, query: str, k: int = 10) -> list[tuple[str, float]]:
        """Top-*k* (docno, score), ties broken by ascending docno."""
        parts: dict[int, list[float]] = {}
        for term in _tokens(query):
            plist = self.postings.get(term, [])
            df = len(plist)
            idf = math.log(1.0 + (self.n - df + 0.5) / (df + 0.5))
            for doc_id, tf in plist:
                norm = tf + self.k1 * (1.0 - self.b + self.b * self.lengths[doc_id] / self.avgdl)
                parts.setdefault(doc_id, []).append(idf * tf * (self.k1 + 1.0) / norm)
        scored = sorted(((self.docnos[d], math.fsum(v)) for d, v in parts.items()), key=lambda x: (-x[1], x[0]))
        return scored[:k]


def same_ranking(expected, got, places: int | None = None, tol: float = 1e-9) -> bool:
    """Whether *got* lists the same docnos with the same scores as *expected*.

    With *places*, both scores are compared after rounding to that many
    decimals (the server's wire format); otherwise within *tol*.
    """
    if len(expected) != len(got):
        return False
    for (d1, s1), (d2, s2) in zip(expected, got):
        if d1 != d2:
            return False
        if places is not None:
            if round(s1, places) != round(s2, places):
                return False
        elif abs(s1 - s2) > tol:
            return False
    return True


def first_sentence(text: str) -> str:
    """Text up to and including the first '.', '?' or '!'."""
    m = re.search(r"[.?!]", text)
    return text[: m.end()] if m else text
