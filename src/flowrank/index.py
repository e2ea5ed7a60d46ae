"""Positional inverted index with stored document text.

The on-disk layout is three UTF-8 files in an index directory:

* ``meta.json``      -- ``{"format_version":2,"n_docs":N,"total_tokens":T,"avg_doc_len":A}``
* ``docs.jsonl``     -- one object per line, ascending doc_id:
  ``{"doc_id":i,"docno":"...","doc_len":L,"text":"..."}``
* ``postings.jsonl`` -- one object per line, terms in lexicographic order,
  postings as three columns:
  ``{"term":"...","df":d,"cf":c,"doc_ids":[...],"tfs":[...],"positions":[...]}``
  with ``doc_ids`` ascending and every document's positions back to back,
  ``tfs[i]`` of them for ``doc_ids[i]``

Building is deterministic: the same corpus yields byte-identical files.
Loading is lazy beyond ``meta.json`` so that purely static uses of an index
handle (inspection, validation) never touch document data.
"""

from __future__ import annotations

import json
import os
import re
import threading
from array import array
from dataclasses import dataclass
from itertools import accumulate, chain, count
from operator import ge, itemgetter, lt
from pathlib import Path
from typing import Iterable, Iterator

from .errors import (
    CorruptIndex,
    DuplicateDocno,
    EmptyCorpus,
    FormatError,
    IndexIOError,
    UnknownDocno,
    VersionMismatch,
)

FORMAT_VERSION = 2

_TOKEN = re.compile(r"[^\W_]+")
# every ASCII character that ``[^\W_]`` does not match (``str.isalnum`` is
# false) maps to a space; no alphanumeric character is whitespace
_ASCII_SEPARATORS = {c: " " for c in range(128) if not chr(c).isalnum()}


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric character, dropping empties.

    ASCII text (after lowering, which can map a non-ASCII letter such as
    the Kelvin sign to ASCII) is split by one table translation, with the
    same result as the regex, which handles all other text.
    """
    text = text.lower()
    if text.isascii():
        return text.translate(_ASCII_SEPARATORS).split()
    return _TOKEN.findall(text)


# one term's postings as columns: ascending doc_ids, the tf of each, and
# every document's positions back to back, tfs[i] of them for doc_ids[i];
# tfs and positions are read-only views of unsigned arrays of 1 or 2 bytes,
# or signed ones of 4, one width per index (see _typecode)
Columns = tuple[tuple[int, ...], memoryview, memoryview]

# the columns as a loaded index keeps them, tfs and positions as the arrays
_Stored = tuple[tuple[int, ...], array, array]


def _typecode(n: int) -> str:
    """The narrowest array typecode, of 1, 2 or 4 bytes, for an index whose
    longest document has *n* tokens: every tf (at most n) and every position
    (below n) fits it, up to n of 2**31 - 1."""
    return "B" if n < 2**8 else "H" if n < 2**16 else "i"


@dataclass(frozen=True)
class IndexStats:
    n_docs: int
    avg_doc_len: float
    total_tokens: int


def _dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _write_records(path: Path, records: Iterable[dict]) -> None:
    """Write each of *records* to *path* as one line of :func:`_dumps`."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(_dumps(record) + "\n")


def text_lines(path) -> Iterator[tuple[int, str]]:
    """(line number from 1, line) for each line of a UTF-8 text file.

    Lines are split as text-mode reading splits them.  A file that cannot
    be opened or read raises :class:`FormatError` naming the path; a byte
    that is not UTF-8 raises one naming the path and the byte's line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError:
        raise FormatError(_not_utf8(path)) from None
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from None


def _not_utf8(path) -> str:
    # the decoder fails on a whole buffer, not a line: find the first bad
    # byte again and count the line breaks text-mode reading sees before it
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = 1 + len(re.findall("\r\n|\r|\n", data[: exc.start].decode("utf-8")))
        return f"{path}:{lineno}: byte 0x{data[exc.start]:02x} is not UTF-8"
    return f"{path}: not UTF-8"


# each JSON value's kind, by the type it decodes to
_JSON_KIND = {
    type(None): "null",
    bool: "a boolean",
    int: "an integer",
    float: "a float",
    str: "a string",
    dict: "an object",
    list: "an array",
}


def read_corpus(path) -> Iterator[tuple[str, str]]:
    """Iterate (docno, text) pairs from a JSONL corpus file.

    A docno or text that is a number is read as its ``str``.  A damaged
    file, or a docno or text that is null, a boolean, an object or an
    array, raises :class:`FormatError` naming the path and, where there is
    one, the line.
    """
    for lineno, line in text_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict) or "docno" not in obj or "text" not in obj:
            raise FormatError(f"{path}:{lineno}: expected an object with docno and text")
        for key in ("docno", "text"):
            if type(obj[key]) not in (str, int, float):
                kind = _JSON_KIND[type(obj[key])]
                raise FormatError(f"{path}:{lineno}: {key} must be a string or a number, not {kind}")
        yield str(obj["docno"]), str(obj["text"])


def build_index(corpus: Iterable[tuple[str, str]], out_dir) -> IndexStats:
    """Tokenize a corpus and write the index directory; returns its stats.

    ``meta.json`` is removed first and written last, through a temporary
    sibling and ``os.replace``, so a build that fails part way leaves a
    directory that :func:`load_index` rejects instead of one that opens.
    """
    out_dir = Path(out_dir)
    docs: list[tuple[str, int, str]] = []  # (docno, doc_len, text), position is doc_id
    seen: set[str] = set()
    postings: dict[str, tuple[array, array, array]] = {}  # term -> columns; tfs and positions of typecode `code`
    code, longest, total_tokens = _typecode(0), 0, 0
    for docno, text in corpus:
        if docno in seen:
            raise DuplicateDocno(docno)
        seen.add(docno)
        doc_id = len(docs)
        tokens = tokenize(text)
        if len(tokens) >= 2**31:  # a tf or position past a 4-byte column
            raise FormatError(f"document {docno!r} has {len(tokens)} tokens; an index takes at most {2**31 - 1}")
        if len(tokens) > longest:
            longest = len(tokens)
            if _typecode(longest) != code:  # widen every term's columns, at most twice a build
                code = _typecode(longest)
                postings = {
                    term: (ids, array(code, tfs), array(code, pos)) for term, (ids, tfs, pos) in postings.items()
                }
        total_tokens += len(tokens)
        docs.append((docno, len(tokens), text))
        by_term: dict[str, list[int]] = {}
        for pos, term in enumerate(tokens):
            by_term.setdefault(term, []).append(pos)
        for term, positions in by_term.items():
            columns = postings.get(term)
            if columns is None:
                columns = postings[term] = (array("i"), array(code), array(code))
            columns[0].append(doc_id)
            columns[1].append(len(positions))
            columns[2].extend(positions)
    if not docs:
        raise EmptyCorpus()
    stats = IndexStats(len(docs), total_tokens / len(docs), total_tokens)
    meta_file = out_dir / "meta.json"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        meta_file.unlink(missing_ok=True)
        _write_records(
            out_dir / "docs.jsonl",
            ({"doc_id": i, "docno": docno, "doc_len": n, "text": text} for i, (docno, n, text) in enumerate(docs)),
        )
        _write_records(
            out_dir / "postings.jsonl",
            (
                {
                    "term": term,
                    "df": len(doc_ids),
                    "cf": len(positions),
                    "doc_ids": doc_ids.tolist(),
                    "tfs": tfs.tolist(),
                    "positions": positions.tolist(),
                }
                # sorted by term alone: sorted items would hold one more tuple per term
                for term in sorted(postings)
                for doc_ids, tfs, positions in [postings[term]]
            ),
        )
        tmp_file = out_dir / "meta.json.tmp"
        meta = {
            "format_version": FORMAT_VERSION,
            "n_docs": stats.n_docs,
            "total_tokens": stats.total_tokens,
            "avg_doc_len": stats.avg_doc_len,
        }
        _write_records(tmp_file, [meta])
        os.replace(tmp_file, meta_file)
    except OSError as exc:
        raise IndexIOError(f"cannot write index under {out_dir}: {exc}") from exc
    return stats


def _read_lines(file: Path) -> Iterator[str]:
    """The lines of *file*, read one at a time, without their "\n"."""
    # a line ends only at "\n", as the build writes it; U+0085 and U+2028,
    # which json.dumps leaves unescaped in stored text, stay inside their line
    try:
        with open(file, encoding="utf-8", newline="\n") as fh:
            for line in fh:
                yield line.removesuffix("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise CorruptIndex(str(file), str(exc)) from exc


# the exceptions that malformed JSON raises when decoded (RecursionError:
# arrays nested deeper than the decoder recurses), unpacked and checked
_BAD_VALUE = (ValueError, RecursionError, KeyError, TypeError, OverflowError)


def _typed(obj, key: str, *types: type):
    """``obj[key]``; a TypeError unless its type is one of *types* (a bool is no int)."""
    value = obj[key]
    if type(value) not in types:
        kinds = " or ".join(map(_JSON_KIND.get, types))
        raise TypeError(f"{key} must be {kinds}, not {_JSON_KIND[type(value)]}")
    return value


def _read_docs(file: Path, n_docs: int) -> tuple[dict[str, int], tuple[str, ...], tuple[int, ...]]:
    """Docno -> doc_id, and texts and lengths indexed by doc_id; checked."""
    ids: dict[str, int] = {}
    texts: list[str] = []
    doc_lens: list[int] = []
    for lineno, line in enumerate(_read_lines(file), start=1):
        try:
            obj = json.loads(line)
            doc_id, docno = _typed(obj, "doc_id", int), _typed(obj, "docno", str)
            doc_len, text = _typed(obj, "doc_len", int), _typed(obj, "text", str)
        except _BAD_VALUE as exc:
            raise CorruptIndex(str(file), f"line {lineno}: {exc}") from exc
        if doc_id != len(ids):
            raise CorruptIndex(str(file), f"line {lineno}: doc_id {doc_id} is not dense")
        if docno in ids:
            raise CorruptIndex(str(file), f"line {lineno}: duplicate docno {docno!r}")
        ids[docno] = doc_id
        texts.append(text)
        doc_lens.append(doc_len)
    if len(ids) != n_docs:
        raise CorruptIndex(str(file), f"{len(ids)} documents but meta says {n_docs}")
    return ids, tuple(texts), tuple(doc_lens)


def _columns_fault(df, cf, doc_ids, tfs, positions, doc_lens: tuple[int, ...]) -> str | None:
    """What is wrong with one term's postings columns, or None if nothing is.

    Each check is a C-level pass over a column, so a load makes no object
    per posting.
    """
    if not type(doc_ids) is type(tfs) is type(positions) is list:
        return "postings columns must be arrays"
    if set(map(type, chain((df, cf), doc_ids, tfs, positions))) - {int}:
        return "postings values must be integers"
    if not (df == len(doc_ids) == len(tfs) and cf == len(positions) == sum(tfs)):
        return "df/cf inconsistent"
    if not doc_ids:
        return None
    if min(tfs) < 1:
        return "tf below 1"
    n_docs = len(doc_lens)
    if not (0 <= doc_ids[0] and doc_ids[-1] < n_docs and all(map(lt, doc_ids, doc_ids[1:]))):
        return f"doc_ids out of range [0, {n_docs}) or not ascending"
    lasts = _pick(positions, list(accumulate(tfs, initial=-1))[1:])  # each document's last position
    firsts = _pick(positions, list(accumulate(tfs[:-1])))  # each later document's first position
    # positions may fall or repeat only from one document's last to the next one's first
    if sum(map(ge, positions, positions[1:])) != sum(map(ge, lasts, firsts)):
        return "positions not ascending within a document"
    # so a document's first position is its least and its last its greatest
    if min(positions) < 0 or any(map(ge, lasts, _pick(doc_lens, doc_ids))):
        return "positions outside [0, doc_len) of their document"
    return None


def _pick(seq, indices: list[int]) -> tuple:
    """The items of *seq* at *indices* as a tuple, in one C-level call."""
    if len(indices) > 1:
        return itemgetter(*indices)(seq)
    # itemgetter returns a bare item for one index and fails for none
    return tuple(map(seq.__getitem__, indices))


def _read_postings(
    file: Path, ids: tuple[int, ...], doc_lens: tuple[int, ...], code: str
) -> dict[str, _Stored]:
    """Term -> ``(doc_ids, tfs, positions)`` columns; checked against *doc_lens*.

    Every term's ``doc_ids`` are a tuple pointing at the same int object
    per document, the one in *ids* (``ids[i] == i``), instead of at one
    JSON-decoded int per posting.  ``tfs`` and ``positions`` are arrays of
    typecode *code*, the one :func:`_typecode` gives the longest of
    *doc_lens*, made only after the checks pass, which bound every value by
    its document's length; a value that still does not fit (in a document
    claiming 2**31 tokens or more) is :class:`CorruptIndex` too.
    """
    table = {}
    for lineno, line in enumerate(_read_lines(file), start=1):
        try:
            obj = json.loads(line)
            term, df, cf = _typed(obj, "term", str), obj["df"], obj["cf"]
            doc_ids, tfs, positions = obj["doc_ids"], obj["tfs"], obj["positions"]
        except _BAD_VALUE as exc:
            raise CorruptIndex(str(file), f"line {lineno}: {exc}") from exc
        fault = _columns_fault(df, cf, doc_ids, tfs, positions, doc_lens)
        if fault is not None:
            raise CorruptIndex(str(file), f"line {lineno}: {fault} for term {term!r}")
        try:
            table[term] = (_pick(ids, doc_ids), array(code, tfs), array(code, positions))
        except OverflowError as exc:
            raise CorruptIndex(str(file), f"line {lineno}: {exc} for term {term!r}") from exc
    return table


class Index:
    """Read-only handle over an index directory; safe for concurrent readers.

    ``meta.json`` is read and checked on open.  The first data access reads
    and checks ``docs.jsonl`` and ``postings.jsonl`` together, and the stats
    in ``meta.json`` against the documents, in one load
    under one lock (see :attr:`data_loaded`), and keeps them as plain data:
    documents as columns indexed by doc_id (:meth:`docnos`,
    :meth:`doc_lens` and the texts) plus one docno-to-doc_id map, and each
    term's postings as the columns ``(doc_ids, tfs, positions)``
    (:meth:`columns`): a tuple of the map's shared ints, and two arrays of
    1, 2 or 4 bytes per value, the narrowest that holds the longest
    document's length (the same width for every term).
    """

    def __init__(self, path):
        self.path = Path(path)
        meta_file = self.path / "meta.json"
        try:
            meta = json.loads(meta_file.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise CorruptIndex(str(meta_file), str(exc)) from exc
        except (ValueError, RecursionError) as exc:  # ValueError: bad JSON, or an integer past int()'s digits
            raise CorruptIndex(str(meta_file), f"invalid JSON: {exc}") from exc
        if not isinstance(meta, dict) or "format_version" not in meta:
            raise CorruptIndex(str(meta_file), "missing format_version")
        if meta["format_version"] != FORMAT_VERSION:
            raise VersionMismatch(meta["format_version"], FORMAT_VERSION)
        try:
            self._stats = IndexStats(
                _typed(meta, "n_docs", int),
                float(_typed(meta, "avg_doc_len", int, float)),
                _typed(meta, "total_tokens", int),
            )
        except _BAD_VALUE as exc:
            raise CorruptIndex(str(meta_file), f"bad stats fields: {exc}") from exc
        self._ids: dict[str, int] = {}
        self._docnos: tuple[str, ...] = ()
        self._texts: tuple[str, ...] = ()
        self._doc_lens: tuple[int, ...] = ()
        self._postings: dict[str, _Stored] | None = None
        self._no_postings: _Stored = ((), array("B"), array("B"))  # an unseen term's, at the index's width
        self._load_lock = threading.Lock()
        # the retrievers' BM25 tables by (k1, b), and how many more impacts
        # they may store in all (None until counted): transformers._table
        # creates a table and spends the room under _bm25_lock
        self._bm25_tables: dict = {}
        self._bm25_room: int | None = None
        self._bm25_lock = threading.Lock()

    @property
    def data_loaded(self) -> bool:
        """Whether document and postings data have been read yet."""
        return self._postings is not None

    def stats(self) -> IndexStats:
        return self._stats

    @property
    def n_docs(self) -> int:
        return self._stats.n_docs

    @property
    def avg_doc_len(self) -> float:
        return self._stats.avg_doc_len

    def _ensure_loaded(self) -> None:
        if self._postings is not None:
            return
        with self._load_lock:
            if self._postings is None:
                ids, texts, doc_lens = _read_docs(self.path / "docs.jsonl", self._stats.n_docs)
                self._check_stats(doc_lens)
                code = _typecode(max(doc_lens))
                table = _read_postings(self.path / "postings.jsonl", tuple(ids.values()), doc_lens, code)
                self._ids, self._docnos, self._texts, self._doc_lens = ids, tuple(ids), texts, doc_lens
                self._no_postings = ((), array(code), array(code))
                # assigned last: the unlocked check above reads it
                self._postings = table

    def _check_stats(self, doc_lens: tuple[int, ...]) -> None:
        # exact: the build derives both fields from the same lengths, and
        # JSON round-trips the float
        stats, total = self._stats, sum(doc_lens)
        if stats.total_tokens != total:
            raise CorruptIndex(
                str(self.path / "meta.json"), f"total_tokens {stats.total_tokens} but documents hold {total}"
            )
        if not doc_lens or stats.avg_doc_len != total / len(doc_lens):
            raise CorruptIndex(
                str(self.path / "meta.json"), f"avg_doc_len {stats.avg_doc_len} disagrees with the documents"
            )

    def columns(self, term: str) -> Columns:
        """The postings of *term* as ``(doc_ids, tfs, positions)`` columns.

        ``doc_ids`` ascend; ``positions`` holds every document's positions
        back to back, ``tfs[i]`` of them for ``doc_ids[i]``.  ``doc_ids``
        is a tuple; ``tfs`` and ``positions`` are read-only memoryviews of
        the index's 1-, 2- or 4-byte ints (see :class:`Index`), made on each
        call, so the handle's arrays cannot be written through them.  An
        unseen term has three empty columns of the same width.
        """
        self._ensure_loaded()
        doc_ids, tfs, positions = self._postings.get(term, self._no_postings)
        return doc_ids, memoryview(tfs).toreadonly(), memoryview(positions).toreadonly()

    def postings(self, term: str) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """The ``(doc_id, tf, positions)`` rows of *term*, ascending doc_id,
        all tuples: a row view of :meth:`columns` for outside callers, built
        on each call."""
        doc_ids, tfs, positions = self.columns(term)
        return tuple((i, tf, tuple(positions[end - tf : end])) for i, tf, end in zip(doc_ids, tfs, accumulate(tfs)))

    def df(self, term: str) -> int:
        return len(self.columns(term)[0])

    def cf(self, term: str) -> int:
        return len(self.columns(term)[2])

    def terms(self) -> list[str]:
        self._ensure_loaded()
        return sorted(self._postings)

    def docnos(self) -> tuple[str, ...]:
        """Docnos indexed by doc_id."""
        self._ensure_loaded()
        return self._docnos

    def doc_lens(self) -> tuple[int, ...]:
        """Document lengths in tokens, indexed by doc_id."""
        self._ensure_loaded()
        return self._doc_lens

    def text(self, docno: str) -> str:
        return self.texts([docno])[0]

    def __contains__(self, docno: str) -> bool:
        self._ensure_loaded()
        return docno in self._ids

    def texts(self, docnos: list[str]) -> tuple[str, ...]:
        """The stored text of each of *docnos*, in order; the first docno
        not in the index raises :class:`UnknownDocno`."""
        self._ensure_loaded()
        ids = list(map(self._ids.get, docnos))
        if None in ids:
            raise UnknownDocno(docnos[ids.index(None)])
        return _pick(self._texts, ids)

    def stored_ids(self, docnos: Iterable[str], texts: Iterable[str]) -> list[int | None]:
        """Per pair, the doc_id of *docno* if *text* is the very string this
        handle stored for it (``is``, not ``==``), else None.

        Never loads the data: before the first access no text can have come
        from this handle, and every pair gets None.
        """
        if not self.data_loaded:
            return [None for _ in texts]
        stored, get = self._texts, self._ids.get
        return [None if i is None or stored[i] is not text else i for i, text in zip(map(get, docnos), texts)]


def load_index(path) -> Index:
    """Open a read-only handle on an index directory."""
    return Index(path)


def adjacent_counts(first: Columns, second: Columns) -> tuple[list[int], list[int]]:
    """Doc ids where the *second* term directly follows the *first*, and how often.

    Takes two terms' :meth:`Index.columns`; positions are sliced only for
    documents that hold both terms.
    """
    ids1, tfs1, pos1 = first
    ids2, tfs2, pos2 = second
    where2 = dict(zip(ids2, count()))  # doc_id -> its index in the second columns
    ends2 = list(accumulate(tfs2))
    doc_ids, counts = [], []
    for doc_id, tf, end in zip(ids1, tfs1, accumulate(tfs1)):
        j = where2.get(doc_id)
        if j is not None:
            c = count_adjacent(pos1[end - tf : end], pos2[ends2[j] - tfs2[j] : ends2[j]])
            if c:
                doc_ids.append(doc_id)
                counts.append(c)
    return doc_ids, counts


def count_adjacent(positions_a: Iterable[int], positions_b: Iterable[int]) -> int:
    """Number of positions p with the first term at p and the second at p+1."""
    follow = set(positions_b)
    return sum(1 for p in positions_a if p + 1 in follow)

