import json
import shutil
import tempfile
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowrank.index
from flowrank.errors import (
    CorruptIndex,
    DuplicateDocno,
    EmptyCorpus,
    FormatError,
    IndexIOError,
    UnknownDocno,
    VersionMismatch,
)
from flowrank.index import (
    adjacent_counts,
    build_index,
    count_adjacent,
    load_index,
    read_corpus,
    tokenize,
)

from conftest import TOY5


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("The quick-brown FOX") == ["the", "quick", "brown", "fox"]

    def test_empty(self):
        assert tokenize("") == []

    def test_alphanumerics_kept(self):
        assert tokenize("a1 b2  c3") == ["a1", "b2", "c3"]

    def test_underscore_splits(self):
        assert tokenize("a_b") == ["a", "b"]


class TestBuildIndex:
    def test_toy5_stats(self, tmp_path):
        stats = build_index(TOY5, tmp_path / "ix")
        assert stats.n_docs == 5
        # hand count over TOY5: 4 + 3 + 3 + 3 + 6 tokens
        assert stats.total_tokens == 19
        assert stats.avg_doc_len == pytest.approx(3.8)

    def test_duplicate_docno(self, tmp_path):
        with pytest.raises(DuplicateDocno):
            build_index([("d1", "a"), ("d1", "b")], tmp_path / "ix")

    def test_empty_corpus(self, tmp_path):
        with pytest.raises(EmptyCorpus):
            build_index([], tmp_path / "ix")

    def test_a_document_past_four_byte_positions_is_refused(self, tmp_path, monkeypatch):
        class Huge(list):  # stands for 2**31 tokens without holding them
            def __len__(self):
                return 2**31

        monkeypatch.setattr(flowrank.index, "tokenize", lambda text: Huge())
        with pytest.raises(FormatError, match="'d1' has 2147483648 tokens"):
            build_index([("d1", "x")], tmp_path / "ix")

    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        build_index(TOY5, a)
        build_index(TOY5, b)
        for name in ("meta.json", "docs.jsonl", "postings.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_rebuild_from_stored_text_is_fixed_point(self, tmp_path):
        first = tmp_path / "first"
        build_index(TOY5, first)
        ix = load_index(first)
        corpus = [(docno, ix.text(docno)) for docno in ix.docnos()]
        second = tmp_path / "second"
        build_index(corpus, second)
        for name in ("meta.json", "docs.jsonl", "postings.jsonl"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    @pytest.mark.parametrize("fresh", [True, False])
    def test_failed_build_never_opens(self, tmp_path, monkeypatch, fresh):
        out = tmp_path / "ix"
        if not fresh:
            build_index(TOY5, out)
        dumps = flowrank.index._dumps

        def disk_full_at_postings(obj):
            if "term" in obj:
                raise OSError("no space left on device")
            return dumps(obj)

        monkeypatch.setattr(flowrank.index, "_dumps", disk_full_at_postings)
        with pytest.raises(IndexIOError):
            build_index(TOY5, out)
        with pytest.raises(CorruptIndex):
            load_index(out)
        monkeypatch.undo()
        build_index(TOY5, out)
        assert sorted(f.name for f in out.iterdir()) == ["docs.jsonl", "meta.json", "postings.jsonl"]
        assert load_index(out).text("d1") == "the quick brown fox"

    def test_line_separators_in_text_round_trip(self, tmp_path):
        # json.dumps leaves U+0085 and U+2028 unescaped in docs.jsonl
        corpus = [("a", "one\u2028two"), ("b", "three\x85four")]
        build_index(corpus, tmp_path / "ix")
        ix = load_index(tmp_path / "ix")
        assert [(docno, ix.text(docno)) for docno in ix.docnos()] == corpus


def oracle_columns(corpus):
    """Term -> [doc_ids, tfs, positions] of *corpus*, from tokenize and enumerate alone."""
    where: dict[str, dict[int, list[int]]] = {}
    for doc_id, (_, text) in enumerate(corpus):
        for pos, term in enumerate(tokenize(text)):
            where.setdefault(term, {}).setdefault(doc_id, []).append(pos)
    return {
        term: [list(docs), list(map(len, docs.values())), list(chain.from_iterable(docs.values()))]
        for term, docs in where.items()
    }


def _short_docs(start):
    return [(f"s{i}", f"common w{i % 7} w{i % 11} common") for i in range(start, start + 40)]


def _long_doc(docno, n_tokens):
    return docno, " ".join(f"w{i % 13}" for i in range(n_tokens))


class TestWideningMidBuild:
    """A document longer than the columns' width so far widens every term's
    columns, already filled, before its own postings go in."""

    @pytest.mark.parametrize(
        "corpus, itemsize",
        [
            (_short_docs(0) + [_long_doc("mid", 300)] + _short_docs(40), 2),
            (_short_docs(0) + [_long_doc("last", 70_000)], 4),
            (_short_docs(0) + [_long_doc("mid", 300)] + _short_docs(40) + [_long_doc("last", 70_000)], 4),
        ],
        ids=["300-mid", "70000-last", "300-mid-70000-last"],
    )
    def test_every_posting_survives_the_widening(self, tmp_path, corpus, itemsize):
        build_index(corpus, tmp_path / "ix")
        lines = [json.loads(line) for line in (tmp_path / "ix" / "postings.jsonl").read_text("utf-8").splitlines()]
        oracle = oracle_columns(corpus)
        assert [line["term"] for line in lines] == sorted(oracle)
        for line in lines:
            doc_ids, tfs, positions = oracle[line["term"]]
            assert [line["doc_ids"], line["tfs"], line["positions"]] == [doc_ids, tfs, positions]
            assert (line["df"], line["cf"]) == (len(doc_ids), len(positions))
        ix = load_index(tmp_path / "ix")
        for line in lines:
            doc_ids, tfs, positions = ix.columns(line["term"])
            assert [list(doc_ids), tfs.tolist(), positions.tolist()] == [line["doc_ids"], line["tfs"], line["positions"]]
            assert tfs.itemsize == positions.itemsize == itemsize


class TestLoadIndex:
    def test_postings_fox(self, toy_index):
        plist = toy_index.postings("fox")
        assert len(plist) == 3
        assert [toy_index.docnos()[doc_id] for doc_id, _, _ in plist] == ["d1", "d3", "d5"]

    def test_unseen_term_empty(self, toy_index):
        assert toy_index.postings("zzz") == ()

    def test_stats_round_trip(self, tmp_path):
        built = build_index(TOY5, tmp_path / "ix")
        loaded = load_index(tmp_path / "ix").stats()
        assert loaded == built

    def test_doc_lookup(self, toy_index):
        assert toy_index.text("d1") == "the quick brown fox"
        assert toy_index.doc_lens()[toy_index.docnos().index("d3")] == 3
        with pytest.raises(UnknownDocno):
            toy_index.text("d99")

    def test_lazy_until_data_access(self, toy_index_dir):
        ix = load_index(toy_index_dir)
        assert not ix.data_loaded
        ix.stats()
        assert not ix.data_loaded
        ix.postings("fox")
        assert ix.data_loaded

    def test_version_mismatch(self, tmp_path):
        out = tmp_path / "ix"
        build_index(TOY5, out)
        meta = json.loads((out / "meta.json").read_text())
        meta["format_version"] = 99
        (out / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(VersionMismatch):
            load_index(out)

    def test_corrupt_postings_names_file(self, tmp_path):
        out = tmp_path / "ix"
        build_index(TOY5, out)
        (out / "postings.jsonl").write_text('{"term":"x","df":2,"cf":1,"postings":[[0,1,[0]]]}\n')
        ix = load_index(out)
        with pytest.raises(CorruptIndex) as err:
            ix.postings("x")
        assert "postings.jsonl" in str(err.value)

    def test_missing_docs_file(self, tmp_path):
        out = tmp_path / "ix"
        build_index(TOY5, out)
        (out / "docs.jsonl").unlink()
        ix = load_index(out)
        with pytest.raises(CorruptIndex):
            ix.text("d1")

    @pytest.mark.parametrize(
        "name, old, new",
        [
            ("meta.json", b'"n_docs"', b'"n_\xffdocs"'),
            ("meta.json", b'"n_docs":5', b'"n_docs":1e999'),
            ("docs.jsonl", b"quick", b"qu\xffck"),
            ("postings.jsonl", b'"barks"', b'"b\xc3rks"'),
            ("postings.jsonl", b'"df"', b'"xf"'),
            ("postings.jsonl", b'"cf"', b'"xf"'),
        ],
    )
    def test_malformed_file_is_corrupt(self, tmp_path, name, old, new):
        out = tmp_path / "ix"
        build_index(TOY5, out)
        data = (out / name).read_bytes()
        (out / name).write_bytes(data.replace(old, new, 1))
        with pytest.raises(CorruptIndex) as err:
            load_index(out).postings("fox")
        assert name in str(err.value)

    @pytest.mark.parametrize("name", ["docs.jsonl", "postings.jsonl"])
    def test_bad_bytes_deep_in_a_file_are_corrupt(self, tmp_path, name):
        # files are read line by line, so this decode error surfaces mid-iteration
        out = tmp_path / "ix"
        build_index([(f"d{i}", f"common w{i}") for i in range(2000)], out)
        data = (out / name).read_bytes()
        assert len(data) > 64 * 1024
        (out / name).write_bytes(data[:-10] + b"\xff" + data[-9:])
        with pytest.raises(CorruptIndex) as err:
            load_index(out).postings("common")
        assert name in str(err.value)

    def test_postings_line_is_columnar(self, tmp_path):
        out = tmp_path / "ix"
        build_index(TOY5, out)  # quick: once in d1 (doc_id 0), twice in d3 (doc_id 2)
        lines = (out / "postings.jsonl").read_text(encoding="utf-8").splitlines()
        assert '{"term":"quick","df":2,"cf":3,"doc_ids":[0,2],"tfs":[1,2],"positions":[1,0,1]}' in lines
        ix = load_index(out)
        assert tuple(map(tuple, ix.columns("quick"))) == ((0, 2), (1, 2), (1, 0, 1))
        assert ix.postings("quick") == ((0, 1, (1,)), (2, 2, (0, 1)))
        assert tuple(map(tuple, ix.columns("zzz"))) == ((), (), ())

    def test_columns_are_read_only_ints_of_the_index_width(self, tmp_path):
        corpus = [(f"d{i}", f"common w{i % 7} w{i % 11}") for i in range(600)]
        build_index(corpus, tmp_path / "ix")
        ix = load_index(tmp_path / "ix")
        for term in ix.terms() + ["zzz"]:
            doc_ids, tfs, positions = ix.columns(term)
            assert type(doc_ids) is tuple
            assert tfs.itemsize == positions.itemsize == 1  # no document reaches 256 tokens
            assert tfs.readonly and positions.readonly
        _, tfs, positions = ix.columns("common")
        with pytest.raises(TypeError):
            tfs[0] = 2
        with pytest.raises(TypeError):
            positions[0] = 1
        assert ix.postings("common")[0] == (0, 1, (0,))

    @pytest.mark.parametrize(
        "longest, itemsize", [(255, 1), (256, 2), (300, 2), (65535, 2), (65536, 4), (70000, 4)]
    )
    def test_the_longest_document_sets_the_width(self, tmp_path, longest, itemsize):
        corpus = [("short", "common w1"), ("long", " ".join(f"w{i % 3}" for i in range(longest)))]
        build_index(corpus, tmp_path / "ix")
        ix = load_index(tmp_path / "ix")
        for term in ix.terms() + ["zzz"]:
            _, tfs, positions = ix.columns(term)
            assert tfs.itemsize == positions.itemsize == itemsize
        ((doc_id, tf, positions),) = ix.postings("w0")  # w0 at every third position of "long"
        assert (doc_id, tf, positions[-1]) == (1, (longest + 2) // 3, (longest - 1) // 3 * 3)

    def test_a_value_no_four_byte_column_holds_is_corrupt(self, tmp_path):
        # d1 claims 2**40 tokens, meta agrees, and quick sits at 2**31 in it:
        # every check passes, but the position does not fit an array("i")
        out = tmp_path / "ix"
        build_index(TOY5, out)
        docs = [json.loads(line) for line in (out / "docs.jsonl").read_text(encoding="utf-8").splitlines()]
        docs[0]["doc_len"] = 2**40
        (out / "docs.jsonl").write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")
        total = sum(d["doc_len"] for d in docs)
        meta = {"format_version": 2, "n_docs": 5, "total_tokens": total, "avg_doc_len": total / 5}
        (out / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        lines = (out / "postings.jsonl").read_text(encoding="utf-8").splitlines()
        at = next(i for i, line in enumerate(lines) if json.loads(line)["term"] == "quick")
        lines[at] = lines[at].replace('"positions":[1,0,1]', f'"positions":[{2**31},0,1]')
        (out / "postings.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorruptIndex) as err:
            load_index(out).postings("fox")
        assert str(err.value).startswith(f"corrupt index file {out / 'postings.jsonl'}: line {at + 1}: ")
        assert "'quick'" in str(err.value)

    # quick: doc_ids [0, 2], tfs [1, 2], positions [1, 0, 1]; barks: [3], [1], [2]
    @pytest.mark.parametrize(
        "term, fields",
        [
            ("quick", {"doc_ids": [0, 2.0]}),
            ("quick", {"doc_ids": [0, "2"]}),
            ("quick", {"doc_ids": [True, 2]}),
            ("quick", {"tfs": [1, 2.0]}),
            ("quick", {"tfs": ["1", 2]}),
            ("quick", {"tfs": [True, 2]}),
            ("quick", {"positions": [1, 0, 1.0]}),
            ("quick", {"positions": [1, "0", 1]}),
            ("quick", {"positions": [True, 0, 1]}),
            ("quick", {"positions": [1, 1, 0]}),  # falls inside d3
            ("quick", {"positions": [1, 0, 0]}),  # repeats inside d3
            ("quick", {"tfs": [1, 1]}),  # sums to 2, cf is 3
            ("barks", {"cf": 0, "tfs": [0], "positions": []}),
            ("quick", {"doc_ids": [2, 2]}),
            ("quick", {"doc_ids": [0, 5]}),  # n_docs is 5
            ("quick", {"doc_ids": [-1, 2]}),
            ("quick", {"doc_ids": {}, "df": 0}),
            ("quick", {"positions": [-7, 0, 1]}),  # before d1's first token
            ("quick", {"positions": [999, 0, 1]}),  # past d1's 4 tokens
            ("quick", {"positions": [1, 0, 3]}),  # past d3's 3 tokens
        ],
    )
    def test_bad_postings_columns_are_corrupt(self, tmp_path, term, fields):
        out = tmp_path / "ix"
        build_index(TOY5, out)
        file = out / "postings.jsonl"
        lines = []
        for line in file.read_text(encoding="utf-8").splitlines():
            obj = json.loads(line)
            lines.append(json.dumps({**obj, **fields}) if obj["term"] == term else line)
        file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorruptIndex) as err:
            load_index(out).postings("fox")
        assert "postings.jsonl" in str(err.value)

    def test_tf_below_one_is_named(self, tmp_path):
        out = tmp_path / "ix"
        build_index(TOY5, out)
        file = out / "postings.jsonl"
        lines = file.read_text(encoding="utf-8").splitlines()
        at = next(i for i, line in enumerate(lines) if json.loads(line)["term"] == "barks")
        lines[at] = json.dumps({**json.loads(lines[at]), "cf": 0, "tfs": [0], "positions": []})
        file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorruptIndex) as err:
            load_index(out).postings("fox")
        assert str(err.value) == f"corrupt index file {file}: line {at + 1}: tf below 1 for term 'barks'"

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        docs=st.lists(
            st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=300).map(" ".join), min_size=1, max_size=12
        )
    )
    def test_columns_equal_the_written_line(self, docs):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "ix"
            build_index([(f"d{i}", text) for i, text in enumerate(docs)], out)
            ix = load_index(out)
            lines = (out / "postings.jsonl").read_text(encoding="utf-8").splitlines()
            assert len(lines) == len(ix.terms())
            for obj in map(json.loads, lines):
                columns = tuple(map(tuple, ix.columns(obj["term"])))
                assert columns == (tuple(obj["doc_ids"]), tuple(obj["tfs"]), tuple(obj["positions"]))

    def test_doc_ids_share_one_int_per_document(self, tmp_path):
        # CPython shares only the ints up to 256: past them each JSON-decoded
        # id would be its own object
        corpus = [(f"d{i}", f"common w{i % 7} w{i % 11}") for i in range(600)]
        build_index(corpus, tmp_path / "ix")
        ix = load_index(tmp_path / "ix")
        doc_ids = [ix.columns(term)[0] for term in ix.terms()]
        assert doc_ids[0] == tuple(range(600))  # "common"
        values = set(chain.from_iterable(doc_ids))
        assert len(values) == 600
        assert len(set(map(id, chain.from_iterable(doc_ids)))) == len(values)
        assert all(d is doc_ids[0][d] for d in chain.from_iterable(doc_ids))

    def test_format_version_1_is_a_version_mismatch(self, tmp_path):
        out = tmp_path / "ix"
        out.mkdir()
        (out / "meta.json").write_text('{"format_version":1,"n_docs":1,"total_tokens":1,"avg_doc_len":1.0}\n')
        (out / "docs.jsonl").write_text('{"doc_id":0,"docno":"d1","doc_len":1,"text":"fox"}\n')
        (out / "postings.jsonl").write_text('{"term":"fox","df":1,"cf":1,"postings":[[0,1,[0]]]}\n')
        with pytest.raises(VersionMismatch) as err:
            load_index(out)
        assert "1" in str(err.value) and "2" in str(err.value)

    @pytest.mark.parametrize("field, value", [("avg_doc_len", 0), ("avg_doc_len", 3.4), ("total_tokens", 18)])
    def test_meta_stats_disagreeing_with_docs_are_corrupt(self, tmp_path, field, value):
        out = tmp_path / "ix"
        build_index(TOY5, out)  # 19 tokens over 5 documents
        meta = json.loads((out / "meta.json").read_text())
        assert meta[field] != value
        meta[field] = value
        (out / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(CorruptIndex) as err:
            load_index(out).postings("fox")
        assert "meta.json" in str(err.value)

    # d1 is doc_id 0 with 4 tokens; the five documents hold 19
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("text", None, "text must be a string, not null"),
            ("doc_len", 4.9, "doc_len must be an integer, not a float"),
            ("doc_id", False, "doc_id must be an integer, not a boolean"),
            ("doc_len", "4", "doc_len must be an integer, not a string"),
            ("docno", 1, "docno must be a string, not an integer"),
        ],
    )
    def test_docs_values_of_the_wrong_type_are_corrupt(self, tmp_path, key, value, message):
        out = tmp_path / "ix"
        build_index(TOY5, out)
        lines = (out / "docs.jsonl").read_text(encoding="utf-8").splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), key: value})
        (out / "docs.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorruptIndex) as err:
            load_index(out).postings("fox")
        assert str(err.value) == f"corrupt index file {out / 'docs.jsonl'}: line 1: {message}"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("n_docs", "5", "n_docs must be an integer, not a string"),
            ("total_tokens", 19.9, "total_tokens must be an integer, not a float"),
            ("avg_doc_len", "3.8", "avg_doc_len must be an integer or a float, not a string"),
            ("avg_doc_len", True, "avg_doc_len must be an integer or a float, not a boolean"),
        ],
    )
    def test_meta_values_of_the_wrong_type_are_corrupt(self, tmp_path, key, value, message):
        out = tmp_path / "ix"
        build_index(TOY5, out)
        meta = json.loads((out / "meta.json").read_text())
        meta[key] = value
        (out / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(CorruptIndex) as err:
            load_index(out).postings("fox")
        assert str(err.value) == f"corrupt index file {out / 'meta.json'}: bad stats fields: {message}"

    @pytest.mark.parametrize(
        "name, key", [("meta.json", b'"n_docs":'), ("docs.jsonl", b'"doc_len":'), ("postings.jsonl", b'"df":')]
    )
    def test_an_integer_past_the_digit_limit_is_corrupt(self, tmp_path, name, key):
        # more digits than int() converts: json.loads raises a plain ValueError
        out = tmp_path / "ix"
        build_index(TOY5, out)
        data = (out / name).read_bytes()
        (out / name).write_bytes(data.replace(key, key + b"9" * 5000, 1))
        with pytest.raises(CorruptIndex) as err:
            load_index(out).columns("fox")
        where = "invalid JSON" if name == "meta.json" else "line 1"
        assert str(err.value).startswith(f"corrupt index file {out / name}: {where}: Exceeds the limit")

    @pytest.mark.parametrize("name", ["meta.json", "docs.jsonl", "postings.jsonl"])
    def test_deep_nesting_is_corrupt(self, tmp_path, name):
        # deeper than the JSON decoder recurses: a RecursionError, not a ValueError
        out = tmp_path / "ix"
        build_index(TOY5, out)
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        lines[0] = "[" * 100_000
        (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorruptIndex) as err:
            load_index(out).postings("fox")
        where = "invalid JSON" if name == "meta.json" else "line 1"
        assert str(err.value).startswith(f"corrupt index file {out / name}: {where}: ")

    def test_a_term_that_is_not_a_string_is_corrupt(self, tmp_path):
        out = tmp_path / "ix"
        build_index(TOY5, out)
        file = out / "postings.jsonl"
        lines = file.read_text(encoding="utf-8").splitlines()
        at = next(i for i, line in enumerate(lines) if json.loads(line)["term"] == "barks")
        lines[at] = json.dumps({**json.loads(lines[at]), "term": 5})
        file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorruptIndex) as err:
            load_index(out).terms()
        assert str(err.value) == f"corrupt index file {file}: line {at + 1}: term must be a string, not an integer"

    @pytest.mark.parametrize(
        "line, detail",
        [
            ('{"doc_id": 5, "docno": "d2", "doc_len": 3, "text": "the lazy dog"}', "doc_id 5 is not dense"),
            ('{"doc_id": 1, "docno": "d1", "doc_len": 3, "text": "the lazy dog"}', "duplicate docno 'd1'"),
        ],
    )
    def test_docs_ids_must_be_dense_and_docnos_unique(self, tmp_path, line, detail):
        out = tmp_path / "ix"
        build_index(TOY5, out)
        lines = (out / "docs.jsonl").read_text(encoding="utf-8").splitlines()
        lines[1] = line
        (out / "docs.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorruptIndex) as err:
            load_index(out).postings("fox")
        assert str(err.value) == f"corrupt index file {out / 'docs.jsonl'}: line 2: {detail}"


@pytest.fixture(scope="module")
def fuzz_source(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "ix"
    build_index(TOY5 + [("d6", "naïve café — “quoted” fox")], out)
    return out


def _touch_everything(ix):
    for docno in ix.docnos():
        assert docno in ix
        ix.text(docno)
    assert len(ix.doc_lens()) == ix.n_docs
    for term in ix.terms():
        ix.postings(term)
        ix.df(term)
        ix.cf(term)


@settings(max_examples=300, deadline=None, database=None)
@given(
    name=st.sampled_from(["meta.json", "docs.jsonl", "postings.jsonl"]),
    where=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    flip=st.one_of(st.none(), st.integers(min_value=1, max_value=255)),
)
def test_damaged_file_loads_or_is_corrupt(fuzz_source, name, where, flip):
    """Truncate a file (flip is None) or XOR one of its bytes with flip."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "ix"
        shutil.copytree(fuzz_source, out)
        data = bytearray((out / name).read_bytes())
        at = int(where * len(data))
        if flip is None:
            del data[at:]
        else:
            data[at] ^= flip
        (out / name).write_bytes(bytes(data))
        try:
            _touch_everything(load_index(out))
        except (CorruptIndex, VersionMismatch):
            pass


class TestLexiconInvariants:
    def test_df_cf_bounds_and_totals(self, toy_index):
        total = 0
        for term in toy_index.terms():
            df, cf = toy_index.df(term), toy_index.cf(term)
            assert df <= toy_index.n_docs
            assert cf >= df
            total += cf
        assert total == toy_index.stats().total_tokens

    def test_posting_positions_match_tf(self, toy_index):
        for term in toy_index.terms():
            for _, tf, positions in toy_index.postings(term):
                assert tf == len(positions)
                assert list(positions) == sorted(set(positions))


def positions_in(index, term, docno):
    """Positions of *term* in the document *docno*, () if absent."""
    doc_id = index.docnos().index(docno)
    return next((pos for d, _, pos in index.postings(term) if d == doc_id), ())


class TestOrderedWindow:
    def test_adjacent_pair(self, toy_index):
        quick, brown = (positions_in(toy_index, t, "d1") for t in ("quick", "brown"))
        assert count_adjacent(quick, brown) == 1

    def test_repeated_term_pair(self, toy_index):
        quick = positions_in(toy_index, "quick", "d3")
        assert count_adjacent(quick, quick) == 1

    def test_absent_term_is_zero(self, toy_index):
        for docno in ("d1", "d2", "d3", "d4", "d5"):
            quick, zzz = (positions_in(toy_index, t, docno) for t in ("quick", "zzz"))
            assert count_adjacent(quick, zzz) == 0

    def test_adjacent_counts_match_row_view(self, toy_index):
        terms = toy_index.terms()
        for t1 in terms:
            for t2 in terms:
                second = {d: pos for d, _, pos in toy_index.postings(t2)}
                expected = [
                    (d, count_adjacent(pos, second[d])) for d, _, pos in toy_index.postings(t1) if d in second
                ]
                ids, counts = adjacent_counts(toy_index.columns(t1), toy_index.columns(t2))
                assert list(zip(ids, counts)) == [(d, c) for d, c in expected if c]

    def test_bounded_by_min_tf(self, toy_index):
        terms = toy_index.terms()
        for t1 in terms:
            for t2 in terms:
                for doc_id, docno in enumerate(toy_index.docnos()):
                    pa, pb = (positions_in(toy_index, t, docno) for t in (t1, t2))
                    count = count_adjacent(pa, pb)
                    tf1 = next((tf for d, tf, _ in toy_index.postings(t1) if d == doc_id), 0)
                    tf2 = next((tf for d, tf, _ in toy_index.postings(t2) if d == doc_id), 0)
                    assert count <= min(tf1, tf2)


class TestReadCorpus:
    def test_jsonl_round_trip(self, tmp_path):
        f = tmp_path / "corpus.jsonl"
        f.write_text(
            "\n".join(json.dumps({"docno": d, "text": t}) for d, t in TOY5) + "\n",
            encoding="utf-8",
        )
        assert list(read_corpus(f)) == TOY5

    def test_blank_lines_are_skipped(self, tmp_path):
        f = tmp_path / "corpus.jsonl"
        lines = [json.dumps({"docno": "d1", "text": "a"}), "", "  \t", json.dumps({"docno": "d2", "text": "b"})]
        f.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert list(read_corpus(f)) == [("d1", "a"), ("d2", "b")]

    @pytest.mark.parametrize("line", ['{"docno": 1' + "0" * 5000 + "}", "[" * 100_000])
    def test_json_the_decoder_refuses_is_format_error(self, tmp_path, line):
        # an integer literal longer than int() takes, and nesting deeper than the decoder recurses
        f = tmp_path / "corpus.jsonl"
        f.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=":1: invalid JSON"):
            list(read_corpus(f))

    @pytest.mark.parametrize("key", ["docno", "text"])
    @pytest.mark.parametrize(
        "value, kind", [(None, "null"), (True, "a boolean"), ({"a": 1}, "an object"), (["x"], "an array")]
    )
    def test_docno_or_text_not_a_string_or_number_is_format_error(self, tmp_path, key, value, kind):
        f = tmp_path / "corpus.jsonl"
        fields = {"docno": "d2", "text": "alpha beta", key: value}
        f.write_text(json.dumps({"docno": 1, "text": 2.5}) + "\n" + json.dumps(fields) + "\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            list(read_corpus(f))
        assert str(err.value) == f"{f}:2: {key} must be a string or a number, not {kind}"
        # numbers are read as their str, as before
        assert next(read_corpus(f)) == ("1", "2.5")

    @pytest.mark.parametrize("line", ['["d1", "alpha"]', '"d1 alpha"', "7"])
    def test_json_that_is_not_an_object_is_format_error(self, tmp_path, line):
        f = tmp_path / "corpus.jsonl"
        f.write_text('{"docno": "d1", "text": "x"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            list(read_corpus(f))
        assert str(err.value) == f"{f}:2: expected an object with docno and text"

    def test_bad_line_reports_position(self, tmp_path):
        f = tmp_path / "corpus.jsonl"
        f.write_text('{"docno":"d1","text":"x"}\nnot json\n', encoding="utf-8")
        with pytest.raises(FormatError) as err:
            list(read_corpus(f))
        assert ":2" in str(err.value)
