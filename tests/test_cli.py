import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowrank

from flowrank.algebra import execute
from flowrank.cli import main
from flowrank.dsl import elaborate, parse
from flowrank.frames import format_trec_run, read_topics
from flowrank.index import load_index
from flowrank.transformers import registry

from conftest import TOY5


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        "".join(json.dumps({"docno": d, "text": t}) + "\n" for d, t in TOY5), encoding="utf-8"
    )
    topics = tmp_path / "topics.tsv"
    topics.write_text("q1\tquick fox\nq2\tlazy dog\n", encoding="utf-8")
    assert main(["index", "--corpus", str(corpus), "--out", "ix"]) == 0
    return tmp_path


class TestIndexCommand:
    def test_reports_counts(self, workspace, capsys):
        assert main(["index", "--corpus", "corpus.jsonl", "--out", "ix2"]) == 0
        out = capsys.readouterr().out
        assert "5 documents" in out and "19 tokens" in out

    def test_duplicate_docno_is_domain_error(self, tmp_path, capsys):
        corpus = tmp_path / "dup.jsonl"
        corpus.write_text(
            json.dumps({"docno": "d1", "text": "a"}) + "\n" + json.dumps({"docno": "d1", "text": "b"}) + "\n"
        )
        assert main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "ix")]) == 1
        assert "duplicate docno" in capsys.readouterr().err


class TestSearchCommand:
    def test_trec_output(self, workspace, capsys):
        code = main(["search", "--index", "ix", "--pipeline", "bm25", "--topics", "topics.tsv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "q1 Q0 d3 0 1.869323 flowrank"
        assert all(len(line.split(" ")) == 6 for line in lines)

    def test_byte_identical_across_runs(self, workspace, capsys):
        main(["search", "--index", "ix", "--pipeline", "bm25", "--topics", "topics.tsv"])
        first = capsys.readouterr().out
        main(["search", "--index", "ix", "--pipeline", "bm25", "--topics", "topics.tsv"])
        second = capsys.readouterr().out
        assert first == second

    def test_custom_tag(self, workspace, capsys):
        main(["search", "--index", "ix", "--pipeline", "bm25", "--topics", "topics.tsv", "--tag", "t7"])
        assert capsys.readouterr().out.splitlines()[0].endswith(" t7")

    def test_pipeline_from_file(self, workspace, capsys):
        (workspace / "pipe.txt").write_text("bm25 >> text_loader >> rescore\n".strip())
        code = main(["search", "--index", "ix", "--pipeline", "@pipe.txt", "--topics", "topics.tsv"])
        assert code == 0
        assert capsys.readouterr().out

    def test_answer_pipeline_is_not_a_ranking(self, workspace, capsys):
        code = main(
            ["search", "--index", "ix", "--topics", "topics.tsv", "--pipeline",
             "rrf(bm25, sdm >> wbm25) >> text_loader >> rescore >> answer"]
        )
        assert code == 1
        assert "not a ranking" in capsys.readouterr().err

    def test_not_a_ranking_is_refused_before_the_index_data_loads(self, workspace, capsys, monkeypatch):
        loaded = []

        def load(path):
            loaded.append(load_index(path))
            return loaded[-1]

        monkeypatch.setattr("flowrank.cli.load_index", load)
        argv = ["search", "--index", "ix", "--topics", "topics.tsv", "--pipeline", "bm25 >> text_loader >> answer"]
        assert main(argv) == 1
        assert "pipeline output is not a ranking: missing columns" in capsys.readouterr().err
        assert len(loaded) == 1 and not loaded[0].data_loaded

    def test_spaced_qid_fails_before_any_output(self, workspace, capsys):
        (workspace / "spaced.tsv").write_text("q1\tquick fox\nq 1\tquick\n", encoding="utf-8")
        assert main(["search", "--index", "ix", "--pipeline", "bm25", "--topics", "spaced.tsv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: qid 'q 1' cannot be written to a TREC run: it is empty or holds whitespace\n"

    @pytest.mark.parametrize("tag", ["my run", ""])
    def test_spaced_or_empty_tag_fails_before_any_output(self, workspace, capsys, tag):
        assert main(["search", "--index", "ix", "--pipeline", "bm25", "--topics", "topics.tsv", "--tag", tag]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tag {tag!r} cannot be written to a TREC run: it is empty or holds whitespace\n"

    @pytest.mark.parametrize("chunk", [1, 4, 6, 7])
    def test_chunked_run_equals_format_trec_run(self, workspace, capsys, monkeypatch, chunk):
        # 6 lines: chunks of 1 and 6 divide them, 4 leaves a partial last chunk, 7 is one chunk
        monkeypatch.setattr("flowrank.cli.TREC_CHUNK_LINES", chunk)
        expr = "sdm >> wbm25"
        assert main(["search", "--index", "ix", "--pipeline", expr, "--topics", "topics.tsv"]) == 0
        out = capsys.readouterr().out
        node = elaborate(parse(expr), registry(load_index("ix")))
        expected = format_trec_run(execute(node, read_topics("topics.tsv")), "flowrank")
        assert len(expected.splitlines()) == 6
        assert out.encode("utf-8") == expected.encode("utf-8")

    def test_reader_closing_the_pipe_early_is_no_traceback(self, tmp_path):
        """`flowrank search ... | head -n 1`: 10 topics of 1,000 lines each,
        far more than a pipe buffers, so writes go on after the reader left."""
        corpus = tmp_path / "corpus.jsonl"
        docs = ({"docno": f"d{i}", "text": "a " * (1 + i % 7)} for i in range(1000))
        corpus.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        (tmp_path / "topics.tsv").write_text("".join(f"q{i}\ta\n" for i in range(10)))
        assert main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "ix")]) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(flowrank.__file__).resolve().parent.parent)}
        argv = [sys.executable, "-m", "flowrank.cli", "search", "--index", "ix", "--pipeline", "bm25"]
        argv += ["--topics", "topics.tsv"]
        proc = subprocess.Popen(argv, cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert first.startswith(b"q0 Q0 d")
        assert err == b""


class TestClosedStdout:
    """Every command that writes a report ends as a closed pipe does when
    the shell closed its standard output (`>&-`): exit 1, nothing on stderr."""

    def _run_with_stdout_closed(self, cwd, *args):
        env = {**os.environ, "PYTHONPATH": str(Path(flowrank.__file__).resolve().parent.parent)}
        argv = ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "flowrank.cli", *args]
        return subprocess.run(argv, cwd=cwd, env=env, stderr=subprocess.PIPE, timeout=60)

    def test_search(self, workspace):
        args = ["search", "--index", "ix", "--pipeline", "bm25", "--topics", "topics.tsv"]
        proc = self._run_with_stdout_closed(workspace, *args)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_schematic(self, workspace):
        args = ["schematic", "--index", "ix", "--pipeline", "bm25", "--format", "text"]
        proc = self._run_with_stdout_closed(workspace, *args)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_index(self, workspace):
        proc = self._run_with_stdout_closed(workspace, "index", "--corpus", "corpus.jsonl", "--out", "ix2")
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_inspect(self, workspace):
        proc = self._run_with_stdout_closed(workspace, "inspect", "--index", "ix", "--pipeline", "bm25")
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_validate(self, workspace):
        proc = self._run_with_stdout_closed(workspace, "validate", "--index", "ix", "--pipeline", "bm25")
        assert (proc.returncode, proc.stderr) == (1, b"")


class TestDamagedInputs:
    """An unreadable input file is a domain error naming it: exit 1, no traceback."""

    def _fails_naming(self, capsys, argv, *parts):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        for part in parts:
            assert part in captured.err

    def test_topics_not_utf8(self, workspace, capsys):
        (workspace / "bad.tsv").write_bytes(b"q1\tquick fox\r\nq2\tlazy\xff dog\n")
        argv = ["search", "--index", "ix", "--pipeline", "bm25", "--topics", "bad.tsv"]
        self._fails_naming(capsys, argv, "bad.tsv:2:", "0xff", "not UTF-8")

    def test_topics_missing(self, workspace, capsys):
        argv = ["search", "--index", "ix", "--pipeline", "bm25", "--topics", "nosuch.tsv"]
        self._fails_naming(capsys, argv, "cannot read nosuch.tsv")

    def test_corpus_not_utf8(self, workspace, capsys):
        good = json.dumps({"docno": "d1", "text": "a"}).encode()
        (workspace / "bad.jsonl").write_bytes(good + b"\n" + good.replace(b"d1", b"d\xc3") + b"\n")
        argv = ["index", "--corpus", "bad.jsonl", "--out", "ix2"]
        self._fails_naming(capsys, argv, "bad.jsonl:2:", "0xc3", "not UTF-8")

    def test_corpus_missing(self, workspace, capsys):
        self._fails_naming(capsys, ["index", "--corpus", "nosuch.jsonl", "--out", "ix2"], "cannot read nosuch.jsonl")

    def test_pipeline_file_missing(self, workspace, capsys):
        argv = ["search", "--index", "ix", "--pipeline", "@nosuch.txt", "--topics", "topics.tsv"]
        self._fails_naming(capsys, argv, "cannot read nosuch.txt")

    def test_schematic_out_not_writable(self, workspace, capsys):
        argv = ["schematic", "--index", "ix", "--pipeline", "bm25", "--out", "nosuch/x.html"]
        self._fails_naming(capsys, argv, "cannot write nosuch/x.html", "No such file or directory")

    def test_pipeline_file_not_utf8(self, workspace, capsys):
        (workspace / "pipe.txt").write_bytes(b"bm25 >>\n\xe9")
        argv = ["search", "--index", "ix", "--pipeline", "@pipe.txt", "--topics", "topics.tsv"]
        self._fails_naming(capsys, argv, "pipe.txt:2:", "0xe9")


class TestValidateCommand:
    def test_ok(self, workspace, capsys):
        code = main(["validate", "--index", "ix", "--pipeline", "bm25 >> text_loader >> rescore"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_failure_names_missing_text(self, workspace, capsys):
        code = main(["validate", "--index", "ix", "--pipeline", "bm25 >> rescore"])
        assert code == 1
        err = capsys.readouterr().err
        assert "invalid pipeline at [1]" in err and "text" in err

    def test_custom_input_columns(self, workspace, capsys):
        code = main(
            ["validate", "--index", "ix", "--pipeline", "text_loader", "--input-columns", "docno"]
        )
        assert code == 0

    def test_parse_error_is_domain_error(self, workspace, capsys):
        code = main(["validate", "--index", "ix", "--pipeline", "a >> >> b"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_deep_nesting_is_domain_error(self, workspace, capsys):
        code = main(["validate", "--index", "ix", "--pipeline", "(" * 2000 + "bm25" + ")" * 2000])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: 1:101: more than 100 nested")


class TestInspectCommand:
    def test_prints_io_and_subtransformers(self, workspace, capsys):
        code = main(["inspect", "--index", "ix", "--pipeline", "bm25 >> text_loader"])
        assert code == 0
        out = capsys.readouterr().out
        assert "{qid, query}" in out
        assert "text" in out
        assert "[0] bm25" in out and "[1] text_loader" in out
        assert "k1=1.200000" in out


class TestSchematicCommand:
    def test_text_format(self, workspace, capsys):
        code = main(["schematic", "--index", "ix", "--pipeline", "bm25 >> text_loader", "--format", "text"])
        assert code == 0
        assert capsys.readouterr().out == "--Q--> [bm25] --R--> [text_loader] --R+-->\n"

    def test_html_to_file(self, workspace, capsys):
        out_file = workspace / "schematic.html"
        code = main(
            ["schematic", "--index", "ix", "--pipeline", "bm25", "--format", "html",
             "--out", str(out_file)]
        )
        assert code == 0
        html = out_file.read_text(encoding="utf-8")
        assert 'data-schematic-version="1"' in html and 'data-path=""' in html


class TestServeCommand:
    def test_repeated_tool_name_is_refused_before_binding(self, workspace, capsys, monkeypatch):
        served = []

        class Handle:
            url = "http://127.0.0.1:0/mcp"

            def join(self):
                pass

        monkeypatch.setattr("flowrank.cli.serve", lambda config: served.append(config) or Handle())
        argv = ["serve", "--index", "ix", "--pipelines", "a=bm25", "a=sdm >> wbm25", "--port", "0"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: --pipelines names the tool 'a' more than once\n"
        assert served == []


    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_a_port_outside_0_65535_is_a_domain_error(self, workspace, port):
        env = {**os.environ, "PYTHONPATH": str(Path(flowrank.__file__).resolve().parent.parent)}
        argv = [sys.executable, "-m", "flowrank.cli", "serve", "--index", "ix", "--pipelines", "a=bm25"]
        proc = subprocess.run(argv + ["--port", port], cwd=workspace, env=env, capture_output=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: cannot bind 127.0.0.1:{port}: ".encode())
        assert b"Traceback" not in proc.stderr


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["search", "--index", "ix"])
        assert err.value.code == 2
