"""Smoke test: the whole benchmark on tiny corpora, so the script cannot rot.

    python3 -m pytest bench/test_smoke.py

Not part of the tier-1 suite (pytest's testpaths is ``tests``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(BENCH))
import gen  # noqa: E402
import metrics  # noqa: E402


def bench(root: Path, workload: str, trace: int, out: Path) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--smoke", "--out", str(out)]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_workload_runs_clean(workload, trace, tmp_path):
    proc = bench(ROOT, workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == expected
    record = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    assert {"python", "nproc", "corpus", "seed", "commit"} <= set(record["provenance"])
    if trace:
        assert record["unfired"] == []
        assert (tmp_path / f"{workload}-seed3-trace1.spans.jsonl").stat().st_size > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert record["metrics"]["error_rate"]["value"] == 0


def test_spec_matches_the_metric_tables():
    assert [w["name"] for w in SPEC["workloads"]] == list(metrics.GATED)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, (unit, _) in metrics.PER_LAYER.items()
    ]
    for m in SPEC["end_to_end"]:
        assert metrics.END_TO_END[m["name"]] == m["unit"]


def test_inputs_depend_only_on_the_seed():
    params = gen.CorpusParams(n_docs=50)
    assert gen.make_corpus(params, 7) == gen.make_corpus(params, 7)
    assert gen.make_queries(params, 7, 40) == gen.make_queries(params, 7, 40)
    assert gen.make_queries(params, 7, 40) != gen.make_queries(params, 8, 40)


def _copy_checkout(dest: Path, with_sources: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def test_fails_without_the_program(tmp_path):
    _copy_checkout(tmp_path, with_sources=False)
    proc = bench(tmp_path, "bm25_hot", 0, tmp_path / "out")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_wrong_scores_fail_the_run(tmp_path):
    _copy_checkout(tmp_path, with_sources=True)
    source = tmp_path / "src" / "flowrank" / "transformers.py"
    text = source.read_text(encoding="utf-8")
    assert "(k1 + 1.0)" in text
    source.write_text(text.replace("(k1 + 1.0)", "(k1 + 1.5)"), encoding="utf-8")
    proc = bench(tmp_path, "bm25_hot", 0, tmp_path / "out")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
