"""Helpers shared by the workloads and the child launchers."""

from __future__ import annotations

import json
import os
import queue
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def import_flowrank():
    """Import flowrank from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "flowrank" / "__init__.py").is_file():
        raise SystemExit(f"bench: no flowrank sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import flowrank
    import flowrank.cli  # noqa: F401  (cli is not imported by the package)

    if Path(flowrank.__file__).resolve().parent != SRC / "flowrank":
        raise SystemExit(f"bench: imported flowrank from {flowrank.__file__}, not {SRC}")
    return flowrank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (the 'inclusive' method), q in [0, 100]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values)


def latency_metrics(seconds: list[float], wall: float) -> tuple[dict, dict]:
    """Op latency metrics, and the sample counts behind them."""
    p90 = percentile(seconds, 90)
    metrics = {"op_p50_ms": 1000 * median(seconds), "op_p90_ms": 1000 * p90, "ops_per_s": len(seconds) / wall}
    return metrics, {"ops": len(seconds), "ops_beyond_p90": sum(1 for s in seconds if s > p90)}


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def work_dir(name: str) -> Path:
    path = BENCH / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def timed(fn, *args, **kwargs):
    """(result, seconds) of one call."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


class LineChild:
    """A child process spoken to by lines on stdin and stdout.

    Reads happen on a helper thread so that every wait has a timeout; the
    child is always killed and reaped by :meth:`close`.
    """

    def __init__(self, argv: list[str]):
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def receive(self, timeout: float) -> dict:
        """Next JSON line from the child."""
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError(f"child gave no reply within {timeout} s") from None
        if line is None:
            raise RuntimeError(f"child exited with code {self.proc.wait(timeout=10)}")
        return json.loads(line)

    def close(self, timeout: float = 10) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=timeout)
        self._reader.join(timeout=timeout)


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")
