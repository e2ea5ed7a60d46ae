"""Run one ``flowrank`` command in this fresh interpreter and report on it.

    python3 bench/cli_child.py REPORT.json [--trace OP] -- <flowrank arguments>

The command's own stdout and stderr pass through.  REPORT.json receives the
exit code, the seconds spent inside ``flowrank.cli.main``, the peak resident
set, and with ``--trace`` the tracer summary and spans, attributed to op OP.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from common import import_flowrank, peak_rss_mb, write_json
from tracing import Tracer


def main(argv: list[str]) -> int:
    split = argv.index("--")
    report_path, options, cli_args = argv[0], argv[1:split], argv[split + 1 :]
    fr = import_flowrank()
    tracer = None
    if options:
        tracer = Tracer()
        tracer.install()
        tracer.set_op(int(options[1]))
    t0 = time.perf_counter()
    try:
        rc = fr.cli.main(cli_args)
    finally:
        main_s = time.perf_counter() - t0
        sys.stdout.flush()
    report = {"exit": rc, "main_s": main_s, "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        report["summary"] = tracer.summary()
        report["spans"] = tracer.spans
    write_json(Path(report_path), report)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
