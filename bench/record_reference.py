"""Record the verify_grid reference that the benchmark's output check uses.

    python3 bench/record_reference.py 300000 2000

Runs ``meanlab verify --grid-min 0.1`` and ``meanlab conjecture`` once per
grid size and writes the pinned parts of the reports (link margins,
sharpness outcomes, conjecture sign) to ``bench/reference/``.  Run it only
at a commit whose reports are known good; the files are committed.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import run
import workloads


def record(points: int) -> Path:
    modules = run.import_meanlab()
    os.environ["MEANLAB_THREADS"] = "1"
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        wl = workloads.VerifyGrid(modules["cli"], Path(tmp), points=points)
        wl.prepare(0)
        rc_v, report, rc_c, conj = wl.op(0)
        if rc_v != 0 or rc_c != 0:
            raise SystemExit(f"verify exited {rc_v}, conjecture {rc_c}: not recording")
        summary = workloads.summarize_verify(json.loads(report.read_text()),
                                             json.loads(conj.read_text()))
    path = workloads.reference_path(points)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return path


if __name__ == "__main__":
    for arg in sys.argv[1:] or ["300000"]:
        print(record(int(arg)))
