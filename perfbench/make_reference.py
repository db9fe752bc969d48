"""Write the committed reference reports for the benchmark's seed pool.

Run from the repository root, one workload per call:

    python3 perfbench/make_reference.py conf8_all

Each pool seed is verified once in-process and the parts of its report
that the correctness gate compares are stored in
``perfbench/reference/<workload>.json``.  Regenerate only when the
program's residuals are meant to change.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib
import io
import json
import sys
from pathlib import Path

from workloads import HERE, POOL, REFERENCE_DIR, WORKLOADS, summarize, verify_argv

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qkt import cli  # noqa: E402


def main(workload: str) -> int:
    seeds = {}
    rows = None
    work = HERE / "work"
    work.mkdir(exist_ok=True)
    report_path = work / f"reference_{workload}.json"
    for halton_seed in range(POOL):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(verify_argv(workload, halton_seed, report_path))
        report = json.loads(report_path.read_text(encoding="utf-8"))
        entry = summarize(report, code)
        if code != 0 or not all(entry["pass"]):
            raise SystemExit(f"{workload} seed {halton_seed}: exit {code}")
        if rows is None:
            rows = entry["rows"]
        elif entry["rows"] != rows:
            raise SystemExit(f"{workload} seed {halton_seed}: row set changed")
        del entry["rows"]
        seeds[str(halton_seed)] = entry
    REFERENCE_DIR.mkdir(exist_ok=True)
    out = {"args": WORKLOADS[workload], "rows": rows, "seeds": seeds}
    path = REFERENCE_DIR / f"{workload}.json"
    path.write_text(json.dumps(out, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"{workload}: {len(seeds)} seeds, {len(rows)} rows -> {path}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in WORKLOADS:
        raise SystemExit(f"usage: make_reference.py {{{','.join(WORKLOADS)}}}")
    raise SystemExit(main(sys.argv[1]))
