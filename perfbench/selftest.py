"""Self-checks of the benchmark; exits non-zero when one fails.

Run from the repository root:

    python3 perfbench/selftest.py              # every workload
    python3 perfbench/selftest.py hopf4_all    # one workload

Checks:
  * two traced runs with different seeds give exactly the same per-layer
    counts, and every per-layer metric is reported;
  * the correctness gate rejects a report whose residual moved past
    rounding, whose pass flag flipped, or whose exit code changed;
  * without the program's sources the benchmark exits non-zero and prints
    no result.
"""

import copy
import json
import shutil
import subprocess
import sys

from layertrace import metric_names
from run import END_TO_END
from workloads import HERE, WORKLOADS, check, load_reference

ROOT = HERE.parent


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def traced_counts(workload: str, seed: int) -> dict:
    done = run(["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stderr
    metrics = result["metrics"]
    assert set(metrics) == {name for name, _ in metric_names()}, sorted(metrics)
    return {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}


def check_counts_repeat(workload: str) -> None:
    first, second = traced_counts(workload, 1), traced_counts(workload, 2)
    differ = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    assert not differ, f"{workload}: counts differ between seeds: {differ}"
    print(f"ok  {workload}: {len(first)} per-layer counts repeat across two traced runs")


def check_gate(workload: str) -> None:
    reference = load_reference(workload)
    seed = next(iter(reference["seeds"]))
    expected = reference["seeds"][seed]
    report = {
        "meta": {"diagnostics": copy.deepcopy(expected["diagnostics"])},
        "results": [{"identity_id": row, "max_residual": value, "pass": flag}
                    for row, value, flag in zip(reference["rows"], expected["residuals"],
                                                expected["pass"])],
    }
    assert check(reference, int(seed), report, expected["exit"]) is None
    moved = copy.deepcopy(report)
    moved["results"][-1]["max_residual"] += 1e-6
    assert check(reference, int(seed), moved, expected["exit"]) is not None
    flipped = copy.deepcopy(report)
    flipped["results"][0]["pass"] = not flipped["results"][0]["pass"]
    assert check(reference, int(seed), flipped, expected["exit"]) is not None
    assert check(reference, int(seed), report, 1 - expected["exit"]) is not None
    print(f"ok  {workload}: the gate rejects moved residuals, flipped flags, exit codes")


def check_benchmark_json() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == set(END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == metric_names()
    print("ok  BENCHMARK.json names every workload and metric")


def check_no_sources() -> None:
    bare = HERE / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run(["--workload", "hopf4_all", "--seed", "1", "--seconds", "1", "--trace", "0"],
                   cwd=bare)
    finally:
        shutil.rmtree(bare)
    last = done.stdout.strip().splitlines()[-1:] or [""]
    assert done.returncode != 0 and '"metrics"' not in last[0], done.stdout
    print("ok  without sources the benchmark exits non-zero and prints no result")


def main(workloads) -> int:
    check_benchmark_json()
    for workload in workloads:
        check_gate(workload)
        check_counts_repeat(workload)
    check_no_sources()
    return 0


if __name__ == "__main__":
    chosen = sys.argv[1:] or list(WORKLOADS)
    unknown = set(chosen) - set(WORKLOADS)
    if unknown:
        raise SystemExit(f"unknown workload(s): {sorted(unknown)}")
    raise SystemExit(main(chosen))
