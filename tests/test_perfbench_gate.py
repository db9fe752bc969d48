"""The benchmark's correctness gate, run on one reference seed per workload.

``perfbench/run.py`` rejects every operation whose report drifts from the
committed references under ``perfbench/reference/``; running one seed of
each workload here turns such a drift into a tier-1 failure.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import qkt.cli as cli

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

SEED = 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_reference_seed_passes_gate(workload, tmp_path, capsys):
    path = tmp_path / "report.json"
    code = cli.main(workloads.verify_argv(workload, SEED, path))
    report = json.loads(path.read_text(encoding="utf-8"))
    assert workloads.check(workloads.load_reference(workload), SEED, report, code) is None


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_negative_control_fails(workload, tmp_path, capsys):
    path = tmp_path / "report.json"
    code = cli.main(workloads.verify_argv(workload, SEED, path, workloads.TILT_ARGS))
    report = json.loads(path.read_text(encoding="utf-8"))
    assert code == 1
    assert not all(row["pass"] for row in report["results"])
