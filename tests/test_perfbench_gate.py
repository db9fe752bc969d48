"""The benchmark's correctness gate, run on one reference seed per workload.

``perfbench/run.py`` rejects every operation whose report drifts from the
committed references under ``perfbench/reference/``; running one seed of
each workload here turns such a drift into a tier-1 failure.  A count guard
pins what one warm operation of each workload pays for outside its arrays.
"""

import collections
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import qkt.cli as cli
import qkt.expressions as expressions

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


# One warm operation (the standard triple's maps already built in the
# process) solves no linear system: omega and d omega are matmuls by the
# triple's sp(1) maps.  It runs the eigensolver twice, in the ConstantMetric
# constructor and in the build check, since f g_0 is checked by f times g_0's
# least eigenvalue; and no expression walk takes the checked path.  Before,
# conf8_curv / conf8_all / hopf4_all made 2 / 5 / 3 solve calls, 5 / 8 / 6
# eigvalsh calls and 6 / 12 / 8 checked walks of the conformal factor
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_a_warm_operation_solves_nothing_and_walks_no_expression_checked(
        workload, tmp_path, monkeypatch, capsys):
    path = tmp_path / "report.json"
    assert cli.main(workloads.verify_argv(workload, SEED, path)) == 0
    counts = collections.Counter()
    for owner, name in ((np.linalg, "solve"), (np.linalg, "eigvalsh"), (expressions, "_Failures")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _original=original, _name=name, **kwargs:
                            counts.update([_name]) or _original(*args, **kwargs))
    assert cli.main(workloads.verify_argv(workload, SEED + 1, path)) == 0
    assert counts == {"eigvalsh": 2}
