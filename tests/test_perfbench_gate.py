"""The benchmark's correctness gate, run on one reference seed per workload.

``perfbench/run.py`` rejects every operation whose report drifts from the
committed references under ``perfbench/reference/``; running one seed of
each workload here turns such a drift into a tier-1 failure.  A count guard
pins what one warm operation of each workload pays for outside its arrays.
"""

import collections
import importlib.util
import json
import json.encoder
import sys
from pathlib import Path

import numpy as np
import pytest

import qkt.cli as cli
import qkt.expressions as expressions
import qkt.qkt_connection as qkt_connection
import qkt.tensor_core as tensor_core

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
# triple's sp(1) maps.  It runs the eigensolver once, in the build check,
# since f g_0 is checked by f times g_0's least eigenvalue, and the flat
# metric g_0 is one object per dimension and process (before, each operation
# built its own, with one more eigvalsh call); and no expression walk takes
# the checked path.  Before, conf8_curv / conf8_all / hopf4_all made 2 / 5 / 3
# solve calls, 5 / 8 / 6 eigvalsh calls and 6 / 12 / 8 checked walks of the
# conformal factor.
# It builds stencil points once per gradient call, 5 / 10 / 7 times: each
# differenced context once for f at step h, and each slice of a step-h2
# pass once, and the slice's context once for its f.  Before, each of them
# built its points a second time beside the gradient call's, 10 / 20 / 14.
# The report writer enters no pure-Python JSON encoder (before, json.dumps
# with an indent entered json.encoder._make_iterencode once).  Each stencil
# slice differences the step-h2 layers that the run reads: 3 per conf8_curv
# slice (T, Gamma, Gamma^g), where it differenced t and the lchkt candidates
# too, 5; 5 per conf8_all slice and 6 per hopf4_all slice, as before.
# Every context reads its first-order layers as matmuls by the first-order
# maps of (g_0, triple), built once per process: no context builds dF
# (QKTContext._dF, before 3 / 7 / 5 calls), and no operation builds the maps
WARM_COUNTS = {"conf8_curv": {"eigvalsh": 1, "stencil": 5, "_dF": 0, "maps": 0},
               "conf8_all": {"eigvalsh": 1, "stencil": 10, "_dF": 0, "maps": 0},
               "hopf4_all": {"eigvalsh": 1, "stencil": 7, "_dF": 0, "maps": 0}}
SLICE_LAYERS = {"conf8_curv": [3, 3], "conf8_all": [5, 5, 5, 5], "hopf4_all": [6, 6, 6]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_a_warm_operation_solves_nothing_and_walks_no_expression_checked(
        workload, tmp_path, monkeypatch, capsys):
    path = tmp_path / "report.json"
    assert cli.main(workloads.verify_argv(workload, SEED, path)) == 0
    counts = collections.Counter()
    for owner, name in ((np.linalg, "solve"), (np.linalg, "eigvalsh"), (expressions, "_Failures"),
                        (tensor_core, "stencil"), (json.encoder, "_make_iterencode")):
        original = getattr(owner, name)
        # in every qkt namespace that imported it, too
        holders = [owner] + [module for key, module in sys.modules.items()
                             if key.startswith("qkt.") and vars(module).get(name) is original]
        for holder in dict.fromkeys(holders):
            monkeypatch.setattr(holder, name, lambda *args, _original=original, _name=name,
                                **kwargs: counts.update([_name]) or _original(*args, **kwargs))
    slice_layers, gradient = [], qkt_connection.gradient

    def recording(field, p, scheme, nested=False):
        def recorded(q):
            values = field(q)
            if nested:
                slice_layers.append(len(values))
            return values
        return gradient(recorded, p, scheme, nested)

    monkeypatch.setattr(qkt_connection, "gradient", recording)
    counts.update(_dF=0)
    dF = qkt_connection.QKTContext._dF
    monkeypatch.setattr(qkt_connection.QKTContext, "_dF",
                        lambda ctx: counts.update(["_dF"]) or dF(ctx))
    builds = qkt_connection._first_order_maps.cache_info().misses
    assert cli.main(workloads.verify_argv(workload, SEED + 1, path)) == 0
    counts["maps"] = qkt_connection._first_order_maps.cache_info().misses - builds
    assert counts == WARM_COUNTS[workload]
    assert counts["_make_iterencode"] == 0
    assert slice_layers == SLICE_LAYERS[workload]
