"""Smoke test of the benchmark's outside-in layer tracer.

``perfbench/run.py --trace 1`` wraps the qkt names listed in
``perfbench/layertrace.py``; a rename of any of them breaks the traced
benchmark with a ``KeyError``, so one traced operation runs here.
"""

import importlib.util
import re
import sys
from pathlib import Path

import qkt.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layertrace = _load("layertrace")
workloads = _load("workloads")

TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')
# one conf8_curv operation makes 6 gradient calls, each one field call on a
# point array: at step h only the conformal factor f is differenced (dg and the
# dF_a follow from df by the product rule), and the flat structures take none.
# The build's check context and the one sample context difference f, and each
# of the sample context's two one-point stencil slices its own f and, in one
# call, T, Gamma, Gamma^g and omega at h2.  It made 12 with one call per slice
# and layer, 13 with one context per sample point, 17 with g and the F_a
# differenced apart, 78 with one call per stencil point, and 266 with one
# stencil per Kaehler form and per almost complex structure
GRADIENT_CALLS_MAX = 6


def _report(tmp_path, name):
    path = tmp_path / f"{name}.json"
    code = cli.main(workloads.verify_argv("conf8_curv", 0, path))
    assert code == 0
    return TIMESTAMP.sub("", path.read_text(encoding="utf-8"))


def test_traced_names_resolve_and_tracing_changes_nothing(tmp_path, capsys):
    for _, module, path, _ in layertrace.TRACED:
        owner = sys.modules[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(vars(owner)[attr]), path

    plain = _report(tmp_path, "plain")
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        traced = _report(tmp_path, "traced")
    finally:
        tracer.uninstall()
    assert traced == plain
    assert _report(tmp_path, "after") == plain

    calls = tracer.layer_seconds()
    assert 0 < calls["tensor_core.gradient"][0] <= GRADIENT_CALLS_MAX
    # one curvature per connection (torsion and Levi-Civita) in the one
    # context of both sample points
    assert calls["curvature.curvature_tensor"][0] == 2
