"""Source guard: no point-keyed memo layer and no mutable structure state.

Every quantity of a built structure is a layer of the evaluation context
that ``QKTStructure.at(x)`` returns for one point array; nothing is cached
per structure or keyed by the bytes of a point array, whose shape those
bytes do not carry.
"""

import ast
import dataclasses
import functools
from collections.abc import Mapping
from pathlib import Path

from qkt.qkt_connection import QKTContext, QKTStructure
from qkt.zoo import ManifoldSpec, build_manifold

SRC = Path(__file__).resolve().parent.parent / "src" / "qkt"


def tobytes_calls(source: str, filename: str) -> list:
    """(file, line) of every ``.tobytes()`` call."""
    return [(filename, node.lineno) for node in ast.walk(ast.parse(source, filename))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "tobytes"]


def test_guard_detects_tobytes():
    code = "key = p.tobytes()\nother = np.asarray(p).tobytes()\nbytes(p)\n"
    assert tobytes_calls(code, "probe.py") == [("probe.py", 1), ("probe.py", 2)]


def test_no_tobytes_in_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        found += tobytes_calls(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def test_structure_fields_hold_no_dict():
    assert all(field.type not in ("dict", dict) for field in dataclasses.fields(QKTStructure))
    for spec in (ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)", point_count=1),
                 ManifoldSpec(kind="hopf_local", n=1, point_count=1)):
        struct = build_manifold(spec)
        for field in dataclasses.fields(struct):
            assert not isinstance(getattr(struct, field.name), dict), field.name
        assert not hasattr(struct, "caches")


def test_no_context_layer_is_a_mapping():
    # every pointwise quantity is its own layer, not an entry of a dict layer
    names = [name for name, attr in vars(QKTContext).items()
             if isinstance(attr, (functools.cached_property, property))
             and not name.startswith("_stencil") and name != "base"]
    for spec in (ManifoldSpec(kind="conformal_flat", n=2, f="exp(x1)", point_count=1),
                 ManifoldSpec(kind="hopf_local", n=1, point_count=1)):
        struct = build_manifold(spec)
        ctx = struct.at(struct.patch.center())
        for name in names:
            assert not isinstance(getattr(ctx, name), Mapping), name
    assert {"theta", "theta_cross", "dcF_plus", "K", "existence"} <= set(names)
