"""Source guard: one build check.

The conditions for a torsion connection (a valid metric, the quaternionic
identities and, for n >= 2, the existence defect) are checked by one
function of ``qkt.qkt_connection`` that both builders call on their check
context and ``run_suite`` on its own chunk contexts.  ``NotQKTError`` is
constructed there and nowhere else, so a second copy of the check cannot
grow beside it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qkt"


def not_qkt_constructions(source: str, filename: str) -> list:
    """(file, enclosing function, line) of every ``NotQKTError(...)`` call."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                callee = child.func
                name = getattr(callee, "id", None) or getattr(callee, "attr", None)
                if name == "NotQKTError":
                    found.append((filename, function, child.lineno))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else function)

    visit(ast.parse(source, filename), None)
    return found


def test_guard_detects_a_second_construction():
    code = ("class NotQKTError(GeometryError):\n    pass\n"
            "def _check(ctx):\n    raise NotQKTError('a', 1.0, {})\n"
            "def build(ctx):\n"
            "    err = errors.NotQKTError('b', residual=1.0, details={})\n    raise err\n")
    assert not_qkt_constructions(code, "probe.py") == [("probe.py", "_check", 4),
                                                       ("probe.py", "build", 6)]


def test_one_not_qkt_construction_in_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        found += not_qkt_constructions(path.read_text(encoding="utf-8"), path.name)
    assert [(name, function) for name, function, _ in found] == [("qkt_connection.py", "_check")]
