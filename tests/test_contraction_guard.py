"""Source guard: no multi-operand einsum in the library.

``np.einsum`` without a contraction path evaluates three or more operands
as one nested loop over every index, O(d^6) for the J-twist of a 3-form.
Such contractions go through the kernels in ``qkt.quaternionic``
(``j_apply_form``, ``j_apply_pair``, ``frame_trace_pair``) or through
pairwise products instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qkt"


def _is_einsum(func) -> bool:
    if isinstance(func, ast.Attribute):
        return func.attr == "einsum"
    return isinstance(func, ast.Name) and func.id == "einsum"


def multi_operand_einsums(source: str, filename: str) -> list:
    """(file, line) of every einsum call with three or more operands or a starred argument."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not (isinstance(node, ast.Call) and _is_einsum(node.func)):
            continue
        operands = node.args[1:]
        if len(operands) >= 3 or any(isinstance(arg, ast.Starred) for arg in node.args):
            found.append((filename, node.lineno))
    return found


def test_guard_detects_multi_operand_einsum():
    code = ('import numpy as np\n'
            'np.einsum("ij,jk->ik", a, b)\n'
            'np.einsum("ai,bj,ab->ij", J, J, x)\n'
            'np.einsum(*args)\n')
    assert multi_operand_einsums(code, "probe.py") == [("probe.py", 3), ("probe.py", 4)]


def test_no_multi_operand_einsum_in_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        found += multi_operand_einsums(path.read_text(encoding="utf-8"), path.name)
    assert found == []
